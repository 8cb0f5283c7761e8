//! The fleet's control plane: health, failure detection, respawn,
//! checkpoint cadence.
//!
//! [`FleetController::tick`] is one supervision pass — deliberately a
//! plain method, so tests and schedulers drive it deterministically:
//!
//! 1. **checkpoint cadence** — once the log head has advanced
//!    [`checkpoint_every`](crate::FleetConfig::checkpoint_every) ops past
//!    the last artifact,
//!    [`checkpoint_and_compact`](CheckpointWriter::checkpoint_and_compact)
//!    writes a new artifact and prunes the replayed prefix — keeping
//!    respawn `O(live data + tail)` and the log bounded;
//! 2. **death detection** — slots whose worker exited (panic, replay
//!    error, kill) are `Down` via their drop guard and are respawned from
//!    the newest checkpoint: the slot's store is refilled in place (see
//!    the [`pool`](crate::pool) module docs);
//! 3. **wedge detection** — a slot whose published watermark has not
//!    moved for longer than
//!    [`wedge_timeout`](crate::FleetConfig::wedge_timeout) while the log
//!    head stayed ahead of it is stuck, not idle: it is respawned like a
//!    dead slot, which marks it `Down` before waiting for its worker. A
//!    worker pass with the log ahead applies at least one op or ends the
//!    worker, so a live worker's watermark stands still only while one
//!    batch applies.
//!
//! A failed step does not end the pass: a checkpoint that cannot be
//! published still lets dead slots respawn (from the older artifact and
//! a longer tail), and a slot whose respawn fails does not hold back the
//! slots after it. The pass's [`TickReport`] carries what it did and
//! every failure, in step order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use saga_core::{checkpoint, Lsn, SagaError};
use saga_graph::CheckpointWriter;

use crate::pool::{ReplicaPool, ReplicaState};

/// The supervisor: owns failure detection and the checkpoint cadence for
/// one [`ReplicaPool`].
pub struct FleetController {
    pool: Arc<ReplicaPool>,
    ckpt: Option<CheckpointWriter>,
    /// Watermark of the newest checkpoint artifact (0 when none).
    last_ckpt: AtomicU64,
    /// Checkpoints taken by this controller.
    checkpoints: AtomicU64,
    /// Per slot, for wedge detection: the watermark it was first seen
    /// behind the log head at, and when — `None` while it is caught up or
    /// after its watermark moved.
    stalled: Mutex<Vec<Option<(u64, Instant)>>>,
}

impl FleetController {
    /// A controller that supervises workers but never checkpoints (no
    /// producer-side writer available — e.g. a read-only serving tier).
    pub fn new(pool: Arc<ReplicaPool>) -> Self {
        let stalled = vec![None; pool.slots().len()];
        FleetController {
            pool,
            ckpt: None,
            last_ckpt: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            stalled: Mutex::new(stalled),
        }
    }

    /// A controller that also owns the checkpoint cadence. `writer` must
    /// target the pool's checkpoint directory so respawns find the
    /// artifacts it writes. The cadence resumes from the newest existing
    /// artifact's watermark.
    pub fn with_checkpointer(pool: Arc<ReplicaPool>, writer: CheckpointWriter) -> Self {
        let mut controller = Self::new(pool);
        let newest = checkpoint::artifacts(controller.pool.checkpoint_dir())
            .ok()
            .and_then(|infos| infos.last().map(|i| i.watermark))
            .unwrap_or(Lsn::ZERO);
        controller.last_ckpt = AtomicU64::new(newest.0);
        controller.ckpt = Some(writer);
        controller
    }

    /// The supervised pool.
    pub fn pool(&self) -> &Arc<ReplicaPool> {
        &self.pool
    }

    /// One supervision pass; see the module docs for the three steps.
    /// Every step runs even if an earlier one fails; the report lists the
    /// failures beside what the pass did.
    pub fn tick(&self) -> TickReport {
        let mut report = TickReport::default();

        // 1. Checkpoint cadence — before respawns, so a respawn in the
        // same tick bootstraps from the freshest possible artifact.
        if let Some(writer) = &self.ckpt {
            let head = self.pool.log().head().0;
            if head.saturating_sub(self.last_ckpt.load(Ordering::Relaxed))
                >= self.pool.config().checkpoint_every
            {
                match writer.checkpoint_and_compact() {
                    Ok(receipt) => {
                        self.last_ckpt.store(receipt.watermark.0, Ordering::Relaxed);
                        self.checkpoints.fetch_add(1, Ordering::Relaxed);
                        report.checkpointed = Some(receipt.watermark);
                    }
                    Err(e) => report.errors.push(e),
                }
            }
        }

        // 2 + 3. Death and wedge detection.
        let head = self.pool.log().head().0;
        for (id, slot) in self.pool.slots().iter().enumerate() {
            if slot.is_serving() && !self.wedged(id, head) {
                continue;
            }
            match self.pool.respawn(id) {
                Ok(()) => {
                    self.stalled.lock()[id] = None;
                    report.respawned.push(id);
                }
                Err(e) => report.errors.push(e),
            }
        }
        report
    }

    /// Whether serving slot `id` has published no new watermark for
    /// `wedge_timeout` since it was first seen behind the log head. The
    /// clock starts at that sighting, not while the slot was caught up,
    /// and a moved watermark restarts it.
    fn wedged(&self, id: usize, head: u64) -> bool {
        let watermark = self.pool.slots()[id].watermark.load(Ordering::SeqCst);
        let mut stalled = self.stalled.lock();
        match &mut stalled[id] {
            Some((seen, since)) if *seen == watermark && head > watermark => {
                since.elapsed() >= self.pool.config().wedge_timeout
            }
            entry => {
                *entry = (head > watermark).then(|| (watermark, Instant::now()));
                false
            }
        }
    }

    /// A point-in-time health snapshot of the whole fleet.
    pub fn stats(&self) -> FleetStats {
        let head = self.pool.log().head();
        let replicas: Vec<ReplicaHealth> = self
            .pool
            .slots()
            .iter()
            .map(|s| {
                let watermark = Lsn(s.watermark.load(Ordering::SeqCst));
                ReplicaHealth {
                    replica: s.id,
                    state: s.state(),
                    watermark,
                    lag: head.0.saturating_sub(watermark.0),
                    inflight: s.inflight.load(Ordering::Relaxed),
                    served: s.served.load(Ordering::Relaxed),
                    errors: s.errors.load(Ordering::Relaxed),
                    respawns: s.respawns.load(Ordering::Relaxed),
                    caller_applied: s.caller_applied.load(Ordering::Relaxed),
                }
            })
            .collect();
        let mut serving: Vec<u64> = replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Serving)
            .map(|r| r.watermark.0)
            .collect();
        serving.sort_unstable();
        FleetStats {
            head,
            median_watermark: serving.get(serving.len() / 2).copied().map(Lsn),
            lag_skips: self.pool.lag_skips.load(Ordering::Relaxed),
            session_skips: self.pool.session_skips.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            last_checkpoint: Lsn(self.last_ckpt.load(Ordering::Relaxed)),
            replicas,
        }
    }
}

/// What one [`FleetController::tick`] did, and what failed.
#[derive(Debug, Default)]
pub struct TickReport {
    /// Slots respawned this pass (dead or wedged).
    pub respawned: Vec<usize>,
    /// Watermark of the checkpoint taken this pass, if any.
    pub checkpointed: Option<Lsn>,
    /// The pass's failures in step order: a failed checkpoint first, then
    /// each failed respawn by slot.
    pub errors: Vec<SagaError>,
}

/// Health of one serving slot.
#[derive(Clone, Debug)]
pub struct ReplicaHealth {
    /// Slot index.
    pub replica: usize,
    /// Lifecycle state.
    pub state: ReplicaState,
    /// Highest LSN fully applied and published.
    pub watermark: Lsn,
    /// Ops between the log head and this replica.
    pub lag: u64,
    /// Reads currently pinned here.
    pub inflight: u64,
    /// Queries served.
    pub served: u64,
    /// Query errors plus worker deaths.
    pub errors: u64,
    /// Times respawned.
    pub respawns: u64,
    /// Ops that request threads applied here — session reads and
    /// `wait_for_lsn` barriers catching the replica up themselves —
    /// rather than its worker.
    pub caller_applied: u64,
}

/// Point-in-time fleet health.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// The shared log's head.
    pub head: Lsn,
    /// Median watermark across serving replicas (the router's freshness
    /// anchor); `None` when nothing serves.
    pub median_watermark: Option<Lsn>,
    /// Routing decisions that skipped a replica for trailing the median
    /// beyond the lag bound.
    pub lag_skips: u64,
    /// Routing decisions that skipped a replica for trailing a session
    /// token.
    pub session_skips: u64,
    /// Checkpoints taken by this controller.
    pub checkpoints: u64,
    /// Watermark of the newest checkpoint artifact.
    pub last_checkpoint: Lsn,
    /// Per-slot health.
    pub replicas: Vec<ReplicaHealth>,
}
