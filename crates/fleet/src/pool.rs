//! The fleet's data plane: serving slots and their replay workers.
//!
//! Each slot owns one [`LiveReplica`] tailing the shared
//! [`OperationLog`] on its own worker thread — bounded
//! [`catch_up_batch`](LiveReplica::catch_up_batch) polls applied outside
//! the log lock, so workers replay in parallel and never stall the
//! writer — and a heartbeat/watermark pair published with plain atomics
//! so routing and health checks never take a lock on the serving path.
//!
//! # Freshness: demand wakes, timed fallback
//!
//! A caught-up worker parks on the pool's one wait cell (a `Mutex` +
//! `Condvar` holding the highest LSN a blocked reader wants) with
//! `poll_interval` as the timeout. A session read that finds no replica
//! at its LSN publishes that LSN, wakes the workers and blocks on the
//! same cell until a worker stores a watermark that satisfies it — so
//! read-your-writes costs one apply, not a poll interval. Ingest nobody
//! is waiting on wakes no one: it is applied when the timeout fires, in
//! at most `poll_interval`-sized batches, with `stagger_polls` spreading
//! the workers' first timeouts across the interval. Both sides check
//! their predicate under the cell's mutex and every notifier takes it
//! first, so no wake-up is lost.
//!
//! # The no-stale-pin protocol
//!
//! A routed read pins a slot's engine (increments `inflight`, clones the
//! engine `Arc`), then **re-checks** state and watermark. Draining stores
//! `DRAINING` *before* waiting for `inflight == 0`; both sides use
//! `SeqCst`, so if the reader's re-check still observes `SERVING`, the
//! drain had not started and must subsequently wait for this pin to drop —
//! the engine swap cannot happen under a pinned read, and a session read
//! that re-verified `watermark >= token` keeps that guarantee for the
//! engine it actually holds. A re-check that observes anything else
//! releases the pin and re-routes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use saga_core::{GraphRead, Lsn, Result, SagaError};
use saga_graph::OperationLog;
use saga_live::replica::REPLAY_BATCH;
use saga_live::{LiveReplica, QueryEngine, ReplicaKg};

use crate::FleetConfig;

/// Slot lifecycle, published as one atomic byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// Caught up enough to serve (subject to the router's lag bound).
    Serving,
    /// Excluded from new reads; in-flight reads are finishing.
    Draining,
    /// Worker dead (panicked, wedged-and-killed, or shut down).
    Down,
}

/// The longest a blocked [`ReplicaPool::wait_for`] goes without
/// re-checking its predicate (a worker's publish wakes it sooner). It
/// bounds only how long a state change that notifies nobody — a slot
/// leaving or rejoining service — goes unnoticed.
const WAIT_POLL: Duration = Duration::from_micros(100);

const STATE_SERVING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_DOWN: u8 = 2;

/// One serving slot: a query engine over a replica store, plus the
/// atomics its worker publishes and its supervisor reads.
pub(crate) struct Slot {
    pub(crate) id: usize,
    /// The serving engine. Swapped only on respawn, and only while no
    /// read pins it (see the module docs); readers clone the `Arc` out
    /// under a brief read lock.
    engine: RwLock<Arc<QueryEngine<ReplicaKg>>>,
    /// The replica's applied watermark, stored by the worker after each
    /// applied batch: the fleet's one published copy, which routing, the
    /// controller and session waits read — never the replica.
    pub(crate) watermark: AtomicU64,
    /// Sum of the generations of this slot's *previous* engines: added to
    /// the live engine's generation it keeps the slot (and fleet)
    /// generation monotone across respawns, so plan caches keyed on it
    /// can never revalidate against a reborn store. Changed only under
    /// the `engine` write lock, together with the swap it accounts for.
    pub(crate) gen_floor: AtomicU64,
    state: AtomicU8,
    kill: AtomicBool,
    /// Reads currently pinned to this slot's engine.
    pub(crate) inflight: AtomicU64,
    /// Queries served (successfully) by this slot.
    pub(crate) served: AtomicU64,
    /// Query errors plus worker panics attributed to this slot.
    pub(crate) errors: AtomicU64,
    /// Times this slot has been respawned.
    pub(crate) respawns: AtomicU64,
    /// Bumped every worker loop iteration; a frozen heartbeat is the
    /// wedge signal.
    pub(crate) heartbeat: AtomicU64,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Slot {
    fn new(id: usize, engine: QueryEngine<ReplicaKg>, watermark: Lsn) -> Arc<Self> {
        Arc::new(Slot {
            id,
            engine: RwLock::new(Arc::new(engine)),
            watermark: AtomicU64::new(watermark.0),
            gen_floor: AtomicU64::new(0),
            state: AtomicU8::new(STATE_SERVING),
            kill: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            worker: Mutex::new(None),
        })
    }

    pub(crate) fn state(&self) -> ReplicaState {
        match self.state.load(Ordering::SeqCst) {
            STATE_SERVING => ReplicaState::Serving,
            STATE_DRAINING => ReplicaState::Draining,
            _ => ReplicaState::Down,
        }
    }

    pub(crate) fn is_serving(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_SERVING
    }

    /// Clone the serving engine out (brief read lock, no contention with
    /// the worker, which never touches the engine lock).
    pub(crate) fn engine(&self) -> Arc<QueryEngine<ReplicaKg>> {
        Arc::clone(&self.engine.read())
    }

    /// This slot's generation: the floor accumulated over dead engines
    /// plus the live engine's own counter, read under one engine lock so
    /// a respawn's floor bump and swap are seen together or not at all.
    pub(crate) fn generation(&self) -> u64 {
        let engine = self.engine.read();
        self.gen_floor.load(Ordering::Relaxed) + engine.graph().generation()
    }

    /// Exclude the slot from new reads and wait (bounded) for pinned
    /// reads to finish. `SeqCst` pairs with the router's pin re-check.
    fn drain(&self, timeout: Duration) {
        self.state.store(STATE_DRAINING, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + timeout;
        while self.inflight.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Tell the worker to exit — waking it if it is parked on `wake` —
    /// and join it. Panicked workers were already recorded by their drop
    /// guard; the join result is irrelevant.
    fn stop_worker(&self, wake: &WaitCell) {
        self.kill.store(true, Ordering::SeqCst);
        wake.notify();
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        self.state.store(STATE_DOWN, Ordering::SeqCst);
    }
}

/// Sets the slot `Down` when the worker exits for *any* reason — clean
/// kill or panic — so the controller sees every death the same way.
struct DownOnExit(Arc<Slot>);

impl Drop for DownOnExit {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.0.state.store(STATE_DOWN, Ordering::SeqCst);
    }
}

/// Where caught-up workers and blocked session reads wait for each other
/// (see the module docs). One per pool.
struct WaitCell {
    /// The highest LSN a blocked reader has asked for, clamped to the log
    /// head when it asked — so a worker woken because `wanted` is past
    /// its watermark always finds an op to apply.
    wanted: std::sync::Mutex<u64>,
    changed: Condvar,
}

impl WaitCell {
    /// A panic while holding the guard cannot leave the one `u64` behind
    /// it half-updated, so a poisoned lock is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, u64> {
        self.wanted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every waiter to re-check its predicate. Taking the mutex
    /// first orders the caller's preceding store before the re-check.
    fn notify(&self) {
        let _guard = self.lock();
        self.changed.notify_all();
    }

    /// Worker side: park until a reader wants an LSN past `watermark`,
    /// the slot is killed, or `timeout` passes.
    fn park(&self, slot: &Slot, watermark: Lsn, timeout: Duration) {
        let _ = self
            .changed
            .wait_timeout_while(self.lock(), timeout, |wanted| {
                *wanted <= watermark.0 && !slot.kill.load(Ordering::SeqCst)
            });
    }

    /// Worker side, after storing a watermark past `previous`: wake the
    /// blocked readers, if one may be waiting on this advance.
    fn published(&self, previous: Lsn) {
        let wanted = self.lock();
        if *wanted > previous.0 {
            self.changed.notify_all();
        }
    }
}

/// The fleet's slots plus the shared log and checkpoint directory they
/// bootstrap from. Construct with [`ReplicaPool::start`]; route through
/// [`FleetRouter`](crate::FleetRouter) — the pool itself exposes no
/// per-replica query surface.
pub struct ReplicaPool {
    cfg: FleetConfig,
    log: Arc<OperationLog>,
    ckpt_dir: PathBuf,
    slots: Vec<Arc<Slot>>,
    wake: Arc<WaitCell>,
    /// Reads not routed to some replica because it trailed the fleet
    /// median by more than the lag bound.
    pub(crate) lag_skips: AtomicU64,
    /// Reads not routed to some replica because it had not reached the
    /// session token's LSN.
    pub(crate) session_skips: AtomicU64,
    /// Rotates the tie-break among equally-loaded fresh replicas.
    pub(crate) rr: AtomicU64,
}

impl ReplicaPool {
    /// Boot `cfg.replicas` slots against `log`, each bootstrapping from
    /// the newest usable checkpoint in `ckpt_dir` (created if missing)
    /// and then tailing the log on its own worker thread.
    pub fn start(
        cfg: FleetConfig,
        log: Arc<OperationLog>,
        ckpt_dir: impl Into<PathBuf>,
    ) -> Result<Arc<Self>> {
        let cfg = cfg.validated();
        let ckpt_dir = ckpt_dir.into();
        std::fs::create_dir_all(&ckpt_dir)?;
        let wake = Arc::new(WaitCell {
            wanted: std::sync::Mutex::new(0),
            changed: Condvar::new(),
        });
        let mut slots = Vec::with_capacity(cfg.replicas);
        for id in 0..cfg.replicas {
            let replica = LiveReplica::bootstrap(cfg.shards, &ckpt_dir, Arc::clone(&log))?;
            let slot = Slot::new(
                id,
                QueryEngine::new(replica.live().clone()),
                replica.watermark(),
            );
            let offset = if cfg.stagger_polls {
                cfg.poll_interval * id as u32 / cfg.replicas as u32
            } else {
                Duration::ZERO
            };
            let handle = spawn_worker(
                Arc::clone(&slot),
                replica,
                cfg.clone(),
                Arc::clone(&wake),
                offset,
            );
            *slot.worker.lock() = Some(handle);
            slots.push(slot);
        }
        Ok(Arc::new(ReplicaPool {
            cfg,
            log,
            ckpt_dir,
            slots,
            wake,
            lag_skips: AtomicU64::new(0),
            session_skips: AtomicU64::new(0),
            rr: AtomicU64::new(0),
        }))
    }

    /// Number of slots (fixed for the pool's lifetime).
    pub fn replicas(&self) -> usize {
        self.slots.len()
    }

    /// The fleet's tuning knobs.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The shared log every replica tails.
    pub fn log(&self) -> &Arc<OperationLog> {
        &self.log
    }

    /// Where respawns look for checkpoint artifacts.
    pub fn checkpoint_dir(&self) -> &Path {
        &self.ckpt_dir
    }

    pub(crate) fn slots(&self) -> &[Arc<Slot>] {
        &self.slots
    }

    /// Block until `ready` yields, re-running it whenever a worker
    /// publishes a watermark (and at least every [`WAIT_POLL`]), or until
    /// `deadline` passes. `lsn` is what `ready` is waiting for some
    /// replica to reach: it is published to the wait cell so parked
    /// workers wake and apply it now instead of at their next timeout.
    pub(crate) fn wait_for<T>(
        &self,
        lsn: Lsn,
        deadline: Instant,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        // The common case — some replica is already there — takes no lock.
        if let Some(out) = ready() {
            return Some(out);
        }
        // A zero session timeout fails fast and wakes nobody either.
        if Instant::now() >= deadline {
            return None;
        }
        let want = lsn.0.min(self.log.head().0);
        let mut wanted = self.wake.lock();
        if want > *wanted {
            *wanted = want;
            self.wake.changed.notify_all();
        }
        loop {
            // Under the mutex every publishing worker takes before it
            // notifies: a watermark stored before this check is seen by
            // it, one stored after it finds this thread already waiting.
            if let Some(out) = ready() {
                return Some(out);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let nap = WAIT_POLL.min(left);
            wanted = self
                .wake
                .changed
                .wait_timeout(wanted, nap)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn slot(&self, id: usize) -> Result<&Arc<Slot>> {
        self.slots.get(id).ok_or_else(|| {
            SagaError::Storage(format!(
                "no replica {id} in a fleet of {}",
                self.slots.len()
            ))
        })
    }

    /// Hard-stop replica `id`: drain briefly, kill its worker, mark it
    /// `Down`. The slot serves nothing until [`respawn`](Self::respawn).
    pub fn kill(&self, id: usize) -> Result<()> {
        let slot = self.slot(id)?;
        slot.drain(self.cfg.drain_timeout);
        slot.stop_worker(&self.wake);
        Ok(())
    }

    /// Drain replica `id` (used by the controller before respawning a
    /// wedged worker, so pinned reads finish first).
    pub(crate) fn drain(&self, id: usize) -> Result<()> {
        self.slot(id)?.drain(self.cfg.drain_timeout);
        Ok(())
    }

    /// Rebuild replica `id` from the newest usable checkpoint plus the
    /// log tail, swap it into the slot and restart its worker. The dead
    /// engine's generation folds into the slot's floor under the same
    /// write lock as the swap, so the slot-level generation stays
    /// monotone through the bootstrap and across the swap, and a failed
    /// bootstrap leaves both untouched.
    pub fn respawn(&self, id: usize) -> Result<()> {
        let slot = self.slot(id)?;
        slot.stop_worker(&self.wake);
        let replica =
            LiveReplica::bootstrap(self.cfg.shards, &self.ckpt_dir, Arc::clone(&self.log))?;
        slot.watermark
            .store(replica.watermark().0, Ordering::SeqCst);
        {
            let mut engine = slot.engine.write();
            slot.gen_floor
                .fetch_add(engine.graph().generation(), Ordering::Relaxed);
            *engine = Arc::new(QueryEngine::new(replica.live().clone()));
        }
        slot.kill.store(false, Ordering::SeqCst);
        slot.respawns.fetch_add(1, Ordering::Relaxed);
        // Serving from here on; the router's lag bound keeps routed reads
        // away until the fresh replica is within bound of the median.
        slot.state.store(STATE_SERVING, Ordering::SeqCst);
        let handle = spawn_worker(
            Arc::clone(slot),
            replica,
            self.cfg.clone(),
            Arc::clone(&self.wake),
            Duration::ZERO,
        );
        *slot.worker.lock() = Some(handle);
        Ok(())
    }

    /// Stop every worker. Also runs on drop; explicit shutdown just makes
    /// the join point visible.
    pub fn shutdown(&self) {
        for slot in &self.slots {
            slot.kill.store(true, Ordering::SeqCst);
        }
        for slot in &self.slots {
            slot.stop_worker(&self.wake);
        }
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The replay worker: applies log batches to its replica, publishes the
/// watermark, heartbeats, and when caught up parks on `wake` for at most
/// one poll interval.
fn spawn_worker(
    slot: Arc<Slot>,
    mut replica: LiveReplica,
    cfg: FleetConfig,
    wake: Arc<WaitCell>,
    phase_offset: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("fleet-replica-{}", slot.id))
        .spawn(move || {
            let guard = DownOnExit(Arc::clone(&slot));
            if !phase_offset.is_zero() {
                wake.park(&slot, replica.watermark(), phase_offset);
            }
            loop {
                if slot.kill.load(Ordering::SeqCst) {
                    break;
                }
                // Failpoint drills: an injected error kills this worker
                // exactly like a replay failure (the controller respawns
                // it from a checkpoint), an injected panic exercises the
                // drop-guard death path, an injected delay wedges the
                // worker — alive, not replaying, not heartbeating — for
                // the wedge detector to catch.
                if saga_core::fail::check_scoped(
                    saga_core::fail::sites::FLEET_WORKER_POLL,
                    &cfg.fail_scope,
                )
                .is_err()
                {
                    slot.errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                slot.heartbeat.fetch_add(1, Ordering::Relaxed);
                let previous = replica.watermark();
                match replica.catch_up_batch(REPLAY_BATCH) {
                    Ok(0) => wake.park(&slot, previous, cfg.poll_interval),
                    Ok(_) => {
                        // Publish *after* the batch is applied: a router
                        // that observes watermark >= w is guaranteed the
                        // engine serves every op <= w.
                        slot.watermark
                            .store(replica.watermark().0, Ordering::SeqCst);
                        wake.published(previous);
                    }
                    Err(_) => {
                        // Replay failure (e.g. the prefix was compacted
                        // away under us): this replica can no longer
                        // converge — die and let the controller respawn
                        // it from a checkpoint.
                        slot.errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            drop(guard);
        })
        .expect("spawn fleet replica worker")
}
