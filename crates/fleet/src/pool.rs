//! The fleet's data plane: serving slots and their replay workers.
//!
//! Each slot owns one [`LiveReplica`] tailing the shared
//! [`OperationLog`] on its own worker thread — bounded
//! [`catch_up_batch`](LiveReplica::catch_up_batch) polls applied outside
//! the log lock, so workers replay in parallel and never stall the
//! writer — and a watermark published with a plain atomic so routing and
//! health checks never take a lock on the serving path.
//!
//! # Freshness: the caller applies, the worker is the fallback
//!
//! Each slot's replica sits behind one mutex shared by its worker and by
//! request threads. Every watermark is stored with that mutex held, so
//! it is monotone for the life of the slot; a respawn refills the
//! replica and stores its watermark together under it.
//!
//! A session read that finds no replica at its LSN does the missing
//! apply itself: it `try_lock`s the freshest serving slot's replica,
//! applies the ops up to its token (at most [`REPLAY_BATCH`] per pass),
//! publishes the watermark and routes again — so read-your-writes costs
//! the update it has to see, on the thread that asked, with no worker
//! wake and no hand-back. A caller never blocks on a replica someone
//! else holds: it waits on the pool's one wait cell (a `Mutex` +
//! `Condvar`) until a holder releases it or `WAIT_POLL` passes, then
//! tries again, until `session_timeout`. The cell counts releases, and a
//! waiter sleeps only if none happened since it last looked, so no
//! release is missed.
//!
//! A caught-up worker parks on the same cell for `poll_interval`; only a
//! kill wakes it sooner. It is the fallback for what nobody waits on:
//! plain reads trail the log by at most `poll_interval`, with
//! `stagger_polls` spreading the workers' first timeouts across the
//! interval.
//!
//! # One engine per slot: a respawn refills the store in place
//!
//! A slot serves one [`QueryEngine`] over its replica's [`ReplicaKg`] for
//! its whole life. [`ReplicaPool::kill`] stops the slot: it marks it
//! `Down` *before* joining the worker, so no new read routes to it and no
//! caller starts to catch its replica up, then waits out a caller still
//! applying; from then on the old replica does not move.
//! [`ReplicaPool::respawn`] then bootstraps a fresh replica off to the
//! side, to the log head, and moves its index and log position into the
//! slot's store under the replica mutex, in one write lock of the store,
//! the way an op lands. The fresh replica is at least as far along as
//! the stopped one, so the watermark only moves forward — and with it
//! the fleet's version ([`FleetRouter::generation`](crate::FleetRouter::generation)),
//! the highest published watermark — and a read pinned across the respawn
//! sees the old store on one call and the refilled one on the next — as
//! it would across an op boundary. The plan cache survives: a cached
//! plan re-resolves its edge targets on every hit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use saga_core::{Lsn, Result, SagaError};
use saga_graph::OperationLog;
use saga_live::replica::REPLAY_BATCH;
use saga_live::{LiveReplica, QueryEngine, ReplicaKg};

use crate::FleetConfig;

/// Slot lifecycle, published as one atomic flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// Caught up enough to serve (subject to the router's lag bound).
    Serving,
    /// Worker stopped or dead (panicked, killed, being respawned, or shut
    /// down); no read routes here.
    Down,
}

/// The longest a blocked [`ReplicaPool::wait_for`] goes without trying
/// again (a replica's release wakes it sooner). It bounds only how long
/// a state change that releases no replica — a slot leaving or
/// rejoining service — goes unnoticed.
const WAIT_POLL: Duration = Duration::from_micros(100);

/// One serving slot: a replica and the query engine over its store,
/// plus the atomics its supervisor and the router read.
pub(crate) struct Slot {
    pub(crate) id: usize,
    /// The replica, shared by the slot's worker and by session reads
    /// that catch it up themselves (see the module docs). A respawn
    /// refills it in place.
    replica: Mutex<LiveReplica>,
    /// The serving engine over the replica's store, for the slot's whole
    /// life (see the module docs).
    pub(crate) engine: QueryEngine<ReplicaKg>,
    /// The replica's applied watermark, stored with the `replica` mutex
    /// held after each applied batch: the fleet's one published copy,
    /// which routing, the controller and session waits read — never the
    /// replica.
    pub(crate) watermark: AtomicU64,
    serving: AtomicBool,
    kill: AtomicBool,
    /// Reads currently pinned to this slot: a load count for routing,
    /// which publishes no other data.
    pub(crate) inflight: AtomicU64,
    /// Queries served (successfully) by this slot.
    pub(crate) served: AtomicU64,
    /// Query errors plus worker panics attributed to this slot.
    pub(crate) errors: AtomicU64,
    /// Times this slot has been respawned.
    pub(crate) respawns: AtomicU64,
    /// Ops that request threads, not the worker, applied to this slot.
    pub(crate) caller_applied: AtomicU64,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Slot {
    fn new(id: usize, replica: LiveReplica) -> Arc<Self> {
        Arc::new(Slot {
            id,
            engine: QueryEngine::new(replica.live().clone()),
            watermark: AtomicU64::new(replica.watermark().0),
            replica: Mutex::new(replica),
            serving: AtomicBool::new(true),
            kill: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            caller_applied: AtomicU64::new(0),
            worker: Mutex::new(None),
        })
    }

    pub(crate) fn state(&self) -> ReplicaState {
        if self.is_serving() {
            ReplicaState::Serving
        } else {
            ReplicaState::Down
        }
    }

    pub(crate) fn is_serving(&self) -> bool {
        self.serving.load(Ordering::SeqCst)
    }

    /// Caller-side catch-up for a read waiting on `lsn`: if nobody holds
    /// this slot's replica, apply at most one [`REPLAY_BATCH`] of the ops
    /// up to `lsn`, publish the watermark and release. Returns whether
    /// the replica is now further along or already at `lsn` — `false`
    /// means the replica was held, the slot stopped serving, or the log
    /// had nothing to give.
    fn apply_up_to(&self, lsn: Lsn, wake: &WaitCell) -> bool {
        let Some(mut replica) = self.replica.try_lock() else {
            return false;
        };
        let _unwind = DownOnPanic(self);
        if !self.is_serving() {
            return false;
        }
        let previous = replica.watermark();
        let missing = lsn.0.saturating_sub(previous.0).min(REPLAY_BATCH as u64);
        if missing == 0 {
            return true;
        }
        // A replay error (the prefix compacted away) leaves the replica
        // as it was; its worker meets the same error and dies.
        let applied = match replica.catch_up_batch(missing as usize) {
            Ok(n) if n > 0 => n,
            _ => return false,
        };
        self.watermark
            .store(replica.watermark().0, Ordering::SeqCst);
        drop(replica);
        self.caller_applied
            .fetch_add(applied as u64, Ordering::Relaxed);
        wake.released(previous);
        true
    }

    /// Take the slot out of service: mark it `Down` first, so no new
    /// read routes here and no caller starts to catch the replica up, then
    /// tell the worker to exit — waking it if it is parked on `wake` —
    /// join it, and wait out a caller still applying. On return the
    /// replica no longer moves. Panicked workers were already recorded by
    /// their drop guard; the join result is irrelevant.
    fn stop_worker(&self, wake: &WaitCell) {
        self.serving.store(false, Ordering::SeqCst);
        self.kill.store(true, Ordering::SeqCst);
        wake.notify_workers();
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        // A caller that took the replica before the state changed may
        // still be applying; one that takes it later sees `Down`.
        drop(self.replica.lock());
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
        self.0.serving.store(false, Ordering::SeqCst);
    }
}

/// Held beside a slot's replica guard, and dropped before it: a panic
/// while applying marks the slot `Down` before the replica is released,
/// so no caller catches up — and no read is routed to — a replica left
/// with half a batch applied.
struct DownOnPanic<'a>(&'a Slot);

impl Drop for DownOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.serving.store(false, Ordering::SeqCst);
        }
    }
}

/// Where blocked session reads wait for a replica to be released, and
/// where caught-up workers park. One per pool.
struct WaitCell {
    /// The highest LSN a blocked reader has asked for, clamped to the log
    /// head when it asked: a release notifies readers only if one may
    /// want more than the replica held when it was taken.
    wanted: std::sync::Mutex<u64>,
    /// Replica releases so far, bumped under `wanted`'s mutex: a reader
    /// that saw it move since it last tried does not sleep.
    releases: AtomicU64,
    /// Blocked readers wait here.
    readers: Condvar,
    /// Caught-up workers park here; only a kill notifies it.
    workers: Condvar,
}

impl WaitCell {
    /// A panic while holding the guard cannot leave the one `u64` behind
    /// it half-updated, so a poisoned lock is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, u64> {
        self.wanted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every parked worker to re-check its kill flag. Taking the
    /// mutex first orders the caller's preceding store before the
    /// re-check.
    fn notify_workers(&self) {
        let _guard = self.lock();
        self.workers.notify_all();
    }

    /// Worker side: park until the slot is killed or `timeout` passes.
    fn park(&self, slot: &Slot, timeout: Duration) {
        let _ = self
            .workers
            .wait_timeout_while(self.lock(), timeout, |_| !slot.kill.load(Ordering::SeqCst));
    }

    /// After releasing a replica taken at `previous`: count the release
    /// and wake the blocked readers if one may be waiting past it — for
    /// the watermark just stored, or for its own turn at the replica.
    fn released(&self, previous: Lsn) {
        let wanted = self.lock();
        self.releases.fetch_add(1, Ordering::SeqCst);
        if *wanted > previous.0 {
            self.readers.notify_all();
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
    /// the newest usable checkpoint in `ckpt_dir` (created if missing),
    /// then start a worker thread per slot to tail the log. If a worker
    /// cannot be spawned, the ones already running are stopped and the
    /// spawn error is returned.
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
            releases: AtomicU64::new(0),
            readers: Condvar::new(),
            workers: Condvar::new(),
        });
        let mut slots = Vec::with_capacity(cfg.replicas);
        for id in 0..cfg.replicas {
            let replica = LiveReplica::bootstrap(1, &ckpt_dir, Arc::clone(&log))?;
            slots.push(Slot::new(id, replica));
        }
        // On a failed spawn the pool drops here, and its `Drop` stops the
        // workers already running.
        let pool = ReplicaPool {
            cfg,
            log,
            ckpt_dir,
            slots,
            wake,
            lag_skips: AtomicU64::new(0),
            session_skips: AtomicU64::new(0),
            rr: AtomicU64::new(0),
        };
        let cfg = &pool.cfg;
        for slot in &pool.slots {
            let offset = if cfg.stagger_polls {
                cfg.poll_interval * slot.id as u32 / cfg.replicas as u32
            } else {
                Duration::ZERO
            };
            let handle = spawn_worker(
                Arc::clone(slot),
                cfg.clone(),
                Arc::clone(&pool.wake),
                offset,
            )?;
            *slot.worker.lock() = Some(handle);
        }
        Ok(Arc::new(pool))
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

    /// Run `ready` until it yields or `deadline` passes, catching a
    /// replica up to `lsn` on this thread whenever `ready` comes up
    /// empty: the freshest serving slot's replica, if nobody holds it.
    /// When someone does, block until a replica is released (at most
    /// [`WAIT_POLL`]) and try again.
    pub(crate) fn wait_for<T>(
        &self,
        lsn: Lsn,
        deadline: Instant,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        loop {
            let releases = self.wake.releases.load(Ordering::SeqCst);
            if let Some(out) = ready() {
                return Some(out);
            }
            let freshest = self
                .slots
                .iter()
                .filter(|s| s.is_serving())
                .max_by_key(|s| s.watermark.load(Ordering::SeqCst));
            if freshest.is_some_and(|slot| slot.apply_up_to(lsn, &self.wake)) {
                continue;
            }
            if Instant::now() >= deadline {
                return None;
            }
            let want = lsn.0.min(self.log.head().0);
            let mut wanted = self.wake.lock();
            *wanted = (*wanted).max(want);
            // Under the mutex every release bumps the count in: one that
            // came after `ready` ran was seen here, and a later one finds
            // this thread already waiting.
            if self.wake.releases.load(Ordering::SeqCst) != releases {
                continue;
            }
            let nap = WAIT_POLL.min(deadline.saturating_duration_since(Instant::now()));
            let _ = self.wake.readers.wait_timeout(wanted, nap);
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

    /// Stop replica `id`: mark it `Down`, then stop its worker (see the
    /// module docs). The slot serves nothing until
    /// [`respawn`](Self::respawn).
    pub fn kill(&self, id: usize) -> Result<()> {
        self.slot(id)?.stop_worker(&self.wake);
        Ok(())
    }

    /// Stop replica `id`, bootstrap a fresh replica from the newest usable
    /// checkpoint plus the log tail, refill the slot's store with it in
    /// place and restart the worker (see the module docs). The store and
    /// the watermark change together under the replica mutex; the old
    /// index is dropped after it is released. A failed bootstrap or
    /// worker spawn leaves the slot `Down`.
    pub fn respawn(&self, id: usize) -> Result<()> {
        let slot = self.slot(id)?;
        slot.stop_worker(&self.wake);
        let fresh = LiveReplica::bootstrap(1, &self.ckpt_dir, Arc::clone(&self.log))?;
        let mut replica = slot.replica.lock();
        let old = replica.replace_with(fresh);
        slot.watermark
            .store(replica.watermark().0, Ordering::SeqCst);
        drop(replica);
        drop(old);
        slot.kill.store(false, Ordering::SeqCst);
        slot.respawns.fetch_add(1, Ordering::Relaxed);
        // Serving from here on; the router's lag bound keeps routed reads
        // away until the fresh replica is within bound of the median.
        slot.serving.store(true, Ordering::SeqCst);
        let handle = spawn_worker(
            Arc::clone(slot),
            self.cfg.clone(),
            Arc::clone(&self.wake),
            Duration::ZERO,
        )
        .inspect_err(|_| slot.serving.store(false, Ordering::SeqCst))?;
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

/// The replay worker: with the slot's replica held, applies one log
/// batch and publishes the watermark; when caught up, parks
/// on `wake` for one poll interval. Fails only if the OS refuses the
/// thread.
fn spawn_worker(
    slot: Arc<Slot>,
    cfg: FleetConfig,
    wake: Arc<WaitCell>,
    phase_offset: Duration,
) -> Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("fleet-replica-{}", slot.id))
        .spawn(move || {
            let guard = DownOnExit(Arc::clone(&slot));
            if !phase_offset.is_zero() {
                wake.park(&slot, phase_offset);
            }
            while !slot.kill.load(Ordering::SeqCst) {
                let mut replica = slot.replica.lock();
                let unwind = DownOnPanic(&slot);
                // Failpoint drills, checked with the replica held: an
                // injected error kills this worker exactly like a replay
                // failure (the controller respawns it from a checkpoint),
                // an injected panic exercises the drop-guard death path,
                // and an injected delay wedges the replica the way a hung
                // apply would — alive, not replaying, its watermark
                // frozen, and held, so callers cannot catch it up
                // either — for the wedge detector to catch.
                if saga_core::fail::check_scoped(
                    saga_core::fail::sites::FLEET_WORKER_POLL,
                    &cfg.fail_scope,
                )
                .is_err()
                {
                    slot.errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                let previous = replica.watermark();
                let applied = match replica.catch_up_batch(REPLAY_BATCH) {
                    Ok(n) => n,
                    Err(_) => {
                        // Replay failure (e.g. the prefix was compacted
                        // away under us): this replica can no longer
                        // converge — die and let the controller respawn
                        // it from a checkpoint.
                        slot.errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                };
                if applied > 0 {
                    // Publish *after* the batch is applied: a router
                    // that observes watermark >= w is guaranteed the
                    // engine serves every op <= w.
                    slot.watermark
                        .store(replica.watermark().0, Ordering::SeqCst);
                }
                drop(unwind);
                drop(replica);
                wake.released(previous);
                if applied == 0 {
                    wake.park(&slot, cfg.poll_interval);
                }
            }
            drop(guard);
        })
        .map_err(SagaError::from)
}
