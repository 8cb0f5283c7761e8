//! Lag-aware routing with read-your-writes sessions.
//!
//! [`FleetRouter`] is the fleet's only external query surface. Every read
//! picks a replica in three lock-free steps over the slots' published
//! watermarks:
//!
//! 1. **freshness** — compute the median watermark of the serving slots
//!    and drop any slot trailing it by more than
//!    [`FleetConfig::lag_bound`](crate::FleetConfig::lag_bound) (counted
//!    in [`FleetStats::lag_skips`](crate::FleetStats));
//! 2. **session** — with a [`SessionToken`], drop slots whose watermark
//!    is below the token's LSN (counted in `session_skips`), so a client
//!    never observes a store missing its own committed writes;
//! 3. **load** — among the survivors, pick the fewest in-flight reads,
//!    rotating the tie-break so equal loads spread round-robin.
//!
//! The pick is pinned as a [`RoutedRead`], which counts as load until it
//! is dropped; that is all a pin does. A slot keeps one engine for life,
//! and a respawn refills its store in place at a watermark no lower than
//! the old one (see the [`pool`](crate::pool) module docs), so a pinned
//! read, session reads included, never needs to re-check its slot.
//!
//! A session read with *no* eligible replica catches one up itself: it
//! takes the freshest serving slot's replica if nobody holds it, applies
//! the ops up to its token and routes again (see the
//! [`pool`](crate::pool) module docs). If the replica is held, it waits
//! for a release and tries again, bounded by
//! [`FleetConfig::session_timeout`](crate::FleetConfig::session_timeout)
//! — so the wait is the apply it needs, not a thread wake-up, unless the
//! fleet is down or wedged. Plain reads apply nothing: what they see
//! trails the log by at most the workers' `poll_interval`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saga_core::{
    BlockPostings, EntityId, EntityRecord, GraphRead, Lsn, ProbeKey, Result, SagaError,
    SessionToken,
};
use saga_live::{QueryEngine, QueryResult, ReplicaKg};

use crate::pool::{ReplicaPool, Slot};

/// The fleet's query front door. Cheap to clone (a handle over the shared
/// pool); all clones share routing counters.
#[derive(Clone)]
pub struct FleetRouter {
    pool: Arc<ReplicaPool>,
}

impl FleetRouter {
    /// A router over `pool`.
    pub fn new(pool: Arc<ReplicaPool>) -> Self {
        FleetRouter { pool }
    }

    /// The routed pool.
    pub fn pool(&self) -> &Arc<ReplicaPool> {
        &self.pool
    }

    /// Route one KGQ query to a fresh replica.
    pub fn query(&self, text: &str) -> Result<QueryResult> {
        self.read()?.query(text)
    }

    /// Route one KGQ query for a session: served only by a replica that
    /// has replayed at least the session's LSN (read-your-writes), with
    /// the fleet's bounded session wait.
    pub fn query_with_session(&self, text: &str, token: &SessionToken) -> Result<QueryResult> {
        self.read_with_session(token)?.query(text)
    }

    /// Pin a fresh replica for a sequence of reads (see [`RoutedRead`]).
    pub fn read(&self) -> Result<RoutedRead> {
        self.pick_pinned(None).ok_or_else(|| {
            SagaError::Unavailable("fleet has no serving replica within the lag bound".into())
        })
    }

    /// Pin a replica at or past the session's LSN, catching one up on
    /// this thread if none is, and waiting up to the fleet's
    /// [`session_timeout`](crate::FleetConfig::session_timeout) while
    /// another thread holds the replica it needs. Exhausting the wait yields the typed,
    /// retryable [`SagaError::Unavailable`] — never a generic storage
    /// error — so the caller (or a network server translating it into a
    /// retryable wire response) knows the fleet is merely behind, not
    /// broken.
    pub fn read_with_session(&self, token: &SessionToken) -> Result<RoutedRead> {
        let lsn = token.lsn();
        let timeout = self.pool.config().session_timeout;
        self.pool
            .wait_for(lsn, Instant::now() + timeout, || {
                self.pick_pinned(Some(lsn))
            })
            .ok_or_else(|| {
                SagaError::Unavailable(format!(
                    "session read timed out: no replica reached lsn {} within {timeout:?}",
                    lsn.0
                ))
            })
    }

    /// Block until some serving replica has replayed `lsn` (or time out),
    /// catching one up on this thread the way a session read does. The
    /// freshness primitive under session reads, usable standalone for
    /// barrier-style "wait until the fleet has my write" coordination.
    pub fn wait_for_lsn(&self, lsn: Lsn, timeout: Duration) -> Result<()> {
        let reached = || {
            self.pool
                .slots()
                .iter()
                .any(|s| s.is_serving() && s.watermark.load(Ordering::SeqCst) >= lsn.0)
                .then_some(())
        };
        self.pool
            .wait_for(lsn, Instant::now() + timeout, reached)
            .ok_or_else(|| {
                SagaError::Unavailable(format!(
                    "no serving replica reached lsn {} within {timeout:?}",
                    lsn.0
                ))
            })
    }

    /// One routing decision: filter by freshness (median − lag bound) and
    /// session LSN over the published watermarks, then pick the least
    /// loaded survivor and pin it. Returns `None` when no serving slot
    /// qualifies.
    fn pick_pinned(&self, min_lsn: Option<Lsn>) -> Option<RoutedRead> {
        let slots = self.pool.slots();
        let mut fresh: Vec<(&Arc<Slot>, u64)> = slots
            .iter()
            .filter(|s| s.is_serving())
            .map(|s| (s, s.watermark.load(Ordering::SeqCst)))
            .collect();
        if fresh.is_empty() {
            return None;
        }
        let mut marks: Vec<u64> = fresh.iter().map(|(_, w)| *w).collect();
        marks.sort_unstable();
        let median = marks[marks.len() / 2];
        let bound = self.pool.config().lag_bound;
        let before = fresh.len();
        fresh.retain(|(_, w)| median.saturating_sub(*w) <= bound);
        self.pool
            .lag_skips
            .fetch_add((before - fresh.len()) as u64, Ordering::Relaxed);
        if let Some(min) = min_lsn {
            let before = fresh.len();
            fresh.retain(|(_, w)| *w >= min.0);
            self.pool
                .session_skips
                .fetch_add((before - fresh.len()) as u64, Ordering::Relaxed);
        }
        if fresh.is_empty() {
            return None;
        }
        // Least-loaded, with a rotating start so ties round-robin.
        let rot = self.pool.rr.fetch_add(1, Ordering::Relaxed) as usize;
        let n = fresh.len();
        let mut best: Option<&Arc<Slot>> = None;
        let mut best_load = u64::MAX;
        for k in 0..n {
            let (slot, _) = fresh[(rot + k) % n];
            let load = slot.inflight.load(Ordering::Relaxed);
            if load < best_load {
                best_load = load;
                best = Some(slot);
            }
        }
        best.map(|slot| RoutedRead::pin(Arc::clone(slot)))
    }

    /// The replica routing would pick right now, pinned, with a
    /// best-effort fallback to the freshest slot regardless of state —
    /// `GraphRead` has no error channel, and a raw read against a stopped
    /// store is merely conservative, never wrong.
    fn route(&self) -> RoutedRead {
        self.pick_pinned(None).unwrap_or_else(|| {
            let freshest = self
                .pool
                .slots()
                .iter()
                .max_by_key(|s| s.watermark.load(Ordering::SeqCst))
                .expect("a fleet has at least one replica");
            RoutedRead::pin(Arc::clone(freshest))
        })
    }
}

/// `GraphRead` over the fleet: each call routes like a query and holds
/// its pin for the call, and what no caller needs routed on its own
/// (`postings`, `selectivity`, membership) is the trait's provided
/// derivation. The fleet generation is the sum of the slot generations,
/// each monotone for the slot's life, so it never moves backwards, not
/// even when a replica is rebuilt.
impl GraphRead for FleetRouter {
    fn postings_cursor(&self, probe: &ProbeKey) -> BlockPostings {
        self.route().graph().postings_cursor(probe)
    }

    fn resolve_name(&self, name: &str) -> Vec<EntityId> {
        self.route().graph().resolve_name(name)
    }

    fn record(&self, id: EntityId) -> Option<EntityRecord> {
        self.route().graph().record(id)
    }

    fn generation(&self) -> u64 {
        self.pool
            .slots()
            .iter()
            .map(|s| s.engine.graph().generation())
            .sum()
    }

    fn probe_all_limit(&self, probes: &[&ProbeKey], limit: usize) -> Vec<EntityId> {
        self.route().graph().probe_all_limit(probes, limit)
    }
}

/// A read pinned to one replica: it reads the slot's engine and counts as
/// load on the slot until dropped. A respawn under it refills the store
/// in place, so a later call may see the store moved forward, as after
/// an op.
pub struct RoutedRead {
    slot: Arc<Slot>,
}

impl RoutedRead {
    fn pin(slot: Arc<Slot>) -> Self {
        slot.inflight.fetch_add(1, Ordering::Relaxed);
        RoutedRead { slot }
    }

    /// Which replica this read landed on.
    pub fn replica(&self) -> usize {
        self.slot.id
    }

    /// The pinned replica's applied watermark at pin time or later.
    pub fn watermark(&self) -> Lsn {
        Lsn(self.slot.watermark.load(Ordering::SeqCst))
    }

    /// The pinned slot's engine (plan cache included).
    pub fn engine(&self) -> &QueryEngine<ReplicaKg> {
        &self.slot.engine
    }

    /// The pinned slot's serving store.
    pub fn graph(&self) -> &ReplicaKg {
        self.slot.engine.graph()
    }

    /// Run one KGQ query on the pinned replica, attributing the outcome
    /// to its served/error counters.
    pub fn query(&self, text: &str) -> Result<QueryResult> {
        let out = self.slot.engine.query(text);
        match &out {
            Ok(_) => self.slot.served.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.slot.errors.fetch_add(1, Ordering::Relaxed),
        };
        out
    }
}

impl Drop for RoutedRead {
    fn drop(&mut self) {
        self.slot.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}
