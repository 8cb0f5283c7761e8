//! # saga-fleet
//!
//! The replicated serving fleet (§3.1 log shipping + §4.1 "the indexes are
//! sharded and can be replicated to support scale-out"): N log-shipped
//! [`LiveReplica`](saga_live::LiveReplica)s behind one lag-aware router,
//! supervised by a control plane that checkpoints the log and respawns
//! failed replicas from those checkpoints. This is §4.1's replication;
//! its sharding is across machines — the parked multi-process
//! constellation — so each replica serves one whole index.
//!
//! * [`pool`] — the data plane: a [`ReplicaPool`] of serving slots, each
//!   owning a replica tailed by its own replay worker thread (bounded
//!   [`catch_up_batch`](saga_live::LiveReplica::catch_up_batch) polls of
//!   [`REPLAY_BATCH`](saga_live::replica::REPLAY_BATCH) ops applied
//!   outside the log lock, the slot's watermark as the one published
//!   freshness state); a session read that finds no replica at its LSN
//!   catches one up on its own thread. A slot keeps one query engine for
//!   life: [`kill`](ReplicaPool::kill) stops its worker, and a
//!   [`respawn`](ReplicaPool::respawn) refills its replica's store in
//!   place, so the engine keeps its plan cache.
//! * [`router`] — [`FleetRouter`]: the single external query surface. It
//!   routes each read to a *fresh* replica — never one trailing the fleet
//!   median watermark by more than [`FleetConfig::lag_bound`] — preferring
//!   the least-loaded among the fresh, and honors
//!   [`SessionToken`](saga_core::SessionToken)s so a client's reads are
//!   served only by replicas that have replayed the client's own commits
//!   (read-your-writes).
//! * [`controller`] — the control plane: [`FleetController`] observes
//!   per-slot watermarks against the log head, detects panicked and wedged
//!   workers, respawns them via checkpoint bootstrap, and runs
//!   [`checkpoint_and_compact`](saga_graph::CheckpointWriter::checkpoint_and_compact)
//!   on a log-growth cadence so respawn stays `O(live data + tail)`.
//!
//! The fleet is deliberately single-process here (threads, not boxes), but
//! every boundary mirrors the paper's deployment shape: replicas see only
//! the shared [`OperationLog`](saga_graph::OperationLog) and checkpoint
//! artifacts, never the construction-side graph.

pub mod controller;
pub mod pool;
pub mod router;

use std::time::Duration;

pub use controller::{FleetController, FleetStats, ReplicaHealth, TickReport};
pub use pool::{ReplicaPool, ReplicaState};
pub use router::{FleetRouter, RoutedRead};

/// Tuning knobs for a serving fleet. `Default` is sized for tests and
/// single-machine serving; production fleets raise `replicas` and
/// `checkpoint_every`.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of serving replicas (slots). Clamped to at least 1.
    pub replicas: usize,
    /// Ignored: a replica store is one index (see
    /// [`saga_live::ReplicaKg`]). Kept only for `e2e_bench/src/stack.rs`;
    /// the next benchmark change deletes it together with `SHARDS`.
    pub shards: usize,
    /// The longest a caught-up worker parks before polling the log
    /// again. It bounds the staleness of plain (no-session) reads: ingest
    /// nobody is waiting on is applied when this timeout fires. A session
    /// read does not wait for it — it applies what it needs itself.
    pub poll_interval: Duration,
    /// Offset each worker's first timeout by `i/N` of the interval so
    /// the fleet's fallback polls start spread in time instead of
    /// stampeding together: unobserved ingest reaches *some* replica
    /// sooner than `poll_interval`. Session reads are unaffected.
    pub stagger_polls: bool,
    /// Max operations a replica may trail the fleet **median** watermark
    /// and still receive routed reads. The median (not the max) anchors
    /// the bound so one far-ahead replica cannot starve the rest.
    pub lag_bound: u64,
    /// How long a session read waits for some replica to reach the
    /// session's LSN before failing with the typed, retryable
    /// `SagaError::Unavailable` — in-process and over the wire alike (the
    /// network server routes session queries through the same router).
    pub session_timeout: Duration,
    /// A slot whose published watermark stays frozen this long while the
    /// log is ahead of it is declared wedged and respawned.
    pub wedge_timeout: Duration,
    /// Checkpoint-and-compact once the log head has advanced this many
    /// operations past the last checkpoint watermark.
    pub checkpoint_every: u64,
    /// Failpoint scope for this fleet's workers: chaos drills running
    /// several fleets in one process arm `fleet::worker_poll` for one
    /// fleet by matching this label (see `saga_core::fail`). Empty —
    /// the default — matches only unscoped configurations.
    pub fail_scope: String,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            shards: 1,
            poll_interval: Duration::from_millis(2),
            stagger_polls: true,
            lag_bound: 512,
            session_timeout: Duration::from_secs(2),
            wedge_timeout: Duration::from_millis(250),
            checkpoint_every: 4096,
            fail_scope: String::new(),
        }
    }
}

impl FleetConfig {
    pub(crate) fn validated(mut self) -> Self {
        self.replicas = self.replicas.max(1);
        self
    }
}
