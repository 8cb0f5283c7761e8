//! # saga-graph
//!
//! The Knowledge Graph Query Engine ("Graph Engine", §3, Fig. 6): the
//! primary store for the KG, the machinery that computes knowledge views
//! over it, and the query APIs graph consumers use.
//!
//! A federated polystore: specialized engines per workload, kept consistent
//! by a shared durable operation log.
//!
//! * [`oplog`] — the distributed shared log: ordered, durable ingest
//!   operations addressed by [`Lsn`](saga_core::Lsn), carrying full
//!   [`Delta`](saga_core::Delta) payloads as self-contained, checksummed
//!   binary frames ([`saga_core::binary`]) so derived stores replay from
//!   the log alone, with a watermark-tracking [`LogFollower`] cursor.
//! * [`analytics`] — the read-optimized columnar analytics engine over
//!   extended triples (predicate-partitioned columns, Fx hash joins,
//!   group-bys): the engine whose optimized join processing produces the
//!   Fig. 8 speedups. Built once from a snapshot, then fed only deltas.
//! * [`legacy`] — the row-at-a-time baseline view executor standing in for
//!   the paper's legacy Spark jobs.
//! * [`views`] — the view catalog and View Manager with incremental
//!   maintenance and dependency reuse (§3.2, Fig. 7).
//! * [`production_views`] — the six schematized entity-centric views of
//!   Fig. 8, implemented on both engines.
//! * [`importance`] — entity importance: in/out-degree, identities and
//!   PageRank aggregated into one score, registered as a view (§3.3).
//! * [`writer`] — the write-ahead entry point and the one door into the
//!   canonical KG: [`LoggedWriter`] stages
//!   [`WriteBatch`](saga_core::WriteBatch)es in a
//!   [`KgTransaction`](saga_core::KgTransaction) and appends each commit
//!   to the [`oplog`] *before* applying it, making the log the source of
//!   truth for every derived store. Readers take `writer.read()`; the
//!   graph behind the lock is itself a [`GraphRead`](saga_core::GraphRead)
//!   backend.
//! * [`checkpoint_writer`] — exact-watermark checkpoint production over a
//!   logged KG ([`saga_core::checkpoint`] artifacts) plus the
//!   checkpoint → prune → [`OperationLog::compact_to`](oplog::OperationLog::compact_to)
//!   retention loop that keeps bootstrap and disk `O(live data)`.
//!
//! ## Following the log
//!
//! A derived store keeps itself current with one loop over its own
//! [`LogFollower`]: apply each op past the watermark, then maintain what
//! depends on it. The follower's watermark is how fresh the store is.
//! For the warehouse and the views:
//!
//! ```
//! # use std::sync::Arc;
//! # use saga_core::{EntityId, KnowledgeGraph, SourceId, WriteBatch};
//! # use saga_graph::*;
//! # fn main() -> saga_core::Result<()> {
//! # let log = Arc::new(OperationLog::in_memory());
//! # let kg = Arc::new(parking_lot::RwLock::new(KnowledgeGraph::new()));
//! # let writer = LoggedWriter::new(kg, Arc::clone(&log));
//! # let batch = WriteBatch::new().named_entity(EntityId(1), "A", "person", SourceId(1), 0.9);
//! # writer.commit(OpKind::Upsert, batch)?;
//! let mut follower = LogFollower::new(Arc::clone(&log));
//! let mut warehouse = AnalyticsStore::default();
//! let mut views = ViewManager::new();
//! views.register(Box::new(FactCountView))?;
//!
//! let mut changed = Vec::new();
//! follower.poll_with(usize::MAX, |op| {
//!     warehouse.apply_deltas(&op.deltas);
//!     changed.extend(op.changed_entities());
//! })?;
//! changed.sort_unstable();
//! changed.dedup();
//! views.update_changed(&writer.read(), &changed)?;
//! assert_eq!(follower.watermark(), log.head()); // how fresh both stores are
//! # Ok(())
//! # }
//! ```
//!
//! The warehouse and the views live only in memory, so after a restart a
//! new follower replays them from LSN 0. A store restored from a
//! checkpoint resumes with [`LogFollower::resume_at`] the checkpoint's
//! LSN instead.

pub mod analytics;
pub mod checkpoint_writer;
pub mod importance;
pub mod legacy;
pub mod oplog;
#[cfg(test)]
mod oplog_properties;
pub mod production_views;
pub mod views;
pub mod writer;

pub use analytics::{AnalyticsStore, Frame, FrameCol};
pub use checkpoint_writer::{CheckpointReceipt, CheckpointWriter, DEFAULT_KEEP_LAST};
pub use importance::{compute_importance, ImportanceConfig, ImportanceScores, ImportanceView};
pub use legacy::{LegacyEngine, RowTable};
pub use oplog::{FlushPolicy, IngestOp, LogFollower, OpKind, OperationLog};
pub use views::{
    Computation, FactCountView, RefreshKind, RefreshReport, View, ViewContext, ViewData,
    ViewManager,
};
pub use writer::{LoggedCommit, LoggedWriter};
