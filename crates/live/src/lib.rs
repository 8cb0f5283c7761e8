//! # saga-live
//!
//! The Live Knowledge Graph (§4, Fig. 9): the union of a view of the stable
//! graph with real-time streaming sources (sports scores, stock prices,
//! flight data), served through a low-latency query engine.
//!
//! * [`store`] — the serving substrate: the index-only [`ReplicaKg`],
//!   one inverted graph index under one lock, optimized for concurrent
//!   point reads, which every served graph — stable and live alike — is.
//! * [`construction`] — Live Graph Construction: streaming events are
//!   uniquely identifiable (no linking/fusion needed) but their text
//!   references to stable entities are resolved through the Entity
//!   Resolution service (§4.1). Each event batch commits through a
//!   `LoggedWriter`, so live facts reach serving through the log.
//! * [`kgq`] — the KGQ query language: a deliberately *bounded* graph query
//!   language (traversal constraints, no recursion) compiled to physical
//!   plans over the indexes, with virtual operators, a typed
//!   [`QueryBuilder`] for programmatic construction, and a plan cache
//!   whose hit re-resolves only the edge targets its plan bound (§4.2).
//!   The engine is generic over [`GraphRead`](saga_core::GraphRead): the
//!   same queries execute unchanged against the writer's graph, a log
//!   replica, or the fleet.
//! * [`intent`] — query-intent handling: the same intent routes to
//!   different KGQ queries depending on entity semantics
//!   (`HeadOfState(Canada)` → `prime_minister`, `HeadOfState(Chicago)` →
//!   `mayor`).
//! * [`context`] — the context graph for multi-turn interactions
//!   ("How about Tom Hanks?", "Where is she from?").
//! * [`curation`] — human-in-the-loop curation as a streaming hot-fix
//!   source (§4.3), committed through the same log and forwarded to
//!   stable construction.
//! * [`replica`] — the log-shipped serving replica: a [`ReplicaKg`] (one
//!   index and nothing else) built purely by replaying the durable
//!   oplog's delta payloads, with no code path into the
//!   construction-side `KnowledgeGraph` (§3.1 log shipping, §4.1
//!   replication).

pub mod construction;
pub mod context;
pub mod curation;
pub mod intent;
pub mod kgq;
pub mod replica;
pub mod store;

pub use construction::{LiveEvent, LiveGraphBuilder};
pub use context::ContextGraph;
pub use curation::{CurationAction, CurationPipeline};
pub use intent::{Intent, IntentHandler};
pub use kgq::{
    compile, execute, parse, MaterializedKgqView, Plan, Query, QueryBuilder, QueryEngine,
    QueryResult,
};
pub use replica::LiveReplica;
pub use store::ReplicaKg;
