//! # Saga
//!
//! A from-scratch Rust reproduction of **Saga: A Platform for Continuous
//! Construction and Serving of Knowledge At Scale** (SIGMOD 2022).
//!
//! This umbrella crate re-exports the platform's components:
//!
//! * [`core`] — extended-triples data model, fact metadata, the KG store.
//! * [`ontology`] — the open-domain ontology and payload validation.
//! * [`ingest`] — source ingestion: importers, transforms, PGF alignment,
//!   delta computation (§2.2).
//! * [`construct`] — knowledge construction: blocking, matching,
//!   correlation clustering, object resolution, fusion, the incremental
//!   pipeline that commits each source through the log (§2.3–2.4).
//! * [`graph`] — the Graph Engine: operation log and its followers,
//!   columnar analytics store, view manager, entity importance (§3).
//! * [`vector`] — dense-vector math (dot, norm, cosine) for the learned
//!   string encoder; the paper's Vector DB is not built.
//! * [`ml`] — graph ML: learned string similarity, the NERD stack, KG
//!   embeddings with external-memory training (§5).
//! * [`live`] — the Live Graph: streaming construction, KGQ query engine,
//!   intents, multi-turn context, curation (§4).
//! * [`fleet`] — the replicated serving fleet: lag-aware routing,
//!   read-your-writes sessions, checkpoint-backed respawn (§3.1, §4.1).
//! * [`net`] — saga as a server: the length-prefixed TCP protocol,
//!   thread-pool serving endpoint with pipelining and admission control,
//!   and the session-threading client (see `docs/network.md`).
//!
//! See `examples/quickstart.rs` for a guided tour, `docs/` for the design
//! of each serving layer, and the experiment binaries of [`mod@bench`] for the
//! paper-reproduction results.

pub use saga_bench as bench;
pub use saga_construct as construct;
pub use saga_core as core;
pub use saga_fleet as fleet;
pub use saga_graph as graph;
pub use saga_ingest as ingest;
pub use saga_live as live;
pub use saga_ml as ml;
pub use saga_net as net;
pub use saga_ontology as ontology;
pub use saga_vector as vector;
