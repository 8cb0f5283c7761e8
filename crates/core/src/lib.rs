//! # saga-core
//!
//! Core data model for the Saga knowledge platform (SIGMOD 2022).
//!
//! Saga represents knowledge as a graph of `<subject, predicate, object>`
//! triples, *extended* with one-hop relationship structure and per-fact
//! metadata (provenance, locale, trustworthiness) — see §2.1 and Table 1 of
//! the paper. This crate provides:
//!
//! * [`EntityId`] / [`SourceId`] / [`Lsn`] — compact identifiers.
//! * [`Symbol`] and the global string [`intern()`]er — predicates, types and
//!   locales are interned so that a triple is a few machine words.
//! * [`Value`] — the object side of a triple (literal, KG reference or an
//!   unresolved source-namespace reference).
//! * [`ExtendedTriple`] — the flat relational record of Table 1, including
//!   the `(r_id, r_predicate)` extension for composite relationships.
//! * [`FactMeta`] — aligned source/trust provenance arrays plus locale.
//! * [`EntityPayload`] / [`EntityRecord`] — entity-centric groups of triples
//!   used by ingestion, construction and serving.
//! * [`KnowledgeGraph`] — the in-memory canonical KG with non-destructive
//!   integration (provenance-preserving upserts, per-source deletion).
//!
//! Everything in downstream crates (ingestion, construction, the Graph
//! Engine, the Live Graph, the ML stack) is expressed over these types.

pub mod binary;
pub mod checkpoint;
pub mod entity;
pub mod error;
pub mod fail;
pub mod id;
pub mod index;
pub mod intern;
pub mod json;
pub mod kg;
pub mod meta;
pub mod postings;
pub mod read;
pub mod row;
pub mod session;
pub mod triple;
pub mod value;
pub mod wire;
pub mod write;

#[cfg(test)]
mod index_properties;
#[cfg(test)]
mod properties;
#[cfg(test)]
mod write_properties;

pub use entity::{EntityPayload, EntityRecord};
pub use error::{Result, SagaError};
pub use id::{EntityId, IdGenerator, Lsn, RelId, SourceId};
pub use index::{changed_entities, Delta, DeltaFact, IndexHeap, ProbeKey, TripleIndex};
pub use intern::{intern, resolve, Symbol};
pub use kg::{KgStats, KnowledgeGraph};
pub use meta::{FactMeta, Provenance, SourceTrust};
pub use postings::{intersect_views, BlockPostings, PostingsCursor, PostingsView};
pub use read::GraphRead;
pub use row::{Dataset, Row};
pub use session::SessionToken;
pub use triple::{ExtendedTriple, RelPart, SubjectRef, TripleKey};
pub use value::Value;
pub use write::{CommitReceipt, KgTransaction, WriteBatch, WriteOp};

/// Convenience alias for the Fx (rustc-hash) hash map used on all hot paths.
pub type FxHashMap<K, V> = rustc_hash::FxHashMap<K, V>;
/// Convenience alias for the Fx (rustc-hash) hash set used on all hot paths.
pub type FxHashSet<K> = rustc_hash::FxHashSet<K>;

/// Well-known predicate names used across the platform.
pub mod well_known {
    /// Predicate carrying an entity's primary name.
    pub const NAME: &str = "name";
    /// Predicate carrying alternative names / aliases.
    pub const ALIAS: &str = "alias";
    /// Predicate carrying the entity's ontology type.
    pub const TYPE: &str = "type";
    /// Predicate linking a source entity to the KG entity it was resolved to.
    pub const SAME_AS: &str = "same_as";
    /// Predicate carrying a free-text description of the entity.
    pub const DESCRIPTION: &str = "description";
    /// Predicate carrying an externally supplied popularity signal
    /// (volatile; see §2.4 of the paper).
    pub const POPULARITY: &str = "popularity";
}
