//! # saga-ingest
//!
//! The Data Source Ingestion module (§2.2, Fig. 3): a set of pluggable,
//! configurable stages that take an upstream provider's raw artifacts to
//! ontology-aligned, delta-partitioned extended triples ready for knowledge
//! construction.
//!
//! Pipeline stages (each a module here):
//!
//! 1. **Import** ([`importer`]) — read raw upstream data (CSV, JSON-lines,
//!    in-memory) into the standard row-based [`Dataset`](saga_core::Dataset).
//! 2. **Entity Transform** ([`transform`]) — produce entity-centric rows
//!    (one row = one source entity) while enforcing the §2.2 integrity
//!    checks (unique non-empty ids, schema completeness, …). Multiple
//!    artifacts can be joined (e.g. artists ⋈ popularity).
//! 3. **Ontology Alignment** ([`align`]) — config-driven Predicate
//!    Generation Functions map source columns to KG-ontology predicates,
//!    producing [`EntityPayload`](saga_core::EntityPayload)s whose subjects
//!    and object references stay in the source namespace.
//! 4. **Delta Computation** ([`delta`]) — eager diffing against the last
//!    snapshot consumed by the KG, splitting entities into Added / Updated /
//!    Deleted plus a full volatile-predicate dump (§2.4).
//! 5. **Export** ([`pipeline`]) — ontology validation and hand-off.
//!
//! [`synth`] provides the seeded synthetic source generators that stand in
//! for the paper's licensed data feeds.

pub mod align;
pub mod delta;
pub mod importer;
pub mod pipeline;
pub mod synth;
pub mod transform;

pub use align::{AlignmentConfig, Pgf};
pub use delta::{compute_delta, SourceDelta, SourceSnapshot};
pub use importer::{CsvImporter, DataSourceImporter, JsonLinesImporter, MemoryImporter};
pub use pipeline::{IngestionReport, SourceIngestionPipeline};
pub use transform::{DataTransformer, TransformSpec};
