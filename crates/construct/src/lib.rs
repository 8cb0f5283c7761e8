//! # saga-construct
//!
//! Knowledge construction (§2.3, Fig. 4): integrate ontology-aligned source
//! payloads into the canonical KG by standardizing subjects and objects to
//! KG entities. The pipeline stages, each a module:
//!
//! * [`blocking`] — partition combined payloads into buckets of likely
//!   matches (q-gram / token blocking), taming the quadratic pair space.
//! * [`matching`] — per-entity-type matching models emit calibrated match
//!   probabilities for candidate pairs (rule-based and learned, over the
//!   similarity features of `saga-ml`).
//! * [`cluster`] — correlation clustering over the ±1 linkage graph (pivot
//!   algorithm), under the constraint that a cluster contains at most one
//!   existing KG entity.
//! * [`linking`] — the full Linking stage: group by type, extract the KG
//!   view, block, generate pairs, match, resolve clusters, assign ids.
//! * [`obr`] — Object Resolution: rewrite `SourceRef`/string objects into
//!   KG entity ids via the same-source link table and the NERD stack.
//! * [`truth`] — truth discovery & source-reliability estimation feeding
//!   per-fact confidence.
//! * [`fusion`] — merge linked payloads into the KG: outer-join for simple
//!   facts, relationship-node matching for composite facts, volatile
//!   partition overwrite.
//! * [`pipeline`] — the incremental constructor of Fig. 5:
//!   Added/Updated/Deleted/volatile payloads per source; sources link in
//!   turn, each fused and committed as one op.

pub mod blocking;
pub mod cluster;
pub mod fusion;
pub mod linking;
pub mod matching;
pub mod obr;
pub mod pipeline;
pub mod truth;

pub use blocking::{block_payloads, BlockingStrategy};
pub use cluster::{correlation_cluster, ClusterNode, LinkageGraph};
pub use fusion::{fuse_payload, FusionConfig, FusionReport};
pub use linking::{LinkOutcome, Linker, LinkerConfig};
pub use matching::{LearnedMatcher, MatchFeatures, MatchingModel, RuleMatcher};
pub use obr::{LinkTableResolver, NerdObjectResolver, ObjectResolver, ResolutionStats};
pub use pipeline::{ConstructionReport, KnowledgeConstructor, SourceBatch};
pub use truth::{estimate_source_reliability, ReliabilityReport};
