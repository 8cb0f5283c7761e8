//! # saga-ml
//!
//! The graph machine-learning stack of Saga (§5):
//!
//! * [`simlib`] — deterministic string similarity functions (Hamming /
//!   Levenshtein / Jaro-Winkler / Jaccard / q-gram cosine) used to featurize
//!   matching models during KG construction (§5.1).
//! * [`encoder`] — learned (neural) string similarity: char-n-gram encoders
//!   mapping strings to vectors, trained with a triplet loss over
//!   distant-supervision pairs bootstrapped from the KG's names and aliases.
//!   These capture synonyms ("Robert" ≈ "Bob") that deterministic functions
//!   miss (§5.1).
//! * [`nerd`] — the complete NERD stack (§5.2): the NERD Entity View,
//!   candidate retrieval, contextual entity disambiguation with rejection,
//!   plus the popularity-prior baseline the paper compares against
//!   (Fig. 14).
//! * [`embeddings`] — KG embeddings (§5.3): TransE and DistMult trained
//!   with negative sampling, either fully in memory or through a
//!   Marius-style bounded partition buffer backed by disk. Serving them
//!   through a Vector DB (fact ranking / verification / imputation) is
//!   not built.

pub mod embeddings;
pub mod encoder;
pub mod nerd;
pub mod simlib;
pub mod text;

pub use encoder::{DistantSupervision, StringEncoder, TrainConfig, TripletTrainer};
pub use nerd::{
    Candidate, ContextualDisambiguator, Mention, NerdConfig, NerdEntityView, NerdOutcome,
    NerdStack, PopularityBaseline,
};
