//! Knowledge-graph embeddings (§5.3).
//!
//! Saga trains multiple embedding models (TransE \[10\], DistMult \[85\]) over
//! the relationship-only view of the KG. The paper serves them through the
//! Vector DB to unify fact ranking, fact verification and missing-fact
//! imputation; that serving path has no caller here and is not built.
//!
//! Training billions of parameters does not fit accelerator memory, so the
//! paper trains with Marius-style *external memory*: embeddings live in
//! disk partitions and a bounded in-memory buffer admits pairs of
//! partitions, iterating edge buckets in an order that reuses buffer
//! contents. [`buffer`] reproduces exactly that mechanism (partition files,
//! bounded buffer, swap-minimizing bucket ordering, IO accounting), which
//! is what experiment E9 measures against all-in-memory training.

pub mod buffer;
pub mod model;
pub mod train;

pub use buffer::{BucketOrdering, BufferStats, PartitionBuffer, PartitionedTrainer};
pub use model::{EdgeList, EmbeddingConfig, EmbeddingTable, ModelKind};
pub use train::{train_in_memory, EvalReport, TrainReport};
