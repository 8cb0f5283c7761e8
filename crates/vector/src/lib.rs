//! # saga-vector
//!
//! Dense-vector math: [`metric`] holds the inner product, norm, cosine
//! similarity and normalization that `saga-ml`'s learned string encoder
//! scores with.
//!
//! The paper's Vector DB (§3.1, Fig. 6), which serves KG embeddings for
//! fact ranking, verification and imputation (§5.3), is not built here:
//! it returns with its first caller.

pub mod metric;
