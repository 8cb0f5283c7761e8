//! # saga-bench
//!
//! Workload generators and experiment harnesses that regenerate **every
//! table and figure** of the Saga paper's evaluation. Each binary prints
//! its measured numbers beside the paper's.
//!
//! Binaries (in `src/bin/`):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig8_views` | Fig. 8 — view computation, Graph Engine vs legacy |
//! | `fig12_growth` | Fig. 12 — relative KG growth under continuous construction |
//! | `fig14a_nerd_text` | Fig. 14(a) — NERD vs deployed baseline, text annotation |
//! | `fig14b_nerd_obr` | Fig. 14(b) — NERD (+type hints) vs baseline, object resolution |
//! | `live_latency` | §4.2/§6.1 — live query latency percentiles (p95 < 20 ms) |
//! | `string_sim_recall` | §5.1 — learned string similarity recall gain |
//! | `embedding_training` | §5.3 — partition-buffer vs in-memory training |
//! | `construction_scaling` | §2.4/Fig. 5 — parallel + incremental construction |
//! | `linking_quality` | §2.3 — blocking/matching/clustering quality |

pub mod measure;
pub mod nerdworld;
pub mod workload;

pub use measure::{percentile, time_it, Stats};
pub use nerdworld::{ambiguous_world, NerdCase, NerdWorld};
pub use workload::{growth_schedule, media_world, MediaWorldConfig};
