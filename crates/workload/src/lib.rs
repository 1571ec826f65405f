//! # svr-workload
//!
//! Workload generation for the SVR reproduction: the paper's synthetic data
//! set (§5.1, Figure 6), its score-update workload (Zipf-skewed towards
//! high-scored documents, mean update step, focus set), its query workloads
//! (selectivity classes drawn from the most frequent terms) and an
//! Internet-Archive-like data set standing in for the real one.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod archive;
pub mod queries;
pub mod synth;
pub mod updates;
pub mod zipf;

pub use archive::{ArchiveConfig, ArchiveDataset};
pub use queries::{QueryClass, QueryWorkload};
pub use synth::{SynthConfig, SynthDataset};
pub use updates::{FocusDirection, UpdateConfig, UpdateWorkload};
pub use zipf::Zipf;
