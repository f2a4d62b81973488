//! End-to-end characterization pipeline and figure regeneration.
//!
//! This crate wires the substrates together into the paper's experimental
//! procedure:
//!
//! 1. obtain a trace ([`dagscope_trace::gen`] or ingested CSVs),
//! 2. apply the integrity / availability filters and draw the stratified
//!    job sample ([`dagscope_trace::filter`]),
//! 3. build and conflate job DAGs ([`dagscope_graph`]),
//! 4. extract structural features and censuses (Figs 3–6),
//! 5. embed jobs with the WL kernel and assemble the normalized similarity
//!    matrix (Fig 7),
//! 6. spectral-cluster into groups and analyze them (Figs 8–9).
//!
//! [`Pipeline`] runs the whole procedure; [`figures`] exposes one entry
//! point per paper figure so examples and benches can regenerate them
//! individually; [`groups`] holds the per-cluster analysis the paper's
//! Section VI discusses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod config;
pub mod export;
pub mod figures;
pub mod groups;
mod pipeline;
mod report;
mod similarity;
pub mod snapshot;
mod timings;

pub use baseline::{compare_baselines, conflation_stability, BaselineComparison};
pub use config::{BaseKernel, ClusterEngine, PipelineConfig};
pub use groups::{GroupAnalysis, GroupStats};
pub use pipeline::Pipeline;
pub use report::Report;
pub use similarity::Similarity;
pub use snapshot::{IndexSnapshot, SnapshotError, SnapshotGroup, SnapshotMeta, SnapshotShape};
pub use timings::StageTimings;
