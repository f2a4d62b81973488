//! Clustering for job-graph similarity analysis (Section VI).
//!
//! The paper feeds the pairwise WL similarity matrix to **spectral
//! clustering** (Ng–Jordan–Weiss) and groups the 100-job sample into five
//! clusters. This crate implements that pipeline from scratch:
//!
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm with k-means++ seeding and restarts
//!   (also used standalone as the statistical-feature baseline of related
//!   work the paper compares against),
//! * [`spectral`] — normalized-Laplacian spectral clustering over an
//!   affinity matrix, with fixed `k` or the eigengap heuristic,
//! * [`validation`] — silhouette and Davies–Bouldin internal indices plus
//!   partition sanity helpers, used to verify grouping quality,
//! * [`model`](mod@model) — a serializable [`GroupModel`] (per-group WL
//!   centroids) for classifying out-of-sample jobs online,
//! * [`weighted`] — multiplicity-weighted spectral/k-means over
//!   deduplicated shape populations (the scalable path for traces whose
//!   distinct-shape count is far below the job count),
//! * [`collapsed`] — the matrix-free version of the weighted path:
//!   packed unique-shape affinity + Lanczos smallest-k eigenpairs, so the
//!   full trace clusters in `m(m+1)/2` affinity entries for its `m`
//!   unique shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collapsed;
pub mod compare;
pub mod hierarchical;
pub mod kmeans;
pub mod model;
pub mod spectral;
pub mod validation;
pub mod weighted;

pub use collapsed::{spectral_cluster_collapsed, LanczosCounters};
pub use compare::{adjusted_rand_index, purity, rand_index};
pub use hierarchical::{agglomerative, HierarchicalResult};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use model::{Classification, GroupModel};
pub use spectral::{spectral_cluster, ClusterCount, SpectralConfig, SpectralResult};
pub use weighted::{expand_assignments, kmeans_weighted, spectral_cluster_weighted};
