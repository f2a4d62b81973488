//! The Weisfeiler-Lehman subtree kernel over job DAGs (Section V-D).
//!
//! Implements the paper's similarity machinery, following Shervashidze et
//! al. (JMLR 2011):
//!
//! 1. every node starts from its stage-type label (`M` / `J` / `R` / other),
//! 2. for `h` iterations, each node's label is replaced by a *compressed*
//!    label of the signature `(own label, sorted parent labels, sorted
//!    child labels)` — direction-aware, because a convergent job
//!    (inverted triangle) and its mirror (trapezium) must not collide,
//! 3. the feature map `φ(G)` counts every label from every iteration
//!    (eq. (2) of the paper); conflated nodes contribute their merge
//!    weight, so a conflated DAG keeps the label mass of the original,
//! 4. `k(G, G') = ⟨φ(G), φ(G')⟩`, assembled in parallel into the pairwise
//!    similarity matrix of Fig 7 and normalized to `[0, 1]` with
//!    `k̂ = k / √(k(G,G)·k(G',G'))`.
//!
//! Label compression is hash-consed in a shared vocabulary
//! ([`WlVectorizer`]), so vectors of different graphs are directly
//! comparable and new jobs can be embedded incrementally (used by the
//! scheduler-advisor example). A baseline exact [`ged::edit_distance`] is
//! provided to reproduce the paper's cost argument for preferring kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fx;
pub mod ged;
mod gram;
mod kernel;
pub mod sp;
mod sparse;
mod topk;
mod vectorizer;

pub use cache::KernelCache;
pub use fx::FxHashMap;
pub use gram::{fingerprint, unique_gram, GramStats, ShapeDedup};
pub use kernel::{kernel_matrix, normalize_kernel, normalize_kernel_in_place, wl_kernel};
pub use sp::{sp_kernel, SpVectorizer};
pub use sparse::SparseVec;
pub use topk::{QueryStats, TopkIndex};
pub use vectorizer::WlVectorizer;
