//! Dense linear algebra for `dagscope`'s spectral methods.
//!
//! The paper clusters jobs by eigendecomposing a similarity (kernel) matrix,
//! so the only heavy numerical requirement is a reliable symmetric
//! eigensolver on dense matrices of a few hundred rows. This crate provides:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the handful of
//!   operations the pipeline needs (products, transpose, norms),
//! * [`SymMatrix`] — a packed symmetric matrix (upper triangle only),
//!   also the pipeline's unique-shape affinity: WL's iteration-0 labels
//!   are task kinds, so any two shapes sharing a kind have a positive
//!   dot and the affinity is dense (575 shapes of a 100k-job trace store
//!   all 165,600 upper-triangle pairs),
//! * [`eigh`] — Householder tridiagonalization + implicit-shift QL
//!   eigendecomposition (the dense workhorse, `O(n³)` with a small
//!   constant),
//! * [`eigh_jacobi`] — a cyclic Jacobi eigensolver kept as an independent
//!   cross-check (tests validate the two against each other),
//! * [`LinOp`] + [`lanczos_smallest`] — a matrix-free operator trait and
//!   a fully reorthogonalized Lanczos iteration for the smallest-k
//!   eigenpairs, the scale path that clusters the full trace over its
//!   unique shapes, never an n × n job matrix,
//! * [`vector`] — small dense-vector helpers shared by k-means.
//!
//! No external BLAS/LAPACK: the matrices in this problem are small enough
//! that clarity and auditability beat peak FLOPs; the trace-scale path is
//! collapsed to unique shapes and iterative rather than tuned-dense.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eigen;
mod error;
mod jacobi;
mod lanczos;
mod linop;
mod matrix;
mod sym;
mod tridiag;
pub mod vector;

pub use eigen::{eigh, EigenDecomposition};
pub use error::LinalgError;
pub use jacobi::eigh_jacobi;
pub use lanczos::{lanczos_smallest, LanczosOptions, LanczosResult};
pub use linop::LinOp;
pub use matrix::Matrix;
pub use sym::SymMatrix;
