//! Scoped-thread data-parallel primitives for the `dagscope` workspace.
//!
//! The workspace deliberately avoids a heavyweight task-scheduling dependency;
//! every parallel stage in the pipeline (trace generation, DAG feature
//! extraction, Weisfeiler-Lehman kernel-matrix assembly, k-means assignment)
//! reduces to one of these shapes, all provided here on top of
//! [`crossbeam::thread::scope`]:
//!
//! * [`par_map`] — order-preserving parallel map over a slice,
//! * [`par_reduce`] — parallel fold + associative merge,
//! * [`pairs::par_upper_triangle`] — parallel in-place fill of a packed
//!   symmetric pairwise table (the kernel-matrix shape), over
//!   [`pairs::par_packed_rows`], which hands each worker whole packed rows
//!   (the unique-shape Gram's postings scan writes through it),
//! * [`WorkerPool`] — a long-lived fixed-size pool consuming queued
//!   closures (the request-dispatch shape of `dagscope-serve`).
//!
//! All primitives use dynamic chunk self-scheduling: worker threads pull
//! chunk indices from a shared atomic counter, so skewed per-item costs
//! (large DAGs next to two-node chains) do not serialize on the slowest
//! static partition. Results are deterministic: output order never depends
//! on thread interleaving.
//!
//! # Example
//!
//! ```
//! let squares = dagscope_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod map;
pub mod pairs;
mod pool;
mod proc;
mod reduce;

pub use config::{parallelism, ParScope};
pub use map::{par_map, par_map_with};
pub use pool::WorkerPool;
pub use proc::peak_rss_bytes;
pub use reduce::{par_reduce, par_sum_f64};
