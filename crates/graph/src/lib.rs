//! Job DAG construction and structural characterization.
//!
//! This crate turns trace task rows into [`JobDag`] values and implements
//! everything Section IV–V of the paper does with them:
//!
//! * [`JobDag::from_rows`] — reconstruct the DAG a job's task names encode,
//!   from a [`Job`](dagscope_trace::Job)'s records ([`JobDag::from_job`])
//!   or a replayed sample's flat row table,
//! * [`ShapeTable`] — build, conflate and measure each distinct task-name
//!   list once; every job of it shares one [`DagShape`],
//! * [`algo`] — topological order, critical path, levels and width,
//! * [`conflate`] — node conflation (merging structurally equivalent
//!   siblings, Fig 3),
//! * [`metrics::JobFeatures`] — the per-job feature vector (size, critical
//!   path, max width, task-type counts…, Figs 4–6),
//! * [`pattern`] — shape classification (chain / inverted triangle /
//!   diamond / hourglass / trapezium / hybrid, Section V-B),
//! * [`tasktype`] — M/J/R census and programming-model inference
//!   (Map-Reduce vs Map-Join-Reduce vs Map-Reduce-Merge, Section V-C),
//! * [`render`] — DOT and ASCII visualizations (Fig 2, Fig 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod conflate;
mod dag;
mod error;
pub mod metrics;
pub mod motifs;
pub mod pattern;
pub mod render;
mod table;
pub mod tasktype;

pub use dag::{DagShape, JobDag, NodeAttr, TaskRows};
pub use error::BuildError;
pub use table::{ShapeEntry, ShapeTable};
