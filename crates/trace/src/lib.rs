//! Cloud batch-workload trace model in the Alibaba cluster-trace-v2018
//! schema, plus a synthetic workload generator.
//!
//! The paper analyzes the 2018 Alibaba trace (`batch_task` and
//! `batch_instance` CSV files over 8 days / ~4k machines / ~4M batch jobs).
//! That trace is not redistributable here, so this crate provides both:
//!
//! * the **schema types + CSV codecs** ([`TaskRecord`], [`InstanceRecord`],
//!   [`csv`]) able to ingest the real published files, and
//! * a **synthetic generator** ([`gen`]) that emits records in the same
//!   schema whose *marginal statistics match the figures the paper reports*
//!   (dependency share, size distribution, shape mix, task-type composition,
//!   diurnal arrivals, interrupted jobs).
//!
//! Everything downstream (DAG building, kernels, clustering) consumes these
//! records, so the substitution exercises the identical code path a real
//! trace would.
//!
//! Key entry points:
//!
//! * [`taskname::parse`] — the task-name dependency grammar
//!   (`M1`, `R2_1`, `J3_1_2`, `R5_4_3_2_1`, `task_XYZ`…),
//! * [`gen::TraceGenerator`] — deterministic seeded workload synthesis,
//! * [`stream::StreamedTrace`] — the single-pass, bounded-memory scan a
//!   `batch_task.csv` file is ingested through,
//! * [`JobSet::from_tasks`] — group raw task rows into jobs,
//! * [`filter::SampleCriteria`] — the paper's integrity / availability /
//!   variability filters and the stratified 100-job sampler,
//! * [`stats::TraceStats`] — trace-level headline numbers (E10).

// `deny` rather than `forbid` so the one audited hot-path escape hatch
// (`scan::ascii`'s proven-ASCII `from_utf8_unchecked`) can opt in with a
// module-scoped `#[allow(unsafe_code)]`. Everything else in the crate
// remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
mod error;
pub mod filter;
pub mod fsum;
pub mod gen;
pub mod intern;
mod job;
pub mod machine;
pub mod placement;
pub mod quarantine;
pub mod scan;
mod schema;
pub mod stats;
pub mod stream;
pub mod taskname;

pub use error::TraceError;
pub use intern::{IStr, Interner};
pub use job::{Job, JobSet};
pub use quarantine::{Quarantine, QuarantinedRow, ReadPolicy};
pub use schema::{InstanceRecord, Status, TaskRecord};
pub use taskname::{ParsedTaskName, TaskKind};
