//! Discrete-event cluster simulator for dependency-aware batch scheduling.
//!
//! The paper's motivation (Sections I–II) is that understanding job
//! topology "helps us foresee resource demands and execution time of new
//! jobs and make better decisions in job scheduling" in a co-located
//! cluster with a hierarchical scheduling stack. This crate provides the
//! substrate to *test* that claim: a deterministic discrete-event
//! simulator of the offline (batch, level-1) scheduling layer —
//! dependency-respecting task release, per-instance placement onto
//! capacity-constrained machines, and pluggable dispatch policies —
//! plus the metrics (job completion time distribution, makespan,
//! utilization) schedulers are judged by.
//!
//! * [`workload::SimJob`] — a job DAG annotated with per-task instance
//!   demands and durations, built from trace rows,
//! * [`cluster::Cluster`] — machines with CPU/memory capacity,
//! * [`policy`] — FIFO, shortest-job-first (oracle), critical-path-first
//!   (oracle), predicted-SJF, and the group-informed family
//!   (`GroupSjf`, `GroupCriticalPath`, `GroupHybrid`) where predictions
//!   come from the WL/spectral group a job lands in (the paper's
//!   proposed use),
//! * [`profile`] — per-group historical shape/width/work/critical-path
//!   distributions plus per-job classification hints,
//! * [`sim::Simulator`] — the event loop,
//! * [`replay`] — many policies over one trace workload, with regret
//!   against the oracles,
//! * [`metrics::SimMetrics`] — JCT percentiles, makespan, utilization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod metrics;
pub mod policy;
pub mod profile;
pub mod replay;
pub mod sim;
mod tree;
pub mod workload;

pub use cluster::{Cluster, ClusterConfig};
pub use metrics::{quantile_sorted, quantile_sorted_f64, quantile_weighted, SimMetrics};
pub use policy::{FrozenKeys, Policy, Predictions, DEFAULT_MIN_CONFIDENCE};
pub use profile::{Dist, GroupPredictor, GroupProfile, JobHint, ProfileBuilder, ProfileTable};
pub use replay::{
    replay, workload_from_jobs, workload_from_stream, PolicyOutcome, ReplayReport, ReplayWorkload,
};
pub use sim::{OnlineLoad, SimConfig, Simulator};
pub use workload::{SimJob, SimTask};
