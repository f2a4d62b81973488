//! Record types mirroring the Alibaba cluster-trace-v2018 batch schema.

use serde::{Deserialize, Serialize};

use crate::intern::IStr;

/// Lifecycle status of a task or instance, following the v2018 vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Status {
    /// Scheduled but not yet started.
    Ready,
    /// Waiting on dependencies or resources.
    Waiting,
    /// Currently executing.
    Running,
    /// Finished successfully — the only status the paper's *integrity*
    /// filter accepts.
    Terminated,
    /// Ended in error.
    Failed,
    /// Cancelled before completion (e.g. evicted by co-located online jobs).
    Cancelled,
    /// Interrupted by the trace-collection window (still running at cut-off).
    Interrupted,
}

impl Status {
    /// Every status, in declaration order — [`Status::index`] indexes into
    /// arrays laid out this way.
    pub const ALL: [Status; 7] = [
        Status::Ready,
        Status::Waiting,
        Status::Running,
        Status::Terminated,
        Status::Failed,
        Status::Cancelled,
        Status::Interrupted,
    ];

    /// Position of this status inside [`Status::ALL`].
    pub fn index(self) -> usize {
        match self {
            Status::Ready => 0,
            Status::Waiting => 1,
            Status::Running => 2,
            Status::Terminated => 3,
            Status::Failed => 4,
            Status::Cancelled => 5,
            Status::Interrupted => 6,
        }
    }

    /// Parse the v2018 textual status; unknown strings map to `Interrupted`
    /// (the conservative choice — such jobs are filtered out anyway).
    pub fn parse(s: &str) -> Status {
        match s {
            "Ready" => Status::Ready,
            "Waiting" => Status::Waiting,
            "Running" => Status::Running,
            "Terminated" => Status::Terminated,
            "Failed" => Status::Failed,
            "Cancelled" => Status::Cancelled,
            _ => Status::Interrupted,
        }
    }

    /// The textual form written to CSV.
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Ready => "Ready",
            Status::Waiting => "Waiting",
            Status::Running => "Running",
            Status::Terminated => "Terminated",
            Status::Failed => "Failed",
            Status::Cancelled => "Cancelled",
            Status::Interrupted => "Interrupted",
        }
    }
}

/// One row of `batch_task.csv` (v2018 column order):
/// `task_name, instance_num, job_name, task_type, status, start_time,
/// end_time, plan_cpu, plan_mem`.
///
/// `task_name` encodes the intra-job DAG (see [`crate::taskname`]);
/// `plan_cpu` is in units of "percent of one core" (100 = one core) and
/// `plan_mem` is a normalized memory request, both as published.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Dependency-encoding task name (`M1`, `R2_1`, `task_k3Xy`…).
    pub task_name: String,
    /// Number of instances launched for this task.
    pub instance_num: u32,
    /// Owning job identifier (`j_1001388`…); interned — every task row of
    /// a job repeats the same name, so rows share one allocation.
    pub job_name: IStr,
    /// Free-form task type code from the trace (opaque in v2018); interned
    /// because the whole trace uses only a handful of distinct codes.
    pub task_type: IStr,
    /// Final status of the task.
    pub status: Status,
    /// Start timestamp, seconds since trace start.
    pub start_time: i64,
    /// End timestamp, seconds since trace start (0 when missing).
    pub end_time: i64,
    /// Requested CPU, percent of one core (100 = 1 core).
    pub plan_cpu: f64,
    /// Requested memory, normalized units.
    pub plan_mem: f64,
}

impl TaskRecord {
    /// Task duration in seconds; `None` when timestamps are missing or
    /// inconsistent (the *availability* filter rejects those).
    pub fn duration(&self) -> Option<i64> {
        task_duration(self.start_time, self.end_time)
    }
}

/// [`TaskRecord::duration`] of a row's start and end times.
pub(crate) fn task_duration(start_time: i64, end_time: i64) -> Option<i64> {
    if start_time > 0 && end_time >= start_time {
        Some(end_time - start_time)
    } else {
        None
    }
}

/// One row of `batch_instance.csv` (v2018 column order):
/// `instance_name, task_name, job_name, task_type, status, start_time,
/// end_time, machine_id, seq_no, total_seq_no, cpu_avg, cpu_max, mem_avg,
/// mem_max`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// Instance identifier, unique within the task.
    pub instance_name: String,
    /// Owning task name (matches [`TaskRecord::task_name`]).
    pub task_name: String,
    /// Owning job name.
    pub job_name: String,
    /// Task type code (copied from the task row); interned.
    pub task_type: IStr,
    /// Final status of the instance.
    pub status: Status,
    /// Start timestamp, seconds since trace start.
    pub start_time: i64,
    /// End timestamp, seconds since trace start.
    pub end_time: i64,
    /// Machine the instance ran on (`m_1997`…); interned because a ~4k
    /// machine fleet appears across millions of instance rows.
    pub machine_id: IStr,
    /// Retry sequence number.
    pub seq_no: u32,
    /// Total retries observed for this instance slot.
    pub total_seq_no: u32,
    /// Mean CPU actually consumed, percent of one core.
    pub cpu_avg: f64,
    /// Peak CPU actually consumed, percent of one core.
    pub cpu_max: f64,
    /// Mean memory actually consumed, normalized units.
    pub mem_avg: f64,
    /// Peak memory actually consumed, normalized units.
    pub mem_max: f64,
}

impl InstanceRecord {
    /// Instance wall-clock duration in seconds, when timestamps are sane.
    pub fn duration(&self) -> Option<i64> {
        if self.start_time > 0 && self.end_time >= self.start_time {
            Some(self.end_time - self.start_time)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trip() {
        for s in [
            Status::Ready,
            Status::Waiting,
            Status::Running,
            Status::Terminated,
            Status::Failed,
            Status::Cancelled,
            Status::Interrupted,
        ] {
            assert_eq!(Status::parse(s.as_str()), s);
        }
        assert_eq!(Status::parse("???"), Status::Interrupted);
    }

    #[test]
    fn task_duration_rules() {
        let mut t = TaskRecord {
            task_name: "M1".into(),
            instance_num: 2,
            job_name: "j_1".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 100,
            end_time: 160,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        };
        assert_eq!(t.duration(), Some(60));
        t.end_time = 50;
        assert_eq!(t.duration(), None);
        t.start_time = 0;
        assert_eq!(t.duration(), None);
    }

    #[test]
    fn instance_duration_rules() {
        let i = InstanceRecord {
            instance_name: "inst_1".into(),
            task_name: "M1".into(),
            job_name: "j_1".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 10,
            end_time: 10,
            machine_id: "m_1".into(),
            seq_no: 1,
            total_seq_no: 1,
            cpu_avg: 50.0,
            cpu_max: 80.0,
            mem_avg: 0.1,
            mem_max: 0.2,
        };
        assert_eq!(i.duration(), Some(0));
    }
}
