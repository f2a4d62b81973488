//! Simulation workload model: job DAGs with per-task demands.

use serde::{Deserialize, Serialize};

use dagscope_graph::{algo, JobDag};
use dagscope_trace::Job;

/// One schedulable task: a bag of identical instances gated by the DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimTask {
    /// Node index within the job DAG.
    pub node: usize,
    /// Number of instances to place.
    pub instances: u32,
    /// CPU demand per instance (percent of a core, v2018 units).
    pub cpu: f64,
    /// Memory demand per instance (normalized units).
    pub mem: f64,
    /// Wall-clock seconds each instance runs.
    pub duration: i64,
}

/// A job prepared for simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimJob {
    /// Job name (from the trace).
    pub name: String,
    /// Submission time (seconds since trace start).
    pub arrival: i64,
    /// The dependency DAG.
    pub dag: JobDag,
    /// Per-node task demands, aligned with DAG node indices.
    pub tasks: Vec<SimTask>,
}

impl SimJob {
    /// Build from a trace job. The job's own earliest start becomes its
    /// arrival; per-task durations come from the records (default 60 s when
    /// absent). Fails when the job's task names do not form a DAG.
    pub fn from_trace_job(job: &Job) -> Result<SimJob, dagscope_graph::BuildError> {
        let dag = JobDag::from_job(job)?;
        let arrival = job.start_time().unwrap_or(0);
        Ok(SimJob::from_dag(job.name.clone(), arrival, dag))
    }

    /// Build from an already-constructed DAG (e.g. one replayed from a
    /// pipeline `Report` or a snapshot), with the same per-task demand
    /// defaults as [`from_trace_job`](Self::from_trace_job) so profile
    /// statistics live in the exact units the simulator schedules in.
    pub fn from_dag(name: String, arrival: i64, dag: JobDag) -> SimJob {
        let tasks = (0..dag.len())
            .map(|node| {
                let a = dag.attr(node);
                SimTask {
                    node,
                    instances: a.instance_num.max(1),
                    cpu: if a.plan_cpu > 0.0 { a.plan_cpu } else { 100.0 },
                    mem: if a.plan_mem > 0.0 { a.plan_mem } else { 0.1 },
                    duration: if a.duration > 0 { a.duration } else { 60 },
                }
            })
            .collect();
        SimJob {
            name,
            arrival,
            dag,
            tasks,
        }
    }

    /// Total work in CPU-seconds (`Σ instances × duration`, CPU-weighted).
    pub fn total_work(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.instances as f64 * t.cpu * t.duration as f64)
            .sum()
    }

    /// Ideal (infinite-cluster) completion time: the weighted critical
    /// path over task durations.
    pub fn ideal_makespan(&self) -> i64 {
        algo::weighted_critical_path(&self.dag)
    }

    /// Remaining critical path (seconds) from each task to the job's end,
    /// inclusive of the task itself — the priority key of
    /// critical-path-first scheduling. A path longer than `i64::MAX`
    /// seconds saturates there.
    pub fn downstream_critical_path(&self) -> Vec<i64> {
        let n = self.dag.len();
        let mut rest = vec![0i64; n];
        for i in (0..n).rev() {
            let tail = self
                .dag
                .children(i)
                .iter()
                .map(|&c| rest[c as usize])
                .max()
                .unwrap_or(0);
            rest[i] = tail.saturating_add(self.tasks[i].duration);
        }
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Status, TaskRecord};

    fn t(name: &str, instances: u32, dur: i64) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: instances,
            job_name: "j".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 100,
            end_time: 100 + dur,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        }
    }

    fn job(names_inst_dur: &[(&str, u32, i64)]) -> Job {
        Job {
            name: "j_sim".into(),
            tasks: names_inst_dur
                .iter()
                .map(|(n, i, d)| t(n, *i, *d))
                .collect(),
        }
    }

    #[test]
    fn build_from_trace_job() {
        let j = job(&[("M1", 4, 30), ("R2_1", 2, 60)]);
        let sim = SimJob::from_trace_job(&j).unwrap();
        assert_eq!(sim.arrival, 100);
        assert_eq!(sim.tasks.len(), 2);
        assert_eq!(sim.tasks[0].instances, 4);
        assert_eq!(sim.tasks[1].duration, 60);
        assert_eq!(sim.total_work(), 4.0 * 100.0 * 30.0 + 2.0 * 100.0 * 60.0);
        assert_eq!(sim.ideal_makespan(), 90);
    }

    #[test]
    fn from_dag_matches_from_trace_job() {
        let j = job(&[("M1", 4, 30), ("R2_1", 2, 60)]);
        let via_trace = SimJob::from_trace_job(&j).unwrap();
        let via_dag = SimJob::from_dag(
            "j_sim".to_string(),
            via_trace.arrival,
            JobDag::from_job(&j).unwrap(),
        );
        assert_eq!(via_trace, via_dag);
    }

    #[test]
    fn downstream_critical_path_keys() {
        // M1(10) -> R2(20) -> R3(5); M1's downstream CP = 35.
        let j = job(&[("M1", 1, 10), ("R2_1", 1, 20), ("R3_2", 1, 5)]);
        let sim = SimJob::from_trace_job(&j).unwrap();
        assert_eq!(sim.downstream_critical_path(), vec![35, 25, 5]);
    }

    #[test]
    fn critical_paths_saturate() {
        let half = i64::MAX / 2 + 1;
        let sim = SimJob::from_trace_job(&job(&[("M1", 1, half), ("R2_1", 1, half)])).unwrap();
        assert_eq!(sim.ideal_makespan(), i64::MAX);
        assert_eq!(sim.downstream_critical_path(), vec![i64::MAX, half]);
    }

    #[test]
    fn defaults_for_missing_attributes() {
        let mut j = job(&[("M1", 0, 0)]);
        j.tasks[0].plan_cpu = 0.0;
        j.tasks[0].plan_mem = 0.0;
        j.tasks[0].end_time = 0; // no duration
        let sim = SimJob::from_trace_job(&j).unwrap();
        assert_eq!(sim.tasks[0].instances, 1);
        assert_eq!(sim.tasks[0].cpu, 100.0);
        assert_eq!(sim.tasks[0].duration, 60);
    }

    #[test]
    fn non_dag_job_rejected() {
        let j = Job {
            name: "j".into(),
            tasks: vec![t("task_x", 1, 10)],
        };
        assert!(SimJob::from_trace_job(&j).is_err());
    }
}
