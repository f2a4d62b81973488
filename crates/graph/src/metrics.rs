//! Per-job structural feature extraction (Figs 4–6 inputs).

use serde::{Deserialize, Serialize};

use crate::{algo, JobDag};

/// The structural feature vector of one job DAG — everything the paper's
/// quantification (Section V-A) and task-type analysis (Section V-C) read
/// off a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobFeatures {
    /// Job name.
    pub name: String,
    /// Node count (after whatever conflation state the DAG is in).
    pub size: usize,
    /// Original task count ([`JobDag::total_weight`]).
    pub weight: u32,
    /// Critical path in vertices.
    pub critical_path: usize,
    /// Maximum level width (parallelism).
    pub max_width: usize,
    /// Number of input (in-degree 0) tasks.
    pub sources: usize,
    /// Number of terminal tasks.
    pub sinks: usize,
    /// Edge count.
    pub edges: usize,
    /// Count of `M` tasks (weights included).
    pub map_tasks: u32,
    /// Count of `J` tasks.
    pub join_tasks: u32,
    /// Count of `R` tasks.
    pub reduce_tasks: u32,
    /// Count of tasks with any other code.
    pub other_tasks: u32,
    /// Total instances across tasks.
    pub total_instances: u64,
    /// Total planned CPU volume (`Σ instance_num × plan_cpu`).
    pub cpu_volume: f64,
    /// Lower bound on completion time (weighted critical path, seconds).
    pub min_makespan: i64,
}

impl JobFeatures {
    /// Extract features from a DAG. The structural counts come from its
    /// shape's summary; instances, CPU volume and the weighted critical
    /// path are summed over the DAG's own attributes in node order.
    pub fn extract(dag: &JobDag) -> JobFeatures {
        let s = dag.shape().summary();
        let mut total_instances = 0u64;
        let mut cpu_volume = 0.0f64;
        for a in dag.attrs() {
            total_instances += a.instance_num as u64;
            cpu_volume += a.instance_num as f64 * a.plan_cpu;
        }
        let [map_tasks, join_tasks, reduce_tasks, other_tasks] = s.kind_weights;
        JobFeatures {
            name: dag.name.clone(),
            size: dag.len(),
            weight: s.total_weight,
            critical_path: s.critical_path,
            max_width: s.max_width,
            sources: s.sources,
            sinks: s.sinks,
            edges: s.edges,
            map_tasks,
            join_tasks,
            reduce_tasks,
            other_tasks,
            total_instances,
            cpu_volume,
            min_makespan: algo::weighted_critical_path(dag),
        }
    }

    /// Numeric feature vector used by the statistical-clustering baseline
    /// (Chen et al.-style k-means over job properties, the comparison in
    /// Section VI).
    pub fn as_vector(&self) -> Vec<f64> {
        vec![
            self.size as f64,
            self.critical_path as f64,
            self.max_width as f64,
            self.sources as f64,
            self.sinks as f64,
            self.edges as f64,
            self.map_tasks as f64,
            self.join_tasks as f64,
            self.reduce_tasks as f64,
        ]
    }
}

/// Group-by-size summary: per job size, the number of jobs, the maximum
/// critical path and the maximum width observed — exactly the three series
/// plotted in Figs 4 and 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeGroupRow {
    /// Job size (task count).
    pub size: usize,
    /// Number of jobs of this size.
    pub jobs: usize,
    /// Maximum critical path among them.
    pub max_critical_path: usize,
    /// Maximum width among them.
    pub max_width: usize,
}

/// Build the Fig 4 / Fig 5 table from a set of features.
pub fn size_group_table(features: &[JobFeatures]) -> Vec<SizeGroupRow> {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<usize, SizeGroupRow> = BTreeMap::new();
    for f in features {
        let row = rows.entry(f.size).or_insert(SizeGroupRow {
            size: f.size,
            jobs: 0,
            max_critical_path: 0,
            max_width: 0,
        });
        row.jobs += 1;
        row.max_critical_path = row.max_critical_path.max(f.critical_path);
        row.max_width = row.max_width.max(f.max_width);
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn t(name: &str, instances: u32) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: instances,
            job_name: "j".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 1,
            end_time: 31,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        }
    }

    fn features(names: &[&str]) -> JobFeatures {
        let job = Job {
            name: "j".into(),
            tasks: names.iter().map(|n| t(n, 2)).collect(),
        };
        JobFeatures::extract(&JobDag::from_job(&job).unwrap())
    }

    #[test]
    fn paper_example_features() {
        let f = features(&["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]);
        assert_eq!(f.size, 5);
        assert_eq!(f.weight, 5);
        assert_eq!(f.critical_path, 3);
        assert_eq!(f.max_width, 2);
        assert_eq!(f.sources, 2);
        assert_eq!(f.sinks, 1);
        assert_eq!(f.edges, 6);
        assert_eq!(f.map_tasks, 2);
        assert_eq!(f.reduce_tasks, 3);
        assert_eq!(f.join_tasks, 0);
        assert_eq!(f.total_instances, 10);
        assert_eq!(f.cpu_volume, 1000.0);
        assert_eq!(f.min_makespan, 90);
    }

    #[test]
    fn weights_counted_after_conflation() {
        let job = Job {
            name: "j".into(),
            tasks: ["M1", "M2", "M3", "R4_3_2_1"]
                .iter()
                .map(|n| t(n, 1))
                .collect(),
        };
        let dag = crate::conflate::conflate(&JobDag::from_job(&job).unwrap());
        let f = JobFeatures::extract(&dag);
        assert_eq!(f.size, 2);
        assert_eq!(f.weight, 4);
        assert_eq!(f.map_tasks, 3); // merged node carries weight 3
        assert_eq!(f.reduce_tasks, 1);
    }

    #[test]
    fn vector_shape_stable() {
        let f = features(&["M1", "R2_1"]);
        assert_eq!(f.as_vector().len(), 9);
    }

    #[test]
    fn size_group_table_aggregates() {
        let fs = vec![
            features(&["M1", "R2_1"]),
            features(&["M1", "R2_1"]),
            features(&["M1", "M2", "R3_2_1"]),
        ];
        let table = size_group_table(&fs);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].size, 2);
        assert_eq!(table[0].jobs, 2);
        assert_eq!(table[0].max_critical_path, 2);
        assert_eq!(table[1].size, 3);
        assert_eq!(table[1].max_width, 2);
    }

    #[test]
    fn empty_table() {
        assert!(size_group_table(&[]).is_empty());
    }
}
