//! Group profiles: what the scheduler knows about a cluster of jobs.
//!
//! The paper's scheduling claim (Section V) is that the learned groups
//! carry enough signal to *predict* a new job's resource demand and
//! execution time at admission. A [`GroupProfile`] is that signal made
//! concrete: per-cluster distributions of historical shape (task count),
//! width, total work and critical path, built from the jobs the offline
//! pipeline clustered. A [`GroupPredictor`] pairs the table with per-job
//! classifications (cluster + confidence) so a dispatch policy can turn
//! "this job looks like group B" into a priority key without ever seeing
//! the job's true durations.

use std::collections::HashMap;

use crate::metrics::quantile_sorted_f64;
use crate::workload::SimJob;
use dagscope_graph::algo;
use dagscope_trace::IStr;

/// Summary of one observed distribution: sorted once, quantiles exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dist {
    /// Samples observed.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Dist {
    /// Summarize raw samples (order irrelevant; sorted internally once,
    /// by `f64::total_cmp`, which orders NaN too, so a NaN sample
    /// cannot panic).
    pub fn from_samples(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Dist {
            count: n,
            mean: if n == 0 {
                0.0
            } else {
                samples.iter().sum::<f64>() / n as f64
            },
            p50: quantile_sorted_f64(&samples, 0.50),
            p95: quantile_sorted_f64(&samples, 0.95),
            p99: quantile_sorted_f64(&samples, 0.99),
        }
    }
}

/// Historical distributions for one cluster of the group model.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProfile {
    /// Cluster id in the model (index into [`ProfileTable`]).
    pub cluster: usize,
    /// Report-facing group label (`A`, `B`, …) if known, else `?`.
    pub label: char,
    /// Members observed while building the table.
    pub population: usize,
    /// Task counts (DAG sizes) of the members.
    pub size: Dist,
    /// Maximum level widths of the members.
    pub width: Dist,
    /// Total work in CPU-seconds (`Σ instances × cpu × duration`).
    pub work: Dist,
    /// Weighted critical path in seconds — the infinite-cluster JCT.
    pub critical_path: Dist,
}

/// Per-cluster [`GroupProfile`]s plus the population-wide neutral priors
/// used when a job cannot be confidently classified.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTable {
    profiles: Vec<GroupProfile>,
    neutral_work: f64,
    neutral_critical_path: f64,
}

/// Accumulates per-member observations, then summarizes into a
/// [`ProfileTable`]. Observe every clustered job once, with the cluster
/// id the offline model assigned it.
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    size: Vec<Vec<f64>>,
    width: Vec<Vec<f64>>,
    work: Vec<Vec<f64>>,
    critical_path: Vec<Vec<f64>>,
}

impl ProfileBuilder {
    /// Builder for a `k`-cluster model.
    pub fn new(k: usize) -> ProfileBuilder {
        ProfileBuilder {
            size: vec![Vec::new(); k],
            width: vec![Vec::new(); k],
            work: vec![Vec::new(); k],
            critical_path: vec![Vec::new(); k],
        }
    }

    /// Record one historical member of `cluster`. The job's shape and
    /// demands are read exactly as the simulator would see them, so
    /// profile-predicted keys live in the same units as the oracles'.
    pub fn observe(&mut self, cluster: usize, job: &SimJob) {
        self.size[cluster].push(job.dag.len() as f64);
        self.width[cluster].push(algo::max_width(&job.dag) as f64);
        self.work[cluster].push(job.total_work());
        self.critical_path[cluster].push(job.ideal_makespan() as f64);
    }

    /// Summarize into the table. `labels[c]` is the report-facing letter
    /// of cluster `c` (pass an empty slice when labels are unknown).
    pub fn finish(self, labels: &[char]) -> ProfileTable {
        let mut all_work: Vec<f64> = self.work.iter().flatten().copied().collect();
        let mut all_cp: Vec<f64> = self.critical_path.iter().flatten().copied().collect();
        all_work.sort_by(f64::total_cmp);
        all_cp.sort_by(f64::total_cmp);
        let neutral_work = quantile_sorted_f64(&all_work, 0.50);
        let neutral_critical_path = quantile_sorted_f64(&all_cp, 0.50);
        let profiles = self
            .size
            .into_iter()
            .zip(self.width)
            .zip(self.work)
            .zip(self.critical_path)
            .enumerate()
            .map(|(cluster, (((size, width), work), cp))| GroupProfile {
                cluster,
                label: labels.get(cluster).copied().unwrap_or('?'),
                population: size.len(),
                size: Dist::from_samples(size),
                width: Dist::from_samples(width),
                work: Dist::from_samples(work),
                critical_path: Dist::from_samples(cp),
            })
            .collect();
        ProfileTable {
            profiles,
            neutral_work,
            neutral_critical_path,
        }
    }
}

impl ProfileTable {
    /// Profile of cluster `c`, if the table covers it.
    pub fn get(&self, c: usize) -> Option<&GroupProfile> {
        self.profiles.get(c)
    }

    /// All profiles, indexed by cluster id.
    pub fn profiles(&self) -> &[GroupProfile] {
        &self.profiles
    }

    /// Number of clusters covered.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no cluster is covered.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Population-wide median work — the prior assigned to jobs the model
    /// cannot place (neither favored nor starved).
    pub fn neutral_work(&self) -> f64 {
        self.neutral_work
    }

    /// Population-wide median critical path, same role as
    /// [`neutral_work`](Self::neutral_work).
    pub fn neutral_critical_path(&self) -> f64 {
        self.neutral_critical_path
    }

    /// Multi-line rendering of the table for CLI output, one row per
    /// cluster in label order (unlabeled `?` clusters last): cluster ids
    /// are k-means' arbitrary numbering, labels are not.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "group  members  p50 size  p50 width  p50 work(cpu·s)  p50 crit-path(s)\n",
        );
        let mut rows: Vec<&GroupProfile> = self.profiles.iter().collect();
        rows.sort_by_key(|p| (p.label == '?', p.label, p.cluster));
        for p in rows {
            s.push_str(&format!(
                "{:>5}  {:>7}  {:>8.0}  {:>9.0}  {:>15.0}  {:>16.0}\n",
                p.label, p.population, p.size.p50, p.width.p50, p.work.p50, p.critical_path.p50
            ));
        }
        s
    }
}

/// One job's classification under the group model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobHint {
    /// Winning cluster id.
    pub cluster: usize,
    /// Classifier confidence in `[0, 1]` (`1/k` when torn evenly).
    pub confidence: f64,
}

/// A [`ProfileTable`] plus per-job hints — everything a group-informed
/// policy needs, with job names interned (`IStr` = `Arc<str>`) so the
/// table holds one shared allocation per name and lookups borrow `&str`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPredictor {
    profiles: ProfileTable,
    hints: HashMap<IStr, JobHint>,
}

impl GroupPredictor {
    /// Wrap a profile table with an empty hint set.
    pub fn new(profiles: ProfileTable) -> GroupPredictor {
        GroupPredictor {
            profiles,
            hints: HashMap::new(),
        }
    }

    /// Record the model's verdict for one job name.
    pub fn insert_hint(&mut self, name: impl Into<IStr>, hint: JobHint) {
        self.hints.insert(name.into(), hint);
    }

    /// The hint for `name`, if the model classified it.
    pub fn hint(&self, name: &str) -> Option<JobHint> {
        self.hints.get(name).copied()
    }

    /// Number of hinted jobs.
    pub fn hint_count(&self) -> usize {
        self.hints.len()
    }

    /// The underlying profile table.
    pub fn profiles(&self) -> &ProfileTable {
        &self.profiles
    }

    /// Group-median work prediction for `name`: `(cpu-seconds,
    /// confidence)`, or `None` when the job was never classified or its
    /// cluster has no members.
    pub fn predicted_work(&self, name: &str) -> Option<(f64, f64)> {
        let h = self.hint(name)?;
        let p = self.profiles.get(h.cluster)?;
        if p.population == 0 {
            return None;
        }
        Some((p.work.p50, h.confidence))
    }

    /// Group-median critical-path prediction for `name`, same contract as
    /// [`predicted_work`](Self::predicted_work).
    pub fn predicted_critical_path(&self, name: &str) -> Option<(f64, f64)> {
        let h = self.hint(name)?;
        let p = self.profiles.get(h.cluster)?;
        if p.population == 0 {
            return None;
        }
        Some((p.critical_path.p50, h.confidence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn sim_job(name: &str, specs: &[(&str, u32, i64)]) -> SimJob {
        let tasks = specs
            .iter()
            .map(|(n, i, d)| TaskRecord {
                task_name: (*n).into(),
                instance_num: *i,
                job_name: name.into(),
                task_type: "1".into(),
                status: Status::Terminated,
                start_time: 1,
                end_time: 1 + d,
                plan_cpu: 100.0,
                plan_mem: 0.5,
            })
            .collect();
        SimJob::from_trace_job(&Job {
            name: name.into(),
            tasks,
        })
        .unwrap()
    }

    #[test]
    fn dist_summarizes() {
        let d = Dist::from_samples(vec![3.0, 1.0, 2.0, 4.0, 100.0]);
        assert_eq!(d.count, 5);
        assert_eq!(d.mean, 22.0);
        assert_eq!(d.p50, 3.0);
        assert_eq!(d.p95, 100.0);
        assert_eq!(d.p99, 100.0);
        let empty = Dist::from_samples(vec![]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p50, 0.0);
        // A positive NaN sorts last: it poisons the mean and the top
        // quantile, and panics nowhere.
        let nan = Dist::from_samples(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(nan.count, 4);
        assert_eq!(nan.p50, 2.0);
        assert!(nan.mean.is_nan() && nan.p99.is_nan());
    }

    #[test]
    fn profiles_group_the_observations() {
        let mut b = ProfileBuilder::new(2);
        // Cluster 0: short chains; cluster 1: wide heavy jobs.
        b.observe(0, &sim_job("a", &[("M1", 1, 10), ("R2_1", 1, 10)]));
        b.observe(0, &sim_job("b", &[("M1", 1, 20), ("R2_1", 1, 20)]));
        b.observe(1, &sim_job("c", &[("M1", 40, 100)]));
        let t = b.finish(&['A', 'B']);
        assert_eq!(t.len(), 2);
        let a = t.get(0).unwrap();
        assert_eq!(a.label, 'A');
        assert_eq!(a.population, 2);
        assert_eq!(a.size.p50, 2.0);
        // Chain of 10+10 has work 2000, chain of 20+20 has work 4000.
        assert_eq!(a.work.p50, 2_000.0);
        assert_eq!(a.critical_path.p50, 20.0);
        let bg = t.get(1).unwrap();
        // Width is DAG level width (one single-task level), not instances.
        assert_eq!(bg.width.p50, 1.0);
        assert_eq!(bg.work.p50, 40.0 * 100.0 * 100.0);
        // Neutral prior = population-wide median work.
        assert_eq!(t.neutral_work(), 4_000.0);
        assert!(t.render().contains('A'));
    }

    #[test]
    fn render_lists_groups_in_label_order_unlabeled_last() {
        let mut b = ProfileBuilder::new(4);
        for c in 0..4 {
            b.observe(c, &sim_job("j", &[("M1", 1, 10)]));
        }
        // Cluster ids in k-means' order; labels in population order.
        let t = b.finish(&['C', '?', 'A', 'B']);
        let table = t.render();
        let labels: Vec<&str> = table
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(labels, ["A", "B", "C", "?"]);
        // The profiles themselves stay indexed by cluster id.
        let ids: Vec<char> = t.profiles().iter().map(|p| p.label).collect();
        assert_eq!(ids, ['C', '?', 'A', 'B']);
    }

    #[test]
    fn predictor_hints_and_predictions() {
        let mut b = ProfileBuilder::new(2);
        b.observe(0, &sim_job("a", &[("M1", 1, 10)]));
        b.observe(1, &sim_job("c", &[("M1", 10, 100)]));
        let mut pred = GroupPredictor::new(b.finish(&['A', 'B']));
        pred.insert_hint(
            "j_new",
            JobHint {
                cluster: 1,
                confidence: 0.8,
            },
        );
        // Lookup borrows &str — no clone, no allocation.
        let (work, conf) = pred.predicted_work("j_new").unwrap();
        assert_eq!(work, 10.0 * 100.0 * 100.0);
        assert_eq!(conf, 0.8);
        assert_eq!(pred.predicted_critical_path("j_new").unwrap().0, 100.0);
        assert!(pred.predicted_work("j_unseen").is_none());
        assert_eq!(pred.hint_count(), 1);
    }

    #[test]
    fn empty_cluster_predicts_none() {
        let b = ProfileBuilder::new(1);
        let mut pred = GroupPredictor::new(b.finish(&['A']));
        pred.insert_hint(
            "j",
            JobHint {
                cluster: 0,
                confidence: 1.0,
            },
        );
        assert!(pred.predicted_work("j").is_none());
    }
}
