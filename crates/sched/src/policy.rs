//! Dispatch policies: how the ready queue is ordered.

use std::collections::HashMap;
use std::sync::Arc;

use crate::profile::GroupPredictor;
use crate::workload::SimJob;
use dagscope_trace::IStr;

/// Confidence below which the hybrid policy distrusts the group model
/// and falls back to its neutral prior. With `k` groups an evenly torn
/// probe scores `1/k`, so anything under ~0.3 means the winning group
/// barely beat the field.
pub const DEFAULT_MIN_CONFIDENCE: f64 = 0.3;

/// A per-job predicted cost table keyed by interned job names
/// (`IStr` = `Arc<str>`): inserting a name allocates once, lookups
/// borrow `&str`, and cloning the table bumps reference counts instead
/// of copying 100k strings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Predictions {
    map: HashMap<IStr, f64>,
}

impl Predictions {
    /// Empty table.
    pub fn new() -> Predictions {
        Predictions::default()
    }

    /// Record a predicted cost for a job name.
    pub fn insert(&mut self, name: impl Into<IStr>, cost: f64) {
        self.map.insert(name.into(), cost);
    }

    /// Predicted cost for `name`, if known.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).copied()
    }

    /// Number of predictions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no prediction is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<S: Into<IStr>> FromIterator<(S, f64)> for Predictions {
    fn from_iter<I: IntoIterator<Item = (S, f64)>>(iter: I) -> Predictions {
        Predictions {
            map: iter.into_iter().map(|(n, c)| (n.into(), c)).collect(),
        }
    }
}

/// Job-level policy keys frozen at admission, plus how many jobs the
/// policy had no usable prediction for (those got a neutral or
/// pessimistic key instead of silently vanishing into the ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenKeys {
    /// One key per job, same order as the input slice.
    pub keys: Vec<f64>,
    /// Jobs that fell back (unknown name, empty cluster, or — for the
    /// hybrid — a classification under its confidence floor).
    pub unknown_jobs: u64,
}

/// A dispatch policy assigns every job a static priority key; ready tasks
/// are dispatched in ascending `(job key, job index, task downstream-CP
/// descending)` order. Static job-level keys model the level-1 batch
/// scheduler the paper describes (job priorities decided at admission).
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// First-in-first-out by arrival time — the neutral baseline.
    Fifo,
    /// Shortest-job-first on *true* total work (oracle upper bound: a real
    /// scheduler does not know this at admission).
    SjfOracle,
    /// Shortest remaining critical path on *true* durations (oracle).
    CriticalPathOracle,
    /// Shortest-job-first on an externally supplied cost per job name.
    /// Unknown jobs sort last (pessimistic) and are counted in
    /// [`FrozenKeys::unknown_jobs`].
    PredictedSjf {
        /// Predicted cost per job name (e.g. group-median work).
        predictions: Predictions,
    },
    /// Shortest-job-first on the classified group's median historical
    /// work — the paper's proposal: the scheduler only needs the incoming
    /// job's topology. Unclassified jobs get the population-median prior.
    GroupSjf {
        /// Group profiles + per-job classifications.
        predictor: Arc<GroupPredictor>,
    },
    /// Shortest-critical-path-first on the classified group's median
    /// historical critical path (DAGPS-style, without oracle durations).
    GroupCriticalPath {
        /// Group profiles + per-job classifications.
        predictor: Arc<GroupPredictor>,
    },
    /// Regret-bounded hybrid: trust the group-median work only when the
    /// classifier's confidence clears `min_confidence`; everything else
    /// keeps the neutral population prior, which ties such jobs together
    /// so they dispatch FIFO among themselves (job-index tie-break) — a
    /// low-confidence prediction can never demote a job below the pack.
    GroupHybrid {
        /// Group profiles + per-job classifications.
        predictor: Arc<GroupPredictor>,
        /// Confidence floor in `[0, 1]`; see [`DEFAULT_MIN_CONFIDENCE`].
        min_confidence: f64,
    },
}

impl Policy {
    /// Key plus whether the policy actually *knew* this job.
    fn key_and_known(&self, job: &SimJob) -> (f64, bool) {
        match self {
            Policy::Fifo => (job.arrival as f64, true),
            Policy::SjfOracle => (job.total_work(), true),
            Policy::CriticalPathOracle => (job.ideal_makespan() as f64, true),
            Policy::PredictedSjf { predictions } => match predictions.get(&job.name) {
                Some(cost) => (cost, true),
                None => (f64::MAX, false),
            },
            Policy::GroupSjf { predictor } => match predictor.predicted_work(&job.name) {
                Some((work, _)) => (work, true),
                None => (predictor.profiles().neutral_work(), false),
            },
            Policy::GroupCriticalPath { predictor } => {
                match predictor.predicted_critical_path(&job.name) {
                    Some((cp, _)) => (cp, true),
                    None => (predictor.profiles().neutral_critical_path(), false),
                }
            }
            Policy::GroupHybrid {
                predictor,
                min_confidence,
            } => match predictor.predicted_work(&job.name) {
                Some((work, conf)) if conf >= *min_confidence => (work, true),
                _ => (predictor.profiles().neutral_work(), false),
            },
        }
    }

    /// Job-level priority key (lower dispatches first).
    pub fn job_key(&self, job: &SimJob) -> f64 {
        self.key_and_known(job).0
    }

    /// Freeze keys for a whole workload at admission, surfacing how many
    /// jobs the policy could not predict.
    ///
    /// Errors on the first job whose key is NaN or infinite (say, a NaN
    /// cost in [`Policy::PredictedSjf`]'s table): such a key has no place
    /// in the dispatch order.
    pub fn freeze(&self, jobs: &[SimJob]) -> Result<FrozenKeys, String> {
        let mut unknown_jobs = 0u64;
        let mut keys = Vec::with_capacity(jobs.len());
        for j in jobs {
            let (key, known) = self.key_and_known(j);
            if !key.is_finite() {
                return Err(format!(
                    "policy {} gives job {} the non-finite key {key}",
                    self.label(),
                    j.name
                ));
            }
            if !known {
                unknown_jobs += 1;
            }
            keys.push(key);
        }
        Ok(FrozenKeys { keys, unknown_jobs })
    }

    /// Display label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::SjfOracle => "sjf-oracle",
            Policy::CriticalPathOracle => "critical-path-oracle",
            Policy::PredictedSjf { .. } => "predicted-sjf",
            Policy::GroupSjf { .. } => "group-sjf",
            Policy::GroupCriticalPath { .. } => "group-critical-path",
            Policy::GroupHybrid { .. } => "group-hybrid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{JobHint, ProfileBuilder};
    use dagscope_trace::{Job, Status, TaskRecord};

    fn job(name: &str, arrival: i64, dur: i64, instances: u32) -> SimJob {
        let t = TaskRecord {
            task_name: "M1".into(),
            instance_num: instances,
            job_name: name.into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: arrival.max(1),
            end_time: arrival.max(1) + dur,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        };
        SimJob::from_trace_job(&Job {
            name: name.into(),
            tasks: vec![t],
        })
        .unwrap()
    }

    /// Two-group predictor: cluster 0 = light (work 1000), cluster 1 =
    /// heavy (work 400_000); hints as given.
    fn predictor(hints: &[(&str, usize, f64)]) -> Arc<GroupPredictor> {
        let mut b = ProfileBuilder::new(2);
        b.observe(0, &job("hist_light", 0, 10, 1));
        b.observe(1, &job("hist_heavy", 0, 100, 40));
        let mut p = GroupPredictor::new(b.finish(&['A', 'B']));
        for &(name, cluster, confidence) in hints {
            p.insert_hint(
                name,
                JobHint {
                    cluster,
                    confidence,
                },
            );
        }
        Arc::new(p)
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let p = Policy::Fifo;
        assert!(p.job_key(&job("a", 10, 60, 1)) < p.job_key(&job("b", 20, 1, 1)));
    }

    #[test]
    fn sjf_orders_by_work() {
        let p = Policy::SjfOracle;
        assert!(p.job_key(&job("small", 0, 10, 1)) < p.job_key(&job("big", 0, 10, 50)));
    }

    #[test]
    fn cp_oracle_ignores_width() {
        let p = Policy::CriticalPathOracle;
        // Same duration, different widths: equal keys.
        assert_eq!(
            p.job_key(&job("a", 0, 30, 1)),
            p.job_key(&job("b", 0, 30, 40))
        );
    }

    #[test]
    fn predicted_sjf_uses_map_and_counts_unknowns() {
        let mut predictions = Predictions::new();
        predictions.insert("known", 42.0);
        let p = Policy::PredictedSjf { predictions };
        assert_eq!(p.job_key(&job("known", 0, 10, 1)), 42.0);
        // Unknown jobs still sort last (pessimistic)…
        assert_eq!(p.job_key(&job("unknown", 0, 10, 1)), f64::MAX);
        // …but the freeze surfaces the count instead of hiding it.
        let frozen = p
            .freeze(&[job("known", 0, 10, 1), job("unknown", 0, 10, 1)])
            .unwrap();
        assert_eq!(frozen.keys, vec![42.0, f64::MAX]);
        assert_eq!(frozen.unknown_jobs, 1);
    }

    #[test]
    fn predictions_lookup_borrows() {
        let preds: Predictions = vec![("j_1", 1.0), ("j_2", 2.0)].into_iter().collect();
        assert_eq!(preds.len(), 2);
        // &str lookup against IStr keys — no clone at the call site.
        let name = String::from("j_2");
        assert_eq!(preds.get(&name), Some(2.0));
        assert_eq!(preds.get("j_3"), None);
    }

    #[test]
    fn group_sjf_uses_group_median_work() {
        let pred = predictor(&[("light", 0, 0.9), ("heavy", 1, 0.9)]);
        let p = Policy::GroupSjf { predictor: pred };
        let light = p.job_key(&job("light", 0, 999, 99)); // true size ignored
        let heavy = p.job_key(&job("heavy", 0, 1, 1));
        assert_eq!(light, 1_000.0);
        assert_eq!(heavy, 400_000.0);
        assert!(light < heavy);
    }

    #[test]
    fn group_cp_uses_group_median_critical_path() {
        let pred = predictor(&[("light", 0, 0.9), ("heavy", 1, 0.9)]);
        let p = Policy::GroupCriticalPath { predictor: pred };
        assert_eq!(p.job_key(&job("light", 0, 1, 1)), 10.0);
        assert_eq!(p.job_key(&job("heavy", 0, 1, 1)), 100.0);
    }

    #[test]
    fn unclassified_jobs_get_neutral_prior_and_are_counted() {
        let pred = predictor(&[("light", 0, 0.9)]);
        let neutral = pred.profiles().neutral_work();
        let p = Policy::GroupSjf { predictor: pred };
        let frozen = p
            .freeze(&[job("light", 0, 1, 1), job("mystery", 0, 1, 1)])
            .unwrap();
        assert_eq!(frozen.keys[1], neutral);
        assert_eq!(frozen.unknown_jobs, 1);
        // The neutral prior sits within the observed range — unknown
        // jobs are neither starved (f64::MAX) nor favored.
        assert!(frozen.keys[1] >= 1_000.0 && frozen.keys[1] < 400_000.0);
    }

    #[test]
    fn hybrid_falls_back_below_confidence_floor() {
        let pred = predictor(&[("sure", 1, 0.9), ("torn", 1, 0.21)]);
        let neutral = pred.profiles().neutral_work();
        let p = Policy::GroupHybrid {
            predictor: pred,
            min_confidence: DEFAULT_MIN_CONFIDENCE,
        };
        // Confident classification → group-median key.
        assert_eq!(p.job_key(&job("sure", 0, 1, 1)), 400_000.0);
        // Low confidence → neutral prior, counted as unknown.
        let frozen = p
            .freeze(&[job("sure", 0, 1, 1), job("torn", 0, 1, 1)])
            .unwrap();
        assert_eq!(frozen.keys[1], neutral);
        assert_eq!(frozen.unknown_jobs, 1);
    }

    #[test]
    fn oracles_report_zero_unknowns() {
        let jobs = [job("a", 0, 10, 1), job("b", 5, 20, 2)];
        for p in [Policy::Fifo, Policy::SjfOracle, Policy::CriticalPathOracle] {
            assert_eq!(p.freeze(&jobs).unwrap().unknown_jobs, 0);
        }
    }

    #[test]
    fn labels_distinct() {
        let pred = predictor(&[]);
        let labels = [
            Policy::Fifo.label(),
            Policy::SjfOracle.label(),
            Policy::CriticalPathOracle.label(),
            Policy::PredictedSjf {
                predictions: Predictions::new(),
            }
            .label(),
            Policy::GroupSjf {
                predictor: pred.clone(),
            }
            .label(),
            Policy::GroupCriticalPath {
                predictor: pred.clone(),
            }
            .label(),
            Policy::GroupHybrid {
                predictor: pred,
                min_confidence: DEFAULT_MIN_CONFIDENCE,
            }
            .label(),
        ];
        let set: std::collections::HashSet<&str> = labels.into_iter().collect();
        assert_eq!(set.len(), 7);
    }
}
