//! Trace-level headline statistics (experiment E10).
//!
//! Section II-B of the paper reports that roughly half of batch jobs carry
//! dependencies and that those jobs consume 70–80 % of batch resources.
//! [`TraceStats`] recomputes those numbers (plus supporting distributions)
//! from any [`JobSet`] — synthetic or ingested from the real trace files.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::fsum::ExactSum;
use crate::schema::Status;
use crate::{Job, JobSet};

/// Deterministic splitmix64-style hasher for the accumulator's integer-keyed
/// multisets. The streamed scan updates these once per closed job; SipHash
/// plus `BTreeMap` pointer chasing were a measurable slice of the 4M-job
/// scan, and the keys are attacker-free integers.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

type IntMap<K> = HashMap<K, usize, BuildHasherDefault<IntHasher>>;

/// Aggregate statistics over a job population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total number of jobs.
    pub total_jobs: usize,
    /// Jobs whose every task name parses as a DAG task.
    pub dag_jobs: usize,
    /// `dag_jobs / total_jobs`.
    pub dag_fraction: f64,
    /// Share of planned CPU volume requested by DAG jobs.
    pub dag_cpu_share: f64,
    /// Share of planned memory volume requested by DAG jobs.
    pub dag_mem_share: f64,
    /// DAG-job size histogram (`size → count`).
    pub size_histogram: BTreeMap<usize, usize>,
    /// Task status histogram over all tasks.
    pub status_histogram: BTreeMap<String, usize>,
    /// Jobs passing the integrity criterion (all tasks terminated).
    pub terminated_jobs: usize,
    /// Completion-time percentiles (p50, p90, p99, seconds) over fully
    /// terminated DAG jobs.
    pub completion_percentiles: (i64, i64, i64),
}

impl TraceStats {
    /// Compute the statistics for `set`.
    pub fn compute(set: &JobSet) -> TraceStats {
        let mut acc = StatsAccumulator::new();
        for job in set.jobs() {
            acc.add_job(job);
        }
        acc.finish()
    }

    /// Number of distinct DAG-job sizes (the paper's "size types": 17 in
    /// their 100-job sample).
    pub fn size_type_count(&self) -> usize {
        self.size_histogram.len()
    }

    /// Count of terminated tasks across the trace.
    pub fn terminated_tasks(&self) -> usize {
        self.status_histogram
            .get(Status::Terminated.as_str())
            .copied()
            .unwrap_or(0)
    }

    /// Multi-line human-readable rendering for reports.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "jobs:             {}", self.total_jobs).unwrap();
        writeln!(
            s,
            "dependency jobs:  {} ({:.1} %)",
            self.dag_jobs,
            100.0 * self.dag_fraction
        )
        .unwrap();
        writeln!(
            s,
            "dep resource use: {:.1} % CPU, {:.1} % memory",
            100.0 * self.dag_cpu_share,
            100.0 * self.dag_mem_share
        )
        .unwrap();
        writeln!(s, "terminated jobs:  {}", self.terminated_jobs).unwrap();
        writeln!(s, "size types:       {}", self.size_type_count()).unwrap();
        let (p50, p90, p99) = self.completion_percentiles;
        writeln!(s, "DAG job JCT:      p50 {p50}s, p90 {p90}s, p99 {p99}s").unwrap();
        s
    }
}

/// The per-job quantities [`StatsAccumulator`] folds — everything
/// [`TraceStats`] needs from one job, decoupled from how the job is stored
/// (heap [`Job`] or a columnar store view).
#[derive(Debug, Clone, PartialEq)]
pub struct JobFacts {
    /// [`Job::planned_cpu_volume`].
    pub cpu_volume: f64,
    /// [`Job::planned_mem_volume`].
    pub mem_volume: f64,
    /// [`Job::is_dag_job`].
    pub is_dag: bool,
    /// [`Job::size`].
    pub size: usize,
    /// [`Job::fully_terminated`].
    pub fully_terminated: bool,
    /// [`Job::completion_time`].
    pub completion: Option<i64>,
    /// Task count per status, indexed per [`Status::index`].
    pub status_counts: [usize; Status::ALL.len()],
}

impl JobFacts {
    /// Derive the facts from a materialized [`Job`].
    pub fn of_job(job: &Job) -> JobFacts {
        let mut status_counts = [0usize; Status::ALL.len()];
        for t in &job.tasks {
            status_counts[t.status.index()] += 1;
        }
        JobFacts {
            cpu_volume: job.planned_cpu_volume(),
            mem_volume: job.planned_mem_volume(),
            is_dag: job.is_dag_job(),
            size: job.size(),
            fully_terminated: job.fully_terminated(),
            completion: job.completion_time(),
            status_counts,
        }
    }
}

/// Incremental, revisable builder for [`TraceStats`].
///
/// Jobs are folded in one at a time ([`StatsAccumulator::add_job`] /
/// [`StatsAccumulator::add_facts`]) and can later be *retracted*
/// ([`StatsAccumulator::remove_facts`]) when a streamed job is revised —
/// out-of-order straggler rows merged in, or a quarantine verdict dropping
/// the job. Resource volumes accumulate through [`ExactSum`], so the final
/// [`TraceStats`] depends only on the multiset of surviving jobs, never on
/// fold order: `compute` over a batch [`JobSet`] and a streamed fold over
/// the same jobs agree bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct StatsAccumulator {
    jobs: usize,
    dag_jobs: usize,
    terminated_jobs: usize,
    /// DAG-job size histogram, indexed directly by size for the common
    /// small sizes (grown on demand, never past [`SIZE_INLINE`]); outliers
    /// spill to the hash map. A plain array increment is the difference
    /// between ~2 ns and a ~50 ns map probe once per closed job.
    size_small: Vec<usize>,
    size_spill: IntMap<usize>,
    status_counts: [usize; Status::ALL.len()],
    /// Completion times (seconds) of terminated DAG jobs, appended raw and
    /// aggregated once in [`StatsAccumulator::finish`] — the scan hot loop
    /// pays a `Vec::push`, not a map update. Retractions append to the
    /// removed lists and are subtracted at finalize, preserving the
    /// "multiset of surviving jobs" semantics exactly. Values are stored as
    /// `u32` — a completion is `end - start` with `end >= start`, so it is
    /// never negative, and 2^32 seconds is 136 years — with an `i64` spill
    /// for anything that doesn't fit. At 4M jobs the narrow lists (plus
    /// their finalize-time sort copies) are what keeps peak RSS inside the
    /// quarter-of-raw budget.
    completions_added: Vec<u32>,
    completions_added_big: Vec<i64>,
    completions_removed: Vec<u32>,
    completions_removed_big: Vec<i64>,
    /// Resource volumes, partitioned by DAG membership rather than kept as
    /// (all, dag) pairs: each job then touches exactly two [`ExactSum`]s
    /// instead of up to four, and the all-jobs totals come from an exact
    /// partials merge in [`StatsAccumulator::finish`]. The `add` walk over
    /// the partials list is the single hottest instruction sequence in the
    /// streaming fold, so shaving ~one add per DAG job is measurable.
    cpu_other: ExactSum,
    cpu_dag: ExactSum,
    mem_other: ExactSum,
    mem_dag: ExactSum,
}

/// Largest job size tracked in [`StatsAccumulator::size_small`].
const SIZE_INLINE: usize = 1024;

impl StatsAccumulator {
    /// Empty accumulator.
    pub fn new() -> StatsAccumulator {
        StatsAccumulator::default()
    }

    /// Number of jobs currently folded in.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Fold one job in.
    pub fn add_job(&mut self, job: &Job) {
        self.add_facts(&JobFacts::of_job(job));
    }

    /// Fold one job's facts in.
    pub fn add_facts(&mut self, f: &JobFacts) {
        self.jobs += 1;
        if f.is_dag {
            self.dag_jobs += 1;
            self.cpu_dag.add(f.cpu_volume);
            self.mem_dag.add(f.mem_volume);
            if f.size < SIZE_INLINE {
                if self.size_small.len() <= f.size {
                    self.size_small.resize(f.size + 1, 0);
                }
                self.size_small[f.size] += 1;
            } else {
                *self.size_spill.entry(f.size).or_insert(0) += 1;
            }
        } else {
            self.cpu_other.add(f.cpu_volume);
            self.mem_other.add(f.mem_volume);
        }
        if f.fully_terminated {
            self.terminated_jobs += 1;
            if f.is_dag {
                if let Some(ct) = f.completion {
                    match u32::try_from(ct) {
                        Ok(v) => self.completions_added.push(v),
                        Err(_) => self.completions_added_big.push(ct),
                    }
                }
            }
        }
        for (slot, &c) in self.status_counts.iter_mut().zip(&f.status_counts) {
            *slot += c;
        }
    }

    /// Exact inverse of [`StatsAccumulator::add_facts`] for the same facts.
    pub fn remove_facts(&mut self, f: &JobFacts) {
        self.jobs -= 1;
        if f.is_dag {
            self.dag_jobs -= 1;
            self.cpu_dag.sub(f.cpu_volume);
            self.mem_dag.sub(f.mem_volume);
            if f.size < SIZE_INLINE {
                match self.size_small.get_mut(f.size) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => panic!("retracting a job that was never added"),
                }
            } else {
                Self::decrement(&mut self.size_spill, f.size);
            }
        } else {
            self.cpu_other.sub(f.cpu_volume);
            self.mem_other.sub(f.mem_volume);
        }
        if f.fully_terminated {
            self.terminated_jobs -= 1;
            if f.is_dag {
                if let Some(ct) = f.completion {
                    match u32::try_from(ct) {
                        Ok(v) => self.completions_removed.push(v),
                        Err(_) => self.completions_removed_big.push(ct),
                    }
                }
            }
        }
        for (slot, &c) in self.status_counts.iter_mut().zip(&f.status_counts) {
            *slot -= c;
        }
    }

    fn decrement<K: Eq + std::hash::Hash>(map: &mut IntMap<K>, key: K) {
        match map.get_mut(&key) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                map.remove(&key);
            }
            None => panic!("retracting a job that was never added"),
        }
    }

    /// Finalize into [`TraceStats`].
    pub fn finish(&self) -> TraceStats {
        let mut stats = TraceStats {
            total_jobs: self.jobs,
            dag_jobs: self.dag_jobs,
            dag_fraction: 0.0,
            dag_cpu_share: 0.0,
            dag_mem_share: 0.0,
            size_histogram: self
                .size_small
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(s, &c)| (s, c))
                .chain(self.size_spill.iter().map(|(&s, &c)| (s, c)))
                .collect(),
            status_histogram: BTreeMap::new(),
            terminated_jobs: self.terminated_jobs,
            completion_percentiles: (0, 0, 0),
        };
        for s in Status::ALL {
            let c = self.status_counts[s.index()];
            if c > 0 {
                stats.status_histogram.insert(s.as_str().to_string(), c);
            }
        }
        if stats.total_jobs > 0 {
            stats.dag_fraction = stats.dag_jobs as f64 / stats.total_jobs as f64;
        }
        // Exact-merge the DAG / non-DAG partitions: `value()` of the merge
        // is the correctly rounded all-jobs total, bit-identical to a
        // single accumulator fed every job.
        let cpu_all = self.cpu_other.merged(&self.cpu_dag).value();
        let mem_all = self.mem_other.merged(&self.mem_dag).value();
        if cpu_all > 0.0 {
            stats.dag_cpu_share = self.cpu_dag.value() / cpu_all;
        }
        if mem_all > 0.0 {
            stats.dag_mem_share = self.mem_dag.value() / mem_all;
        }
        // Aggregate the raw completion lists once, here: sort the additions,
        // subtract the (sorted) retractions with a merge walk, and
        // rank-select directly from the surviving sorted multiset — exactly
        // the order statistics of the surviving jobs, independent of the
        // sequence of adds and retractions. The narrow and spill lists are
        // reduced separately; the spill is all but always empty, and when
        // it isn't, a merged `i64` list restores a single sorted view.
        let small = Self::surviving(&self.completions_added, &self.completions_removed);
        let big = Self::surviving(&self.completions_added_big, &self.completions_removed_big);
        let n = small.len() + big.len();
        if n > 0 {
            let merged: Vec<i64>;
            let pick: Box<dyn Fn(usize) -> i64> = if big.is_empty() {
                Box::new(|rank| i64::from(small[rank - 1]))
            } else {
                let mut m: Vec<i64> = small.iter().map(|&v| i64::from(v)).collect();
                m.extend_from_slice(&big);
                m.sort_unstable();
                merged = m;
                Box::new(move |rank| merged[rank - 1])
            };
            let rank_of = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
            stats.completion_percentiles = (
                pick(rank_of(0.50)),
                pick(rank_of(0.90)),
                pick(rank_of(0.99)),
            );
        }
        stats
    }

    /// Sorted multiset difference `added - removed`; panics if `removed`
    /// is not a sub-multiset of `added`.
    fn surviving<T: Ord + Copy>(added: &[T], removed: &[T]) -> Vec<T> {
        let mut sorted = added.to_vec();
        sorted.sort_unstable();
        if removed.is_empty() {
            return sorted;
        }
        let mut rem = removed.to_vec();
        rem.sort_unstable();
        let mut out = Vec::with_capacity(sorted.len().saturating_sub(rem.len()));
        let mut r = 0usize;
        for &ct in &sorted {
            if r < rem.len() && rem[r] == ct {
                r += 1;
            } else {
                out.push(ct);
            }
        }
        assert_eq!(r, rem.len(), "retracting a job that was never added");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GeneratorConfig, TraceGenerator};
    use crate::schema::{Status, TaskRecord};
    use crate::Job;

    #[test]
    fn empty_set() {
        let s = TraceStats::compute(&JobSet::default());
        assert_eq!(s.total_jobs, 0);
        assert_eq!(s.dag_fraction, 0.0);
        assert_eq!(s.size_type_count(), 0);
    }

    #[test]
    fn counts_on_hand_built_set() {
        let dag = Job {
            name: "j_1".into(),
            tasks: vec![
                TaskRecord {
                    task_name: "M1".into(),
                    instance_num: 10,
                    job_name: "j_1".into(),
                    task_type: "1".into(),
                    status: Status::Terminated,
                    start_time: 1,
                    end_time: 2,
                    plan_cpu: 100.0,
                    plan_mem: 1.0,
                },
                TaskRecord {
                    task_name: "R2_1".into(),
                    instance_num: 5,
                    job_name: "j_1".into(),
                    task_type: "1".into(),
                    status: Status::Terminated,
                    start_time: 2,
                    end_time: 3,
                    plan_cpu: 100.0,
                    plan_mem: 1.0,
                },
            ],
        };
        let indep = Job {
            name: "j_2".into(),
            tasks: vec![TaskRecord {
                task_name: "task_x".into(),
                instance_num: 5,
                job_name: "j_2".into(),
                task_type: "1".into(),
                status: Status::Failed,
                start_time: 1,
                end_time: 0,
                plan_cpu: 100.0,
                plan_mem: 1.0,
            }],
        };
        let s = TraceStats::compute(&JobSet::from_jobs(vec![dag, indep]));
        assert_eq!(s.total_jobs, 2);
        assert_eq!(s.dag_jobs, 1);
        assert_eq!(s.dag_fraction, 0.5);
        // dag cpu = 15 * 100, indep = 5 * 100.
        assert!((s.dag_cpu_share - 0.75).abs() < 1e-12);
        assert_eq!(s.size_histogram.get(&2), Some(&1));
        assert_eq!(s.terminated_jobs, 1);
        assert_eq!(s.terminated_tasks(), 2);
        assert_eq!(s.status_histogram.get("Failed"), Some(&1));
    }

    #[test]
    fn completion_percentiles_ordered() {
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs: 500,
            seed: 4,
            ..Default::default()
        })
        .generate();
        let s = TraceStats::compute(&trace.job_set());
        let (p50, p90, p99) = s.completion_percentiles;
        assert!(p50 > 0, "p50 {p50}");
        assert!(p50 <= p90 && p90 <= p99);
        assert!(s.render().contains("DAG job JCT"));
    }

    #[test]
    fn accumulator_retraction_matches_fresh_compute() {
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs: 300,
            seed: 9,
            ..Default::default()
        })
        .generate();
        let set = trace.job_set();
        // Fold everything, then retract every third job; the result must be
        // bit-identical to computing over the survivors from scratch.
        let mut acc = StatsAccumulator::new();
        for job in set.jobs() {
            acc.add_job(job);
        }
        let mut survivors = Vec::new();
        for (i, job) in set.jobs().iter().enumerate() {
            if i % 3 == 0 {
                acc.remove_facts(&JobFacts::of_job(job));
            } else {
                survivors.push(job.clone());
            }
        }
        let direct = TraceStats::compute(&JobSet::from_jobs(survivors));
        let folded = acc.finish();
        assert_eq!(folded, direct);
        assert_eq!(
            folded.dag_cpu_share.to_bits(),
            direct.dag_cpu_share.to_bits()
        );
    }

    #[test]
    fn completion_spill_handles_values_past_u32() {
        // Completions wider than 32 bits land in the spill list; the
        // percentile view must still be a single sorted multiset, and
        // retracting a spilled value must come out of the spill list.
        let facts_with = |completion: i64| JobFacts {
            cpu_volume: 1.0,
            mem_volume: 1.0,
            is_dag: true,
            size: 2,
            fully_terminated: true,
            completion: Some(completion),
            status_counts: [0; Status::ALL.len()],
        };
        let huge = i64::from(u32::MAX) + 5;
        let mut acc = StatsAccumulator::new();
        for ct in [10, 20, huge, huge + 1] {
            acc.add_facts(&facts_with(ct));
        }
        acc.remove_facts(&facts_with(huge + 1));
        let s = acc.finish();
        // Survivors: {10, 20, huge} → p50 = 20, p90 = p99 = huge.
        assert_eq!(s.completion_percentiles, (20, huge, huge));
    }

    #[test]
    fn synthetic_trace_reproduces_paper_headlines() {
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs: 3_000,
            seed: 42,
            ..Default::default()
        })
        .generate();
        let s = TraceStats::compute(&trace.job_set());
        assert!(
            (0.42..=0.58).contains(&s.dag_fraction),
            "dag fraction {}",
            s.dag_fraction
        );
        assert!(
            (0.60..=0.92).contains(&s.dag_cpu_share),
            "dag cpu share {}",
            s.dag_cpu_share
        );
        // All 30 possible DAG sizes (2..=31) should be represented in a
        // 3000-job trace — certainly at least the paper's 17 size types.
        assert!(
            s.size_type_count() >= 17,
            "size types {}",
            s.size_type_count()
        );
        let rendered = s.render();
        assert!(rendered.contains("dependency jobs"));
    }
}
