//! Trace-replay harness: one workload, many policies, one table.
//!
//! This is the subsystem that closes the paper's loop — the group model
//! learned offline feeds dispatch policies (via
//! [`GroupPredictor`](crate::profile::GroupPredictor)) and the replay
//! runs them against the oracles over the *same* jobs at their trace
//! arrival times, so "does topology-informed scheduling help?" becomes a
//! number: regret versus the oracle that knew everything.

use std::io::{Read, Seek};

use crate::metrics::SimMetrics;
use crate::policy::Policy;
use crate::sim::{SimConfig, Simulator};
use crate::workload::SimJob;
use dagscope_faults::failpoint;
use dagscope_graph::ShapeTable;
use dagscope_trace::stream::StreamedTrace;

/// A replayable workload: simulation jobs in deterministic
/// `(arrival, name)` order, plus how many eligible jobs could not be
/// converted (malformed DAGs — none on a healthy trace).
#[derive(Debug, Clone)]
pub struct ReplayWorkload {
    /// Jobs ready for [`replay`].
    pub jobs: Vec<SimJob>,
    /// Eligible jobs skipped because their tasks did not form a DAG.
    pub skipped: usize,
}

/// Build simulation jobs from the first `max_jobs` filter-eligible jobs
/// of a streamed store, each arriving at its earliest task start. The
/// store's columnar metadata stays resident; the jobs' task rows are
/// replayed a bounded row table at a time, so a 100k-job replay never
/// holds the raw trace in memory. Jobs are keyed by task names through
/// one [`ShapeTable`], so each distinct list is built once and its jobs
/// share one shape.
pub fn workload_from_stream<R: Read + Seek>(
    store: &mut StreamedTrace<R>,
    max_jobs: usize,
) -> Result<ReplayWorkload, String> {
    let mut jobs = Vec::with_capacity(store.eligible_count().min(max_jobs));
    let mut skipped = 0usize;
    let mut shapes = ShapeTable::new();
    for table in store.replay_eligible(max_jobs) {
        let table = table.map_err(|e| format!("replaying eligible jobs: {e}"))?;
        for s in 0..table.len() {
            let job = table.job(s);
            let id = shapes.intern(&job);
            match shapes.get(id) {
                Ok(entry) => jobs.push(SimJob::from_dag(
                    job.name().to_string(),
                    job.start_time().unwrap_or(0),
                    entry.raw(job.name().to_string(), &job),
                )),
                Err(_) => skipped += 1,
            }
        }
    }
    jobs.sort_by(|a, b| a.arrival.cmp(&b.arrival).then_with(|| a.name.cmp(&b.name)));
    Ok(ReplayWorkload { jobs, skipped })
}

/// Build a replay workload directly from materialized trace jobs (the
/// batch path), with the same ordering contract and the same shape
/// sharing as [`workload_from_stream`].
pub fn workload_from_jobs<'a, I: IntoIterator<Item = &'a dagscope_trace::Job>>(
    jobs: I,
    max_jobs: usize,
) -> ReplayWorkload {
    let mut out = Vec::new();
    let mut skipped = 0usize;
    let mut shapes = ShapeTable::new();
    for job in jobs {
        if out.len() >= max_jobs {
            break;
        }
        let rows = job.tasks.as_slice();
        let id = shapes.intern(rows);
        match shapes.get(id) {
            Ok(entry) => out.push(SimJob::from_dag(
                job.name.clone(),
                job.start_time().unwrap_or(0),
                entry.raw(job.name.clone(), rows),
            )),
            Err(_) => skipped += 1,
        }
    }
    out.sort_by(|a, b| a.arrival.cmp(&b.arrival).then_with(|| a.name.cmp(&b.name)));
    ReplayWorkload { jobs: out, skipped }
}

/// One policy's replay result, with regret against whichever oracles ran
/// in the same report.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// The run's metrics.
    pub metrics: SimMetrics,
    /// Relative mean-JCT excess over [`Policy::SjfOracle`]
    /// (`(mean − oracle) / oracle`), when that oracle was replayed.
    pub regret_vs_sjf: Option<f64>,
    /// Same, against [`Policy::CriticalPathOracle`].
    pub regret_vs_cp: Option<f64>,
}

/// All policies' outcomes over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// One outcome per requested policy, input order preserved.
    pub outcomes: Vec<PolicyOutcome>,
}

impl ReplayReport {
    /// Outcome of the policy labelled `label`, if it was replayed.
    pub fn get(&self, label: &str) -> Option<&PolicyOutcome> {
        self.outcomes.iter().find(|o| o.metrics.policy == label)
    }

    /// The policy-comparison table: one row per policy with JCT
    /// percentiles, makespan, utilization and regret columns.
    pub fn render_table(&self) -> String {
        let mut s = String::from(
            "policy                  jobs      mean JCT      p50      p95      p99   makespan   util  unknown  vs sjf   vs cp\n",
        );
        for o in &self.outcomes {
            let m = &o.metrics;
            let fmt_regret = |r: Option<f64>| match r {
                Some(v) => format!("{:>+6.1}%", 100.0 * v),
                None => "      -".to_string(),
            };
            s.push_str(&format!(
                "{:<22} {:>6} {:>11.1}s {:>7}s {:>7}s {:>7}s {:>9}s {:>5.1}% {:>8}  {}  {}\n",
                m.policy,
                m.jobs,
                m.mean_jct,
                m.p50_jct,
                m.p95_jct,
                m.p99_jct,
                m.makespan,
                100.0 * m.mean_utilization,
                m.unknown_jobs,
                fmt_regret(o.regret_vs_sjf),
                fmt_regret(o.regret_vs_cp),
            ));
        }
        s
    }
}

/// Replay `jobs` under every policy in `policies` on the same cluster
/// and compute regret against the oracle rows present in the set.
/// Deterministic: identical inputs produce identical reports.
pub fn replay(
    cfg: &SimConfig,
    jobs: &[SimJob],
    policies: &[Policy],
) -> Result<ReplayReport, String> {
    let mut all: Vec<SimMetrics> = Vec::with_capacity(policies.len());
    for policy in policies {
        // Chaos sites, one hit per policy: a stalled replay (`delay`)
        // must not change the report; an injected abort (`return`)
        // surfaces as the same error a failed simulation would.
        failpoint!("sched.replay.stall");
        failpoint!("sched.replay.abort", |_arg: Option<String>| Err(
            "injected replay abort".to_string()
        ));
        let metrics = Simulator::new(cfg.clone(), policy.clone()).run(jobs)?;
        all.push(metrics);
    }
    let oracle_mean = |label: &str| {
        all.iter()
            .find(|m| m.policy == label)
            .map(|m| m.mean_jct)
            .filter(|&v| v > 0.0)
    };
    let sjf = oracle_mean("sjf-oracle");
    let cp = oracle_mean("critical-path-oracle");
    let outcomes = all
        .into_iter()
        .map(|metrics| {
            let regret = |oracle: Option<f64>| oracle.map(|o| (metrics.mean_jct - o) / o);
            PolicyOutcome {
                regret_vs_sjf: regret(sjf),
                regret_vs_cp: regret(cp),
                metrics,
            }
        })
        .collect();
    Ok(ReplayReport { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use dagscope_trace::csv::format_task_line;
    use dagscope_trace::filter::SampleCriteria;
    use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
    use dagscope_trace::ReadPolicy;
    use std::io::Cursor;

    fn trace_csv(jobs: usize, seed: u64) -> String {
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs,
            seed,
            ..Default::default()
        })
        .generate();
        let mut csv = String::new();
        for t in &trace.tasks {
            csv.push_str(&format_task_line(t));
            csv.push('\n');
        }
        csv
    }

    fn streamed(csv: &str) -> StreamedTrace<Cursor<&[u8]>> {
        StreamedTrace::scan(
            Cursor::new(csv.as_bytes()),
            &ReadPolicy::Strict,
            &SampleCriteria::default(),
        )
        .unwrap()
    }

    fn replay_cfg() -> SimConfig {
        SimConfig {
            cluster: ClusterConfig {
                machines: 8,
                cpu_per_machine: 9_600.0,
                mem_per_machine: 48.0,
            },
            arrival_compression: 4_000.0,
            online_load: None,
            evict_for_online: false,
        }
    }

    #[test]
    fn workload_from_stream_materializes_eligible_jobs() {
        let csv = trace_csv(300, 7);
        let mut store = streamed(&csv);
        let eligible = store.eligible_count();
        assert!(eligible > 0);
        let w = workload_from_stream(&mut store, usize::MAX).unwrap();
        assert_eq!(w.jobs.len() + w.skipped, eligible);
        assert_eq!(w.skipped, 0, "eligible jobs always build DAGs");
        // Deterministic order: sorted by (arrival, name).
        for pair in w.jobs.windows(2) {
            assert!(
                (pair[0].arrival, &pair[0].name) <= (pair[1].arrival, &pair[1].name),
                "workload must be arrival-ordered"
            );
        }
        // The cap is honored.
        let mut store2 = streamed(&csv);
        let capped = workload_from_stream(&mut store2, 5).unwrap();
        assert_eq!(capped.jobs.len(), 5);
    }

    #[test]
    fn stream_and_batch_workloads_agree() {
        let csv = trace_csv(200, 11);
        let mut store = streamed(&csv);
        let via_stream = workload_from_stream(&mut store, usize::MAX).unwrap();
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs: 200,
            seed: 11,
            ..Default::default()
        })
        .generate();
        let set = trace.job_set();
        let eligible = SampleCriteria::default().filter(&set);
        let via_batch = workload_from_jobs(eligible.iter().copied(), usize::MAX);
        assert_eq!(via_stream.jobs, via_batch.jobs);
    }

    #[test]
    fn stream_and_batch_workloads_agree_with_stragglers_and_bad_rows() {
        // ~3,000 generated jobs (more eligible jobs than one replay chunk
        // holds). Every 7th multi-row job's first row moves to the end of
        // the file, so the scan closes the job and then meets a straggler.
        // Bad rows implicate every 11th job: right after its block (the
        // open job is dropped), or at the end of the file (the closed job,
        // straggler-split or not, is retracted at finalize). A last job
        // whose task names parse but name a missing parent is eligible
        // and cannot build a DAG.
        let csv = trace_csv(3_000, 13);
        let mut blocks: Vec<(String, Vec<&str>)> = Vec::new();
        for line in csv.lines() {
            let job = line.split(',').nth(2).unwrap();
            match blocks.last_mut() {
                Some((name, rows)) if name == job => rows.push(line),
                _ => blocks.push((job.to_string(), vec![line])),
            }
        }
        let (mut doc, mut tail) = (String::new(), String::new());
        for (i, (name, rows)) in blocks.iter().enumerate() {
            let moved = i % 7 == 3 && rows.len() > 1;
            for row in &rows[usize::from(moved)..] {
                doc.push_str(row);
                doc.push('\n');
            }
            if moved {
                tail.push_str(rows[0]);
                tail.push('\n');
            }
            if i % 11 == 5 {
                let bad = format!("M1,x,{name},1,Terminated,1,2,3,4\n");
                if i % 2 == 0 {
                    doc.push_str(&bad);
                } else {
                    tail.push_str(&bad);
                }
            }
        }
        doc.push_str(&tail);
        doc.push_str("M1,1,j_9999999,1,Terminated,100,200,100,0.5\n");
        doc.push_str("R2_9,1,j_9999999,1,Terminated,200,300,100,0.5\n");

        let policy = ReadPolicy::Quarantine { max_bad: 1_000 };
        let criteria = SampleCriteria::default();
        let mut store = StreamedTrace::scan(Cursor::new(doc.as_bytes()), &policy, &criteria)
            .expect("quarantine absorbs the bad rows");
        assert!(store.eligible_count() > 1_024, "{}", store.eligible_count());
        assert!(store.suspects().len() > 200);
        let via_stream = workload_from_stream(&mut store, usize::MAX).unwrap();

        let (rows, q) = dagscope_trace::csv::read_tasks_with_policy(doc.as_bytes(), &policy)
            .expect("quarantine absorbs the bad rows");
        let suspects = q.suspect_jobs();
        let set = dagscope_trace::JobSet::from_tasks(
            rows.into_iter()
                .filter(|t| !suspects.contains_key(t.job_name.as_str())),
        );
        let via_batch = workload_from_jobs(criteria.filter(&set), usize::MAX);
        assert_eq!(via_stream.skipped, 1);
        assert_eq!(via_batch.skipped, 1);
        assert_eq!(via_stream.jobs, via_batch.jobs);
        assert_eq!(
            via_stream.jobs.len() + 1,
            store.eligible_count(),
            "every other eligible job replays"
        );
    }

    #[test]
    fn replay_compares_policies_and_computes_regret() {
        let csv = trace_csv(400, 42);
        let mut store = streamed(&csv);
        let w = workload_from_stream(&mut store, usize::MAX).unwrap();
        let report = replay(
            &replay_cfg(),
            &w.jobs,
            &[Policy::Fifo, Policy::SjfOracle, Policy::CriticalPathOracle],
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 3);
        let fifo = report.get("fifo").unwrap();
        let sjf = report.get("sjf-oracle").unwrap();
        // The oracle's regret against itself is exactly zero; FIFO's is
        // non-negative (SJF minimizes mean JCT among static orders here).
        assert_eq!(sjf.regret_vs_sjf, Some(0.0));
        assert!(fifo.regret_vs_sjf.unwrap() >= 0.0);
        // Every policy finishes the whole workload.
        for o in &report.outcomes {
            assert_eq!(o.metrics.jobs, w.jobs.len());
            assert!(o.metrics.makespan > 0);
        }
        let table = report.render_table();
        assert!(table.contains("fifo"));
        assert!(table.contains("sjf-oracle"));
        assert!(table.contains("vs sjf"));
    }

    #[test]
    fn replay_is_deterministic() {
        let csv = trace_csv(300, 9);
        let mut store = streamed(&csv);
        let w = workload_from_stream(&mut store, usize::MAX).unwrap();
        let policies = [Policy::Fifo, Policy::SjfOracle];
        let a = replay(&replay_cfg(), &w.jobs, &policies).unwrap();
        let b = replay(&replay_cfg(), &w.jobs, &policies).unwrap();
        assert_eq!(a, b);
    }
}
