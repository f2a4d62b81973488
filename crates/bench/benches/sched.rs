//! Scheduler-in-the-loop replay cost and policy quality: FIFO vs the
//! perfect-knowledge oracles vs the group-model-informed policies, over
//! trace replays of 10k and 100k jobs at their (compressed) arrival
//! times.
//!
//! Each size fits the offline pipeline on a stratified sample of the
//! same synthetic trace, builds per-group work/critical-path profiles,
//! classifies every replayed job through the frozen model (the exact
//! embed-then-classify chain `/v1/advise` runs online), and replays the
//! full policy set on one cluster. After the Criterion pass the bench
//! writes `BENCH_sched.json` at the repository root.
//!
//! Two claims are asserted in-bench on every run (so CI's capped smoke
//! checks them too):
//!  - determinism: two replays of the same workload produce identical
//!    reports, field for field;
//!  - the group-informed policy's median JCT never loses to FIFO's.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dagscope_core::{Pipeline, PipelineConfig};
use dagscope_sched::{
    replay, workload_from_jobs, ClusterConfig, GroupPredictor, Policy, ReplayReport, SimConfig,
    SimJob, DEFAULT_MIN_CONFIDENCE,
};
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};

/// Replayed-job counts swept; `SCHED_BENCH_MAX_JOBS` caps the sweep (CI
/// smoke sets a few hundred).
const SIZES: [usize; 2] = [10_000, 100_000];

/// The generator's filter-eligible fraction is ~45%, so synthesize 3x
/// the replay target to guarantee the workload fills up.
const GEN_FACTOR: usize = 3;

fn max_jobs() -> usize {
    std::env::var("SCHED_BENCH_MAX_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

/// One size's prepared inputs: the arrival-ordered workload and the
/// group predictor fitted on the same trace's stratified sample.
struct Setup {
    jobs: Vec<SimJob>,
    predictor: Arc<GroupPredictor>,
}

fn setup(replay_jobs: usize) -> Setup {
    let gen_jobs = replay_jobs * GEN_FACTOR;
    let report = Pipeline::new(PipelineConfig {
        jobs: gen_jobs,
        seed: 42,
        ..Default::default()
    })
    .run()
    .expect("pipeline succeeds");

    // The generator is a pure function of (jobs, seed): this is the
    // exact trace the pipeline characterized.
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: gen_jobs,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let set = trace.job_set();
    let eligible = SampleCriteria::default().filter(&set);
    let w = workload_from_jobs(eligible.iter().copied(), replay_jobs);
    assert_eq!(w.skipped, 0, "eligible jobs always build DAGs");

    let predictor = Arc::new(report.group_predictor(&w.jobs));
    Setup {
        jobs: w.jobs,
        predictor,
    }
}

/// Weak-scaling cluster: machine count grows with the replay size so
/// jobs-per-machine contention (and so scheduling pressure) stays
/// comparable across tiers.
fn sim_cfg(replay_jobs: usize) -> SimConfig {
    SimConfig {
        cluster: ClusterConfig {
            machines: (replay_jobs / 208).max(48),
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        },
        arrival_compression: 2_000.0,
        online_load: None,
        evict_for_online: false,
    }
}

fn policy_set(predictor: &Arc<GroupPredictor>) -> Vec<Policy> {
    vec![
        Policy::Fifo,
        Policy::GroupSjf {
            predictor: Arc::clone(predictor),
        },
        Policy::GroupCriticalPath {
            predictor: Arc::clone(predictor),
        },
        Policy::GroupHybrid {
            predictor: Arc::clone(predictor),
            min_confidence: DEFAULT_MIN_CONFIDENCE,
        },
        Policy::SjfOracle,
        Policy::CriticalPathOracle,
    ]
}

struct SizeResult {
    jobs: usize,
    machines: usize,
    compression: f64,
    setup_secs: f64,
    replay_secs: f64,
    report: ReplayReport,
}

fn measure_size(replay_jobs: usize) -> SizeResult {
    let clock = Instant::now();
    let s = setup(replay_jobs);
    let setup_secs = clock.elapsed().as_secs_f64();
    let policies = policy_set(&s.predictor);
    let cfg = sim_cfg(replay_jobs);

    let clock = Instant::now();
    let report = replay(&cfg, &s.jobs, &policies).expect("replay succeeds");
    let replay_secs = clock.elapsed().as_secs_f64();

    // Determinism: a second replay of the same workload is identical,
    // field for field.
    let again = replay(&cfg, &s.jobs, &policies).expect("replay succeeds");
    assert_eq!(report, again, "replay must be deterministic");

    // The group-informed policy's median JCT never loses to FIFO's —
    // the paper's premise (topology predicts cost) in one inequality.
    let fifo = report.get("fifo").expect("fifo replayed");
    let group = report.get("group-sjf").expect("group-sjf replayed");
    assert!(
        group.metrics.p50_jct <= fifo.metrics.p50_jct,
        "group-sjf p50 {} must not exceed fifo p50 {}",
        group.metrics.p50_jct,
        fifo.metrics.p50_jct
    );

    SizeResult {
        jobs: s.jobs.len(),
        machines: cfg.cluster.machines,
        compression: cfg.arrival_compression,
        setup_secs,
        replay_secs,
        report,
    }
}

fn write_bench_json(results: &[SizeResult]) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sizes = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            sizes.push_str(",\n");
        }
        let mut rows = String::new();
        for (j, o) in r.report.outcomes.iter().enumerate() {
            if j > 0 {
                rows.push_str(",\n");
            }
            let m = &o.metrics;
            let regret = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.6}"));
            write!(
                rows,
                "        {{\"policy\": \"{}\", \"mean_jct\": {:.3}, \"p50_jct\": {}, \
                 \"p95_jct\": {}, \"p99_jct\": {}, \"makespan\": {}, \"utilization\": {:.6}, \
                 \"unknown_jobs\": {}, \"regret_vs_sjf\": {}, \"regret_vs_cp\": {}}}",
                m.policy,
                m.mean_jct,
                m.p50_jct,
                m.p95_jct,
                m.p99_jct,
                m.makespan,
                m.mean_utilization,
                m.unknown_jobs,
                regret(o.regret_vs_sjf),
                regret(o.regret_vs_cp),
            )
            .unwrap();
        }
        write!(
            sizes,
            "    {{\n      \"jobs\": {}, \"machines\": {}, \"arrival_compression\": {}, \
             \"setup_secs\": {:.3}, \"replay_secs\": {:.3}, \
             \"deterministic\": true,\n      \"policies\": [\n{}\n      ]\n    }}",
            r.jobs, r.machines, r.compression, r.setup_secs, r.replay_secs, rows,
        )
        .unwrap();
    }
    let json = format!(
        "{{\n  \"bench\": \"sched_replay\",\n  \"host_parallelism\": {host},\n  \
         \"sizes\": [\n{sizes}\n  ],\n  \
         \"note\": \"machines scale with replay size (weak scaling: comparable \
         jobs-per-machine contention at every tier). replay_secs covers all six policies \
         over one workload; deterministic=true \
         is asserted in-bench by running each replay twice and comparing reports field for \
         field. setup_secs covers the offline pipeline fit, per-group profile construction, \
         and classifying every replayed job through the frozen model. The bench also asserts \
         group-sjf p50 JCT <= fifo p50 JCT at every size. regret columns are relative \
         mean-JCT excess over the perfect-knowledge oracles\"\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn bench_sched(c: &mut Criterion) {
    let cap = max_jobs();

    // Criterion sweep at the smallest (possibly capped) scale: a
    // FIFO-only replay times the raw simulator (the policy-quality
    // comparison runs once below and lands in the JSON — repeating all
    // six policies per Criterion sample would take tens of minutes).
    let sweep_jobs = SIZES[0].min(cap);
    let s = setup(sweep_jobs);
    let fifo_only = vec![Policy::Fifo];
    let cfg = sim_cfg(sweep_jobs);
    let mut group = c.benchmark_group("sched_replay");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("fifo_replay", s.jobs.len()), |b| {
        b.iter(|| replay(black_box(&cfg), black_box(&s.jobs), black_box(&fifo_only)))
    });
    group.finish();

    let results: Vec<SizeResult> = SIZES
        .iter()
        .map(|&jobs| jobs.min(cap))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(measure_size)
        .collect();
    write_bench_json(&results);
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
