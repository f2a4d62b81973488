//! `replay-2k`: scheduler-in-the-loop replay. Each repetition is a fresh
//! child that sets up (scan, fit the group model on the default 100-job
//! sample, build profiles, materialize the streamed workload, classify
//! every job into a hint) and then replays the workload under `fifo` and
//! `group-critical-path`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dagscope_cluster::GroupModel;
use dagscope_core::{Pipeline, PipelineConfig};
use dagscope_graph::conflate::conflate;
use dagscope_sched::{
    replay, workload_from_stream, ClusterConfig, GroupPredictor, JobHint, Policy, ProfileBuilder,
    ReplayReport, SimConfig, SimJob,
};
use dagscope_wl::KernelCache;

use crate::harness::{crc64, env_num, env_var, peak_rss_mb, write_trace_csv, Recorder, OP};
use crate::{Ctx, Run};

/// The `sched-replay` CLI's default cluster: 48 machines, 2000x arrival
/// compression.
fn sim_config() -> SimConfig {
    SimConfig {
        cluster: ClusterConfig {
            machines: 48,
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        },
        arrival_compression: 2_000.0,
        online_load: None,
        evict_for_online: false,
    }
}

/// Traces a run replays in turn. A replay's cost follows the instances
/// its input holds and the queueing they cause, so it varies by ~20% from
/// one seed's trace to the next (against ~5% between replays of one
/// trace); the median over several inputs varies far less. Input 0 is
/// the `--seed` trace itself.
const INPUTS: u64 = 5;

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::new(ctx.traced);
    let mut inputs = Vec::new();
    for k in 0..INPUTS {
        let seed = ctx.seed ^ (k << 32);
        let path = ctx.work.join(format!("batch_task_{k}.csv"));
        write_trace_csv(&path, ctx.scale.replay_trace_jobs, seed)?;
        inputs.push((seed, path));
    }

    // Every repetition sets up afresh, so set-up is timed once per
    // repetition and `setup_s` is their median. Every input is replayed,
    // and input 0 twice, so every run checks that a replay is
    // deterministic. A traced run replays each input untraced and then
    // traced, so both halves see the same inputs and their difference is
    // the tracing overhead alone.
    let min_ops = if ctx.traced { 2 * INPUTS } else { INPUTS + 1 };
    let mut tables = vec![Vec::new(); INPUTS as usize];
    let mut reports = vec![Vec::new(); INPUTS as usize];
    let start = Instant::now();
    while run.attempted < min_ops || start.elapsed() < ctx.seconds {
        let (input, traced) = if ctx.traced {
            (run.attempted / 2 % INPUTS, run.attempted % 2 == 1)
        } else {
            (run.attempted % INPUTS, false)
        };
        let input = input as usize;
        let (seed, path) = &inputs[input];
        let env = [
            ("DAGBENCH_CSV", path.display().to_string()),
            ("DAGBENCH_SEED", seed.to_string()),
            ("DAGBENCH_REPLAY_JOBS", ctx.scale.replay_jobs.to_string()),
        ];
        let Some(out) = run.repetition("replay", &env, traced)? else {
            continue;
        };
        run.setup_s.push(out.num("setup_ns")? / 1e9);
        let hex = |key| -> Result<u64, String> {
            u64::from_str_radix(out.get(key)?, 16).map_err(|_| format!("bad {key}"))
        };
        tables[input].push(hex("table_crc")?);
        reports[input].push(hex("report_crc")?);
        if out.num("jobs")? as usize != ctx.scale.replay_jobs {
            run.errors.push(format!(
                "replayed {} jobs, not {}",
                out.get("jobs")?,
                ctx.scale.replay_jobs
            ));
        }
        if out.num("unknown_jobs")? != 0.0 {
            run.errors
                .push("a replayed job had no classification hint".to_string());
        }
    }
    // Input 0's table is pinned; on every input, the full report (every
    // field, at full precision) must repeat exactly.
    for (table, report) in tables.iter().zip(&reports) {
        run.check_repeats("replay table crc64", table);
        run.check_repeats("replay report crc64", report);
    }
    if let Some(&first) = tables[0].first() {
        run.check_pin(ctx, "replay table crc64", first);
    }
    Ok(run)
}

/// One repetition: set-up, then one replay per policy.
pub fn child() -> Result<(), String> {
    let path = env_var("DAGBENCH_CSV")?;
    let seed: u64 = env_num("DAGBENCH_SEED")?;
    let replay_jobs: usize = env_num("DAGBENCH_REPLAY_JOBS")?;
    let mut rec = Recorder::new(env_num::<u8>("DAGBENCH_TRACED")? == 1);

    let t0 = Instant::now();
    let setup = rec.open("setup", None);
    let mut streamed = rec.scan(setup, Path::new(&path))?;
    let fit = rec.open("sched.fit", setup);
    let pipeline = Pipeline::new(PipelineConfig {
        seed,
        ..PipelineConfig::default()
    });
    let report = rec.pipeline(fit, &pipeline, &mut streamed)?;
    let k = report.groups.group_count();
    let model = rec.time("cluster.model_fit", fit, || {
        GroupModel::fit(&report.groups.assignments, k, &report.wl_features)
    });
    let cache = rec.time("wl.cache_build", fit, || {
        KernelCache::from_dags(report.config.wl_iterations, report.kernel_dags())
    });
    let profiles = rec.time("sched.profiles", fit, || {
        let mut labels = vec!['?'; k];
        for g in &report.groups.groups {
            labels[g.cluster] = g.label;
        }
        let mut builder = ProfileBuilder::new(k);
        for (i, dag) in report.raw_dags.iter().enumerate() {
            let sim = SimJob::from_dag(dag.name.clone(), 0, dag.clone());
            builder.observe(report.groups.assignments[i], &sim);
        }
        builder.finish(&labels)
    });
    rec.close(fit);

    let workload = rec.time("sched.workload", setup, || {
        workload_from_stream(&mut streamed, replay_jobs)
    })?;
    let predictor = rec.time("sched.hints", setup, || {
        let hints: Vec<JobHint> = dagscope_par::par_map(&workload.jobs, |job| {
            let probe = if report.config.conflate {
                cache.embed(&conflate(&job.dag))
            } else {
                cache.embed(&job.dag)
            };
            let c = model.classify(&probe);
            JobHint {
                cluster: c.cluster,
                confidence: c.confidence,
            }
        });
        let mut predictor = GroupPredictor::new(profiles);
        for (job, hint) in workload.jobs.iter().zip(hints) {
            predictor.insert_hint(job.name.as_str(), hint);
        }
        Arc::new(predictor)
    });
    rec.close(setup);
    let setup_ns = t0.elapsed().as_nanos();

    let policies = [
        Policy::Fifo,
        Policy::GroupCriticalPath {
            predictor: Arc::clone(&predictor),
        },
    ];
    let cfg = sim_config();
    let t1 = Instant::now();
    let op = rec.open(OP, None);
    let mut outcomes = Vec::new();
    for policy in policies {
        let name = format!("sched.replay.{}", policy.label());
        let one = rec.time(&name, op, || replay(&cfg, &workload.jobs, &[policy]))?;
        outcomes.extend(one.outcomes);
    }
    rec.close(op);
    let op_s = t1.elapsed().as_secs_f64();
    let report = ReplayReport { outcomes };

    let tasks: usize = workload.jobs.iter().map(|j| j.tasks.len()).sum();
    let instances: u64 = workload
        .jobs
        .iter()
        .flat_map(|j| &j.tasks)
        .map(|t| u64::from(t.instances))
        .sum();
    rec.count("sched.tasks", tasks as f64);
    rec.count("sched.instances", instances as f64);
    rec.count(
        "sched.jobs_per_s",
        (workload.jobs.len() * report.outcomes.len()) as f64 / op_s,
    );

    println!("setup_ns={setup_ns}");
    println!("op_ns={}", (op_s * 1e9) as u64);
    println!("rss_mb={}", peak_rss_mb());
    println!("table_crc={:016x}", crc64(report.render_table().as_bytes()));
    println!(
        "report_crc={:016x}",
        crc64(format!("{report:?}").as_bytes())
    );
    println!("jobs={}", workload.jobs.len());
    println!(
        "unknown_jobs={}",
        report
            .outcomes
            .iter()
            .map(|o| o.metrics.unknown_jobs)
            .sum::<u64>()
    );
    rec.emit();
    Ok(())
}
