//! `characterize-*`: the offline pipeline over a generated trace file —
//! streamed scan, stratified sample, DAGs, WL embedding, collapsed
//! spectral clustering, `Report::summary()` — one fresh child process per
//! repetition.

use std::path::Path;
use std::time::Instant;

use dagscope_core::{ClusterEngine, Pipeline, PipelineConfig};
use dagscope_trace::{csv, JobSet, ReadPolicy};

use crate::harness::{crc64, env_num, env_var, peak_rss_mb, write_trace_csv, Recorder, OP};
use crate::{Ctx, Run, MIN_OPS, SETUPS, SETUP_BUDGET};

/// Largest trace the batch reader re-reads as an oracle; above it the
/// batch path would hold the whole trace in memory.
const BATCH_ORACLE_MAX: usize = 200_000;

fn config(sample: usize, seed: u64) -> PipelineConfig {
    PipelineConfig {
        sample,
        seed,
        cluster_engine: ClusterEngine::Collapsed,
        ..PipelineConfig::default()
    }
}

pub fn run(ctx: &Ctx, jobs: usize, sample: usize) -> Result<Run, String> {
    let mut run = Run::new(ctx.traced);
    let csv_path = ctx.work.join("batch_task.csv");
    let mut bytes = 0;
    let setups = Instant::now();
    while run.setup_s.len() < SETUPS || setups.elapsed() < SETUP_BUDGET {
        let clock = Instant::now();
        bytes = write_trace_csv(&csv_path, jobs, ctx.seed)?;
        run.setup_s.push(clock.elapsed().as_secs_f64());
    }

    // Traced runs alternate untraced and traced repetitions, so the
    // difference between the two is the tracing overhead.
    let min_ops = if ctx.traced { 2 * MIN_OPS } else { MIN_OPS };
    let mut crcs = Vec::new();
    let start = Instant::now();
    while run.attempted < min_ops as u64 || start.elapsed() < ctx.seconds {
        let traced = ctx.traced && run.attempted % 2 == 1;
        let env = [
            ("DAGBENCH_CSV", csv_path.display().to_string()),
            ("DAGBENCH_SAMPLE", sample.to_string()),
            ("DAGBENCH_SEED", ctx.seed.to_string()),
        ];
        let Some(out) = run.repetition("characterize", &env, traced)? else {
            continue;
        };
        crcs.push(u64::from_str_radix(out.get("crc")?, 16).map_err(|_| "bad crc")?);
        if out.num("raw_bytes")? as u64 != bytes {
            run.errors
                .push("the scan did not consume every byte".to_string());
        }
        if out.num("jobs")? as usize != jobs {
            run.errors.push(format!(
                "the scan found {} jobs, not {jobs}",
                out.get("jobs")?
            ));
        }
    }
    run.check_repeats("summary crc64", &crcs);
    match crcs.first() {
        Some(&first) => run.check_pin(ctx, "summary crc64", first),
        None => run.errors.push("no repetition finished".to_string()),
    }

    // Oracle: the batch reader over the same bytes must give the same
    // report, bit for bit.
    if jobs <= BATCH_ORACLE_MAX {
        let data = std::fs::read(&csv_path).map_err(|e| format!("read trace: {e}"))?;
        let (tasks, _) = csv::read_tasks_with_policy(data.as_slice(), &ReadPolicy::Strict)
            .map_err(|e| format!("batch read: {e}"))?;
        drop(data);
        let report = Pipeline::new(config(sample, ctx.seed)).run_on(&JobSet::from_tasks(tasks))?;
        if crcs.first() != Some(&crc64(report.summary().as_bytes())) {
            run.errors
                .push("streamed summary differs from the batch reader's".to_string());
        }
    }
    Ok(run)
}

/// One repetition: scan, pipeline and summary, timed inside the child.
pub fn child() -> Result<(), String> {
    let path = env_var("DAGBENCH_CSV")?;
    let sample: usize = env_num("DAGBENCH_SAMPLE")?;
    let seed: u64 = env_num("DAGBENCH_SEED")?;
    let mut rec = Recorder::new(env_num::<u8>("DAGBENCH_TRACED")? == 1);

    let t0 = Instant::now();
    let op = rec.open(OP, None);
    let mut streamed = rec.scan(op, Path::new(&path))?;
    let report = rec.pipeline(op, &Pipeline::new(config(sample, seed)), &mut streamed)?;
    let summary = rec.time("core.summary", op, || report.summary());
    rec.close(op);
    let op_ns = t0.elapsed().as_nanos();

    println!("op_ns={op_ns}");
    println!("rss_mb={}", peak_rss_mb());
    println!("crc={:016x}", crc64(summary.as_bytes()));
    println!("raw_bytes={}", streamed.raw_bytes());
    println!("jobs={}", streamed.job_count());
    rec.emit();
    Ok(())
}
