//! dagbench: the repository benchmark. Each workload drives the product
//! path through the library's public calls, times it end to end, checks
//! its outputs, and prints one JSON result line.
//!
//! ```text
//! dagbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE] [--tiny]
//! dagbench --compare EXE_A EXE_B [--seed N] [--workload NAME]...
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` records spans around every library call and reports the
//! per-layer metrics derived from them. See README.md.

mod characterize;
mod compare;
mod harness;
mod host;
mod replay;
mod serve;
mod spec;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dagscope_serve::Json;
use harness::{median, run_child, ChildOutput, Recorder, OP};
use spec::Spec;

/// Input sizes of every workload. `FULL` is the benchmark; `TINY` keeps
/// each workload's shape at smoke-test size.
#[derive(Clone, Copy)]
pub struct Scale {
    pub characterize_1m_jobs: usize,
    pub characterize_all_jobs: usize,
    pub serve_jobs: usize,
    pub serve_sample: usize,
    pub novel_jobs: usize,
    pub replay_trace_jobs: usize,
    pub replay_jobs: usize,
    pub low_rate: f64,
    pub high_rate: f64,
    pub full: bool,
}

impl Scale {
    const FULL: Scale = Scale {
        characterize_1m_jobs: 1_000_000,
        characterize_all_jobs: 100_000,
        serve_jobs: 100_000,
        serve_sample: 10_000,
        novel_jobs: 10_000,
        replay_trace_jobs: 6_000,
        replay_jobs: 2_000,
        // The traced runs' open-loop rates: both under the server's
        // capacity on a 2-vCPU host until other tenants halve its speed,
        // past which latency at a fixed rate jumps tenfold or more.
        low_rate: 500.0,
        high_rate: 2_000.0,
        full: true,
    };

    const TINY: Scale = Scale {
        characterize_1m_jobs: 5_000,
        characterize_all_jobs: 5_000,
        serve_jobs: 5_000,
        serve_sample: 300,
        novel_jobs: 1_000,
        replay_trace_jobs: 900,
        replay_jobs: 300,
        low_rate: 200.0,
        high_rate: 400.0,
        full: false,
    };
}

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub scale: Scale,
    /// Scratch directory for generated traces and snapshots.
    pub work: PathBuf,
}

/// What a workload measured.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Times of the host-speed reference, in ms, taken between
    /// operations.
    pub ref_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Operation latencies of untraced operations.
    pub op_ms: Vec<f64>,
    /// Operation latencies of traced operations (`--trace 1` only).
    pub traced_op_ms: Vec<f64>,
    pub rss_mb: Vec<f64>,
    pub rec: Recorder,
    /// Per-layer values a workload computes itself rather than from spans.
    pub layer: BTreeMap<String, f64>,
    /// Correctness failures.
    pub errors: Vec<String>,
}

impl Run {
    pub fn new(traced: bool) -> Run {
        Run {
            attempted: 0,
            failed: 0,
            ref_ms: Vec::new(),
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            rss_mb: Vec::new(),
            rec: Recorder::new(traced),
            layer: BTreeMap::new(),
            errors: Vec::new(),
        }
    }

    /// Time the host-speed reference until `at_least` has gone into it,
    /// and at least once.
    pub fn calibrate(&mut self, at_least: Duration) {
        let start = Instant::now();
        loop {
            self.ref_ms.push(host::reference_ms());
            if start.elapsed() >= at_least {
                break;
            }
        }
    }

    /// `t`, measured on this run's host, at the reference host speed.
    fn at_reference_speed(&self, t: f64) -> f64 {
        t * host::REFERENCE_MS / median(&self.ref_ms)
    }

    /// Run one repetition in a fresh `kind` child and record its operation
    /// time, peak memory and, when traced, spans; `None` if the child
    /// failed. The reference runs first, for an eighth of the previous
    /// repetition's time, so that it samples the host across the run as
    /// the repetitions do.
    pub fn repetition(
        &mut self,
        kind: &str,
        env: &[(&str, String)],
        traced: bool,
    ) -> Result<Option<ChildOutput>, String> {
        let last_ms = self.op_ms.last().or(self.traced_op_ms.last());
        self.calibrate(Duration::from_secs_f64(last_ms.map_or(0.0, |ms| ms / 8e3)));
        self.attempted += 1;
        let mut env = env.to_vec();
        env.push(("DAGBENCH_TRACED", u8::from(traced).to_string()));
        let out = match run_child(kind, &env) {
            Ok(out) => out,
            Err(e) => {
                self.failed += 1;
                eprintln!("dagbench: {e}");
                return Ok(None);
            }
        };
        let op_ms = out.num("op_ns")? / 1e6;
        if traced {
            self.traced_op_ms.push(op_ms);
            self.rec.absorb(&out, None)?;
        } else {
            self.op_ms.push(op_ms);
        }
        self.rss_mb.push(out.num("rss_mb")?);
        Ok(Some(out))
    }

    /// Check that every repetition of one input produced the same value.
    pub fn check_repeats(&mut self, what: &str, values: &[u64]) {
        if values.iter().any(|v| Some(v) != values.first()) {
            self.errors
                .push(format!("{what} differs between repetitions"));
        }
    }

    /// Check `value` against the pinned one when this seed is pinned.
    pub fn check_pin(&mut self, ctx: &Ctx, what: &str, value: u64) {
        eprintln!("dagbench: {what} {value:016x}");
        if !ctx.scale.full {
            return;
        }
        match spec::pin(&ctx.workload, ctx.seed) {
            Ok(Some(pinned)) if pinned != value => self.errors.push(format!(
                "{what} {value:016x} != pinned {pinned:016x} for seed {}",
                ctx.seed
            )),
            Ok(_) => {}
            Err(e) => self.errors.push(e),
        }
    }
}

/// Fewest set-ups a run times, so `setup_s` is a median.
pub const SETUPS: usize = 3;

/// Cheap set-ups repeat until this much time has gone into them: a
/// sub-second set-up is noisy, and the median of a few is not steady.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Fewest measured operations per run.
pub const MIN_OPS: usize = 3;

/// A per-layer value: a workload-computed value, a counter median, a span
/// duration median (`layer.call_s` from spans named `layer.call`), or a
/// layer's self time.
fn per_layer_value(m: &spec::Metric, run: &Run, self_times: &[BTreeMap<String, f64>]) -> f64 {
    if let Some(&v) = run.layer.get(&m.name) {
        return v;
    }
    if let Some(samples) = run.rec.counters.get(&m.name) {
        return median(samples);
    }
    let per_op = |layer: &str| -> Vec<f64> {
        self_times
            .iter()
            .map(|l| l.get(layer).copied().unwrap_or(0.0))
            .collect()
    };
    match m.name.as_str() {
        "core.unaccounted_s" => return median(&per_op(OP)),
        "core.span_coverage_pct" => {
            let total: f64 = self_times.iter().flat_map(|l| l.values()).sum();
            let loose: f64 = per_op(OP).iter().sum();
            return if total > 0.0 {
                100.0 * (1.0 - loose / total)
            } else {
                0.0
            };
        }
        "tracing_overhead_pct" => {
            let (plain, traced) = (median(&run.op_ms), median(&run.traced_op_ms));
            return if plain > 0.0 && traced > 0.0 {
                100.0 * (traced - plain) / plain
            } else {
                0.0
            };
        }
        _ => {}
    }
    if let Some(layer) = m.name.strip_suffix(".self_s") {
        return median(&per_op(layer));
    }
    if m.unit == "s" {
        let span = match m.name.strip_suffix("_s") {
            Some(stem) => stem.to_string(),
            None => m.name.replacen("_s.", ".", 1),
        };
        return median(&run.rec.durations(&span));
    }
    0.0
}

fn run_workload(ctx: &Ctx) -> Result<Run, String> {
    match ctx.workload.as_str() {
        "characterize-1m" => characterize::run(ctx, ctx.scale.characterize_1m_jobs, 100),
        // A sample as large as the trace takes every eligible job.
        "characterize-all" => characterize::run(
            ctx,
            ctx.scale.characterize_all_jobs,
            ctx.scale.characterize_all_jobs,
        ),
        "serve-mixed" => serve::run(ctx),
        "replay-2k" => replay::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    spans: Option<PathBuf>,
    tiny: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        spans: None,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                out.seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?)
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--spans" => out.spans = Some(PathBuf::from(value()?)),
            "--tiny" => out.tiny = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

fn bench(args: &[String]) -> Result<bool, String> {
    let spec = Spec::load()?;
    let args = parse_args(args)?;
    let workload = args.workload.ok_or("--workload is required")?;
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; BENCHMARK.json defines {}",
            spec.workloads.join(", ")
        ));
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: Duration::from_secs_f64(seconds),
        traced: args.trace,
        scale: if args.tiny { Scale::TINY } else { Scale::FULL },
        work,
    };
    let result = run_workload(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(ctx.work.parent().expect("work has a parent"));
    let run = result?;

    let mut metrics = Vec::new();
    if ctx.traced {
        let self_times = run.rec.self_times();
        for m in &spec.per_layer {
            metrics.push((m, per_layer_value(m, &run, &self_times)));
        }
        if let Some(path) = &args.spans {
            run.rec.write_json(path)?;
        }
    } else {
        eprintln!(
            "dagbench: as measured: op_ms {} (n={}), setup_s {} (n={}); reference {} ms (n={})",
            median(&run.op_ms),
            run.op_ms.len(),
            median(&run.setup_s),
            run.setup_s.len(),
            median(&run.ref_ms),
            run.ref_ms.len()
        );
        for m in &spec.end_to_end {
            let v = match m.name.as_str() {
                "setup_s" => run.at_reference_speed(median(&run.setup_s)),
                "op_ms" => run.at_reference_speed(median(&run.op_ms)),
                "peak_rss_mb" => median(&run.rss_mb),
                other => return Err(format!("no measurement defines {other:?}")),
            };
            metrics.push((m, v));
        }
    }
    for e in &run.errors {
        eprintln!("dagbench: INCORRECT: {e}");
    }
    let correct = run.errors.is_empty();
    for (m, v) in &metrics {
        println!("{} {v} {}", m.name, m.unit);
    }
    let metrics = metrics
        .iter()
        .map(|(m, v)| {
            let entry = Json::Obj(vec![
                ("value".to_string(), Json::from(*v)),
                ("unit".to_string(), Json::from(m.unit.as_str())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::from(run.attempted)),
        ("failed".to_string(), Json::from(run.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", result.encode());
    Ok(correct)
}

fn child(kind: &str) -> Result<(), String> {
    match kind {
        "characterize" => characterize::child(),
        "replay" => replay::child(),
        "serve" => serve::child(),
        other => Err(format!("unknown child kind {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if let Ok(kind) = std::env::var(harness::CHILD_ENV) {
        child(&kind).map(|()| true)
    } else if args.first().map(String::as_str) == Some("--compare") {
        compare::run(&args[1..])
    } else {
        bench(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("dagbench: {e}");
            std::process::exit(2);
        }
    }
}
