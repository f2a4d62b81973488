//! Subcommand implementations.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dagscope_core::{
    compare_baselines, export, figures, BaseKernel, IndexSnapshot, Pipeline, PipelineConfig, Report,
};
use dagscope_graph::pattern::{self, Pattern, PatternCensus};
use dagscope_graph::{JobDag, ShapeTable};
use dagscope_sched::{
    replay, workload_from_jobs, workload_from_stream, ClusterConfig, GroupPredictor, OnlineLoad,
    Policy, Predictions, ReplayWorkload, SimConfig, SimJob, Simulator, DEFAULT_MIN_CONFIDENCE,
};
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::placement::PlacementStats;
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::{csv, machine, stats::TraceStats, ReadPolicy};

use crate::args::{ArgError, Flags};

/// Top-level usage text.
pub const HELP: &str = "\
dagscope — graph-learning characterization of cloud batch workloads
            (reproduction of Gu et al., IPPS 2021)

USAGE: dagscope <command> [--flag value ...]

COMMANDS
  generate    synthesize a v2018-schema trace and write batch_task.csv
              (--jobs N --seed S --out DIR [--instances] [--machines])
  summary     run the full pipeline, print trace stats + group table
              (--jobs N --sample N --seed S [--base-kernel wl|sp]
               [--trace DIR] [--timings])
  figure      regenerate one paper figure 2..9, or all
              (--n N | --all) [--csv DIR] [--dot DIR] [pipeline flags]
  census      Section V-B shape-pattern census over a full trace
              (--jobs N --seed S | --trace DIR, replayed a bounded row
               table at a time, with a unique-WL-shape count)
  baselines   WL+spectral vs statistical k-means vs hierarchical (ARI)
              (--jobs N --sample N --seed S)
  placement   job-task-node placement statistics from instance rows
              (--jobs N --seed S)
  schedule    policy comparison in the cluster simulator
              (--jobs N --seed S --cluster-machines M --compression C
               [--online trough,peak])
  sched-replay
              scheduler-in-the-loop: fit the group model offline, then
              replay every eligible job at its trace arrival time under
              group-informed policies vs FIFO and the oracles, with
              regret columns (--jobs N --seed S | --trace DIR)
               [--replay N] [--machines M]
               [--compression C] [--online trough,peak]
               [--policy fifo,group-sjf,group-critical-path,
                group-hybrid,sjf-oracle,critical-path-oracle | all]
               [--min-confidence F]
  report      auto-generated paper-vs-measured markdown record
              (--jobs N --sample N --seed S)
  snapshot    run the pipeline and write a loadable serve index
              (--out DIR [pipeline flags])
  serve       answer classify/similar/census queries over HTTP from a
              snapshot (--snapshot DIR [--addr HOST:PORT] [--threads N]
               [--queue-depth N] [--max-body BYTES]
               [--request-deadline SECS] [--drain-timeout SECS]
               [--max-conns N]);
              one epoll reactor multiplexes up to --max-conns
              connections and hands each request to the worker pool;
              SIGTERM/SIGINT drain gracefully (finish in-flight, exit 0)
  chaos-replay
              run a seeded fault schedule through the whole
              pipeline→snapshot→serve→sched-replay cycle and print a
              deterministic invariant report (--seed S; needs a binary
              built with --features failpoints)
  help        this text

GLOBAL FLAGS
  --threads N        pin the worker-thread count for all parallel stages
                     (default: DAGSCOPE_THREADS env var, else autodetect)
  --trace DIR        pipeline commands ingest DIR/batch_task.csv instead
                     of synthesizing a trace: one bounded-memory scan
                     folds the statistics, and only the jobs a command
                     uses are ever replayed (byte-range replay)
  --max-bad-rows N   with --trace: quarantine up to N malformed rows
                     instead of aborting on the first; implicated jobs
                     are dropped and a report goes to stderr
  --timings          summary/report: append per-stage wall-clock table,
                     gram-engine cost counters, the Laplacian eigengap
                     diagnostic, and the Lanczos solve's operator
                     applications and max residual with the affinity's
                     order and bytes (with --trace also the ingest
                     throughput in MB/s, the scan's batch count, how
                     many batches each of its threads parsed, how long
                     they waited on each other, and how often and how
                     long its name index grew)
";

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A pipeline / simulation stage failed.
    Run(String),
    /// Filesystem trouble.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; run `dagscope help`")
            }
            CliError::Run(msg) => write!(f, "{msg}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

fn pipeline_config(flags: &Flags) -> Result<PipelineConfig, CliError> {
    Ok(PipelineConfig {
        jobs: flags.get_or("jobs", 2_000usize, "a job count")?,
        sample: flags.get_or("sample", 100usize, "a sample size")?,
        seed: flags.get_or("seed", 42u64, "a seed")?,
        wl_iterations: flags.get_or("wl-iterations", 3usize, "an iteration count")?,
        base_kernel: match flags.str_or("base-kernel", "wl").as_str() {
            "wl" | "subtree" => BaseKernel::WlSubtree,
            "sp" | "shortest-path" => BaseKernel::ShortestPath,
            other => {
                return Err(CliError::Run(format!(
                    "--base-kernel must be `wl` or `sp`, got {other:?}"
                )))
            }
        },
        ..PipelineConfig::default()
    })
}

/// The row-decode policy selected by `--max-bad-rows` (absent = strict).
fn trace_policy(flags: &Flags) -> Result<ReadPolicy, CliError> {
    Ok(match flags.str_opt("max-bad-rows") {
        None => ReadPolicy::Strict,
        Some(_) => ReadPolicy::Quarantine {
            max_bad: flags.get_or("max-bad-rows", 0usize, "a row count")?,
        },
    })
}

/// A `--trace` ingest: the scanned trace, which `sched-replay` reads its
/// workload from after the pipeline ran, and the scan's wall time for the
/// `--timings` throughput line.
struct Ingest {
    trace: StreamedTrace<fs::File>,
    secs: f64,
}

impl Ingest {
    fn render(&self) -> String {
        let mb = self.trace.raw_bytes() as f64 / 1e6;
        let rate = if self.secs > 0.0 { mb / self.secs } else { 0.0 };
        // Which scan thread bounds the ingest: the one the other waited on.
        let c = self.trace.scan_counters();
        let batches = match c.batches {
            1 => "1 batch".to_string(),
            n => format!("{n} batches"),
        };
        let stages = if c.threaded {
            format!(
                "parsed {} by the reader and {} by the fold, read waited {:.3} s, \
                 fold waited {:.3} s",
                c.reader_parsed,
                c.fold_parsed,
                c.read_wait.as_secs_f64(),
                c.fold_wait.as_secs_f64()
            )
        } else {
            "one stage".to_string()
        };
        format!(
            "ingest: {mb:.1} MB in {:.3} s — {rate:.1} MB/s; {batches}, {stages}; \
             name index grew {} times in {:.3} s",
            self.secs,
            c.index_grows,
            c.index_grow_time.as_secs_f64()
        )
    }
}

/// Stream-scan a trace's `batch_task.csv`, reporting quarantine verdicts
/// and the suspect jobs dropped for them on stderr.
fn open_streamed_trace(dir: &str, flags: &Flags) -> Result<StreamedTrace<fs::File>, CliError> {
    let path = Path::new(dir).join("batch_task.csv");
    let file = fs::File::open(&path)
        .map_err(|e| CliError::Run(format!("open {}: {e}", path.display())))?;
    let policy = trace_policy(flags)?;
    let streamed =
        StreamedTrace::scan(file, &policy, &SampleCriteria::default()).map_err(io_err)?;
    if !streamed.quarantine().is_clean() {
        eprintln!("dagscope: {}", streamed.quarantine().render());
        eprintln!(
            "dagscope: dropped {} suspect jobs (quarantine-incomplete)",
            streamed.suspects().len()
        );
    }
    Ok(streamed)
}

/// Run the pipeline over `--trace DIR`, or over the synthetic trace the
/// flags describe. A scanned trace comes back with the report.
fn run_pipeline(flags: &Flags) -> Result<(Report, Option<Ingest>), CliError> {
    let pipeline = Pipeline::new(pipeline_config(flags)?);
    match flags.str_opt("trace") {
        Some(dir) => {
            let start = Instant::now();
            let trace = open_streamed_trace(dir, flags)?;
            let mut ingest = Ingest {
                trace,
                secs: start.elapsed().as_secs_f64(),
            };
            let report = pipeline
                .run_streamed(&mut ingest.trace)
                .map_err(CliError::Run)?;
            Ok((report, Some(ingest)))
        }
        None => pipeline.run().map_err(CliError::Run).map(|r| (r, None)),
    }
}

/// Render the report's primary text, appending stage timings and the
/// Gram engine's and Lanczos solve's cost counters on demand.
fn with_timings(flags: &Flags, report: &Report, ingest: Option<&Ingest>, body: String) -> String {
    if flags.switch("timings") {
        let mut out = format!("{body}\n{}", report.timings.render());
        if let Some(i) = ingest {
            writeln!(out, "{}", i.render()).unwrap();
        }
        if let Some(g) = report.gram {
            let all_pairs = (g.jobs * (g.jobs + 1) / 2) as u64;
            writeln!(
                out,
                "gram engine: {} jobs -> {} unique shapes, {} dot products \
                 (all-pairs would take {all_pairs})",
                g.jobs, g.unique_shapes, g.dot_products
            )
            .unwrap();
        }
        // Process peak RSS (VmHWM) — the number the streaming engine's
        // memory-budget claim is pinned on; CI greps this line.
        if let Some(rss) = dagscope_par::peak_rss_bytes() {
            writeln!(out, "peak rss: {:.1} MB", rss as f64 / 1e6).unwrap();
        }
        // Eigengap diagnostic: the leading Laplacian spectrum justifies
        // (or questions) the chosen group count.
        let eig = &report.laplacian_eigenvalues;
        let shown: Vec<String> = eig.iter().take(8).map(|&v| fixed4(v)).collect();
        writeln!(
            out,
            "laplacian eigenvalues (asc): {}{} | groups chosen: {}",
            shown.join(", "),
            if eig.len() > 8 { ", …" } else { "" },
            report.groups.group_count()
        )
        .unwrap();
        // The solve behind that spectrum, and the affinity it applied.
        let unique = &report.similarity.unique;
        let bytes = (8 * unique.packed().len()) as f64;
        let size = if bytes >= 1e5 {
            format!("{:.1} MB", bytes / 1e6)
        } else {
            format!("{:.1} kB", bytes / 1e3)
        };
        writeln!(
            out,
            "lanczos: {} operator applications, max residual {:.1e}; \
             affinity {m}×{m} packed, {size}",
            report.lanczos.applications,
            report.lanczos.max_residual,
            m = unique.n()
        )
        .unwrap();
        out
    } else {
        body
    }
}

/// `v` to four decimals, unsigned when it rounds to zero: an eigenvalue
/// of -1e-17 prints as `0.0000`, not `-0.0000`.
fn fixed4(v: f64) -> String {
    let s = format!("{v:.4}");
    match s.strip_prefix('-') {
        Some(digits) if digits.bytes().all(|b| b == b'0' || b == b'.') => digits.to_string(),
        _ => s,
    }
}

fn cmd_generate(flags: &Flags) -> Result<String, CliError> {
    let jobs = flags.get_or("jobs", 10_000usize, "a job count")?;
    let seed = flags.get_or("seed", 42u64, "a seed")?;
    let out = flags.str_or("out", "trace-out");
    let out = Path::new(&out);
    fs::create_dir_all(out)?;

    let cfg = GeneratorConfig {
        jobs,
        seed,
        emit_instances: flags.switch("instances"),
        ..Default::default()
    };
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let mut report = String::new();

    let task_path = out.join("batch_task.csv");
    csv::write_tasks(fs::File::create(&task_path)?, &trace.tasks).map_err(io_err)?;
    writeln!(
        report,
        "wrote {} task rows to {}",
        trace.tasks.len(),
        task_path.display()
    )
    .unwrap();

    if flags.switch("instances") {
        let inst_path = out.join("batch_instance.csv");
        csv::write_instances(fs::File::create(&inst_path)?, &trace.instances).map_err(io_err)?;
        writeln!(
            report,
            "wrote {} instance rows to {}",
            trace.instances.len(),
            inst_path.display()
        )
        .unwrap();
    }
    if flags.switch("machines") {
        let (meta, usage) = machine::generate_machines(cfg.machines, cfg.window_secs, seed);
        let meta_path = out.join("machine_meta.csv");
        machine::write_meta(fs::File::create(&meta_path)?, &meta).map_err(io_err)?;
        let usage_path = out.join("machine_usage.csv");
        machine::write_usage(fs::File::create(&usage_path)?, &usage).map_err(io_err)?;
        writeln!(
            report,
            "wrote {} machine meta rows and {} usage rows",
            meta.len(),
            usage.len()
        )
        .unwrap();
    }
    report.push('\n');
    report.push_str(&TraceStats::compute(&trace.job_set()).render());
    Ok(report)
}

fn io_err(e: dagscope_trace::TraceError) -> CliError {
    CliError::Run(e.to_string())
}

fn cmd_summary(flags: &Flags) -> Result<String, CliError> {
    let (report, ingest) = run_pipeline(flags)?;
    let body = report.summary();
    Ok(with_timings(flags, &report, ingest.as_ref(), body))
}

fn cmd_report(flags: &Flags) -> Result<String, CliError> {
    let (report, ingest) = run_pipeline(flags)?;
    let body = report.markdown();
    Ok(with_timings(flags, &report, ingest.as_ref(), body))
}

fn render_figure(report: &Report, n: u32) -> String {
    match n {
        2 => figures::fig2_sample_dags(report, 5),
        3 => figures::fig3_conflation(report).render(),
        4 => figures::render_size_groups(
            "Fig 4: job features before node conflation",
            &figures::fig4_size_groups(report),
        ),
        5 => figures::render_size_groups(
            "Fig 5: job features after node conflation",
            &figures::fig5_size_groups(report),
        ),
        6 => figures::render_type_distribution(&figures::fig6_type_distribution(report)),
        7 => {
            let s = figures::fig7_summary(&report.similarity);
            format!(
                "{}off-diagonal: mean {:.3}, min {:.3}, max {:.3}, identical pairs {}\n",
                figures::fig7_heatmap(&report.similarity),
                s.mean,
                s.min,
                s.max,
                s.identical_pairs
            )
        }
        8 => format!(
            "{}\n{}",
            figures::fig8_representatives(report),
            figures::render_group_shapes(&figures::group_shape_composition(report))
        ),
        9 => figures::render_group_properties(&figures::fig9_group_properties(report)),
        other => unreachable!("figure {other} must be rejected before rendering"),
    }
}

fn export_figure_csv(report: &Report, n: u32) -> Option<(String, String)> {
    let data = match n {
        3 => export::conflation_csv(&figures::fig3_conflation(report)),
        4 => export::size_groups_csv(&figures::fig4_size_groups(report)),
        5 => export::size_groups_csv(&figures::fig5_size_groups(report)),
        6 => export::type_census_csv(&figures::fig6_type_distribution(report)),
        7 => export::similarity_csv(&report.similarity),
        9 => export::group_properties_csv(&figures::fig9_group_properties(report)),
        _ => return None,
    };
    Some((format!("fig{n}.csv"), data))
}

fn cmd_figure(flags: &Flags) -> Result<String, CliError> {
    let ns: Vec<u32> = if flags.switch("all") {
        (2..=9).collect()
    } else {
        vec![flags.get_or("n", 0u32, "a figure number 2..=9")?]
    };
    if ns == [0] {
        return Err(CliError::Run("pass --n 2..=9 or --all".to_string()));
    }
    if let Some(bad) = ns.iter().find(|n| !(2..=9).contains(*n)) {
        return Err(CliError::Run(format!(
            "no figure {bad}; available --n 2..=9"
        )));
    }
    let (report, _) = run_pipeline(flags)?;
    let mut out = String::new();
    for n in &ns {
        out.push_str(&render_figure(&report, *n));
        out.push('\n');
        if let Some(dir) = flags.str_opt("csv") {
            fs::create_dir_all(dir)?;
            if let Some((name, data)) = export_figure_csv(&report, *n) {
                let path = Path::new(dir).join(name);
                fs::write(&path, data)?;
                writeln!(out, "(csv written to {})", path.display()).unwrap();
            }
        }
    }
    if let Some(dir) = flags.str_opt("csv") {
        let path = Path::new(dir).join("features.csv");
        fs::write(&path, export::features_csv(&report))?;
        writeln!(out, "(per-job features written to {})", path.display()).unwrap();
    }
    // Figures 2 and 8 are graph drawings in the paper; --dot emits
    // Graphviz files for them.
    if let Some(dir) = flags.str_opt("dot") {
        fs::create_dir_all(dir)?;
        let mut written = 0usize;
        if ns.contains(&2) {
            for dag in report.raw_dags.iter().take(5) {
                let path = Path::new(dir).join(format!("fig2_{}.dot", dag.name));
                fs::write(&path, dagscope_graph::render::to_dot(dag))?;
                written += 1;
            }
        }
        if ns.contains(&8) {
            for g in &report.groups.groups {
                if let Some(dag) = report
                    .kernel_dags()
                    .iter()
                    .find(|d| d.name == g.representative)
                {
                    let path =
                        Path::new(dir).join(format!("fig8_group_{}_{}.dot", g.label, dag.name));
                    fs::write(&path, dagscope_graph::render::to_dot(dag))?;
                    written += 1;
                }
            }
        }
        writeln!(out, "({written} DOT files written to {dir})").unwrap();
    }
    Ok(out)
}

fn cmd_census(flags: &Flags) -> Result<String, CliError> {
    // `--trace <dir>` censuses a real CSV with the streaming engine: one
    // bounded row table of eligible jobs in memory at a time, so the full
    // 4M-job trace fits a laptop budget. Jobs are keyed by task names
    // through one shape table, so each distinct list is built, classified
    // and fingerprinted once. Unique shapes are counted by WL fingerprint
    // (fresh vectorizer per list, so equal shapes hash equal) — the
    // O(sqrt n) population the collapsed cluster engine exploits.
    let (census, unique_shapes) = if let Some(dir) = flags.str_opt("trace") {
        let mut streamed = open_streamed_trace(dir, flags)?;
        let iterations = flags.get_or("wl-iterations", 3usize, "an iteration count")?;
        let mut table = ShapeTable::new();
        // Per table entry: its pattern, its WL fingerprint and its jobs.
        let mut shapes: Vec<(Pattern, u64, usize)> = Vec::new();
        for rows in streamed.replay_eligible(usize::MAX) {
            let rows = rows.map_err(io_err)?;
            for s in 0..rows.len() {
                let job = rows.job(s);
                let id = table.intern(&job);
                if id == shapes.len() {
                    let entry = table
                        .get(id)
                        .map_err(|e| CliError::Run(format!("job {}: {e}", job.name())))?;
                    let dag = entry.raw(String::new(), &job);
                    let mut wl = dagscope_wl::WlVectorizer::new(iterations);
                    let fingerprint = dagscope_wl::fingerprint(&wl.transform(&dag));
                    shapes.push((pattern::classify(&dag), fingerprint, 0));
                }
                shapes[id].2 += 1;
            }
        }
        if shapes.is_empty() {
            return Err(CliError::Run(
                "no job passed the integrity/availability filters".to_string(),
            ));
        }
        let census = PatternCensus::tally(shapes.iter().map(|&(p, _, jobs)| (p, jobs)));
        let unique: std::collections::HashSet<u64> = shapes.iter().map(|s| s.1).collect();
        (census, Some(unique.len()))
    } else {
        let jobs = flags.get_or("jobs", 20_000usize, "a job count")?;
        let seed = flags.get_or("seed", 42u64, "a seed")?;
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs,
            seed,
            ..Default::default()
        })
        .generate();
        let set = trace.job_set();
        let dags: Vec<JobDag> =
            dagscope_par::par_map(&SampleCriteria::default().filter(&set), |j| {
                JobDag::from_job(j).expect("filtered job builds")
            });
        (figures::pattern_census_of(&dags), None)
    };
    let mut out = figures::render_pattern_census(&census);
    if let Some(n) = unique_shapes {
        writeln!(out, "unique WL shapes: {n}").unwrap();
    }
    if let Some(dir) = flags.str_opt("csv") {
        fs::create_dir_all(dir)?;
        let path = Path::new(dir).join("pattern_census.csv");
        fs::write(&path, export::pattern_census_csv(&census))?;
        writeln!(out, "(csv written to {})", path.display()).unwrap();
    }
    Ok(out)
}

fn cmd_baselines(flags: &Flags) -> Result<String, CliError> {
    let (report, _) = run_pipeline(flags)?;
    let cmp = compare_baselines(&report, report.config.seed);
    Ok(format!("{}\n{}", report.summary(), cmp.render()))
}

fn cmd_placement(flags: &Flags) -> Result<String, CliError> {
    let jobs = flags.get_or("jobs", 500usize, "a job count")?;
    let seed = flags.get_or("seed", 42u64, "a seed")?;
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs,
        seed,
        emit_instances: true,
        ..Default::default()
    })
    .generate();
    Ok(PlacementStats::compute(&trace.instances).render())
}

fn parse_online(raw: &str) -> Result<OnlineLoad, CliError> {
    let parts: Vec<&str> = raw.split(',').collect();
    let bad = || {
        CliError::Run(format!(
            "--online expects `trough,peak` fractions, got {raw:?}"
        ))
    };
    if parts.len() != 2 {
        return Err(bad());
    }
    let trough: f64 = parts[0].parse().map_err(|_| bad())?;
    let peak: f64 = parts[1].parse().map_err(|_| bad())?;
    if !(0.0..=0.95).contains(&trough) || !(0.0..=0.95).contains(&peak) || trough > peak {
        return Err(bad());
    }
    Ok(OnlineLoad { trough, peak })
}

fn cmd_schedule(flags: &Flags) -> Result<String, CliError> {
    let jobs = flags.get_or("jobs", 300usize, "a job count")?;
    let seed = flags.get_or("seed", 42u64, "a seed")?;
    let machines = flags.get_or("cluster-machines", 48usize, "a machine count")?;
    let compression = flags.get_or("compression", 2_000.0f64, "a compression factor")?;
    let online = flags.str_opt("online").map(parse_online).transpose()?;

    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: jobs * 3,
        seed,
        ..Default::default()
    })
    .generate();
    let set = trace.job_set();
    let eligible = SampleCriteria::default().filter(&set);
    let sim_jobs: Vec<SimJob> = eligible
        .iter()
        .take(jobs)
        .map(|j| SimJob::from_trace_job(j).expect("filtered job builds"))
        .collect();

    let cfg = SimConfig {
        cluster: ClusterConfig {
            machines,
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        },
        arrival_compression: compression,
        online_load: online,
        evict_for_online: online.is_some(),
    };
    // Perfect-knowledge predictions for the predicted-SJF row: the CLI
    // variant demonstrates the policy plumbing; the full topology-learned
    // prediction lives in examples/schedule_policies.rs.
    let predictions: Predictions = sim_jobs
        .iter()
        .map(|j| (j.name.as_str(), j.total_work()))
        .collect();

    let mut out = format!(
        "scheduling {} jobs on {} machines (compression {}x{})\n",
        sim_jobs.len(),
        machines,
        compression,
        online.map_or(String::new(), |l| format!(
            ", online load {:.0}–{:.0} %",
            100.0 * l.trough,
            100.0 * l.peak
        ))
    );
    for policy in [
        Policy::Fifo,
        Policy::PredictedSjf { predictions },
        Policy::SjfOracle,
        Policy::CriticalPathOracle,
    ] {
        let m = Simulator::new(cfg.clone(), policy)
            .run(&sim_jobs)
            .map_err(CliError::Run)?;
        writeln!(out, "  {}", m.render_row()).unwrap();
    }
    Ok(out)
}

/// Parse the comma-separated `--policy` list into replayable policies.
/// `all` (the default) expands to every policy the replay supports.
fn parse_policies(
    raw: &str,
    predictor: &Arc<GroupPredictor>,
    min_confidence: f64,
) -> Result<Vec<Policy>, CliError> {
    let names: Vec<&str> = if raw == "all" {
        vec![
            "fifo",
            "group-sjf",
            "group-critical-path",
            "group-hybrid",
            "sjf-oracle",
            "critical-path-oracle",
        ]
    } else {
        raw.split(',').map(str::trim).collect()
    };
    names
        .iter()
        .map(|name| match *name {
            "fifo" => Ok(Policy::Fifo),
            "sjf-oracle" => Ok(Policy::SjfOracle),
            "critical-path-oracle" => Ok(Policy::CriticalPathOracle),
            "group-sjf" => Ok(Policy::GroupSjf {
                predictor: Arc::clone(predictor),
            }),
            "group-critical-path" => Ok(Policy::GroupCriticalPath {
                predictor: Arc::clone(predictor),
            }),
            "group-hybrid" => Ok(Policy::GroupHybrid {
                predictor: Arc::clone(predictor),
                min_confidence,
            }),
            other => Err(CliError::Run(format!(
                "--policy: unknown policy {other:?}; available: fifo, sjf-oracle, \
                 critical-path-oracle, group-sjf, group-critical-path, group-hybrid, all"
            ))),
        })
        .collect()
}

/// Build the replay workload: every filter-eligible job (capped by
/// `--replay`), from the pipeline run's scanned trace or, without
/// `--trace`, from the synthetic generator.
fn replay_workload(
    flags: &Flags,
    ingest: Option<&mut Ingest>,
    cap: usize,
) -> Result<ReplayWorkload, CliError> {
    match ingest {
        Some(ingest) => workload_from_stream(&mut ingest.trace, cap).map_err(CliError::Run),
        None => {
            // Regenerate the exact trace the pipeline synthesized: the
            // generator is a pure function of (jobs, seed).
            let cfg = pipeline_config(flags)?;
            let trace = TraceGenerator::new(cfg.generator()).generate();
            let set = trace.job_set();
            let eligible = SampleCriteria::default().filter(&set);
            Ok(workload_from_jobs(eligible.iter().copied(), cap))
        }
    }
}

fn cmd_sched_replay(flags: &Flags) -> Result<String, CliError> {
    let machines = flags.get_or("machines", 48usize, "a machine count")?;
    let compression = flags.get_or("compression", 2_000.0f64, "a compression factor")?;
    let cap = flags.get_or("replay", usize::MAX, "a job count")?;
    let min_confidence = flags.get_or(
        "min-confidence",
        DEFAULT_MIN_CONFIDENCE,
        "a confidence in 0..=1",
    )?;
    let online = flags.str_opt("online").map(parse_online).transpose()?;

    // Offline model: the regular pipeline fits the group model on the
    // stratified sample; its per-group shape/work profiles become the
    // scheduler's priors.
    let (report, mut ingest) = run_pipeline(flags)?;

    // Replay workload: all eligible jobs at their trace arrival times.
    let workload = replay_workload(flags, ingest.as_mut(), cap)?;
    if workload.jobs.is_empty() {
        return Err(CliError::Run(
            "no job passed the integrity/availability filters".to_string(),
        ));
    }
    let predictor = Arc::new(report.group_predictor(&workload.jobs));

    let policies = parse_policies(&flags.str_or("policy", "all"), &predictor, min_confidence)?;
    let cfg = SimConfig {
        cluster: ClusterConfig {
            machines,
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        },
        arrival_compression: compression,
        online_load: online,
        evict_for_online: online.is_some(),
    };
    let result = replay(&cfg, &workload.jobs, &policies).map_err(CliError::Run)?;

    let mut out = format!(
        "replaying {} jobs on {} machines (compression {}x{})\n",
        workload.jobs.len(),
        machines,
        compression,
        online.map_or(String::new(), |l| format!(
            ", online load {:.0}–{:.0} %",
            100.0 * l.trough,
            100.0 * l.peak
        ))
    );
    if workload.skipped > 0 {
        writeln!(
            out,
            "(skipped {} jobs with malformed DAGs)",
            workload.skipped
        )
        .unwrap();
    }
    out.push('\n');
    out.push_str(&predictor.profiles().render());
    out.push('\n');
    out.push_str(&result.render_table());
    Ok(out)
}

fn cmd_snapshot(flags: &Flags) -> Result<String, CliError> {
    let out = flags.str_or("out", "snapshot-out");
    let (report, _) = run_pipeline(flags)?;
    let snapshot = IndexSnapshot::from_report(&report).map_err(|e| CliError::Run(e.to_string()))?;
    snapshot
        .save(Path::new(&out))
        .map_err(|e| CliError::Run(e.to_string()))?;
    Ok(format!(
        "wrote snapshot of {} jobs in {} groups (silhouette {:.3}) to {out}\nserve it with: dagscope serve --snapshot {out}\n",
        snapshot.jobs.len(),
        snapshot.meta.k,
        snapshot.meta.silhouette,
    ))
}

fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    let Some(dir) = flags.str_opt("snapshot") else {
        return Err(CliError::Run(
            "--snapshot DIR is required (write one with `dagscope snapshot`)".to_string(),
        ));
    };
    let addr = flags.str_or("addr", "127.0.0.1:7700");
    let threads = match flags.get_or("threads", 0usize, "a thread count")? {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(4, 64),
        n => n,
    };
    let defaults = dagscope_serve::ServerConfig::default();
    let config = dagscope_serve::ServerConfig {
        threads,
        queue_depth: flags.get_or("queue-depth", defaults.queue_depth, "a queue depth")?,
        max_body: flags.get_or("max-body", defaults.max_body, "a byte count")?,
        request_deadline: Duration::from_secs(flags.get_or(
            "request-deadline",
            defaults.request_deadline.as_secs(),
            "a whole number of seconds",
        )?),
        drain_timeout: Duration::from_secs(flags.get_or(
            "drain-timeout",
            defaults.drain_timeout.as_secs(),
            "a whole number of seconds",
        )?),
        max_conns: flags.get_or("max-conns", defaults.max_conns, "a connection count")?,
        ..defaults
    };
    // Snapshot volume on disk, for the startup-throughput gauge the
    // metrics endpoint derives (snapshot_load_mb_per_s).
    let snap_bytes: u64 = fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let load_start = Instant::now();
    let snapshot = IndexSnapshot::load(Path::new(dir)).map_err(|e| CliError::Run(e.to_string()))?;
    let index = dagscope_serve::ServeIndex::build(snapshot).map_err(CliError::Run)?;
    let load_us = load_start.elapsed().as_micros() as u64;
    let jobs = index.len();
    let server = dagscope_serve::Server::bind_with(index, &addr, config)?;
    server.metrics().set_snapshot_load_us(load_us);
    server.metrics().set_snapshot_load_bytes(snap_bytes);
    let local = server.local_addr()?;
    // Bridge the process signal handler to a graceful drain: the binary's
    // SIGTERM/SIGINT handler sets `SHUTDOWN`; this watcher turns it into
    // `handle.drain()` (stop accepting, finish in-flight, then `run`
    // returns Ok and the process exits 0).
    let handle = server.handle()?;
    std::thread::spawn(move || loop {
        if crate::SHUTDOWN.load(Ordering::SeqCst) {
            handle.drain();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
    // The accept loop blocks until killed, so the liveness line must go
    // out before it (stderr keeps stdout clean for actual results).
    eprintln!("dagscope: serving {jobs} jobs on http://{local} with {threads} workers");
    server.run()?;
    Ok(format!("server on {local} drained and stopped\n"))
}

/// Dispatch a full argv (excluding the program name).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Ok(HELP.to_string());
    };
    let flags = Flags::parse(&argv[1..])?;
    if flags.switch("help") {
        return Ok(HELP.to_string());
    }
    // Pin the worker-thread count for every parallel stage this command
    // runs (0 = autodetect, the default).
    let threads = flags.get_or("threads", 0usize, "a thread count")?;
    let _par_scope = (threads > 0).then(|| dagscope_par::ParScope::new(threads));
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "summary" => cmd_summary(&flags),
        "report" => cmd_report(&flags),
        "figure" => cmd_figure(&flags),
        "census" => cmd_census(&flags),
        "baselines" => cmd_baselines(&flags),
        "placement" => cmd_placement(&flags),
        "schedule" => cmd_schedule(&flags),
        "sched-replay" => cmd_sched_replay(&flags),
        "snapshot" => cmd_snapshot(&flags),
        "serve" => cmd_serve(&flags),
        #[cfg(feature = "failpoints")]
        "chaos-replay" => crate::chaos::cmd_chaos_replay(&flags),
        #[cfg(not(feature = "failpoints"))]
        "chaos-replay" => Err(CliError::Run(
            "chaos-replay drives the failpoint sites, which are compiled out of this \
             binary; rebuild with `cargo build --features failpoints`"
                .to_string(),
        )),
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn no_args_prints_help() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&argv("help")).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_rejected() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn summary_small_run() {
        let out = run(&argv("summary --jobs 200 --sample 20 --seed 3")).unwrap();
        assert!(out.contains("== groups"));
        assert!(out.contains('A'));
    }

    #[test]
    fn figure_requires_n_or_all() {
        let err = run(&argv("figure --jobs 200 --sample 20")).unwrap_err();
        assert!(err.to_string().contains("--n"));
    }

    #[test]
    fn figure_seven_renders_heatmap() {
        let out = run(&argv("figure --n 7 --jobs 200 --sample 20 --seed 3")).unwrap();
        assert!(out.contains("Fig 7"));
        assert!(out.contains("off-diagonal"));
    }

    #[test]
    fn base_kernel_flag() {
        let out = run(&argv(
            "summary --jobs 200 --sample 20 --seed 3 --base-kernel sp",
        ))
        .unwrap();
        assert!(out.contains("== groups"));
        let err = run(&argv("summary --jobs 200 --base-kernel bogus")).unwrap_err();
        assert!(err.to_string().contains("base-kernel"));
    }

    #[test]
    fn report_markdown() {
        let out = run(&argv("report --jobs 200 --sample 20 --seed 3")).unwrap();
        assert!(out.contains("| Claim | Paper | Measured |"));
        assert!(out.contains("dominant group"));
    }

    #[test]
    fn census_runs() {
        let out = run(&argv("census --jobs 800 --seed 3")).unwrap();
        assert!(out.contains("straight-chain"));
    }

    #[test]
    fn census_ingests_generated_trace() {
        let dir = std::env::temp_dir().join(format!("dagscope_cli_census_{}", std::process::id()));
        run(&argv(&format!(
            "generate --jobs 2000 --seed 42 --out {}",
            dir.display()
        )))
        .unwrap();
        let scanned = run(&argv(&format!("census --trace {}", dir.display()))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // The shape count, made job by job over the batch-filtered set
        // with a fresh vectorizer each, so equal shapes hash equal.
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs: 2000,
            seed: 42,
            ..Default::default()
        })
        .generate();
        let set = trace.job_set();
        let shapes: std::collections::HashSet<u64> = SampleCriteria::default()
            .filter(&set)
            .iter()
            .map(|job| {
                let dag = JobDag::from_job(job).unwrap();
                dagscope_wl::fingerprint(&dagscope_wl::WlVectorizer::new(3).transform(&dag))
            })
            .collect();
        assert!(shapes.len() > 1);
        let synthetic = run(&argv("census --jobs 2000 --seed 42")).unwrap();
        assert_eq!(
            scanned,
            format!("{synthetic}unique WL shapes: {}\n", shapes.len())
        );
    }

    #[test]
    fn baselines_runs() {
        let out = run(&argv("baselines --jobs 250 --sample 25 --seed 3")).unwrap();
        assert!(out.contains("ARI"));
    }

    #[test]
    fn placement_runs() {
        let out = run(&argv("placement --jobs 80 --seed 3")).unwrap();
        assert!(out.contains("machines per job"));
    }

    #[test]
    fn schedule_runs_with_online_load() {
        let out = run(&argv(
            "schedule --jobs 40 --seed 3 --cluster-machines 8 --compression 3000 --online 0.2,0.5",
        ))
        .unwrap();
        assert!(out.contains("fifo"));
        assert!(out.contains("sjf-oracle"));
        assert!(out.contains("online load 20–50 %"));
    }

    #[test]
    fn sched_replay_runs_and_is_deterministic() {
        let cmd = "sched-replay --jobs 120 --sample 20 --seed 3 --machines 8 --compression 4000";
        let out = run(&argv(cmd)).unwrap();
        // All six policies, the profile table, and the regret columns.
        for label in [
            "fifo",
            "group-sjf",
            "group-critical-path",
            "group-hybrid",
            "sjf-oracle",
            "critical-path-oracle",
        ] {
            assert!(out.contains(label), "missing {label} in:\n{out}");
        }
        assert!(out.contains("vs sjf"));
        assert!(out.contains("replaying"));
        // Bit-identical across runs: the whole chain is a pure function
        // of the flags.
        assert_eq!(out, run(&argv(cmd)).unwrap());
    }

    #[test]
    fn sched_replay_policy_flag_selects_and_rejects() {
        let out = run(&argv(
            "sched-replay --jobs 120 --sample 20 --seed 3 --machines 8 --policy fifo,group-sjf",
        ))
        .unwrap();
        assert!(out.contains("fifo"));
        assert!(out.contains("group-sjf"));
        assert!(!out.contains("critical-path-oracle"));
        let err = run(&argv(
            "sched-replay --jobs 120 --sample 20 --seed 3 --policy turbo",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("turbo"), "{err}");
    }

    #[test]
    fn sched_replay_ingests_a_streamed_trace() {
        let dir = std::env::temp_dir().join(format!("dagscope_cli_replay_{}", std::process::id()));
        run(&argv(&format!(
            "generate --jobs 300 --seed 5 --out {}",
            dir.display()
        )))
        .unwrap();
        let flags = "--sample 20 --seed 5 --machines 8 --policy fifo,sjf-oracle";
        let streamed = run(&argv(&format!(
            "sched-replay --trace {} {flags}",
            dir.display()
        )))
        .unwrap();
        // The scanned CSV is the trace `--jobs 300 --seed 5` synthesizes,
        // so the whole report matches the synthetic run to the character.
        let synthetic = run(&argv(&format!("sched-replay --jobs 300 {flags}"))).unwrap();
        assert_eq!(streamed, synthetic);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schedule_rejects_bad_online_spec() {
        for bad in ["1", "a,b", "0.9,0.2", "-0.1,0.5"] {
            let err = run(&argv(&format!(
                "schedule --jobs 10 --seed 1 --online {bad}"
            )))
            .unwrap_err();
            assert!(err.to_string().contains("--online"), "{bad}");
        }
    }

    #[test]
    fn summary_with_timings_and_threads() {
        let out = run(&argv(
            "summary --jobs 200 --sample 20 --seed 3 --threads 1 --timings",
        ))
        .unwrap();
        assert!(out.contains("== groups"));
        assert!(out.contains("== stage timings =="));
        for stage in [
            "stats", "sample", "dags", "embed", "dedup", "kernel", "cluster", "total",
        ] {
            assert!(out.contains(stage), "missing {stage}");
        }
        assert!(out.contains("unique shapes"), "gram counters shown");
        assert!(
            !out.contains("cluster engine"),
            "one engine, no provenance line"
        );
        assert!(
            out.contains("laplacian eigenvalues (asc): 0.0000"),
            "eigengap diagnostic: {out}"
        );
        assert!(out.contains("groups chosen: 5"));
        let lanczos = out
            .lines()
            .find(|l| l.starts_with("lanczos: "))
            .expect("Lanczos counters shown");
        assert!(
            lanczos.contains(" operator applications, max residual ")
                && lanczos.contains(" packed, ")
                && lanczos.ends_with(" kB"),
            "{lanczos}"
        );
        // Without the switch the table is absent.
        let plain = run(&argv("summary --jobs 200 --sample 20 --seed 3")).unwrap();
        assert!(!plain.contains("stage timings"));
    }

    #[test]
    fn fixed4_drops_the_sign_of_a_rounded_zero() {
        for (v, want) in [
            (-1e-17, "0.0000"),
            (-0.0, "0.0000"),
            (-0.00004, "0.0000"),
            (0.0, "0.0000"),
            (-0.00006, "-0.0001"),
            (-0.5, "-0.5000"),
            (0.76384, "0.7638"),
        ] {
            assert_eq!(fixed4(v), want, "{v:e}");
        }
    }

    #[test]
    fn summary_ingests_generated_trace() {
        let dir = std::env::temp_dir().join(format!("dagscope_cli_trace_{}", std::process::id()));
        run(&argv(&format!(
            "generate --jobs 300 --seed 5 --out {}",
            dir.display()
        )))
        .unwrap();
        let out = run(&argv(&format!(
            "summary --trace {} --sample 20 --seed 5",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("== groups"));
        // The scanned CSV is the trace `--jobs 300 --seed 5` synthesizes.
        let synthetic = run(&argv("summary --jobs 300 --sample 20 --seed 5")).unwrap();
        assert_eq!(out, synthetic);
        // --timings adds the scan's throughput line.
        let timed = run(&argv(&format!(
            "summary --trace {} --sample 20 --seed 5 --timings",
            dir.display()
        )))
        .unwrap();
        assert!(timed.contains("ingest:"), "{timed}");
        assert!(timed.contains("MB/s"), "{timed}");
        // A trace within one read-buffer fill is folded as it is read, on
        // one thread, whatever the thread count.
        assert!(timed.contains("MB/s; 1 batch, one stage"), "{timed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_writes_files() {
        let dir = std::env::temp_dir().join(format!("dagscope_cli_test_{}", std::process::id()));
        let out = run(&argv(&format!(
            "generate --jobs 60 --seed 1 --out {} --instances --machines",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("batch_task.csv"));
        assert!(dir.join("batch_task.csv").exists());
        assert!(dir.join("batch_instance.csv").exists());
        assert!(dir.join("machine_meta.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn figure_dot_export() {
        let dir = std::env::temp_dir().join(format!("dagscope_cli_dot_{}", std::process::id()));
        let out = run(&argv(&format!(
            "figure --n 8 --jobs 200 --sample 20 --seed 3 --dot {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("DOT files written"));
        let dots: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "dot"))
            .collect();
        assert_eq!(dots.len(), 5, "one DOT per group");
        let body = std::fs::read_to_string(dots[0].path()).unwrap();
        assert!(body.starts_with("digraph"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn figure_out_of_range_is_an_error() {
        // These used to render a "no figure" string with a zero exit; any
        // number outside 2..=9 must be a hard error.
        for bad in ["1", "10", "12"] {
            let err = run(&argv(&format!("figure --n {bad} --jobs 200 --sample 20"))).unwrap_err();
            assert!(err.to_string().contains("available"), "--n {bad}");
        }
    }

    #[test]
    fn snapshot_writes_a_loadable_index() {
        let dir = std::env::temp_dir().join(format!("dagscope_cli_snap_{}", std::process::id()));
        let out = run(&argv(&format!(
            "snapshot --jobs 200 --sample 20 --seed 3 --out {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("wrote snapshot of 20 jobs"));
        for file in [
            "meta.txt",
            "jobs.csv",
            "model.txt",
            "groups.csv",
            "shapes.csv",
            "checksums.txt",
        ] {
            assert!(dir.join(file).exists(), "missing {file}");
        }
        let snap = IndexSnapshot::load(&dir).unwrap();
        assert_eq!(snap.jobs.len(), 20);
        dagscope_serve::ServeIndex::build(snap).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_rejects_sp_kernel() {
        let err = run(&argv(
            "snapshot --jobs 200 --sample 20 --seed 3 --base-kernel sp --out /tmp/never_written",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("WL"), "{err}");
    }

    #[test]
    fn serve_errors_without_a_usable_snapshot() {
        let err = run(&argv("serve")).unwrap_err();
        assert!(err.to_string().contains("--snapshot"));
        let err = run(&argv("serve --snapshot /no/such/dagscope/dir")).unwrap_err();
        assert!(err.to_string().contains("/no/such/dagscope/dir"), "{err}");
    }

    #[test]
    fn figure_csv_export() {
        let dir = std::env::temp_dir().join(format!("dagscope_cli_csv_{}", std::process::id()));
        let out = run(&argv(&format!(
            "figure --n 9 --jobs 200 --sample 20 --seed 3 --csv {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("csv written"));
        let csv = std::fs::read_to_string(dir.join("fig9.csv")).unwrap();
        assert!(csv.starts_with("group,"));
        assert!(dir.join("features.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
