//! Full-trace scaling: the streaming engine over a generated
//! `batch_task.csv` at 100k / 1M / 4M jobs — the published trace's actual
//! volume — under a laptop memory budget.
//!
//! `VmHWM` is a process-lifetime high-water mark, so each (size, mode)
//! measurement re-executes this binary as a child process: the parent
//! generates the CSV incrementally (constant memory), the child ingests it
//! and reports per-stage wall clock plus its own peak RSS. At sizes where
//! the batch loader is still feasible the bench runs both modes and
//! asserts the rendered reports are byte-identical.
//!
//! Writes `BENCH_fulltrace.json` at the repository root. The sweep is
//! capped by `FULLTRACE_BENCH_MAX_JOBS` (CI smoke sets a small value); at
//! the full 4M size the bench asserts peak RSS below a quarter of the raw
//! trace bytes — the laptop-budget claim, enforced, not eyeballed.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::time::Instant;

use dagscope_core::{ClusterEngine, Pipeline, PipelineConfig};
use dagscope_trace::csv;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::{JobSet, ReadPolicy};

/// Default sweep; the last entry is the published trace's job count.
const SIZES: [usize; 3] = [100_000, 1_000_000, 4_000_000];

/// Largest size the in-memory batch loader also runs at, for the
/// byte-identity cross-check.
const BATCH_MAX: usize = 200_000;

/// Size where the memory-budget assertion fires. The O(jobs) metadata
/// columns are a fixed ~35 bytes/job against ~150 raw bytes/job, so the
/// ratio only *improves* with scale; it is pinned at the published trace's
/// full size, where the claim matters.
const BUDGET_MIN: usize = 4_000_000;

/// Scan wall clock of the scalar line-at-a-time reader at the 4M size
/// (seconds), measured before the SWAR rewrite. The zero-copy scanner
/// must beat it by at least this ratio — a regression here fails the
/// bench, not just dents a number in the report.
///
/// Floor derivation: the zero-copy scanner measures 2.59 s at 4M on the
/// single-core reference box (a 2.6x speedup, ~235 MB/s). The floor is
/// set below the measured ratio to leave headroom for scheduler noise
/// (worst observed clean run: 2.73 s, a 2.48x ratio); dropping under it
/// means a real regression, not a bad draw.
const BASELINE_4M_SCAN_SECS: f64 = 6.756;
const MIN_SCAN_SPEEDUP: f64 = 2.25;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        sample: 100,
        seed: 42,
        cluster_engine: ClusterEngine::Collapsed,
        ..PipelineConfig::default()
    }
}

/// One measurement reported by a child process.
#[derive(Debug, Default, Clone)]
struct ChildReport {
    raw_bytes: u64,
    metadata_bytes: u64,
    peak_rss_bytes: u64,
    scan_us: u64,
    sample_us: u64,
    cluster_us: u64,
    pipeline_us: u64,
    eligible: u64,
    summary: String,
}

/// Child entry: ingest `csv_path` in `mode`, print `key=value` lines.
fn child(mode: &str, csv_path: &str) {
    let cfg = pipeline_config();
    let pipeline = Pipeline::new(cfg);
    let criteria = SampleCriteria::default();

    // Floor mode: scan a zero-row CSV and report only peak RSS. The
    // measured VmHWM is the process floor — binary, allocator arenas,
    // runtime — with no trace-proportional state on top. The parent
    // subtracts it to get the floor-adjusted memory fraction (at 100k
    // jobs the raw fraction is dominated by this floor, not by the
    // engine's metadata columns).
    if mode == "floor" {
        let file = std::fs::File::open(csv_path).expect("open trace csv");
        let streamed = StreamedTrace::scan(file, &ReadPolicy::Strict, &criteria)
            .expect("empty trace scans clean");
        assert_eq!(streamed.raw_bytes(), 0, "floor child expects a 0-row csv");
        if let Ok(path) = std::env::var("FULLTRACE_SUMMARY") {
            std::fs::write(path, "").expect("write summary");
        }
        println!(
            "peak_rss_bytes={}",
            dagscope_par::peak_rss_bytes().unwrap_or(0)
        );
        return;
    }

    let scan_start = Instant::now();
    let (report, raw_bytes, metadata_bytes, eligible, scan_us) = match mode {
        "stream" => {
            let file = std::fs::File::open(csv_path).expect("open trace csv");
            let mut streamed = StreamedTrace::scan(file, &ReadPolicy::Strict, &criteria)
                .expect("clean generated trace");
            let scan_us = scan_start.elapsed().as_micros() as u64;
            let raw = streamed.raw_bytes();
            let meta = streamed.metadata_bytes() as u64;
            let eligible = streamed.eligible_count() as u64;
            let report = pipeline.run_streamed(&mut streamed).expect("pipeline");
            (report, raw, meta, eligible, scan_us)
        }
        "batch" => {
            let bytes = std::fs::read(csv_path).expect("read trace csv");
            let raw = bytes.len() as u64;
            let (tasks, _) = csv::read_tasks_with_policy(bytes.as_slice(), &ReadPolicy::Strict)
                .expect("clean generated trace");
            drop(bytes);
            let set = JobSet::from_tasks(tasks);
            let scan_us = scan_start.elapsed().as_micros() as u64;
            let report = pipeline.run_on(&set).expect("pipeline");
            (report, raw, 0, 0, scan_us)
        }
        other => panic!("unknown FULLTRACE_CHILD mode {other:?}"),
    };

    // The summary travels over a side file (it is multi-line); scalars go
    // over stdout as key=value pairs.
    if let Ok(path) = std::env::var("FULLTRACE_SUMMARY") {
        std::fs::write(path, report.summary()).expect("write summary");
    }
    let t = &report.timings;
    println!("raw_bytes={raw_bytes}");
    println!("metadata_bytes={metadata_bytes}");
    println!("eligible={eligible}");
    println!("scan_us={scan_us}");
    println!("sample_us={}", (t.stats + t.sample).as_micros());
    println!("cluster_us={}", (t.kernel + t.cluster).as_micros());
    println!("pipeline_us={}", t.total.as_micros());
    println!(
        "peak_rss_bytes={}",
        dagscope_par::peak_rss_bytes().unwrap_or(0)
    );
}

/// Stream-generate a `jobs`-job `batch_task.csv` to `path` without ever
/// holding the trace in memory; returns the byte size.
fn generate_csv(jobs: usize, path: &std::path::Path) -> u64 {
    let generator = TraceGenerator::new(GeneratorConfig {
        jobs,
        seed: 42,
        ..GeneratorConfig::default()
    });
    let file = std::fs::File::create(path).expect("create trace csv");
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let mut bytes = 0u64;
    // One row buffer reused across the whole trace: integer fields are
    // written digit-at-a-time into it, so emission allocates nothing per
    // row (the writer used to be ~2x the scan's cost).
    let mut row = Vec::with_capacity(128);
    for i in 0..jobs {
        let (tasks, _) = generator.generate_job(i);
        for task in &tasks {
            row.clear();
            csv::push_task_line(&mut row, task);
            bytes += row.len() as u64;
            w.write_all(&row).expect("write trace csv");
        }
    }
    w.flush().expect("flush trace csv");
    bytes
}

/// Re-execute this binary as a measurement child and parse its report.
fn run_child(
    mode: &str,
    csv_path: &std::path::Path,
    summary_path: &std::path::Path,
) -> ChildReport {
    let exe = std::env::current_exe().expect("current_exe");
    let output = std::process::Command::new(exe)
        .env("FULLTRACE_CHILD", mode)
        .env("FULLTRACE_CSV", csv_path)
        .env("FULLTRACE_SUMMARY", summary_path)
        .output()
        .expect("spawn measurement child");
    assert!(
        output.status.success(),
        "{mode} child failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("child stdout utf8");
    let mut report = ChildReport {
        summary: std::fs::read_to_string(summary_path).expect("child summary"),
        ..ChildReport::default()
    };
    for line in stdout.lines() {
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let Ok(n) = value.parse::<u64>() else {
            continue;
        };
        match key {
            "raw_bytes" => report.raw_bytes = n,
            "metadata_bytes" => report.metadata_bytes = n,
            "eligible" => report.eligible = n,
            "scan_us" => report.scan_us = n,
            "sample_us" => report.sample_us = n,
            "cluster_us" => report.cluster_us = n,
            "pipeline_us" => report.pipeline_us = n,
            "peak_rss_bytes" => report.peak_rss_bytes = n,
            _ => {}
        }
    }
    report
}

fn max_jobs() -> usize {
    std::env::var("FULLTRACE_BENCH_MAX_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

fn main() {
    // Child mode: one measurement in a fresh process, then exit.
    if let Ok(mode) = std::env::var("FULLTRACE_CHILD") {
        let csv_path = std::env::var("FULLTRACE_CSV").expect("FULLTRACE_CSV");
        child(&mode, &csv_path);
        return;
    }

    let cap = max_jobs();
    let mut sizes: Vec<usize> = SIZES.iter().copied().filter(|&s| s <= cap).collect();
    if sizes.is_empty() {
        sizes.push(cap);
    }

    let tmp = std::env::temp_dir().join("dagscope_fulltrace");
    std::fs::create_dir_all(&tmp).expect("create temp dir");

    // Process RSS floor: what a child's VmHWM reads when it scans zero
    // rows. Reported alongside the per-size fractions so the small-size
    // numbers can be read for what they are (at 100k jobs the floor is
    // most of the measurement).
    let floor_csv = tmp.join("batch_task_floor.csv");
    std::fs::write(&floor_csv, b"").expect("write empty csv");
    let rss_floor = run_child("floor", &floor_csv, &tmp.join("summary_floor.txt")).peak_rss_bytes;
    let _ = std::fs::remove_file(&floor_csv);
    eprintln!(
        "fulltrace: process RSS floor {:.1} MB (0-row scan)",
        rss_floor as f64 / 1e6
    );

    let mut rows = String::new();
    let mut violations: Vec<String> = Vec::new();
    for (i, &jobs) in sizes.iter().enumerate() {
        let csv_path = tmp.join(format!("batch_task_{jobs}.csv"));
        eprintln!("fulltrace: generating {jobs} jobs …");
        let gen_start = Instant::now();
        let raw_bytes = generate_csv(jobs, &csv_path);
        let gen_secs = gen_start.elapsed().as_secs_f64();
        eprintln!(
            "fulltrace: {jobs} jobs = {:.1} MB in {gen_secs:.1}s; streaming ingest …",
            raw_bytes as f64 / 1e6
        );

        let stream = run_child("stream", &csv_path, &tmp.join("summary_stream.txt"));
        assert_eq!(stream.raw_bytes, raw_bytes, "scan must consume every byte");

        let batch = (jobs <= BATCH_MAX).then(|| {
            eprintln!("fulltrace: {jobs} jobs batch cross-check …");
            run_child("batch", &csv_path, &tmp.join("summary_batch.txt"))
        });
        if let Some(batch) = &batch {
            assert_eq!(
                stream.summary, batch.summary,
                "streaming and batch reports must be byte-identical"
            );
            eprintln!("fulltrace: {jobs} jobs — reports byte-identical");
        }

        if jobs >= BUDGET_MIN && stream.peak_rss_bytes * 4 >= raw_bytes {
            violations.push(format!(
                "laptop budget violated at {jobs} jobs: peak RSS {} vs raw {raw_bytes}",
                stream.peak_rss_bytes
            ));
        }
        // Scan-throughput ratio floor: the SWAR scanner must hold its
        // speedup over the recorded scalar baseline at the full size.
        let scan_secs = stream.scan_us as f64 / 1e6;
        if jobs >= BUDGET_MIN && scan_secs > BASELINE_4M_SCAN_SECS / MIN_SCAN_SPEEDUP {
            violations.push(format!(
                "scan throughput regression at {jobs} jobs: {scan_secs:.3}s vs ceiling \
                 {:.3}s (scalar baseline {BASELINE_4M_SCAN_SECS}s / {MIN_SCAN_SPEEDUP}x)",
                BASELINE_4M_SCAN_SECS / MIN_SCAN_SPEEDUP
            ));
        }
        eprintln!(
            "fulltrace: {jobs} jobs — peak RSS {:.1} MB ({:.1}% of raw), scan {:.1}s, pipeline {:.1}s",
            stream.peak_rss_bytes as f64 / 1e6,
            stream.peak_rss_bytes as f64 * 100.0 / raw_bytes as f64,
            stream.scan_us as f64 / 1e6,
            stream.pipeline_us as f64 / 1e6,
        );

        let batch_fields = match &batch {
            Some(b) => format!(
                "\"batch_peak_rss_bytes\": {}, \"batch_load_secs\": {:.3}, \
                 \"batch_pipeline_secs\": {:.3}, \"reports_identical\": true",
                b.peak_rss_bytes,
                b.scan_us as f64 / 1e6,
                b.pipeline_us as f64 / 1e6,
            ),
            None => "\"batch_peak_rss_bytes\": null".to_string(),
        };
        writeln!(
            rows,
            "    {{ \"jobs\": {jobs}, \"raw_bytes\": {raw_bytes}, \"gen_secs\": {gen_secs:.1}, \
             \"eligible_jobs\": {}, \"stream_peak_rss_bytes\": {}, \
             \"peak_rss_fraction_of_raw\": {:.4}, \"peak_rss_floor_adjusted_fraction\": {:.4}, \
             \"metadata_bytes\": {}, \
             \"scan_secs\": {:.3}, \"scan_mb_per_s\": {:.1}, \"sample_secs\": {:.3}, \
             \"cluster_secs\": {:.3}, \
             \"pipeline_secs\": {:.3}, {batch_fields} }}{}",
            stream.eligible,
            stream.peak_rss_bytes,
            stream.peak_rss_bytes as f64 / raw_bytes as f64,
            stream.peak_rss_bytes.saturating_sub(rss_floor) as f64 / raw_bytes as f64,
            stream.metadata_bytes,
            scan_secs,
            if scan_secs > 0.0 {
                raw_bytes as f64 / 1e6 / scan_secs
            } else {
                0.0
            },
            stream.sample_us as f64 / 1e6,
            stream.cluster_us as f64 / 1e6,
            stream.pipeline_us as f64 / 1e6,
            if i + 1 == sizes.len() { "" } else { "," },
        )
        .unwrap();
        let _ = std::fs::remove_file(&csv_path);
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"fulltrace_streaming\",\n  \"host_parallelism\": {host},\n  \
         \"rss_floor_bytes\": {rss_floor},\n  \"sizes\": [\n{rows}  ],\n  \
         \"note\": \"each (size, mode) runs in a fresh child process so VmHWM isolates that \
         measurement; scan_secs is StreamedTrace::scan: the forward pass, whose read stage \
         (SWAR zero-copy scanner) runs on a thread of its own ahead of the fold stage that folds \
         statistics and per-job metadata columns when host_parallelism is 2 or more, then \
         finalize; metadata_bytes counts the columns that outlive the scan (the name index is \
         freed before finalize). sample_secs covers the stratified draw plus \
         byte-range replay of the sampled jobs, cluster_secs is Gram assembly + collapsed \
         spectral clustering. peak_rss_fraction_of_raw is the headline: the streaming engine \
         never holds the trace, only O(jobs) metadata columns plus the ~100-job sample. \
         rss_floor_bytes is the VmHWM of a child scanning zero rows (binary + allocator + \
         runtime); peak_rss_floor_adjusted_fraction subtracts it, which is why the raw 100k \
         fraction looks large — at that size the floor dominates, not the engine. The 4M scan \
         is asserted to stay at least 2.25x faster than the recorded 6.756s scalar baseline \
         (measured: ~2.6x, ~235 MB/s on the single-core reference box). Where batch \
         also runs the two rendered reports are asserted byte-identical\"\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fulltrace.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
    // Fail after the report is on disk, so a violation still records the
    // numbers that produced it.
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
