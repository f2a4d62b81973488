//! `chaos-replay`: a seeded fault schedule driven through the full
//! pipeline → snapshot → serve → sched-replay cycle.
//!
//! Every injection is derived from `--seed`, every check prints a
//! `PASS`/`FAIL` line, and the report carries no timings, paths, or
//! process ids — two runs with the same seed must produce byte-identical
//! output, which is exactly what the CI `chaos-smoke` job diffs for.
//!
//! Only compiled with `--features failpoints`; the default binary has a
//! stub arm that points at the feature flag.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::{BufReader, Cursor};
use std::path::PathBuf;
use std::time::Duration;

use dagscope_core::{IndexSnapshot, Pipeline, PipelineConfig, SnapshotError};
use dagscope_sched::{replay, workload_from_jobs, ClusterConfig, Policy, SimConfig};
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::{csv, ReadPolicy};

use crate::args::Flags;
use crate::commands::CliError;

/// The serve/sched-layer storm menu `plan_from_seed` draws from. Trace
/// and snapshot sites are armed per-invariant instead — their checks
/// need to know which fault is live.
const STORM_MENU: &[(&str, &[&str])] = &[
    ("par.pool.task_panic", &["1*panic(storm)"]),
    ("par.pool.wakeup_delay", &["delay(5)"]),
    ("serve.accept.stall", &["delay(10)"]),
    ("serve.handler.advise_panic", &["1*panic(storm)"]),
    (
        "serve.handler.classify_panic",
        &["2*panic(storm)", "1*panic(storm)"],
    ),
    ("serve.read.stall", &["delay(10)"]),
    ("serve.write.reset", &["2*return", "1*return"]),
    ("sched.replay.stall", &["delay(5)"]),
];

/// Accumulates the invariant report.
struct Report {
    text: String,
    passed: u32,
    failed: u32,
}

impl Report {
    fn new(seed: u64) -> Report {
        Report {
            text: format!("chaos-replay seed={seed}\n"),
            passed: 0,
            failed: 0,
        }
    }

    fn line(&mut self, s: &str) {
        writeln!(self.text, "{s}").unwrap();
    }

    fn check(&mut self, name: &str, ok: bool, detail: &str) {
        let verdict = if ok {
            self.passed += 1;
            "PASS"
        } else {
            self.failed += 1;
            "FAIL"
        };
        if detail.is_empty() {
            writeln!(self.text, "invariant {name}: {verdict}").unwrap();
        } else {
            writeln!(self.text, "invariant {name}: {verdict} ({detail})").unwrap();
        }
    }

    fn finish(mut self) -> String {
        writeln!(
            self.text,
            "summary: {} invariants, {} passed, {} failed",
            self.passed + self.failed,
            self.passed,
            self.failed
        )
        .unwrap();
        self.text
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dagscope_chaos_replay_{tag}_{}",
        std::process::id()
    ))
}

/// Ingest under fire: quarantine accounting stays exact, the streamed
/// scan agrees with the sequential reader, and injected IO faults surface
/// as errors instead of silently short trails.
fn phase_ingest(report: &mut Report, seed: u64) -> Result<(), CliError> {
    report.line("phase ingest:");
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: 300,
        seed,
        emit_instances: false,
        ..Default::default()
    })
    .generate();
    let mut bytes = Vec::new();
    csv::write_tasks(&mut bytes, &trace.tasks).map_err(|e| CliError::Run(e.to_string()))?;

    // Tear every 53rd row in half so the quarantine has real work.
    let mut corrupt = Vec::with_capacity(bytes.len());
    for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        let keep = if i % 53 == 13 {
            line.len() / 2
        } else {
            line.len()
        };
        corrupt.extend_from_slice(&line[..keep]);
        corrupt.push(b'\n');
    }
    let policy = ReadPolicy::Quarantine { max_bad: 1_000 };
    let scan = || {
        StreamedTrace::scan(
            Cursor::new(&corrupt[..]),
            &policy,
            &SampleCriteria::default(),
        )
    };

    let (rows_seq, q_seq) = csv::read_tasks_with_policy(BufReader::new(&corrupt[..]), &policy)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let streamed = scan().map_err(|e| CliError::Run(e.to_string()))?;
    let q_stream = streamed.quarantine();
    report.line(&format!(
        "  rows_total={} rows_good={} quarantined={}",
        q_seq.rows_total,
        q_seq.rows_good,
        q_seq.rows.len()
    ));
    report.check(
        "quarantine_accounting_sequential",
        q_seq.rows_good + q_seq.rows.len() == q_seq.rows_total && !q_seq.rows.is_empty(),
        "rows_good + quarantined == rows_total",
    );
    report.check(
        "quarantine_accounting_streamed",
        q_stream.rows_good + q_stream.rows.len() == q_stream.rows_total,
        "rows_good + quarantined == rows_total",
    );
    let suspects: BTreeSet<String> = q_seq
        .suspect_jobs()
        .keys()
        .map(|name| name.to_string())
        .collect();
    report.check(
        "streamed_equals_sequential",
        *q_stream == q_seq && *streamed.suspects() == suspects,
        "streamed scan reports the sequential reader's quarantine and suspect jobs",
    );

    // A read error at a seed-chosen line must abort the streamed scan —
    // never shorten it silently.
    let lines = corrupt.iter().filter(|&&b| b == b'\n').count() as u64;
    let target = (dagscope_faults::splitmix64(seed) >> 16) % lines.max(1);
    dagscope_faults::configure("trace.read.line_io", &format!("{target}>1*return"))
        .map_err(CliError::Run)?;
    let scanned = scan();
    dagscope_faults::reset();
    report.check(
        "injected_line_io_aborts_streamed_scan",
        scanned.is_err(),
        "line-level IO error surfaces as Err from the streamed scan",
    );

    // Same for a per-line read error in the sequential reader.
    let skip = dagscope_faults::splitmix64(seed ^ 1) % 200;
    dagscope_faults::configure("trace.read.line_io", &format!("{skip}>1*return"))
        .map_err(CliError::Run)?;
    let seq = csv::read_tasks_with_policy(BufReader::new(&corrupt[..]), &policy);
    dagscope_faults::reset();
    report.check(
        "injected_line_io_aborts_read",
        seq.is_err(),
        "line-level IO error surfaces as Err",
    );

    // A short read (EOF mid-file) completes cleanly with fewer rows and
    // exact accounting over what was seen.
    dagscope_faults::configure("trace.read.short_read", &format!("{skip}>1*return"))
        .map_err(CliError::Run)?;
    let short = csv::read_tasks_with_policy(BufReader::new(&corrupt[..]), &policy);
    dagscope_faults::reset();
    let ok = match &short {
        Ok((rows, q)) => rows.len() <= rows_seq.len() && q.rows_good + q.rows.len() == q.rows_total,
        Err(_) => false,
    };
    report.check(
        "short_read_keeps_accounting_exact",
        ok,
        "truncated stream still satisfies rows_good + quarantined == rows_total",
    );
    Ok(())
}

/// Snapshot durability under injected rename failures, torn section
/// writes, and checksum bit rot.
fn phase_snapshot(
    report: &mut Report,
    old: &IndexSnapshot,
    new: &IndexSnapshot,
) -> Result<(), CliError> {
    report.line("phase snapshot:");
    let dir = scratch_dir("snap");
    std::fs::remove_dir_all(&dir).ok();
    for ext in ["staging", "old"] {
        std::fs::remove_dir_all(dir.with_extension(ext)).ok();
    }
    let io = |e: SnapshotError| CliError::Run(e.to_string());
    old.save(&dir).map_err(io)?;

    // Swap-out rename dies: the error is reported, the previous snapshot
    // is still what loads.
    dagscope_faults::configure("snapshot.save.rename", "1*return").map_err(CliError::Run)?;
    let r1 = new.save(&dir);
    dagscope_faults::reset();
    report.check(
        "rename_failure_keeps_previous",
        matches!(r1, Err(SnapshotError::Io { .. }))
            && IndexSnapshot::load(&dir).as_ref() == Ok(old),
        "failed swap-out leaves the old snapshot loadable",
    );

    // Commit rename dies: the rollback path must restore the previous
    // snapshot from its `.old` parking spot.
    dagscope_faults::configure("snapshot.save.rename", "1>1*return").map_err(CliError::Run)?;
    let r2 = new.save(&dir);
    dagscope_faults::reset();
    report.check(
        "commit_failure_rolls_back",
        matches!(r2, Err(SnapshotError::Io { .. }))
            && IndexSnapshot::load(&dir).as_ref() == Ok(old),
        "failed commit restores the old snapshot",
    );

    // A torn section write fails the save before anything is swapped.
    dagscope_faults::configure("snapshot.save.torn_section", "2>1*return")
        .map_err(CliError::Run)?;
    let r3 = new.save(&dir);
    dagscope_faults::reset();
    report.check(
        "torn_section_keeps_previous",
        matches!(r3, Err(SnapshotError::Io { .. }))
            && IndexSnapshot::load(&dir).as_ref() == Ok(old),
        "half-written section never reaches the live directory",
    );

    // Checksum bit rot commits "fine" but load must name the section.
    dagscope_faults::configure("snapshot.save.crc_flip", "1*return").map_err(CliError::Run)?;
    let r4 = new.save(&dir);
    dagscope_faults::reset();
    let corrupt_named = match (r4, IndexSnapshot::load(&dir)) {
        (Ok(()), Err(SnapshotError::Corrupt { section, .. })) => {
            report.line(&format!("  crc flip rejected, section={section}"));
            true
        }
        _ => false,
    };
    report.check(
        "crc_flip_rejected_naming_section",
        corrupt_named,
        "load refuses bit rot with Corrupt naming the section",
    );

    // And with the faults quiet the next save commits over the debris.
    let clean = new.save(&dir).is_ok() && IndexSnapshot::load(&dir).as_ref() == Ok(new);
    report.check(
        "clean_save_commits",
        clean,
        "recovery save succeeds after the storm",
    );

    std::fs::remove_dir_all(&dir).ok();
    for ext in ["staging", "old"] {
        std::fs::remove_dir_all(dir.with_extension(ext)).ok();
    }
    Ok(())
}

/// The serve storm: the seeded plan arms stalls, handler panics, pool
/// panics and mid-response resets; a retrying client barrage must ride
/// it out with exact panic accounting and a bounded drain.
fn phase_serve(report: &mut Report, seed: u64, snapshot: IndexSnapshot) -> Result<(), CliError> {
    report.line("phase serve:");
    let plan = dagscope_faults::plan_from_seed(seed, STORM_MENU);
    report.line("  storm schedule:");
    for (site, _) in STORM_MENU {
        match plan.iter().find(|e| e.site == *site) {
            Some(e) => report.line(&format!("    {site} = {}", e.spec)),
            None => report.line(&format!("    {site} = quiet")),
        }
    }

    let index = dagscope_serve::ServeIndex::build(snapshot).map_err(CliError::Run)?;
    let config = dagscope_serve::ServerConfig {
        threads: 2,
        drain_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    let server = dagscope_serve::Server::bind_with(index, "127.0.0.1:0", config)?;
    let addr = server.local_addr()?;
    let handle = server.handle()?;
    let join = std::thread::spawn(move || server.run());
    let policy = dagscope_serve::RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(200),
        seed,
    };
    const BODY: &str = concat!(
        "{\"job_name\":\"probe\",\"tasks\":[",
        "\"M1,2,probe,1,Terminated,1,10,100,0.5\",",
        "\"R2_1,1,probe,1,Terminated,10,20,50,0.25\"]}"
    );

    dagscope_faults::apply_plan(&plan).map_err(CliError::Run)?;
    let mut completed = 0u32;
    let mut faulted_500 = 0u32;
    for i in 0..12 {
        let path = if i % 2 == 0 {
            "/v1/classify"
        } else {
            "/v1/advise"
        };
        if let Ok(r) = dagscope_serve::client::post(addr, path, BODY, &policy) {
            completed += 1;
            if r.status == 500 {
                faulted_500 += 1;
            }
        }
    }
    // Registry tallies must be read before the reset wipes them.
    let mut fired_lines = Vec::new();
    for (site, _) in STORM_MENU {
        let fired = dagscope_faults::fired(site);
        if fired > 0 {
            fired_lines.push(format!("    {site} fired={fired}"));
        }
    }
    dagscope_faults::reset();
    report.line(&format!(
        "  barrage: completed={completed}/12 faulted_500={faulted_500}"
    ));
    report.line("  sites fired:");
    for l in fired_lines {
        report.line(&l);
    }
    report.check(
        "client_rides_out_storm",
        completed >= 10,
        "retrying client completes the barrage",
    );

    let metrics = dagscope_serve::client::get(addr, "/metrics", &policy)
        .map_err(|e| CliError::Run(e.to_string()))?;
    let parsed = dagscope_serve::Json::parse(&metrics.body).map_err(CliError::Run)?;
    let transport = parsed
        .get("transport")
        .ok_or_else(|| CliError::Run("metrics missing transport".into()))?;
    let num = |v: Option<&dagscope_serve::Json>| v.and_then(|j| j.as_num()).unwrap_or(-1.0);
    let total = num(transport.get("panics_total"));
    let cause = transport.get("panics_by_cause");
    let injected = num(cause.and_then(|c| c.get("injected")));
    let organic = num(cause.and_then(|c| c.get("organic")));
    report.line(&format!(
        "  panics: total={total} injected={injected} organic={organic}"
    ));
    report.check(
        "panic_causes_exhaustive",
        total >= 0.0 && total == injected + organic && organic == 0.0,
        "panics_total == injected + organic, all storm panics labelled injected",
    );
    let health = dagscope_serve::client::get(addr, "/healthz", &policy);
    report.check(
        "server_healthy_after_storm",
        matches!(health, Ok(r) if r.status == 200),
        "healthz answers 200 once the storm quiets",
    );

    let drain_started = std::time::Instant::now();
    handle.shutdown();
    join.join()
        .map_err(|_| CliError::Run("server thread panicked".into()))??;
    report.check(
        "drain_bounded",
        drain_started.elapsed() < Duration::from_secs(10),
        "graceful drain finishes inside its bound",
    );
    Ok(())
}

/// Replay under fire: an injected abort is a clean error, injected
/// stalls change nothing, and the clean run is deterministic.
fn phase_sched(report: &mut Report, seed: u64) -> Result<(), CliError> {
    report.line("phase sched-replay:");
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: 60,
        seed,
        emit_instances: false,
        ..Default::default()
    })
    .generate();
    let jobset = trace.job_set();
    let workload = workload_from_jobs(jobset.jobs(), 40);
    let cfg = SimConfig {
        cluster: ClusterConfig {
            machines: 8,
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        },
        arrival_compression: 2_000.0,
        online_load: None,
        evict_for_online: false,
    };
    report.line(&format!("  replaying {} jobs", workload.jobs.len()));

    dagscope_faults::configure("sched.replay.abort", "1*return").map_err(CliError::Run)?;
    let aborted = replay(&cfg, &workload.jobs, &[Policy::Fifo]);
    dagscope_faults::reset();
    report.check(
        "injected_abort_is_clean_error",
        aborted == Err("injected replay abort".to_string()),
        "replay reports the injected abort verbatim",
    );

    let clean = replay(&cfg, &workload.jobs, &[Policy::Fifo]).map_err(CliError::Run)?;
    dagscope_faults::configure("sched.replay.stall", "delay(5)").map_err(CliError::Run)?;
    let stalled = replay(&cfg, &workload.jobs, &[Policy::Fifo]).map_err(CliError::Run)?;
    dagscope_faults::reset();
    report.check(
        "stall_does_not_change_results",
        stalled == clean,
        "wall-clock stalls leave the simulated outcome untouched",
    );
    let again = replay(&cfg, &workload.jobs, &[Policy::Fifo]).map_err(CliError::Run)?;
    report.check(
        "replay_deterministic",
        again == clean,
        "two clean replays produce identical reports",
    );
    Ok(())
}

/// Entry point for the `chaos-replay` subcommand.
pub fn cmd_chaos_replay(flags: &Flags) -> Result<String, CliError> {
    let seed = flags.get_or("seed", 7u64, "a seed")?;
    dagscope_faults::reset();
    // Injected panics are part of the plan; keep their backtraces out of
    // stderr so the only output is the deterministic report. Organic
    // panics still print through the saved hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !dagscope_faults::is_injected_panic(info.payload()) {
            prev(info);
        }
    }));
    let mut report = Report::new(seed);

    phase_ingest(&mut report, seed)?;

    // One pipeline pair feeds both the snapshot torture and the server.
    let old = Pipeline::new(PipelineConfig {
        jobs: 200,
        sample: 16,
        seed,
        ..Default::default()
    })
    .run()
    .map_err(CliError::Run)?;
    let new = Pipeline::new(PipelineConfig {
        jobs: 240,
        sample: 20,
        seed: seed ^ 0xD06F00D,
        ..Default::default()
    })
    .run()
    .map_err(CliError::Run)?;
    let old_snap = IndexSnapshot::from_report(&old).map_err(|e| CliError::Run(e.to_string()))?;
    let new_snap = IndexSnapshot::from_report(&new).map_err(|e| CliError::Run(e.to_string()))?;
    phase_snapshot(&mut report, &old_snap, &new_snap)?;
    phase_serve(&mut report, seed, new_snap)?;
    phase_sched(&mut report, seed)?;

    let failed = report.failed;
    let text = report.finish();
    if failed > 0 {
        return Err(CliError::Run(format!(
            "{text}chaos-replay: {failed} invariant(s) FAILED"
        )));
    }
    Ok(text)
}
