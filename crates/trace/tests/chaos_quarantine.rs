//! Property tests: quarantine accounting under injected IO faults.
//!
//! The reader contract has two halves. On bytes it *can* read, the
//! accounting is exact — `rows_good + quarantined == rows_total` — and
//! the streamed scan agrees with the sequential reader bit for bit. On
//! bytes it *cannot* read (an IO error mid-line), the read fails loudly;
//! a fault must never surface as a silently shorter trace. This file
//! proves both halves under `dagscope-faults` injection across arbitrary
//! corrupt traces, scan-buffer sizes, and fault lines, and checks that
//! the scan's finalize-time corrections (straggler merges and suspect
//! retractions) leave it equal to the batch read. Every streamed scan
//! runs with its steps on one thread and on two, each of the two threads
//! parsing, and the runs must agree, injected faults included.
//!
//! Build with `--features failpoints`; the whole file vanishes without
//! the feature.
#![cfg(feature = "failpoints")]

use std::collections::BTreeSet;
use std::io::{BufReader, Cursor};
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;

use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::stats::TraceStats;
use dagscope_trace::{csv, JobSet, ReadPolicy};

mod common;
use common::{at_every_run, scan};

/// The failpoint registry is process-global and `reset()` clears every
/// site, so property cases must not interleave across test threads.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A synthetic trace with `corrupt_every`-th non-empty line chopped to
/// at most 5 bytes — guaranteed malformed (too few fields), guaranteed
/// deterministic.
fn corrupt_trace(jobs: usize, seed: u64, corrupt_every: usize) -> (Vec<u8>, usize) {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs,
        seed,
        emit_instances: false,
        ..Default::default()
    })
    .generate();
    let mut bytes = Vec::new();
    csv::write_tasks(&mut bytes, &trace.tasks).unwrap();
    let mut out = Vec::with_capacity(bytes.len());
    let mut corrupted = 0usize;
    for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        if i % corrupt_every == 0 {
            out.extend_from_slice(&line[..line.len().min(5)]);
            corrupted += 1;
        } else {
            out.extend_from_slice(line);
        }
        out.push(b'\n');
    }
    (out, corrupted)
}

/// A synthetic trace that forces every finalize-time correction, and the
/// number of jobs its bad rows implicate. Job block `i`, by `i % every`:
/// 1 moves its first row to the end of the file (a straggler), and every
/// other such block also gets a bad row after it there (a dead job that
/// is also split); 2 gets a bad row inside its block (the open job is
/// dropped); 0 gets a bad row at the end of the file (a closed job
/// retracted). A bad row keeps its job's name and fails to parse.
fn displaced_trace(jobs: usize, seed: u64, every: usize) -> (Vec<u8>, usize) {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs,
        seed,
        emit_instances: false,
        ..Default::default()
    })
    .generate();
    let mut bytes = Vec::new();
    csv::write_tasks(&mut bytes, &trace.tasks).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let mut blocks: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        let job = line.split(',').nth(2).unwrap();
        match blocks.last_mut() {
            Some((name, rows)) if *name == job => rows.push(line),
            _ => blocks.push((job, vec![line])),
        }
    }
    let bad = |job: &str| format!("M1,x,{job},1,Terminated,1,2,3,4\n");
    let (mut head, mut tail) = (String::new(), String::new());
    let mut implicated = BTreeSet::new();
    for (i, (job, rows)) in blocks.iter().enumerate() {
        let moved = i % every == 1 && rows.len() > 1;
        for (r, row) in rows.iter().enumerate().skip(usize::from(moved)) {
            if i % every == 2 && r == 1 {
                head.push_str(&bad(job));
                implicated.insert(*job);
            }
            head.push_str(row);
            head.push('\n');
        }
        if moved {
            tail.push_str(rows[0]);
            tail.push('\n');
        }
        if i % every == 0 || (moved && i % (2 * every) == 1) {
            tail.push_str(&bad(job));
            implicated.insert(*job);
        }
    }
    head.push_str(&tail);
    (head.into_bytes(), implicated.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Finalize's corrections: the streamed scan of a trace with
    /// stragglers and name-keeping bad rows holds the batch read's jobs,
    /// statistics (bit for bit) and eligible population, every suspect
    /// job stripped.
    #[test]
    fn finalize_corrections_match_the_batch_read(
        jobs in 8usize..40,
        seed in any::<u64>(),
        every in 3usize..9,
        cap in 128usize..2048,
    ) {
        let _g = exclusive();
        dagscope_faults::reset();
        let (data, implicated) = displaced_trace(jobs, seed, every);
        let policy = ReadPolicy::Quarantine { max_bad: usize::MAX };

        let (rows, q_seq) =
            csv::read_tasks_with_policy(BufReader::new(&data[..]), &policy).unwrap();
        let mut streamed = scan(&data, &policy, cap).unwrap();
        prop_assert_eq!(streamed.quarantine(), &q_seq);
        let suspects = q_seq.suspect_jobs();
        prop_assert_eq!(suspects.len(), implicated);
        prop_assert_eq!(streamed.suspects().len(), implicated);

        let set = JobSet::from_tasks(
            rows.into_iter()
                .filter(|t| !suspects.contains_key(t.job_name.as_str())),
        );
        prop_assert_eq!(&streamed.materialize_all().unwrap(), &set);
        let (want, got) = (TraceStats::compute(&set), streamed.stats());
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let sizes: Vec<usize> = SampleCriteria::default()
            .filter(&set)
            .iter()
            .map(|j| j.size())
            .collect();
        prop_assert_eq!(streamed.eligible_sizes(), sizes);
    }

    /// Clean half of the contract: exact accounting, reader agreement,
    /// and every deliberately-mangled row quarantined — for arbitrary
    /// traces, corruption cadences, and scan-buffer sizes.
    #[test]
    fn accounting_exact_and_readers_agree(
        jobs in 3usize..24,
        seed in any::<u64>(),
        corrupt_every in 7usize..40,
        cap in 128usize..2048,
    ) {
        let _g = exclusive();
        dagscope_faults::reset();
        let (data, corrupted) = corrupt_trace(jobs, seed, corrupt_every);
        let policy = ReadPolicy::Quarantine { max_bad: usize::MAX };

        let (_, q_seq) =
            csv::read_tasks_with_policy(BufReader::new(&data[..]), &policy).unwrap();
        let streamed = scan(&data, &policy, cap).unwrap();

        prop_assert_eq!(q_seq.rows_good + q_seq.rows.len(), q_seq.rows_total);
        prop_assert_eq!(q_seq.rows.len(), corrupted);
        prop_assert_eq!(streamed.quarantine(), &q_seq);
    }

    /// Faulted half: a read error on any single line aborts the whole
    /// read, in the sequential reader and the streamed scan alike.
    /// Quarantine diverts *parse* failures only — transport failures must
    /// still be loud.
    #[test]
    fn line_io_error_at_any_line_aborts(
        jobs in 3usize..16,
        seed in any::<u64>(),
        line_frac in 0.0f64..1.0,
    ) {
        let _g = exclusive();
        dagscope_faults::reset();
        let (data, _) = corrupt_trace(jobs, seed, 11);
        let policy = ReadPolicy::Quarantine { max_bad: usize::MAX };
        let lines = data.iter().filter(|&&b| b == b'\n').count();
        prop_assume!(lines > 0);
        let target = ((lines as f64 * line_frac) as usize).min(lines - 1);

        dagscope_faults::configure("trace.read.line_io", &format!("{target}>1*return")).unwrap();
        let result = csv::read_tasks_with_policy(BufReader::new(&data[..]), &policy);
        dagscope_faults::reset();
        prop_assert!(
            result.is_err(),
            "line {target} of {lines} absorbed an injected IO error"
        );

        // Armed afresh for each run: the one-thread scan alternates its
        // steps; with a buffer smaller than the trace the two-thread scan
        // splits on a reader thread of its own, where the fault fires.
        for cap in [1 << 20, 256] {
            let [one, rest @ ..] = at_every_run(|run| {
                dagscope_faults::configure("trace.read.line_io", &format!("{target}>1*return"))
                    .unwrap();
                let streamed = run.scan(Cursor::new(&data[..]), &policy, cap);
                dagscope_faults::reset();
                streamed.err()
            });
            prop_assert!(
                one.is_some(),
                "line {target} of {lines} absorbed an injected IO error in the streamed scan"
            );
            for other in rest {
                prop_assert_eq!(&one, &other);
            }
        }
    }
}
