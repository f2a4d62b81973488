//! Property tests: quarantine accounting under injected IO faults.
//!
//! The reader contract has two halves. On bytes it *can* read, the
//! accounting is exact — `rows_good + quarantined == rows_total` — and
//! the streamed scan agrees with the sequential reader bit for bit. On
//! bytes it *cannot* read (an IO error mid-line), the read fails loudly;
//! a fault must never surface as a silently shorter trace. This file
//! proves both halves under `dagscope-faults` injection across arbitrary
//! corrupt traces, scan-buffer sizes, and fault lines.
//!
//! Build with `--features failpoints`; the whole file vanishes without
//! the feature.
#![cfg(feature = "failpoints")]

use std::io::{BufReader, Cursor};
use std::sync::{Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;

use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::{csv, ReadPolicy};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

        dagscope_faults::configure("trace.read.line_io", &format!("{target}>1*return")).unwrap();
        let streamed = scan(&data, &policy, 1 << 20);
        dagscope_faults::reset();
        prop_assert!(
            streamed.is_err(),
            "line {target} of {lines} absorbed an injected IO error in the streamed scan"
        );
    }
}

/// The streamed scan of `data` with a `cap`-byte scan buffer.
fn scan<'d>(
    data: &'d [u8],
    policy: &ReadPolicy,
    cap: usize,
) -> Result<StreamedTrace<Cursor<&'d [u8]>>, dagscope_trace::TraceError> {
    StreamedTrace::scan_with_buffer(Cursor::new(data), policy, &SampleCriteria::default(), cap)
}
