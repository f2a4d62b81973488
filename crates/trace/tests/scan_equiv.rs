//! Differential fuzz tests: the zero-copy SWAR reader and the streamed
//! scan must be bit-identical to the scalar oracle decoder — same records
//! (float bit patterns included), same quarantine rows with the same byte
//! offsets and excerpts, same error variants at the same line — on
//! arbitrary byte soup: embedded NULs, invalid UTF-8, `\r\n` endings,
//! trailing delimiters, empty and overlong fields, numeric edge shapes,
//! and buffer splits at every boundary, with the streamed scan's steps on
//! one thread and on two, each of the two threads parsing.

use std::collections::BTreeSet;
use std::io::Cursor;

use proptest::prelude::*;

use dagscope_trace::stats::TraceStats;
use dagscope_trace::{csv, JobSet, ReadPolicy};

mod common;
use common::{at_every_run, Run};

/// A field value aimed at the numeric fast paths and their bail-outs.
fn num_field(kind: u8, a: u64, b: u64) -> String {
    match kind {
        0 => format!("{a}"),
        1 => format!("-{a}"),
        2 => format!("{a}.{b}"),
        3 => format!("-{a}.{b}"),
        // Shapes the fast path must reject and the oracle defines:
        4 => format!("{a}e{}", b % 10), // exponent
        5 => format!("+{a}"),           // explicit plus
        6 => format!("{a}."),           // trailing dot
        7 => format!(".{b}"),           // leading dot
        8 => format!("{a}{b:019}"),     // overlong digit run
        9 => "inf".to_string(),
        10 => "nan".to_string(),
        11 => String::new(),          // empty -> column default
        12 => format!("0{a:09}"),     // leading zeros
        13 => format!("{a}.{b:015}"), // 15+ fractional digits
        _ => format!(" {a}"),         // leading space
    }
}

/// One mostly-plausible task row built from small generators. Many are
/// valid; the rest probe exactly the edges where fast and slow parsing
/// could diverge.
fn task_row(name_kind: u8, status_kind: u8, nums: &[(u8, u64, u64)]) -> String {
    let task_name = match name_kind {
        0 => "M1",
        1 => "R2_1",
        2 => "J3_1_2",
        3 => "task_xyz",
        4 => "",
        _ => "Stg5_4_3",
    };
    let status = match status_kind {
        0 => "Terminated",
        1 => "Running",
        2 => "Failed",
        3 => "Waiting",
        4 => "",
        _ => "Bogus",
    };
    let n = |i: usize| {
        nums.get(i)
            .map(|&(k, a, b)| num_field(k, a, b))
            .unwrap_or_default()
    };
    format!(
        "{task_name},{},j_{},{},{status},{},{},{},{}",
        n(0),
        n(1).replace(',', "_"),
        n(2),
        n(3),
        n(4),
        n(5),
        n(6)
    )
}

/// A 14-field instance row sharing the same numeric edge generator.
fn instance_row(status_kind: u8, nums: &[(u8, u64, u64)]) -> String {
    let status = match status_kind {
        0 => "Terminated",
        1 => "Running",
        _ => "Failed",
    };
    let n = |i: usize| {
        nums.get(i)
            .map(|&(k, a, b)| num_field(k, a, b))
            .unwrap_or_default()
    };
    format!(
        "inst_1,M1,j_77,1,{status},{},{},m_42,{},{},{},{},{},{}",
        n(0),
        n(1),
        n(2),
        n(3),
        n(4),
        n(5),
        n(6),
        n(7)
    )
}

/// One drawn document segment, encoded as a flat tuple (the vendored
/// proptest stub has no `prop_oneof!`): a selector tag plus every field
/// any variant needs.
type SegDraw = (u8, u8, u8, Vec<(u8, u64, u64)>, usize, u8, Vec<u8>);

fn segment_strategy() -> impl Strategy<Value = SegDraw> {
    (
        0u8..16,
        0u8..6,
        0u8..6,
        prop::collection::vec((0u8..15, 0u64..1_000_000, 0u64..1_000_000), 0..8),
        any::<usize>(),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..24),
    )
}

/// Assemble a document from drawn segments: rows, single-byte-mutated
/// rows (which can hit any byte with any value, including NUL and invalid
/// UTF-8), raw byte soup, and every line-ending flavor.
fn build_doc(segments: &[SegDraw]) -> Vec<u8> {
    let mut doc = Vec::new();
    for (tag, name_kind, status_kind, nums, pos, byte, soup) in segments {
        match tag {
            0..=4 => {
                doc.extend_from_slice(task_row(*name_kind, *status_kind, nums).as_bytes());
                doc.push(b'\n');
            }
            5..=6 => {
                doc.extend_from_slice(instance_row(*status_kind, nums).as_bytes());
                doc.push(b'\n');
            }
            7..=8 => {
                let mut row = task_row(*name_kind, *status_kind, nums).into_bytes();
                if !row.is_empty() {
                    let at = pos % row.len();
                    row[at] = *byte;
                }
                doc.extend_from_slice(&row);
                doc.push(b'\n');
            }
            9 => doc.extend_from_slice(soup),
            10..=13 => doc.push(b'\n'),
            14 => doc.extend_from_slice(b"\r\n"),
            _ => doc.push(b'\r'),
        }
    }
    // Roughly half the documents end without a trailing newline: pop one
    // off when the last segment supplied it and the first draw is odd.
    if doc.last() == Some(&b'\n') && segments.len() % 2 == 1 {
        doc.pop();
    }
    doc
}

fn policy_of(kind: u8) -> ReadPolicy {
    match kind {
        0 => ReadPolicy::Strict,
        k => ReadPolicy::Quarantine {
            max_bad: (k as usize - 1) * 3,
        },
    }
}

/// The SWAR task reader agrees with the scalar oracle, bitwise.
fn check_tasks(doc: &[u8], policy: &ReadPolicy, cap: usize) {
    let oracle = csv::read_tasks_scalar_with_policy(doc, policy);
    let got = csv::read_tasks_buffered_with_policy(doc, cap, policy);
    match (&oracle, &got) {
        (Err(want), Err(have)) => assert_eq!(have, want, "error"),
        (Ok((want_rows, want_q)), Ok((rows, q))) => {
            // Debug formatting distinguishes float bit patterns that
            // PartialEq would conflate (-0.0, NaN payloads).
            assert_eq!(rows.len(), want_rows.len(), "row count");
            assert_eq!(format!("{rows:?}"), format!("{want_rows:?}"), "rows");
            assert_eq!(q, want_q, "quarantine");
            assert_eq!(
                q.rows_good + q.rows_quarantined(),
                q.rows_total,
                "accounting invariant"
            );
        }
        (want, have) => panic!("oracle {want:?} vs scanner {have:?}"),
    }
}

/// The SWAR instance reader agrees with the scalar oracle, bitwise.
fn check_instances(doc: &[u8], policy: &ReadPolicy) {
    let oracle = csv::read_instances_scalar_with_policy(doc, policy);
    let got = csv::read_instances_with_policy(doc, policy);
    match (&oracle, &got) {
        (Err(want), Err(have)) => assert_eq!(have, want, "error"),
        (Ok((want_rows, want_q)), Ok((rows, q))) => {
            assert_eq!(format!("{rows:?}"), format!("{want_rows:?}"), "rows");
            assert_eq!(q, want_q, "quarantine");
        }
        (want, have) => panic!("oracle {want:?} vs scanner {have:?}"),
    }
}

/// The streamed scan at every refill capacity agrees with the scalar
/// oracle: the same first error, or the same quarantine report and suspect
/// set, with replayed jobs and statistics equal to grouping the oracle's
/// rows after dropping every row of a suspect job — every way the scan
/// may run, so the runs agree with each other.
fn check_stream(doc: &[u8], policy: &ReadPolicy, cap: usize) {
    at_every_run(|run| check_stream_at(doc, policy, cap, run));
}

fn check_stream_at(doc: &[u8], policy: &ReadPolicy, cap: usize, run: Run) {
    let oracle = csv::read_tasks_scalar_with_policy(doc, policy);
    let streamed = run.scan(Cursor::new(doc), policy, cap);
    match (oracle, streamed) {
        (Err(want), Err(have)) => assert_eq!(have, want),
        (Ok((rows, want_q)), Ok(mut have)) => {
            assert_eq!(have.quarantine(), &want_q);
            let suspects: BTreeSet<String> = want_q
                .suspect_jobs()
                .keys()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(have.suspects(), &suspects);
            let want_set = JobSet::from_tasks(
                rows.into_iter()
                    .filter(|t| !suspects.contains(t.job_name.as_str())),
            );
            // Debug formatting distinguishes float bit patterns that
            // PartialEq would conflate (-0.0, NaN payloads).
            let have_set = have.materialize_all().unwrap();
            assert_eq!(format!("{have_set:?}"), format!("{want_set:?}"));
            assert_eq!(
                format!("{:?}", have.stats()),
                format!("{:?}", TraceStats::compute(&want_set))
            );
        }
        (want, have) => panic!(
            "stream: oracle ok={:?} vs scan ok={:?}",
            want.is_ok(),
            have.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Task decoding: the SWAR reader is bitwise equal to the scalar
    /// oracle on arbitrary byte soup.
    #[test]
    fn task_routes_match_scalar_oracle(
        segments in prop::collection::vec(segment_strategy(), 0..24),
        policy_kind in 0u8..4,
        cap in 1usize..48,
    ) {
        let doc = build_doc(&segments);
        check_tasks(&doc, &policy_of(policy_kind), cap);
    }

    /// Instance decoding: same property over the 14-field schema.
    #[test]
    fn instance_routes_match_scalar_oracle(
        segments in prop::collection::vec(segment_strategy(), 0..24),
        policy_kind in 0u8..4,
    ) {
        let doc = build_doc(&segments);
        check_instances(&doc, &policy_of(policy_kind));
    }

    /// The streamed single-pass scan, forward pass and byte-range replay
    /// alike, agrees with the scalar oracle at every refill capacity.
    #[test]
    fn streamed_scan_matches_scalar_oracle(
        segments in prop::collection::vec(segment_strategy(), 0..24),
        policy_kind in 0u8..4,
        cap in 1usize..48,
    ) {
        let doc = build_doc(&segments);
        check_stream(&doc, &policy_of(policy_kind), cap);
    }
}

/// Deterministic edge-case sweep: split points at every buffer boundary
/// of a document hitting every framing pathology at once.
#[test]
fn buffer_splits_at_every_boundary() {
    let doc: &[u8] = b"M1,2,j_1,1,Terminated,10,50,100.0,0.5\r\n\
        \xFF\xFEbad utf8,line\n\
        \n\
        R2_1,1,j_1,1,Running,11,0,50.0,0.25\n\
        task_z,1,j\x002,1,Failed,5,9,25.0,\n\
        M3,1,j_3,1,Terminated,1,2,1e3,0.125\n\
        trailing,unterminated,j_4,1,Waiting,1,2,3,4";
    let policy = ReadPolicy::Quarantine { max_bad: 16 };
    let (want_rows, want_q) = csv::read_tasks_scalar_with_policy(doc, &policy).unwrap();
    for cap in 1..=doc.len() + 1 {
        let (rows, q) = csv::read_tasks_buffered_with_policy(doc, cap, &policy).unwrap();
        assert_eq!(format!("{rows:?}"), format!("{want_rows:?}"), "cap {cap}");
        assert_eq!(q, want_q, "cap {cap}");
        check_stream(doc, &policy, cap);
    }
    let (_, q) = csv::read_tasks_with_policy(doc, &policy).unwrap();
    // Quarantine byte offsets and excerpts survive the SWAR scanner: the
    // oracle's offsets are authoritative and the comparison above pinned
    // them; spot-check they actually point into the document.
    assert!(!q.rows.is_empty(), "the pathological doc quarantines rows");
    for row in &q.rows {
        assert!(row.byte_offset < doc.len() as u64, "{row:?}");
    }
    assert_eq!(q.rows_good + q.rows_quarantined(), q.rows_total);
}
