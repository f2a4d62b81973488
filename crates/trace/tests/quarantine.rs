//! Fault-injection property suite for lossy ingestion: quarantine mode
//! must (a) collapse to the strict reader when the budget is zero,
//! (b) keep its accounting invariant under every scan-buffer split, and
//! (c) divert exactly the bad rows — the good rows must equal a strict
//! read of the document with the bad lines deleted, and every report
//! entry must point (line and byte offset) at the real offending line.
//! Every streamed scan runs with its steps on one thread and on two, each
//! of the two threads parsing, and the runs must agree.

use proptest::prelude::*;

use dagscope_trace::{csv, ReadPolicy};

mod common;
use common::scan;

/// One random document line. `kinds` controls the mix:
/// * `..=4` — valid task rows (several spellings) and blank lines;
/// * `5..=7` — malformed rows (field count under/over, bad number);
/// * `8` — impossible timestamps (`end < start`, both positive), which
///   only the quarantine policy rejects.
fn task_line(kinds: u8) -> impl Strategy<Value = String> {
    (0u8..kinds, 1u32..6, 1i64..500).prop_map(|(kind, k, t)| match kind {
        0 => String::new(),
        1 => format!("task_x{k},1,j_{t},1,Terminated,{t},{},50.0,0.5", t + 9),
        2 => format!("M{k},2,j_{t},2,Terminated,{t},{},100.0,0.25", t + 4),
        3 => format!("R{}_{k},1,j_{t},3,Failed,{t},{},75.5,0.125", k + 1, t + 7),
        4 => format!("J{}_{k}_{k},4,j_{t},12,Running,{t},0,25.0,0.0625", k + 2),
        5 => format!("M{k},1,j_{t}"),
        6 => format!(
            "M{k},1,j_{t},1,Terminated,{t},{},1.0,0.5,extra,fields",
            t + 1
        ),
        7 => format!("M{k},notanum,j_{t},1,Terminated,{t},{},1.0,0.5", t + 2),
        _ => format!("M{k},1,j_{t},1,Terminated,{},{t},1.0,0.5", t + 50),
    })
}

fn assemble(lines: &[String], crlf: bool, trailing_newline: bool) -> String {
    let sep = if crlf { "\r\n" } else { "\n" };
    let mut doc = lines.join(sep);
    if trailing_newline && !doc.is_empty() {
        doc.push_str(sep);
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Quarantine { max_bad: 0 }` is observationally identical to
    /// `Strict` — same rows, same first error. (Generator excludes the
    /// impossible-timestamp family, which strict mode deliberately does
    /// not police.)
    #[test]
    fn zero_budget_quarantine_equals_strict(
        lines in prop::collection::vec(task_line(8), 0..24),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
    ) {
        let doc = assemble(&lines, crlf, trailing_newline);
        let zero = ReadPolicy::Quarantine { max_bad: 0 };
        let strict = csv::read_tasks(doc.as_bytes());
        let quarantined = csv::read_tasks_with_policy(doc.as_bytes(), &zero);
        match (&strict, &quarantined) {
            (Ok(rows), Ok((q_rows, report))) => {
                prop_assert_eq!(rows, q_rows);
                prop_assert!(report.is_clean());
            }
            (Err(e), Err(qe)) => prop_assert_eq!(e, qe),
            other => prop_assert!(false, "strict/quarantine diverged: {:?}", other),
        }
    }

    /// `rows_good + rows_quarantined == rows_total` on every input, and
    /// the streamed scan reproduces the sequential report — entries,
    /// line numbers, byte offsets — at every scan-buffer capacity.
    #[test]
    fn accounting_invariant_survives_every_buffer_split(
        lines in prop::collection::vec(task_line(9), 0..20),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
    ) {
        let doc = assemble(&lines, crlf, trailing_newline);
        let policy = ReadPolicy::Quarantine { max_bad: usize::MAX };
        let (rows, report) =
            csv::read_tasks_with_policy(doc.as_bytes(), &policy).expect("unbounded budget");
        prop_assert_eq!(report.rows_good + report.rows_quarantined(), report.rows_total);
        prop_assert_eq!(rows.len(), report.rows_good);
        for cap in 1..=doc.len() + 1 {
            let streamed = scan(doc.as_bytes(), &policy, cap).expect("unbounded budget");
            prop_assert_eq!(streamed.quarantine(), &report, "cap={}", cap);
        }
    }

    /// The rows that survive quarantine are exactly a strict read of the
    /// document with the quarantined lines deleted, and every report
    /// entry's line number / byte offset / excerpt locates the true
    /// offending line in the original document.
    #[test]
    fn quarantine_diverts_exactly_the_bad_lines(
        lines in prop::collection::vec(task_line(9), 0..20),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
    ) {
        let doc = assemble(&lines, crlf, trailing_newline);
        let policy = ReadPolicy::Quarantine { max_bad: usize::MAX };
        let (rows, report) =
            csv::read_tasks_with_policy(doc.as_bytes(), &policy).expect("unbounded budget");

        let bytes = doc.as_bytes();
        for entry in &report.rows {
            // Line numbers are 1-based over all lines, so entry.line
            // indexes straight back into the source line list.
            let source = &lines[entry.line - 1];
            prop_assert_eq!(source, &entry.excerpt);
            // The byte offset must point at the start of that raw line.
            let start = entry.byte_offset as usize;
            prop_assert!(bytes[start..].starts_with(source.as_bytes()),
                "offset {} does not start line {:?}", start, source);
        }

        let bad: std::collections::BTreeSet<usize> =
            report.rows.iter().map(|r| r.line - 1).collect();
        let cleaned: Vec<String> = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !bad.contains(i))
            .map(|(_, l)| l.clone())
            .collect();
        let cleaned_doc = assemble(&cleaned, crlf, trailing_newline);
        let strict_rows =
            csv::read_tasks(cleaned_doc.as_bytes()).expect("cleaned doc must be strict-valid");
        prop_assert_eq!(rows, strict_rows);
    }

    /// The instance reader honors the same contract (shared plumbing, but
    /// the policy threading is per-reader, so pin it too).
    #[test]
    fn instance_reader_accounts_identically(
        good in prop::collection::vec(1u32..9, 1..10),
        bad_at in 0usize..10,
    ) {
        let mut lines: Vec<String> = good
            .iter()
            .map(|k| format!(
                "inst_{k},M{k},j_{k},1,Terminated,{k},{},m_{k},1,1,40.0,80.0,0.1,0.2",
                k + 3
            ))
            .collect();
        lines.insert(bad_at.min(lines.len()), "inst_x,Mx,j_x,1,Terminated,1".to_string());
        let doc = assemble(&lines, false, true);
        let policy = ReadPolicy::Quarantine { max_bad: 4 };
        let (rows, report) =
            csv::read_instances_with_policy(doc.as_bytes(), &policy).expect("within budget");
        prop_assert_eq!(report.rows_quarantined(), 1);
        prop_assert_eq!(rows.len(), report.rows_good);
        prop_assert_eq!(report.rows_good + 1, report.rows_total);
    }
}

/// Budget overflow degrades to the strict contract: the error is the
/// first *unbudgeted* bad row with its true document line number, under
/// both the sequential reader and the streamed scan.
#[test]
fn over_budget_reports_the_overflowing_line() {
    let doc = "\
M1,1,j_a,1,Terminated,1,2,1.0,0.5
bad,row
M2,1,j_b,1,Terminated,1,2,1.0,0.5
also,bad
M3,1,j_c,1,Terminated,1,2,1.0,0.5
";
    let policy = ReadPolicy::Quarantine { max_bad: 1 };
    let seq = csv::read_tasks_with_policy(doc.as_bytes(), &policy).unwrap_err();
    assert!(seq.to_string().contains("line 4"), "{seq}");
    for cap in 1..=doc.len() + 1 {
        let streamed = scan(doc.as_bytes(), &policy, cap)
            .err()
            .expect("over budget");
        assert_eq!(seq, streamed, "cap={cap}");
    }
}
