//! Property tests: the streaming engine is observationally identical to
//! the batch path — same grouped jobs, same exact statistics, same
//! quarantine accounting, same filter verdicts, same stratified sample,
//! and row-table replays of the sample and of the whole eligible
//! population that hold what the batch-filtered jobs do — for random
//! documents mixing contiguous job blocks, out-of-order straggler rows,
//! malformed rows (which implicate their job), blank lines, and every
//! buffer capacity from 1 byte up, with the scan's steps on one thread and
//! on two, each of the two threads parsing.

use std::collections::BTreeSet;
use std::io::Cursor;

use proptest::prelude::*;

use dagscope_trace::filter::{self, SampleCriteria};
use dagscope_trace::stats::TraceStats;
use dagscope_trace::stream::{RowAttrs, SampleJob};
use dagscope_trace::{csv, Job, JobSet, ReadPolicy};

mod common;
use common::{at_every_run, Run};

/// One valid task row for `name`. Kind 5 has zeroed times/resources so the
/// job fails the availability gate — the filter paths must agree on it.
fn row_line(name: &str, kind: u8, k: u32, t: i64) -> String {
    match kind {
        0 => format!("M{k},2,{name},1,Terminated,{t},{},100.0,0.5", t + 40),
        1 => format!(
            "R{}_{k},1,{name},3,Terminated,{t},{},75.5,0.125",
            k + 1,
            t + 9
        ),
        2 => format!("task_z{k},1,{name},1,Running,{t},0,50.0,0.5"),
        3 => format!("M{k},1,{name},1,Failed,{t},{},25.0,0.25", t + 3),
        4 => format!(
            "J{}_{k}_{k},4,{name},12,Terminated,{t},{e},25.0,0.0625",
            k + 2,
            e = t + 2
        ),
        _ => format!("M{k},0,{name},1,Terminated,0,0,0,0"),
    }
}

/// One malformed row naming `name` (kind 2 is only bad under a quarantine
/// policy: impossible timestamps).
fn bad_line(name: &str, kind: u8) -> String {
    match kind {
        0 => format!("M1,1,{name}"),
        1 => format!("M1,x,{name},1,Terminated,1,2,3,4"),
        _ => format!("M1,1,{name},1,Terminated,50,10,1.0,0.5"),
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One generated job: (odd-named?, rows as (kind, k, t) triples).
type GenJob = (bool, Vec<(u8, u32, i64)>);

/// Assemble a document: one contiguous block per job, then each job's
/// straggler tail re-inserted at a pseudo-random later block boundary, then
/// malformed rows dropped at arbitrary line boundaries.
fn build_doc(jobs: &[GenJob], splits: &[usize], bads: &[(u8, u8)], scramble: u64) -> String {
    let mut state = scramble | 1;
    let name_of = |i: usize, odd: bool| {
        if odd {
            format!("job-{i}")
        } else {
            format!("j_{}", 7_000 + i)
        }
    };
    let n = jobs.len();
    // blocks[i] = job i's contiguous head; slots[k] = lines emitted after
    // block k (straggler batches may merge or interleave there).
    let mut blocks: Vec<Vec<String>> = Vec::with_capacity(n);
    let mut slots: Vec<Vec<String>> = vec![Vec::new(); n];
    for (i, (odd, rows)) in jobs.iter().enumerate() {
        let name = name_of(i, *odd);
        let tail = splits.get(i).copied().unwrap_or(0).min(rows.len() - 1);
        let head = rows.len() - tail;
        blocks.push(
            rows[..head]
                .iter()
                .map(|&(kind, k, t)| row_line(&name, kind, k, t))
                .collect(),
        );
        for &(kind, k, t) in &rows[head..] {
            let slot = i + (lcg(&mut state) as usize % (n - i));
            slots[slot].push(row_line(&name, kind, k, t));
        }
    }
    let mut lines: Vec<String> = Vec::new();
    for i in 0..n {
        lines.append(&mut blocks[i]);
        lines.append(&mut slots[i]);
    }
    for &(target, kind) in bads {
        let t = target as usize % (n + 1);
        let name = if t == n {
            "j_ghost".to_string()
        } else {
            name_of(t, jobs[t].0)
        };
        let pos = lcg(&mut state) as usize % (lines.len() + 1);
        lines.insert(pos, bad_line(&name, kind));
    }
    let mut doc = lines.join("\n");
    doc.push('\n');
    doc
}

/// A job as the row table keeps it: its name, its earliest start, and
/// each row's task name and attributes.
type JobRows = (String, Option<i64>, Vec<(String, RowAttrs)>);

fn rows_of_job(job: &Job) -> JobRows {
    let rows = job
        .tasks
        .iter()
        .map(|t| {
            let attrs = RowAttrs {
                instance_num: t.instance_num,
                duration: t.duration().unwrap_or(0),
                plan_cpu: t.plan_cpu,
                plan_mem: t.plan_mem,
            };
            (t.task_name.clone(), attrs)
        })
        .collect();
    (job.name.clone(), job.start_time(), rows)
}

fn rows_of_slot(job: SampleJob<'_>) -> JobRows {
    let rows = (0..job.len())
        .map(|r| (job.task_name(r).to_string(), job.attrs(r)))
        .collect();
    (job.name().to_string(), job.start_time(), rows)
}

/// The core equivalence check, shared by every case below, every way the
/// scan may run: each run equals the batch path, so the runs equal each
/// other.
fn check_equivalence(doc: &str, cap: usize, policy: &ReadPolicy) {
    at_every_run(|run| check_equivalence_at(doc, cap, policy, run));
}

fn check_equivalence_at(doc: &str, cap: usize, policy: &ReadPolicy, run: Run) {
    let criteria = SampleCriteria::default();
    let batch = csv::read_tasks_with_policy(doc.as_bytes(), policy);
    let stream = run.scan(Cursor::new(doc.as_bytes().to_vec()), policy, cap);
    let (rows, batch_q) = match batch {
        Err(batch_err) => {
            let stream_err = stream.err().expect("batch aborted, streaming must too");
            prop_assert_eq!(stream_err, batch_err);
            return;
        }
        Ok(ok) => ok,
    };
    let mut stream = stream.expect("batch succeeded, streaming must too");

    // Quarantine accounting: identical rows, counts, and the invariant.
    prop_assert_eq!(stream.quarantine(), &batch_q);
    let q = stream.quarantine();
    prop_assert_eq!(q.rows_good + q.rows_quarantined(), q.rows_total);

    // The batch reference pipeline: strip every row of a suspect job, then
    // group — exactly what the CLI does before clustering.
    let suspects: BTreeSet<String> = batch_q
        .suspect_jobs()
        .keys()
        .map(|s| s.to_string())
        .collect();
    let kept_rows: Vec<_> = rows
        .into_iter()
        .filter(|t| !suspects.contains(t.job_name.as_str()))
        .collect();
    let batch_set = JobSet::from_tasks(kept_rows);
    prop_assert_eq!(stream.suspects(), &suspects);
    prop_assert_eq!(stream.job_count(), batch_set.len());

    // Grouped contents are identical, straggler merges included.
    let streamed_set = stream.materialize_all().unwrap();
    prop_assert_eq!(&streamed_set, &batch_set);

    // Statistics are bit-identical (Debug formatting distinguishes the
    // float bit patterns PartialEq would conflate).
    let batch_stats = TraceStats::compute(&batch_set);
    let stream_stats = stream.stats();
    prop_assert_eq!(&stream_stats, &batch_stats);
    prop_assert_eq!(format!("{stream_stats:?}"), format!("{batch_stats:?}"));

    // Filter verdicts agree: the eligible population is the batch filter's
    // output, position by position.
    let kept = criteria.filter(&batch_set);
    prop_assert_eq!(stream.eligible_count(), kept.len());
    let batch_sizes: Vec<usize> = kept.iter().map(|j| j.size()).collect();
    prop_assert_eq!(stream.eligible_sizes(), batch_sizes);

    // The stratified sample picks the same jobs in the same order — both
    // through the slice-based sampler over the size column and through the
    // engine's allocation-lean iterator path.
    let batch_sample: Vec<String> = filter::stratified_sample(&kept, 5, 42)
        .iter()
        .map(|j| j.name.clone())
        .collect();
    let picked = stream.sample_eligible(5, 42);
    prop_assert_eq!(
        &picked,
        &filter::stratified_sample_indices(&stream.eligible_sizes(), 5, 42)
    );
    let stream_sample: Vec<String> = picked.iter().map(|&p| kept[p].name.clone()).collect();
    prop_assert_eq!(stream_sample, batch_sample);

    // The row-table replay of the 5-job sample and of every eligible job,
    // through the default window and through a `cap`-byte one (a read
    // per range): slot by slot, the table holds the batch-filtered job at
    // that position, straggler extras after the primary rows.
    let everyone = stream.sample_eligible(stream.eligible_count(), 42);
    for picked in [picked, everyone] {
        let want: Vec<JobRows> = picked.iter().map(|&p| rows_of_job(kept[p])).collect();
        for table in [
            stream.replay_sample(&picked).unwrap(),
            stream.replay_sample_with_window(&picked, cap).unwrap(),
        ] {
            prop_assert_eq!(table.len(), picked.len());
            let got: Vec<JobRows> = (0..table.len())
                .map(|s| rows_of_slot(table.job(s)))
                .collect();
            prop_assert_eq!(&got, &want);
        }
    }

    // The population replay visits every eligible job in position order.
    let want: Vec<JobRows> = kept.iter().map(|j| rows_of_job(j)).collect();
    let mut got = Vec::new();
    for table in stream.replay_eligible(usize::MAX) {
        let table = table.unwrap();
        got.extend((0..table.len()).map(|s| rows_of_slot(table.job(s))));
    }
    prop_assert_eq!(&got, &want);
}

fn job_strategy() -> impl Strategy<Value = (bool, Vec<(u8, u32, i64)>)> {
    (
        any::<bool>(),
        prop::collection::vec((0u8..6, 1u32..5, 1i64..300), 1..5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean documents (no malformed rows) under the strict policy, with
    /// stragglers and every buffer split.
    #[test]
    fn streaming_matches_batch_strict(
        jobs in prop::collection::vec(job_strategy(), 1..8),
        splits in prop::collection::vec(0usize..3, 0..8),
        scramble in any::<u64>(),
        cap in 1usize..64,
    ) {
        let doc = build_doc(&jobs, &splits, &[], scramble);
        check_equivalence(&doc, cap, &ReadPolicy::Strict);
    }

    /// Documents with malformed rows under quarantine policies (including
    /// budgets small enough to abort mid-scan) and the strict policy
    /// (first bad row aborts both paths with the same error).
    #[test]
    fn streaming_matches_batch_with_bad_rows(
        jobs in prop::collection::vec(job_strategy(), 1..8),
        splits in prop::collection::vec(0usize..3, 0..8),
        bads in prop::collection::vec((0u8..20, 0u8..3), 1..4),
        scramble in any::<u64>(),
        cap in 1usize..64,
        policy_kind in 0u8..4,
    ) {
        let doc = build_doc(&jobs, &splits, &bads, scramble);
        let policy = match policy_kind {
            0 => ReadPolicy::Strict,
            k => ReadPolicy::Quarantine { max_bad: (k as usize - 1) * 2 },
        };
        check_equivalence(&doc, cap, &policy);
    }
}
