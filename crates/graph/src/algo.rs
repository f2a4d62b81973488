//! Structural algorithms over [`JobDag`]: levels, critical path, width.
//!
//! The paper's structural quantification (Section V-A) measures each job's
//! *size* (task count), *critical path* (longest chain of dependent tasks,
//! counted in vertices) and *maximum width* (the largest number of tasks
//! that can run in parallel, measured per dependency level).

use crate::JobDag;

/// Longest-path level of every node: sources are level 0, and each node
/// sits one past its deepest parent. Nodes in the same level never depend
/// on one another, so level population measures parallelism.
pub fn levels(dag: &JobDag) -> Vec<usize> {
    let n = dag.len();
    let mut level = vec![0usize; n];
    for i in 0..n {
        level[i] = dag
            .parents(i)
            .iter()
            .map(|&p| level[p as usize] + 1)
            .max()
            .unwrap_or(0);
    }
    level
}

/// Node population of each level (index = level).
pub fn level_widths(dag: &JobDag) -> Vec<usize> {
    let lv = levels(dag);
    let depth = lv.iter().max().map_or(0, |m| m + 1);
    let mut widths = vec![0usize; depth];
    for l in lv {
        widths[l] += 1;
    }
    widths
}

/// Critical path in **vertices** (a 2-task chain has critical path 2; the
/// paper reports 2–8 for its sample). Zero for an empty DAG.
pub fn critical_path(dag: &JobDag) -> usize {
    if dag.is_empty() {
        0
    } else {
        levels(dag).into_iter().max().unwrap_or(0) + 1
    }
}

/// Maximum width: the largest level population (the paper's parallelism
/// measure). Zero for an empty DAG.
pub fn max_width(dag: &JobDag) -> usize {
    level_widths(dag).into_iter().max().unwrap_or(0)
}

/// Weighted critical path in seconds: the longest chain of task durations
/// (scheduling gaps ignored) — a lower bound on job completion time. A
/// chain longer than `i64::MAX` seconds saturates there.
pub fn weighted_critical_path(dag: &JobDag) -> i64 {
    let n = dag.len();
    let mut finish = vec![0i64; n];
    for i in 0..n {
        let ready = dag
            .parents(i)
            .iter()
            .map(|&p| finish[p as usize])
            .max()
            .unwrap_or(0);
        finish[i] = ready.saturating_add(dag.attr(i).duration);
    }
    finish.into_iter().max().unwrap_or(0)
}

/// A topological order of node indices. Because [`JobDag`] indexes nodes
/// topologically by construction, this is simply `0..n`; it exists (and is
/// verified by tests) so downstream code does not silently depend on that
/// construction detail.
pub fn topo_order(dag: &JobDag) -> Vec<usize> {
    (0..dag.len()).collect()
}

/// Number of nodes reachable from `start` (inclusive).
pub fn reachable_count(dag: &JobDag, start: usize) -> usize {
    let mut seen = vec![false; dag.len()];
    let mut stack = vec![start];
    let mut count = 0;
    while let Some(i) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        count += 1;
        for &c in dag.children(i) {
            stack.push(c as usize);
        }
    }
    count
}

/// Edges whose removal leaves reachability unchanged — the *redundant*
/// dependencies a transitive reduction drops. In the paper's own example
/// `R5_4_3_2_1` declares edges 1→5 and 2→5 that are already implied by
/// 1→2→5, so trace-declared DAGs routinely carry such edges.
///
/// Returns the redundant edges as `(parent, child)` pairs.
pub fn redundant_edges(dag: &JobDag) -> Vec<(u32, u32)> {
    let n = dag.len();
    // reach[i] = bitset (as Vec<u64>) of nodes reachable from i via ≥2 hops
    // ... simpler for our sizes: reachable-set per node as boolean matrix.
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n]; // strict descendants
    let mut redundant = Vec::new();
    // Process in reverse topological order so children are done first.
    for i in (0..n).rev() {
        // First mark which direct children are implied through others.
        for &c in dag.children(i) {
            // c is redundant if some other child c2 reaches c.
            let implied = dag.children(i).iter().any(|&c2| {
                c2 != c && (reach[c2 as usize][(c as usize) / 64] >> ((c as usize) % 64)) & 1 == 1
            });
            if implied {
                redundant.push((i as u32, c));
            }
        }
        // Then fold children into i's descendant set.
        let mut acc = vec![0u64; words];
        for &c in dag.children(i) {
            acc[(c as usize) / 64] |= 1u64 << ((c as usize) % 64);
            for (a, r) in acc.iter_mut().zip(&reach[c as usize]) {
                *a |= r;
            }
        }
        reach[i] = acc;
    }
    redundant.sort_unstable();
    redundant
}

/// Number of strict descendants of every node.
pub fn descendant_counts(dag: &JobDag) -> Vec<usize> {
    (0..dag.len())
        .map(|i| reachable_count(dag, i) - 1)
        .collect()
}

/// True when the underlying undirected graph is connected (single-node DAGs
/// are connected; empty ones are not).
pub fn is_weakly_connected(dag: &JobDag) -> bool {
    let n = dag.len();
    if n == 0 {
        return false;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    let mut count = 0;
    while let Some(i) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        count += 1;
        for &c in dag.children(i) {
            stack.push(c as usize);
        }
        for &p in dag.parents(i) {
            stack.push(p as usize);
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn t(name: &str, dur: i64) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: 1,
            job_name: "j".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 1,
            end_time: 1 + dur,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        }
    }

    fn dag(names: &[&str]) -> JobDag {
        let job = Job {
            name: "j".into(),
            tasks: names.iter().map(|n| t(n, 10)).collect(),
        };
        JobDag::from_job(&job).unwrap()
    }

    #[test]
    fn chain_levels() {
        let d = dag(&["M1", "R2_1", "R3_2", "R4_3"]);
        assert_eq!(levels(&d), vec![0, 1, 2, 3]);
        assert_eq!(critical_path(&d), 4);
        assert_eq!(max_width(&d), 1);
        assert_eq!(level_widths(&d), vec![1, 1, 1, 1]);
    }

    #[test]
    fn mapreduce_fan_in() {
        // 30 maps + 1 reduce: the paper's extreme case (30/31 in parallel).
        let names: Vec<String> = (1..=30).map(|i| format!("M{i}")).collect();
        let mut all: Vec<&str> = names.iter().map(String::as_str).collect();
        let reduce = format!(
            "R31_{}",
            (1..=30)
                .rev()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("_")
        );
        all.push(&reduce);
        let d = dag(&all);
        assert_eq!(critical_path(&d), 2);
        assert_eq!(max_width(&d), 30);
    }

    #[test]
    fn paper_example_depths() {
        let d = dag(&["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]);
        assert_eq!(critical_path(&d), 3); // M1 -> R2 -> R5
        assert_eq!(max_width(&d), 2);
        assert_eq!(level_widths(&d), vec![2, 2, 1]);
    }

    #[test]
    fn weighted_critical_path_tracks_durations() {
        let job = Job {
            name: "j".into(),
            tasks: vec![t("M1", 100), t("M2", 5), t("R3_2_1", 10)],
        };
        let d = JobDag::from_job(&job).unwrap();
        assert_eq!(weighted_critical_path(&d), 110);
    }

    #[test]
    fn weighted_critical_path_saturates() {
        let half = i64::MAX / 2 + 1;
        let job = Job {
            name: "j".into(),
            tasks: vec![t("M1", half), t("R2_1", half)],
        };
        let d = JobDag::from_job(&job).unwrap();
        assert_eq!(weighted_critical_path(&d), i64::MAX);
    }

    #[test]
    fn reachability_and_connectivity() {
        let d = dag(&["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]);
        // From a source: itself + its reduce + the sink ... M1 -> R2 -> R5.
        assert_eq!(reachable_count(&d, 0), 3);
        assert!(is_weakly_connected(&d));
        // Two disconnected chains in one job.
        let d2 = dag(&["M1", "R2_1", "M3", "R4_3"]);
        assert!(!is_weakly_connected(&d2));
        assert_eq!(reachable_count(&d2, 0), 2);
    }

    #[test]
    fn topo_order_is_valid() {
        let d = dag(&["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]);
        let order = topo_order(&d);
        let pos: Vec<usize> = order.clone();
        for (p, c) in d.edges() {
            assert!(pos[p as usize] < pos[c as usize]);
        }
    }

    #[test]
    fn redundant_edges_in_paper_example() {
        // R5_4_3_2_1 also depends on R2 and M1 directly, but 1→2→5 and the
        // rest imply them: edges M1→R5 and M3→R5 are redundant.
        let d = dag(&["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]);
        let red = redundant_edges(&d);
        assert_eq!(red.len(), 2);
        // Translate back to names for clarity.
        let names: Vec<(String, String)> = red
            .iter()
            .map(|&(p, c)| {
                (
                    d.task_name(p as usize).to_string(),
                    d.task_name(c as usize).to_string(),
                )
            })
            .collect();
        assert!(names.contains(&("M1".to_string(), "R5_4_3_2_1".to_string())));
        assert!(names.contains(&("M3".to_string(), "R5_4_3_2_1".to_string())));
    }

    #[test]
    fn chain_has_no_redundancy() {
        let d = dag(&["M1", "R2_1", "R3_2", "R4_3"]);
        assert!(redundant_edges(&d).is_empty());
    }

    #[test]
    fn descendant_counts_match_reachability() {
        let d = dag(&["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]);
        let counts = descendant_counts(&d);
        // Sink has 0 descendants; sources have their chains below.
        let sink = d.sinks()[0];
        assert_eq!(counts[sink], 0);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(*c, reachable_count(&d, i) - 1);
        }
    }

    #[test]
    fn empty_measures() {
        // Cannot build an empty DAG via from_job; exercise the functions on
        // a single node instead, plus the documented zero conventions.
        let d = dag(&["M1"]);
        assert_eq!(critical_path(&d), 1);
        assert_eq!(max_width(&d), 1);
        assert_eq!(weighted_critical_path(&d), 10);
    }
}
