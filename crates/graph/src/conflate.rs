//! Node conflation (Section IV-C, Fig 3).
//!
//! Large jobs frequently contain groups of tasks that "perform the same kind
//! of operations without sophisticated dependency to other nodes": same
//! stage kind, same parents, same children. Conflation merges each such
//! group into one node whose *weight* is the number of merged tasks, which
//! shrinks the DAG (often dramatically for map-heavy jobs) without changing
//! its dependency semantics. The merge is applied to a fixpoint, because
//! collapsing one group can make another group's signatures equal.

use std::sync::Arc;

use crate::dag::{DagParts, DagShape};
use crate::{JobDag, NodeAttr};

/// One conflation pass over a shape: merge nodes with identical
/// `(kind, parents, children)` signatures. Returns the merged shape and
/// each old node's new index, or `None` when nothing merged.
fn conflate_once(shape: &DagShape) -> Option<(DagShape, Vec<u32>)> {
    let n = shape.len();
    let signature = |i: u32| {
        let i = i as usize;
        (shape.kind(i).letter(), shape.parents(i), shape.children(i))
    };
    let same = |a: &u32, b: &u32| signature(*a) == signature(*b);
    // Group nodes by sorting their indices on the borrowed signatures;
    // ties break on index, so each group lists its members ascending.
    let mut order: Vec<u32> = (0..n).map(|i| i as u32).collect();
    order.sort_unstable_by(|&a, &b| signature(a).cmp(&signature(b)).then(a.cmp(&b)));
    if !order.windows(2).any(|w| same(&w[0], &w[1])) {
        return None;
    }

    // Representative of each node: its group's minimum, which keeps the
    // ordering stable.
    let mut rep = vec![0u32; n];
    for group in order.chunk_by(same) {
        for &m in group {
            rep[m as usize] = group[0];
        }
    }
    // Dense renumbering of representatives, preserving relative order —
    // parents have smaller indices than children, and a representative is
    // its group's minimum, so the topological property survives.
    let mut new_index = vec![u32::MAX; n];
    let mut kept = 0u32;
    for i in 0..n {
        if rep[i] as usize == i {
            new_index[i] = kept;
            kept += 1;
        }
    }
    let node_map: Vec<u32> = rep.iter().map(|&r| new_index[r as usize]).collect();
    let mut weights = vec![0u32; kept as usize];
    for (i, &to) in node_map.iter().enumerate() {
        weights[to as usize] += shape.weight(i);
    }

    let mut parts = DagParts::with_capacity(kept as usize, shape.edge_count(), shape.name_bytes());
    let mut ps: Vec<u32> = Vec::new();
    for (i, &weight) in (0..n).filter(|&i| rep[i] as usize == i).zip(&weights) {
        ps.clear();
        ps.extend(shape.parents(i).iter().map(|&p| node_map[p as usize]));
        ps.sort_unstable();
        ps.dedup();
        parts.push(
            shape.kind(i),
            shape.task_name(i),
            ps.iter().copied(),
            weight,
        );
    }
    Some((parts.finish(Vec::new()), node_map))
}

/// Conflate a shape to a fixpoint: the merged shape (the same `Arc` when
/// nothing merges) and, per pass, each node's index in the next pass.
/// Attributes follow through [`replay_attrs`].
pub(crate) fn conflate_shape(shape: &Arc<DagShape>) -> (Arc<DagShape>, Vec<Vec<u32>>) {
    let mut current = Arc::clone(shape);
    let mut passes = Vec::new();
    while let Some((next, node_map)) = conflate_once(&current) {
        debug_assert!(next.len() < current.len());
        current = Arc::new(next);
        passes.push(node_map);
    }
    (current, passes)
}

/// Merge per-node attributes through conflation passes. Each pass sums a
/// group's instances, CPU and memory and keeps its longest duration,
/// adding members in ascending node order, so every `f64` sum is the one
/// a pass over the whole DAG computes.
pub(crate) fn replay_attrs(attrs: &[NodeAttr], passes: &[Vec<u32>]) -> Vec<NodeAttr> {
    let Some((first, rest)) = passes.split_first() else {
        return attrs.to_vec();
    };
    let mut current = merge_attrs(attrs, first);
    for node_map in rest {
        current = merge_attrs(&current, node_map);
    }
    current
}

/// One pass of [`replay_attrs`]: node `i`'s attributes join node
/// `node_map[i]`'s group.
fn merge_attrs(attrs: &[NodeAttr], node_map: &[u32]) -> Vec<NodeAttr> {
    let empty = NodeAttr {
        instance_num: 0,
        duration: 0,
        plan_cpu: 0.0,
        plan_mem: 0.0,
    };
    let kept = node_map.iter().max().map_or(0, |&m| m as usize + 1);
    let mut merged = vec![empty; kept];
    for (a, &to) in attrs.iter().zip(node_map) {
        let m = &mut merged[to as usize];
        m.instance_num += a.instance_num;
        m.plan_cpu += a.plan_cpu;
        m.plan_mem += a.plan_mem;
        m.duration = m.duration.max(a.duration);
    }
    merged
}

/// Conflate `dag` to a fixpoint.
///
/// The result's [`JobDag::total_weight`] always equals the input's (no task
/// is lost), node count never increases, and reachability between surviving
/// representatives is preserved.
///
/// ```
/// use dagscope_trace::{Job, TaskRecord, Status};
/// # fn t(name: &str) -> TaskRecord {
/// #     TaskRecord { task_name: name.into(), instance_num: 1, job_name: "j".into(),
/// #         task_type: "1".into(), status: Status::Terminated, start_time: 1,
/// #         end_time: 2, plan_cpu: 100.0, plan_mem: 0.5 }
/// # }
/// // 3 parallel maps feeding one reduce collapse to a 2-node M -> R DAG.
/// let job = Job { name: "j".into(), tasks: vec![t("M1"), t("M2"), t("M3"), t("R4_3_2_1")] };
/// let dag = dagscope_graph::JobDag::from_job(&job).unwrap();
/// let small = dagscope_graph::conflate::conflate(&dag);
/// assert_eq!(small.len(), 2);
/// assert_eq!(small.total_weight(), 4);
/// ```
pub fn conflate(dag: &JobDag) -> JobDag {
    let (shape, passes) = conflate_shape(dag.shape());
    JobDag::with_shape(dag.name.clone(), shape, replay_attrs(dag.attrs(), &passes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn t(name: &str) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: 2,
            job_name: "j".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 1,
            end_time: 2,
            plan_cpu: 50.0,
            plan_mem: 0.25,
        }
    }

    fn dag(names: &[&str]) -> JobDag {
        JobDag::from_job(&Job {
            name: "j".into(),
            tasks: names.iter().map(|n| t(n)).collect(),
        })
        .unwrap()
    }

    #[test]
    fn parallel_maps_merge() {
        let d = dag(&["M1", "M2", "M3", "R4_3_2_1"]);
        let c = conflate(&d);
        c.check_invariants().unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_weight(), 4);
        assert_eq!(c.weight(0), 3);
        // Attributes aggregate: 3 merged maps × 2 instances.
        assert_eq!(c.attr(0).instance_num, 6);
        assert_eq!(c.attr(0).plan_cpu, 150.0);
    }

    #[test]
    fn chain_is_fixpoint() {
        let d = dag(&["M1", "R2_1", "R3_2"]);
        let c = conflate(&d);
        assert_eq!(c.len(), 3);
        assert_eq!(c, d);
    }

    #[test]
    fn cascading_merges_need_fixpoint() {
        // Two two-stage branches: (M1->R3), (M2->R4) both feeding R5.
        // Pass 1 merges M1+M2? No: M1 and M2 have different children
        // (R3 vs R4), so first R3+R4 cannot merge either (different
        // parents)... Build a case that genuinely cascades:
        //   M1 -> R3_1, M2 -> R4_2, then R5_4_3.
        // Nothing merges until... construct instead parallel diamonds:
        //   M1; R2_1; R3_1; R4_3_2  (R2 and R3 same parents {M1} and same
        //   children {R4} → merge; after that no further merge).
        let d = dag(&["M1", "R2_1", "R3_1", "R4_3_2"]);
        let c = conflate(&d);
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_weight(), 4);
        assert_eq!(algo::critical_path(&c), 3);

        // A genuinely cascading case: two identical parallel chains
        // M1->R3, M2->R4 feeding R5. First pass: M1,M2 differ (children
        // {R3} vs {R4}) but R3,R4 differ too (parents {M1},{M2}) — no merge
        // happens, which is correct: the two chains are NOT interchangeable
        // siblings under the strict signature. Verify stability:
        let d2 = dag(&["M1", "M2", "R3_1", "R4_2", "R5_4_3"]);
        let c2 = conflate(&d2);
        assert_eq!(c2.len(), 5);
    }

    #[test]
    fn wide_mapreduce_collapses_to_two_nodes() {
        // 30 maps + 1 reduce (the Fig 4 extreme case) → M -> R.
        let names: Vec<String> = (1..=30).map(|i| format!("M{i}")).collect();
        let mut all: Vec<&str> = names.iter().map(String::as_str).collect();
        let r = format!(
            "R31_{}",
            (1..=30)
                .rev()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("_")
        );
        all.push(&r);
        let c = conflate(&dag(&all));
        assert_eq!(c.len(), 2);
        assert_eq!(c.weight(0), 30);
        assert_eq!(algo::max_width(&c), 1);
    }

    #[test]
    fn weight_conservation_on_generated_jobs() {
        use dagscope_trace::gen::{build_shape, ShapeKind};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        for shape in ShapeKind::ALL {
            for n in [5usize, 12, 25] {
                let plan = build_shape(&mut rng, shape, n);
                let d = JobDag::from_plan("j", &plan);
                let c = conflate(&d);
                c.check_invariants().unwrap();
                assert_eq!(c.total_weight() as usize, d.len(), "{shape:?} n={n}");
                assert!(c.len() <= d.len());
                // Conflation never increases depth or width.
                assert!(algo::critical_path(&c) <= algo::critical_path(&d));
                assert!(algo::max_width(&c) <= algo::max_width(&d));
            }
        }
    }

    #[test]
    fn conflation_is_idempotent() {
        let d = dag(&["M1", "M2", "M3", "R4_3_2_1"]);
        let once = conflate(&d);
        let twice = conflate(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn kind_mismatch_prevents_merge() {
        // M and J siblings with identical adjacency must not merge.
        let d = dag(&["M1", "M2", "M3", "J4_2_1", "R5_4_3"]);
        let c = conflate(&d);
        // M1,M2 share parents {} and children {J4} → merge; M3's child is
        // R5 → kept apart; J4 untouched.
        assert_eq!(c.len(), 4);
        assert_eq!(c.total_weight(), 5);
    }
}
