//! The job DAG data structure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dagscope_trace::gen::DagPlan;
use dagscope_trace::stream::SampleJob;
use dagscope_trace::taskname::{self, TaskKind};
use dagscope_trace::{Job, TaskRecord};

use crate::BuildError;

/// Per-node execution attributes carried over from the trace rows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeAttr {
    /// Number of instances launched for the task.
    pub instance_num: u32,
    /// Task duration in seconds (0 when unavailable).
    pub duration: i64,
    /// Requested CPU (percent of a core).
    pub plan_cpu: f64,
    /// Requested memory (normalized).
    pub plan_mem: f64,
}

impl Default for NodeAttr {
    fn default() -> Self {
        NodeAttr {
            instance_num: 1,
            duration: 0,
            plan_cpu: 0.0,
            plan_mem: 0.0,
        }
    }
}

/// A job's task rows as [`JobDag::from_rows`] reads them: each row's task
/// name and the attributes its node keeps, in row order.
pub trait TaskRows {
    /// Number of rows.
    fn row_count(&self) -> usize;
    /// Task name of row `r`.
    fn task_name(&self, r: usize) -> &str;
    /// Node attributes of row `r`.
    fn attr(&self, r: usize) -> NodeAttr;
    /// Total bytes of the task names.
    fn name_bytes(&self) -> usize {
        (0..self.row_count()).map(|r| self.task_name(r).len()).sum()
    }
}

impl<T: TaskRows + ?Sized> TaskRows for &T {
    fn row_count(&self) -> usize {
        (**self).row_count()
    }

    fn task_name(&self, r: usize) -> &str {
        (**self).task_name(r)
    }

    fn attr(&self, r: usize) -> NodeAttr {
        (**self).attr(r)
    }

    fn name_bytes(&self) -> usize {
        (**self).name_bytes()
    }
}

impl TaskRows for [TaskRecord] {
    fn row_count(&self) -> usize {
        self.len()
    }

    fn task_name(&self, r: usize) -> &str {
        &self[r].task_name
    }

    fn attr(&self, r: usize) -> NodeAttr {
        let t = &self[r];
        NodeAttr {
            instance_num: t.instance_num,
            duration: t.duration().unwrap_or(0),
            plan_cpu: t.plan_cpu,
            plan_mem: t.plan_mem,
        }
    }
}

impl TaskRows for SampleJob<'_> {
    fn row_count(&self) -> usize {
        self.len()
    }

    fn task_name(&self, r: usize) -> &str {
        SampleJob::task_name(self, r)
    }

    fn name_bytes(&self) -> usize {
        SampleJob::name_bytes(self)
    }

    fn attr(&self, r: usize) -> NodeAttr {
        let a = self.attrs(r);
        NodeAttr {
            instance_num: a.instance_num,
            duration: a.duration,
            plan_cpu: a.plan_cpu,
            plan_mem: a.plan_mem,
        }
    }
}

/// Structural measures of a [`DagShape`], computed once when the shape is
/// built. They depend on nothing a job's rows carry beyond its task names,
/// so every job of one shape shares them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ShapeSummary {
    /// Critical path in vertices ([`crate::algo::critical_path`]).
    pub(crate) critical_path: usize,
    /// Largest level population ([`crate::algo::max_width`]).
    pub(crate) max_width: usize,
    /// Nodes with no parents.
    pub(crate) sources: usize,
    /// Nodes with no children.
    pub(crate) sinks: usize,
    /// Edge count.
    pub(crate) edges: usize,
    /// Sum of node weights.
    pub(crate) total_weight: u32,
    /// Node weights summed per stage kind: `M`, `J`, `R`, then any other
    /// code.
    pub(crate) kind_weights: [u32; 4],
    /// Node population of each longest-path level
    /// ([`crate::algo::level_widths`]).
    pub(crate) level_widths: Vec<usize>,
}

/// The structure of a job DAG, without the job: stage kinds, task names,
/// adjacency and weights, plus a [`ShapeSummary`]. Jobs whose task names
/// are equal row for row have equal shapes, so a
/// [`ShapeTable`](crate::ShapeTable) builds each once and every such
/// [`JobDag`] holds it through one `Arc`.
///
/// Nodes are indexed `0..n` in a topological order (every edge goes from a
/// lower to a higher index). Adjacency is compressed sparse rows in both
/// directions (node `i`'s parents are `parent_idx[parent_off[i]..
/// parent_off[i + 1]]`, its children likewise), and every task name lives
/// in one `String` cut at `name_off`.
#[derive(Debug, Serialize, Deserialize)]
pub struct DagShape {
    kinds: Vec<TaskKind>,
    names: String,
    name_off: Vec<u32>,
    parent_off: Vec<u32>,
    parent_idx: Vec<u32>,
    child_off: Vec<u32>,
    child_idx: Vec<u32>,
    weights: Vec<u32>,
    /// The row each node was read from, when [`JobDag::from_rows`] built
    /// the shape; empty for shapes derived some other way.
    rows: Vec<u32>,
    summary: ShapeSummary,
}

impl DagShape {
    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// The structural measures computed when the shape was built.
    pub(crate) fn summary(&self) -> &ShapeSummary {
        &self.summary
    }

    /// The row of each node in the rows [`JobDag::from_rows`] read (empty
    /// when the shape was not built from rows).
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Total bytes of the task names.
    pub(crate) fn name_bytes(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn kind(&self, i: usize) -> TaskKind {
        self.kinds[i]
    }

    pub(crate) fn task_name(&self, i: usize) -> &str {
        &self.names[span(&self.name_off, i)]
    }

    pub(crate) fn parents(&self, i: usize) -> &[u32] {
        &self.parent_idx[span(&self.parent_off, i)]
    }

    pub(crate) fn children(&self, i: usize) -> &[u32] {
        &self.child_idx[span(&self.child_off, i)]
    }

    pub(crate) fn weight(&self, i: usize) -> u32 {
        self.weights[i]
    }

    pub(crate) fn edge_count(&self) -> usize {
        self.parent_idx.len()
    }

    /// Equal kinds, task names, parents and weights: the children and the
    /// summary follow from those, and the rows are how the shape was read,
    /// not what it is.
    fn same_structure(&self, other: &DagShape) -> bool {
        self.kinds == other.kinds
            && self.names == other.names
            && self.name_off == other.name_off
            && self.parent_off == other.parent_off
            && self.parent_idx == other.parent_idx
            && self.weights == other.weights
    }
}

/// The per-node arrays of a [`DagShape`] under construction, filled one
/// node at a time in topological order. [`DagParts::finish`] derives the
/// children and the summary.
pub(crate) struct DagParts {
    kinds: Vec<TaskKind>,
    names: String,
    name_off: Vec<u32>,
    parent_off: Vec<u32>,
    parent_idx: Vec<u32>,
    weights: Vec<u32>,
}

impl DagParts {
    /// Empty arrays sized for `nodes` nodes, `edges` parent entries and
    /// `name_bytes` bytes of task names.
    pub(crate) fn with_capacity(nodes: usize, edges: usize, name_bytes: usize) -> DagParts {
        let mut name_off = Vec::with_capacity(nodes + 1);
        name_off.push(0);
        let mut parent_off = Vec::with_capacity(nodes + 1);
        parent_off.push(0);
        DagParts {
            kinds: Vec::with_capacity(nodes),
            names: String::with_capacity(name_bytes),
            name_off,
            parent_off,
            parent_idx: Vec::with_capacity(edges),
            weights: Vec::with_capacity(nodes),
        }
    }

    /// Append the next node. Its `parents` must be nodes already pushed;
    /// they are stored sorted, repeats kept. Panics on a non-topological
    /// edge — callers produce topological numberings.
    pub(crate) fn push(
        &mut self,
        kind: TaskKind,
        task_name: &str,
        parents: impl IntoIterator<Item = u32>,
        weight: u32,
    ) {
        let node = self.kinds.len();
        self.kinds.push(kind);
        self.names.push_str(task_name);
        self.name_off.push(as_u32(self.names.len()));
        let start = self.parent_idx.len();
        self.parent_idx.extend(parents);
        let ps = &mut self.parent_idx[start..];
        ps.sort_unstable();
        if let Some(&p) = ps.last() {
            assert!((p as usize) < node, "edge {p}->{node} not topological");
        }
        self.parent_off.push(as_u32(self.parent_idx.len()));
        self.weights.push(weight);
    }

    /// The finished shape: the children derived from the parents by
    /// counting sort, so each child list comes out sorted, and the
    /// summary measured once. `rows` is each node's row, or empty.
    pub(crate) fn finish(self, rows: Vec<u32>) -> DagShape {
        let DagParts {
            kinds,
            names,
            name_off,
            parent_off,
            parent_idx,
            weights,
        } = self;
        let (child_off, child_idx) = transpose(&parent_off, &parent_idx);
        let summary = summarize(&kinds, &parent_off, &parent_idx, &child_off, &weights);
        DagShape {
            kinds,
            names,
            name_off,
            parent_off,
            parent_idx,
            child_off,
            child_idx,
            weights,
            rows,
            summary,
        }
    }
}

/// Measure a shape from its arrays: longest-path levels in one pass over
/// the topological order, degrees from the CSR offsets, weights per kind.
fn summarize(
    kinds: &[TaskKind],
    parent_off: &[u32],
    parent_idx: &[u32],
    child_off: &[u32],
    weights: &[u32],
) -> ShapeSummary {
    let n = kinds.len();
    let mut level = vec![0usize; n];
    let mut level_widths: Vec<usize> = Vec::new();
    for i in 0..n {
        let l = parent_idx[span(parent_off, i)]
            .iter()
            .map(|&p| level[p as usize] + 1)
            .max()
            .unwrap_or(0);
        level[i] = l;
        if l == level_widths.len() {
            level_widths.push(0);
        }
        level_widths[l] += 1;
    }
    let mut kind_weights = [0u32; 4];
    for (&kind, &w) in kinds.iter().zip(weights) {
        let k = match kind {
            TaskKind::Map => 0,
            TaskKind::Join => 1,
            TaskKind::Reduce => 2,
            TaskKind::Other(_) => 3,
        };
        kind_weights[k] += w;
    }
    let degree = |off: &[u32], i: usize| off[i + 1] - off[i];
    ShapeSummary {
        critical_path: level_widths.len(),
        max_width: level_widths.iter().copied().max().unwrap_or(0),
        sources: (0..n).filter(|&i| degree(parent_off, i) == 0).count(),
        sinks: (0..n).filter(|&i| degree(child_off, i) == 0).count(),
        edges: parent_idx.len(),
        total_weight: weights.iter().sum(),
        kind_weights,
        level_widths,
    }
}

/// A batch job's task-dependency DAG: its name, its shared [`DagShape`]
/// and one [`NodeAttr`] per node.
///
/// Each node carries the stage kind its task name encodes, the original
/// task name, trace attributes, and a *weight*: the number of original
/// tasks it represents (1 until [`crate::conflate`] merges nodes). Nodes
/// are indexed in a topological order, guaranteed at construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobDag {
    /// Owning job name.
    pub name: String,
    shape: Arc<DagShape>,
    attrs: Vec<NodeAttr>,
}

impl PartialEq for JobDag {
    fn eq(&self, other: &JobDag) -> bool {
        self.name == other.name
            && self.attrs == other.attrs
            && (Arc::ptr_eq(&self.shape, &other.shape) || self.shape.same_structure(&other.shape))
    }
}

/// A length or index as a `u32`. [`JobDag::from_rows`] rejects jobs whose
/// task names exceed `u32::MAX` bytes, which bounds every array of a DAG.
fn as_u32(len: usize) -> u32 {
    u32::try_from(len).expect("JobDag arrays are indexed by u32")
}

/// Entries of CSR row `i`.
fn span(off: &[u32], i: usize) -> Range<usize> {
    off[i] as usize..off[i + 1] as usize
}

/// Reverse a CSR adjacency over `off.len() - 1` nodes by counting sort.
/// Each reversed list comes out in ascending order of its source node,
/// with repeats kept.
fn transpose(off: &[u32], idx: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = off.len() - 1;
    let mut t_off = vec![0u32; n + 1];
    for &p in idx {
        t_off[p as usize] += 1;
    }
    let mut start = 0;
    for slot in &mut t_off {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut t_idx = vec![0u32; idx.len()];
    for i in 0..n {
        for &p in &idx[span(off, i)] {
            let slot = &mut t_off[p as usize];
            t_idx[*slot as usize] = as_u32(i);
            *slot += 1;
        }
    }
    // Each `t_off[p]` now holds the end of `p`'s list: the start of the
    // next one.
    t_off.copy_within(0..n, 1);
    t_off[0] = 0;
    (t_off, t_idx)
}

impl JobDag {
    /// A DAG of `shape` with one attribute per node.
    pub(crate) fn with_shape(name: String, shape: Arc<DagShape>, attrs: Vec<NodeAttr>) -> JobDag {
        debug_assert_eq!(attrs.len(), shape.len());
        JobDag { name, shape, attrs }
    }

    /// Reconstruct the DAG encoded in a job's task names:
    /// [`JobDag::from_rows`] over its task records.
    ///
    /// ```
    /// use dagscope_trace::{Job, TaskRecord, Status};
    /// # fn t(name: &str) -> TaskRecord {
    /// #     TaskRecord { task_name: name.into(), instance_num: 1, job_name: "j".into(),
    /// #         task_type: "1".into(), status: Status::Terminated, start_time: 1,
    /// #         end_time: 2, plan_cpu: 100.0, plan_mem: 0.5 }
    /// # }
    /// let job = Job { name: "j".into(), tasks: vec![t("M1"), t("M3"), t("R2_1"), t("R4_3"), t("R5_4_3_2_1")] };
    /// let dag = dagscope_graph::JobDag::from_job(&job).unwrap();
    /// assert_eq!(dag.len(), 5);
    /// assert_eq!(dag.sources().len(), 2); // M1, M3
    /// assert_eq!(dag.sinks().len(), 1);   // R5
    /// ```
    pub fn from_job(job: &Job) -> Result<JobDag, BuildError> {
        JobDag::from_rows(job.name.clone(), job.tasks.as_slice())
    }

    /// Reconstruct the DAG encoded in the task names of a job's rows.
    ///
    /// Ids in the trace need not be dense, so they are remapped to a
    /// topological `0..n` numbering. Fails on non-DAG names, duplicate ids,
    /// dangling parent references, or (malformed) cyclic dependencies.
    /// This is the one builder: a [`ShapeTable`](crate::ShapeTable) calls
    /// it for the first job of each shape.
    pub fn from_rows<R: TaskRows + ?Sized>(name: String, rows: &R) -> Result<JobDag, BuildError> {
        let n = rows.row_count();
        if n == 0 {
            return Err(BuildError::Empty);
        }
        let name_bytes = rows.name_bytes();
        if u32::try_from(name_bytes).is_err() {
            return Err(BuildError::TooLarge { name_bytes });
        }
        // Parse every name, appending the parent ids of row `r` to the
        // shared `parents` at `parent_off[r]..parent_off[r + 1]`.
        let mut kinds = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let mut parent_off = Vec::with_capacity(n + 1);
        parent_off.push(0);
        let mut parents = Vec::with_capacity(n);
        for r in 0..n {
            let task_name = rows.task_name(r);
            let Some((kind, id)) = taskname::parse_dag_into(task_name, &mut parents) else {
                return Err(BuildError::NonDagTask {
                    name: task_name.to_string(),
                });
            };
            kinds.push(kind);
            ids.push(id);
            parent_off.push(as_u32(parents.len()));
        }
        // Map trace ids to rows through sorted `(id, row)` pairs. A
        // row-order scan meets first the repeat whose second row is
        // smallest.
        let mut by_id: Vec<(u32, u32)> = ids
            .iter()
            .enumerate()
            .map(|(row, &id)| (id, as_u32(row)))
            .collect();
        by_id.sort_unstable();
        if let Some(w) = by_id
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .min_by_key(|w| w[1].1)
        {
            return Err(BuildError::DuplicateId { id: w[0].0 });
        }
        // Parent ids become parent rows, in row order so the first
        // dangling reference is the one reported.
        for (row, &id) in ids.iter().enumerate() {
            for parent in &mut parents[span(&parent_off, row)] {
                match by_id.binary_search_by_key(parent, |&(id, _)| id) {
                    Ok(at) => *parent = by_id[at].1,
                    Err(_) => {
                        return Err(BuildError::MissingParent {
                            id,
                            parent: *parent,
                        })
                    }
                }
            }
        }

        // Kahn topological order over rows; a min-heap on trace id keeps
        // the numbering deterministic.
        let (child_off, child_rows) = transpose(&parent_off, &parents);
        let mut indeg: Vec<u32> = parent_off.windows(2).map(|w| w[1] - w[0]).collect();
        let mut queue: BinaryHeap<Reverse<(u32, u32)>> = (0..n)
            .filter(|&r| indeg[r] == 0)
            .map(|r| Reverse((ids[r], as_u32(r))))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse((_, row))) = queue.pop() {
            order.push(row);
            for &c in &child_rows[span(&child_off, row as usize)] {
                let c = c as usize;
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(Reverse((ids[c], as_u32(c))));
                }
            }
        }
        if order.len() != n {
            return Err(BuildError::Cycle);
        }
        let mut new_index = vec![0u32; n];
        for (new, &row) in order.iter().enumerate() {
            new_index[row as usize] = as_u32(new);
        }

        let mut parts = DagParts::with_capacity(n, parents.len(), name_bytes);
        for &row in &order {
            let row = row as usize;
            parts.push(
                kinds[row],
                rows.task_name(row),
                parents[span(&parent_off, row)]
                    .iter()
                    .map(|&p| new_index[p as usize]),
                1,
            );
        }
        let attrs = order.iter().map(|&row| rows.attr(row as usize)).collect();
        Ok(JobDag::with_shape(
            name,
            Arc::new(parts.finish(order)),
            attrs,
        ))
    }

    /// Build directly from a generator [`DagPlan`] (used by benches that
    /// skip the trace layer).
    pub fn from_plan(name: &str, plan: &DagPlan) -> JobDag {
        let task_names = plan.task_names();
        let edges = plan.parents.iter().map(Vec::len).sum();
        let name_bytes = task_names.iter().map(String::len).sum();
        let mut parts = DagParts::with_capacity(plan.size(), edges, name_bytes);
        for ((&kind, task_name), ps) in plan.kinds.iter().zip(&task_names).zip(&plan.parents) {
            parts.push(kind, task_name, ps.iter().map(|&p| p - 1), 1);
        }
        JobDag::with_shape(
            name.to_string(),
            Arc::new(parts.finish(Vec::new())),
            vec![NodeAttr::default(); plan.size()],
        )
    }

    /// The shape this DAG shares with every job of equal task names.
    pub fn shape(&self) -> &Arc<DagShape> {
        &self.shape
    }

    /// Per-node trace attributes, in node order.
    pub(crate) fn attrs(&self) -> &[NodeAttr] {
        &self.attrs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True when the DAG has no nodes (cannot occur via `from_rows`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of node weights — the original task count before conflation.
    pub fn total_weight(&self) -> u32 {
        self.shape.summary.total_weight
    }

    /// Stage kind of node `i`.
    pub fn kind(&self, i: usize) -> TaskKind {
        self.shape.kind(i)
    }

    /// Original task name of node `i` (representative name after merging).
    pub fn task_name(&self, i: usize) -> &str {
        self.shape.task_name(i)
    }

    /// Parent indices of node `i` (sorted ascending).
    pub fn parents(&self, i: usize) -> &[u32] {
        self.shape.parents(i)
    }

    /// Child indices of node `i` (sorted ascending).
    pub fn children(&self, i: usize) -> &[u32] {
        self.shape.children(i)
    }

    /// Node weight (number of original tasks merged into `i`).
    pub fn weight(&self, i: usize) -> u32 {
        self.shape.weight(i)
    }

    /// Trace attributes of node `i`.
    pub fn attr(&self, i: usize) -> &NodeAttr {
        &self.attrs[i]
    }

    /// In-degree of node `i`.
    pub fn in_degree(&self, i: usize) -> usize {
        self.parents(i).len()
    }

    /// Out-degree of node `i`.
    pub fn out_degree(&self, i: usize) -> usize {
        self.children(i).len()
    }

    /// Nodes with no parents (the job's input stages).
    pub fn sources(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.in_degree(i) == 0)
            .collect()
    }

    /// Nodes with no children (the job's terminal stages).
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.out_degree(i) == 0)
            .collect()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.shape.edge_count()
    }

    /// Iterate edges as `(parent, child)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.len()).flat_map(move |c| self.parents(c).iter().map(move |&p| (p, as_u32(c))))
    }

    /// Internal invariant check used by tests: topological indexing, sorted
    /// adjacency, parent/child consistency, positive weights, one
    /// attribute per node.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.len();
        if self.attrs.len() != n {
            return Err(format!("{} attributes for {n} nodes", self.attrs.len()));
        }
        for i in 0..n {
            for &p in self.parents(i) {
                if p as usize >= i {
                    return Err(format!("edge {p}->{i} violates topological indexing"));
                }
                if !self.children(p as usize).contains(&(i as u32)) {
                    return Err(format!("child list of {p} misses {i}"));
                }
            }
            for &c in self.children(i) {
                if !self.parents(c as usize).contains(&(i as u32)) {
                    return Err(format!("parent list of {c} misses {i}"));
                }
            }
            if self.weight(i) == 0 {
                return Err(format!("node {i} has zero weight"));
            }
            if self.parents(i).windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("parents of {i} not strictly sorted"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Status, TaskRecord};

    pub(crate) fn t(name: &str) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: 3,
            job_name: "j".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 10,
            end_time: 70,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        }
    }

    fn job(names: &[&str]) -> Job {
        Job {
            name: "j_test".into(),
            tasks: names.iter().map(|n| t(n)).collect(),
        }
    }

    #[test]
    fn paper_job_1001388() {
        // Fig 8(a)-style example: M1, M3, R2_1, R4_3, R5_4_3_2_1.
        let dag = JobDag::from_job(&job(&["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"])).unwrap();
        dag.check_invariants().unwrap();
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.edge_count(), 6);
        assert_eq!(dag.sources().len(), 2);
        assert_eq!(dag.sinks().len(), 1);
        let sink = dag.sinks()[0];
        assert_eq!(dag.in_degree(sink), 4);
        assert_eq!(dag.kind(sink), TaskKind::Reduce);
        assert_eq!(dag.task_name(sink), "R5_4_3_2_1");
    }

    #[test]
    fn rows_out_of_order_still_topological() {
        let dag = JobDag::from_job(&job(&["R5_4_3_2_1", "R4_3", "R2_1", "M3", "M1"])).unwrap();
        dag.check_invariants().unwrap();
        assert_eq!(dag.sinks().len(), 1);
        // Node 0 must be a source after renumbering.
        assert_eq!(dag.in_degree(0), 0);
    }

    #[test]
    fn sparse_ids_accepted() {
        // Ids 10, 20, 30 — dense renumbering must handle gaps.
        let dag = JobDag::from_job(&job(&["M10", "R20_10", "R30_20"])).unwrap();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.edges().count(), 2);
    }

    #[test]
    fn error_cases() {
        assert_eq!(JobDag::from_job(&job(&[])).unwrap_err(), BuildError::Empty);
        assert_eq!(
            JobDag::from_job(&job(&["M1", "task_x"])).unwrap_err(),
            BuildError::NonDagTask {
                name: "task_x".into()
            }
        );
        assert_eq!(
            JobDag::from_job(&job(&["M1", "R1"])).unwrap_err(),
            BuildError::DuplicateId { id: 1 }
        );
        assert_eq!(
            JobDag::from_job(&job(&["M1", "R2_9"])).unwrap_err(),
            BuildError::MissingParent { id: 2, parent: 9 }
        );
        // 1 -> 2 -> 1 cycle via forged names.
        assert_eq!(
            JobDag::from_job(&job(&["M1_2", "R2_1"])).unwrap_err(),
            BuildError::Cycle
        );
    }

    #[test]
    fn attributes_follow_nodes() {
        let mut j = job(&["M2", "R1_2"]);
        j.tasks[0].instance_num = 42; // M2 is the source
        let dag = JobDag::from_job(&j).unwrap();
        // After topological renumbering M2 must be node 0.
        assert_eq!(dag.task_name(0), "M2");
        assert_eq!(dag.attr(0).instance_num, 42);
        assert_eq!(dag.attr(0).duration, 60);
        assert_eq!(dag.total_weight(), 2);
    }

    #[test]
    fn from_plan_matches_from_job() {
        use dagscope_trace::gen::{build_shape, ShapeKind};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for shape in ShapeKind::ALL {
            let plan = build_shape(&mut rng, shape, 9);
            let via_plan = JobDag::from_plan("j", &plan);
            via_plan.check_invariants().unwrap();
            let j = Job {
                name: "j".into(),
                tasks: plan.task_names().iter().map(|n| t(n)).collect(),
            };
            let via_job = JobDag::from_job(&j).unwrap();
            assert_eq!(via_plan.len(), via_job.len());
            assert_eq!(
                via_plan.edges().collect::<Vec<_>>(),
                via_job.edges().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn summary_matches_the_algorithms() {
        use crate::{algo, conflate::conflate};
        use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
        let trace = TraceGenerator::new(GeneratorConfig {
            jobs: 400,
            seed: 9,
            ..Default::default()
        })
        .generate();
        let mut checked = 0;
        for job in trace.job_set().jobs() {
            let Ok(raw) = JobDag::from_job(job) else {
                continue;
            };
            for dag in [conflate(&raw), raw] {
                let s = dag.shape().summary();
                assert_eq!(s.critical_path, algo::critical_path(&dag));
                assert_eq!(s.max_width, algo::max_width(&dag));
                assert_eq!(s.level_widths, algo::level_widths(&dag));
                assert_eq!(s.sources, dag.sources().len());
                assert_eq!(s.sinks, dag.sinks().len());
                assert_eq!(s.edges, dag.edges().count());
                assert_eq!(s.total_weight, (0..dag.len()).map(|i| dag.weight(i)).sum());
                let kind_weight = |k: fn(TaskKind) -> bool| -> u32 {
                    (0..dag.len())
                        .filter(|&i| k(dag.kind(i)))
                        .map(|i| dag.weight(i))
                        .sum()
                };
                assert_eq!(
                    s.kind_weights,
                    [
                        kind_weight(|k| k == TaskKind::Map),
                        kind_weight(|k| k == TaskKind::Join),
                        kind_weight(|k| k == TaskKind::Reduce),
                        kind_weight(|k| matches!(k, TaskKind::Other(_))),
                    ]
                );
                checked += 1;
            }
        }
        assert!(checked > 200, "{checked}");
    }

    #[test]
    fn single_node_dag() {
        let dag = JobDag::from_job(&job(&["M1"])).unwrap();
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.sources(), vec![0]);
        assert_eq!(dag.sinks(), vec![0]);
        assert_eq!(dag.edge_count(), 0);
    }
}
