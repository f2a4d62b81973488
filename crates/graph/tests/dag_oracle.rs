//! The DAG builder and conflation against reference implementations: the
//! straightforward builder that maps ids through a `HashMap` and keeps one
//! `Vec` per adjacency list, and the conflation pass that groups nodes by
//! `HashMap` keys of owned signature vectors. On every job both sides must
//! return the same `Err`, or DAGs with equal kinds, task names, parents,
//! children, weights and attributes, bit for bit, before and after
//! conflation. Each job is built three times: directly, through a shared
//! `ShapeTable`, and through the table again with re-rolled attributes,
//! where the table must hit and replay the attributes through its stored
//! shape and conflation passes.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use dagscope_graph::conflate::conflate;
use dagscope_graph::{BuildError, JobDag, NodeAttr, ShapeTable};
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::taskname::{self, ParsedTaskName, TaskKind};
use dagscope_trace::{Job, Status, TaskRecord};

/// The reference DAG: one vector per node attribute and per adjacency
/// list.
#[derive(Debug, Clone)]
struct RefDag {
    name: String,
    kinds: Vec<TaskKind>,
    task_names: Vec<String>,
    parents: Vec<Vec<u32>>,
    children: Vec<Vec<u32>>,
    weights: Vec<u32>,
    attrs: Vec<NodeAttr>,
}

impl RefDag {
    fn from_parts(
        name: String,
        kinds: Vec<TaskKind>,
        task_names: Vec<String>,
        parents: Vec<Vec<u32>>,
        weights: Vec<u32>,
        attrs: Vec<NodeAttr>,
    ) -> RefDag {
        let n = kinds.len();
        assert_eq!(task_names.len(), n);
        assert_eq!(parents.len(), n);
        assert_eq!(weights.len(), n);
        assert_eq!(attrs.len(), n);
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, ps) in parents.iter().enumerate() {
            for &p in ps {
                assert!((p as usize) < i, "edge {p}->{i} not topological");
                children[p as usize].push(i as u32);
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }
        let mut parents = parents;
        for p in &mut parents {
            p.sort_unstable();
        }
        RefDag {
            name,
            kinds,
            task_names,
            parents,
            children,
            weights,
            attrs,
        }
    }

    fn from_job(job: &Job) -> Result<RefDag, BuildError> {
        if job.tasks.is_empty() {
            return Err(BuildError::Empty);
        }
        // Parse every name first.
        let mut parsed = Vec::with_capacity(job.tasks.len());
        for t in &job.tasks {
            match taskname::parse(&t.task_name) {
                ParsedTaskName::Dag { kind, id, parents } => parsed.push((kind, id, parents)),
                ParsedTaskName::Independent { raw } => {
                    return Err(BuildError::NonDagTask { name: raw })
                }
            }
        }
        // Map trace ids to row indices.
        let mut by_id: HashMap<u32, usize> = HashMap::with_capacity(parsed.len());
        for (row, (_, id, _)) in parsed.iter().enumerate() {
            if by_id.insert(*id, row).is_some() {
                return Err(BuildError::DuplicateId { id: *id });
            }
        }
        for (_, id, parents) in &parsed {
            for p in parents {
                if !by_id.contains_key(p) {
                    return Err(BuildError::MissingParent {
                        id: *id,
                        parent: *p,
                    });
                }
            }
        }

        // Kahn topological order over rows.
        let n = parsed.len();
        let mut indeg = vec![0usize; n];
        let mut children_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (row, (_, _, parents)) in parsed.iter().enumerate() {
            indeg[row] = parents.len();
            for p in parents {
                children_rows[by_id[p]].push(row);
            }
        }
        // Min-heap on trace id keeps the numbering deterministic.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut queue: BinaryHeap<Reverse<(u32, usize)>> = (0..n)
            .filter(|&r| indeg[r] == 0)
            .map(|r| Reverse((parsed[r].1, r)))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse((_, row))) = queue.pop() {
            order.push(row);
            for &c in &children_rows[row] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(Reverse((parsed[c].1, c)));
                }
            }
        }
        if order.len() != n {
            return Err(BuildError::Cycle);
        }
        let mut new_index = vec![0u32; n];
        for (new, &row) in order.iter().enumerate() {
            new_index[row] = new as u32;
        }

        let mut kinds = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let mut parents_new: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut attrs = Vec::with_capacity(n);
        for &row in &order {
            let (kind, _, ref ps) = parsed[row];
            kinds.push(kind);
            names.push(job.tasks[row].task_name.clone());
            let mut np: Vec<u32> = ps.iter().map(|p| new_index[by_id[p]]).collect();
            np.sort_unstable();
            parents_new.push(np);
            let t = &job.tasks[row];
            attrs.push(NodeAttr {
                instance_num: t.instance_num,
                duration: t.duration().unwrap_or(0),
                plan_cpu: t.plan_cpu,
                plan_mem: t.plan_mem,
            });
        }
        Ok(RefDag::from_parts(
            job.name.clone(),
            kinds,
            names,
            parents_new,
            vec![1; n],
            attrs,
        ))
    }

    /// The same DAG read through `JobDag`'s public accessors.
    fn of(dag: &JobDag) -> RefDag {
        let n = dag.len();
        RefDag {
            name: dag.name.clone(),
            kinds: (0..n).map(|i| dag.kind(i)).collect(),
            task_names: (0..n).map(|i| dag.task_name(i).to_string()).collect(),
            parents: (0..n).map(|i| dag.parents(i).to_vec()).collect(),
            children: (0..n).map(|i| dag.children(i).to_vec()).collect(),
            weights: (0..n).map(|i| dag.weight(i)).collect(),
            attrs: (0..n).map(|i| *dag.attr(i)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.kinds.len()
    }
    fn kind(&self, i: usize) -> TaskKind {
        self.kinds[i]
    }
    fn task_name(&self, i: usize) -> &str {
        &self.task_names[i]
    }
    fn parents(&self, i: usize) -> &[u32] {
        &self.parents[i]
    }
    fn children(&self, i: usize) -> &[u32] {
        &self.children[i]
    }
    fn weight(&self, i: usize) -> u32 {
        self.weights[i]
    }
    fn attr(&self, i: usize) -> &NodeAttr {
        &self.attrs[i]
    }
}

/// Every field, with attributes as bit patterns, so `-0.0` and the last
/// bit of a float sum count.
type Fields = (
    String,
    Vec<TaskKind>,
    Vec<String>,
    Vec<Vec<u32>>,
    Vec<Vec<u32>>,
    Vec<u32>,
    Vec<(u32, i64, u64, u64)>,
);

fn fields(d: &RefDag) -> Fields {
    (
        d.name.clone(),
        d.kinds.clone(),
        d.task_names.clone(),
        d.parents.clone(),
        d.children.clone(),
        d.weights.clone(),
        d.attrs
            .iter()
            .map(|a| {
                (
                    a.instance_num,
                    a.duration,
                    a.plan_cpu.to_bits(),
                    a.plan_mem.to_bits(),
                )
            })
            .collect(),
    )
}

/// One conflation pass: merge nodes with identical
/// `(kind, parents, children)` signatures. Returns `None` when nothing
/// merged.
fn ref_conflate_once(dag: &RefDag) -> Option<RefDag> {
    let n = dag.len();
    // Signature → representative (lowest index in the group).
    let mut groups: HashMap<(char, Vec<u32>, Vec<u32>), Vec<usize>> = HashMap::new();
    for i in 0..n {
        let sig = (
            dag.kind(i).letter(),
            dag.parents(i).to_vec(),
            dag.children(i).to_vec(),
        );
        groups.entry(sig).or_default().push(i);
    }
    if groups.len() == n {
        return None;
    }

    // Representative of each node (group minimum keeps ordering stable).
    let mut rep = vec![usize::MAX; n];
    for members in groups.values() {
        let r = members[0]; // members are in ascending order by construction
        for &m in members {
            rep[m] = r;
        }
    }
    // Dense renumbering of representatives, preserving relative order —
    // parents have smaller indices than children, and a representative is
    // its group's minimum, so the topological property survives.
    let mut new_index = vec![usize::MAX; n];
    let mut kept = 0usize;
    for i in 0..n {
        if rep[i] == i {
            new_index[i] = kept;
            kept += 1;
        }
    }

    let mut kinds = Vec::with_capacity(kept);
    let mut names = Vec::with_capacity(kept);
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(kept);
    let mut weights = Vec::with_capacity(kept);
    let mut attrs = Vec::with_capacity(kept);

    for i in 0..n {
        if rep[i] != i {
            continue;
        }
        kinds.push(dag.kind(i));
        names.push(dag.task_name(i).to_string());
        let mut ps: Vec<u32> = dag
            .parents(i)
            .iter()
            .map(|&p| new_index[rep[p as usize]] as u32)
            .collect();
        ps.sort_unstable();
        ps.dedup();
        parents.push(ps);
        // Aggregate the group's weight and attributes.
        let mut weight = 0u32;
        let mut attr = NodeAttr {
            instance_num: 0,
            duration: 0,
            plan_cpu: 0.0,
            plan_mem: 0.0,
        };
        #[allow(clippy::needless_range_loop)]
        for j in i..n {
            if rep[j] == i {
                weight += dag.weight(j);
                let a = dag.attr(j);
                attr.instance_num += a.instance_num;
                attr.plan_cpu += a.plan_cpu;
                attr.plan_mem += a.plan_mem;
                attr.duration = attr.duration.max(a.duration);
            }
        }
        weights.push(weight);
        attrs.push(attr);
    }

    Some(RefDag::from_parts(
        dag.name.clone(),
        kinds,
        names,
        parents,
        weights,
        attrs,
    ))
}

/// Conflate `dag` to a fixpoint.
fn ref_conflate(dag: &RefDag) -> RefDag {
    let mut current = dag.clone();
    while let Some(next) = ref_conflate_once(&current) {
        debug_assert!(next.len() < current.len());
        current = next;
    }
    current
}

/// What one job did on both sides, for coverage counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    Built,
    Merged,
    NonDag,
    Duplicate,
    Missing,
    Cycle,
}

/// Conflation passes the reference takes to reach its fixpoint.
fn ref_passes(dag: &RefDag) -> usize {
    let mut passes = 0;
    let mut current = dag.clone();
    while let Some(next) = ref_conflate_once(&current) {
        current = next;
        passes += 1;
    }
    passes
}

/// Check one build — a DAG and its conflation, or an error — against the
/// reference.
fn check(
    built: Result<(JobDag, JobDag), BuildError>,
    want: Result<RefDag, BuildError>,
) -> Result<Outcome, String> {
    match (built, want) {
        (Err(got), Err(want)) => {
            if got != want {
                return Err(format!("error {got:?}, reference {want:?}"));
            }
            Ok(match want {
                BuildError::NonDagTask { .. } => Outcome::NonDag,
                BuildError::DuplicateId { .. } => Outcome::Duplicate,
                BuildError::MissingParent { .. } => Outcome::Missing,
                BuildError::Cycle => Outcome::Cycle,
                other => return Err(format!("unexpected error {other:?}")),
            })
        }
        (Ok((dag, merged)), Ok(want)) => {
            if fields(&RefDag::of(&dag)) != fields(&want) {
                return Err(format!("built {dag:?}, reference {want:?}"));
            }
            let want_merged = ref_conflate(&want);
            if fields(&RefDag::of(&merged)) != fields(&want_merged) {
                return Err(format!("conflated {merged:?}, reference {want_merged:?}"));
            }
            Ok(if merged.len() < dag.len() {
                Outcome::Merged
            } else {
                Outcome::Built
            })
        }
        (got, want) => Err(format!("built {got:?}, reference {want:?}")),
    }
}

/// The same task names with fresh attributes drawn from `seed`.
fn reroll(job: &Job, seed: u64) -> Job {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut job = job.clone();
    for t in &mut job.tasks {
        t.instance_num = rng.random_range(1..=5_000u32);
        t.start_time = rng.random_range(1..1_000i64);
        t.end_time = t.start_time + rng.random_range(0..500i64);
        t.plan_cpu = CPU[rng.random_range(0..CPU.len())];
        t.plan_mem = MEM[rng.random_range(0..MEM.len())];
    }
    job
}

/// Build and conflate `job` on both sides: directly, then through `table`
/// twice, the second time with attributes re-rolled from `seed` so the
/// table hits. Returns the outcome and the reference's conflation passes;
/// `Err` describes the first difference.
fn compare(job: &Job, table: &mut ShapeTable, seed: u64) -> Result<(Outcome, usize), String> {
    let want = RefDag::from_job(job);
    let direct = JobDag::from_job(job).map(|dag| {
        let merged = conflate(&dag);
        (dag, merged)
    });
    let outcome = check(direct, want.clone())?;
    let passes = want.as_ref().map_or(0, ref_passes);
    for (round, job) in [job.clone(), reroll(job, seed)].iter().enumerate() {
        let seen = table.len();
        let id = table.intern(job.tasks.as_slice());
        if round == 1 && table.len() != seen {
            return Err("the same task names missed the table".to_string());
        }
        let built = match table.get(id) {
            Ok(entry) => {
                if entry.passes() != passes {
                    return Err(format!(
                        "table conflated in {} passes, reference in {passes}",
                        entry.passes()
                    ));
                }
                let dag = entry.raw(job.name.clone(), job.tasks.as_slice());
                let merged = entry.conflated(&dag);
                Ok((dag, merged))
            }
            Err(e) => Err(e.clone()),
        };
        let got = check(built, RefDag::from_job(job)).map_err(|e| format!("table: {e}"))?;
        if got != outcome {
            return Err(format!("table: {got:?}, direct build: {outcome:?}"));
        }
    }
    Ok((outcome, passes))
}

/// Float attributes whose sums depend on addition order.
const CPU: [f64; 6] = [50.0, 100.0, 133.3, 0.1, 1e16, -0.0];
const MEM: [f64; 6] = [0.1, 0.2, 0.3, 0.57, 1e-17, -0.0];

/// A random job: a layered DAG of 1-14 tasks under sparse ids (some near
/// `u32::MAX`), rows shuffled, parents listed in any order, then with up
/// to three corruptions: a duplicate id, a dangling parent, a repeated
/// parent (`R3_1_1`), a back edge or self-loop (a cycle), or a `task_…`
/// name.
fn random_job(seed: u64) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..=14usize);
    // Topological positions → sparse ids.
    let mut next_id: u32 = if rng.random_bool(0.1) {
        u32::MAX - 60
    } else {
        rng.random_range(1..=3)
    };
    let ids: Vec<u32> = (0..n)
        .map(|_| {
            let id = next_id;
            next_id += rng.random_range(1..=4);
            id
        })
        .collect();
    // Layers of 1-4 nodes; a node's parents come from the layer above,
    // all of it or a subset, so siblings often share signatures.
    let mut layer_of = Vec::with_capacity(n);
    let mut layer = 0usize;
    let mut left = rng.random_range(1..=4usize);
    for _ in 0..n {
        if left == 0 {
            layer += 1;
            left = rng.random_range(1..=4usize);
        }
        layer_of.push(layer);
        left -= 1;
    }
    let letters = ['M', 'R', 'J', 'X', 'm'];
    let mut names: Vec<(char, u32, Vec<u32>)> = (0..n)
        .map(|i| {
            let above: Vec<u32> = (0..i)
                .filter(|&j| layer_of[j] + 1 == layer_of[i])
                .map(|j| ids[j])
                .collect();
            let mut parents: Vec<u32> = if rng.random_bool(0.5) {
                above
            } else {
                above.into_iter().filter(|_| rng.random_bool(0.5)).collect()
            };
            if rng.random_bool(0.7) {
                parents.reverse();
            } else {
                parents.shuffle(&mut rng);
            }
            let letter = if layer_of[i] == 0 {
                'M'
            } else {
                letters[rng.random_range(0..letters.len())]
            };
            (letter, ids[i], parents)
        })
        .collect();
    // Up to three corruptions, so error precedence gets exercised too.
    let mut independent = None;
    for _ in 0..rng.random_range(0..=3u32) {
        let victim = rng.random_range(0..n);
        match rng.random_range(0..6u32) {
            0 if n > 1 => {
                let other = rng.random_range(0..n);
                names[victim].1 = names[other].1;
            }
            1 => names[victim].2.push(next_id + rng.random_range(0..3)),
            2 => {
                if let Some(&p) = names[victim].2.first() {
                    names[victim].2.push(p);
                }
            }
            3 => {
                // A back edge to a later task, or a self-loop.
                let later = rng.random_range(victim..n);
                let id = names[later].1;
                names[victim].2.push(id);
            }
            4 => independent = Some(victim),
            _ => {}
        }
    }
    let mut rendered: Vec<String> = names
        .iter()
        .map(|(letter, id, parents)| {
            let mut s = format!("{letter}{id}");
            for p in parents {
                s.push_str(&format!("_{p}"));
            }
            s
        })
        .collect();
    if let Some(victim) = independent {
        rendered[victim] = format!("task_{seed:x}");
    }
    rendered.shuffle(&mut rng);
    let tasks = rendered
        .into_iter()
        .map(|task_name| {
            let start = rng.random_range(1..1_000i64);
            let end = if rng.random_bool(0.9) {
                start + rng.random_range(0..500i64)
            } else {
                0
            };
            TaskRecord {
                task_name,
                instance_num: rng.random_range(1..=5_000u32),
                job_name: "j_oracle".into(),
                task_type: "1".into(),
                status: Status::Terminated,
                start_time: start,
                end_time: end,
                plan_cpu: CPU[rng.random_range(0..CPU.len())],
                plan_mem: MEM[rng.random_range(0..MEM.len())],
            }
        })
        .collect();
    Job {
        name: format!("j_{seed}"),
        tasks,
    }
}

thread_local! {
    /// One table across the property's cases, so keys of unrelated jobs
    /// meet in it.
    static TABLE: std::cell::RefCell<ShapeTable> = std::cell::RefCell::new(ShapeTable::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn builder_and_conflation_match_the_reference(seed in any::<u64>()) {
        let outcome = TABLE.with(|t| compare(&random_job(seed), &mut t.borrow_mut(), seed));
        prop_assert!(outcome.is_ok(), "seed {}: {}", seed, outcome.unwrap_err());
    }
}

#[test]
fn random_jobs_reach_every_outcome() {
    // The generator must exercise every path the property compares: a
    // plain build, a build that conflates, each build error, and a
    // conflation that needs a second pass (a repeated parent such as
    // `R3_1_1` stays a repeated edge until the first merge dedups it).
    let mut seen: HashMap<Outcome, usize> = HashMap::new();
    let mut multi_pass = 0;
    let mut table = ShapeTable::new();
    for seed in 0..3_000 {
        let (outcome, passes) = compare(&random_job(seed), &mut table, seed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        *seen.entry(outcome).or_default() += 1;
        if passes > 1 {
            multi_pass += 1;
        }
    }
    for outcome in [
        Outcome::Built,
        Outcome::Merged,
        Outcome::NonDag,
        Outcome::Duplicate,
        Outcome::Missing,
        Outcome::Cycle,
    ] {
        assert!(
            seen.get(&outcome).copied().unwrap_or(0) >= 30,
            "{outcome:?} reached too rarely: {seen:?}"
        );
    }
    assert!(
        multi_pass >= 10,
        "only {multi_pass} jobs conflated in 2+ passes"
    );
}

#[test]
fn generated_trace_matches_the_reference() {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: 3_000,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let mut merged = 0;
    let mut table = ShapeTable::new();
    let jobs = trace.job_set();
    for (seed, job) in jobs.jobs().iter().enumerate() {
        match compare(job, &mut table, seed as u64) {
            Ok((Outcome::Merged, _)) => merged += 1,
            Ok(_) => {}
            Err(e) => panic!("job {}: {e}", job.name),
        }
    }
    assert!(merged > 100, "only {merged} jobs conflated");
    // Recurring jobs hit the table on their first build too.
    assert!(
        table.len() < jobs.len(),
        "{} distinct task-name lists in {} jobs",
        table.len(),
        jobs.len()
    );
}
