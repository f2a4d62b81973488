//! The paper's job-sampling criteria (Section IV-B).
//!
//! Three filters gate a job into the experimental set:
//!
//! * **Integrity** — every task terminated normally inside the trace window
//!   (no killed / interrupted / still-running tasks),
//! * **Availability** — timestamps and resource requests are present and
//!   consistent, and the job started *after* collection began (jobs whose
//!   early history predates the window have unreliable runtimes),
//! * **Variability** — the sample preserves topological diversity, which we
//!   realize as stratified sampling across job-size groups.
//!
//! The criteria judge a materialized [`Job`]; the streamed scan
//! ([`crate::stream::StreamedTrace`]) folds the same verdicts row by row,
//! after dropping every job a quarantined row implicates (see
//! [`crate::quarantine`]), and samples with
//! [`stratified_sample_indices_from`] over its size column.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Job, JobSet};

/// Integrity + availability thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCriteria {
    /// Trace window length in seconds; jobs ending after it are cut off.
    pub window_secs: i64,
    /// Jobs starting earlier than this margin are considered to have
    /// pre-window history and are rejected by the availability rule.
    pub min_start: i64,
}

impl Default for SampleCriteria {
    fn default() -> Self {
        SampleCriteria {
            window_secs: 8 * 86_400,
            min_start: 1,
        }
    }
}

impl SampleCriteria {
    /// Integrity: the job is a DAG job and every task terminated.
    pub fn integrity(&self, job: &Job) -> bool {
        job.is_dag_job() && job.fully_terminated()
    }

    /// Availability: consistent timestamps inside the window and non-zero
    /// resource requests on every task.
    pub fn availability(&self, job: &Job) -> bool {
        let Some(start) = job.start_time() else {
            return false;
        };
        let Some(end) = job.end_time() else {
            return false;
        };
        if start < self.min_start || end > self.window_secs + 86_400 {
            return false;
        }
        job.tasks.iter().all(|t| {
            t.duration().is_some() && t.plan_cpu > 0.0 && t.plan_mem > 0.0 && t.instance_num > 0
        })
    }

    /// Both per-job criteria at once.
    pub fn accepts(&self, job: &Job) -> bool {
        self.integrity(job) && self.availability(job)
    }

    /// Filter a [`JobSet`] down to the jobs passing both criteria,
    /// preserving the set's deterministic order.
    pub fn filter<'a>(&self, set: &'a JobSet) -> Vec<&'a Job> {
        set.jobs().iter().filter(|j| self.accepts(j)).collect()
    }
}

/// Variability-preserving sampling: one job from every size group first
/// (so the sample spans as many distinct topological scales as the
/// population allows — the paper's sample exhibits 17 size types), then the
/// remaining slots are filled *proportionally* to the population, which
/// keeps the natural small-job skew the paper's grouping results reflect
/// (group A holds ~75 % of jobs and is dominated by 2–3 task jobs).
/// Deterministic in `seed`.
pub fn stratified_sample<'a>(jobs: &[&'a Job], n: usize, seed: u64) -> Vec<&'a Job> {
    let sizes: Vec<usize> = jobs.iter().map(|j| j.size()).collect();
    stratified_sample_indices(&sizes, n, seed)
        .into_iter()
        .map(|i| jobs[i])
        .collect()
}

/// Index-based core of [`stratified_sample`]: `sizes[i]` is the size of the
/// i-th population job, the result is the picked indices in sample order.
///
/// Every RNG draw (the per-group Fisher–Yates shuffles and the pool
/// shuffle) depends only on group *lengths*, never on element values, so
/// sampling over a bare size column consumes the identical random stream as
/// sampling over materialized `&Job`s — which is what lets the streaming
/// engine pick its sample before a single job is materialized and still
/// reproduce the batch path's sample bit-for-bit.
pub fn stratified_sample_indices(sizes: &[usize], n: usize, seed: u64) -> Vec<usize> {
    stratified_sample_indices_from(sizes.iter().copied(), n, seed)
}

/// Size → group, by open addressing over the distinct sizes seen: its
/// memory follows how many sizes there are, not how large they are (a
/// hostile trace can hold a job of billions of tasks), and a lookup is one
/// multiply and, at the load it keeps, about one probe.
struct SizeGroups {
    /// `(size, group)` per slot; [`SizeGroups::EMPTY`] marks a free one.
    slots: Vec<(usize, u32)>,
    /// Each group's size, groups numbered in order of first appearance.
    sizes: Vec<usize>,
}

impl SizeGroups {
    const EMPTY: u32 = u32::MAX;

    fn new() -> SizeGroups {
        SizeGroups {
            slots: vec![(0, Self::EMPTY); 16],
            sizes: Vec::new(),
        }
    }

    /// The slot holding `size`, or the free slot where it belongs.
    fn slot(&self, size: usize) -> usize {
        let mask = self.slots.len() - 1;
        let h = (size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut pos = (h ^ h >> 32) as usize & mask;
        loop {
            let (s, group) = self.slots[pos];
            if group == Self::EMPTY || s == size {
                return pos;
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The group of `size`, opening one at its first appearance.
    fn insert(&mut self, size: usize) -> usize {
        let mut pos = self.slot(size);
        if self.slots[pos].1 == Self::EMPTY {
            if (self.sizes.len() + 1) * 2 > self.slots.len() {
                let grown = vec![(0, Self::EMPTY); self.slots.len() * 2];
                let old = std::mem::replace(&mut self.slots, grown);
                for entry in old.into_iter().filter(|e| e.1 != Self::EMPTY) {
                    let at = self.slot(entry.0);
                    self.slots[at] = entry;
                }
                pos = self.slot(size);
            }
            self.slots[pos] = (size, self.sizes.len() as u32);
            self.sizes.push(size);
        }
        self.slots[pos].1 as usize
    }

    /// The group of a size already inserted.
    fn get(&self, size: usize) -> usize {
        let group = self.slots[self.slot(size)].1;
        debug_assert_ne!(group, Self::EMPTY, "size seen in pass 1");
        group as usize
    }
}

/// Iterator form of [`stratified_sample_indices`]: two passes over the
/// size column, one `u32` scratch vector of population length, and a
/// table of the distinct sizes. At full-trace scale the population is
/// millions of jobs, so the obvious map-of-index-vectors grouping (plus a
/// separate leftover pool) would triple the sampler's footprint right at
/// the scan's peak-RSS moment; this layout keeps the groups as contiguous
/// runs of a single vector, in ascending size order, and compacts the pool
/// in place. The shuffle sequence consumes the exact RNG stream of the
/// reference sampler (draws depend only on group lengths), so the picks
/// stay bit-identical.
pub fn stratified_sample_indices_from<I>(sizes: I, n: usize, seed: u64) -> Vec<usize>
where
    I: Iterator<Item = usize> + Clone,
{
    // Pass 1: group cardinalities, groups in order of first appearance.
    let mut groups = SizeGroups::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut total = 0usize;
    for s in sizes.clone() {
        let g = groups.insert(s);
        if g == counts.len() {
            counts.push(0);
        }
        counts[g] += 1;
        total += 1;
    }
    // The groups by ascending size, and where each one's run starts.
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_unstable_by_key(|&g| groups.sizes[g]);
    let mut cursors = vec![0u32; counts.len()];
    let mut start = 0u32;
    for &g in &order {
        cursors[g] = start;
        start += counts[g];
    }
    // Pass 2: scatter indices into contiguous per-group runs, members in
    // ascending index order — the same layout the per-group vectors had.
    let mut buckets = vec![0u32; total];
    for (i, s) in sizes.enumerate() {
        let cursor = &mut cursors[groups.get(s)];
        buckets[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    let counts: Vec<usize> = order.iter().map(|&g| counts[g] as usize).collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut offset = 0usize;
    for &c in &counts {
        buckets[offset..offset + c].shuffle(&mut rng);
        offset += c;
    }

    let mut picked = Vec::with_capacity(n.min(total));
    // Coverage pass: one representative per size group.
    let mut offset = 0usize;
    for &c in &counts {
        if picked.len() == n {
            break;
        }
        picked.push(buckets[offset] as usize);
        offset += c;
    }
    // Proportional fill: the leftovers of every group, pooled and shuffled,
    // reproduce the population's size distribution. The pool is the bucket
    // vector minus each group's head, compacted in place.
    let mut write = 0usize;
    let mut offset = 0usize;
    for &c in &counts {
        for j in 1..c {
            buckets[write] = buckets[offset + j];
            write += 1;
        }
        offset += c;
    }
    buckets.truncate(write);
    buckets.shuffle(&mut rng);
    for &i in &buckets {
        if picked.len() == n {
            break;
        }
        picked.push(i as usize);
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Status, TaskRecord};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The sampler as it was written over two ordered maps, one lookup
    /// each per job and pass: the oracle for the size table.
    fn ordered_map_sample<I>(sizes: I, n: usize, seed: u64) -> Vec<usize>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let mut counts: BTreeMap<usize, u32> = BTreeMap::new();
        let mut total = 0usize;
        for s in sizes.clone() {
            *counts.entry(s).or_default() += 1;
            total += 1;
        }
        let mut cursors: BTreeMap<usize, u32> = BTreeMap::new();
        let mut start = 0u32;
        for (&s, &c) in &counts {
            cursors.insert(s, start);
            start += c;
        }
        let mut buckets = vec![0u32; total];
        for (i, s) in sizes.enumerate() {
            let cursor = cursors.get_mut(&s).expect("size seen in pass 1");
            buckets[*cursor as usize] = i as u32;
            *cursor += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offset = 0usize;
        for &c in counts.values() {
            buckets[offset..offset + c as usize].shuffle(&mut rng);
            offset += c as usize;
        }
        let mut picked = Vec::with_capacity(n.min(total));
        let mut offset = 0usize;
        for &c in counts.values() {
            if picked.len() == n {
                break;
            }
            picked.push(buckets[offset] as usize);
            offset += c as usize;
        }
        let mut write = 0usize;
        let mut offset = 0usize;
        for &c in counts.values() {
            for j in 1..c as usize {
                buckets[write] = buckets[offset + j];
                write += 1;
            }
            offset += c as usize;
        }
        buckets.truncate(write);
        buckets.shuffle(&mut rng);
        for &i in &buckets {
            if picked.len() == n {
                break;
            }
            picked.push(i as usize);
        }
        picked
    }

    proptest! {
        #[test]
        fn size_table_picks_what_the_ordered_maps_pick(
            sizes in prop::collection::vec(
                (0u8..11, 1usize..40, any::<usize>()).prop_map(|(kind, small, any)| match kind {
                    0..=7 => small,
                    8 => usize::MAX,
                    9 => 3_000_000_000,
                    _ => any,
                }),
                0..400,
            ),
            n in 0usize..160,
            seed in any::<u64>(),
        ) {
            let want = ordered_map_sample(sizes.iter().copied(), n, seed);
            prop_assert_eq!(stratified_sample_indices(&sizes, n, seed), want);
        }
    }

    #[test]
    fn size_table_grows_past_many_distinct_sizes() {
        // 3,000 distinct sizes, most far apart, each seen one to three
        // times in a scrambled order: the table rebuilds many times.
        let sizes: Vec<usize> = (0..6000u64)
            .map(|i| {
                let v = (i % 3000).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
                v as usize + i as usize % 2
            })
            .collect();
        for n in [0, 1, 100, 2999, 3000, 4500, 7000] {
            let want = ordered_map_sample(sizes.iter().copied(), n, 7);
            assert_eq!(stratified_sample_indices(&sizes, n, 7), want, "n {n}");
        }
    }

    fn task(job: &str, name: &str, status: Status, start: i64, end: i64) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: 1,
            job_name: job.into(),
            task_type: "1".into(),
            status,
            start_time: start,
            end_time: end,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        }
    }

    fn chain_job(name: &str, size: usize, start: i64) -> Job {
        let mut tasks = vec![task(name, "M1", Status::Terminated, start, start + 10)];
        for i in 2..=size {
            tasks.push(task(
                name,
                &format!("R{i}_{}", i - 1),
                Status::Terminated,
                start + 10 * (i as i64 - 1),
                start + 10 * i as i64,
            ));
        }
        Job {
            name: name.into(),
            tasks,
        }
    }

    #[test]
    fn integrity_rejects_abnormal_and_non_dag() {
        let c = SampleCriteria::default();
        assert!(c.integrity(&chain_job("j", 3, 100)));
        let mut failed = chain_job("j", 3, 100);
        failed.tasks[2].status = Status::Failed;
        assert!(!c.integrity(&failed));
        let indep = Job {
            name: "j".into(),
            tasks: vec![task("j", "task_x", Status::Terminated, 1, 2)],
        };
        assert!(!c.integrity(&indep));
    }

    #[test]
    fn availability_rules() {
        let c = SampleCriteria::default();
        assert!(c.availability(&chain_job("j", 2, 100)));
        // Pre-window start.
        let early = chain_job("j", 2, 0);
        assert!(!c.availability(&early));
        // End beyond the window.
        let late = chain_job("j", 2, c.window_secs + 90_000);
        assert!(!c.availability(&late));
        // Missing resources.
        let mut no_cpu = chain_job("j", 2, 100);
        no_cpu.tasks[0].plan_cpu = 0.0;
        assert!(!c.availability(&no_cpu));
        // Missing end time.
        let mut no_end = chain_job("j", 2, 100);
        no_end.tasks[1].end_time = 0;
        assert!(!c.availability(&no_end));
    }

    #[test]
    fn filter_applies_both() {
        let mut jobs = vec![chain_job("j_a", 2, 100), chain_job("j_b", 3, 50)];
        jobs[1].tasks[0].status = Status::Cancelled;
        let set = JobSet::from_jobs(jobs);
        let kept = SampleCriteria::default().filter(&set);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, "j_a");
    }

    #[test]
    fn stratified_sample_spans_sizes() {
        // 40 jobs of size 2 and one job each of sizes 3..=10: a plain random
        // sample of 9 would almost surely miss sizes; stratified must not.
        let mut jobs = Vec::new();
        for i in 0..40 {
            jobs.push(chain_job(&format!("j_s2_{i}"), 2, 100 + i));
        }
        for s in 3..=10 {
            jobs.push(chain_job(&format!("j_s{s}"), s as usize, 100));
        }
        let refs: Vec<&Job> = jobs.iter().collect();
        let sample = stratified_sample(&refs, 9, 1);
        let sizes: std::collections::BTreeSet<usize> = sample.iter().map(|j| j.size()).collect();
        assert_eq!(sizes.len(), 9, "sample should hit all 9 size groups");
    }

    #[test]
    fn stratified_sample_handles_small_population() {
        let jobs = [chain_job("j_1", 2, 100)];
        let refs: Vec<&Job> = jobs.iter().collect();
        let sample = stratified_sample(&refs, 10, 0);
        assert_eq!(sample.len(), 1);
        assert!(stratified_sample(&[], 5, 0).is_empty());
    }

    #[test]
    fn stratified_sample_deterministic() {
        let jobs: Vec<Job> = (0..30)
            .map(|i| chain_job(&format!("j_{i}"), 2 + (i % 5) as usize, 100 + i))
            .collect();
        let refs: Vec<&Job> = jobs.iter().collect();
        let a: Vec<String> = stratified_sample(&refs, 10, 9)
            .iter()
            .map(|j| j.name.clone())
            .collect();
        let b: Vec<String> = stratified_sample(&refs, 10, 9)
            .iter()
            .map(|j| j.name.clone())
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = stratified_sample(&refs, 10, 10)
            .iter()
            .map(|j| j.name.clone())
            .collect();
        assert_ne!(a, c);
    }
}
