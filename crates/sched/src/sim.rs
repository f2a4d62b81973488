//! The discrete-event simulation loop.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::cluster::{Cluster, ClusterConfig};
use crate::metrics::SimMetrics;
use crate::policy::Policy;
use crate::tree::{Fold, Pair, PairTree};
use crate::workload::{SimJob, SimTask};

/// Diurnal online-service load co-located with the batch workload
/// (Section II: online jobs outrank batch, which backfills what is left).
///
/// The reserved CPU fraction on every machine follows a sinusoid between
/// `trough` and `peak` with a 24 h period (peak in the early evening),
/// re-evaluated hourly. Running batch instances are never evicted; the
/// reservation claims freed capacity first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineLoad {
    /// Minimum reserved CPU fraction (deep night).
    pub trough: f64,
    /// Maximum reserved CPU fraction (evening peak).
    pub peak: f64,
}

impl OnlineLoad {
    /// Target reserved fraction at simulation time `t` (seconds).
    pub fn fraction_at(&self, t: i64) -> f64 {
        let day = (t.rem_euclid(86_400)) as f64 / 86_400.0;
        let mid = 0.5 * (self.peak + self.trough);
        let amp = 0.5 * (self.peak - self.trough);
        (mid + amp * (std::f64::consts::TAU * (day - 0.55)).sin()).clamp(0.0, 0.95)
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Divide all arrival offsets by this factor (> 1 compresses an 8-day
    /// trace so a small cluster actually experiences contention).
    pub arrival_compression: f64,
    /// Co-located online load stealing capacity from batch, if any.
    pub online_load: Option<OnlineLoad>,
    /// When the online reservation cannot be satisfied from free capacity,
    /// kill the youngest running batch instances on the machine and requeue
    /// them (Section II-B: "the running batch jobs may be suspended or
    /// killed … they are then rescheduled"). Work done by an evicted
    /// instance is lost; it restarts from scratch elsewhere.
    pub evict_for_online: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cluster: ClusterConfig::default(),
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        }
    }
}

/// Per-task runtime state.
#[derive(Debug, Clone)]
struct TaskState {
    /// Unsatisfied dependencies.
    pending_parents: usize,
    /// Instances not yet placed.
    waiting_instances: u32,
    /// Instances placed but not finished.
    running_instances: u32,
}

/// Per-job runtime state.
#[derive(Debug, Clone)]
struct JobState {
    arrival: i64,
    finished_tasks: usize,
    finish_time: Option<i64>,
}

/// Every task's place in the dispatch order: ascending job key, then job
/// index, then deeper downstream critical path first, then node index.
/// Keys are frozen at admission, so the order is fixed for the whole run.
struct Ranks {
    /// Flat index of each job's node 0; task `(j, node)` is `first[j] + node`.
    first: Vec<usize>,
    /// Rank of each task, by flat index.
    rank: Vec<u32>,
    /// `(job, node)` at each rank.
    task: Vec<(usize, usize)>,
}

impl Ranks {
    fn new(jobs: &[SimJob], keys: &[f64]) -> Result<Ranks, String> {
        let mut first = Vec::with_capacity(jobs.len());
        let mut total = 0usize;
        for j in jobs {
            first.push(total);
            total += j.dag.len();
        }
        if u32::try_from(total).is_err() {
            return Err(format!(
                "{total} tasks exceed the simulator's limit of 2^32 - 1"
            ));
        }
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        // `freeze` rejects non-finite keys, so `partial_cmp` always
        // answers; it (unlike `total_cmp`) ties -0.0 with +0.0.
        order.sort_unstable_by(|&a, &b| {
            keys[a]
                .partial_cmp(&keys[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut rank = vec![0u32; total];
        let mut task = Vec::with_capacity(total);
        for j in order {
            let downstream = jobs[j].downstream_critical_path();
            let mut nodes: Vec<usize> = (0..jobs[j].dag.len()).collect();
            nodes.sort_unstable_by(|&a, &b| downstream[b].cmp(&downstream[a]).then(a.cmp(&b)));
            for node in nodes {
                rank[first[j] + node] = task.len() as u32;
                task.push((j, node));
            }
        }
        Ok(Ranks { first, rank, task })
    }

    fn of(&self, job: usize, node: usize) -> usize {
        self.rank[self.first[job] + node] as usize
    }
}

/// The tasks with instances waiting to be placed, keyed by rank. Each
/// tree node holds the componentwise minimum `(cpu, mem)` demand of the
/// ready tasks below it, so a dispatch pass skips whole subtrees whose
/// tasks provably fit nowhere.
struct ReadySet {
    demand: PairTree,
    len: usize,
}

impl ReadySet {
    fn new(tasks: usize) -> ReadySet {
        ReadySet {
            demand: PairTree::new(Fold::Min, &vec![Pair::NONE; tasks]),
            len: 0,
        }
    }

    /// Add a task that is not in the set.
    fn insert(&mut self, rank: usize, task: &SimTask) {
        self.len += 1;
        self.demand.set(rank, Pair::new(task.cpu, task.mem));
    }

    fn remove(&mut self, rank: usize) {
        self.len -= 1;
        self.demand.set(rank, Pair::NONE);
    }
}

/// One finish-heap entry: the instances of one task placed in one
/// dispatch pass. They start together and, sharing the task's duration,
/// finish together. Their `seq` numbers run consecutively from
/// `first_seq`, and `runs` holds `(machine, instances)` in seq order.
///
/// Fields are in heap order: finish time, then first seq. No two
/// batches share a first seq, so the later fields never decide, and
/// since each batch's seqs are consecutive, instances leave the heap in
/// the same `(finish, seq)` order one entry per instance would give.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Batch {
    finish: i64,
    first_seq: u64,
    start: i64,
    rank: usize,
    runs: Box<[(u32, u32)]>,
}

/// The simulator. Deterministic: identical inputs produce identical
/// schedules regardless of platform.
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    policy: Policy,
}

impl Simulator {
    /// Create a simulator with the given configuration and policy.
    pub fn new(cfg: SimConfig, policy: Policy) -> Simulator {
        Simulator { cfg, policy }
    }

    /// Run the workload to completion and return the metrics.
    ///
    /// Errors if the cluster has no machines (or more than `u32::MAX`),
    /// if `arrival_compression` is not finite and positive, if an event
    /// time (a compressed arrival, a finish, an hourly reconfiguration)
    /// would pass `i64::MAX` seconds, if any instance could never fit an
    /// empty machine (the workload would deadlock), or if the policy gives
    /// a job a non-finite key.
    pub fn run(&self, jobs: &[SimJob]) -> Result<SimMetrics, String> {
        self.run_impl(jobs, false).map(|(m, _)| m)
    }

    /// Like [`run`](Self::run), but also emit a `batch_instance`-schema
    /// record per placed instance — the simulated counterpart of the
    /// trace's instance file, consumable by
    /// `dagscope_trace::placement::PlacementStats`.
    pub fn run_with_trace(
        &self,
        jobs: &[SimJob],
    ) -> Result<(SimMetrics, Vec<dagscope_trace::InstanceRecord>), String> {
        self.run_impl(jobs, true)
    }

    fn run_impl(
        &self,
        jobs: &[SimJob],
        record_trace: bool,
    ) -> Result<(SimMetrics, Vec<dagscope_trace::InstanceRecord>), String> {
        let cluster_cfg = &self.cfg.cluster;
        if cluster_cfg.machines == 0 || u32::try_from(cluster_cfg.machines).is_err() {
            return Err(format!(
                "cluster needs 1 to {} machines, got {}",
                u32::MAX,
                cluster_cfg.machines
            ));
        }
        let compression = self.cfg.arrival_compression;
        if !(compression.is_finite() && compression > 0.0) {
            return Err(format!(
                "arrival compression must be finite and positive, got {compression}"
            ));
        }
        // With online load, an instance must fit in the most-free hour of
        // the day, or the workload can never finish.
        let min_reserved_frac = self.cfg.online_load.map_or(0.0, |load| {
            (0..24)
                .map(|h| load.fraction_at(h * 3_600))
                .fold(f64::INFINITY, f64::min)
        });
        let usable_cpu = (1.0 - min_reserved_frac) * cluster_cfg.cpu_per_machine;
        for job in jobs {
            for t in &job.tasks {
                // Asked as "does it fit", so a NaN demand, which can never
                // be placed, fails the check too.
                let fits = t.cpu <= usable_cpu && t.mem <= cluster_cfg.mem_per_machine;
                if !fits {
                    return Err(format!(
                        "job {} task {} instance ({} cpu, {} mem) exceeds machine capacity",
                        job.name, t.node, t.cpu, t.mem
                    ));
                }
            }
        }
        if jobs.is_empty() {
            return Ok((SimMetrics::default(), Vec::new()));
        }

        let mut cluster = Cluster::new(cluster_cfg.clone());

        // Compressed arrivals, preserving relative order from time zero.
        // One the `i64` event clock cannot hold is an error: a saturated
        // arrival would make later event times wrap.
        let min_arrival = jobs.iter().map(|j| j.arrival).min().unwrap_or(0);
        let arrival = |j: &SimJob| -> Result<i64, String> {
            let at = j
                .arrival
                .checked_sub(min_arrival)
                .map(|d| d as f64 / compression);
            match at {
                Some(t) if t < i64::MAX as f64 => Ok(t as i64),
                _ => Err(clock_overflow(
                    &format!("job {}'s compressed arrival", j.name),
                    compression,
                )),
            }
        };

        // Job-level policy keys, frozen at admission; the policy reports
        // how many jobs it had no usable prediction for.
        let crate::policy::FrozenKeys { keys, unknown_jobs } = self.policy.freeze(jobs)?;
        let ranks = Ranks::new(jobs, &keys)?;

        let mut job_state: Vec<JobState> = jobs
            .iter()
            .map(|j| {
                Ok(JobState {
                    arrival: arrival(j)?,
                    finished_tasks: 0,
                    finish_time: None,
                })
            })
            .collect::<Result<_, String>>()?;
        let mut task_state: Vec<Vec<TaskState>> = jobs
            .iter()
            .map(|j| {
                (0..j.dag.len())
                    .map(|node| TaskState {
                        pending_parents: j.dag.in_degree(node),
                        waiting_instances: j.tasks[node].instances,
                        running_instances: 0,
                    })
                    .collect()
            })
            .collect();

        // Event queues.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by_key(|&i| (job_state[i].arrival, i));
        let mut next_arrival = 0usize;
        let mut finishes: BinaryHeap<Reverse<Batch>> = BinaryHeap::new();
        // The batch being placed, as `(machine, instances)` runs.
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut seq = 0u64;
        let mut trace_rows: Vec<dagscope_trace::InstanceRecord> = Vec::new();
        // Eviction bookkeeping, kept only when eviction can happen: live
        // instances per machine (youngest last) and tombstones for
        // killed-but-still-queued finish events.
        let evicting = self.cfg.evict_for_online;
        let mut live_on_machine: Vec<Vec<u64>> = vec![Vec::new(); cluster_cfg.machines];
        let mut live_info: std::collections::HashMap<u64, (usize, usize)> =
            std::collections::HashMap::new();
        let mut tombstones: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut evictions = 0u64;

        let mut ready = ReadySet::new(ranks.task.len());
        let mut busy_cpu = 0.0f64;
        let mut util_area = 0.0f64;
        let mut last_time = 0i64;
        let mut now;
        // Online-load reservation state: hourly reconfiguration events.
        let mut reserved = vec![0.0f64; cluster_cfg.machines];
        let mut next_reconfig: Option<i64> = self.cfg.online_load.map(|_| 0i64);

        loop {
            // Next event time: arrival, finish, or (while work remains) a
            // reservation reconfiguration.
            let t_arr = arrivals.get(next_arrival).map(|&i| job_state[i].arrival);
            let t_fin = finishes.peek().map(|Reverse(b)| b.finish);
            let work_remains =
                next_arrival < arrivals.len() || !finishes.is_empty() || ready.len > 0;
            let t_cfg = if work_remains { next_reconfig } else { None };
            now = match [t_arr, t_fin, t_cfg].into_iter().flatten().min() {
                Some(t) => t,
                None => break,
            };
            util_area += busy_cpu * (now - last_time) as f64;
            last_time = now;

            // Process arrivals at `now`.
            while next_arrival < arrivals.len() && job_state[arrivals[next_arrival]].arrival == now
            {
                let j = arrivals[next_arrival];
                next_arrival += 1;
                for (node, st) in task_state[j].iter().enumerate() {
                    if st.pending_parents == 0 {
                        ready.insert(ranks.of(j, node), &jobs[j].tasks[node]);
                    }
                }
            }

            // Process finishes at `now`, batch by batch, each instance in
            // seq order. Evicted instances are skipped: their capacity
            // went back when they were killed.
            while let Some(top) = finishes.peek_mut() {
                if top.0.finish != now {
                    break;
                }
                let Reverse(batch) = PeekMut::pop(top);
                let (j, node) = ranks.task[batch.rank];
                let task = &jobs[j].tasks[node];
                let mut finished = 0u32;
                let mut next_seq = batch.first_seq;
                for &(machine, n) in batch.runs.iter() {
                    let machine = machine as usize;
                    let seqs = next_seq..next_seq + u64::from(n);
                    next_seq = seqs.end;
                    let mut released = 0u32;
                    for sq in seqs {
                        if evicting {
                            if tombstones.remove(&sq) {
                                continue;
                            }
                            live_info.remove(&sq);
                            if let Some(pos) =
                                live_on_machine[machine].iter().position(|&x| x == sq)
                            {
                                live_on_machine[machine].swap_remove(pos);
                            }
                        }
                        if record_trace {
                            trace_rows.push(dagscope_trace::InstanceRecord {
                                instance_name: format!("{}_{}_{}", jobs[j].name, node, sq),
                                task_name: jobs[j].dag.task_name(node).to_string(),
                                job_name: jobs[j].name.clone(),
                                task_type: "1".into(),
                                status: dagscope_trace::Status::Terminated,
                                start_time: batch.start,
                                end_time: batch.finish,
                                machine_id: format!("m_{}", machine + 1).into(),
                                seq_no: 1,
                                total_seq_no: 1,
                                cpu_avg: task.cpu * 0.7,
                                cpu_max: task.cpu,
                                mem_avg: task.mem * 0.7,
                                mem_max: task.mem,
                            });
                        }
                        busy_cpu -= task.cpu;
                        released += 1;
                    }
                    cluster.release(machine, task.cpu, task.mem, released);
                    finished += released;
                }
                if finished == 0 {
                    continue; // the whole batch was evicted
                }
                let st = &mut task_state[j][node];
                st.running_instances -= finished;
                if st.running_instances == 0 && st.waiting_instances == 0 {
                    // Task complete.
                    job_state[j].finished_tasks += 1;
                    if job_state[j].finished_tasks == jobs[j].dag.len() {
                        job_state[j].finish_time = Some(now);
                    }
                    for &c in jobs[j].dag.children(node) {
                        let c = c as usize;
                        let cs = &mut task_state[j][c];
                        cs.pending_parents -= 1;
                        if cs.pending_parents == 0 {
                            ready.insert(ranks.of(j, c), &jobs[j].tasks[c]);
                        }
                    }
                }
            }

            // Re-evaluate the online reservation *after* finishes free
            // capacity and *before* batch dispatch — online load has
            // priority over batch (Section II).
            if let (Some(load), Some(tc)) = (self.cfg.online_load, next_reconfig) {
                if tc == now {
                    let target = load.fraction_at(now) * cluster_cfg.cpu_per_machine;
                    for (m, r) in reserved.iter_mut().enumerate() {
                        let delta = target - *r;
                        if delta > 0.0 {
                            *r += cluster.reserve_cpu(m, delta);
                            // Shortfall: online load outranks batch — evict
                            // youngest batch instances until satisfied.
                            while evicting && target - *r > 1e-9 {
                                let Some(victim) = live_on_machine[m].pop() else {
                                    break;
                                };
                                let (vj, vnode) = live_info.remove(&victim).expect("live victim");
                                let vtask = &jobs[vj].tasks[vnode];
                                cluster.release(m, vtask.cpu, vtask.mem, 1);
                                busy_cpu -= vtask.cpu;
                                tombstones.insert(victim);
                                evictions += 1;
                                let vst = &mut task_state[vj][vnode];
                                vst.running_instances -= 1;
                                // A task with waiting instances is ready
                                // already.
                                if vst.waiting_instances == 0 {
                                    ready.insert(ranks.of(vj, vnode), vtask);
                                }
                                vst.waiting_instances += 1;
                                *r += cluster.reserve_cpu(m, target - *r);
                            }
                        } else if delta < 0.0 {
                            cluster.unreserve_cpu(m, -delta);
                            *r = target;
                        }
                    }
                    next_reconfig = Some(now.checked_add(3_600).ok_or_else(|| {
                        clock_overflow("the next online reconfiguration", compression)
                    })?);
                }
            }

            // Dispatch: visit ready tasks in rank order and place as many
            // instances of each as fit, as one batch. Within a pass
            // capacity only shrinks, so a task fits nowhere when its
            // demand exceeds the largest free CPU or memory on any
            // machine, or dominates a demand that already failed this
            // pass. Subtrees whose minimum demand meets either test are
            // skipped whole; `failed` keeps the Pareto-minimal failed
            // demands.
            let mut failed: Vec<Pair> = Vec::new();
            let mut from = 0usize;
            loop {
                let free = cluster.max_free();
                let Some(rank) = ready.demand.first(from, |d| {
                    d.cpu <= free.cpu
                        && d.mem <= free.mem
                        && !failed.iter().any(|f| d.cpu >= f.cpu && d.mem >= f.mem)
                }) else {
                    break;
                };
                from = rank + 1;
                let (j, node) = ranks.task[rank];
                let task = &jobs[j].tasks[node];
                let st = &mut task_state[j][node];
                let first_seq = seq + 1;
                while let Some((machine, n)) =
                    cluster.place(task.cpu, task.mem, st.waiting_instances)
                {
                    st.waiting_instances -= n;
                    st.running_instances += n;
                    for _ in 0..n {
                        busy_cpu += task.cpu;
                        seq += 1;
                        if evicting {
                            live_on_machine[machine].push(seq);
                            live_info.insert(seq, (j, node));
                        }
                    }
                    let machine =
                        u32::try_from(machine).expect("run() caps the machine count at u32::MAX");
                    runs.push((machine, n));
                }
                if !runs.is_empty() {
                    let finish = now.checked_add(task.duration.max(1)).ok_or_else(|| {
                        clock_overflow(
                            &format!("job {} task {}'s finish", jobs[j].name, node),
                            compression,
                        )
                    })?;
                    finishes.push(Reverse(Batch {
                        finish,
                        first_seq,
                        start: now,
                        rank,
                        runs: runs.as_slice().into(),
                    }));
                    runs.clear();
                }
                if st.waiting_instances == 0 {
                    ready.remove(rank);
                } else {
                    failed.retain(|f| !(f.cpu >= task.cpu && f.mem >= task.mem));
                    failed.push(Pair::new(task.cpu, task.mem));
                }
            }
        }

        if let Some(stuck) = job_state.iter().position(|s| s.finish_time.is_none()) {
            return Err(format!(
                "job {} never completed (scheduler stuck)",
                jobs[stuck].name
            ));
        }

        let jcts: Vec<i64> = job_state
            .iter()
            .map(|s| s.finish_time.expect("every job finished: checked above") - s.arrival)
            .collect();
        let makespan = job_state
            .iter()
            .map(|s| s.finish_time.expect("every job finished: checked above"))
            .max()
            .unwrap_or(0);
        let mean_util = if makespan > 0 {
            util_area / (makespan as f64 * cluster.total_cpu())
        } else {
            0.0
        };
        let mut metrics = SimMetrics::from_jcts(self.policy.label(), jcts, makespan, mean_util);
        metrics.evictions = evictions;
        metrics.unknown_jobs = unknown_jobs;
        Ok((metrics, trace_rows))
    }
}

/// The error for an event time past the `i64` seconds of the event clock.
fn clock_overflow(what: &str, compression: f64) -> String {
    format!(
        "{what} falls past the event clock's {} s at arrival compression {compression:?}",
        i64::MAX
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn record(job: &str, name: &str, instances: u32, start: i64, dur: i64) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: instances,
            job_name: job.into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: start.max(1),
            end_time: start.max(1) + dur,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        }
    }

    fn sim_job(name: &str, arrival: i64, specs: &[(&str, u32, i64)]) -> SimJob {
        SimJob::from_trace_job(&Job {
            name: name.into(),
            tasks: specs
                .iter()
                .map(|(n, i, d)| record(name, n, *i, arrival, *d))
                .collect(),
        })
        .unwrap()
    }

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            cluster: ClusterConfig {
                machines: 2,
                cpu_per_machine: 200.0,
                mem_per_machine: 2.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        }
    }

    #[test]
    fn single_chain_takes_critical_path() {
        // Uncontended: JCT equals the weighted critical path.
        let job = sim_job("j_1", 100, &[("M1", 1, 30), ("R2_1", 1, 50)]);
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.jobs, 1);
        assert_eq!(m.mean_jct, 80.0);
        assert_eq!(m.makespan, 80);
    }

    #[test]
    fn parallel_instances_run_concurrently() {
        // 4 instances of 100 cpu on 2×200 machines: all fit at once.
        let job = sim_job("j_1", 0, &[("M1", 4, 10)]);
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.mean_jct, 10.0);
    }

    #[test]
    fn capacity_forces_waves() {
        // 8 instances, only 4 fit at a time → two waves of 10 s.
        let job = sim_job("j_1", 0, &[("M1", 8, 10)]);
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.mean_jct, 20.0);
    }

    #[test]
    fn dependencies_respected() {
        // Diamond: M1 then two parallel R, then sink. CP = 10+20+5.
        let job = sim_job(
            "j_1",
            0,
            &[
                ("M1", 1, 10),
                ("R2_1", 1, 20),
                ("R3_1", 1, 20),
                ("R4_3_2", 1, 5),
            ],
        );
        let m = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job])
            .unwrap();
        assert_eq!(m.mean_jct, 35.0);
    }

    #[test]
    fn sjf_beats_fifo_on_mean_jct_under_contention() {
        // A long job arrives just before many short ones on a tight
        // cluster. FIFO makes the short jobs wait; SJF does not.
        let mut jobs = vec![sim_job("j_long", 0, &[("M1", 4, 1_000)])];
        for i in 0..6 {
            jobs.push(sim_job(&format!("j_s{i}"), 1, &[("M1", 4, 10)]));
        }
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 400.0,
                mem_per_machine: 4.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        let fifo = Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&jobs)
            .unwrap();
        let sjf = Simulator::new(cfg, Policy::SjfOracle).run(&jobs).unwrap();
        assert!(
            sjf.mean_jct < fifo.mean_jct / 2.0,
            "sjf {} vs fifo {}",
            sjf.mean_jct,
            fifo.mean_jct
        );
        // Work conservation: the makespan is identical.
        assert_eq!(sjf.makespan, fifo.makespan);
    }

    #[test]
    fn predicted_sjf_between_fifo_and_oracle() {
        use crate::policy::Predictions;
        let mut jobs = vec![sim_job("j_long", 0, &[("M1", 4, 800)])];
        for i in 0..5 {
            jobs.push(sim_job(
                &format!("j_s{i}"),
                1,
                &[("M1", 2, 10), ("R2_1", 1, 10)],
            ));
        }
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 400.0,
                mem_per_machine: 4.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        // Perfect predictions → same as oracle SJF on these jobs.
        let mut predictions = Predictions::new();
        for j in &jobs {
            predictions.insert(j.name.as_str(), j.total_work());
        }
        let fifo = Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&jobs)
            .unwrap();
        let pred = Simulator::new(cfg.clone(), Policy::PredictedSjf { predictions })
            .run(&jobs)
            .unwrap();
        let oracle = Simulator::new(cfg, Policy::SjfOracle).run(&jobs).unwrap();
        assert!(pred.mean_jct <= fifo.mean_jct);
        assert!((pred.mean_jct - oracle.mean_jct).abs() < 1e-9);
    }

    #[test]
    fn non_finite_policy_key_is_an_error() {
        use crate::policy::Predictions;
        let jobs = [
            sim_job("j_a", 0, &[("M1", 1, 10)]),
            sim_job("j_b", 0, &[("M1", 1, 10)]),
        ];
        for bad in [f64::NAN, f64::INFINITY] {
            let mut predictions = Predictions::new();
            predictions.insert("j_a", 1.0);
            predictions.insert("j_b", bad);
            let err = Simulator::new(tiny_cfg(), Policy::PredictedSjf { predictions })
                .run(&jobs)
                .unwrap_err();
            assert!(
                err.contains("predicted-sjf") && err.contains("j_b"),
                "{err}"
            );
        }
    }

    /// `sim_job("j_1", 0, &[("M1", 1, 10)])` with its one task's demand
    /// changed.
    fn one_task_job(cpu: f64, mem: f64) -> SimJob {
        let mut job = sim_job("j_1", 0, &[("M1", 1, 10)]);
        job.tasks[0].cpu = cpu;
        job.tasks[0].mem = mem;
        job
    }

    #[test]
    fn oversized_instance_rejected() {
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 50.0,
                mem_per_machine: 1.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        // 100 cpu on a 50-cpu machine; then a NaN demand on a job that
        // otherwise fits, which could never be placed.
        for job in [
            sim_job("j_1", 0, &[("M1", 1, 10)]),
            one_task_job(f64::NAN, 0.5),
            one_task_job(10.0, f64::NAN),
        ] {
            let err = Simulator::new(cfg.clone(), Policy::Fifo)
                .run(&[job])
                .unwrap_err();
            assert!(err.contains("exceeds machine capacity"), "{err}");
        }
    }

    #[test]
    fn degenerate_cluster_config_is_an_error() {
        // With online load each of these never ended (the hourly
        // reservation events kept the loop alive); without it, a
        // compression of 0, NaN or -3 printed an absurd makespan.
        let jobs = [
            sim_job("j_1", 0, &[("M1", 1, 10)]),
            sim_job("j_2", 500, &[("M1", 2, 10)]),
        ];
        let load = OnlineLoad {
            trough: 0.2,
            peak: 0.5,
        };
        for online_load in [None, Some(load)] {
            let base = SimConfig {
                online_load,
                evict_for_online: online_load.is_some(),
                ..tiny_cfg()
            };
            let mut cases = vec![(
                SimConfig {
                    cluster: ClusterConfig {
                        machines: 0,
                        ..base.cluster.clone()
                    },
                    ..base.clone()
                },
                "machines, got 0",
            )];
            for c in [0.0, -0.0, -3.0, f64::NAN, f64::INFINITY] {
                cases.push((
                    SimConfig {
                        arrival_compression: c,
                        ..base.clone()
                    },
                    "arrival compression must be finite and positive",
                ));
            }
            for (cfg, problem) in cases {
                for workload in [&jobs[..], &[]] {
                    let err = Simulator::new(cfg.clone(), Policy::Fifo)
                        .run(workload)
                        .unwrap_err();
                    assert!(err.contains(problem), "{cfg:?}: {err}");
                }
            }
        }
    }

    #[test]
    fn chain_past_the_event_clock_is_an_error() {
        // Each duration fits the clock but the chain does not: the
        // critical-path keys saturate, and the second finish is the
        // event-clock error.
        let half = i64::MAX / 2 + 1;
        let jobs = [sim_job("j_1", 100, &[("M1", 1, half), ("R2_1", 1, half)])];
        for policy in [Policy::Fifo, Policy::CriticalPathOracle] {
            let err = Simulator::new(tiny_cfg(), policy).run(&jobs).unwrap_err();
            assert!(err.contains("job j_1 task 1's finish"), "{err}");
        }
    }

    #[test]
    fn event_clock_overflow_is_an_error() {
        // A compressed arrival past `i64::MAX` s used to saturate, and the
        // event times after it wrapped: absurd metrics without online
        // load, a replay that never ended with it.
        let load = OnlineLoad {
            trough: 0.2,
            peak: 0.5,
        };
        let jobs = [
            sim_job("j_1", 0, &[("M1", 1, 10)]),
            sim_job("j_2", 500, &[("M1", 2, 10)]),
        ];
        let mut spread = jobs.clone();
        spread[0].arrival = i64::MIN;
        spread[1].arrival = i64::MAX;
        for online_load in [None, Some(load)] {
            let cfg = |arrival_compression| SimConfig {
                arrival_compression,
                online_load,
                evict_for_online: online_load.is_some(),
                ..tiny_cfg()
            };
            for (workload, compression) in [(&jobs, 1e-300), (&spread, 1.0)] {
                let err = Simulator::new(cfg(compression), Policy::Fifo)
                    .run(workload)
                    .unwrap_err();
                assert!(err.contains("job j_2's compressed arrival"), "{err}");
                assert!(
                    err.contains(&format!("compression {compression:?}")),
                    "{err}"
                );
            }
        }
        // A finish one second short of the clock's end still runs; stretch
        // the arrivals (compression < 1) and the same finish overflows.
        let long = [
            sim_job("j_1", 0, &[("M1", 1, 10)]),
            sim_job("j_2", 1_000, &[("M1", 1, i64::MAX - 1_000)]),
        ];
        let m = Simulator::new(tiny_cfg(), Policy::Fifo).run(&long).unwrap();
        assert_eq!(m.makespan, i64::MAX - 1);
        let stretched = SimConfig {
            arrival_compression: 0.5,
            ..tiny_cfg()
        };
        let err = Simulator::new(stretched, Policy::Fifo)
            .run(&long)
            .unwrap_err();
        assert!(err.contains("job j_2 task 0's finish"), "{err}");
        assert!(err.contains("compression 0.5"), "{err}");
    }

    #[test]
    fn empty_workload() {
        let m = Simulator::new(tiny_cfg(), Policy::Fifo).run(&[]).unwrap();
        assert_eq!(m.jobs, 0);
        assert_eq!(m.makespan, 0);
    }

    #[test]
    fn arrival_compression_shifts_contention() {
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| sim_job(&format!("j_{i}"), i * 10_000, &[("M1", 4, 100)]))
            .collect();
        let spread = Simulator::new(tiny_cfg(), Policy::Fifo).run(&jobs).unwrap();
        let cfg = SimConfig {
            arrival_compression: 10_000.0,
            ..tiny_cfg()
        };
        let squeezed = Simulator::new(cfg, Policy::Fifo).run(&jobs).unwrap();
        // Compressed arrivals → queueing → higher mean JCT.
        assert!(squeezed.mean_jct > spread.mean_jct);
        assert!(squeezed.makespan < spread.makespan);
    }

    #[test]
    fn run_with_trace_emits_every_instance() {
        let job = sim_job("j_1", 0, &[("M1", 4, 10), ("R2_1", 2, 20)]);
        let (m, rows) = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run_with_trace(&[job])
            .unwrap();
        assert_eq!(m.jobs, 1);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.end_time >= r.start_time);
            assert!(r.machine_id.starts_with("m_"));
            assert!(r.cpu_max >= r.cpu_avg);
        }
        // The emitted rows feed the placement analysis directly.
        let stats = dagscope_trace::placement::PlacementStats::compute(&rows);
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.instances, 6);
        // Plain run() matches run_with_trace metrics.
        let job2 = sim_job("j_1", 0, &[("M1", 4, 10), ("R2_1", 2, 20)]);
        let only = Simulator::new(tiny_cfg(), Policy::Fifo)
            .run(&[job2])
            .unwrap();
        assert_eq!(only, m);
    }

    #[test]
    fn online_load_fraction_bounds() {
        let load = OnlineLoad {
            trough: 0.2,
            peak: 0.7,
        };
        for h in 0..24 {
            let f = load.fraction_at(h * 3_600);
            assert!((0.15..=0.75).contains(&f), "hour {h}: {f}");
        }
        // Period is 24 h.
        assert_eq!(load.fraction_at(3_600), load.fraction_at(3_600 + 86_400));
        // Degenerate flat load.
        let flat = OnlineLoad {
            trough: 0.5,
            peak: 0.5,
        };
        assert!((flat.fraction_at(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn online_load_slows_batch() {
        // A steady stream of jobs on a small cluster; reserving half the
        // CPU for online services must raise batch completion times.
        let jobs: Vec<SimJob> = (0..20)
            .map(|i| {
                sim_job(
                    &format!("j_{i}"),
                    i * 50,
                    &[("M1", 6, 400), ("R2_1", 2, 200)],
                )
            })
            .collect();
        let base = SimConfig {
            cluster: ClusterConfig {
                machines: 2,
                cpu_per_machine: 400.0,
                mem_per_machine: 8.0,
            },
            arrival_compression: 1.0,
            online_load: None,
            evict_for_online: false,
        };
        let colocated = SimConfig {
            online_load: Some(OnlineLoad {
                trough: 0.4,
                peak: 0.6,
            }),
            ..base.clone()
        };
        let free = Simulator::new(base, Policy::Fifo).run(&jobs).unwrap();
        let shared = Simulator::new(colocated, Policy::Fifo).run(&jobs).unwrap();
        assert!(
            shared.mean_jct > free.mean_jct,
            "shared {} !> free {}",
            shared.mean_jct,
            free.mean_jct
        );
        assert_eq!(shared.jobs, jobs.len(), "all jobs still complete");
    }

    #[test]
    fn eviction_kills_and_reschedules() {
        // Long-running instances saturate the machine; when the online
        // reservation ramps up, eviction must fire — and every job must
        // still finish (rescheduled, with lost work).
        // Day-long instances guarantee they are still running when the
        // online load climbs toward its evening peak.
        let jobs: Vec<SimJob> = (0..4)
            .map(|i| sim_job(&format!("j_{i}"), i, &[("M1", 2, 40_000)]))
            .collect();
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 2,
                cpu_per_machine: 400.0,
                mem_per_machine: 8.0,
            },
            arrival_compression: 1.0,
            online_load: Some(OnlineLoad {
                trough: 0.05,
                peak: 0.85,
            }),
            evict_for_online: true,
        };
        let evicting = Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&jobs)
            .unwrap();
        assert_eq!(evicting.jobs, 4, "all jobs complete despite evictions");
        assert!(evicting.evictions > 0, "no eviction happened");

        // Without the flag, the same scenario completes with zero kills.
        let gentle = SimConfig {
            evict_for_online: false,
            ..cfg
        };
        let no_evict = Simulator::new(gentle, Policy::Fifo).run(&jobs).unwrap();
        assert_eq!(no_evict.evictions, 0);
        // Eviction loses work, so it cannot finish earlier overall.
        assert!(evicting.makespan >= no_evict.makespan);
    }

    #[test]
    fn online_load_validation_tightens() {
        // 300-cpu instances fit an empty 400-cpu machine but not one with
        // a permanent 50 % reservation.
        let job = sim_job("j_1", 0, &[("M1", 1, 10)]); // 100 cpu — fine
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 1,
                cpu_per_machine: 400.0,
                mem_per_machine: 4.0,
            },
            arrival_compression: 1.0,
            online_load: Some(OnlineLoad {
                trough: 0.5,
                peak: 0.5,
            }),
            evict_for_online: false,
        };
        assert!(Simulator::new(cfg.clone(), Policy::Fifo)
            .run(&[job])
            .is_ok());
        // Under online load a NaN demand that passed validation would
        // never place, and the replay would never end.
        for bad in [
            one_task_job(300.0, 0.5),
            one_task_job(f64::NAN, 0.5),
            one_task_job(100.0, f64::NAN),
        ] {
            let err = Simulator::new(cfg.clone(), Policy::Fifo)
                .run(&[bad])
                .unwrap_err();
            assert!(err.contains("exceeds machine capacity"), "{err}");
        }
    }

    #[test]
    fn deterministic() {
        let jobs: Vec<SimJob> = (0..10)
            .map(|i| {
                sim_job(
                    &format!("j_{i}"),
                    i * 7,
                    &[("M1", (i % 3 + 1) as u32, 20), ("R2_1", 1, 30)],
                )
            })
            .collect();
        let a = Simulator::new(tiny_cfg(), Policy::SjfOracle)
            .run(&jobs)
            .unwrap();
        let b = Simulator::new(tiny_cfg(), Policy::SjfOracle)
            .run(&jobs)
            .unwrap();
        assert_eq!(a, b);
    }
}
