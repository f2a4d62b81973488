//! The simulator against a reference implementation: the straightforward
//! event loop that sweeps the whole ready queue on every event and probes
//! machines one by one. Every placement must match, so `SimMetrics` and
//! the emitted instance rows must be equal, for heterogeneous demands,
//! every policy family, and online load with and without eviction.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::Cursor;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dagscope_graph::JobDag;
use dagscope_sched::{
    workload_from_stream, ClusterConfig, OnlineLoad, Policy, Predictions, SimConfig, SimJob,
    SimMetrics, SimTask, Simulator,
};
use dagscope_trace::csv::format_task_line;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{build_shape, GeneratorConfig, ShapeKind, TraceGenerator};
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::{InstanceRecord, ReadPolicy, Status};

/// Linear next-fit machine pool: probe every machine from the cursor on,
/// wrapping around.
struct LinearCluster {
    cpu_free: Vec<f64>,
    mem_free: Vec<f64>,
    cursor: usize,
}

impl LinearCluster {
    fn new(cfg: &ClusterConfig) -> LinearCluster {
        LinearCluster {
            cpu_free: vec![cfg.cpu_per_machine; cfg.machines],
            mem_free: vec![cfg.mem_per_machine; cfg.machines],
            cursor: 0,
        }
    }

    fn place(&mut self, cpu: f64, mem: f64) -> Option<usize> {
        let n = self.cpu_free.len();
        for off in 0..n {
            let m = (self.cursor + off) % n;
            if self.cpu_free[m] >= cpu && self.mem_free[m] >= mem {
                self.cpu_free[m] -= cpu;
                self.mem_free[m] -= mem;
                self.cursor = m;
                return Some(m);
            }
        }
        None
    }

    fn release(&mut self, machine: usize, cpu: f64, mem: f64) {
        self.cpu_free[machine] += cpu;
        self.mem_free[machine] += mem;
    }

    fn reserve_cpu(&mut self, machine: usize, want: f64) -> f64 {
        let taken = want.min(self.cpu_free[machine]).max(0.0);
        self.cpu_free[machine] -= taken;
        taken
    }

    fn unreserve_cpu(&mut self, machine: usize, amount: f64) {
        self.cpu_free[machine] += amount;
    }
}

struct TaskState {
    pending_parents: usize,
    waiting_instances: u32,
    running_instances: u32,
}

struct JobState {
    arrival: i64,
    finished_tasks: usize,
    finish_time: Option<i64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct ReadyTask {
    job: usize,
    node: usize,
}

type Outcome = Result<(SimMetrics, Vec<InstanceRecord>), String>;

/// The reference event loop. Each event merges newly ready tasks into a
/// queue kept in dispatch order, then sweeps the whole queue, probing
/// machines for every task not dominated by a demand that already failed
/// in this sweep.
fn oracle(cfg: &SimConfig, policy: &Policy, jobs: &[SimJob]) -> Outcome {
    let cluster_cfg = &cfg.cluster;
    let min_reserved_frac = cfg.online_load.map_or(0.0, |load| {
        (0..24)
            .map(|h| load.fraction_at(h * 3_600))
            .fold(f64::INFINITY, f64::min)
    });
    let usable_cpu = (1.0 - min_reserved_frac) * cluster_cfg.cpu_per_machine;
    for job in jobs {
        for t in &job.tasks {
            if t.cpu > usable_cpu || t.mem > cluster_cfg.mem_per_machine {
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

    let mut cluster = LinearCluster::new(cluster_cfg);
    let min_arrival = jobs.iter().map(|j| j.arrival).min().unwrap_or(0);
    let arrival = |j: &SimJob| -> i64 {
        ((j.arrival - min_arrival) as f64 / cfg.arrival_compression.max(1e-9)) as i64
    };

    let frozen = policy.freeze(jobs)?;
    let keys = frozen.keys;
    let downstream: Vec<Vec<i64>> = jobs.iter().map(|j| j.downstream_critical_path()).collect();
    let dispatch_order = |a: &ReadyTask, b: &ReadyTask| {
        keys[a.job]
            .partial_cmp(&keys[b.job])
            .unwrap()
            .then(a.job.cmp(&b.job))
            .then(downstream[b.job][b.node].cmp(&downstream[a.job][a.node]))
            .then(a.node.cmp(&b.node))
    };

    let mut job_state: Vec<JobState> = jobs
        .iter()
        .map(|j| JobState {
            arrival: arrival(j),
            finished_tasks: 0,
            finish_time: None,
        })
        .collect();
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

    let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
    arrivals.sort_by_key(|&i| (job_state[i].arrival, i));
    let mut next_arrival = 0usize;
    #[allow(clippy::type_complexity)]
    let mut finishes: BinaryHeap<Reverse<(i64, u64, usize, usize, usize, i64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut trace_rows: Vec<InstanceRecord> = Vec::new();
    let mut live_on_machine: Vec<Vec<u64>> = vec![Vec::new(); cluster_cfg.machines];
    let mut live_info: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut tombstones: HashSet<u64> = HashSet::new();
    let mut evictions = 0u64;

    let mut ready: Vec<ReadyTask> = Vec::new();
    let mut fresh: Vec<ReadyTask> = Vec::new();
    let mut still_ready: Vec<ReadyTask> = Vec::new();
    let mut busy_cpu = 0.0f64;
    let mut util_area = 0.0f64;
    let mut last_time = 0i64;
    let mut now;
    let mut reserved = vec![0.0f64; cluster_cfg.machines];
    let mut next_reconfig: Option<i64> = cfg.online_load.map(|_| 0i64);

    loop {
        let t_arr = arrivals.get(next_arrival).map(|&i| job_state[i].arrival);
        let t_fin = finishes.peek().map(|Reverse((t, ..))| *t);
        let work_remains = next_arrival < arrivals.len()
            || !finishes.is_empty()
            || !ready.is_empty()
            || !fresh.is_empty();
        let t_cfg = if work_remains { next_reconfig } else { None };
        now = match [t_arr, t_fin, t_cfg].into_iter().flatten().min() {
            Some(t) => t,
            None => break,
        };
        util_area += busy_cpu * (now - last_time) as f64;
        last_time = now;

        while next_arrival < arrivals.len() && job_state[arrivals[next_arrival]].arrival == now {
            let j = arrivals[next_arrival];
            next_arrival += 1;
            for (node, st) in task_state[j].iter().enumerate() {
                if st.pending_parents == 0 {
                    fresh.push(ReadyTask { job: j, node });
                }
            }
        }

        while let Some(Reverse((t, sq, j, node, machine, started))) = finishes.peek().copied() {
            if t != now {
                break;
            }
            finishes.pop();
            if tombstones.remove(&sq) {
                continue;
            }
            live_info.remove(&sq);
            if let Some(pos) = live_on_machine[machine].iter().position(|&x| x == sq) {
                live_on_machine[machine].swap_remove(pos);
            }
            let task = &jobs[j].tasks[node];
            trace_rows.push(InstanceRecord {
                instance_name: format!("{}_{}_{}", jobs[j].name, node, sq),
                task_name: jobs[j].dag.task_name(node).to_string(),
                job_name: jobs[j].name.clone(),
                task_type: "1".into(),
                status: Status::Terminated,
                start_time: started,
                end_time: t,
                machine_id: format!("m_{}", machine + 1).into(),
                seq_no: 1,
                total_seq_no: 1,
                cpu_avg: task.cpu * 0.7,
                cpu_max: task.cpu,
                mem_avg: task.mem * 0.7,
                mem_max: task.mem,
            });
            cluster.release(machine, task.cpu, task.mem);
            busy_cpu -= task.cpu;
            let st = &mut task_state[j][node];
            st.running_instances -= 1;
            if st.running_instances == 0 && st.waiting_instances == 0 {
                job_state[j].finished_tasks += 1;
                if job_state[j].finished_tasks == jobs[j].dag.len() {
                    job_state[j].finish_time = Some(now);
                }
                for &c in jobs[j].dag.children(node) {
                    let cs = &mut task_state[j][c as usize];
                    cs.pending_parents -= 1;
                    if cs.pending_parents == 0 {
                        fresh.push(ReadyTask {
                            job: j,
                            node: c as usize,
                        });
                    }
                }
            }
        }

        if let (Some(load), Some(tc)) = (cfg.online_load, next_reconfig) {
            if tc == now {
                let target = load.fraction_at(now) * cluster_cfg.cpu_per_machine;
                for (m, r) in reserved.iter_mut().enumerate() {
                    let delta = target - *r;
                    if delta > 0.0 {
                        *r += cluster.reserve_cpu(m, delta);
                        while cfg.evict_for_online && target - *r > 1e-9 {
                            let Some(victim) = live_on_machine[m].pop() else {
                                break;
                            };
                            let (vj, vnode) = live_info.remove(&victim).expect("live victim");
                            let vtask = &jobs[vj].tasks[vnode];
                            cluster.release(m, vtask.cpu, vtask.mem);
                            busy_cpu -= vtask.cpu;
                            tombstones.insert(victim);
                            evictions += 1;
                            let vst = &mut task_state[vj][vnode];
                            vst.running_instances -= 1;
                            vst.waiting_instances += 1;
                            let rt = ReadyTask {
                                job: vj,
                                node: vnode,
                            };
                            if !ready.contains(&rt) && !fresh.contains(&rt) {
                                fresh.push(rt);
                            }
                            *r += cluster.reserve_cpu(m, target - *r);
                        }
                    } else if delta < 0.0 {
                        cluster.unreserve_cpu(m, -delta);
                        *r = target;
                    }
                }
                next_reconfig = Some(now + 3_600);
            }
        }

        if !fresh.is_empty() {
            fresh.sort_by(dispatch_order);
            let mut merged = Vec::with_capacity(ready.len() + fresh.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < ready.len() && j < fresh.len() {
                if dispatch_order(&ready[i], &fresh[j]) != std::cmp::Ordering::Greater {
                    merged.push(ready[i]);
                    i += 1;
                } else {
                    merged.push(fresh[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&ready[i..]);
            merged.extend_from_slice(&fresh[j..]);
            ready = merged;
            fresh.clear();
        }
        still_ready.clear();
        let mut failed: Vec<(f64, f64)> = Vec::new();
        for rt in ready.drain(..) {
            let task = &jobs[rt.job].tasks[rt.node];
            if failed.iter().any(|&(c, m)| task.cpu >= c && task.mem >= m) {
                still_ready.push(rt);
                continue;
            }
            let st = &mut task_state[rt.job][rt.node];
            while st.waiting_instances > 0 {
                match cluster.place(task.cpu, task.mem) {
                    Some(machine) => {
                        st.waiting_instances -= 1;
                        st.running_instances += 1;
                        busy_cpu += task.cpu;
                        seq += 1;
                        live_on_machine[machine].push(seq);
                        live_info.insert(seq, (rt.job, rt.node));
                        finishes.push(Reverse((
                            now + task.duration.max(1),
                            seq,
                            rt.job,
                            rt.node,
                            machine,
                            now,
                        )));
                    }
                    None => break,
                }
            }
            if st.waiting_instances > 0 {
                failed.retain(|&(c, m)| !(c >= task.cpu && m >= task.mem));
                failed.push((task.cpu, task.mem));
                still_ready.push(rt);
            }
        }
        std::mem::swap(&mut ready, &mut still_ready);
    }

    if let Some(stuck) = job_state.iter().position(|s| s.finish_time.is_none()) {
        return Err(format!(
            "job {} never completed (scheduler stuck)",
            jobs[stuck].name
        ));
    }
    let jcts: Vec<i64> = job_state
        .iter()
        .map(|s| s.finish_time.unwrap() - s.arrival)
        .collect();
    let makespan = job_state
        .iter()
        .map(|s| s.finish_time.unwrap())
        .max()
        .unwrap_or(0);
    let total_cpu = cluster_cfg.cpu_per_machine * cluster_cfg.machines as f64;
    let mean_util = if makespan > 0 {
        util_area / (makespan as f64 * total_cpu)
    } else {
        0.0
    };
    let mut metrics = SimMetrics::from_jcts(policy.label(), jcts, makespan, mean_util);
    metrics.evictions = evictions;
    metrics.unknown_jobs = frozen.unknown_jobs;
    Ok((metrics, trace_rows))
}

fn assert_matches_oracle(cfg: &SimConfig, policy: &Policy, jobs: &[SimJob]) -> Outcome {
    let fast = Simulator::new(cfg.clone(), policy.clone()).run_with_trace(jobs);
    let slow = oracle(cfg, policy, jobs);
    assert_eq!(fast, slow, "{} on {:?}", policy.label(), cfg);
    if let Ok((metrics, _)) = &fast {
        assert_eq!(
            Simulator::new(cfg.clone(), policy.clone())
                .run(jobs)
                .as_ref(),
            Ok(metrics)
        );
    }
    fast
}

/// Predicted costs for every job but every third, drawn from a small set
/// (with both zeros) so that keys tie.
fn predicted_sjf(jobs: &[SimJob]) -> Policy {
    const COSTS: [f64; 5] = [-0.0, 0.0, 1.0, 2.5, 1e6];
    let predictions: Predictions = jobs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 2)
        .map(|(i, j)| {
            (
                j.name.as_str(),
                COSTS[(i * 7 + j.tasks.len()) % COSTS.len()],
            )
        })
        .collect();
    Policy::PredictedSjf { predictions }
}

/// A small job on a generated DAG. CPU demands take a few values and
/// memory a fine grid, so demands both tie and dominate one another, and
/// the largest free CPU and memory can both fit a demand that no single
/// machine does. One CPU value is not a short binary fraction, so
/// summing its instances in another order (or multiplying instead)
/// changes the utilization's last bits.
fn arbitrary_job(idx: usize) -> impl Strategy<Value = SimJob> {
    (
        prop::sample::select(ShapeKind::ALL.to_vec()),
        2usize..=8,
        any::<u64>(),
        0i64..20_000,
        prop::collection::vec((0usize..5, 1usize..=60, 1u32..6, 1i64..8_000), 8),
    )
        .prop_map(move |(shape, n, seed, arrival, demands)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let dag =
                JobDag::from_plan(&format!("j_{idx}_{seed}"), &build_shape(&mut rng, shape, n));
            let tasks: Vec<SimTask> = (0..dag.len())
                .map(|node| {
                    let (cpu, mem, instances, duration) = demands[node % demands.len()];
                    SimTask {
                        node,
                        instances,
                        cpu: [50.0, 100.0, 133.3, 200.0, 300.0][cpu],
                        mem: mem as f64 * 0.05,
                        duration,
                    }
                })
                .collect();
            SimJob {
                name: dag.name.clone(),
                arrival,
                dag,
                tasks,
            }
        })
}

fn workload_strategy() -> impl Strategy<Value = Vec<SimJob>> {
    (1usize..14).prop_flat_map(|n| (0..n).map(arbitrary_job).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn simulator_matches_the_reference_loop(
        jobs in workload_strategy(),
        machines in prop::sample::select(vec![1usize, 3, 48]),
        online in any::<bool>(),
        evict in any::<bool>(),
        policy in 0usize..4,
    ) {
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines,
                cpu_per_machine: 400.0,
                mem_per_machine: 4.0,
            },
            arrival_compression: 1.0,
            online_load: online.then_some(OnlineLoad { trough: 0.2, peak: 0.7 }),
            evict_for_online: evict,
        };
        let policy = match policy {
            0 => Policy::Fifo,
            1 => Policy::SjfOracle,
            2 => Policy::CriticalPathOracle,
            _ => predicted_sjf(&jobs),
        };
        let outcome = assert_matches_oracle(&cfg, &policy, &jobs);
        prop_assert!(outcome.is_ok(), "{:?}", outcome.err());
    }
}

/// The instances one dispatch pass placed for one task: their machines
/// and the seq suffixes of their names.
#[derive(Default)]
struct PassGroup<'a> {
    machines: HashSet<&'a str>,
    seqs: Vec<u64>,
}

/// The instance rows grouped by `(job, task, start)`.
fn pass_groups(rows: &[InstanceRecord]) -> Vec<PassGroup<'_>> {
    let mut groups: HashMap<(&str, &str, i64), PassGroup> = HashMap::new();
    for r in rows {
        let seq = r
            .instance_name
            .rsplit('_')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("instance name ends in its seq");
        let group = groups
            .entry((&r.job_name, &r.task_name, r.start_time))
            .or_default();
        group.machines.insert(r.machine_id.as_str());
        group.seqs.push(seq);
    }
    groups.into_values().collect()
}

#[test]
fn generated_trace_matches_the_reference_loop() {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: 400,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let mut csv = String::new();
    for t in &trace.tasks {
        csv.push_str(&format_task_line(t));
        csv.push('\n');
    }
    let mut store = StreamedTrace::scan(
        Cursor::new(csv.as_bytes()),
        &ReadPolicy::Strict,
        &SampleCriteria::default(),
    )
    .unwrap();
    let jobs = workload_from_stream(&mut store, usize::MAX).unwrap().jobs;
    assert!(jobs.len() > 100);

    let load = OnlineLoad {
        trough: 0.2,
        peak: 0.7,
    };
    let mut evictions = 0;
    // Passes that placed one task on two or more machines, and those of
    // them with a gap in their seqs: some, not all, of their instances
    // were evicted.
    let mut multi_machine = 0;
    let mut partly_evicted = 0;
    for (online_load, evict_for_online) in [(None, false), (Some(load), false), (Some(load), true)]
    {
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 4,
                cpu_per_machine: 9_600.0,
                mem_per_machine: 48.0,
            },
            arrival_compression: 1_000.0,
            online_load,
            evict_for_online,
        };
        let policies = [
            Policy::Fifo,
            Policy::SjfOracle,
            Policy::CriticalPathOracle,
            predicted_sjf(&jobs),
        ];
        for policy in &policies {
            let (metrics, rows) = assert_matches_oracle(&cfg, policy, &jobs).unwrap();
            assert_eq!(metrics.jobs, jobs.len());
            assert!(!rows.is_empty());
            evictions += metrics.evictions;
            for PassGroup { machines, seqs } in pass_groups(&rows) {
                if machines.len() >= 2 {
                    multi_machine += 1;
                    let (lo, hi) = (seqs.iter().min().unwrap(), seqs.iter().max().unwrap());
                    if hi - lo + 1 > seqs.len() as u64 {
                        partly_evicted += 1;
                    }
                }
            }
        }
    }
    assert!(evictions > 0, "the eviction path never ran");
    assert!(multi_machine > 0, "no pass placed a task on two machines");
    assert!(
        partly_evicted > 0,
        "no multi-machine pass was partly evicted"
    );
}
