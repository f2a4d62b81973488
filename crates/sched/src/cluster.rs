//! The machine pool: capacity tracking and round-robin first-fit
//! placement.

use serde::{Deserialize, Serialize};

use crate::tree::{Fold, Pair, PairTree};

/// Cluster shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// CPU capacity per machine, v2018 units (9600 = 96 cores).
    pub cpu_per_machine: f64,
    /// Memory capacity per machine, normalized units.
    pub mem_per_machine: f64,
}

impl Default for ClusterConfig {
    /// A small slice of the paper's ~4000-machine cluster: 64 machines of
    /// 96 cores each, memory normalized so ~100 average instances fit.
    fn default() -> Self {
        ClusterConfig {
            machines: 64,
            cpu_per_machine: 9_600.0,
            mem_per_machine: 48.0,
        }
    }
}

/// Mutable machine pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    cfg: ClusterConfig,
    /// Free CPU and memory per machine (the leaves), with the largest
    /// free CPU and the largest free memory over every subtree, so
    /// [`place`](Self::place) descends to a fitting machine instead of
    /// probing them in turn.
    free: PairTree,
    /// Where the next placement search starts (round-robin, so load
    /// spreads instead of packing onto machine 0).
    cursor: usize,
}

impl Cluster {
    /// A new cluster with every machine empty.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let empty = Pair::new(cfg.cpu_per_machine, cfg.mem_per_machine);
        Cluster {
            free: PairTree::new(Fold::Max, &vec![empty; cfg.machines]),
            cursor: 0,
            cfg,
        }
    }

    /// Shape.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Total CPU capacity across machines.
    pub fn total_cpu(&self) -> f64 {
        self.cfg.cpu_per_machine * self.cfg.machines as f64
    }

    /// Currently free CPU across machines.
    pub fn free_cpu(&self) -> f64 {
        self.free
            .leaves(self.cfg.machines)
            .iter()
            .map(|f| f.cpu)
            .sum()
    }

    /// Utilized CPU fraction.
    pub fn cpu_utilization(&self) -> f64 {
        1.0 - self.free_cpu() / self.total_cpu()
    }

    /// The largest free CPU and the largest free memory on any machine
    /// (not necessarily the same one): an instance needing more of either
    /// fits nowhere.
    pub(crate) fn max_free(&self) -> Pair {
        self.free.root()
    }

    /// Place up to `count` instances of `(cpu, mem)` on one machine and
    /// return it with how many it took, or `None` when `count` is 0 or
    /// nothing fits. Takes the first machine with room at or after the
    /// cursor, wrapping around to the machines before it, moves the
    /// cursor there, and fills that machine until it is full or `count`
    /// are placed. Called with the rest of the count until it returns
    /// `None`, it picks the machines `count` one-instance placements
    /// would, in order, and subtracts each instance's demand in turn. A
    /// failed placement changes nothing.
    pub fn place(&mut self, cpu: f64, mem: f64, count: u32) -> Option<(usize, u32)> {
        if count == 0 {
            return None;
        }
        let fits = |f: Pair| f.cpu >= cpu && f.mem >= mem;
        let m = self
            .free
            .first(self.cursor, fits)
            .or_else(|| self.free.first(0, fits))?;
        let mut f = self.free.leaf(m);
        let mut n = 0;
        while n < count && fits(f) {
            f = Pair::new(f.cpu - cpu, f.mem - mem);
            n += 1;
        }
        self.free.set(m, f);
        self.cursor = m;
        Some((m, n))
    }

    /// Release `n` instances of `(cpu, mem)` placed on `machine`. Each
    /// instance's demand is added back in turn, as `n` one-instance
    /// releases would.
    pub fn release(&mut self, machine: usize, cpu: f64, mem: f64, n: u32) {
        let mut f = self.free.leaf(machine);
        for _ in 0..n {
            f = Pair::new(f.cpu + cpu, f.mem + mem);
        }
        debug_assert!(f.cpu <= self.cfg.cpu_per_machine + 1e-6);
        debug_assert!(f.mem <= self.cfg.mem_per_machine + 1e-6);
        self.free.set(machine, f);
    }

    /// Grab up to `want` CPU units on `machine` for a non-batch reservation
    /// (co-located online load). Returns how much was actually taken —
    /// running batch instances are never evicted, so the reservation only
    /// claims currently free capacity.
    pub fn reserve_cpu(&mut self, machine: usize, want: f64) -> f64 {
        let f = self.free.leaf(machine);
        let taken = want.min(f.cpu).max(0.0);
        self.free.set(machine, Pair::new(f.cpu - taken, f.mem));
        taken
    }

    /// Return previously reserved CPU.
    pub fn unreserve_cpu(&mut self, machine: usize, amount: f64) {
        let f = self.free.leaf(machine);
        let f = Pair::new(f.cpu + amount, f.mem);
        debug_assert!(f.cpu <= self.cfg.cpu_per_machine + 1e-6);
        self.free.set(machine, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cluster {
        Cluster::new(ClusterConfig {
            machines: 2,
            cpu_per_machine: 100.0,
            mem_per_machine: 1.0,
        })
    }

    #[test]
    fn place_and_release() {
        let mut c = tiny();
        let (m1, _) = c.place(60.0, 0.5, 1).unwrap();
        let (m2, _) = c.place(60.0, 0.5, 1).unwrap();
        assert_ne!(m1, m2, "second instance must spill to the other machine");
        // Both machines now hold 60: a 50-unit ask fails, 40 fits.
        assert!(c.place(50.0, 0.1, 1).is_none());
        assert!(c.place(40.0, 0.1, 1).is_some());
        c.release(m1, 60.0, 0.5, 1);
        assert!(c.place(50.0, 0.1, 1).is_some());
    }

    #[test]
    fn place_fills_one_machine_per_call() {
        let mut c = tiny();
        // Three 30-unit instances fit a 100-unit machine.
        assert_eq!(c.place(30.0, 0.1, 5), Some((0, 3)));
        assert_eq!(c.place(30.0, 0.1, 2), Some((1, 2)));
        // The cursor stays on machine 1, which has room for one more.
        assert_eq!(c.place(30.0, 0.1, 4), Some((1, 1)));
        assert_eq!(c.place(30.0, 0.1, 4), None);
        assert_eq!(c.place(10.0, 0.1, 0), None, "a zero count places nothing");
        c.release(0, 30.0, 0.1, 2);
        assert_eq!(c.free_cpu(), 80.0);
        assert_eq!(c.max_free().cpu, 70.0);
        assert_eq!(c.place(60.0, 0.1, 3), Some((0, 1)));
    }

    #[test]
    fn memory_binds_too() {
        let mut c = tiny();
        assert!(c.place(1.0, 0.9, 1).is_some());
        // CPU is plentiful but memory on that machine is not; spills.
        let (second, n) = c.place(1.0, 0.9, 2).unwrap();
        assert_eq!(n, 1);
        assert!(c.place(1.0, 0.9, 1).is_none());
        c.release(second, 1.0, 0.9, 1);
        assert!(c.place(1.0, 0.9, 1).is_some());
    }

    #[test]
    fn utilization_accounting() {
        let mut c = tiny();
        assert_eq!(c.cpu_utilization(), 0.0);
        c.place(100.0, 0.1, 1).unwrap();
        assert!((c.cpu_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(c.total_cpu(), 200.0);
        assert_eq!(c.free_cpu(), 100.0);
    }

    #[test]
    fn oversized_ask_never_fits() {
        let mut c = tiny();
        assert!(c.place(101.0, 0.1, 1).is_none());
        assert!(c.place(1.0, 1.5, 1).is_none());
    }

    /// Reference pool: probe every machine from the cursor on, wrapping
    /// around, one instance at a time.
    struct Linear {
        cpu_free: Vec<f64>,
        mem_free: Vec<f64>,
        cursor: usize,
    }

    impl Linear {
        fn place(&mut self, cpu: f64, mem: f64) -> Option<usize> {
            let n = self.cpu_free.len();
            let m = (self.cursor..n)
                .chain(0..self.cursor)
                .find(|&m| self.cpu_free[m] >= cpu && self.mem_free[m] >= mem)?;
            self.cpu_free[m] -= cpu;
            self.mem_free[m] -= mem;
            self.cursor = m;
            Some(m)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tree_placement_matches_linear_next_fit(
            machines in prop::sample::select(vec![1usize, 2, 3, 5, 48]),
            ops in prop::collection::vec(
                (0u8..4, 0usize..1_000, 0usize..1_000, any::<f64>(), 0u32..8),
                1..300,
            ),
        ) {
            let cfg = ClusterConfig { machines, cpu_per_machine: 100.0, mem_per_machine: 1.0 };
            let mut tree = Cluster::new(cfg.clone());
            let mut linear = Linear {
                cpu_free: vec![cfg.cpu_per_machine; machines],
                mem_free: vec![cfg.mem_per_machine; machines],
                cursor: 0,
            };
            // Live runs (machine, cpu, mem, instances) and reserved CPU per
            // machine.
            let mut live: Vec<(usize, f64, f64, u32)> = Vec::new();
            let mut reserved = vec![0.0f64; machines];
            for (kind, a, b, frac, count) in ops {
                match kind {
                    0 | 1 => {
                        let cpu = [10.0, 25.0, 40.0, 60.0, 100.0][a % 5];
                        let mem = (b % 20 + 1) as f64 * 0.05;
                        // Up to `count` one-instance placements, against
                        // `place` called with the rest of the count until
                        // it returns `None`, as the simulator does.
                        let want: Vec<usize> = (0..count)
                            .map_while(|_| linear.place(cpu, mem))
                            .collect();
                        let mut got = Vec::new();
                        let mut left = count;
                        while let Some((m, n)) = tree.place(cpu, mem, left) {
                            prop_assert!((1..=left).contains(&n));
                            got.extend(std::iter::repeat_n(m, n as usize));
                            live.push((m, cpu, mem, n));
                            left -= n;
                        }
                        prop_assert_eq!(got, want);
                    }
                    2 if !live.is_empty() => {
                        let (m, cpu, mem, n) = live.swap_remove(a % live.len());
                        tree.release(m, cpu, mem, n);
                        for _ in 0..n {
                            linear.cpu_free[m] += cpu;
                            linear.mem_free[m] += mem;
                        }
                    }
                    3 if b % 2 == 0 => {
                        let m = a % machines;
                        let want = frac * 50.0;
                        let taken = tree.reserve_cpu(m, want);
                        let expect = want.min(linear.cpu_free[m]).max(0.0);
                        prop_assert_eq!(taken, expect);
                        linear.cpu_free[m] -= expect;
                        reserved[m] += taken;
                    }
                    3 => {
                        let m = a % machines;
                        let amount = reserved[m] * frac;
                        tree.unreserve_cpu(m, amount);
                        linear.cpu_free[m] += amount;
                        reserved[m] -= amount;
                    }
                    _ => {}
                }
                prop_assert_eq!(tree.free_cpu(), linear.cpu_free.iter().sum::<f64>());
                let max = |v: &[f64]| v.iter().copied().fold(f64::NAN, f64::max);
                prop_assert_eq!(
                    tree.max_free(),
                    Pair::new(max(&linear.cpu_free), max(&linear.mem_free))
                );
            }
        }
    }
}
