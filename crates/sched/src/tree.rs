//! A segment tree over `(cpu, mem)` pairs, shared by the machine pool
//! (maximum free capacity per subtree) and the simulator's ready set
//! (minimum demand per subtree).
//!
//! Nodes are heap-ordered: the root is node 1, node `i` has children
//! `2i` and `2i + 1`, and leaf `k` is node `width + k`, where `width` is
//! the leaf count rounded up to a power of two. Absent leaves (padding,
//! or a ready-set rank with no ready task) hold NaN: NaN is the identity
//! of `f64::min` and `f64::max`, and it fails every comparison, so an
//! absent leaf never passes a search and never widens a fold.

/// A `(cpu, mem)` pair: a machine's free capacity, a task's demand, or
/// their fold over a subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pair {
    pub(crate) cpu: f64,
    pub(crate) mem: f64,
}

impl Pair {
    /// An absent leaf.
    pub(crate) const NONE: Pair = Pair::new(f64::NAN, f64::NAN);

    pub(crate) const fn new(cpu: f64, mem: f64) -> Pair {
        Pair { cpu, mem }
    }
}

/// How a node folds its children, componentwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Fold {
    Min,
    Max,
}

impl Fold {
    fn apply(self, a: Pair, b: Pair) -> Pair {
        let f = match self {
            Fold::Min => f64::min,
            Fold::Max => f64::max,
        };
        Pair::new(f(a.cpu, b.cpu), f(a.mem, b.mem))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PairTree {
    fold: Fold,
    nodes: Vec<Pair>,
}

impl PairTree {
    /// A tree over `leaves`, folded by `fold`.
    pub(crate) fn new(fold: Fold, leaves: &[Pair]) -> PairTree {
        let width = leaves.len().next_power_of_two();
        let mut nodes = vec![Pair::NONE; 2 * width];
        nodes[width..width + leaves.len()].copy_from_slice(leaves);
        for i in (1..width).rev() {
            nodes[i] = fold.apply(nodes[2 * i], nodes[2 * i + 1]);
        }
        PairTree { fold, nodes }
    }

    fn width(&self) -> usize {
        self.nodes.len() / 2
    }

    /// The fold over every leaf.
    pub(crate) fn root(&self) -> Pair {
        self.nodes[1]
    }

    /// Leaf `k`.
    pub(crate) fn leaf(&self, k: usize) -> Pair {
        self.nodes[self.width() + k]
    }

    /// The first `n` leaves, in order.
    pub(crate) fn leaves(&self, n: usize) -> &[Pair] {
        &self.nodes[self.width()..self.width() + n]
    }

    /// Overwrite leaf `k` and refold its ancestors.
    pub(crate) fn set(&mut self, k: usize, value: Pair) {
        let mut i = self.width() + k;
        self.nodes[i] = value;
        while i > 1 {
            i /= 2;
            self.nodes[i] = self.fold.apply(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// The first leaf at or after `from` that passes `keep`.
    ///
    /// `keep` is also asked of inner nodes, and a subtree whose root
    /// fails it is skipped whole. That is exact only when a node passes
    /// whenever any leaf below it does, which callers guarantee.
    pub(crate) fn first(&self, from: usize, keep: impl Fn(Pair) -> bool) -> Option<usize> {
        let width = self.width();
        if from >= width {
            return None;
        }
        let mut i = width + from;
        loop {
            if keep(self.nodes[i]) {
                if i >= width {
                    return Some(i - width);
                }
                i *= 2;
                continue;
            }
            // Nothing in subtree `i`: climb past the right children, then
            // step to the next subtree on the right.
            while i % 2 == 1 {
                i /= 2;
            }
            if i == 0 {
                return None;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(cpus: &[f64]) -> Vec<Pair> {
        cpus.iter().map(|&cpu| Pair::new(cpu, 1.0)).collect()
    }

    #[test]
    fn first_matches_a_linear_scan() {
        let cpus = [3.0, 9.0, 1.0, 7.0, 5.0, 2.0, 8.0];
        let tree = PairTree::new(Fold::Max, &pairs(&cpus));
        assert_eq!(tree.root().cpu, 9.0);
        for from in 0..=cpus.len() + 1 {
            for want in 0..11 {
                let want = f64::from(want);
                let linear = (from..cpus.len()).find(|&k| cpus[k] >= want);
                assert_eq!(tree.first(from, |p| p.cpu >= want), linear, "{from} {want}");
            }
        }
    }

    #[test]
    fn absent_leaves_never_pass_or_fold() {
        let mut tree = PairTree::new(Fold::Min, &[Pair::NONE; 5]);
        assert!(tree.root().cpu.is_nan());
        assert_eq!(tree.first(0, |p| p.cpu <= f64::INFINITY), None);
        tree.set(3, Pair::new(4.0, 0.5));
        tree.set(1, Pair::new(6.0, 0.25));
        assert_eq!(tree.root(), Pair::new(4.0, 0.25));
        assert_eq!(tree.first(0, |p| p.cpu <= 5.0), Some(3));
        assert_eq!(tree.first(2, |p| p.cpu <= 9.0), Some(3));
        tree.set(3, Pair::NONE);
        assert_eq!(tree.first(2, |p| p.cpu <= 9.0), None);
        assert_eq!(tree.leaf(1), Pair::new(6.0, 0.25));
    }
}
