//! Symmetric sparse matrix in compressed-sparse-row form.
//!
//! [`CsrSym`] stores **both** triangles row-by-row (columns ascending),
//! so a row scan sees every neighbour once — the access pattern both the
//! parallel SpMV and the collapsed clustering degree/silhouette scans
//! need. Memory is `O(nnz)`: at 100k jobs the deduplicated WL affinity
//! has a few hundred unique shapes and the CSR holds thousands of
//! entries where the dense packed triangle would hold billions on the
//! expanded population.
//!
//! The SpMV is sharded over row ranges via `dagscope-par` once the matrix
//! stores enough entries to pay for the threads, so it honors the
//! pipeline's `--threads` override. Each output component is
//! accumulated by exactly one thread scanning its row in storage order,
//! which keeps `y = A·x` bitwise deterministic for any thread count.

use crate::linop::LinOp;
use crate::SymMatrix;

/// A symmetric `n × n` sparse matrix, CSR with full rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrSym {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrSym {
    /// Build from per-row **upper-triangle** entry lists: `rows[a]` holds
    /// `(b, v)` pairs with `b ≥ a` in strictly increasing column order.
    /// The lower triangle is mirrored automatically with bit-identical
    /// values. Panics if an entry violates the triangle or ordering
    /// contract.
    pub fn from_upper_rows(rows: &[Vec<(u32, f64)>]) -> CsrSym {
        let n = rows.len();
        let mut counts = vec![0usize; n];
        for (a, row) in rows.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &(b, _) in row {
                let b = b as usize;
                assert!(b >= a && b < n, "entry ({a},{b}) outside upper triangle");
                assert!(
                    prev.is_none_or(|p| (p as usize) < b),
                    "row {a} columns not strictly increasing"
                );
                prev = Some(b as u32);
                counts[a] += 1;
                if b != a {
                    counts[b] += 1;
                }
            }
        }
        let mut row_ptr = vec![0usize; n + 1];
        for a in 0..n {
            row_ptr[a + 1] = row_ptr[a] + counts[a];
        }
        let nnz = row_ptr[n];
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut cursor = row_ptr[..n].to_vec();
        // Single ascending pass: row b receives its mirrored (b, a<b)
        // entries before its own upper entries, so columns land sorted.
        for (a, row) in rows.iter().enumerate() {
            for &(b, v) in row {
                let slot = cursor[a];
                cols[slot] = b;
                vals[slot] = v;
                cursor[a] += 1;
                if b as usize != a {
                    let slot = cursor[b as usize];
                    cols[slot] = a as u32;
                    vals[slot] = v;
                    cursor[b as usize] += 1;
                }
            }
        }
        CsrSym {
            n,
            row_ptr,
            cols,
            vals,
        }
    }

    /// Build from a dense [`SymMatrix`], keeping nonzero entries only
    /// (test/bridging helper — production callers assemble sparsely).
    pub fn from_sym(s: &SymMatrix) -> CsrSym {
        let n = s.n();
        let rows: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|a| {
                (a..n)
                    .filter_map(|b| {
                        let v = s.get(a, b);
                        (v != 0.0).then_some((b as u32, v))
                    })
                    .collect()
            })
            .collect();
        CsrSym::from_upper_rows(&rows)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries (both triangles).
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The stored `(columns, values)` of row `i`, columns ascending.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Entry `(i, j)`; absent entries are `0.0`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// Diagonal entries (`0.0` where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Expand to a dense [`SymMatrix`] (tests and paper-scale bridging
    /// only — defeats the purpose at trace scale).
    pub fn to_sym(&self) -> SymMatrix {
        let mut s = SymMatrix::zeros(self.n);
        for i in 0..self.n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j as usize >= i {
                    s.set(i, j as usize, v);
                }
            }
        }
        s
    }

    /// Sequential `y = A·x` (also the per-shard kernel of the parallel
    /// [`LinOp::apply`]).
    pub fn matvec_range(&self, x: &[f64], lo: usize, hi: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(hi - lo);
        for i in lo..hi {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j as usize];
            }
            out.push(acc);
        }
        out
    }
}

/// Fewest stored entries worth sharding an SpMV for: below this, one
/// thread finishes the product before scoped worker threads would start.
const PAR_MIN_NNZ: usize = 1 << 15;

impl LinOp for CsrSym {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        let threads = dagscope_par::parallelism();
        if threads <= 1 || self.nnz() < PAR_MIN_NNZ || self.n < 2 * threads {
            let out = self.matvec_range(x, 0, self.n);
            y.copy_from_slice(&out);
            return;
        }
        // Row-sharded SpMV: each shard owns a contiguous row range, so
        // every y[i] is produced by one thread in storage order.
        let per = self.n.div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|t| (t * per, ((t + 1) * per).min(self.n)))
            .filter(|&(lo, hi)| lo < hi)
            .collect();
        let shards = dagscope_par::par_map(&ranges, |&(lo, hi)| self.matvec_range(x, lo, hi));
        for ((lo, hi), shard) in ranges.into_iter().zip(shards) {
            y[lo..hi].copy_from_slice(&shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrSym {
        // 4x4: diag 2,0(absent),3,1; off-diag (0,1)=1, (1,3)=-0.5, (2,3)=4.
        CsrSym::from_upper_rows(&[
            vec![(0, 2.0), (1, 1.0)],
            vec![(3, -0.5)],
            vec![(2, 3.0), (3, 4.0)],
            vec![(3, 1.0)],
        ])
    }

    #[test]
    fn stores_both_triangles_sorted() {
        let c = example();
        assert_eq!(c.n(), 4);
        assert_eq!(c.nnz(), 3 + 2 * 3);
        let (cols, vals) = c.row(3);
        assert_eq!(cols, &[1, 2, 3]);
        assert_eq!(vals, &[-0.5, 4.0, 1.0]);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(0, 3), 0.0);
        assert_eq!(c.diagonal(), vec![2.0, 0.0, 3.0, 1.0]);
    }

    #[test]
    fn round_trips_through_sym_matrix() {
        let c = example();
        let s = c.to_sym();
        let back = CsrSym::from_sym(&s);
        assert_eq!(c, back);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.get(i, j), s.get(i, j));
            }
        }
    }

    #[test]
    fn spmv_matches_dense_operator() {
        let c = example();
        let s = c.to_sym();
        let x = [1.0, -2.0, 0.5, 3.0];
        let mut ys = [0.0; 4];
        let mut yd = [0.0; 4];
        c.apply(&x, &mut ys);
        s.apply(&x, &mut yd);
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // Sequential shard kernel agrees with the full apply bitwise.
        let seq = c.matvec_range(&x, 0, 4);
        assert_eq!(seq, ys.to_vec());
    }

    #[test]
    fn spmv_is_bitwise_equal_at_every_thread_count_on_both_sides_of_the_gate() {
        // A banded matrix per side of the sharding gate: every thread count
        // must reproduce the one-shard kernel bit for bit.
        for (n, band) in [(300, 8), (1_200, 16)] {
            let rows: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|a| {
                    (a..n.min(a + band))
                        .map(|b| (b as u32, 1.0 / (1 + a + 3 * b) as f64))
                        .collect()
                })
                .collect();
            let c = CsrSym::from_upper_rows(&rows);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let seq = c.matvec_range(&x, 0, n);
            for threads in [1, 2, 4] {
                let _pin = dagscope_par::ParScope::new(threads);
                let mut y = vec![0.0; n];
                c.apply(&x, &mut y);
                assert_eq!(y, seq, "n={n} threads={threads}");
            }
            assert_eq!(c.nnz() >= PAR_MIN_NNZ, n == 1_200, "nnz={}", c.nnz());
        }
    }

    #[test]
    fn empty_and_zero_matrices() {
        let empty = CsrSym::from_upper_rows(&[]);
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.nnz(), 0);
        let zero = CsrSym::from_upper_rows(&[vec![], vec![]]);
        assert_eq!(zero.n(), 2);
        assert_eq!(zero.get(0, 1), 0.0);
        let x = [1.0, 2.0];
        let mut y = [9.0, 9.0];
        zero.apply(&x, &mut y);
        assert_eq!(y, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "outside upper triangle")]
    fn rejects_lower_triangle_input() {
        let _ = CsrSym::from_upper_rows(&[vec![], vec![(0, 1.0)]]);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn rejects_unsorted_columns() {
        let _ = CsrSym::from_upper_rows(&[vec![(1, 1.0), (0, 2.0)], vec![]]);
    }
}
