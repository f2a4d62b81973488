//! Property tests pinning the Lanczos solver to the dense `eigh` oracle
//! on random symmetric matrices: eigenvalue agreement within tolerance,
//! and subspace agreement (projection leak) whenever the spectral gap at
//! the cut makes the smallest-k subspace well conditioned. The packed
//! `SymMatrix::apply` is pinned bit for bit to the row-order product that
//! skips zero entries (the sparse product it replaced), alone and inside
//! Lanczos.

use proptest::prelude::*;

use dagscope_linalg::vector::{axpy, dot, norm2};
use dagscope_linalg::{eigh, lanczos_smallest, LanczosOptions, LinOp, SymMatrix};

fn random_sym(n: usize, entries: &[f64]) -> SymMatrix {
    let mut s = SymMatrix::zeros(n);
    let mut it = entries.iter().cycle();
    for i in 0..n {
        for j in i..n {
            s.set(i, j, *it.next().unwrap());
        }
    }
    s
}

/// The sparse (CSR) row product: over the nonzero entries only, `y[i]`
/// sums `A[i][j]·x[j]` for `j` ascending from `0.0`.
struct RowOrder<'a>(&'a SymMatrix);

impl LinOp for RowOrder<'_> {
    fn dim(&self) -> usize {
        self.0.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, xj) in x.iter().enumerate() {
                let v = self.0.get(i, j);
                if v != 0.0 {
                    acc += v * xj;
                }
            }
            *yi = acc;
        }
    }
}

/// Map a selector onto a value: 0 → `0.0`, 1 → `-0.0`, else `v`, so a
/// generated matrix or vector holds a share of exact zeros of both signs.
fn with_zeros((sel, v): (u32, f64)) -> f64 {
    match sel {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lanczos_matches_eigh_values(n in 2usize..24, k in 1usize..6,
                                   entries in prop::collection::vec(-10.0f64..10.0, 1..40)) {
        let k = k.min(n);
        let s = random_sym(n, &entries);
        let dense = eigh(&s).unwrap();
        let lz = lanczos_smallest(&s, k, &LanczosOptions::default()).unwrap();
        prop_assert_eq!(lz.eigenvalues.len(), k);
        for (i, (a, b)) in lz.eigenvalues.iter().zip(&dense.eigenvalues).enumerate() {
            prop_assert!((a - b).abs() < 1e-6, "pair {i}: {a} vs {b}");
        }
    }

    #[test]
    fn lanczos_subspace_matches_eigh(n in 3usize..20, k in 1usize..4,
                                     entries in prop::collection::vec(-5.0f64..5.0, 1..40)) {
        let k = k.min(n - 1);
        let s = random_sym(n, &entries);
        let dense = eigh(&s).unwrap();
        // The smallest-k subspace is only well defined when a gap
        // separates it from the rest of the spectrum.
        let gap = dense.eigenvalues[k] - dense.eigenvalues[k - 1];
        prop_assume!(gap > 1e-3);
        let lz = lanczos_smallest(&s, k, &LanczosOptions::default()).unwrap();
        let v = dense.smallest_vectors(k);
        for col in 0..k {
            let y: Vec<f64> = (0..n).map(|r| lz.eigenvectors[(r, col)]).collect();
            let mut proj = vec![0.0; n];
            for j in 0..k {
                let vj: Vec<f64> = (0..n).map(|r| v[(r, j)]).collect();
                axpy(dot(&vj, &y), &vj, &mut proj);
            }
            let leak: Vec<f64> = y.iter().zip(&proj).map(|(a, b)| a - b).collect();
            let angle = norm2(&leak);
            prop_assert!(angle < 1e-5, "col {col}: subspace leak {angle} (gap {gap})");
        }
    }

    /// Lanczos through the packed apply reproduces Lanczos through the
    /// CSR row product bit for bit.
    #[test]
    fn lanczos_on_csr_matches_dense_operator(n in 2usize..16, k in 1usize..4,
                                             entries in prop::collection::vec(
                                                 (0u32..4, -4.0f64..4.0), 1..30)) {
        let k = k.min(n);
        let entries: Vec<f64> = entries.into_iter().map(with_zeros).collect();
        let s = random_sym(n, &entries);
        let a = lanczos_smallest(&s, k, &LanczosOptions::default()).unwrap();
        let b = lanczos_smallest(&RowOrder(&s), k, &LanczosOptions::default()).unwrap();
        prop_assert_eq!(a.iterations, b.iterations);
        for (x, y) in a.eigenvalues.iter().zip(&b.eigenvalues) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
        for r in 0..n {
            for c in 0..k {
                let (x, y) = (a.eigenvectors[(r, c)], b.eigenvectors[(r, c)]);
                prop_assert_eq!(x.to_bits(), y.to_bits(), "vector ({}, {})", r, c);
            }
        }
    }

    /// The packed one-pass apply equals the CSR row product bit for bit,
    /// with exact zeros of both signs in the matrix and in `x`.
    #[test]
    fn csr_spmv_matches_dense(n in 0usize..24,
                              entries in prop::collection::vec(
                                  (0u32..5, -9.0f64..9.0), 1..60),
                              xs in prop::collection::vec(
                                  (0u32..6, -3.0f64..3.0), 1..24)) {
        let entries: Vec<f64> = entries.into_iter().map(with_zeros).collect();
        let xs: Vec<f64> = xs.into_iter().map(with_zeros).collect();
        let s = random_sym(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| xs[i % xs.len()]).collect();
        let mut packed = vec![f64::NAN; n];
        let mut rows = vec![f64::NAN; n];
        s.apply(&x, &mut packed);
        RowOrder(&s).apply(&x, &mut rows);
        for (i, (a, b)) in packed.iter().zip(&rows).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "y[{}]: {} vs {}", i, a, b);
        }
        // The dense row product agrees too (it may differ in a zero's sign).
        let dense = s.to_dense().matvec(&x);
        for (a, b) in packed.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }
}
