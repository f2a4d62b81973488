//! Lanczos iteration for the smallest eigenpairs of a symmetric operator.
//!
//! The spectral-clustering stage only needs the `k` smallest eigenpairs
//! of a normalized Laplacian, and at trace scale the Laplacian is only
//! available as a matrix-free [`LinOp`]. [`lanczos_smallest`] builds a
//! Krylov basis one operator application at a time, with **full
//! reorthogonalization** (every new direction is re-projected against the
//! entire basis, twice), so the classic loss-of-orthogonality ghost
//! eigenvalues cannot appear. Ritz values and vectors are extracted from
//! the tridiagonal projection with the same implicit-shift QL iteration
//! (`tqli`) the dense path uses.
//!
//! Two departures from the textbook single-vector iteration matter here:
//!
//! * **Breakdown restarts.** When the Krylov space hits an invariant
//!   subspace (`β ≈ 0`) — guaranteed for affinities with many identical
//!   or disconnected shapes — the iteration restarts with a fresh
//!   deterministic vector orthogonalized against everything found so
//!   far. `T` stays tridiagonal (the junction β is exactly 0) and the
//!   restarted block recovers eigenvalue **multiplicities** a single
//!   Krylov sequence is blind to.
//! * **Determinism.** The start and restart vectors come from a seeded
//!   splitmix64 stream, and every inner product is a fixed-order
//!   sequential reduction, so the same operator and options reproduce
//!   the same eigenpairs bit-for-bit on any thread count.

use crate::error::LinalgError;
use crate::linop::LinOp;
use crate::tridiag::tqli;
use crate::vector::{axpy, dot, normalize_in_place};
use crate::Matrix;

/// Options for [`lanczos_smallest`].
#[derive(Debug, Clone, Copy)]
pub struct LanczosOptions {
    /// Cap on the Krylov basis size; `None` allows growth to the full
    /// dimension `n` (at which point the answer is exact, so the solver
    /// cannot fail to converge by default).
    pub max_dim: Option<usize>,
    /// Relative residual tolerance for accepting a Ritz pair.
    pub tol: f64,
    /// Seed of the deterministic start/restart vector stream.
    pub seed: u64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_dim: None,
            tol: 1e-10,
            seed: 0x4c41_4e43, // "LANC"
        }
    }
}

/// The `k` smallest eigenpairs found by [`lanczos_smallest`].
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// The `k` smallest eigenvalues, ascending.
    pub eigenvalues: Vec<f64>,
    /// Corresponding unit eigenvectors as columns of an `n × k` matrix.
    pub eigenvectors: Matrix,
    /// Krylov basis size at acceptance (operator applications performed).
    pub iterations: usize,
    /// Largest accepted residual bound `|β · z_last|` among the returned
    /// pairs.
    pub max_residual: f64,
}

/// Deterministic pseudo-random unit-ish vector (splitmix64 stream).
fn splitmix_fill(state: &mut u64, out: &mut [f64]) {
    for x in out.iter_mut() {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        *x = ((z ^ (z >> 31)) as f64 / u64::MAX as f64) * 2.0 - 1.0;
    }
}

/// Two Gram-Schmidt sweeps of `w` against every vector in `basis`.
fn reorthogonalize(w: &mut [f64], basis: &[Vec<f64>]) {
    for _ in 0..2 {
        for q in basis {
            let c = dot(q, w);
            axpy(-c, q, w);
        }
    }
}

/// Eigen-decompose the tridiagonal projection `T` (`alpha` diagonal,
/// `beta` sub-diagonal) via `tqli`. Returns unsorted `(values, vectors)`.
fn ritz_pairs(alpha: &[f64], beta: &[f64]) -> Result<(Vec<f64>, Matrix), LinalgError> {
    let j = alpha.len();
    let mut d = alpha.to_vec();
    // tqli convention: e[i] holds the sub-diagonal T[i][i-1], e[0] unused.
    let mut e = vec![0.0; j];
    e[1..j].copy_from_slice(&beta[..j - 1]);
    let mut z = Matrix::identity(j);
    tqli(&mut d, &mut e, &mut z)?;
    if d.iter().any(|v| v.is_nan()) {
        return Err(LinalgError::NaN {
            context: "lanczos: Ritz value".to_string(),
        });
    }
    Ok((d, z))
}

/// The `k` smallest eigenpairs of the symmetric operator `op`.
///
/// Validated against the dense [`eigh`](crate::eigh) by proptests (value
/// tolerance plus subspace angle); exact when the basis reaches the full
/// dimension. Errors on `k == 0`, `k > n`, a NaN surfacing anywhere in
/// the recurrence, or — only when [`LanczosOptions::max_dim`] caps the
/// basis below `n` — failure to converge within the cap.
pub fn lanczos_smallest(
    op: &dyn LinOp,
    k: usize,
    opts: &LanczosOptions,
) -> Result<LanczosResult, LinalgError> {
    let n = op.dim();
    if k == 0 || k > n {
        return Err(LinalgError::Dimension {
            context: format!("lanczos: k={k} out of range for n={n}"),
        });
    }
    let max_dim = opts.max_dim.unwrap_or(n).clamp(k, n);

    let mut rng_state = opts.seed;
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new(); // beta[i] couples basis i and i+1
    let mut v = vec![0.0; n];
    splitmix_fill(&mut rng_state, &mut v);
    normalize_in_place(&mut v);
    let mut w = vec![0.0; n];
    // Iterations of the current block since its (re)start; a restarted
    // block must run a while before the residual test may accept, so a
    // duplicate of an already-found small eigenvalue can emerge.
    let mut block_len = 0usize;

    loop {
        op.apply(&v, &mut w);
        let a = dot(&v, &w);
        if !a.is_finite() {
            return Err(LinalgError::NaN {
                context: "lanczos: diagonal coefficient".to_string(),
            });
        }
        axpy(-a, &v, &mut w);
        if let Some(b_prev) = beta.last().copied() {
            if b_prev != 0.0 {
                axpy(-b_prev, basis.last().unwrap(), &mut w);
            }
        }
        basis.push(std::mem::take(&mut v));
        alpha.push(a);
        block_len += 1;
        reorthogonalize(&mut w, &basis);
        let b = crate::vector::norm2(&w);
        if !b.is_finite() {
            return Err(LinalgError::NaN {
                context: "lanczos: off-diagonal coefficient".to_string(),
            });
        }
        let m = basis.len();
        let scale = alpha
            .iter()
            .chain(beta.iter())
            .fold(1.0f64.max(b.abs()), |s, x| s.max(x.abs()));

        let exhausted = m >= max_dim;
        // β ≈ 0 means the Krylov space is invariant: the residual test
        // would pass vacuously while eigenvalue *multiplicities* may
        // still hide in the orthogonal complement, so a breakdown always
        // restarts instead of accepting (unless the basis is exhausted).
        let breakdown = b <= scale * 1e-13;
        let warmed = block_len >= k;
        let stride_ok = m <= 64 || m.is_multiple_of(8);
        if m >= k && (exhausted || (!breakdown && warmed && stride_ok)) {
            let (vals, z) = ritz_pairs(&alpha, &beta)?;
            let mut order: Vec<usize> = (0..m).collect();
            // `ritz_pairs` returns an error on a NaN Ritz value, so no
            // input reaches this comparison with one.
            order.sort_by(|&x, &y| {
                vals[x]
                    .partial_cmp(&vals[y])
                    .expect("ritz_pairs rejects NaN")
            });
            let worst = order[..k]
                .iter()
                .map(|&i| (b * z[(m - 1, i)]).abs())
                .fold(0.0f64, f64::max);
            if worst <= opts.tol * scale || m >= n {
                let mut vecs = Matrix::zeros(n, k);
                let mut ev = Vec::with_capacity(k);
                for (col, &i) in order[..k].iter().enumerate() {
                    ev.push(vals[i]);
                    for (j, q) in basis.iter().enumerate() {
                        let c = z[(j, i)];
                        for (r, qr) in q.iter().enumerate() {
                            vecs[(r, col)] += c * qr;
                        }
                    }
                    let mut col_buf: Vec<f64> = (0..n).map(|r| vecs[(r, col)]).collect();
                    normalize_in_place(&mut col_buf);
                    for (r, x) in col_buf.into_iter().enumerate() {
                        vecs[(r, col)] = x;
                    }
                }
                return Ok(LanczosResult {
                    eigenvalues: ev,
                    eigenvectors: vecs,
                    iterations: m,
                    max_residual: worst,
                });
            }
            if exhausted {
                return Err(LinalgError::NoConvergence {
                    context: "lanczos".to_string(),
                    iterations: m,
                });
            }
        }

        if breakdown {
            // Invariant subspace found: restart with a fresh direction
            // orthogonal to everything so far (β junction stays 0).
            beta.push(0.0);
            let mut fresh = vec![0.0; n];
            loop {
                splitmix_fill(&mut rng_state, &mut fresh);
                reorthogonalize(&mut fresh, &basis);
                if normalize_in_place(&mut fresh) > 1e-8 {
                    break;
                }
            }
            v = fresh;
            block_len = 0;
        } else {
            beta.push(b);
            v = w.iter().map(|x| x / b).collect();
        }
        w = vec![0.0; n];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eigh, SymMatrix};

    fn example(n: usize, seed: u64) -> SymMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            ((z ^ (z >> 31)) as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut s = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                s.set(i, j, next());
            }
        }
        s
    }

    #[test]
    fn matches_dense_eigh_on_random_matrices() {
        for (n, k) in [(6usize, 2usize), (15, 4), (40, 5)] {
            let s = example(n, 100 + n as u64);
            let dense = eigh(&s).unwrap();
            let lz = lanczos_smallest(&s, k, &LanczosOptions::default()).unwrap();
            for (a, b) in lz.eigenvalues.iter().zip(&dense.eigenvalues) {
                assert!((a - b).abs() < 1e-8, "n={n}: {a} vs {b}");
            }
            // Each Lanczos vector lies in the dense smallest-k subspace.
            let v = dense.smallest_vectors(k);
            for col in 0..k {
                let y: Vec<f64> = (0..n).map(|r| lz.eigenvectors[(r, col)]).collect();
                let mut proj = vec![0.0; n];
                for j in 0..k {
                    let vj: Vec<f64> = (0..n).map(|r| v[(r, j)]).collect();
                    axpy(dot(&vj, &y), &vj, &mut proj);
                }
                let leak: f64 = y
                    .iter()
                    .zip(&proj)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                assert!(leak < 1e-7, "n={n} col={col} leak={leak}");
            }
        }
    }

    #[test]
    fn recovers_eigenvalue_multiplicity_via_restarts() {
        // A = I: every Krylov space is one-dimensional, so only the
        // breakdown-restart logic can deliver k > 1 pairs.
        let mut s = SymMatrix::zeros(6);
        for i in 0..6 {
            s.set(i, i, 1.0);
        }
        let lz = lanczos_smallest(&s, 3, &LanczosOptions::default()).unwrap();
        for ev in &lz.eigenvalues {
            assert!((ev - 1.0).abs() < 1e-12);
        }
        // Distinct duplicate: diag(0, 0, 1, 5, 5, 9).
        let mut d = SymMatrix::zeros(6);
        for (i, v) in [0.0, 0.0, 1.0, 5.0, 5.0, 9.0].iter().enumerate() {
            d.set(i, i, *v);
        }
        let lz = lanczos_smallest(&d, 3, &LanczosOptions::default()).unwrap();
        assert!(lz.eigenvalues[0].abs() < 1e-10);
        assert!(lz.eigenvalues[1].abs() < 1e-10);
        assert!((lz.eigenvalues[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal_and_satisfy_residual() {
        let s = example(30, 9);
        let k = 4;
        let lz = lanczos_smallest(&s, k, &LanczosOptions::default()).unwrap();
        for a in 0..k {
            let ya: Vec<f64> = (0..30).map(|r| lz.eigenvectors[(r, a)]).collect();
            for b in 0..k {
                let yb: Vec<f64> = (0..30).map(|r| lz.eigenvectors[(r, b)]).collect();
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((dot(&ya, &yb) - expect).abs() < 1e-8, "({a},{b})");
            }
            let mut ay = vec![0.0; 30];
            s.apply(&ya, &mut ay);
            for (r, y) in ya.iter().enumerate() {
                ay[r] -= lz.eigenvalues[a] * y;
            }
            assert!(crate::vector::norm2(&ay) < 1e-7);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = example(25, 77);
        let a = lanczos_smallest(&s, 3, &LanczosOptions::default()).unwrap();
        let b = lanczos_smallest(&s, 3, &LanczosOptions::default()).unwrap();
        assert_eq!(a.iterations, b.iterations);
        for (x, y) in a.eigenvalues.iter().zip(&b.eigenvalues) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            a.eigenvectors.as_slice().len(),
            b.eigenvectors.as_slice().len()
        );
        for (x, y) in a
            .eigenvectors
            .as_slice()
            .iter()
            .zip(b.eigenvectors.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn rejects_out_of_range_k() {
        let s = example(4, 1);
        assert!(lanczos_smallest(&s, 0, &LanczosOptions::default()).is_err());
        assert!(lanczos_smallest(&s, 5, &LanczosOptions::default()).is_err());
        // k == n runs to the full basis and is exact.
        let lz = lanczos_smallest(&s, 4, &LanczosOptions::default()).unwrap();
        let dense = eigh(&s).unwrap();
        for (a, b) in lz.eigenvalues.iter().zip(&dense.eigenvalues) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn nan_operator_is_an_error_not_a_panic() {
        let mut s = SymMatrix::zeros(3);
        s.set(0, 0, f64::NAN);
        s.set(1, 1, 1.0);
        s.set(2, 2, 2.0);
        assert!(lanczos_smallest(&s, 2, &LanczosOptions::default()).is_err());
    }
}
