//! Collapsed spectral clustering: the trace-scale engine.
//!
//! [`spectral_cluster_collapsed`] is the matrix-free sibling of
//! [`spectral_cluster_weighted`](crate::spectral_cluster_weighted): the
//! affinity arrives as the packed unique-shape similarity
//! (`dagscope_wl::unique_gram`, normalized in place), the collapsed
//! normalized Laplacian is applied as an operator (`y = x − s∘(W(s∘x))`
//! with `s_a = √w_a / √d_a`) through one pass over the packed triangle,
//! and the smallest-k eigenpairs come from the Lanczos iteration — so
//! clustering a 100k-job trace allocates `m(m+1)/2` affinity entries for
//! its `m` unique shapes and `O(m·k)` for the embedding, never an `n × n`
//! matrix or a dense Laplacian.
//!
//! The multiplicity math is exactly `weighted.rs`'s: expanded degrees
//! `d_a = Σ_b w_b·W[a][b]`, collapsed normalized adjacency
//! `B[a][b] = √(w_a w_b)·W[a][b]/√(d_a d_b)`, embedding rows normalized
//! (which absorbs the `1/√w` expansion factor), multiplicity-weighted
//! k-means on top. Like that module it is partition-equivalent to the
//! expanded dense path (ARI == 1.0 on separated populations, pinned by
//! proptests) but not floating-point bit-identical to it.

use dagscope_linalg::{lanczos_smallest, LanczosOptions, LinOp, SymMatrix};

use crate::kmeans::KMeansConfig;
use crate::spectral::{ClusterCount, SpectralConfig, SpectralResult};
use crate::weighted::kmeans_weighted;

/// The collapsed normalized Laplacian `I − S W S` applied matrix-free
/// (`S = diag(s)`, `s_a = √w_a/√d_a`; zero-degree rows keep `s_a = 0`,
/// reproducing the dense convention `L[a][a] = 1` for isolated shapes).
struct CollapsedLaplacian<'a> {
    affinity: &'a SymMatrix,
    scale: &'a [f64],
}

impl LinOp for CollapsedLaplacian<'_> {
    fn dim(&self) -> usize {
        self.affinity.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let m = self.dim();
        let t: Vec<f64> = (0..m).map(|a| self.scale[a] * x[a]).collect();
        self.affinity.apply(&t, y);
        for a in 0..m {
            y[a] = x[a] - self.scale[a] * y[a];
        }
    }
}

/// Largest-gap heuristic over a (possibly partial) ascending eigenvalue
/// prefix — the same choice rule as
/// [`EigenDecomposition::eigengap_k`](dagscope_linalg::EigenDecomposition::eigengap_k).
fn eigengap_k(eigenvalues: &[f64], max_k: usize) -> usize {
    let upto = max_k.min(eigenvalues.len().saturating_sub(1));
    if upto == 0 {
        return 1;
    }
    let mut best = (0usize, f64::NEG_INFINITY);
    for i in 0..upto {
        let gap = eigenvalues[i + 1] - eigenvalues[i];
        if gap > best.1 {
            best = (i, gap);
        }
    }
    best.0 + 1
}

/// How many extra eigenvalues beyond `k` to compute for the spectrum
/// diagnostic surfaced in reports (`--timings`, `/v1/census`).
const SPECTRUM_EXTRA: usize = 8;

/// Work counters of the Lanczos solve inside [`spectral_cluster_collapsed`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LanczosCounters {
    /// Laplacian applications, one per Krylov basis vector.
    pub applications: usize,
    /// Largest residual bound `|β·z_last|` among the accepted eigenpairs.
    pub max_residual: f64,
}

/// Spectral clustering of a deduplicated population from its packed
/// unique-shape affinity. `weights[a]` is the multiplicity of shape `a`.
/// Returns per-shape assignments (expand with
/// [`expand_assignments`](crate::expand_assignments)), whose
/// `eigenvalues` hold the computed ascending prefix of the collapsed
/// Laplacian spectrum, not the full spectrum, and the solve's counters.
pub fn spectral_cluster_collapsed(
    affinity: &SymMatrix,
    weights: &[f64],
    cfg: &SpectralConfig,
) -> Result<(SpectralResult, LanczosCounters), String> {
    let m = affinity.n();
    if m == 0 {
        return Err("empty affinity matrix".to_string());
    }
    if weights.len() != m {
        return Err(format!("{} weights for {m} shapes", weights.len()));
    }
    if !weights.iter().all(|&w| w > 0.0) {
        return Err("weights must be positive".to_string());
    }
    for a in 0..m {
        for (off, &v) in affinity.upper_row(a).iter().enumerate() {
            if v < -1e-12 {
                return Err(format!("negative affinity at ({a},{}): {v}", a + off));
            }
        }
    }

    // Expanded degree of every job with shape a: d_a = Σ_b w_b·W[a][b],
    // which is the product W·w summed in ascending b.
    let mut degree = vec![0.0f64; m];
    affinity.apply(weights, &mut degree);
    let scale: Vec<f64> = degree
        .iter()
        .zip(weights)
        .map(|(&d, &w)| if d > 0.0 { w.sqrt() / d.sqrt() } else { 0.0 })
        .collect();
    let op = CollapsedLaplacian {
        affinity,
        scale: &scale,
    };

    // Eigenpairs needed: the embedding dimension plus a short diagnostic
    // tail (and max_k+1 for the eigengap rule).
    let kreq = match cfg.k {
        ClusterCount::Fixed(k) => {
            if k == 0 || k > m {
                return Err(format!("k={k} out of range for m={m}"));
            }
            (k + SPECTRUM_EXTRA).min(m)
        }
        ClusterCount::Eigengap { max_k } => (max_k + 1).max(2).min(m),
    };
    let eig = lanczos_smallest(&op, kreq, &LanczosOptions::default())
        .map_err(|e| format!("collapsed spectral: {e}"))?;

    let k = match cfg.k {
        ClusterCount::Fixed(k) => k,
        ClusterCount::Eigengap { max_k } => eigengap_k(&eig.eigenvalues, max_k.min(m)),
    };

    // Row-normalized embedding on the k smallest eigenvectors; the
    // normalization absorbs the 1/√w shape→job expansion factor.
    let mut emb = dagscope_linalg::Matrix::zeros(m, k);
    for a in 0..m {
        for j in 0..k {
            emb[(a, j)] = eig.eigenvectors[(a, j)];
        }
        dagscope_linalg::vector::normalize_in_place(emb.row_mut(a));
    }

    let km = kmeans_weighted(
        &emb,
        weights,
        &KMeansConfig {
            k,
            seed: cfg.seed,
            n_init: cfg.n_init,
            max_iters: 200,
        },
    );

    let counters = LanczosCounters {
        applications: eig.iterations,
        max_residual: eig.max_residual,
    };
    Ok((
        SpectralResult {
            assignments: km.assignments,
            k,
            eigenvalues: eig.eigenvalues,
            embedding: emb,
        },
        counters,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::adjusted_rand_index;
    use crate::spectral::spectral_cluster;
    use crate::weighted::{expand_assignments, spectral_cluster_weighted};

    fn two_block_unique() -> SymMatrix {
        let mut u = SymMatrix::zeros(4);
        for i in 0..4 {
            u.set(i, i, 1.0);
        }
        u.set(0, 1, 0.9);
        u.set(2, 3, 0.85);
        u.set(0, 2, 0.03);
        u.set(1, 3, 0.02);
        u
    }

    fn expand_affinity(unique: &SymMatrix, mult: &[usize]) -> (SymMatrix, Vec<usize>) {
        let mut shape_of = Vec::new();
        for (s, &m) in mult.iter().enumerate() {
            shape_of.extend(std::iter::repeat_n(s, m));
        }
        let n = shape_of.len();
        let mut w = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                w.set(i, j, unique.get(shape_of[i], shape_of[j]));
            }
        }
        (w, shape_of)
    }

    #[test]
    fn collapsed_partition_matches_expanded_spectral() {
        let unique = two_block_unique();
        let mult = [5usize, 1, 3, 2];
        let (expanded, shape_of) = expand_affinity(&unique, &mult);
        let cfg = SpectralConfig {
            k: ClusterCount::Fixed(2),
            seed: 42,
            n_init: 10,
        };
        let full = spectral_cluster(&expanded, &cfg).unwrap();
        let weights: Vec<f64> = mult.iter().map(|&m| m as f64).collect();
        let (reduced, counters) = spectral_cluster_collapsed(&unique, &weights, &cfg).unwrap();
        // k + SPECTRUM_EXTRA eigenpairs cap at m = 4: the basis spans R^4.
        assert_eq!(counters.applications, 4);
        assert!(counters.max_residual.is_finite());
        let expanded_reduced = expand_assignments(&shape_of, &reduced.assignments);
        assert_eq!(
            adjusted_rand_index(&full.assignments, &expanded_reduced),
            1.0,
            "collapsed path must produce the same partition"
        );
    }

    #[test]
    fn collapsed_matches_weighted_dense_partition_and_spectrum() {
        let unique = two_block_unique();
        let weights = [5.0, 1.0, 3.0, 2.0];
        let cfg = SpectralConfig {
            k: ClusterCount::Fixed(2),
            seed: 7,
            n_init: 10,
        };
        let dense = spectral_cluster_weighted(&unique, &weights, &cfg).unwrap();
        let (collapsed, _) = spectral_cluster_collapsed(&unique, &weights, &cfg).unwrap();
        assert_eq!(
            adjusted_rand_index(&dense.assignments, &collapsed.assignments),
            1.0
        );
        // Same Laplacian, different solvers: eigenvalues agree to tolerance.
        for (a, b) in collapsed.eigenvalues.iter().zip(&dense.eigenvalues) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn eigengap_choice_matches_dense_rule() {
        let unique = two_block_unique();
        let weights = [2.0, 2.0, 2.0, 2.0];
        let cfg = SpectralConfig {
            k: ClusterCount::Eigengap { max_k: 3 },
            seed: 9,
            n_init: 10,
        };
        let dense = spectral_cluster_weighted(&unique, &weights, &cfg).unwrap();
        let (collapsed, _) = spectral_cluster_collapsed(&unique, &weights, &cfg).unwrap();
        assert_eq!(dense.k, collapsed.k);
        assert_eq!(
            adjusted_rand_index(&dense.assignments, &collapsed.assignments),
            1.0
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let unique = two_block_unique();
        let cfg = SpectralConfig {
            k: ClusterCount::Fixed(2),
            ..Default::default()
        };
        assert!(spectral_cluster_collapsed(&SymMatrix::zeros(0), &[], &cfg).is_err());
        assert!(spectral_cluster_collapsed(&unique, &[1.0; 3], &cfg).is_err());
        assert!(spectral_cluster_collapsed(&unique, &[1.0, 0.0, 1.0, 1.0], &cfg).is_err());
        let bad_k = SpectralConfig {
            k: ClusterCount::Fixed(9),
            ..Default::default()
        };
        assert!(spectral_cluster_collapsed(&unique, &[1.0; 4], &bad_k).is_err());
        let mut neg = SymMatrix::zeros(2);
        neg.set(0, 0, 1.0);
        neg.set(1, 1, 1.0);
        neg.set(0, 1, -0.5);
        assert_eq!(
            spectral_cluster_collapsed(&neg, &[1.0; 2], &cfg).unwrap_err(),
            "negative affinity at (0,1): -0.5"
        );
    }

    #[test]
    fn isolated_shapes_do_not_crash() {
        // Shape 2 has no affinity to anything (zero row): the dense
        // convention keeps L[2][2] = 1 via inv_sqrt = 0.
        let mut u = SymMatrix::zeros(3);
        u.set(0, 0, 1.0);
        u.set(1, 1, 1.0);
        u.set(0, 1, 0.8);
        let cfg = SpectralConfig {
            k: ClusterCount::Fixed(2),
            seed: 3,
            n_init: 5,
        };
        let weights = [2.0, 1.0, 4.0];
        let (r, _) = spectral_cluster_collapsed(&u, &weights, &cfg).unwrap();
        assert_eq!(r.assignments.len(), 3);
        assert_eq!(r.k, 2);
        // Agrees with the dense weighted engine on the same degenerate input.
        let dense = spectral_cluster_weighted(&u, &weights, &cfg).unwrap();
        assert_eq!(adjusted_rand_index(&dense.assignments, &r.assignments), 1.0);
    }
}
