//! Normalized spectral clustering (Ng–Jordan–Weiss) over affinity matrices.

use dagscope_linalg::{eigh, Matrix, SymMatrix};

use crate::kmeans::{kmeans, KMeansConfig};

/// How to choose the number of clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterCount {
    /// Use exactly this many clusters (the paper fixes 5).
    Fixed(usize),
    /// Choose by the largest eigengap among the first `max_k` Laplacian
    /// eigenvalues.
    Eigengap {
        /// Upper bound on the cluster count considered.
        max_k: usize,
    },
}

/// Spectral-clustering configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralConfig {
    /// Cluster-count policy.
    pub k: ClusterCount,
    /// Seed for the embedded k-means stage.
    pub seed: u64,
    /// k-means restarts in the embedding.
    pub n_init: usize,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            k: ClusterCount::Fixed(5),
            seed: 42,
            n_init: 10,
        }
    }
}

/// Result of spectral clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralResult {
    /// Cluster index per item.
    pub assignments: Vec<usize>,
    /// Number of clusters actually used.
    pub k: usize,
    /// Ascending eigenvalues of the normalized Laplacian (for eigengap
    /// inspection and diagnostics).
    pub eigenvalues: Vec<f64>,
    /// The spectral embedding rows fed to k-means (`n × k`).
    pub embedding: Matrix,
}

/// Build the symmetric normalized Laplacian `L = I − D^{-1/2} W D^{-1/2}`.
///
/// Isolated rows (zero degree) keep `L[i][i] = 1` and zero off-diagonals,
/// i.e. they form their own connected component.
pub fn normalized_laplacian(affinity: &SymMatrix) -> SymMatrix {
    let n = affinity.n();
    let deg = affinity.row_sums();
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut lap = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let w = affinity.get(i, j) * inv_sqrt[i] * inv_sqrt[j];
            let v = if i == j { 1.0 - w } else { -w };
            lap.set(i, j, v);
        }
    }
    lap
}

/// Cluster items given their pairwise affinity (similarity) matrix.
///
/// Steps (Ng–Jordan–Weiss): normalized Laplacian → `k` smallest
/// eigenvectors → row-normalize the embedding → k-means++ with restarts.
/// Deterministic in `cfg.seed`.
///
/// ```
/// use dagscope_linalg::SymMatrix;
/// use dagscope_cluster::{spectral_cluster, ClusterCount, SpectralConfig};
/// // Two obvious blocks: {0,1} and {2,3}.
/// let mut w = SymMatrix::zeros(4);
/// for i in 0..4 { w.set(i, i, 1.0); }
/// w.set(0, 1, 0.9);
/// w.set(2, 3, 0.9);
/// w.set(1, 2, 0.05);
/// let r = spectral_cluster(&w, &SpectralConfig { k: ClusterCount::Fixed(2), ..Default::default() }).unwrap();
/// assert_eq!(r.assignments[0], r.assignments[1]);
/// assert_eq!(r.assignments[2], r.assignments[3]);
/// assert_ne!(r.assignments[0], r.assignments[2]);
/// ```
pub fn spectral_cluster(
    affinity: &SymMatrix,
    cfg: &SpectralConfig,
) -> Result<SpectralResult, String> {
    let n = affinity.n();
    if n == 0 {
        return Err("empty affinity matrix".to_string());
    }
    for i in 0..n {
        for j in i..n {
            let v = affinity.get(i, j);
            if v < -1e-12 {
                return Err(format!("negative affinity at ({i},{j}): {v}"));
            }
        }
    }

    let lap = normalized_laplacian(affinity);
    let eig = eigh(&lap)?;

    let k = match cfg.k {
        ClusterCount::Fixed(k) => {
            if k == 0 || k > n {
                return Err(format!("k={k} out of range for n={n}"));
            }
            k
        }
        ClusterCount::Eigengap { max_k } => eig.eigengap_k(max_k.min(n)),
    };

    // Embedding: k smallest eigenvectors, rows normalized to the unit
    // sphere (zero rows left as-is).
    let mut emb = eig.smallest_vectors(k);
    for i in 0..n {
        let row = emb.row_mut(i);
        dagscope_linalg::vector::normalize_in_place(row);
    }

    let km = kmeans(
        &emb,
        &KMeansConfig {
            k,
            seed: cfg.seed,
            n_init: cfg.n_init,
            max_iters: 200,
        },
    );

    Ok(SpectralResult {
        assignments: km.assignments,
        k,
        eigenvalues: eig.eigenvalues,
        embedding: emb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block-diagonal affinity with `sizes` dense blocks and weak noise.
    fn block_affinity(sizes: &[usize], within: f64, between: f64) -> SymMatrix {
        let n: usize = sizes.iter().sum();
        let mut block = vec![0usize; n];
        let mut at = 0;
        for (b, &s) in sizes.iter().enumerate() {
            for slot in block.iter_mut().skip(at).take(s) {
                *slot = b;
            }
            at += s;
        }
        let mut w = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = if i == j {
                    1.0
                } else if block[i] == block[j] {
                    within
                } else {
                    between
                };
                w.set(i, j, v);
            }
        }
        w
    }

    fn agree(assignments: &[usize], sizes: &[usize]) {
        let mut at = 0;
        let mut reps = Vec::new();
        for &s in sizes {
            let rep = assignments[at];
            for (i, a) in assignments.iter().enumerate().skip(at).take(s) {
                assert_eq!(*a, rep, "index {i}");
            }
            reps.push(rep);
            at += s;
        }
        reps.sort_unstable();
        reps.dedup();
        assert_eq!(
            reps.len(),
            sizes.len(),
            "blocks must map to distinct clusters"
        );
    }

    #[test]
    fn recovers_three_blocks() {
        let w = block_affinity(&[10, 7, 5], 0.8, 0.02);
        let r = spectral_cluster(
            &w,
            &SpectralConfig {
                k: ClusterCount::Fixed(3),
                ..Default::default()
            },
        )
        .unwrap();
        agree(&r.assignments, &[10, 7, 5]);
        assert_eq!(r.k, 3);
    }

    #[test]
    fn eigengap_detects_block_count() {
        for blocks in [2usize, 3, 4] {
            let sizes: Vec<usize> = (0..blocks).map(|b| 6 + b).collect();
            let w = block_affinity(&sizes, 0.9, 0.01);
            let r = spectral_cluster(
                &w,
                &SpectralConfig {
                    k: ClusterCount::Eigengap { max_k: 8 },
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(r.k, blocks, "eigengap missed {blocks} blocks");
        }
    }

    #[test]
    fn laplacian_of_disconnected_graph_has_zero_eigenvalue_per_component() {
        let w = block_affinity(&[4, 4], 1.0, 0.0);
        let lap = normalized_laplacian(&w);
        let eig = eigh(&lap).unwrap();
        assert!(eig.eigenvalues[0].abs() < 1e-9);
        assert!(eig.eigenvalues[1].abs() < 1e-9);
        assert!(eig.eigenvalues[2] > 1e-3);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(spectral_cluster(&SymMatrix::zeros(0), &SpectralConfig::default()).is_err());
        let mut neg = SymMatrix::zeros(2);
        neg.set(0, 1, -0.5);
        assert!(spectral_cluster(&neg, &SpectralConfig::default()).is_err());
        let w = block_affinity(&[3], 0.5, 0.0);
        let bad_k = SpectralConfig {
            k: ClusterCount::Fixed(9),
            ..Default::default()
        };
        assert!(spectral_cluster(&w, &bad_k).is_err());
    }

    #[test]
    fn isolated_item_forms_own_cluster() {
        // Items 0..3 dense, item 4 has zero affinity to everything.
        let mut w = block_affinity(&[4], 0.9, 0.0);
        // grow to 5x5
        let mut w5 = SymMatrix::zeros(5);
        for i in 0..4 {
            for j in i..4 {
                w5.set(i, j, w.get(i, j));
            }
        }
        w = w5;
        w.set(4, 4, 0.0);
        let r = spectral_cluster(
            &w,
            &SpectralConfig {
                k: ClusterCount::Fixed(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.assignments[0], r.assignments[1]);
        assert_ne!(r.assignments[4], r.assignments[0]);
    }

    #[test]
    fn deterministic() {
        let w = block_affinity(&[8, 8], 0.7, 0.05);
        let cfg = SpectralConfig {
            k: ClusterCount::Fixed(2),
            seed: 3,
            n_init: 5,
        };
        let a = spectral_cluster(&w, &cfg).unwrap();
        let b = spectral_cluster(&w, &cfg).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }
}
