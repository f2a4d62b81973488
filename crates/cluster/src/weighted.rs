//! Weighted spectral clustering over deduplicated shape populations.
//!
//! When WL-fingerprint dedup collapses a job population into `m` unique
//! shapes with multiplicities (`dagscope_wl::ShapeDedup`), clustering the
//! expanded `n × n` affinity is wasteful: the Laplacian eigenproblem of
//! the expanded graph factors exactly through the `m × m` unique-shape
//! Gram. [`spectral_cluster_weighted`] solves that reduced problem —
//! expanded degrees `d_a = Σ_b w_b·W[a][b]`, the collapsed normalized
//! adjacency `B[a][b] = √(w_a w_b)·W[a][b] / √(d_a d_b)`, and a
//! multiplicity-weighted k-means in the embedding — so a trace with one
//! million identical chains costs one row, not 10¹² entries.
//!
//! This path is *mathematically* equivalent to running
//! [`spectral_cluster`](crate::spectral_cluster) on the expanded matrix
//! (duplicate jobs always land in the same group), but it is **not**
//! floating-point bit-identical to it: the eigensolve runs at a different
//! dimension and the k-means RNG draws differently. Partition
//! equivalence is pinned by tests on cleanly separated populations. The
//! pipeline clusters through this module's sparse sibling,
//! [`collapsed`](crate::collapsed), which shares its weighted k-means.

use dagscope_linalg::vector::dist_sq;
use dagscope_linalg::{eigh, Matrix, SymMatrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::kmeans::{assign, farthest, KMeansConfig, KMeansResult};
use crate::spectral::{ClusterCount, SpectralConfig, SpectralResult};

/// k-means++ seeding with per-point weights: the first centroid is drawn
/// proportional to weight (the expanded-population uniform draw), each
/// next one proportional to `w · d²`.
fn seed_centroids_weighted(
    points: &Matrix,
    weights: &[f64],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let n = points.rows();
    let total_w: f64 = weights.iter().sum();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = {
        let mut x = rng.random::<f64>() * total_w;
        let mut pick = n - 1;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                pick = i;
                break;
            }
            x -= w;
        }
        pick
    };
    centroids.push(points.row(first).to_vec());
    let mut wd2: Vec<f64> = (0..n)
        .map(|i| weights[i] * dist_sq(points.row(i), &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = wd2.iter().sum();
        let chosen = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut x = rng.random::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in wd2.iter().enumerate() {
                if x < d {
                    pick = i;
                    break;
                }
                x -= d;
            }
            pick
        };
        centroids.push(points.row(chosen).to_vec());
        for (i, d) in wd2.iter_mut().enumerate() {
            *d = d.min(weights[i] * dist_sq(points.row(i), centroids.last().unwrap()));
        }
    }
    centroids
}

fn lloyd_weighted(
    points: &Matrix,
    weights: &[f64],
    mut centroids: Vec<Vec<f64>>,
    max_iters: usize,
) -> KMeansResult {
    let n = points.rows();
    let d = points.cols();
    let k = centroids.len();
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;

    for iter in 0..max_iters {
        iterations = iter + 1;
        let new_assignments = assign(points, &centroids);
        let changed = new_assignments != assignments;
        assignments = new_assignments;

        // Update step: weighted means.
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut mass = vec![0.0f64; k];
        let mut members = vec![0usize; k];
        for i in 0..n {
            mass[assignments[i]] += weights[i];
            members[assignments[i]] += 1;
            for (s, x) in sums[assignments[i]].iter_mut().zip(points.row(i)) {
                *s += weights[i] * x;
            }
        }
        // Empty-cluster repair: adopt the point with the largest weighted
        // distance from its centroid among clusters that keep a member.
        // With n >= k points and a cluster empty, some other cluster has
        // two.
        for c in 0..k {
            if members[c] == 0 {
                let far = farthest((0..n).filter(|&i| members[assignments[i]] > 1).map(|i| {
                    (
                        i,
                        weights[i] * dist_sq(points.row(i), &centroids[assignments[i]]),
                    )
                }));
                let old = assignments[far];
                members[old] -= 1;
                members[c] = 1;
                mass[old] -= weights[far];
                for (s, x) in sums[old].iter_mut().zip(points.row(far)) {
                    *s -= weights[far] * x;
                }
                assignments[far] = c;
                mass[c] = weights[far];
                sums[c] = points.row(far).iter().map(|x| weights[far] * x).collect();
            }
        }
        for c in 0..k {
            for (j, s) in sums[c].iter().enumerate() {
                centroids[c][j] = s / mass[c];
            }
        }
        if !changed && iter > 0 {
            break;
        }
    }

    let inertia: f64 = (0..n)
        .map(|i| weights[i] * dist_sq(points.row(i), &centroids[assignments[i]]))
        .sum();
    let mut cm = Matrix::zeros(k, d);
    for (c, centroid) in centroids.iter().enumerate() {
        cm.row_mut(c).copy_from_slice(centroid);
    }
    KMeansResult {
        assignments,
        centroids: cm,
        inertia,
        iterations,
    }
}

/// Weighted k-means: each row of `points` carries a positive weight (its
/// multiplicity in the expanded population). Equivalent to running
/// [`kmeans`](crate::kmeans) on the point set with every row repeated
/// `weight` times, at `O(m)` cost instead of `O(Σw)`.
///
/// Panics if `k == 0`, fewer rows than clusters, a weight is
/// non-positive, or lengths mismatch.
pub fn kmeans_weighted(points: &Matrix, weights: &[f64], cfg: &KMeansConfig) -> KMeansResult {
    assert!(cfg.k >= 1, "k must be positive");
    assert_eq!(points.rows(), weights.len(), "one weight per row");
    assert!(
        points.rows() >= cfg.k,
        "need at least k={} points, got {}",
        cfg.k,
        points.rows()
    );
    assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut best: Option<KMeansResult> = None;
    for _ in 0..cfg.n_init.max(1) {
        let centroids = seed_centroids_weighted(points, weights, cfg.k, &mut rng);
        let run = lloyd_weighted(points, weights, centroids, cfg.max_iters);
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    best.unwrap()
}

/// Spectral clustering of a deduplicated population: `affinity` is the
/// `m × m` unique-shape Gram and `weights[a]` the multiplicity of shape
/// `a`. Solves the expanded graph's normalized-Laplacian eigenproblem in
/// the collapsed `m`-dimensional space (see the module docs), then runs
/// multiplicity-weighted k-means. Returns per-*shape* assignments; expand
/// with [`expand_assignments`].
pub fn spectral_cluster_weighted(
    affinity: &SymMatrix,
    weights: &[f64],
    cfg: &SpectralConfig,
) -> Result<SpectralResult, String> {
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
    for i in 0..m {
        for j in i..m {
            let v = affinity.get(i, j);
            if v < -1e-12 {
                return Err(format!("negative affinity at ({i},{j}): {v}"));
            }
        }
    }

    // Expanded degree of every job with shape a: d_a = Σ_b w_b·W[a][b].
    let mut deg = vec![0.0f64; m];
    for (a, d) in deg.iter_mut().enumerate() {
        for (b, &w) in weights.iter().enumerate() {
            *d += w * affinity.get(a, b);
        }
    }
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    // Collapsed normalized Laplacian: the expanded D^{-1/2} W D^{-1/2}
    // restricted to shape space is B[a][b] = √(w_a w_b)·W[a][b]/√(d_a d_b);
    // its eigenvectors u map to expanded eigenvectors via
    // v_i = u_{shape(i)}/√(w_{shape(i)}), which row-normalization absorbs.
    let mut lap = SymMatrix::zeros(m);
    for a in 0..m {
        for b in a..m {
            let w =
                (weights[a] * weights[b]).sqrt() * affinity.get(a, b) * inv_sqrt[a] * inv_sqrt[b];
            let v = if a == b { 1.0 - w } else { -w };
            lap.set(a, b, v);
        }
    }
    let eig = eigh(&lap)?;

    let k = match cfg.k {
        ClusterCount::Fixed(k) => {
            if k == 0 || k > m {
                return Err(format!("k={k} out of range for m={m}"));
            }
            k
        }
        ClusterCount::Eigengap { max_k } => eig.eigengap_k(max_k.min(m)),
    };

    let mut emb = eig.smallest_vectors(k);
    for a in 0..m {
        let row = emb.row_mut(a);
        dagscope_linalg::vector::normalize_in_place(row);
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

    Ok(SpectralResult {
        assignments: km.assignments,
        k,
        eigenvalues: eig.eigenvalues,
        embedding: emb,
    })
}

/// Broadcast per-shape assignments back to the full job population.
pub fn expand_assignments(shape_of: &[usize], per_shape: &[usize]) -> Vec<usize> {
    shape_of.iter().map(|&s| per_shape[s]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::adjusted_rand_index;
    use crate::kmeans::kmeans;
    use crate::kmeans::tests::{every_cluster_kept, small_points};
    use crate::spectral::spectral_cluster;
    use proptest::prelude::*;

    /// Expand a unique-shape affinity + multiplicities into the full
    /// duplicated-population matrix.
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

    fn two_block_unique() -> SymMatrix {
        // Shapes 0,1 similar; shapes 2,3 similar; weak cross terms.
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

    #[test]
    fn weighted_partition_matches_expanded_spectral() {
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
        let reduced = spectral_cluster_weighted(&unique, &weights, &cfg).unwrap();
        let expanded_reduced = expand_assignments(&shape_of, &reduced.assignments);
        assert_eq!(
            adjusted_rand_index(&full.assignments, &expanded_reduced),
            1.0,
            "weighted path must produce the same partition"
        );
    }

    #[test]
    fn unit_weights_match_plain_spectral_partition() {
        let unique = two_block_unique();
        let cfg = SpectralConfig {
            k: ClusterCount::Fixed(2),
            seed: 7,
            n_init: 10,
        };
        let plain = spectral_cluster(&unique, &cfg).unwrap();
        let weighted = spectral_cluster_weighted(&unique, &[1.0; 4], &cfg).unwrap();
        assert_eq!(
            adjusted_rand_index(&plain.assignments, &weighted.assignments),
            1.0
        );
        // With unit weights the collapsed Laplacian *is* the plain one, so
        // even the eigenvalues agree exactly.
        for (a, b) in plain.eigenvalues.iter().zip(&weighted.eigenvalues) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn weighted_kmeans_matches_replicated_points() {
        let pts = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![9.0, 9.0],
            vec![9.3, 8.8],
        ]);
        let weights = [4.0, 2.0, 1.0, 3.0];
        let cfg = KMeansConfig {
            k: 2,
            seed: 11,
            ..Default::default()
        };
        let w = kmeans_weighted(&pts, &weights, &cfg);
        // Replicate rows by weight and run plain k-means.
        let mut rows = Vec::new();
        let mut owner = Vec::new();
        for (i, &wt) in weights.iter().enumerate() {
            for _ in 0..wt as usize {
                rows.push(pts.row(i).to_vec());
                owner.push(i);
            }
        }
        let plain = kmeans(&Matrix::from_rows(&rows), &cfg);
        let expanded: Vec<usize> = owner.iter().map(|&i| w.assignments[i]).collect();
        assert_eq!(adjusted_rand_index(&plain.assignments, &expanded), 1.0);
        assert!((w.inertia - plain.inertia).abs() < 1e-9);
    }

    #[test]
    fn weighted_kmeans_deterministic_and_validated() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0]]);
        let cfg = KMeansConfig {
            k: 2,
            seed: 5,
            ..Default::default()
        };
        let a = kmeans_weighted(&pts, &[1.0, 2.0, 3.0], &cfg);
        let b = kmeans_weighted(&pts, &[1.0, 2.0, 3.0], &cfg);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.assignments[0], a.assignments[1]);
        assert_ne!(a.assignments[0], a.assignments[2]);
    }

    #[test]
    fn rejects_bad_weighted_inputs() {
        let u = two_block_unique();
        let cfg = SpectralConfig {
            k: ClusterCount::Fixed(2),
            ..Default::default()
        };
        assert!(spectral_cluster_weighted(&SymMatrix::zeros(0), &[], &cfg).is_err());
        assert!(spectral_cluster_weighted(&u, &[1.0; 3], &cfg).is_err());
        assert!(spectral_cluster_weighted(&u, &[1.0, 0.0, 1.0, 1.0], &cfg).is_err());
        let bad_k = SpectralConfig {
            k: ClusterCount::Fixed(9),
            ..Default::default()
        };
        assert!(spectral_cluster_weighted(&u, &[1.0; 4], &bad_k).is_err());
    }

    #[test]
    fn the_repair_keeps_every_cluster_on_fewer_distinct_points() {
        // Three distinct points, four clusters: a repair that took the
        // last member of a cluster the loop had passed left it empty, its
        // mean 0/0.
        let pts = Matrix::from_rows(&[vec![2.0], vec![2.0], vec![1.0], vec![3.0]]);
        let cfg = KMeansConfig {
            k: 4,
            seed: 0,
            n_init: 1,
            max_iters: 50,
        };
        let r = kmeans_weighted(&pts, &[2.0, 2.0, 1.0, 2.0], &cfg);
        assert!(every_cluster_kept(&r, 4));
    }

    proptest! {
        // The repair that could take a cluster's last member ended with
        // an empty cluster on ~0.3% of such inputs; this many cases meet
        // one.
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn fewer_distinct_points_than_clusters_do_not_panic(
            (pts, k) in small_points(),
            weights in prop::collection::vec(1u8..4, 14),
            seed in any::<u64>(),
            n_init in 1usize..3,
        ) {
            let cfg = KMeansConfig { k, seed, n_init, max_iters: 50 };
            let weights: Vec<f64> = weights[..pts.rows()].iter().map(|&w| f64::from(w)).collect();
            let r = kmeans_weighted(&pts, &weights, &cfg);
            prop_assert!(every_cluster_kept(&r, k), "{r:?}");
        }
    }

    #[test]
    fn expand_assignments_broadcasts() {
        assert_eq!(
            expand_assignments(&[0, 1, 0, 2, 1], &[7, 8, 9]),
            vec![7, 8, 7, 9, 8]
        );
        assert!(expand_assignments(&[], &[]).is_empty());
    }
}
