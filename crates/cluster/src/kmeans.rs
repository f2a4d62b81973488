//! Lloyd's k-means with k-means++ seeding and restarts.

use dagscope_linalg::vector::dist_sq;
use dagscope_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// k-means configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iteration cap per restart.
    pub max_iters: usize,
    /// Number of k-means++ restarts; the lowest-inertia run wins.
    pub n_init: usize,
    /// RNG seed (runs are deterministic).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 5,
            max_iters: 100,
            n_init: 10,
            seed: 42,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index per input row.
    pub assignments: Vec<usize>,
    /// `k × d` centroid matrix.
    pub centroids: Matrix,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations used by the winning restart.
    pub iterations: usize,
}

/// k-means++ seeding: first centroid uniform, each next centroid sampled
/// proportional to squared distance from the nearest chosen one.
fn seed_centroids(points: &Matrix, k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = points.rows();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points.row(rng.random_range(0..n)).to_vec());
    let mut d2: Vec<f64> = (0..n)
        .map(|i| dist_sq(points.row(i), &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with chosen centroids; any index works.
            rng.random_range(0..n)
        } else {
            let mut x = rng.random::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if x < d {
                    pick = i;
                    break;
                }
                x -= d;
            }
            pick
        };
        centroids.push(points.row(chosen).to_vec());
        for (i, d) in d2.iter_mut().enumerate() {
            *d = d.min(dist_sq(points.row(i), centroids.last().unwrap()));
        }
    }
    centroids
}

/// Lloyd's assignment step: each row's nearest centroid.
pub(crate) fn assign(points: &Matrix, centroids: &[Vec<f64>]) -> Vec<usize> {
    (0..points.rows())
        .map(|i| nearest(centroids, points.row(i)).0)
        .collect()
}

fn nearest(centroids: &[Vec<f64>], p: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, centroid) in centroids.iter().enumerate() {
        let d = dist_sq(p, centroid);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// The point an empty-cluster repair adopts: the last one at the largest
/// distance from its centroid, as `Iterator::max_by` over `partial_cmp`
/// picks it (`−0.0` ties `0.0`). A repair only offers points of clusters
/// that keep a member, so with at least k points every cluster ends each
/// step with a member and a finite mean, and finite points never give a
/// NaN distance; a NaN would rank below every number.
pub(crate) fn farthest(distances: impl Iterator<Item = (usize, f64)>) -> usize {
    distances
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or_else(|| b.1.is_nan().cmp(&a.1.is_nan()))
        })
        .map(|(i, _)| i)
        .expect("k-means runs on at least k >= 1 points")
}

fn lloyd(points: &Matrix, mut centroids: Vec<Vec<f64>>, max_iters: usize) -> KMeansResult {
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

        // Update step.
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[assignments[i]] += 1;
            for (s, x) in sums[assignments[i]].iter_mut().zip(points.row(i)) {
                *s += x;
            }
        }
        // Empty-cluster repair: adopt the point farthest from its centroid
        // among clusters that keep a member. With n >= k points and a
        // cluster empty, some other cluster has two.
        for c in 0..k {
            if counts[c] == 0 {
                let far = farthest(
                    (0..n)
                        .filter(|&i| counts[assignments[i]] > 1)
                        .map(|i| (i, dist_sq(points.row(i), &centroids[assignments[i]]))),
                );
                let old = assignments[far];
                counts[old] -= 1;
                for (s, x) in sums[old].iter_mut().zip(points.row(far)) {
                    *s -= x;
                }
                assignments[far] = c;
                counts[c] = 1;
                sums[c] = points.row(far).to_vec();
            }
        }
        for c in 0..k {
            for (j, s) in sums[c].iter().enumerate() {
                centroids[c][j] = s / counts[c] as f64;
            }
        }
        if !changed && iter > 0 {
            break;
        }
    }

    let inertia: f64 = (0..n)
        .map(|i| dist_sq(points.row(i), &centroids[assignments[i]]))
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

/// Cluster the rows of `points` into `cfg.k` groups.
///
/// Runs `cfg.n_init` k-means++ restarts and returns the lowest-inertia
/// solution. Deterministic in `cfg.seed`. Panics if `points` has fewer rows
/// than clusters or `k == 0`.
///
/// ```
/// use dagscope_linalg::Matrix;
/// use dagscope_cluster::{kmeans, KMeansConfig};
/// let pts = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![10.0, 10.0], vec![10.1, 10.0],
/// ]);
/// let r = kmeans(&pts, &KMeansConfig { k: 2, ..Default::default() });
/// assert_eq!(r.assignments[0], r.assignments[1]);
/// assert_eq!(r.assignments[2], r.assignments[3]);
/// assert_ne!(r.assignments[0], r.assignments[2]);
/// ```
pub fn kmeans(points: &Matrix, cfg: &KMeansConfig) -> KMeansResult {
    assert!(cfg.k >= 1, "k must be positive");
    assert!(
        points.rows() >= cfg.k,
        "need at least k={} points, got {}",
        cfg.k,
        points.rows()
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut best: Option<KMeansResult> = None;
    for _ in 0..cfg.n_init.max(1) {
        let centroids = seed_centroids(points, cfg.k, &mut rng);
        let run = lloyd(points, centroids, cfg.max_iters);
        if best.as_ref().is_none_or(|b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    best.unwrap()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs(per: usize, centers: &[(f64, f64)], spread: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                rows.push(vec![
                    cx + spread * (rng.random::<f64>() - 0.5),
                    cy + spread * (rng.random::<f64>() - 0.5),
                ]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn separates_well_separated_blobs() {
        let pts = blobs(20, &[(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)], 1.0, 1);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                seed: 9,
                ..Default::default()
            },
        );
        // All points in a blob share a cluster, and blobs are distinct.
        for b in 0..3 {
            let first = r.assignments[b * 20];
            for i in 0..20 {
                assert_eq!(r.assignments[b * 20 + i], first);
            }
        }
        let mut distinct: Vec<usize> = r.assignments.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn deterministic_for_seed() {
        let pts = blobs(10, &[(0.0, 0.0), (5.0, 5.0)], 2.0, 3);
        let cfg = KMeansConfig {
            k: 2,
            seed: 7,
            ..Default::default()
        };
        assert_eq!(
            kmeans(&pts, &cfg).assignments,
            kmeans(&pts, &cfg).assignments
        );
    }

    #[test]
    fn inertia_zero_for_duplicate_points() {
        let pts = Matrix::from_rows(&vec![vec![1.0, 1.0]; 6]);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert!(r.inertia.abs() < 1e-12);
        assert_eq!(r.assignments.len(), 6);
    }

    #[test]
    fn k_equals_n() {
        let pts = blobs(1, &[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)], 0.0, 1);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        );
        let mut a = r.assignments.clone();
        a.sort_unstable();
        assert_eq!(a, vec![0, 1, 2]);
        assert!(r.inertia.abs() < 1e-12);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let pts = Matrix::from_rows(&[vec![0.0], vec![2.0], vec![4.0]]);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            },
        );
        assert!((r.centroids[(0, 0)] - 2.0).abs() < 1e-12);
        assert_eq!(r.assignments, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "need at least k")]
    fn too_few_points_panics() {
        let pts = Matrix::from_rows(&[vec![0.0]]);
        let _ = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        );
    }

    #[test]
    fn restarts_never_worsen() {
        let pts = blobs(15, &[(0.0, 0.0), (8.0, 0.0), (4.0, 7.0)], 3.0, 11);
        let one = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                n_init: 1,
                seed: 5,
                ..Default::default()
            },
        );
        let ten = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                n_init: 10,
                seed: 5,
                ..Default::default()
            },
        );
        assert!(ten.inertia <= one.inertia + 1e-9);
    }

    /// Small point sets with many duplicates: `n` points of one or two
    /// integer coordinates in `0..5`, with `k <= n` clusters.
    pub(crate) fn small_points() -> impl Strategy<Value = (Matrix, usize)> {
        (
            1usize..3,
            prop::collection::vec((0u8..5, 0u8..5), 1..15),
            1usize..5,
        )
            .prop_map(|(dim, coords, k)| {
                let rows: Vec<Vec<f64>> = coords
                    .iter()
                    .map(|&(x, y)| [f64::from(x), f64::from(y)][..dim].to_vec())
                    .collect();
                let k = k.min(rows.len());
                (Matrix::from_rows(&rows), k)
            })
    }

    /// Every one of the `k` labels is used and every centroid is finite.
    pub(crate) fn every_cluster_kept(r: &KMeansResult, k: usize) -> bool {
        (0..k).all(|c| r.assignments.contains(&c))
            && r.centroids.as_slice().iter().all(|x| x.is_finite())
            && r.inertia.is_finite()
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
        assert!(every_cluster_kept(&kmeans(&pts, &cfg), 4));
    }

    proptest! {
        // The repair that could take a cluster's last member ended with
        // an empty cluster on ~0.3% of such inputs; this many cases meet
        // one.
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn fewer_distinct_points_than_clusters_do_not_panic(
            (pts, k) in small_points(),
            seed in any::<u64>(),
            n_init in 1usize..3,
        ) {
            let cfg = KMeansConfig { k, seed, n_init, max_iters: 50 };
            let r = kmeans(&pts, &cfg);
            prop_assert!(every_cluster_kept(&r, k), "{r:?}");
        }
    }

    #[test]
    fn farthest_keeps_max_by_ties_and_ranks_nan_lowest() {
        // The last of equal maxima wins, −0.0 ties 0.0, NaN never wins.
        assert_eq!(farthest([(0, 1.0), (1, 3.0), (2, 3.0)].into_iter()), 2);
        assert_eq!(farthest([(0, 0.0), (1, -0.0)].into_iter()), 1);
        assert_eq!(
            farthest([(0, f64::NAN), (1, 0.5), (2, f64::NAN)].into_iter()),
            1
        );
        assert_eq!(farthest([(0, 2.0), (1, f64::NAN)].into_iter()), 0);
    }
}
