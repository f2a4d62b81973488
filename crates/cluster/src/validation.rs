//! Internal cluster-validation indices and partition helpers.

use dagscope_linalg::vector::dist;
use dagscope_linalg::{Matrix, SymMatrix};

/// True when `assignments` uses every label `0..k` at least once and no
/// label `>= k`.
pub fn is_partition(assignments: &[usize], k: usize) -> bool {
    if k == 0 {
        return assignments.is_empty();
    }
    let mut seen = vec![false; k];
    for &a in assignments {
        if a >= k {
            return false;
        }
        seen[a] = true;
    }
    seen.into_iter().all(|s| s)
}

/// Cluster populations (`index = cluster`).
pub fn cluster_sizes(assignments: &[usize], k: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    sizes
}

/// Convert a normalized similarity matrix (diag 1, values in `[0, 1]`) to
/// the induced kernel distance `d(i,j) = √(k(i,i) + k(j,j) − 2k(i,j))`.
pub fn kernel_distance_matrix(similarity: &SymMatrix) -> SymMatrix {
    let n = similarity.n();
    let mut d = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let v = (similarity.get(i, i) + similarity.get(j, j) - 2.0 * similarity.get(i, j))
                .max(0.0)
                .sqrt();
            d.set(i, j, if i == j { 0.0 } else { v });
        }
    }
    d
}

/// Mean silhouette coefficient from a precomputed distance matrix.
///
/// For each item: `a` = mean distance to its own cluster (excluding
/// itself), `b` = smallest mean distance to another cluster, silhouette
/// `(b − a) / max(a, b)`. Singleton clusters contribute 0 (the scikit-learn
/// convention). Returns 0 for degenerate inputs (k < 2 or n ≤ k).
pub fn silhouette_from_distances(distances: &SymMatrix, assignments: &[usize], k: usize) -> f64 {
    let n = distances.n();
    assert_eq!(assignments.len(), n, "assignment length mismatch");
    if k < 2 || n <= k {
        return 0.0;
    }
    let sizes = cluster_sizes(assignments, k);
    let mut total = 0.0;
    for i in 0..n {
        let own = assignments[i];
        if sizes[own] <= 1 {
            continue; // silhouette 0
        }
        let mut sums = vec![0.0f64; k];
        for j in 0..n {
            if j != i {
                sums[assignments[j]] += distances.get(i, j);
            }
        }
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
    }
    total / n as f64
}

/// Mean silhouette of a collapsed population, **without** expanding the
/// n×n distance matrix.
///
/// Semantically this is [`silhouette_from_distances`] applied to the
/// expanded population whose job `i` has similarity row
/// `unique[shape_of[i]]`, under the kernel distance
/// `d(a, t) = √(diag_a + diag_t − 2·S(a, t))`. Because the unique
/// matrix is a *normalized* kernel, every diagonal is exactly `0.0` or
/// `1.0`, so the distance from shape `a` to any shape it shares **no**
/// feature with (`S = 0`) is analytically `√(diag_a + diag_t)` — one of
/// two constants per row. Per-cluster totals therefore start from those
/// defaults (weight sums split by diagonal value) and are corrected once
/// per nonzero entry of the row: `O(m·k + m²)` time, `O(m + k)` space.
///
/// `shape_assignments` maps unique shapes (not jobs) to clusters;
/// `weights[a]` is shape `a`'s job multiplicity. Equal to the dense
/// silhouette up to floating-point summation order.
pub fn silhouette_collapsed(
    unique: &SymMatrix,
    weights: &[f64],
    shape_assignments: &[usize],
    k: usize,
) -> f64 {
    let m = unique.n();
    assert_eq!(weights.len(), m, "weight length mismatch");
    assert_eq!(shape_assignments.len(), m, "assignment length mismatch");
    let n: f64 = weights.iter().sum();
    if k < 2 || n <= k as f64 {
        return 0.0;
    }
    let diag = unique.diagonal();
    // Weighted cluster populations, split by diagonal value (0 or 1).
    let mut size = vec![0.0f64; k];
    let mut w1 = vec![0.0f64; k];
    let mut w0 = vec![0.0f64; k];
    for a in 0..m {
        let c = shape_assignments[a];
        size[c] += weights[a];
        if diag[a] > 0.0 {
            w1[c] += weights[a];
        } else {
            w0[c] += weights[a];
        }
    }
    let mut total = 0.0;
    for a in 0..m {
        let own = shape_assignments[a];
        if size[own] <= 1.0 {
            continue; // every job of this shape is a singleton cluster
        }
        let da = diag[a];
        // Distance to a shape sharing no feature: S = 0 exactly.
        let d1 = (da + 1.0).sqrt();
        let d0 = da.sqrt();
        let mut sums: Vec<f64> = (0..k).map(|c| d1 * w1[c] + d0 * w0[c]).collect();
        // Correct the default for every shape actually sharing features.
        for (t, v) in unique.row_nonzeros(a) {
            let dt = diag[t];
            let default = (da + dt).sqrt();
            let actual = (da + dt - 2.0 * v).max(0.0).sqrt();
            sums[shape_assignments[t]] += weights[t] * (actual - default);
        }
        // Same-shape jobs sit at distance 0 from each other, so no self
        // exclusion term is needed (the diagonal correction above lands
        // on 0 exactly: diag ∈ {0, 1} makes √(2·diag − 2·diag) = 0).
        let a_val = sums[own] / (size[own] - 1.0);
        let b_val = (0..k)
            .filter(|&c| c != own && size[c] > 0.0)
            .map(|c| sums[c] / size[c])
            .fold(f64::INFINITY, f64::min);
        if b_val.is_finite() {
            let denom = a_val.max(b_val);
            if denom > 0.0 {
                total += weights[a] * (b_val - a_val) / denom;
            }
        }
    }
    total / n
}

/// Davies–Bouldin index over points in feature space (lower is better;
/// 0 is ideal). Returns 0 for k < 2.
pub fn davies_bouldin(points: &Matrix, assignments: &[usize], k: usize) -> f64 {
    let n = points.rows();
    assert_eq!(assignments.len(), n, "assignment length mismatch");
    if k < 2 {
        return 0.0;
    }
    let d = points.cols();
    // Centroids.
    let mut centroids = vec![vec![0.0f64; d]; k];
    let sizes = cluster_sizes(assignments, k);
    for i in 0..n {
        for (c, x) in centroids[assignments[i]].iter_mut().zip(points.row(i)) {
            *c += x;
        }
    }
    for (c, centroid) in centroids.iter_mut().enumerate() {
        if sizes[c] > 0 {
            for x in centroid.iter_mut() {
                *x /= sizes[c] as f64;
            }
        }
    }
    // Mean intra-cluster scatter.
    let mut scatter = vec![0.0f64; k];
    for i in 0..n {
        scatter[assignments[i]] += dist(points.row(i), &centroids[assignments[i]]);
    }
    for c in 0..k {
        if sizes[c] > 0 {
            scatter[c] /= sizes[c] as f64;
        }
    }
    // DB = mean over clusters of the worst (Si + Sj) / Mij ratio.
    let mut db = 0.0;
    let mut counted = 0usize;
    for i in 0..k {
        if sizes[i] == 0 {
            continue;
        }
        let mut worst = 0.0f64;
        for j in 0..k {
            if i == j || sizes[j] == 0 {
                continue;
            }
            let m = dist(&centroids[i], &centroids[j]);
            if m > 0.0 {
                worst = worst.max((scatter[i] + scatter[j]) / m);
            }
        }
        db += worst;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        db / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_checks() {
        assert!(is_partition(&[0, 1, 0, 2], 3));
        assert!(!is_partition(&[0, 2], 3)); // label 1 unused
        assert!(!is_partition(&[0, 3], 3)); // label out of range
        assert!(is_partition(&[], 0));
        assert!(!is_partition(&[0], 0));
    }

    #[test]
    fn sizes_tally() {
        assert_eq!(cluster_sizes(&[0, 1, 1, 2, 1], 3), vec![1, 3, 1]);
    }

    #[test]
    fn kernel_distance_identity() {
        let mut s = SymMatrix::zeros(2);
        s.set(0, 0, 1.0);
        s.set(1, 1, 1.0);
        s.set(0, 1, 1.0); // identical items
        let d = kernel_distance_matrix(&s);
        assert_eq!(d.get(0, 1), 0.0);
        s.set(0, 1, 0.0); // orthogonal items
        let d = kernel_distance_matrix(&s);
        assert!((d.get(0, 1) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn silhouette_high_for_separated_clusters() {
        // Distances: two tight pairs far apart.
        let mut d = SymMatrix::zeros(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let same = (i < 2) == (j < 2);
                d.set(i, j, if same { 0.1 } else { 10.0 });
            }
        }
        let good = silhouette_from_distances(&d, &[0, 0, 1, 1], 2);
        assert!(good > 0.9, "good={good}");
        let bad = silhouette_from_distances(&d, &[0, 1, 0, 1], 2);
        assert!(bad < 0.0, "bad={bad}");
    }

    #[test]
    fn silhouette_degenerate_cases() {
        let d = SymMatrix::zeros(3);
        assert_eq!(silhouette_from_distances(&d, &[0, 0, 0], 1), 0.0);
        assert_eq!(silhouette_from_distances(&d, &[0, 1, 2], 3), 0.0);
    }

    /// Expand a unique similarity by multiplicity and compute the dense
    /// silhouette the long way — the oracle for `silhouette_collapsed`.
    fn dense_silhouette_oracle(
        unique: &SymMatrix,
        weights: &[f64],
        shape_assignments: &[usize],
        k: usize,
    ) -> f64 {
        let shape_of: Vec<usize> = (0..unique.n())
            .flat_map(|s| std::iter::repeat_n(s, weights[s] as usize))
            .collect();
        let n = shape_of.len();
        let mut sim = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                sim.set(i, j, unique.get(shape_of[i], shape_of[j]));
            }
        }
        let assignments: Vec<usize> = shape_of.iter().map(|&s| shape_assignments[s]).collect();
        let d = kernel_distance_matrix(&sim);
        silhouette_from_distances(&d, &assignments, k)
    }

    #[test]
    fn collapsed_silhouette_matches_dense_expansion() {
        // Two similarity blocks plus a zero-diagonal (empty-φ) shape, all
        // with multiplicities > 1, so defaults, corrections, and both
        // diagonal classes are exercised.
        let mut unique = SymMatrix::zeros(5);
        for s in 0..4 {
            unique.set(s, s, 1.0);
        }
        unique.set(0, 1, 0.8);
        unique.set(2, 3, 0.7);
        // Shape 4 has an all-zero row (normalized diag 0).
        let weights = [2.0, 1.0, 3.0, 2.0, 2.0];
        let assignments = [0, 0, 1, 1, 1];
        let fast = silhouette_collapsed(&unique, &weights, &assignments, 2);
        let slow = dense_silhouette_oracle(&unique, &weights, &assignments, 2);
        assert!((fast - slow).abs() < 1e-12, "fast={fast} slow={slow}");
        assert!(fast > 0.0, "separated blocks must score positive: {fast}");
    }

    #[test]
    fn collapsed_silhouette_degenerate_and_singleton_cases() {
        let mut unique = SymMatrix::zeros(3);
        for s in 0..3 {
            unique.set(s, s, 1.0);
        }
        unique.set(0, 1, 0.9);
        // k < 2 and n <= k are degenerate.
        assert_eq!(silhouette_collapsed(&unique, &[1.0; 3], &[0, 0, 0], 1), 0.0);
        assert_eq!(silhouette_collapsed(&unique, &[1.0; 3], &[0, 1, 2], 3), 0.0);
        // A singleton cluster contributes zero, exactly like the dense
        // convention.
        let weights = [2.0, 2.0, 1.0];
        let assignments = [0, 0, 1];
        let fast = silhouette_collapsed(&unique, &weights, &assignments, 2);
        let slow = dense_silhouette_oracle(&unique, &weights, &assignments, 2);
        assert!((fast - slow).abs() < 1e-12, "fast={fast} slow={slow}");
    }

    #[test]
    fn davies_bouldin_prefers_separation() {
        let tight = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![10.0, 0.0],
            vec![10.1, 0.0],
        ]);
        let db_good = davies_bouldin(&tight, &[0, 0, 1, 1], 2);
        let db_bad = davies_bouldin(&tight, &[0, 1, 0, 1], 2);
        assert!(db_good < db_bad, "good={db_good} bad={db_bad}");
        assert_eq!(davies_bouldin(&tight, &[0, 0, 0, 0], 1), 0.0);
    }
}
