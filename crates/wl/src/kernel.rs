//! Kernel-matrix assembly and normalization.

use dagscope_graph::JobDag;
use dagscope_linalg::SymMatrix;
use dagscope_par::pairs::par_upper_triangle;

use crate::{SparseVec, WlVectorizer};

/// Assemble the Gram matrix `K[i][j] = ⟨φ_i, φ_j⟩` from precomputed WL
/// features, computing only the upper triangle and in parallel.
pub fn kernel_matrix(features: &[SparseVec]) -> SymMatrix {
    let n = features.len();
    let packed = par_upper_triangle(n, |i, j| features[i].dot(&features[j]));
    SymMatrix::from_packed(n, packed)
}

/// Cosine-normalize a kernel matrix: `K̂[i][j] = K[i][j] / √(K[i][i]·K[j][j])`.
///
/// Diagonal entries become exactly 1; off-diagonals land in `[0, 1]` for
/// non-negative feature maps (identical topologies score 1, per Fig 7's
/// color scale). Rows/columns with zero self-similarity normalize to 0.
pub fn normalize_kernel(k: &SymMatrix) -> SymMatrix {
    let mut out = k.clone();
    normalize_kernel_in_place(&mut out);
    out
}

/// [`normalize_kernel`] in place, entry for entry the same arithmetic:
/// the pipeline rescales its unique-shape Gram this way, so normalized
/// diagonals are exactly `1.0` (non-empty φ) or `0.0` (empty φ), which
/// the collapsed silhouette's analytic defaults rely on.
pub fn normalize_kernel_in_place(k: &mut SymMatrix) {
    let n = k.n();
    let diag = k.diagonal();
    for i in 0..n {
        for j in i..n {
            let d = (diag[i] * diag[j]).sqrt();
            let v = if d > 0.0 { k.get(i, j) / d } else { 0.0 };
            k.set(i, j, if i == j && diag[i] > 0.0 { 1.0 } else { v });
        }
    }
}

/// Convenience single-pair WL subtree kernel with `h` iterations, cosine
/// normalized to `[0, 1]`.
///
/// ```
/// use dagscope_trace::{Job, TaskRecord, Status};
/// use dagscope_graph::JobDag;
/// # fn t(name: &str) -> TaskRecord {
/// #     TaskRecord { task_name: name.into(), instance_num: 1, job_name: "j".into(),
/// #         task_type: "1".into(), status: Status::Terminated, start_time: 1,
/// #         end_time: 2, plan_cpu: 100.0, plan_mem: 0.5 }
/// # }
/// let a = JobDag::from_job(&Job { name: "a".into(), tasks: vec![t("M1"), t("R2_1")] }).unwrap();
/// let b = JobDag::from_job(&Job { name: "b".into(), tasks: vec![t("M1"), t("R2_1")] }).unwrap();
/// assert!((dagscope_wl::wl_kernel(&a, &b, 3) - 1.0).abs() < 1e-12);
/// ```
pub fn wl_kernel(a: &JobDag, b: &JobDag, h: usize) -> f64 {
    let mut wl = WlVectorizer::new(h);
    let fa = wl.transform(a);
    let fb = wl.transform(b);
    fa.cosine(&fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_linalg::eigh;
    use dagscope_trace::{Job, Status, TaskRecord};

    fn t(name: &str) -> TaskRecord {
        TaskRecord {
            task_name: name.into(),
            instance_num: 1,
            job_name: "j".into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: 1,
            end_time: 2,
            plan_cpu: 1.0,
            plan_mem: 0.1,
        }
    }

    fn dag(name: &str, names: &[&str]) -> JobDag {
        JobDag::from_job(&Job {
            name: name.into(),
            tasks: names.iter().map(|n| t(n)).collect(),
        })
        .unwrap()
    }

    fn sample_dags() -> Vec<JobDag> {
        vec![
            dag("chain2", &["M1", "R2_1"]),
            dag("chain3", &["M1", "R2_1", "R3_2"]),
            dag("tri3", &["M1", "M2", "R3_2_1"]),
            dag("tri5", &["M1", "M2", "M3", "M4", "R5_4_3_2_1"]),
            dag("paper", &["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]),
            dag("join", &["M1", "M2", "J3_2_1", "R4_3"]),
        ]
    }

    #[test]
    fn gram_matrix_symmetric_psd() {
        let dags = sample_dags();
        let mut wl = WlVectorizer::new(3);
        let feats = wl.transform_all(&dags);
        let k = kernel_matrix(&feats);
        // Symmetric by construction; PSD because it is a Gram matrix —
        // verify numerically via the eigensolver.
        let eig = eigh(&k).unwrap();
        for ev in &eig.eigenvalues {
            assert!(*ev >= -1e-9, "negative eigenvalue {ev}");
        }
    }

    #[test]
    fn normalized_kernel_properties() {
        let dags = sample_dags();
        let mut wl = WlVectorizer::new(3);
        let feats = wl.transform_all(&dags);
        let kn = normalize_kernel(&kernel_matrix(&feats));
        for i in 0..dags.len() {
            assert!((kn.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..dags.len() {
                let v = kn.get(i, j);
                assert!((0.0..=1.0 + 1e-12).contains(&v), "k[{i}][{j}]={v}");
            }
        }
    }

    #[test]
    fn identical_topologies_score_one() {
        let a = dag("a", &["M1", "M2", "R3_2_1"]);
        let b = dag("b", &["M4", "M6", "R8_6_4"]);
        assert!((wl_kernel(&a, &b, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similar_beats_dissimilar() {
        // A 4-chain is closer to a 3-chain than to a wide fan-in.
        let c3 = dag("c3", &["M1", "R2_1", "R3_2"]);
        let c4 = dag("c4", &["M1", "R2_1", "R3_2", "R4_3"]);
        let fan = dag("fan", &["M1", "M2", "M3", "M4", "M5", "R6_5_4_3_2_1"]);
        let close = wl_kernel(&c4, &c3, 3);
        let far = wl_kernel(&c4, &fan, 3);
        assert!(close > far, "close={close} far={far}");
    }

    #[test]
    fn smaller_simpler_graphs_score_higher_pairwise() {
        // Paper: "smaller graphs with short tails and low-level parallelism
        // usually have higher similarity scores".
        let small_a = dag("sa", &["M1", "R2_1"]);
        let small_b = dag("sb", &["M1", "R2_1", "R3_2"]);
        let big_a = dag("ba", &["M1", "M2", "M3", "J4_2_1", "R5_4_3"]);
        let big_b = dag("bb", &["M1", "R2_1", "R3_1", "R4_3_2", "R5_4"]);
        assert!(wl_kernel(&small_a, &small_b, 3) > wl_kernel(&big_a, &big_b, 3));
    }

    #[test]
    fn empty_feature_normalization() {
        let k = SymMatrix::zeros(2);
        let kn = normalize_kernel(&k);
        assert_eq!(kn.get(0, 0), 0.0);
        assert_eq!(kn.get(0, 1), 0.0);
    }

    #[test]
    fn kernel_matrix_matches_pairwise() {
        let dags = sample_dags();
        let mut wl = WlVectorizer::new(2);
        let feats = wl.transform_all(&dags);
        let k = kernel_matrix(&feats);
        for i in 0..dags.len() {
            for j in 0..dags.len() {
                assert!((k.get(i, j) - feats[i].dot(&feats[j])).abs() < 1e-12);
            }
        }
    }
}
