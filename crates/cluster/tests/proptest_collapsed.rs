//! Property tests pinning the collapsed spectral engine to the expanded
//! dense `spectral_cluster` oracle by ARI == 1.0 on generated multi-shape
//! populations — the same contract `weighted.rs` carries, now for the
//! packed-affinity + Lanczos path. Fully separated blocks make the
//! recovery provable (both engines must find the blocks), so the
//! comparison cannot flake; zero cross-affinities also force eigenvalue
//! multiplicities, exercising the Lanczos breakdown-restart logic.

use proptest::prelude::*;

use dagscope_cluster::{
    adjusted_rand_index, expand_assignments, spectral_cluster, spectral_cluster_collapsed,
    ClusterCount, SpectralConfig,
};
use dagscope_linalg::SymMatrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn collapsed_sparse_matches_expanded_spectral(
        sizes in prop::collection::vec(2usize..4, 2..4),
        mults in prop::collection::vec(1usize..4, 12),
        seed in any::<u64>(),
    ) {
        // Unique shapes fall into well-separated blocks (within-affinity
        // 1, across-affinity 0); each shape carries a multiplicity.
        let m: usize = sizes.iter().sum();
        let block_of: Vec<usize> = sizes
            .iter()
            .enumerate()
            .flat_map(|(b, &s)| std::iter::repeat_n(b, s))
            .collect();
        let mut unique = SymMatrix::zeros(m);
        for i in 0..m {
            for j in i..m {
                unique.set(i, j, if block_of[i] == block_of[j] { 1.0 } else { 0.0 });
            }
        }
        let weights: Vec<f64> = (0..m).map(|s| mults[s % mults.len()] as f64).collect();
        let k = sizes.len();
        let cfg = SpectralConfig { k: ClusterCount::Fixed(k), seed, n_init: 10 };

        // The row walks the silhouette and medoids use visit exactly the
        // within-block entries: cross-block zeros are skipped.
        let within: usize = sizes.iter().map(|&s| s * s).sum();
        let visited: usize = (0..m).map(|a| unique.row_nonzeros(a).count()).sum();
        prop_assert_eq!(visited, within);
        let (collapsed, counters) = spectral_cluster_collapsed(&unique, &weights, &cfg).unwrap();
        prop_assert!(counters.applications >= k && counters.applications <= m);

        // Expand shapes into jobs (multiplicity copies each).
        let shape_of: Vec<usize> = (0..m)
            .flat_map(|s| std::iter::repeat_n(s, weights[s] as usize))
            .collect();
        let n = shape_of.len();
        prop_assume!(n >= k);
        let mut expanded = SymMatrix::zeros(n);
        for a in 0..n {
            for b in a..n {
                expanded.set(a, b, unique.get(shape_of[a], shape_of[b]));
            }
        }
        let plain = spectral_cluster(&expanded, &cfg).unwrap();

        let via_collapsed = expand_assignments(&shape_of, &collapsed.assignments);
        let truth: Vec<usize> = shape_of.iter().map(|&s| block_of[s]).collect();
        prop_assert_eq!(adjusted_rand_index(&via_collapsed, &truth), 1.0);
        prop_assert_eq!(adjusted_rand_index(&plain.assignments, &via_collapsed), 1.0);
    }

    #[test]
    fn collapsed_sparse_matches_on_noisy_blocks(
        sizes in prop::collection::vec(2usize..4, 2..3),
        cross in 0.0f64..0.05,
        seed in any::<u64>(),
    ) {
        // Weak cross-block affinity: still cleanly separated, but the
        // affinity is fully dense (no zeros, like the pipeline's WL
        // affinity) and every eigenvalue is simple — the no-breakdown code
        // path.
        let m: usize = sizes.iter().sum();
        let block_of: Vec<usize> = sizes
            .iter()
            .enumerate()
            .flat_map(|(b, &s)| std::iter::repeat_n(b, s))
            .collect();
        let mut unique = SymMatrix::zeros(m);
        for i in 0..m {
            for j in i..m {
                let v = if block_of[i] == block_of[j] {
                    if i == j { 1.0 } else { 0.9 }
                } else {
                    cross + 1e-4 * ((i + j) as f64)
                };
                unique.set(i, j, v);
            }
        }
        let weights: Vec<f64> = (0..m).map(|s| 1.0 + (s % 3) as f64).collect();
        let k = sizes.len();
        let cfg = SpectralConfig { k: ClusterCount::Fixed(k), seed, n_init: 10 };
        let (collapsed, _) = spectral_cluster_collapsed(&unique, &weights, &cfg).unwrap();
        let shape_of: Vec<usize> = (0..m)
            .flat_map(|s| std::iter::repeat_n(s, weights[s] as usize))
            .collect();
        let truth: Vec<usize> = shape_of.iter().map(|&s| block_of[s]).collect();
        let via_collapsed = expand_assignments(&shape_of, &collapsed.assignments);
        prop_assert_eq!(adjusted_rand_index(&via_collapsed, &truth), 1.0);
    }
}
