//! Property tests pinning the Gram engine to its brute-force oracles: the
//! fingerprint-dedup + inverted-index kernel (packed, at one thread and at
//! the default) and the pruned top-k searcher must be **bit-identical** to
//! the pairwise paths on arbitrary DAG populations. Populations get
//! duplicates injected, since collapsing repeats is the whole point of the
//! dedup layer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dagscope_graph::JobDag;
use dagscope_trace::gen::{build_shape, ShapeKind};
use dagscope_wl::{
    kernel_matrix, normalize_kernel, normalize_kernel_in_place, unique_gram, KernelCache,
    ShapeDedup, WlVectorizer,
};

fn shape_strategy() -> impl Strategy<Value = ShapeKind> {
    prop::sample::select(ShapeKind::ALL.to_vec())
}

fn arbitrary_dag() -> impl Strategy<Value = JobDag> {
    (shape_strategy(), 2usize..=20, any::<u64>()).prop_map(|(shape, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        JobDag::from_plan("j", &build_shape(&mut rng, shape, n))
    })
}

/// Base DAGs plus extra copies picked by index, so the dedup layer always
/// has identical shapes to collapse.
fn dag_population() -> impl Strategy<Value = Vec<JobDag>> {
    (
        prop::collection::vec(arbitrary_dag(), 2..10),
        prop::collection::vec(any::<u64>(), 0..12),
    )
        .prop_map(|(mut dags, dups)| {
            let extra: Vec<JobDag> = dups
                .iter()
                .map(|&d| dags[(d % dags.len() as u64) as usize].clone())
                .collect();
            dags.extend(extra);
            dags
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dedup_gram_matches_brute_force_bitwise(dags in dag_population(), h in 0usize..3) {
        let mut wl = WlVectorizer::new(h);
        let feats = wl.transform_all_sequential(&dags);
        let oracle = kernel_matrix(&feats);
        let dedup = ShapeDedup::from_features(&feats);
        let reps: Vec<_> = dedup.representatives().iter().map(|&r| &feats[r]).collect();
        let (engine, stats) = unique_gram(&reps);
        let shape = dedup.shape_of();
        for i in 0..dags.len() {
            for j in 0..dags.len() {
                prop_assert_eq!(
                    engine.get(shape[i], shape[j]).to_bits(),
                    oracle.get(i, j).to_bits()
                );
            }
        }
        prop_assert!(stats.unique_shapes <= dags.len());
        // The counters count the unique pairs that share a feature: for
        // non-negative φ, exactly the nonzero dots.
        let sharing = engine.packed().iter().filter(|&&v| v != 0.0).count() as u64;
        prop_assert_eq!(stats.dot_products, sharing);
        prop_assert_eq!(stats.candidate_pairs, sharing);
        // One thread fills the same rows with the same bits.
        let (one, one_stats) = {
            let _pin = dagscope_par::ParScope::new(1);
            unique_gram(&reps)
        };
        prop_assert_eq!(one_stats, stats);
        let bits = |m: &dagscope_linalg::SymMatrix| -> Vec<u64> {
            m.packed().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&one), bits(&engine));
        // In-place normalization is the dense normalizer, bit for bit.
        let mut normalized = engine;
        normalize_kernel_in_place(&mut normalized);
        let dense = normalize_kernel(&oracle);
        for i in 0..dags.len() {
            for j in 0..dags.len() {
                prop_assert_eq!(
                    normalized.get(shape[i], shape[j]).to_bits(),
                    dense.get(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn pruned_nearest_matches_full_scan(dags in dag_population(),
                                        h in 0usize..3,
                                        k in 0usize..25) {
        let cache = KernelCache::from_dags(h, &dags);
        for i in 0..cache.len() {
            let fast = cache.nearest(i, k);
            let slow = cache.nearest_scan(i, k);
            prop_assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert_eq!(a.0, b.0, "query {i} k {k}");
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits(), "query {i} k {k}");
            }
        }
    }

    #[test]
    fn indexed_probe_matches_full_scan(dags in dag_population(),
                                       probe in arbitrary_dag(),
                                       h in 0usize..3) {
        let cache = KernelCache::from_dags(h, &dags);
        let fast = cache.probe(&probe);
        let slow = cache.probe_scan(&probe);
        prop_assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
