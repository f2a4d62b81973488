//! Gram engine: WL-fingerprint deduplication and the inverted-index
//! kernel matrix.
//!
//! The paper's own census motivates this module: 58% of jobs are straight
//! chains and 90.6% of the dominant group are ≤3-task jobs (§V-B, Fig 9),
//! so the number of *distinct* WL feature vectors is orders of magnitude
//! smaller than the job count. [`ShapeDedup`] collapses the population into
//! (unique shape, multiplicity) pairs; [`unique_gram`] assembles the Gram
//! matrix of the unique shapes from the feature→shape inverted index, so
//! only co-occurring feature pairs ever contribute a multiply-add
//! (Shervashidze et al., JMLR 2011, §5), straight into a packed
//! [`SymMatrix`]; job `i`'s row is its shape's, `shape_of[i]`. The matrix
//! itself is dense: WL's iteration-0 label is the task kind, so any two
//! shapes sharing a kind have a positive dot (the 575 shapes of a
//! 100k-job seed-42 trace touch all 165,600 upper-triangle pairs), and
//! the packed triangle's 8 B per pair is the smallest store for it.
//!
//! # Bit-identity invariant
//!
//! Every number produced here is **bitwise identical** to the brute-force
//! [`kernel_matrix`](crate::kernel_matrix) path:
//!
//! * deduplication groups vectors only when their index lists and value
//!   *bit patterns* are equal, so `K[i][j]` is a deterministic function of
//!   the representative pair;
//! * the row-wise postings scan visits a row's features in increasing
//!   index order and accumulates `acc[b] += v_a[f] · v_b[f]` from `0.0`,
//!   which is the exact floating-point add sequence of the merge-join
//!   [`SparseVec::dot`]; pairs with disjoint support keep the same `0.0`
//!   a merge join would produce;
//! * parallelism is over independent rows (never over feature ranges), so
//!   no partial sums are ever merged across threads.

use std::hash::Hasher;

use dagscope_linalg::SymMatrix;
use dagscope_par::pairs::{packed_len, par_packed_rows};

use crate::fx::{FxHashMap, FxHasher};
use crate::SparseVec;

/// Stable 64-bit fingerprint of a WL feature vector (indices + value bit
/// patterns). Deterministic across runs and platforms; used to key the
/// dedup table and to pin shape identity inside index snapshots.
/// Collisions are harmless for correctness — [`ShapeDedup`] always
/// confirms with a full bitwise comparison.
pub fn fingerprint(vec: &SparseVec) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(vec.nnz());
    for (i, v) in vec.iter() {
        h.write_u32(i);
        h.write_u64(v.to_bits());
    }
    h.finish()
}

fn bits_equal(a: &SparseVec, b: &SparseVec) -> bool {
    a.nnz() == b.nnz()
        && a.iter()
            .zip(b.iter())
            .all(|((ia, va), (ib, vb))| ia == ib && va.to_bits() == vb.to_bits())
}

/// A population of feature vectors collapsed to (unique shape,
/// multiplicity) pairs.
///
/// Shape ids are assigned in first-appearance order, so the mapping is
/// deterministic and identical across runs for the same input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeDedup {
    shape_of: Vec<usize>,
    rep: Vec<usize>,
    multiplicity: Vec<u32>,
    fingerprints: Vec<u64>,
}

impl ShapeDedup {
    /// Group bitwise-identical feature vectors.
    pub fn from_features(features: &[SparseVec]) -> ShapeDedup {
        let mut by_print: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        let mut shape_of = Vec::with_capacity(features.len());
        let mut rep: Vec<usize> = Vec::new();
        let mut multiplicity: Vec<u32> = Vec::new();
        let mut fingerprints: Vec<u64> = Vec::new();
        for (j, f) in features.iter().enumerate() {
            let fp = fingerprint(f);
            let bucket = by_print.entry(fp).or_default();
            let hit = bucket
                .iter()
                .copied()
                .find(|&s| bits_equal(&features[rep[s]], f));
            let s = match hit {
                Some(s) => {
                    multiplicity[s] += 1;
                    s
                }
                None => {
                    let s = rep.len();
                    rep.push(j);
                    multiplicity.push(1);
                    fingerprints.push(fp);
                    bucket.push(s);
                    s
                }
            };
            shape_of.push(s);
        }
        ShapeDedup {
            shape_of,
            rep,
            multiplicity,
            fingerprints,
        }
    }

    /// Number of jobs in the original population.
    pub fn len(&self) -> usize {
        self.shape_of.len()
    }

    /// True when built from an empty population.
    pub fn is_empty(&self) -> bool {
        self.shape_of.is_empty()
    }

    /// Number of distinct shapes.
    pub fn unique_count(&self) -> usize {
        self.rep.len()
    }

    /// Shape id of each job (first-appearance order).
    pub fn shape_of(&self) -> &[usize] {
        &self.shape_of
    }

    /// Representative job index of each shape (its first occurrence).
    pub fn representatives(&self) -> &[usize] {
        &self.rep
    }

    /// How many jobs collapsed into each shape.
    pub fn multiplicities(&self) -> &[u32] {
        &self.multiplicity
    }

    /// [`fingerprint`] of each shape's representative vector.
    pub fn fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    /// Expanded multiplicities as `f64` weights (for the weighted
    /// clustering path).
    pub fn weights(&self) -> Vec<f64> {
        self.multiplicity.iter().map(|&m| m as f64).collect()
    }
}

/// Cost counters of a Gram assembly, recorded for `--timings` and the
/// kernel benchmark. `dot_products` counts pairwise dot evaluations
/// actually performed; `candidate_pairs` counts the (i ≤ j) pairs touched
/// through the inverted index (equal to `dot_products` for the postings
/// scan; `n(n+1)/2` for brute force).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GramStats {
    /// Jobs in the population the Gram describes.
    pub jobs: usize,
    /// Distinct shapes after dedup (equals `jobs` when dedup is off).
    pub unique_shapes: usize,
    /// Pairwise dot products evaluated.
    pub dot_products: u64,
    /// Upper-triangle pairs admitted as candidates by the inverted index.
    pub candidate_pairs: u64,
}

/// Gram matrix of `shapes`, each packed row filled in place by a
/// postings scan over the feature→shape inverted index, rows in
/// parallel. Each entry is **bitwise identical** to
/// `shapes[a].dot(shapes[b])` (see the module invariant); a pair that
/// shares no feature keeps the exact `0.0` a merge join would return.
pub fn unique_gram(shapes: &[&SparseVec]) -> (SymMatrix, GramStats) {
    let m = shapes.len();
    let mut postings: FxHashMap<u32, Vec<(u32, f64)>> = FxHashMap::default();
    for (s, f) in shapes.iter().enumerate() {
        for (idx, v) in f.iter() {
            postings.entry(idx).or_default().push((s as u32, v));
        }
    }
    let mut packed = vec![0.0f64; packed_len(m)];
    let pairs_per_row = par_packed_rows(m, &mut packed, |a, row| {
        // `row[off]` is entry (a, a + off).
        let mut touched = vec![false; row.len()];
        let mut pairs = 0u64;
        for (idx, va) in shapes[a].iter() {
            let Some(list) = postings.get(&idx) else {
                continue;
            };
            let start = list.partition_point(|&(s, _)| (s as usize) < a);
            for &(b, vb) in &list[start..] {
                let off = b as usize - a;
                if !touched[off] {
                    touched[off] = true;
                    pairs += 1;
                }
                row[off] += va * vb;
            }
        }
        pairs
    });
    let dots = pairs_per_row.iter().sum();
    let stats = GramStats {
        jobs: m,
        unique_shapes: m,
        dot_products: dots,
        candidate_pairs: dots,
    };
    (SymMatrix::from_packed(m, packed), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_matrix;

    fn v(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.iter().copied())
    }

    fn population() -> Vec<SparseVec> {
        vec![
            v(&[(0, 2.0), (3, 1.0), (7, 0.5)]),
            v(&[(1, 1.0), (3, 4.0)]),
            v(&[(0, 2.0), (3, 1.0), (7, 0.5)]), // dup of 0
            v(&[(9, 1.0)]),                     // disjoint from everything
            v(&[(1, 1.0), (3, 4.0)]),           // dup of 1
            v(&[(0, 2.0), (3, 1.0), (7, 0.5)]), // dup of 0
            SparseVec::default(),               // empty
        ]
    }

    #[test]
    fn dedup_groups_identical_vectors() {
        let feats = population();
        let d = ShapeDedup::from_features(&feats);
        assert_eq!(d.len(), 7);
        assert_eq!(d.unique_count(), 4);
        assert_eq!(d.shape_of(), &[0, 1, 0, 2, 1, 0, 3]);
        assert_eq!(d.representatives(), &[0, 1, 3, 6]);
        assert_eq!(d.multiplicities(), &[3, 2, 1, 1]);
        assert_eq!(d.fingerprints().len(), 4);
        // Fingerprints are a pure function of the vector bits.
        assert_eq!(d.fingerprints()[0], fingerprint(&feats[2]));
    }

    #[test]
    fn dedup_distinguishes_value_bits() {
        let feats = vec![v(&[(0, 1.0)]), v(&[(0, 1.0 + f64::EPSILON)])];
        let d = ShapeDedup::from_features(&feats);
        assert_eq!(d.unique_count(), 2);
    }

    #[test]
    fn unique_gram_matches_pairwise_dots_bitwise() {
        let feats = population();
        let refs: Vec<&SparseVec> = feats.iter().collect();
        let (gram, stats) = unique_gram(&refs);
        for i in 0..feats.len() {
            for j in 0..feats.len() {
                assert_eq!(
                    gram.get(i, j).to_bits(),
                    feats[i].dot(&feats[j]).to_bits(),
                    "entry ({i},{j})"
                );
            }
        }
        // Only co-occurring pairs were visited: shape 2 (index 9 only) and
        // the empty vector never pair with anything but themselves.
        assert!(stats.dot_products < (feats.len() * (feats.len() + 1) / 2) as u64);
        assert_eq!(stats.dot_products, stats.candidate_pairs);
    }

    #[test]
    fn dedup_kernel_is_bitwise_equal_to_brute_force() {
        let feats = population();
        let oracle = kernel_matrix(&feats);
        let dedup = ShapeDedup::from_features(&feats);
        let reps: Vec<&SparseVec> = dedup.representatives().iter().map(|&r| &feats[r]).collect();
        let (gram, stats) = unique_gram(&reps);
        let shape = dedup.shape_of();
        for i in 0..feats.len() {
            for j in 0..feats.len() {
                assert_eq!(
                    gram.get(shape[i], shape[j]).to_bits(),
                    oracle.get(i, j).to_bits(),
                    "entry ({i},{j})"
                );
            }
        }
        assert_eq!(stats.unique_shapes, 4);
        // 4 unique shapes → at most 10 pair dots instead of 28.
        assert!(stats.dot_products <= 10);
    }

    #[test]
    fn sparse_gram_is_bitwise_equal_to_dense_engine() {
        // The packed assembler over a population with duplicates, a
        // disjoint support (index 9 only) and an empty vector: every entry
        // equals `kernel_matrix`'s bit for bit, the stored triangle is the
        // dense one, and the counters count exactly the pairs that share a
        // feature, which for non-negative φ are the nonzero dots.
        let feats = population();
        let refs: Vec<&SparseVec> = feats.iter().collect();
        let dense = kernel_matrix(&feats);
        let (packed, stats) = unique_gram(&refs);
        assert_eq!(packed.n(), dense.n());
        assert_eq!(stats.jobs, feats.len());
        assert_eq!(stats.unique_shapes, feats.len());
        for i in 0..feats.len() {
            for j in 0..feats.len() {
                assert_eq!(
                    packed.get(i, j).to_bits(),
                    dense.get(i, j).to_bits(),
                    "entry ({i},{j})"
                );
            }
        }
        assert_eq!(
            packed
                .packed()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            dense
                .packed()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        let sharing = dense.packed().iter().filter(|&&v| v != 0.0).count() as u64;
        assert_eq!(stats.dot_products, sharing);
        assert_eq!(stats.candidate_pairs, sharing);
        // Sparsity of the work: only co-occurring pairs are visited.
        assert!(stats.dot_products < (feats.len() * (feats.len() + 1) / 2) as u64);
        // The empty vector (row 6) shares nothing, not even with itself.
        assert!(packed.row_nonzeros(6).next().is_none());
    }

    #[test]
    fn sparse_normalization_matches_dense_bitwise() {
        let feats = population();
        let refs: Vec<&SparseVec> = feats.iter().collect();
        let (mut sn, _) = unique_gram(&refs);
        let dn = crate::normalize_kernel(&kernel_matrix(&feats));
        crate::normalize_kernel_in_place(&mut sn);
        for i in 0..feats.len() {
            for j in 0..feats.len() {
                assert_eq!(
                    sn.get(i, j).to_bits(),
                    dn.get(i, j).to_bits(),
                    "normalized entry ({i},{j})"
                );
            }
        }
        // Normalized diagonals are exactly 1.0 (non-empty) or 0.0 (empty).
        for (i, d) in sn.diagonal().iter().enumerate() {
            assert!(*d == 1.0 || *d == 0.0, "diag {i} = {d}");
        }
    }

    #[test]
    fn empty_population() {
        let (gram, stats) = unique_gram(&[]);
        assert_eq!(gram.n(), 0);
        assert_eq!(stats.unique_shapes, 0);
        let d = ShapeDedup::from_features(&[]);
        assert!(d.is_empty());
        assert_eq!(d.weights().len(), 0);
    }
}
