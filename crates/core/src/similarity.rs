//! The pipeline's similarity matrix, in collapsed form.
//!
//! The report carries the **unique-shape** similarity as a packed
//! triangle plus the job→shape map — `m(m+1)/2` entries for `m` shapes,
//! never the n×n job expansion — and consumers read entries through
//! [`Similarity::get`], which resolves job indices to shapes on the fly.

use dagscope_linalg::SymMatrix;

/// Normalized pairwise job similarity (Fig 7): entry `(i, j)` is
/// `unique[shape_of[i]][shape_of[j]]`; shapes sharing no WL feature
/// score an exact zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Similarity {
    /// Normalized unique-shape similarity (diag ∈ {0, 1} exactly).
    pub unique: SymMatrix,
    /// Shape id of every sampled job, in sample order.
    pub shape_of: Vec<usize>,
}

impl Similarity {
    /// Number of jobs (matrix order of the expanded view).
    pub fn n(&self) -> usize {
        self.shape_of.len()
    }

    /// Similarity of jobs `i` and `j` in the expanded view.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.unique.get(self.shape_of[i], self.shape_of[j])
    }

    /// The n×n expansion.
    ///
    /// Only call this on sample-scale populations (baselines, figure
    /// exports): at full-trace scale the expansion is the allocation the
    /// collapsed engine avoids.
    pub fn to_sym(&self) -> SymMatrix {
        let n = self.n();
        let mut out = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                out.set(i, j, self.get(i, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collapsed_example() -> Similarity {
        // Shapes: 0 and 1 similar (0.5), 2 isolated with zero diagonal.
        let mut unique = SymMatrix::zeros(3);
        unique.set(0, 0, 1.0);
        unique.set(1, 1, 1.0);
        unique.set(0, 1, 0.5);
        Similarity {
            unique,
            shape_of: vec![0, 1, 0, 2],
        }
    }

    #[test]
    fn collapsed_get_resolves_shapes() {
        let s = collapsed_example();
        assert_eq!(s.n(), 4);
        assert_eq!(s.get(0, 1), 0.5);
        assert_eq!(s.get(0, 2), 1.0, "same shape is fully similar");
        assert_eq!(s.get(1, 2), 0.5);
        assert_eq!(s.get(0, 3), 0.0, "unrelated shapes are exact zeros");
        assert_eq!(s.get(3, 3), 0.0, "zero-diagonal shape");
    }

    #[test]
    fn to_sym_expands_exactly() {
        let s = collapsed_example();
        let dense = s.to_sym();
        assert_eq!(dense.n(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(dense.get(i, j), s.get(i, j));
            }
        }
    }
}
