//! Packed symmetric matrix (upper triangle, row-major).

use crate::Matrix;

/// A symmetric `n × n` matrix storing only the upper triangle
/// (including the diagonal) in packed row-major order.
///
/// This is the native output shape of the parallel kernel-matrix assembly in
/// `dagscope-par::pairs`, and the native input shape of the eigensolvers.
///
/// ```
/// use dagscope_linalg::SymMatrix;
/// let mut s = SymMatrix::zeros(3);
/// s.set(0, 2, 7.0);
/// assert_eq!(s.get(2, 0), 7.0); // symmetric access
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

#[inline]
fn packed_index(n: usize, i: usize, j: usize) -> usize {
    let (i, j) = if i <= j { (i, j) } else { (j, i) };
    i * n - i * (i + 1) / 2 + j
}

impl SymMatrix {
    /// Zero symmetric matrix of size `n`.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * (n + 1) / 2],
        }
    }

    /// Wrap a packed upper triangle (as produced by
    /// `dagscope_par::pairs::par_upper_triangle`). Panics on length mismatch.
    pub fn from_packed(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * (n + 1) / 2, "packed length mismatch");
        SymMatrix { n, data }
    }

    /// Build from a dense matrix, averaging the two triangles.
    /// Panics if `m` is not square.
    pub fn from_dense(m: &Matrix) -> Self {
        assert_eq!(m.rows(), m.cols(), "not square");
        let n = m.rows();
        let mut s = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                s.set(i, j, 0.5 * (m[(i, j)] + m[(j, i)]));
            }
        }
        s
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)` (order of indices irrelevant).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[packed_index(self.n, i, j)]
    }

    /// Set entry `(i, j)` (and by symmetry `(j, i)`).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[packed_index(self.n, i, j)] = v;
    }

    /// The packed upper-triangular buffer.
    pub fn packed(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` of the packed triangle: entries `(i, i)` … `(i, n − 1)`.
    #[inline]
    pub fn upper_row(&self, i: usize) -> &[f64] {
        let start = packed_index(self.n, i, i);
        &self.data[start..start + self.n - i]
    }

    /// The nonzero entries `(j, A[i][j])` of full row `i`, columns
    /// ascending: column `i` of the packed triangle down to the diagonal,
    /// then packed row `i`. Exact zeros (either sign) are skipped.
    pub fn row_nonzeros(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..i)
            .map(move |j| (j, self.get(j, i)))
            .chain(
                self.upper_row(i)
                    .iter()
                    .enumerate()
                    .map(move |(off, &v)| (i + off, v)),
            )
            .filter(|&(_, v)| v != 0.0)
    }

    /// Expand to a dense [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for j in i..self.n {
                let v = self.get(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// Diagonal entries as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Row sums (degree vector when `self` is an affinity matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.n];
        for i in 0..self.n {
            for j in i..self.n {
                let v = self.get(i, j);
                sums[i] += v;
                if i != j {
                    sums[j] += v;
                }
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_get_set() {
        let mut s = SymMatrix::zeros(4);
        s.set(1, 3, 2.5);
        s.set(3, 1, 9.0); // overwrites the same slot
        assert_eq!(s.get(1, 3), 9.0);
        assert_eq!(s.get(3, 1), 9.0);
    }

    #[test]
    fn dense_round_trip() {
        let mut s = SymMatrix::zeros(3);
        for i in 0..3 {
            for j in i..3 {
                s.set(i, j, (i * 3 + j) as f64);
            }
        }
        let d = s.to_dense();
        assert!(d.is_symmetric(0.0));
        let back = SymMatrix::from_dense(&d);
        assert_eq!(back, s);
    }

    #[test]
    fn from_dense_symmetrizes() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 5.0]]);
        let s = SymMatrix::from_dense(&m);
        assert_eq!(s.get(0, 1), 3.0);
    }

    #[test]
    fn row_sums_match_dense() {
        let mut s = SymMatrix::zeros(3);
        s.set(0, 0, 1.0);
        s.set(0, 1, 2.0);
        s.set(0, 2, 3.0);
        s.set(1, 1, 4.0);
        s.set(1, 2, 5.0);
        s.set(2, 2, 6.0);
        assert_eq!(s.row_sums(), vec![6.0, 11.0, 14.0]);
    }

    #[test]
    fn rows_walk_both_triangles_and_skip_zeros() {
        let mut s = SymMatrix::zeros(3);
        s.set(0, 0, 1.0);
        s.set(0, 2, -0.5);
        s.set(1, 1, -0.0);
        s.set(1, 2, 2.0);
        assert_eq!(s.upper_row(0), &[1.0, 0.0, -0.5]);
        assert_eq!(s.upper_row(2), &[0.0]);
        let row = |i| s.row_nonzeros(i).collect::<Vec<_>>();
        assert_eq!(row(0), vec![(0, 1.0), (2, -0.5)]);
        assert_eq!(row(1), vec![(2, 2.0)]);
        assert_eq!(row(2), vec![(0, -0.5), (1, 2.0)]);
    }

    #[test]
    fn diagonal_extraction() {
        let mut s = SymMatrix::zeros(2);
        s.set(0, 0, 1.5);
        s.set(1, 1, -2.5);
        assert_eq!(s.diagonal(), vec![1.5, -2.5]);
    }

    #[test]
    #[should_panic(expected = "packed length mismatch")]
    fn from_packed_length_checked() {
        let _ = SymMatrix::from_packed(3, vec![0.0; 5]);
    }
}
