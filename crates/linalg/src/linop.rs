//! Matrix-free linear-operator abstraction.
//!
//! The Lanczos eigensolver only needs `y = A·x`; it never inspects
//! entries. [`LinOp`] captures exactly that, so a caller can hand it a
//! packed [`SymMatrix`] or a composite operator (e.g. the collapsed
//! normalized Laplacian applied as `x − s∘(W(s∘x))`) without ever
//! materializing the composite.

use crate::SymMatrix;

/// A symmetric linear operator on `R^n`, applied matrix-free.
///
/// Implementations must be deterministic: `apply` on equal inputs must
/// produce bitwise-equal outputs (the spectral pipeline's reproducibility
/// guarantees depend on it).
pub trait LinOp {
    /// Dimension `n` of the operator's domain (and codomain).
    fn dim(&self) -> usize;

    /// Compute `y = A·x`. Both slices have length [`dim`](Self::dim);
    /// `y` is overwritten entirely.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinOp for SymMatrix {
    fn dim(&self) -> usize {
        self.n()
    }

    /// One pass over the packed triangle, one thread. Row `i` adds its
    /// entries from the diagonal on into `y[i]` and scatters each
    /// `A[i][j]·x[i]` (`j > i`) into `y[j]`, so by the time row `j` runs,
    /// `y[j]` holds `A[j][0]·x[0] + … + A[j][j−1]·x[j−1]`: every `y[j]`
    /// sums its row in ascending column order from `+0.0`, bit for bit the
    /// row-order product `Σ_j A[i][j]·x[j]`. Skipping the zero entries
    /// would not change a bit either: under round-to-nearest a sum started
    /// at `+0.0` is never `−0.0`, so adding a `±0.0` term leaves it as is.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.n();
        debug_assert_eq!(x.len(), n);
        debug_assert_eq!(y.len(), n);
        y.fill(0.0);
        for i in 0..n {
            let row = self.upper_row(i);
            let xi = x[i];
            let (head, tail) = y.split_at_mut(i + 1);
            let mut acc = head[i] + row[0] * xi;
            for ((yj, &xj), &v) in tail.iter_mut().zip(&x[i + 1..]).zip(&row[1..]) {
                acc += v * xj;
                *yj += v * xi;
            }
            head[i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym_matrix_apply_overwrites_y() {
        let mut s = SymMatrix::zeros(2);
        s.set(0, 1, 3.0);
        let mut y = [9.0, -9.0];
        s.apply(&[1.0, 2.0], &mut y);
        assert_eq!(y, [6.0, 3.0]);
        let empty = SymMatrix::zeros(0);
        empty.apply(&[], &mut []);
    }

    #[test]
    fn sym_matrix_applies_like_dense_matvec() {
        let mut s = SymMatrix::zeros(3);
        s.set(0, 0, 2.0);
        s.set(0, 1, 1.0);
        s.set(1, 2, -3.0);
        s.set(2, 2, 4.0);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        s.apply(&x, &mut y);
        let dense = s.to_dense();
        let oracle = dense.matvec(&x);
        assert_eq!(y.to_vec(), oracle);
        assert_eq!(s.dim(), 3);
    }
}
