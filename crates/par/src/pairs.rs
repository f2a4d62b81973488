//! Parallel computation of symmetric pairwise tables.
//!
//! The Weisfeiler-Lehman kernel matrix `K[i][j] = k(G_i, G_j)` is symmetric,
//! so only the upper triangle (including the diagonal) needs computing. This
//! module parallelizes that shape: rows are self-scheduled to worker threads
//! (row `i` costs `n - i` evaluations, so dynamic scheduling matters) and the
//! result is returned as a packed upper-triangular vector.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::config::parallelism;

/// Index of `(i, j)` with `i <= j` in a packed upper-triangular layout for
/// an `n × n` symmetric table.
///
/// Row `i` starts after `i` full rows minus the `i*(i-1)/2` skipped lower
/// entries, i.e. at `i*n - i*(i+1)/2 + i`.
#[inline]
pub fn packed_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < n);
    i * n - i * (i + 1) / 2 + j
}

/// Number of entries in the packed upper triangle of an `n × n` table.
#[inline]
pub fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Fill the packed upper triangle of an `n × n` symmetric table in parallel.
///
/// `f(i, j)` is invoked exactly once for every `0 <= i <= j < n`; the result
/// lands at [`packed_index`]`(n, i, j)`.
///
/// ```
/// // 3×3 multiplication table, upper triangle packed row-major.
/// let t = dagscope_par::pairs::par_upper_triangle(3, |i, j| (i + 1) * (j + 1));
/// assert_eq!(t, vec![1, 2, 3, 4, 6, 9]);
/// ```
pub fn par_upper_triangle<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send + Default,
    F: Fn(usize, usize) -> U + Sync,
{
    if parallelism() == 1 || n < 2 {
        let mut out = Vec::with_capacity(packed_len(n));
        for i in 0..n {
            for j in i..n {
                out.push(f(i, j));
            }
        }
        return out;
    }
    let mut out: Vec<U> = (0..packed_len(n)).map(|_| U::default()).collect();
    par_packed_rows(n, &mut out, |i, row| {
        for (off, slot) in row.iter_mut().enumerate() {
            *slot = f(i, i + off);
        }
    });
    out
}

/// Run `f(i, row)` once for every row `i` of the packed upper triangle
/// `packed` of an `n × n` table, in parallel; `row` is the slice holding
/// `(i, i)` … `(i, n − 1)`. Returns the rows' results in row order.
///
/// The buffer is split into per-row slices and worker threads
/// self-schedule rows (row `i` holds `n - i` entries, so dynamic
/// scheduling matters) and write each row in place: no per-row `Vec`, no
/// copy. Each row's mutex is locked by exactly one worker, so the locks
/// are always uncontended. Panics if `packed` is not `n(n+1)/2` long.
///
/// ```
/// let mut t = vec![0usize; 6];
/// let lens = dagscope_par::pairs::par_packed_rows(3, &mut t, |i, row| {
///     row.fill(i + 1);
///     row.len()
/// });
/// assert_eq!((t, lens), (vec![1, 1, 1, 2, 2, 3], vec![3, 2, 1]));
/// ```
pub fn par_packed_rows<T, R, F>(n: usize, packed: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert_eq!(packed.len(), packed_len(n), "packed length mismatch");
    let mut rows: Vec<&mut [T]> = Vec::with_capacity(n);
    let mut rest = packed;
    for i in 0..n {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(n - i);
        rows.push(row);
        rest = tail;
    }
    let threads = parallelism();
    if threads == 1 || n < 2 {
        return rows
            .into_iter()
            .enumerate()
            .map(|(i, row)| f(i, row))
            .collect();
    }

    let slots: Vec<Mutex<(&mut [T], Option<R>)>> = rows
        .into_iter()
        .map(|row| Mutex::new((row, None)))
        .collect();
    let next_row = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|_| loop {
                let i = next_row.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let mut slot = slots[i].lock();
                let out = f(i, &mut *slot.0);
                slot.1 = Some(out);
            });
        }
    })
    .expect("dagscope-par worker thread panicked");
    slots
        .into_iter()
        .map(|slot| slot.into_inner().1.expect("every row is claimed once"))
        .collect()
}

/// Expand a packed upper triangle into a full row-major `n × n` symmetric
/// matrix buffer.
pub fn unpack_symmetric<U: Clone>(n: usize, packed: &[U]) -> Vec<U> {
    assert_eq!(packed.len(), packed_len(n), "packed length mismatch");
    let mut full = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            full.push(packed[packed_index(n, a, b)].clone());
        }
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_index_layout_is_dense_and_ordered() {
        for n in [1usize, 2, 3, 7, 20] {
            let mut expect = 0usize;
            for i in 0..n {
                for j in i..n {
                    assert_eq!(packed_index(n, i, j), expect);
                    expect += 1;
                }
            }
            assert_eq!(expect, packed_len(n));
        }
    }

    #[test]
    fn zero_and_one_sized_tables() {
        let empty: Vec<u8> = par_upper_triangle(0, |_, _| 0u8);
        assert!(empty.is_empty());
        let one = par_upper_triangle(1, |i, j| i + j);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn matches_sequential_reference() {
        let n = 57;
        let got = par_upper_triangle(n, |i, j| i * 1000 + j);
        let mut expect = Vec::new();
        for i in 0..n {
            for j in i..n {
                expect.push(i * 1000 + j);
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn unpack_produces_symmetric_full_matrix() {
        let n = 9;
        let packed = par_upper_triangle(n, |i, j| (i + 1) * (j + 1));
        let full = unpack_symmetric(n, &packed);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(full[i * n + j], (i + 1) * (j + 1));
                assert_eq!(full[i * n + j], full[j * n + i]);
            }
        }
    }

    #[test]
    fn packed_rows_fill_in_place() {
        for n in [0usize, 1, 41] {
            let mut packed = vec![0usize; packed_len(n)];
            let lens = par_packed_rows(n, &mut packed, |i, row| {
                for (off, slot) in row.iter_mut().enumerate() {
                    *slot = i * 1000 + i + off;
                }
                row.len()
            });
            let expect: Vec<usize> = (0..n)
                .flat_map(|i| (i..n).map(move |j| i * 1000 + j))
                .collect();
            assert_eq!(packed, expect, "n={n}");
            assert_eq!(lens, (1..=n).rev().collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "packed length mismatch")]
    fn packed_rows_reject_wrong_length() {
        let _ = par_packed_rows(3, &mut [0u8; 5], |_, _| ());
    }

    #[test]
    #[should_panic(expected = "packed length mismatch")]
    fn unpack_rejects_wrong_length() {
        let _ = unpack_symmetric(3, &[1, 2, 3]);
    }
}
