//! Order-preserving parallel map with dynamic chunk self-scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::config::parallelism;

/// Target number of chunks per worker thread. More chunks improve load
/// balance for skewed work at the cost of a little scheduling overhead;
/// 8 is a conventional compromise.
const CHUNKS_PER_THREAD: usize = 8;

/// Compute the chunk length for `len` items on `threads` workers.
fn chunk_len(len: usize, threads: usize) -> usize {
    let target_chunks = threads * CHUNKS_PER_THREAD;
    len.div_ceil(target_chunks).max(1)
}

/// Map `f` over `items` in parallel, preserving input order in the output.
///
/// Runs sequentially only when one worker thread is configured or the
/// input has fewer than two items; otherwise every call spawns scoped
/// worker threads, so callers with cheap per-item work gate small inputs
/// themselves.
///
/// ```
/// let doubled = dagscope_par::par_map(&[1, 2, 3], |&x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, |_, item| f(item))
}

/// Like [`par_map`] but the closure also receives the item index.
///
/// ```
/// let v = dagscope_par::par_map_with(&["a", "b"], |i, s| format!("{i}{s}"));
/// assert_eq!(v, vec!["0a".to_string(), "1b".to_string()]);
/// ```
pub fn par_map_with<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = parallelism();
    if threads == 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let chunk = chunk_len(items.len(), threads);
    let n_chunks = items.len().div_ceil(chunk);
    let next_chunk = AtomicUsize::new(0);
    // Each worker appends (chunk_index, mapped_chunk); we reassemble in
    // order afterwards so thread interleaving never affects the output.
    let produced: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(n_chunks));

    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(n_chunks) {
            scope.spawn(|_| loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let start = c * chunk;
                let end = (start + chunk).min(items.len());
                let mapped: Vec<U> = items[start..end]
                    .iter()
                    .enumerate()
                    .map(|(off, t)| f(start + off, t))
                    .collect();
                produced.lock().push((c, mapped));
            });
        }
    })
    .expect("dagscope-par worker thread panicked");

    let mut produced = produced.into_inner();
    produced.sort_unstable_by_key(|(c, _)| *c);
    let mut out = Vec::with_capacity(items.len());
    for (_, mut part) in produced {
        out.append(&mut part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParScope;

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn preserves_order_large() {
        let input: Vec<u64> = (0..10_000).collect();
        let out = par_map(&input, |&x| x * 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3);
        }
    }

    #[test]
    fn indexed_variant_sees_true_indices() {
        let input: Vec<u8> = vec![0; 5_000];
        let out = par_map_with(&input, |i, _| i);
        let expected: Vec<usize> = (0..5_000).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn sequential_fallback_matches_parallel() {
        let input: Vec<i64> = (0..2_345).map(|x| x - 1_000).collect();
        let seq = {
            let _one = ParScope::new(1);
            par_map(&input, |&x| x.wrapping_mul(x))
        };
        let par = par_map(&input, |&x| x.wrapping_mul(x));
        assert_eq!(seq, par);
    }

    #[test]
    fn skewed_work_is_balanced_and_correct() {
        // Items with wildly different costs: heavy ones spin proportionally.
        let input: Vec<u64> = (0..512)
            .map(|i| if i % 64 == 0 { 40_000 } else { 1 })
            .collect();
        let out = par_map(&input, |&n| (0..n).fold(0u64, |a, b| a ^ b));
        assert_eq!(out.len(), input.len());
        let expect = |n: u64| (0..n).fold(0u64, |a, b| a ^ b);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, expect(input[i]));
        }
    }

    #[test]
    fn chunk_len_reasonable() {
        assert_eq!(chunk_len(0, 4), 1);
        assert_eq!(chunk_len(1, 4), 1);
        assert!(chunk_len(1_000, 4) >= 1);
        // All items covered: n_chunks * chunk >= len.
        for len in [1usize, 7, 64, 1_000, 12_345] {
            for threads in [1usize, 2, 8, 64] {
                let c = chunk_len(len, threads);
                assert!(len.div_ceil(c) * c >= len);
            }
        }
    }
}
