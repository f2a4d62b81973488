//! Exact cosine top-k search over the WL inverted index.
//!
//! Online queries (`KernelCache::nearest`, `KernelCache::probe`,
//! `ServeIndex::similar`) used to linear-scan every cached job. This module
//! scores *unique shapes* through the feature→shape postings lists instead,
//! and prunes candidate admission with the query's suffix-norm bound
//! (Bayardo, Ma & Srikant, "Scaling Up All Pairs Similarity Search",
//! WWW 2007). [`TopkIndex::scores`] (the `probe` path) broadcasts each
//! shape's score to its member jobs; [`TopkIndex::nearest`] ranks the
//! shapes and expands only the best ones into jobs.
//!
//! # Exactness invariants
//!
//! The searcher reproduces the full-scan oracle **bitwise**:
//!
//! * partial dots accumulate over the query's features in increasing index
//!   order from `0.0` — the exact add sequence of the merge-join
//!   [`SparseVec::dot`]; shapes sharing no feature keep the same literal
//!   `0.0` the full scan's `cosine` would return;
//! * the final score divides by `(‖q‖²·‖x‖²).sqrt()` exactly as
//!   [`SparseVec::cosine`] does, with the stored `‖x‖²` taken from a
//!   bitwise-identical representative vector;
//! * the norm bound only *suppresses admission of unseen candidates*, and
//!   only once the k-th best already-admitted partial score strictly
//!   exceeds the best score any unseen candidate could still reach
//!   (partial cosines of non-negative vectors grow monotonically, so an
//!   admitted candidate's partial score lower-bounds its final score).
//!   The comparison is strict and the bound is inflated by a hair
//!   (`1 + 1e-9`) to absorb floating-point rounding of the bound itself,
//!   so ties are never pruned and tie-breaking stays exact. Populations
//!   or queries with negative values disable pruning entirely;
//! * `nearest` emits each run of equal scores (0.0 ties -0.0, as in the
//!   sort) in ascending job index across all of its shapes, and places
//!   the untouched shapes' jobs, at 0.0, between positive and negative
//!   scores — the order of sorting every job by score, then index.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fx::FxHashMap;
use crate::gram::ShapeDedup;
use crate::SparseVec;

/// Per-query cost counters, surfaced through `/metrics` on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Distinct shapes admitted as candidates.
    pub candidates: u64,
    /// Postings entries visited while accumulating partial dots.
    pub scanned: u64,
    /// First-touch admissions suppressed by the norm bound.
    pub pruned: u64,
}

impl QueryStats {
    /// Accumulate another query's counters (used by batch callers).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.candidates += other.candidates;
        self.scanned += other.scanned;
        self.pruned += other.pruned;
    }
}

/// An immutable cosine-similarity index over a job population: shape
/// dedup, feature→shape postings, and per-shape norms.
#[derive(Debug)]
pub struct TopkIndex {
    shape_of: Vec<usize>,
    members: Vec<Vec<u32>>,
    norms_sq: Vec<f64>,
    postings: FxHashMap<u32, Vec<(u32, f64)>>,
    nonnegative: bool,
    jobs: usize,
}

impl TopkIndex {
    /// Build the index from a job population's feature vectors.
    pub fn build(features: &[SparseVec]) -> TopkIndex {
        let dedup = ShapeDedup::from_features(features);
        let m = dedup.unique_count();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (j, &s) in dedup.shape_of().iter().enumerate() {
            members[s].push(j as u32);
        }
        let mut postings: FxHashMap<u32, Vec<(u32, f64)>> = FxHashMap::default();
        let mut norms_sq = Vec::with_capacity(m);
        let mut nonnegative = true;
        for (s, &r) in dedup.representatives().iter().enumerate() {
            let f = &features[r];
            norms_sq.push(f.norm_sq());
            for (idx, v) in f.iter() {
                if v < 0.0 {
                    nonnegative = false;
                }
                postings.entry(idx).or_default().push((s as u32, v));
            }
        }
        TopkIndex {
            shape_of: dedup.shape_of().to_vec(),
            members,
            norms_sq,
            postings,
            nonnegative,
            jobs: features.len(),
        }
    }

    /// Number of indexed jobs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Number of distinct shapes.
    pub fn shape_count(&self) -> usize {
        self.members.len()
    }

    /// Shape id of each indexed job.
    pub fn shape_of(&self) -> &[usize] {
        &self.shape_of
    }

    /// Accumulate candidate shapes and their exact cosine scores for
    /// `query`. When `admit_jobs` is `Some(k)` (and every value in play is
    /// non-negative), admission of unseen shapes stops once the k best
    /// already-admitted jobs provably beat anything still unseen.
    /// Already-admitted candidates always accumulate to their exact final
    /// score. Returns `(shape, score)` pairs in admission order.
    fn score_shapes(
        &self,
        query: &SparseVec,
        admit: Option<(usize, Option<usize>)>,
        stats: &mut QueryStats,
    ) -> Vec<(usize, f64)> {
        let qn = query.norm_sq();
        if qn == 0.0 || self.jobs == 0 {
            return Vec::new();
        }
        let m = self.members.len();
        let mut acc = vec![0.0f64; m];
        let mut touched = vec![false; m];
        let mut order: Vec<usize> = Vec::new();

        let prune = self.nonnegative && admit.is_some() && query.iter().all(|(_, v)| v >= 0.0);
        // suffix_sq[t] = Σ_{u ≥ t} qv_u² — an upper bound (with ‖x‖) on
        // the dot product any shape first seen at feature position t can
        // still accumulate.
        let suffix_sq: Vec<f64> = if prune {
            let vals: Vec<f64> = query.iter().map(|(_, v)| v).collect();
            let mut out = vec![0.0f64; vals.len() + 1];
            for t in (0..vals.len()).rev() {
                out[t] = out[t + 1] + vals[t] * vals[t];
            }
            out
        } else {
            Vec::new()
        };
        let (admit_k, exclude) = admit.unwrap_or((usize::MAX, None));
        let excluded_shape = exclude.map(|j| self.shape_of[j]);

        let mut closed = false;
        for (t, (idx, qv)) in query.iter().enumerate() {
            let Some(list) = self.postings.get(&idx) else {
                continue;
            };
            // Once every shape is admitted, closing admission could
            // suppress nothing: skip the k-th partial's sort.
            if prune && !closed && order.len() < m {
                let bound = (suffix_sq[t] / qn).sqrt() * (1.0 + 1e-9);
                if let Some(theta) = self.kth_partial(&order, &acc, qn, admit_k, excluded_shape) {
                    if bound < theta {
                        closed = true;
                    }
                }
            }
            for &(s, v) in list {
                stats.scanned += 1;
                let s = s as usize;
                if touched[s] {
                    acc[s] += qv * v;
                } else if !closed {
                    touched[s] = true;
                    order.push(s);
                    acc[s] += qv * v;
                } else {
                    stats.pruned += 1;
                }
            }
        }
        stats.candidates += order.len() as u64;
        order
            .into_iter()
            .map(|s| {
                let denom = (qn * self.norms_sq[s]).sqrt();
                let score = if denom == 0.0 { 0.0 } else { acc[s] / denom };
                (s, score)
            })
            .collect()
    }

    /// The k-th best (multiplicity-weighted, exclusion-adjusted) partial
    /// cosine among admitted shapes, or `None` while fewer than `k`
    /// candidate jobs have been admitted.
    fn kth_partial(
        &self,
        order: &[usize],
        acc: &[f64],
        qn: f64,
        k: usize,
        excluded_shape: Option<usize>,
    ) -> Option<f64> {
        let mut partials: Vec<(f64, usize)> = order
            .iter()
            .map(|&s| {
                let denom = (qn * self.norms_sq[s]).sqrt();
                let p = if denom == 0.0 { 0.0 } else { acc[s] / denom };
                let mut count = self.members[s].len();
                if excluded_shape == Some(s) {
                    count -= 1;
                }
                (p, count)
            })
            .collect();
        partials.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let mut seen = 0usize;
        for (p, count) in partials {
            seen += count;
            if seen >= k {
                return Some(p);
            }
        }
        None
    }

    /// Exact cosine scores of `query` against every indexed job (the
    /// `probe` shape): scores are computed once per shape and broadcast to
    /// members; jobs sharing no feature with the query score exactly 0.0.
    pub fn scores(&self, query: &SparseVec) -> (Vec<f64>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut out = vec![0.0f64; self.jobs];
        for (s, score) in self.score_shapes(query, None, &mut stats) {
            for &j in &self.members[s] {
                out[j as usize] = score;
            }
        }
        (out, stats)
    }

    /// The `k` most similar indexed jobs to `query`, best first, ties
    /// broken by ascending job index — bitwise identical to sorting a full
    /// scan with
    /// `b.score.partial_cmp(&a.score).unwrap().then(a.index.cmp(&b.index))`
    /// and truncating. `exclude` removes one job (the query itself when it
    /// is a member of the index).
    ///
    /// Ranks shapes, not jobs: the candidate shapes are sorted by score
    /// and walked best first, one tie group (a run of scores comparing
    /// `Equal`) at a time, and the jobs of shapes the query never touched
    /// form one more group scoring exactly 0.0. After scoring, a query
    /// costs O(m log m + k) for m candidate shapes (plus one pass over the
    /// shapes if it reaches the 0.0 group), not O(n log n) for n jobs.
    pub fn nearest(
        &self,
        query: &SparseVec,
        exclude: Option<usize>,
        k: usize,
    ) -> (Vec<(usize, f64)>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut scored = self.score_shapes(query, Some((k, exclude)), &mut stats);
        scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        // Positive, zero (0.0 and -0.0 tie) and negative scores, in order.
        let positive = scored.partition_point(|&(_, s)| s > 0.0);
        let nonnegative = scored.partition_point(|&(_, s)| s >= 0.0);

        let mut out = Vec::with_capacity(k.min(self.jobs));
        self.push_tie_groups(&scored[..positive], exclude, k, &mut out);
        if out.len() < k {
            // Untouched shapes score the full scan's literal 0.0 and tie
            // with candidates whose dot product cancelled to zero. (The
            // norm bound only closes admission once k candidate jobs beat
            // every unseen shape, so a pruned shape never gets here.)
            let mut is_cand = vec![false; self.members.len()];
            for &(s, _) in &scored {
                is_cand[s] = true;
            }
            let mut zeros = scored[positive..nonnegative].to_vec();
            zeros.extend(
                (0..self.members.len())
                    .filter(|&s| !is_cand[s])
                    .map(|s| (s, 0.0)),
            );
            self.push_tie_group(&zeros, exclude, k, &mut out);
        }
        self.push_tie_groups(&scored[nonnegative..], exclude, k, &mut out);
        (out, stats)
    }

    /// Append the jobs of `sorted` (shapes sorted by descending score), one
    /// run of equal scores at a time, until `out` holds `k` jobs.
    fn push_tie_groups(
        &self,
        mut sorted: &[(usize, f64)],
        exclude: Option<usize>,
        k: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        while let Some(&(_, score)) = sorted.first() {
            if out.len() >= k {
                return;
            }
            let run = sorted.iter().take_while(|&&(_, s)| s == score).count();
            self.push_tie_group(&sorted[..run], exclude, k, out);
            sorted = &sorted[run..];
        }
    }

    /// Append one tie group's jobs in ascending job index (the full sort's
    /// tie-break), each with its own shape's score bits and `exclude`
    /// skipped, until `out` holds `k` jobs: a k-way merge of the shapes'
    /// member lists, each ascending.
    fn push_tie_group(
        &self,
        group: &[(usize, f64)],
        exclude: Option<usize>,
        k: usize,
        out: &mut Vec<(usize, f64)>,
    ) {
        let mut heads: BinaryHeap<Reverse<(u32, usize, usize)>> = group
            .iter()
            .enumerate()
            .map(|(g, &(s, _))| Reverse((self.members[s][0], g, 0)))
            .collect();
        while out.len() < k {
            let Some(Reverse((j, g, at))) = heads.pop() else {
                return;
            };
            let (s, score) = group[g];
            if Some(j as usize) != exclude {
                out.push((j as usize, score));
            }
            if let Some(&next) = self.members[s].get(at + 1) {
                heads.push(Reverse((next, g, at + 1)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.iter().copied())
    }

    fn population() -> Vec<SparseVec> {
        vec![
            v(&[(0, 2.0), (3, 1.0)]),
            v(&[(0, 2.0), (3, 1.0)]), // dup of 0
            v(&[(3, 4.0), (5, 1.0)]),
            v(&[(9, 7.0)]), // disjoint
            v(&[(0, 1.0), (5, 2.0)]),
            SparseVec::default(),
        ]
    }

    fn oracle_nearest(
        feats: &[SparseVec],
        q: &SparseVec,
        exclude: Option<usize>,
        k: usize,
    ) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = (0..feats.len())
            .filter(|&j| Some(j) != exclude)
            .map(|j| (j, q.cosine(&feats[j])))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    #[test]
    fn scores_match_full_scan_bitwise() {
        let feats = population();
        let index = TopkIndex::build(&feats);
        for q in &feats {
            let (got, _) = index.scores(q);
            let want: Vec<f64> = feats.iter().map(|f| q.cosine(f)).collect();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    /// Check `nearest` bit for bit against the oracle for every query in
    /// `feats` and `extra`, with no exclusion and excluding each job in
    /// turn, at every k up to one past the population and at `usize::MAX`.
    /// Returns the summed search counters.
    fn assert_nearest_matches_oracle(feats: &[SparseVec], extra: &[SparseVec]) -> QueryStats {
        let index = TopkIndex::build(feats);
        let n = feats.len();
        let mut total = QueryStats::default();
        for (qi, q) in feats.iter().chain(extra).enumerate() {
            for exclude in std::iter::once(None).chain((0..n).map(Some)) {
                for k in (0..=n + 1).chain([usize::MAX]) {
                    let (got, stats) = index.nearest(q, exclude, k);
                    total.absorb(&stats);
                    let want = oracle_nearest(feats, q, exclude, k);
                    let at = format!("query {qi} exclude {exclude:?} k {k}");
                    assert_eq!(got.len(), want.len(), "{at}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.0, w.0, "{at}");
                        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{at}");
                    }
                }
            }
        }
        total
    }

    #[test]
    fn nearest_matches_oracle_for_every_k() {
        assert_nearest_matches_oracle(&population(), &[]);
        // Distinct shapes (0:1) and (1:1) score bitwise equal against
        // (0:1, 1:1), with members interleaved: one tie group, merged by
        // job index (0, 1, 2, 3, 5), never emitted shape by shape.
        let tied = vec![
            v(&[(0, 1.0)]),
            v(&[(1, 1.0)]),
            v(&[(0, 1.0)]),
            v(&[(1, 1.0)]),
            v(&[(7, 1.0)]),
            v(&[(0, 1.0)]),
        ];
        let q = v(&[(0, 1.0), (1, 1.0)]);
        assert_nearest_matches_oracle(&tied, std::slice::from_ref(&q));
        let (got, _) = TopkIndex::build(&tied).nearest(&q, None, usize::MAX);
        let order: Vec<usize> = got.iter().map(|&(j, _)| j).collect();
        assert_eq!(order, [0, 1, 2, 3, 5, 4]);
    }

    #[test]
    fn pruning_skips_admissions_but_keeps_results_exact() {
        // Many duplicate strong matches sharing the query's early
        // features, plus weak tail shapes reachable only through a
        // low-mass late feature: once the top-k partials beat the
        // remaining suffix norm, admission must close without changing
        // the answer.
        let mut feats = vec![v(&[(0, 10.0), (1, 10.0), (2, 10.0)]); 8];
        for t in 0..40 {
            feats.push(v(&[(50, 30.0 + t as f64), (100 + t, 50.0)]));
        }
        let index = TopkIndex::build(&feats);
        let q = v(&[(0, 10.0), (1, 10.0), (2, 10.0), (50, 0.001)]);
        let (got, stats) = index.nearest(&q, None, 4);
        let want = oracle_nearest(&feats, &q, None, 4);
        assert_eq!(got, want);
        assert!(
            stats.pruned > 0,
            "expected the norm bound to engage: {stats:?}"
        );
    }

    #[test]
    fn negative_values_disable_pruning_and_stay_exact() {
        let feats = vec![
            v(&[(0, 1.0), (1, -2.0)]),
            v(&[(0, 1.0), (1, 1.0)]),
            v(&[(2, 1.0)]),
            v(&[(1, 3.0)]),
        ];
        assert_eq!(assert_nearest_matches_oracle(&feats, &[]).pruned, 0);
        // Against (0:1, 1:-1), jobs 1 and 5 are candidates whose dot
        // product cancels to exactly 0.0: they tie with the untouched jobs
        // 0 and 2, between job 3 (positive) and job 4 (negative).
        let cancelling = vec![
            v(&[(9, 1.0)]),
            v(&[(0, 1.0), (1, 1.0)]),
            v(&[(5, 2.0)]),
            v(&[(0, 1.0), (1, -2.0)]),
            v(&[(0, -1.0)]),
            v(&[(0, 1.0), (1, 1.0)]),
        ];
        let q = v(&[(0, 1.0), (1, -1.0)]);
        let stats = assert_nearest_matches_oracle(&cancelling, std::slice::from_ref(&q));
        assert_eq!(stats.pruned, 0);
        let (got, _) = TopkIndex::build(&cancelling).nearest(&q, None, usize::MAX);
        let order: Vec<usize> = got.iter().map(|&(j, _)| j).collect();
        assert_eq!(order, [3, 0, 1, 2, 5, 4]);
    }

    #[test]
    fn empty_index_and_empty_query() {
        let index = TopkIndex::build(&[]);
        assert_eq!(index.scores(&v(&[(0, 1.0)])).0.len(), 0);
        let feats = population();
        let index = TopkIndex::build(&feats);
        let (scores, _) = index.scores(&SparseVec::default());
        assert!(scores.iter().all(|&s| s == 0.0));
        let (nn, _) = index.nearest(&SparseVec::default(), None, 3);
        assert_eq!(nn, vec![(0, 0.0), (1, 0.0), (2, 0.0)]);
    }

    #[test]
    fn stats_absorb() {
        let mut a = QueryStats {
            candidates: 1,
            scanned: 2,
            pruned: 3,
        };
        a.absorb(&QueryStats {
            candidates: 10,
            scanned: 20,
            pruned: 30,
        });
        assert_eq!(a.scanned, 22);
        assert_eq!(a.candidates, 11);
        assert_eq!(a.pruned, 33);
    }
}
