//! WL relabeling with a shared, hash-consed label vocabulary.

use dagscope_graph::JobDag;

use crate::fx::FxHashMap;
use crate::SparseVec;

/// Sentinel separators inside signature keys; real compressed labels start
/// at 0 and stay well below these.
const SEP_PARENTS: u32 = u32::MAX - 1;
const SEP_CHILDREN: u32 = u32::MAX;

/// Incremental WL feature extractor with a shared label vocabulary.
///
/// Graphs transformed by the same vectorizer share compressed-label ids, so
/// their [`SparseVec`]s are directly comparable — including graphs embedded
/// *after* the initial batch (new signatures extend the vocabulary; old ones
/// reuse their ids, so previously computed vectors stay valid).
///
/// ```
/// use dagscope_trace::{Job, TaskRecord, Status};
/// use dagscope_graph::JobDag;
/// # fn t(name: &str) -> TaskRecord {
/// #     TaskRecord { task_name: name.into(), instance_num: 1, job_name: "j".into(),
/// #         task_type: "1".into(), status: Status::Terminated, start_time: 1,
/// #         end_time: 2, plan_cpu: 100.0, plan_mem: 0.5 }
/// # }
/// let chain = JobDag::from_job(&Job { name: "a".into(), tasks: vec![t("M1"), t("R2_1")] }).unwrap();
/// let same = JobDag::from_job(&Job { name: "b".into(), tasks: vec![t("M1"), t("R2_1")] }).unwrap();
/// let mut wl = dagscope_wl::WlVectorizer::new(3);
/// let (fa, fb) = (wl.transform(&chain), wl.transform(&same));
/// assert_eq!(fa, fb); // isomorphic graphs embed identically
/// ```
#[derive(Debug, Default)]
pub struct WlVectorizer {
    iterations: usize,
    use_weights: bool,
    table: FxHashMap<Box<[u32]>, u32>,
    next_label: u32,
}

impl WlVectorizer {
    /// A vectorizer performing `iterations` WL refinement rounds (the
    /// paper's `n` in eq. (1); 3 is the customary default).
    ///
    /// By default label counts ignore conflation weights — the paper runs
    /// WL on the merged graph as-is, so a conflated fan-in embeds exactly
    /// like a native 2-node chain. Use [`weighted`](Self::weighted) to make
    /// merged nodes count with their original multiplicity instead.
    pub fn new(iterations: usize) -> Self {
        WlVectorizer {
            iterations,
            use_weights: false,
            table: FxHashMap::default(),
            next_label: 0,
        }
    }

    /// Toggle conflation-weight-aware counting (see [`new`](Self::new)).
    pub fn weighted(mut self, yes: bool) -> Self {
        self.use_weights = yes;
        self
    }

    /// Number of WL iterations this vectorizer performs.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Size of the compressed-label vocabulary accumulated so far.
    pub fn vocabulary_size(&self) -> usize {
        self.table.len()
    }

    /// The id of `key`, assigning the next free one on first sight. Only a
    /// new key is copied into the table.
    fn compress(&mut self, key: &[u32]) -> u32 {
        if let Some(&id) = self.table.get(key) {
            return id;
        }
        let id = self.next_label;
        self.next_label += 1;
        self.table.insert(key.into(), id);
        id
    }

    /// Embed one DAG: returns the φ vector counting every label over
    /// iterations `0..=h`, each node contributing its conflation weight.
    pub fn transform(&mut self, dag: &JobDag) -> SparseVec {
        let (iterations, use_weights) = (self.iterations, self.use_weights);
        relabel(dag, iterations, use_weights, |key| self.compress(key))
    }

    /// Embed one DAG **without mutating the vocabulary** — the read path
    /// for concurrent servers.
    ///
    /// Signatures already in the vocabulary resolve to their canonical ids;
    /// novel signatures get provisional ids from `next_label` upward in a
    /// call-local overlay that is discarded afterwards. Because the mutable
    /// [`transform`](Self::transform) assigns exactly those ids in exactly
    /// that discovery order, the returned vector is **bit-identical** to
    /// what `transform` would have produced on the same state — but `self`
    /// stays untouched, so any number of threads can call this through a
    /// shared reference with no locking.
    ///
    /// Provisional ids are only meaningful within the returned vector: they
    /// can never collide with a cached vector's ids (those are all below
    /// `next_label`), so dot products against vocabulary-resident vectors
    /// are exact; two *frozen* vectors from different calls must not be
    /// compared against each other unless both structures were fully
    /// in-vocabulary.
    pub fn transform_frozen(&self, dag: &JobDag) -> SparseVec {
        let mut overlay: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        let mut next_overlay = self.next_label;
        relabel(dag, self.iterations, self.use_weights, |key| {
            if let Some(&id) = self.table.get(key) {
                return id;
            }
            if let Some(&id) = overlay.get(key) {
                return id;
            }
            let id = next_overlay;
            next_overlay += 1;
            overlay.insert(key.into(), id);
            id
        })
    }

    /// Embed a batch, sharding the work across threads for large batches.
    ///
    /// Produces **bit-identical** output to
    /// [`transform_all_sequential`](Self::transform_all_sequential) — same
    /// vectors, same final vocabulary, same label ids — for any thread
    /// count and any shard split. Small batches take the sequential path
    /// directly; the crossover is where shard bookkeeping stops paying for
    /// itself on typical job DAGs.
    pub fn transform_all(&mut self, dags: &[JobDag]) -> Vec<SparseVec> {
        const PAR_THRESHOLD: usize = 64;
        let threads = dagscope_par::parallelism();
        if threads <= 1 || dags.len() < PAR_THRESHOLD {
            return self.transform_all_sequential(dags);
        }
        self.transform_all_sharded(dags, threads)
    }

    /// Embed a batch one DAG at a time on the calling thread. This is the
    /// reference implementation the sharded path is tested against.
    pub fn transform_all_sequential(&mut self, dags: &[JobDag]) -> Vec<SparseVec> {
        dags.iter().map(|d| self.transform(d)).collect()
    }

    /// Two-phase sharded embedding.
    ///
    /// **Phase 1 (parallel):** split `dags` into contiguous shards; each
    /// shard clones the current vocabulary snapshot and embeds its DAGs
    /// locally, assigning provisional ids from the snapshot's `next_label`
    /// upward. **Phase 2 (sequential merge):** walk shards in order,
    /// re-playing each shard's newly discovered keys (in local-id order)
    /// against the shared table to obtain canonical ids, then rewrite each
    /// shard vector through the local→canonical map.
    ///
    /// Equivalence to the sequential path holds exactly:
    /// * a shard's local ids are assigned in first-occurrence order, so
    ///   replaying its new keys in id order reproduces the discovery order
    ///   a sequential pass over those DAGs would have had;
    /// * signature keys only reference labels that already exist when the
    ///   key is formed, so by induction every element of a new key has a
    ///   canonical id by the time the key is remapped (1-element keys are
    ///   initial letter keys and are replayed verbatim);
    /// * the neighbour segments of a signature are *sorted by label id*, and
    ///   local ids order differently than canonical ids, so after remapping
    ///   each segment is re-sorted — yielding exactly the byte key the
    ///   sequential pass forms for that signature;
    /// * per-DAG counts are accumulated in node order either way, so the
    ///   `f64` values — not just their ordering — match bit for bit.
    pub fn transform_all_sharded(&mut self, dags: &[JobDag], threads: usize) -> Vec<SparseVec> {
        let base = self.next_label;
        let shard_size = dags.len().div_ceil(threads);
        let shards: Vec<&[JobDag]> = dags.chunks(shard_size).collect();

        let outs = dagscope_par::par_map(&shards, |shard: &&[JobDag]| {
            let mut local = WlVectorizer {
                iterations: self.iterations,
                use_weights: self.use_weights,
                table: self.table.clone(),
                next_label: self.next_label,
            };
            let vecs: Vec<SparseVec> = shard.iter().map(|d| local.transform(d)).collect();
            let mut new_keys: Vec<(Box<[u32]>, u32)> = local
                .table
                .into_iter()
                .filter(|&(_, id)| id >= base)
                .collect();
            new_keys.sort_unstable_by_key(|&(_, id)| id);
            let new_keys: Vec<Box<[u32]>> = new_keys.into_iter().map(|(k, _)| k).collect();
            (vecs, new_keys)
        });

        let mut result = Vec::with_capacity(dags.len());
        for (vecs, new_keys) in outs {
            // Canonical id for each of this shard's provisional ids
            // `base..base + new_keys.len()`, in order.
            let mut local_to_global: Vec<u32> = Vec::with_capacity(new_keys.len());
            let remap = |e: u32, map: &[u32]| -> u32 {
                if e >= SEP_PARENTS || e < base {
                    e
                } else {
                    map[(e - base) as usize]
                }
            };
            let mut k: Vec<u32> = Vec::new();
            for key in new_keys {
                let gid = if key.len() == 1 {
                    // Initial letter key: its element is a character code,
                    // not a label id.
                    self.compress(&key)
                } else {
                    k.clear();
                    k.extend(key.iter().map(|&e| remap(e, &local_to_global)));
                    // Re-sort the neighbour segments: the shard sorted them
                    // by local id, the canonical key is sorted by global id.
                    // Layout: [own, SEP_PARENTS, parents.., SEP_CHILDREN,
                    // children..]; the separators exceed every label id, so
                    // sorting the segments between them is safe.
                    let sep = k
                        .iter()
                        .position(|&e| e == SEP_CHILDREN)
                        .expect("signature key has a children separator");
                    k[2..sep].sort_unstable();
                    k[sep + 1..].sort_unstable();
                    self.compress(&k)
                };
                local_to_global.push(gid);
            }
            for v in vecs {
                result.push(SparseVec::from_pairs(
                    v.iter().map(|(i, c)| (remap(i, &local_to_global), c)),
                ));
            }
        }
        result
    }
}

/// The WL loop both transforms share, parameterized by how a signature key
/// becomes a label id: `compress` sees each node's 1-element initial key
/// (its kind letter), then per iteration its `[own, SEP_PARENTS,
/// parents.., SEP_CHILDREN, children..]` signature with both neighbour
/// segments sorted.
fn relabel(
    dag: &JobDag,
    iterations: usize,
    use_weights: bool,
    mut compress: impl FnMut(&[u32]) -> u32,
) -> SparseVec {
    let n = dag.len();
    // Initial labels are hash-consed through the same table as signature
    // keys, so ids never collide with signature labels.
    let mut labels: Vec<u32> = (0..n)
        .map(|i| compress(&[dag.kind(i).letter() as u32]))
        .collect();
    let mut counts: FxHashMap<u32, f64> = FxHashMap::default();
    let bump = |counts: &mut FxHashMap<u32, f64>, labels: &[u32]| {
        for (i, &l) in labels.iter().enumerate() {
            let w = if use_weights {
                dag.weight(i) as f64
            } else {
                1.0
            };
            *counts.entry(l).or_insert(0.0) += w;
        }
    };
    bump(&mut counts, &labels);

    let mut next: Vec<u32> = Vec::with_capacity(n);
    let mut key: Vec<u32> = Vec::new();
    for _ in 0..iterations {
        next.clear();
        for i in 0..n {
            key.clear();
            key.push(labels[i]);
            key.push(SEP_PARENTS);
            key.extend(dag.parents(i).iter().map(|&p| labels[p as usize]));
            key[2..].sort_unstable();
            key.push(SEP_CHILDREN);
            let children_at = key.len();
            key.extend(dag.children(i).iter().map(|&c| labels[c as usize]));
            key[children_at..].sort_unstable();
            next.push(compress(&key));
        }
        std::mem::swap(&mut labels, &mut next);
        bump(&mut counts, &labels);
    }
    SparseVec::from_pairs(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn isomorphic_graphs_same_features() {
        // Same topology, different id spellings and row orders.
        let a = dag("a", &["M1", "M2", "R3_2_1"]);
        let b = dag("b", &["R9_7_5", "M5", "M7"]);
        let mut wl = WlVectorizer::new(3);
        let fa = wl.transform(&a);
        let fb = wl.transform(&b);
        assert_eq!(fa, fb);
    }

    #[test]
    fn different_topologies_differ() {
        let chain = dag("a", &["M1", "R2_1", "R3_2"]);
        let tri = dag("b", &["M1", "M2", "R3_2_1"]);
        let mut wl = WlVectorizer::new(3);
        assert_ne!(wl.transform(&chain), wl.transform(&tri));
    }

    #[test]
    fn direction_sensitivity() {
        // Convergent (2 maps -> reduce) vs diffuse (1 map -> 2 reduces):
        // undirected WL would confuse these mirrors; ours must not.
        let conv = dag("a", &["M1", "M2", "R3_2_1"]);
        let diff = dag("b", &["M1", "R2_1", "R3_1"]);
        let mut wl = WlVectorizer::new(2);
        let (fc, fd) = (wl.transform(&conv), wl.transform(&diff));
        assert_ne!(fc, fd);
        assert!(fc.cosine(&fd) < 1.0);
    }

    #[test]
    fn label_mass_is_h_plus_one_times_weight() {
        let d = dag("a", &["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"]);
        for h in 0..4 {
            let mut wl = WlVectorizer::new(h);
            let f = wl.transform(&d);
            assert_eq!(f.mass(), ((h + 1) * 5) as f64);
        }
    }

    #[test]
    fn weighted_conflated_graph_keeps_h0_mass() {
        let big = dag("a", &["M1", "M2", "M3", "R4_3_2_1"]);
        let small = dagscope_graph::conflate::conflate(&big);
        let mut wl = WlVectorizer::new(0).weighted(true);
        let fb = wl.transform(&big);
        let fs = wl.transform(&small);
        // At h=0 the label masses per kind are identical (weights count).
        assert_eq!(fb.mass(), fs.mass());
        assert_eq!(fb, fs);
    }

    #[test]
    fn unweighted_conflated_fanin_embeds_like_a_two_chain() {
        // Paper behaviour: after conflation a wide map fan-in IS an M->R
        // chain; unweighted WL must embed the two identically.
        let fanin =
            dagscope_graph::conflate::conflate(&dag("a", &["M1", "M2", "M3", "M4", "R5_4_3_2_1"]));
        let two_chain = dag("b", &["M1", "R2_1"]);
        let mut wl = WlVectorizer::new(3);
        assert_eq!(wl.transform(&fanin), wl.transform(&two_chain));
        // With weighting on they differ.
        let mut wlw = WlVectorizer::new(3).weighted(true);
        assert_ne!(wlw.transform(&fanin), wlw.transform(&two_chain));
    }

    #[test]
    fn vocabulary_shared_and_growing() {
        let mut wl = WlVectorizer::new(2);
        let a = dag("a", &["M1", "R2_1"]);
        let f1 = wl.transform(&a);
        let v1 = wl.vocabulary_size();
        // Transforming the same graph again adds nothing and reproduces
        // the identical vector (vocabulary stability).
        let f2 = wl.transform(&a);
        assert_eq!(wl.vocabulary_size(), v1);
        assert_eq!(f1, f2);
        // A new structure extends the vocabulary.
        let b = dag("b", &["M1", "M2", "J3_2_1", "R4_3"]);
        let _ = wl.transform(&b);
        assert!(wl.vocabulary_size() > v1);
    }

    #[test]
    fn zero_iterations_counts_kinds_only() {
        let mut wl = WlVectorizer::new(0);
        let f = wl.transform(&dag("a", &["M1", "M2", "R3_2_1"]));
        assert_eq!(f.nnz(), 2); // labels {M, R}
        assert_eq!(f.mass(), 3.0);
    }

    #[test]
    fn transform_all_matches_individual() {
        let dags = vec![dag("a", &["M1", "R2_1"]), dag("b", &["M1", "M2", "R3_2_1"])];
        let mut wl1 = WlVectorizer::new(3);
        let batch = wl1.transform_all(&dags);
        let mut wl2 = WlVectorizer::new(3);
        let solo: Vec<_> = dags.iter().map(|d| wl2.transform(d)).collect();
        assert_eq!(batch, solo);
    }

    /// A varied batch mixing chains, fan-ins, fan-outs, and joins so shards
    /// both rediscover shared signatures and contribute fresh ones.
    fn varied_batch(n: usize) -> Vec<JobDag> {
        let shapes: [&[&str]; 6] = [
            &["M1", "R2_1"],
            &["M1", "R2_1", "R3_2"],
            &["M1", "M2", "R3_2_1"],
            &["M1", "R2_1", "R3_1"],
            &["M1", "M2", "J3_2_1", "R4_3"],
            &["M1", "M3", "R2_1", "R4_3", "R5_4_3_2_1"],
        ];
        (0..n)
            .map(|i| dag(&format!("j{i}"), shapes[i % shapes.len()]))
            .collect()
    }

    #[test]
    fn sharded_bit_identical_to_sequential() {
        let dags = varied_batch(100);
        let probe = dag("probe", &["M1", "M2", "M3", "R4_3_2_1"]);
        let mut seq = WlVectorizer::new(3);
        let want = seq.transform_all_sequential(&dags);
        let want_vocab = seq.vocabulary_size();
        let want_probe = seq.transform(&probe);
        for threads in [2, 3, 5, 16] {
            let mut par = WlVectorizer::new(3);
            let got = par.transform_all_sharded(&dags, threads);
            assert_eq!(got, want, "threads={threads}");
            // The merged vocabulary is canonical too: same size, and a
            // subsequent embedding agrees with the sequential vectorizer's.
            assert_eq!(par.vocabulary_size(), want_vocab);
            assert_eq!(par.transform(&probe), want_probe);
        }
    }

    #[test]
    fn sharded_with_prepopulated_vocabulary() {
        let dags = varied_batch(80);
        let warmup = dag("w", &["M1", "M2", "R3_2_1", "J4_3"]);
        let mut seq = WlVectorizer::new(3);
        seq.transform(&warmup);
        let want = seq.transform_all_sequential(&dags);
        let mut par = WlVectorizer::new(3);
        par.transform(&warmup);
        let got = par.transform_all_sharded(&dags, 4);
        assert_eq!(got, want);
        assert_eq!(par.vocabulary_size(), seq.vocabulary_size());
    }

    #[test]
    fn sharded_weighted_matches_sequential() {
        let dags: Vec<JobDag> = varied_batch(70)
            .iter()
            .map(dagscope_graph::conflate::conflate)
            .collect();
        let mut seq = WlVectorizer::new(2).weighted(true);
        let want = seq.transform_all_sequential(&dags);
        let mut par = WlVectorizer::new(2).weighted(true);
        assert_eq!(par.transform_all_sharded(&dags, 3), want);
    }

    #[test]
    fn frozen_transform_matches_mut_transform() {
        // Warm a vocabulary, then embed a mix of seen and novel structures
        // through both paths; vectors must be bit-identical and the frozen
        // path must leave the vocabulary untouched.
        let mut wl = WlVectorizer::new(3);
        wl.transform_all(&varied_batch(30));
        let vocab = wl.vocabulary_size();
        let probes = [
            dag("seen", &["M1", "R2_1"]),
            dag("novel", &["M1", "M2", "M3", "J4_3_2_1", "R5_4", "R6_5"]),
        ];
        for p in &probes {
            let frozen = wl.transform_frozen(p);
            assert_eq!(wl.vocabulary_size(), vocab, "frozen path must not intern");
            // Oracle: a clone that IS allowed to intern.
            let mut oracle = WlVectorizer {
                iterations: wl.iterations,
                use_weights: wl.use_weights,
                table: wl.table.clone(),
                next_label: wl.next_label,
            };
            assert_eq!(frozen, oracle.transform(p), "probe {}", p.name);
        }
    }

    #[test]
    fn frozen_transform_weighted() {
        let big = dag("a", &["M1", "M2", "M3", "R4_3_2_1"]);
        let small = dagscope_graph::conflate::conflate(&big);
        let mut wl = WlVectorizer::new(2).weighted(true);
        wl.transform(&big);
        let frozen = wl.transform_frozen(&small);
        let mutated = wl.transform(&small);
        assert_eq!(frozen, mutated);
    }

    #[test]
    fn public_transform_all_uses_parallel_path_above_threshold() {
        // Under a forced multi-thread scope, a 100-dag batch crosses the
        // threshold; results must still match the sequential oracle.
        let dags = varied_batch(100);
        let _scope = dagscope_par::ParScope::new(4);
        let mut par = WlVectorizer::new(3);
        let got = par.transform_all(&dags);
        let mut seq = WlVectorizer::new(3);
        assert_eq!(got, seq.transform_all_sequential(&dags));
    }
}
