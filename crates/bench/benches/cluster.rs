//! Spectral-clustering engine cost: dense NJW (full Laplacian + Jacobi
//! eigendecomposition over every sampled job) vs the collapsed engine
//! (packed unique-shape affinity + Lanczos smallest-k eigenpairs +
//! weighted k-means, the pipeline's route), over synthetic traces at
//! three population scales (100 / 10k / 100k jobs).
//!
//! After the Criterion pass the bench writes `BENCH_cluster.json` at the
//! repository root. The dense engine is only timed at the smallest scale
//! — its affinity alone is `jobs·(jobs+1)/2` doubles (8.4 GB at the
//! 100k trace) and the Jacobi sweep is O(jobs³) — so at larger scales
//! the JSON records the *exact memory counts* (packed job-matrix entries
//! vs packed unique-shape entries) flagged `"timed": false`. Those counts
//! are the hardware-independent story: peak affinity memory drops from
//! O(jobs²) to O(shapes²) regardless of core count.
//!
//! At 100 jobs the collapsed partition is asserted **ARI == 1.0**
//! against the dense oracle — the bench doubles as the equivalence
//! smoke test wired into CI (`CLUSTER_BENCH_MAX_JOBS=100`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dagscope_cluster::{
    adjusted_rand_index, expand_assignments, spectral_cluster, spectral_cluster_collapsed,
    SpectralConfig,
};
use dagscope_graph::{conflate, JobDag};
use dagscope_linalg::SymMatrix;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_wl::{
    kernel_matrix, normalize_kernel, normalize_kernel_in_place, unique_gram, ShapeDedup, SparseVec,
    WlVectorizer,
};

/// Trace sizes swept; `CLUSTER_BENCH_MAX_JOBS` caps the sweep (CI smoke
/// sets 100).
const SIZES: [usize; 3] = [100, 10_000, 100_000];

/// Largest sampled population whose O(jobs²)-memory / O(jobs³)-time
/// dense engine is run for real.
const DENSE_TIMED_MAX: usize = 100;

fn max_jobs() -> usize {
    std::env::var("CLUSTER_BENCH_MAX_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

/// WL φ vectors of every filter-eligible job in a `jobs`-job synthetic
/// trace, derived exactly as the pipeline's kernel stage does.
fn features_for(jobs: usize) -> Vec<SparseVec> {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let set = trace.job_set();
    let eligible = SampleCriteria::default().filter(&set);
    let dags: Vec<JobDag> = dagscope_par::par_map(&eligible, |j| {
        JobDag::from_job(j).expect("filtered job builds")
    });
    let conflated: Vec<JobDag> = dagscope_par::par_map(&dags, conflate::conflate);
    WlVectorizer::new(3).transform_all(&conflated)
}

/// Best-of-`reps` wall clock of `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The normalized packed unique-shape affinity, as the pipeline builds it.
fn unique_affinity(reps: &[&SparseVec]) -> SymMatrix {
    let (mut gram, _) = unique_gram(reps);
    normalize_kernel_in_place(&mut gram);
    gram
}

/// The collapsed engine from the unique affinity: Lanczos spectral →
/// expand. Returns the per-job assignments.
fn collapsed_assignments(
    dedup: &ShapeDedup,
    affinity: &SymMatrix,
    cfg: &SpectralConfig,
) -> Vec<usize> {
    let weights = dedup.weights();
    let (spectral, _) =
        spectral_cluster_collapsed(affinity, &weights, cfg).expect("collapsed spectral succeeds");
    expand_assignments(dedup.shape_of(), &spectral.assignments)
}

struct SizeResult {
    jobs: usize,
    unique_shapes: usize,
    dense_entries: u64,
    dense_secs: Option<f64>,
    unique_entries: u64,
    gram_secs: f64,
    collapsed_secs: f64,
    ari_vs_dense: Option<f64>,
}

fn measure_size(jobs: usize, cfg: &SpectralConfig) -> SizeResult {
    let feats = features_for(jobs);
    let n = feats.len();
    let dedup = ShapeDedup::from_features(&feats);
    let m = dedup.unique_count();
    let reps: Vec<&SparseVec> = dedup.representatives().iter().map(|&r| &feats[r]).collect();
    let gram_secs = best_of(3, || unique_affinity(&reps));
    let affinity = unique_affinity(&reps);
    let collapsed_secs = best_of(3, || collapsed_assignments(&dedup, &affinity, cfg));
    let collapsed = collapsed_assignments(&dedup, &affinity, cfg);

    let dense_entries = (n * (n + 1) / 2) as u64;
    let (dense_secs, ari_vs_dense) = if n <= DENSE_TIMED_MAX {
        // Small enough to run the cubic dense engine for real — and to
        // pin the collapsed partition to the dense oracle.
        let run_dense = || {
            let affinity = normalize_kernel(&kernel_matrix(&feats));
            spectral_cluster(&affinity, cfg)
                .expect("dense spectral succeeds")
                .assignments
        };
        let dense = run_dense();
        let ari = adjusted_rand_index(&dense, &collapsed);
        assert!(
            (ari - 1.0).abs() < 1e-12,
            "collapsed partition must match the dense oracle exactly (ARI {ari})"
        );
        (Some(best_of(3, run_dense)), Some(ari))
    } else {
        (None, None)
    };

    SizeResult {
        jobs: n,
        unique_shapes: m,
        dense_entries,
        dense_secs,
        unique_entries: affinity.packed().len() as u64,
        gram_secs,
        collapsed_secs,
        ari_vs_dense,
    }
}

fn write_bench_json(results: &[SizeResult]) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sizes = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            sizes.push_str(",\n");
        }
        let dense_timing = match r.dense_secs {
            Some(s) => format!("\"timed\": true, \"secs\": {s:.6}"),
            None => "\"timed\": false".to_string(),
        };
        let ari = match r.ari_vs_dense {
            Some(a) => format!(", \"ari_vs_dense\": {a:.1}"),
            None => String::new(),
        };
        write!(
            sizes,
            "    {{\n      \"jobs\": {}, \"unique_shapes\": {}, \"duplication\": {:.2},\n      \
             \"results\": [\n        \
             {{\"config\": \"dense\", \"affinity_entries\": {}, {}}},\n        \
             {{\"config\": \"collapsed\", \"affinity_entries\": {}, \"timed\": true, \
             \"gram_secs\": {:.6}, \"cluster_secs\": {:.6}{}}}\n      ],\n      \
             \"affinity_memory_fraction_of_dense\": {:.8}\n    }}",
            r.jobs,
            r.unique_shapes,
            r.jobs as f64 / r.unique_shapes as f64,
            r.dense_entries,
            dense_timing,
            r.unique_entries,
            r.gram_secs,
            r.collapsed_secs,
            ari,
            r.unique_entries as f64 / r.dense_entries as f64,
        )
        .unwrap();
    }
    let json = format!(
        "{{\n  \"bench\": \"cluster_engines\",\n  \"host_parallelism\": {host},\n  \"sizes\": [\n{sizes}\n  ],\n  \
         \"note\": \"best-of-3 wall clock; the collapsed partition is asserted ARI == 1.0 against \
         the dense oracle at 100 jobs. Dense entries with timed=false are exact packed-triangle \
         counts — running the O(jobs^2)-memory / O(jobs^3)-time dense engine at scale is \
         infeasible (the 100k-trace affinity alone is 8.4 GB). Collapsed affinity_entries count \
         the packed unique-shape triangle, which WL affinities fill: shapes sharing a task kind \
         have a positive dot. gram_secs covers unique_gram + in-place normalization, \
         cluster_secs Lanczos eigenpairs + weighted k-means over the deduplicated shapes; \
         affinity_memory_fraction_of_dense is the hardware-independent saving and shrinks as \
         duplication grows with trace size\"\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn bench_cluster(c: &mut Criterion) {
    let cfg = SpectralConfig::default();

    // Criterion sweep at the smallest scale: both engines head-to-head
    // on the paper-scale population.
    let feats = features_for(SIZES[0]);
    let dedup = ShapeDedup::from_features(&feats);
    let reps: Vec<&SparseVec> = dedup.representatives().iter().map(|&r| &feats[r]).collect();
    let affinity = unique_affinity(&reps);
    let dense_affinity = normalize_kernel(&kernel_matrix(&feats));
    let mut group = c.benchmark_group("cluster_engines");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("dense", feats.len()), |b| {
        b.iter(|| spectral_cluster(black_box(&dense_affinity), black_box(&cfg)))
    });
    group.bench_function(BenchmarkId::new("collapsed", feats.len()), |b| {
        b.iter(|| collapsed_assignments(black_box(&dedup), black_box(&affinity), black_box(&cfg)))
    });
    group.finish();

    let cap = max_jobs();
    let results: Vec<SizeResult> = SIZES
        .iter()
        .filter(|&&jobs| jobs <= cap)
        .map(|&jobs| measure_size(jobs, &cfg))
        .collect();
    write_bench_json(&results);
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
