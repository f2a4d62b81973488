//! Gram engine cost: brute-force pairwise dots vs the inverted feature
//! index vs fingerprint-dedup + inverted index (the pipeline's route:
//! `ShapeDedup`, then `unique_gram` filling the packed unique-shape
//! triangle), over synthetic traces at three population scales (100 /
//! 10k / 100k jobs).
//!
//! After the Criterion pass the bench writes `BENCH_kernel.json` at the
//! repository root. Wall-clock speedups on a 1-CPU host understate the
//! engine, so the JSON records the *work counters* (dot products /
//! candidate pairs) for every configuration — those drop superlinearly
//! with the duplication rate regardless of core count. Configurations
//! whose cost is O(jobs²) are only timed at the smallest scale (the
//! brute matrix alone would be 40 GB at 100k jobs); at larger scales
//! their counters are derived exactly from the deduplicated structure
//! and flagged `"timed": false`.
//!
//! At 100 jobs the dedup+inverted matrix, expanded to every job pair
//! through the job→shape map, is asserted **byte-for-byte** equal to the
//! brute-force oracle — the bench doubles as the exactness smoke test
//! wired into CI (`KERNEL_BENCH_MAX_JOBS=100`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dagscope_graph::{conflate, JobDag};
use dagscope_linalg::SymMatrix;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_wl::{kernel_matrix, unique_gram, GramStats, ShapeDedup, SparseVec, WlVectorizer};

/// Trace sizes swept; `KERNEL_BENCH_MAX_JOBS` caps the sweep (CI smoke
/// sets 100).
const SIZES: [usize; 3] = [100, 10_000, 100_000];

/// Largest population whose O(jobs²) oracle paths are run for real.
const ORACLE_TIMED_MAX: usize = 100;

fn max_jobs() -> usize {
    std::env::var("KERNEL_BENCH_MAX_JOBS")
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

/// Exact dot-product count an inverted index **without** dedup would
/// perform, derived from the deduplicated structure: every co-occurring
/// unique-shape pair expands to `m_a · m_b` job pairs (and each shape's
/// own block to `m(m+1)/2`). Co-occurrence is read off the unique Gram —
/// WL counts are nonnegative, so shapes share a feature iff their dot is
/// nonzero.
fn inverted_dots_without_dedup(dedup: &ShapeDedup, unique: &SymMatrix) -> u64 {
    let m = dedup.unique_count();
    let mult = dedup.multiplicities();
    let mut dots = 0u64;
    for a in 0..m {
        let ma = mult[a] as u64;
        dots += ma * (ma + 1) / 2;
        for (b, &mb) in mult.iter().enumerate().skip(a + 1) {
            if unique.get(a, b) != 0.0 {
                dots += ma * mb as u64;
            }
        }
    }
    dots
}

struct SizeResult {
    jobs: usize,
    unique_shapes: usize,
    brute_dots: u64,
    brute_secs: Option<f64>,
    inverted_dots: u64,
    inverted_secs: Option<f64>,
    dedup_stats: GramStats,
    dedup_secs: f64,
    fingerprint_secs: f64,
}

fn measure_size(jobs: usize) -> SizeResult {
    let feats = features_for(jobs);
    let n = feats.len();
    let fingerprint_secs = best_of(3, || ShapeDedup::from_features(&feats));
    let dedup = ShapeDedup::from_features(&feats);
    let m = dedup.unique_count();
    let reps: Vec<&SparseVec> = dedup.representatives().iter().map(|&r| &feats[r]).collect();
    let dedup_secs = best_of(3, || unique_gram(&reps));
    let (unique, dedup_stats) = unique_gram(&reps);

    let brute_dots = (n * (n + 1) / 2) as u64;
    let (brute_secs, inverted_dots, inverted_secs) = if n <= ORACLE_TIMED_MAX {
        // Small enough to run the quadratic paths for real — and to pin
        // the engine to the oracle byte-for-byte.
        let brute = kernel_matrix(&feats);
        let shape = dedup.shape_of();
        let brute_bytes: Vec<u8> = brute
            .packed()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let engine_bytes: Vec<u8> = (0..n)
            .flat_map(|i| (i..n).map(move |j| (i, j)))
            .flat_map(|(i, j)| unique.get(shape[i], shape[j]).to_le_bytes())
            .collect();
        assert_eq!(
            brute_bytes, engine_bytes,
            "dedup+inverted Gram must match the brute-force oracle byte-for-byte"
        );
        let all: Vec<&SparseVec> = feats.iter().collect();
        let (_, inv_stats) = unique_gram(&all);
        let brute_secs = best_of(3, || kernel_matrix(&feats));
        let inverted_secs = best_of(3, || unique_gram(&all));
        (
            Some(brute_secs),
            inv_stats.dot_products,
            Some(inverted_secs),
        )
    } else {
        (None, inverted_dots_without_dedup(&dedup, &unique), None)
    };

    SizeResult {
        jobs: n,
        unique_shapes: m,
        brute_dots,
        brute_secs,
        inverted_dots,
        inverted_secs,
        dedup_stats,
        dedup_secs,
        fingerprint_secs,
    }
}

fn write_bench_json(results: &[SizeResult]) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sizes = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            sizes.push_str(",\n");
        }
        let timing = |secs: Option<f64>| match secs {
            Some(s) => format!("\"timed\": true, \"secs\": {s:.6}"),
            None => "\"timed\": false".to_string(),
        };
        write!(
            sizes,
            "    {{\n      \"jobs\": {}, \"unique_shapes\": {}, \"duplication\": {:.2},\n      \
             \"results\": [\n        \
             {{\"config\": \"brute\", \"dot_products\": {}, {}}},\n        \
             {{\"config\": \"inverted\", \"dot_products\": {}, {}}},\n        \
             {{\"config\": \"dedup+inverted\", \"dot_products\": {}, \"candidate_pairs\": {}, \
             \"timed\": true, \"secs\": {:.6}, \"fingerprint_secs\": {:.6}}}\n      ],\n      \
             \"dedup_dot_fraction_of_brute\": {:.6}\n    }}",
            r.jobs,
            r.unique_shapes,
            r.jobs as f64 / r.unique_shapes as f64,
            r.brute_dots,
            timing(r.brute_secs),
            r.inverted_dots,
            timing(r.inverted_secs),
            r.dedup_stats.dot_products,
            r.dedup_stats.candidate_pairs,
            r.dedup_secs,
            r.fingerprint_secs,
            r.dedup_stats.dot_products as f64 / r.brute_dots as f64,
        )
        .unwrap();
    }
    let json = format!(
        "{{\n  \"bench\": \"kernel_gram\",\n  \"host_parallelism\": {host},\n  \"sizes\": [\n{sizes}\n  ],\n  \
         \"note\": \"best-of-3 wall clock; dedup+inverted output is asserted byte-identical to the \
         brute-force oracle at 100 jobs. Entries with timed=false are exact work counts derived \
         from the deduplicated structure — running those O(jobs^2) configurations at scale is \
         infeasible (the 100k brute Gram alone is 40 GB). On a 1-CPU host wall clock understates \
         the engine; dedup_dot_fraction_of_brute is the hardware-independent saving and shrinks \
         superlinearly as duplication grows with trace size\"\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn bench_kernel(c: &mut Criterion) {
    // Criterion sweep at the smallest scale: the three configurations
    // head-to-head on the paper-scale population.
    let feats = features_for(SIZES[0]);
    let dedup = ShapeDedup::from_features(&feats);
    let reps: Vec<&SparseVec> = dedup.representatives().iter().map(|&r| &feats[r]).collect();
    let mut group = c.benchmark_group("kernel_gram");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("brute", feats.len()), |b| {
        b.iter(|| kernel_matrix(black_box(&feats)))
    });
    group.bench_function(BenchmarkId::new("inverted", feats.len()), |b| {
        let all: Vec<&SparseVec> = feats.iter().collect();
        b.iter(|| unique_gram(black_box(&all)))
    });
    group.bench_function(BenchmarkId::new("dedup_inverted", feats.len()), |b| {
        b.iter(|| unique_gram(black_box(&reps)))
    });
    group.finish();

    let cap = max_jobs();
    let results: Vec<SizeResult> = SIZES
        .iter()
        .filter(|&&jobs| jobs <= cap)
        .map(|&jobs| measure_size(jobs))
        .collect();
    write_bench_json(&results);
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
