//! Ablation benches for the design choices DESIGN.md calls out:
//! WL iteration depth, conflation on/off, worker-thread scaling, and the
//! exact-edit-distance baseline the paper rejects.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dagscope_cluster::{spectral_cluster_collapsed, SpectralConfig};
use dagscope_graph::{conflate, JobDag};
use dagscope_par::ParScope;
use dagscope_trace::filter::{stratified_sample, SampleCriteria};
use dagscope_trace::gen::{build_shape, GeneratorConfig, ShapeKind, TraceGenerator};
use dagscope_wl::{
    ged, kernel_matrix, normalize_kernel, normalize_kernel_in_place, unique_gram, ShapeDedup,
    SparseVec, WlVectorizer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample_dags(n: usize, seed: u64) -> Vec<JobDag> {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: n * 20,
        seed,
        ..Default::default()
    })
    .generate();
    let set = trace.job_set();
    let criteria = SampleCriteria::default();
    let eligible = criteria.filter(&set);
    stratified_sample(&eligible, n, seed)
        .into_iter()
        .map(|j| JobDag::from_job(j).unwrap())
        .collect()
}

/// Kernel cost as a function of WL depth h ∈ 1..=5 (quality/cost knob).
fn ablate_wl_iterations(c: &mut Criterion) {
    let dags = sample_dags(100, 42);
    let mut group = c.benchmark_group("ablate_wl_iterations");
    for h in 1..=5usize {
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, &h| {
            b.iter(|| {
                let mut wl = WlVectorizer::new(h);
                let feats = wl.transform_all(black_box(&dags));
                black_box(normalize_kernel(&kernel_matrix(&feats)))
            })
        });
    }
    group.finish();
    // Report the quality side: vocabulary growth with h.
    for h in 1..=5usize {
        let mut wl = WlVectorizer::new(h);
        let _ = wl.transform_all(&dags);
        println!("h={h}: WL vocabulary {} labels", wl.vocabulary_size());
    }
}

/// Kernel + clustering with and without node conflation, through the
/// pipeline's route: shape dedup, packed unique-shape Gram, collapsed
/// spectral clustering.
fn ablate_conflation(c: &mut Criterion) {
    let raw = sample_dags(100, 7);
    let merged: Vec<JobDag> = raw.iter().map(conflate::conflate).collect();
    let mut group = c.benchmark_group("ablate_conflation");
    for (label, dags) in [("raw", &raw), ("conflated", &merged)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), dags, |b, dags| {
            b.iter(|| {
                let mut wl = WlVectorizer::new(3);
                let feats = wl.transform_all(black_box(dags));
                let dedup = ShapeDedup::from_features(&feats);
                let reps: Vec<&SparseVec> =
                    dedup.representatives().iter().map(|&r| &feats[r]).collect();
                let (mut sim, _) = unique_gram(&reps);
                normalize_kernel_in_place(&mut sim);
                let (res, _) =
                    spectral_cluster_collapsed(&sim, &dedup.weights(), &SpectralConfig::default())
                        .unwrap();
                black_box(res.assignments.len())
            })
        });
    }
    group.finish();
    let raw_nodes: usize = raw.iter().map(JobDag::len).sum();
    let merged_nodes: usize = merged.iter().map(JobDag::len).sum();
    println!(
        "conflation shrinks the sample from {raw_nodes} to {merged_nodes} nodes ({:.1} %)",
        100.0 * merged_nodes as f64 / raw_nodes as f64
    );
}

/// Kernel-matrix assembly under 1, 2, 4, 8 worker threads.
fn ablate_parallel(c: &mut Criterion) {
    let dags = sample_dags(200, 3);
    let mut wl = WlVectorizer::new(3);
    let feats = wl.transform_all(&dags);
    let mut group = c.benchmark_group("ablate_parallel_kernel_matrix");
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let _scope = ParScope::new(threads);
                b.iter(|| black_box(kernel_matrix(black_box(&feats))))
            },
        );
    }
    group.finish();
}

/// Exact edit distance vs WL on growing graph sizes — the exponential
/// cliff that motivates the kernel approach (Section V-D).
fn ablate_ged_vs_wl(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("ablate_ged_vs_wl");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let a = JobDag::from_plan("a", &build_shape(&mut rng, ShapeKind::InvertedTriangle, n));
        let b = JobDag::from_plan("b", &build_shape(&mut rng, ShapeKind::Diamond, n));
        group.bench_with_input(BenchmarkId::new("ged", n), &n, |bch, _| {
            bch.iter(|| black_box(ged::edit_distance(black_box(&a), black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("wl", n), &n, |bch, _| {
            bch.iter(|| black_box(dagscope_wl::wl_kernel(black_box(&a), black_box(&b), 3)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = ablate_wl_iterations, ablate_conflation, ablate_parallel, ablate_ged_vs_wl,
}
criterion_main!(benches);
