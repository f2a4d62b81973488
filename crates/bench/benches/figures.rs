//! One Criterion bench per paper figure: each target regenerates the
//! figure's underlying data end to end, so `cargo bench -p dagscope-bench
//! --bench figures` both times and reproduces the full evaluation.
//!
//! The produced numbers (group table, censuses, similarity summary) are
//! printed once per run — see EXPERIMENTS.md for the paper-vs-measured
//! record.

use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dagscope_core::{figures, Pipeline, PipelineConfig, Report};
use dagscope_graph::metrics::JobFeatures;
use dagscope_graph::{conflate, JobDag};
use dagscope_trace::filter::{stratified_sample, SampleCriteria};
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::{Job, JobSet};
use dagscope_wl::{normalize_kernel_in_place, unique_gram, ShapeDedup, SparseVec, WlVectorizer};

fn base_config() -> PipelineConfig {
    PipelineConfig {
        jobs: 2_000,
        sample: 100,
        seed: 42,
        ..Default::default()
    }
}

/// The shared pipeline report (computed once; benches measure stages).
fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| Pipeline::new(base_config()).run().expect("pipeline"))
}

/// The shared filtered sample of jobs.
fn sample() -> &'static Vec<Job> {
    static SAMPLE: OnceLock<Vec<Job>> = OnceLock::new();
    SAMPLE.get_or_init(|| {
        let trace = TraceGenerator::new(base_config().generator()).generate();
        let set: JobSet = trace.job_set();
        let criteria = SampleCriteria::default();
        let eligible = criteria.filter(&set);
        stratified_sample(&eligible, 100, 42)
            .into_iter()
            .cloned()
            .collect()
    })
}

fn bench_fig2_dag_construction(c: &mut Criterion) {
    let jobs = sample();
    c.bench_function("fig2_dag_construction_100_jobs", |b| {
        b.iter(|| {
            let dags: Vec<JobDag> = jobs
                .iter()
                .map(|j| JobDag::from_job(black_box(j)).unwrap())
                .collect();
            black_box(dags.len())
        })
    });
    println!("{}", figures::fig2_sample_dags(report(), 3));
}

fn bench_fig3_conflation(c: &mut Criterion) {
    let dags: Vec<JobDag> = sample()
        .iter()
        .map(|j| JobDag::from_job(j).unwrap())
        .collect();
    c.bench_function("fig3_conflation_100_jobs", |b| {
        b.iter(|| {
            let merged: Vec<JobDag> = dags.iter().map(conflate::conflate).collect();
            black_box(merged.len())
        })
    });
    println!("{}", figures::fig3_conflation(report()).render());
}

fn bench_fig4_fig5_features(c: &mut Criterion) {
    let r = report();
    c.bench_function("fig4_features_before_conflation", |b| {
        b.iter(|| {
            let f: Vec<JobFeatures> = r
                .raw_dags
                .iter()
                .map(|d| JobFeatures::extract(black_box(d)))
                .collect();
            black_box(figures::fig4_size_groups(r).len() + f.len())
        })
    });
    c.bench_function("fig5_features_after_conflation", |b| {
        b.iter(|| {
            let f: Vec<JobFeatures> = r
                .conflated_dags
                .iter()
                .map(|d| JobFeatures::extract(black_box(d)))
                .collect();
            black_box(f.len())
        })
    });
    println!(
        "{}",
        figures::render_size_groups("Fig 4 (before conflation)", &figures::fig4_size_groups(r))
    );
    println!(
        "{}",
        figures::render_size_groups("Fig 5 (after conflation)", &figures::fig5_size_groups(r))
    );
}

fn bench_fig6_type_census(c: &mut Criterion) {
    let r = report();
    c.bench_function("fig6_type_census", |b| {
        b.iter(|| black_box(figures::fig6_type_distribution(black_box(r)).len()))
    });
    let rows = figures::fig6_type_distribution(r);
    // Print a digest rather than all 100 rows.
    let (m, j, rr): (u32, u32, u32) = rows.iter().fold((0, 0, 0), |acc, row| {
        (
            acc.0 + row.counts.m,
            acc.1 + row.counts.j,
            acc.2 + row.counts.r,
        )
    });
    println!("Fig 6 digest over {} jobs: M={m} J={j} R={rr}", rows.len());
}

fn bench_fig7_kernel_matrix(c: &mut Criterion) {
    let r = report();
    let dags = r.kernel_dags().to_vec();
    c.bench_function("fig7_wl_features_h3", |b| {
        b.iter(|| {
            let mut wl = WlVectorizer::new(3);
            black_box(wl.transform_all(black_box(&dags)).len())
        })
    });
    let mut wl = WlVectorizer::new(3);
    let feats = wl.transform_all(&dags);
    // The pipeline's route to the Fig 7 similarity: shape dedup, the
    // packed unique-shape Gram, in-place normalization.
    c.bench_function("fig7_similarity_100", |b| {
        b.iter(|| {
            let dedup = ShapeDedup::from_features(black_box(&feats));
            let reps: Vec<&SparseVec> =
                dedup.representatives().iter().map(|&r| &feats[r]).collect();
            let (mut sim, _) = unique_gram(&reps);
            normalize_kernel_in_place(&mut sim);
            black_box(sim)
        })
    });
    let s = figures::fig7_summary(&r.similarity);
    println!(
        "Fig 7 similarity summary: mean {:.3} min {:.3} max {:.3} identical pairs {}",
        s.mean, s.min, s.max, s.identical_pairs
    );
}

fn bench_fig8_fig9_clustering(c: &mut Criterion) {
    let r = report();
    // The pipeline's clustering: the unique-shape affinity, each shape
    // weighted by its job count.
    let mut weights = vec![0.0; r.similarity.unique.n()];
    for &s in &r.similarity.shape_of {
        weights[s] += 1.0;
    }
    c.bench_function("fig8_fig9_spectral_clustering_100", |b| {
        b.iter(|| {
            let res = dagscope_cluster::spectral_cluster_collapsed(
                black_box(&r.similarity.unique),
                &weights,
                &dagscope_cluster::SpectralConfig::default(),
            )
            .unwrap();
            black_box(res.0.assignments.len())
        })
    });
    println!("{}", figures::fig8_representatives(r));
    println!(
        "{}",
        figures::render_group_properties(&figures::fig9_group_properties(r))
    );
    println!("{}", r.summary());
}

fn bench_pattern_census(c: &mut Criterion) {
    // E6: the Section V-B shape census over a larger population.
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: 5_000,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let set = trace.job_set();
    let criteria = SampleCriteria::default();
    let dags: Vec<JobDag> = criteria
        .filter(&set)
        .into_iter()
        .map(|j| JobDag::from_job(j).unwrap())
        .collect();
    c.bench_function("pattern_census_full_trace", |b| {
        b.iter(|| black_box(figures::pattern_census_of(black_box(&dags)).total))
    });
    println!(
        "{}",
        figures::render_pattern_census(&figures::pattern_census_of(&dags))
    );
}

fn bench_e10_trace_stats(c: &mut Criterion) {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs: 5_000,
        seed: 42,
        ..Default::default()
    })
    .generate();
    let set = trace.job_set();
    c.bench_function("e10_trace_stats_5000_jobs", |b| {
        b.iter(|| black_box(dagscope_trace::stats::TraceStats::compute(black_box(&set))))
    });
    print!(
        "{}",
        dagscope_trace::stats::TraceStats::compute(&set).render()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_fig2_dag_construction,
        bench_fig3_conflation,
        bench_fig4_fig5_features,
        bench_fig6_type_census,
        bench_fig7_kernel_matrix,
        bench_fig8_fig9_clustering,
        bench_pattern_census,
        bench_e10_trace_stats,
}
criterion_main!(benches);
