//! The paper's motivating application: use topological clustering of past
//! jobs to foresee the resource demands and execution time of *incoming*
//! jobs, informing scheduling decisions.
//!
//! Flow: characterize a historical sample into 5 groups → for each new job,
//! embed its DAG with the shared WL vocabulary, find the most similar
//! historical group (nearest medoid by kernel similarity), and predict its
//! resource volume / makespan from group statistics. Prediction error is
//! reported against the generator's ground truth.
//!
//! ```text
//! cargo run --release --example scheduler_advisor -- [incoming] [seed]
//! ```

use dagscope::core::{Pipeline, PipelineConfig};
use dagscope::graph::metrics::JobFeatures;
use dagscope::graph::{conflate, JobDag};
use dagscope::trace::filter::SampleCriteria;
use dagscope::trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope::wl::KernelCache;

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[values.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let incoming_count: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(50);
    let seed: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(42);

    // 1) Historical characterization.
    let report = Pipeline::new(PipelineConfig {
        jobs: 3_000,
        sample: 120,
        seed,
        ..Default::default()
    })
    .run()
    .expect("pipeline failed");
    println!("historical groups:\n{}", report.summary());

    // Index the historical sample in an incremental kernel cache, so new
    // jobs embed against the same label vocabulary in O(n).
    let cache = KernelCache::from_dags(report.config.wl_iterations, report.kernel_dags());

    // Per-group medians of the quantities a scheduler wants to foresee.
    let hist_features: &[JobFeatures] = report.kernel_features();
    let k = report.groups.group_count();
    let mut group_cpu: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut group_makespan: Vec<Vec<f64>> = vec![Vec::new(); k];
    for (i, f) in hist_features.iter().enumerate() {
        let c = report.groups.assignments[i];
        group_cpu[c].push(f.cpu_volume);
        group_makespan[c].push(f.min_makespan as f64);
    }
    let cpu_pred: Vec<f64> = group_cpu.iter_mut().map(|v| median(v)).collect();
    let makespan_pred: Vec<f64> = group_makespan.iter_mut().map(|v| median(v)).collect();

    // 2) Incoming jobs: a fresh trace the characterization never saw.
    let incoming_trace = TraceGenerator::new(GeneratorConfig {
        jobs: incoming_count * 6,
        seed: seed ^ 0xDEAD_BEEF,
        ..Default::default()
    })
    .generate();
    let incoming_set = incoming_trace.job_set();
    let criteria = SampleCriteria::default();
    let incoming: Vec<_> = criteria
        .filter(&incoming_set)
        .into_iter()
        .take(incoming_count)
        .collect();
    println!("advising on {} incoming jobs…\n", incoming.len());

    // 3) Assign each incoming job to its most similar historical group.
    let mut cpu_err = Vec::new();
    let mut makespan_err = Vec::new();
    let mut per_group = vec![0usize; k];
    for job in &incoming {
        let dag = conflate::conflate(&JobDag::from_job(job).expect("filtered job builds"));
        let sims = cache.probe(&dag);
        // Nearest group = the one whose members are most similar on mean.
        let mut best = (0usize, f64::NEG_INFINITY);
        for c in 0..k {
            let mut total = 0.0;
            let mut count = 0usize;
            for (i, s) in sims.iter().enumerate() {
                if report.groups.assignments[i] == c {
                    total += s;
                    count += 1;
                }
            }
            if count > 0 {
                let mean = total / count as f64;
                if mean > best.1 {
                    best = (c, mean);
                }
            }
        }
        let (group, _) = best;
        per_group[group] += 1;

        let truth = JobFeatures::extract(&dag);
        if truth.cpu_volume > 0.0 {
            cpu_err.push((cpu_pred[group] - truth.cpu_volume).abs() / truth.cpu_volume);
        }
        if truth.min_makespan > 0 {
            makespan_err.push(
                (makespan_pred[group] - truth.min_makespan as f64).abs()
                    / truth.min_makespan as f64,
            );
        }
    }

    let per_label: Vec<String> = report
        .groups
        .groups
        .iter()
        .map(|g| format!("{} {}", g.label, per_group[g.cluster]))
        .collect();
    println!("incoming jobs per matched group: {}", per_label.join(", "));
    println!(
        "median relative error — CPU volume: {:.0} %, makespan lower bound: {:.0} %",
        100.0 * median(&mut cpu_err),
        100.0 * median(&mut makespan_err)
    );
    println!(
        "\n(the advisor only sees topology; errors of this order are what the\n\
         paper's future-work section proposes to reduce by adding resource\n\
         analysis to the topological grouping)"
    );
}
