//! The pipeline's output bundle.

use std::collections::HashMap;
use std::sync::Arc;

use dagscope_cluster::{GroupModel, LanczosCounters};
use dagscope_graph::conflate::conflate;
use dagscope_graph::metrics::JobFeatures;
use dagscope_graph::{DagShape, JobDag};
use dagscope_sched::{GroupPredictor, JobHint, ProfileBuilder, SimJob};
use dagscope_trace::stats::TraceStats;
use dagscope_wl::{GramStats, KernelCache, SparseVec};

use crate::{GroupAnalysis, PipelineConfig, Similarity, StageTimings};

/// Everything one pipeline run produces. The [`crate::figures`] module
/// renders individual paper figures from this bundle.
#[derive(Debug, Clone)]
pub struct Report {
    /// The configuration that produced this report.
    pub config: PipelineConfig,
    /// Trace-level statistics (E10).
    pub stats: TraceStats,
    /// Names of the sampled jobs, in sample order.
    pub sample_names: Vec<String>,
    /// Sampled job DAGs as reconstructed from task names.
    pub raw_dags: Vec<JobDag>,
    /// The same DAGs after node conflation.
    pub conflated_dags: Vec<JobDag>,
    /// Structural features of the raw DAGs (Fig 4).
    pub features_raw: Vec<JobFeatures>,
    /// Structural features of the conflated DAGs (Fig 5).
    pub features_conflated: Vec<JobFeatures>,
    /// WL φ vectors of the kernel-stage DAGs.
    pub wl_features: Vec<SparseVec>,
    /// Normalized pairwise WL similarity (Fig 7), as the packed
    /// unique-shape triangle plus the job→shape map.
    pub similarity: Similarity,
    /// Ascending eigenvalues of the normalized Laplacian (diagnostics).
    pub laplacian_eigenvalues: Vec<f64>,
    /// What the Lanczos solve behind those eigenvalues did.
    pub lanczos: LanczosCounters,
    /// Spectral grouping and per-group statistics (Figs 8–9).
    pub groups: GroupAnalysis,
    /// Cost counters of the Gram engine (always `Some`).
    pub gram: Option<GramStats>,
    /// Per-stage wall-clock times for this run.
    pub timings: StageTimings,
}

impl Report {
    /// Features of the DAG population the kernel stage actually used.
    pub fn kernel_features(&self) -> &[JobFeatures] {
        if self.config.conflate {
            &self.features_conflated
        } else {
            &self.features_raw
        }
    }

    /// The DAGs the kernel stage actually used.
    pub fn kernel_dags(&self) -> &[JobDag] {
        if self.config.conflate {
            &self.conflated_dags
        } else {
            &self.raw_dags
        }
    }

    /// The group model as a scheduler's predictor for `jobs`. Fits the
    /// group centroids on the sample, profiles each group's work and
    /// critical path from the sampled DAGs, and classifies every job
    /// through the frozen WL vocabulary — the same embed-then-classify
    /// chain `/v1/classify` runs online. The verdict depends only on a
    /// job's shape, so each distinct shape (jobs built through one
    /// [`ShapeTable`](dagscope_graph::ShapeTable) share one) is conflated,
    /// embedded and classified once.
    pub fn group_predictor(&self, jobs: &[SimJob]) -> GroupPredictor {
        let k = self.groups.group_count();
        let model = GroupModel::fit(&self.groups.assignments, k, &self.wl_features);
        let cache = KernelCache::from_dags(self.config.wl_iterations, self.kernel_dags());
        let mut labels = vec!['?'; k];
        for g in &self.groups.groups {
            labels[g.cluster] = g.label;
        }
        let mut builder = ProfileBuilder::new(k);
        for (i, dag) in self.raw_dags.iter().enumerate() {
            let sim = SimJob::from_dag(dag.name.clone(), 0, dag.clone());
            builder.observe(self.groups.assignments[i], &sim);
        }
        // Each job's shape, numbered in order of first appearance, and the
        // first job of each.
        let mut seen: HashMap<*const DagShape, usize> = HashMap::new();
        let mut firsts = Vec::new();
        let shape_of: Vec<usize> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                *seen.entry(Arc::as_ptr(job.dag.shape())).or_insert_with(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
            })
            .collect();
        let hints: Vec<JobHint> = dagscope_par::par_map(&firsts, |&i| {
            let dag = &jobs[i].dag;
            let probe = if self.config.conflate {
                cache.embed(&conflate(dag))
            } else {
                cache.embed(dag)
            };
            let c = model.classify(&probe);
            JobHint {
                cluster: c.cluster,
                confidence: c.confidence,
            }
        });
        let mut predictor = GroupPredictor::new(builder.finish(&labels));
        for (job, &shape) in jobs.iter().zip(&shape_of) {
            predictor.insert_hint(job.name.as_str(), hints[shape]);
        }
        predictor
    }

    /// Multi-line executive summary: headline trace statistics plus the
    /// group table.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "== trace ==").unwrap();
        s.push_str(&self.stats.render());
        writeln!(s, "\n== sample ==").unwrap();
        writeln!(s, "jobs sampled:     {}", self.sample_names.len()).unwrap();
        let sizes: std::collections::BTreeSet<usize> =
            self.features_raw.iter().map(|f| f.size).collect();
        writeln!(s, "size types:       {}", sizes.len()).unwrap();
        writeln!(
            s,
            "\n== groups (silhouette {:.3}) ==",
            self.groups.silhouette
        )
        .unwrap();
        writeln!(
            s,
            "{:<6} {:>5} {:>6} {:>9} {:>7} {:>7} representative",
            "group", "jobs", "frac", "mean size", "chain%", "short%"
        )
        .unwrap();
        for g in &self.groups.groups {
            writeln!(
                s,
                "{:<6} {:>5} {:>5.1}% {:>9.2} {:>6.1}% {:>6.1}% {}",
                g.label,
                g.population,
                100.0 * g.fraction,
                g.mean_size,
                100.0 * g.chain_fraction,
                100.0 * g.short_fraction,
                g.representative
            )
            .unwrap();
        }
        s
    }

    /// Markdown paper-vs-measured record for this run — the auto-generated
    /// core of EXPERIMENTS.md.
    pub fn markdown(&self) -> String {
        use std::fmt::Write;
        let census = crate::figures::pattern_census_of(&self.raw_dags);
        let sim = crate::figures::fig7_summary(&self.similarity);
        let h = crate::figures::fig3_conflation(self);
        let a = &self.groups.groups[0];
        let max_mean = self
            .groups
            .groups
            .iter()
            .map(|g| g.mean_size)
            .fold(0.0f64, f64::max);

        let mut s = String::new();
        writeln!(s, "## Reproduction record (seed {})\n", self.config.seed).unwrap();
        writeln!(s, "| Claim | Paper | Measured |").unwrap();
        writeln!(s, "|---|---|---|").unwrap();
        writeln!(
            s,
            "| dependency-bearing batch jobs | ~50 % | {:.1} % |",
            100.0 * self.stats.dag_fraction
        )
        .unwrap();
        writeln!(
            s,
            "| their batch-resource share | 70–80 % | {:.1} % CPU |",
            100.0 * self.stats.dag_cpu_share
        )
        .unwrap();
        writeln!(
            s,
            "| straight-chain share (sample) | 58 % | {:.1} % |",
            100.0 * census.fraction("straight-chain")
        )
        .unwrap();
        writeln!(
            s,
            "| inverted-triangle share (sample) | 37 % | {:.1} % |",
            100.0 * census.fraction("inverted-triangle")
        )
        .unwrap();
        writeln!(
            s,
            "| conflation CDF(size ≤ 3) shift | increases | {:.0} % → {:.0} % |",
            100.0 * h.cdf(false, 3),
            100.0 * h.cdf(true, 3)
        )
        .unwrap();
        writeln!(
            s,
            "| similarity scores | 0–1, diag 1 | mean {:.3}, {} identical pairs |",
            sim.mean, sim.identical_pairs
        )
        .unwrap();
        writeln!(
            s,
            "| dominant group | A ≈ 75 %, short-job led | {} = {:.0} %, {:.0} % short, {:.0} % chains |",
            a.label,
            100.0 * a.fraction,
            100.0 * a.short_fraction,
            100.0 * a.chain_fraction
        )
        .unwrap();
        writeln!(
            s,
            "| large-job groups separate | B–E mean sizes grow | max group mean size {max_mean:.1} vs A {:.1} |",
            a.mean_size
        )
        .unwrap();
        writeln!(
            s,
            "| clustering quality | (not reported) | silhouette {:.3} |",
            self.groups.silhouette
        )
        .unwrap();
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::{Pipeline, PipelineConfig};

    #[test]
    fn summary_renders_groups() {
        let report = Pipeline::new(PipelineConfig {
            jobs: 300,
            sample: 30,
            seed: 3,
            ..Default::default()
        })
        .run()
        .unwrap();
        let s = report.summary();
        assert!(s.contains("== groups"));
        assert!(s.contains('A'));
        assert!(s.lines().count() > 10);
        assert_eq!(report.kernel_dags().len(), 30);
        assert_eq!(report.kernel_features().len(), 30);
    }
}
