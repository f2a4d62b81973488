//! The end-to-end characterization pipeline.

use dagscope_cluster::{
    expand_assignments, spectral_cluster_collapsed, ClusterCount, SpectralConfig,
};
use dagscope_graph::metrics::JobFeatures;
use dagscope_graph::{BuildError, JobDag, ShapeTable, TaskRows};
use dagscope_trace::filter::{stratified_sample, SampleCriteria};
use dagscope_trace::gen::TraceGenerator;
use dagscope_trace::stats::TraceStats;
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::{Job, JobSet};

use dagscope_wl::{
    normalize_kernel_in_place, unique_gram, ShapeDedup, SpVectorizer, SparseVec, WlVectorizer,
};
use std::io::{Read, Seek};

use std::time::Instant;

use crate::groups::GroupAnalysis;
use crate::{PipelineConfig, Report, Similarity, StageTimings};

/// Orchestrates trace synthesis → filtering → DAGs → WL kernel →
/// spectral groups, producing a [`Report`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    cfg: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline with the given configuration.
    pub fn new(cfg: PipelineConfig) -> Pipeline {
        Pipeline { cfg }
    }

    /// Access the configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Run on a synthetic trace generated from the config.
    pub fn run(&self) -> Result<Report, String> {
        let trace = TraceGenerator::new(self.cfg.generator()).generate();
        self.run_on(&trace.job_set())
    }

    /// Run on an existing job population (e.g. parsed from the real trace
    /// CSVs) — the synthetic generator is bypassed entirely.
    pub fn run_on(&self, jobs: &JobSet) -> Result<Report, String> {
        let run_start = Instant::now();
        let mut timings = StageTimings::default();

        let clock = Instant::now();
        let stats = TraceStats::compute(jobs);
        timings.stats = clock.elapsed();

        // Integrity + availability filters, then the variability-stratified
        // sample.
        let clock = Instant::now();
        let criteria = SampleCriteria::default();
        let eligible: Vec<&Job> = criteria.filter(jobs);
        if eligible.is_empty() {
            return Err("no job passed the integrity/availability filters".to_string());
        }
        let sample: Vec<&Job> = stratified_sample(&eligible, self.cfg.sample, self.cfg.seed);
        let names: Vec<String> = sample.iter().map(|j| j.name.clone()).collect();
        timings.sample = clock.elapsed();

        let clock = Instant::now();
        let dags = build_sample(&names, |s| sample[s].tasks.as_slice())?;
        timings.dags = clock.elapsed();

        self.finish(run_start, timings, stats, names, dags)
    }

    /// Run on a streamed trace: statistics come from the scan's running
    /// accumulator, the stratified sample is picked from the bare size
    /// column ([`StreamedTrace::sample_eligible`] consumes the identical
    /// random stream as the batch sampler), and only the sampled jobs are
    /// replayed, in file order, into a flat row table that the DAGs are
    /// built from — the full population never exists in memory at once,
    /// and no sampled job becomes a [`Job`].
    ///
    /// Produces a [`Report`] bit-identical to [`Pipeline::run_on`] over the
    /// batch-ingested (suspect-stripped) population of the same trace.
    pub fn run_streamed<R: Read + Seek>(
        &self,
        streamed: &mut StreamedTrace<R>,
    ) -> Result<Report, String> {
        let run_start = Instant::now();
        let mut timings = StageTimings::default();

        let clock = Instant::now();
        let stats = streamed.stats();
        timings.stats = clock.elapsed();

        let clock = Instant::now();
        if streamed.eligible_count() == 0 {
            return Err("no job passed the integrity/availability filters".to_string());
        }
        let picked = streamed.sample_eligible(self.cfg.sample, self.cfg.seed);
        let rows = streamed.replay_sample(&picked).map_err(|e| e.to_string())?;
        timings.sample = clock.elapsed();

        let clock = Instant::now();
        let dags = build_sample(rows.names(), |s| rows.job(s))?;
        let names = rows.into_names();
        timings.dags = clock.elapsed();

        self.finish(run_start, timings, stats, names, dags)
    }

    /// The shared back half of every entry point: everything after DAG
    /// construction and conflation (features, WL embedding, Gram
    /// assembly, spectral grouping) depends only on the sampled jobs'
    /// names and DAGs, so batch and streaming ingestion converge here.
    fn finish(
        &self,
        run_start: Instant,
        mut timings: StageTimings,
        stats: TraceStats,
        sample_names: Vec<String>,
        dags: SampleDags,
    ) -> Result<Report, String> {
        let SampleDags {
            raw: raw_dags,
            conflated,
            shape_of,
            firsts,
        } = dags;

        // Features before and after conflation (Figs 4 and 5).
        let clock = Instant::now();
        let features_raw: Vec<JobFeatures> = dagscope_par::par_map(&raw_dags, JobFeatures::extract);
        let features_conflated: Vec<JobFeatures> =
            dagscope_par::par_map(&conflated, JobFeatures::extract);
        timings.features = clock.elapsed();

        // Kernel embedding + normalized similarity matrix (Fig 7). The
        // base kernel of eq. (1) is configurable: WL subtree (default) or
        // shortest-path. Both read only a DAG's shape, so each shape is
        // embedded once, in the order its first job appears: a later job
        // of the same shape would add no label and get the same vector.
        let kernel_input: &[JobDag] = if self.cfg.conflate {
            &conflated
        } else {
            &raw_dags
        };
        let clock = Instant::now();
        let shapes: Vec<JobDag> = firsts.iter().map(|&s| kernel_input[s].clone()).collect();
        let shape_features = match self.cfg.base_kernel {
            crate::BaseKernel::WlSubtree => {
                let mut wl = WlVectorizer::new(self.cfg.wl_iterations);
                wl.transform_all(&shapes)
            }
            crate::BaseKernel::ShortestPath => {
                let mut sp = SpVectorizer::new();
                sp.transform_all(&shapes)
            }
        };
        let wl_features: Vec<SparseVec> = shape_of
            .iter()
            .map(|&k| shape_features[k].clone())
            .collect();
        timings.embed = clock.elapsed();

        // Gram assembly: collapse bitwise-identical φ vectors to unique
        // shapes and scan the feature→shape inverted index into the packed
        // unique-shape affinity; the n×n job matrix is never built.
        let clock = Instant::now();
        let dedup = ShapeDedup::from_features(&wl_features);
        timings.dedup = clock.elapsed();

        let clock = Instant::now();
        let reps: Vec<&SparseVec> = dedup
            .representatives()
            .iter()
            .map(|&i| &wl_features[i])
            .collect();
        let (mut unique, mut gram_stats) = unique_gram(&reps);
        // The assembler only sees unique shapes; restore the
        // population-level counters.
        gram_stats.jobs = wl_features.len();
        gram_stats.unique_shapes = dedup.unique_count();
        normalize_kernel_in_place(&mut unique);
        timings.kernel = clock.elapsed();

        // Spectral grouping (Figs 8–9). Collapsed clustering assigns whole
        // shapes, so a fixed group count is capped at the shape count.
        let clock = Instant::now();
        let k = match self.cfg.clusters {
            ClusterCount::Fixed(k) => ClusterCount::Fixed(k.min(dedup.unique_count())),
            eigengap => eigengap,
        };
        let spectral_cfg = SpectralConfig {
            k,
            seed: self.cfg.seed,
            n_init: 10,
        };
        let weights = dedup.weights();
        let (mut spectral, lanczos) = spectral_cluster_collapsed(&unique, &weights, &spectral_cfg)?;
        spectral.assignments = expand_assignments(dedup.shape_of(), &spectral.assignments);
        // Group statistics describe the jobs as they ran (raw structure):
        // the similarity stage may look at conflated DAGs, but Fig 9's
        // sizes / critical paths / shape shares are properties of the
        // original task graphs.
        let groups = GroupAnalysis::build_collapsed(
            &spectral.assignments,
            spectral.k,
            &raw_dags,
            &features_raw,
            &unique,
            dedup.shape_of(),
            &weights,
        );
        timings.cluster = clock.elapsed();
        let similarity = Similarity {
            unique,
            shape_of: dedup.shape_of().to_vec(),
        };
        timings.total = run_start.elapsed();

        Ok(Report {
            config: self.cfg.clone(),
            stats,
            sample_names,
            raw_dags,
            conflated_dags: conflated,
            features_raw,
            features_conflated,
            wl_features,
            similarity,
            laplacian_eigenvalues: spectral.eigenvalues,
            lanczos,
            groups,
            gram: Some(gram_stats),
            timings,
        })
    }
}

/// The sampled jobs' DAGs, in sample order, built through one
/// [`ShapeTable`].
struct SampleDags {
    raw: Vec<JobDag>,
    conflated: Vec<JobDag>,
    /// Each job's table entry; entries are numbered in order of first
    /// appearance.
    shape_of: Vec<usize>,
    /// The first job of each entry.
    firsts: Vec<usize>,
}

/// Build the raw and conflated DAG of every sampled job: key each job's
/// task names through one [`ShapeTable`] in sample order, which builds
/// each distinct list once, then gather every job's attributes in
/// parallel (the first gather of an entry's conflated DAG conflates its
/// shape). Fails naming the first job in sample order whose names do not
/// form a DAG.
fn build_sample<R: TaskRows>(
    names: &[String],
    job: impl Fn(usize) -> R + Sync,
) -> Result<SampleDags, String> {
    let mut table = ShapeTable::new();
    let mut shape_of = Vec::with_capacity(names.len());
    let mut firsts = Vec::new();
    for (s, name) in names.iter().enumerate() {
        let id = table.intern(&job(s));
        if id == firsts.len() {
            if let Err(e) = table.get(id) {
                return Err(not_a_dag(name, e.clone()));
            }
            firsts.push(s);
        }
        shape_of.push(id);
    }
    let entry = |s: usize| table.get(shape_of[s]).expect("failed entries returned");
    let raw = dagscope_par::par_map_with(names, |s, name| entry(s).raw(name.clone(), &job(s)));
    let conflated = dagscope_par::par_map_with(&raw, |s, dag| entry(s).conflated(dag));
    Ok(SampleDags {
        raw,
        conflated,
        shape_of,
        firsts,
    })
}

/// The error for a sampled job whose task names do not form a DAG.
/// Integrity only checks that every task name parses, so such a job (a
/// dangling parent, a repeated id, a cycle) is still sampled, and the run
/// fails naming the first one in sample order.
fn not_a_dag(name: &str, e: BuildError) -> String {
    format!("job {name} does not form a DAG: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_cluster::spectral_cluster;
    use dagscope_cluster::validation::is_partition;
    use dagscope_wl::{kernel_matrix, normalize_kernel};

    fn small_cfg() -> PipelineConfig {
        PipelineConfig {
            jobs: 400,
            sample: 40,
            seed: 7,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let report = Pipeline::new(small_cfg()).run().unwrap();
        assert_eq!(report.sample_names.len(), 40);
        assert_eq!(report.raw_dags.len(), 40);
        assert_eq!(report.similarity.n(), 40);
        assert_eq!(report.groups.group_count(), 5);
        assert!(is_partition(&report.groups.assignments, 5));
        // Conflation never grows a DAG.
        for (raw, conf) in report.raw_dags.iter().zip(&report.conflated_dags) {
            assert!(conf.len() <= raw.len());
            assert_eq!(conf.total_weight() as usize, raw.len());
        }
    }

    #[test]
    fn deterministic() {
        let a = Pipeline::new(small_cfg()).run().unwrap();
        let b = Pipeline::new(small_cfg()).run().unwrap();
        assert_eq!(a.groups.assignments, b.groups.assignments);
        assert_eq!(a.sample_names, b.sample_names);
    }

    #[test]
    fn seed_changes_sample() {
        let a = Pipeline::new(PipelineConfig {
            seed: 1,
            ..small_cfg()
        })
        .run()
        .unwrap();
        let b = Pipeline::new(PipelineConfig {
            seed: 2,
            ..small_cfg()
        })
        .run()
        .unwrap();
        assert_ne!(a.sample_names, b.sample_names);
    }

    #[test]
    fn similarity_matrix_well_formed() {
        let report = Pipeline::new(small_cfg()).run().unwrap();
        let s = &report.similarity;
        for i in 0..s.n() {
            assert!((s.get(i, i) - 1.0).abs() < 1e-9);
            for j in 0..s.n() {
                let v = s.get(i, j);
                assert!((-1e-9..=1.0 + 1e-9).contains(&v), "s[{i}][{j}]={v}");
            }
        }
    }

    #[test]
    fn ablation_without_conflation_also_runs() {
        let cfg = PipelineConfig {
            conflate: false,
            ..small_cfg()
        };
        let report = Pipeline::new(cfg).run().unwrap();
        assert_eq!(report.groups.group_count(), 5);
    }

    #[test]
    fn shortest_path_base_kernel_runs_end_to_end() {
        let cfg = PipelineConfig {
            base_kernel: crate::BaseKernel::ShortestPath,
            ..small_cfg()
        };
        let report = Pipeline::new(cfg).run().unwrap();
        assert_eq!(report.groups.group_count(), 5);
        assert!(is_partition(&report.groups.assignments, 5));
        // The two base kernels agree on the dominant-group story.
        let wl = Pipeline::new(small_cfg()).run().unwrap();
        assert!(report.groups.groups[0].fraction >= 0.2);
        assert!(wl.groups.groups[0].fraction >= 0.2);
    }

    fn paper_scale() -> PipelineConfig {
        PipelineConfig {
            jobs: 2_000,
            sample: 100,
            seed: 42,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn dedup_path_is_bit_identical_to_brute_force() {
        // The acceptance bar of the Gram engine: the expanded
        // similarity must match the brute-force all-pairs kernel bitwise,
        // on the paper-scale 100-job sample.
        let report = Pipeline::new(paper_scale()).run().unwrap();
        let brute = normalize_kernel(&kernel_matrix(&report.wl_features));
        let expanded = report.similarity.to_sym();
        assert_eq!(expanded.n(), brute.n());
        for (a, b) in expanded.packed().iter().zip(brute.packed()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let stats = report.gram.expect("the Gram engine records its counters");
        assert_eq!(stats.jobs, 100);
        assert!(
            stats.unique_shapes < stats.jobs,
            "synthetic population must contain duplicate shapes"
        );
        assert!(
            stats.dot_products < (stats.jobs * (stats.jobs + 1) / 2) as u64,
            "inverted index must beat the all-pairs scan"
        );
    }

    #[test]
    fn streamed_run_is_bit_identical_to_batch_run() {
        // The tentpole acceptance bar: over the same CSV bytes, the
        // streaming engine must reproduce the batch pipeline's report —
        // same sample, same exact statistics, same group tables.
        use dagscope_trace::stream::StreamedTrace;
        use dagscope_trace::{csv, ReadPolicy};

        let cfg = PipelineConfig {
            jobs: 1_500,
            sample: 60,
            seed: 11,
            ..PipelineConfig::default()
        };
        let trace = TraceGenerator::new(cfg.generator()).generate();
        let mut doc = Vec::new();
        csv::write_tasks(&mut doc, &trace.tasks).unwrap();

        let batch_set = JobSet::from_tasks(csv::read_tasks(&doc[..]).unwrap());
        let batch = Pipeline::new(cfg.clone()).run_on(&batch_set).unwrap();

        let mut streamed = StreamedTrace::scan(
            std::io::Cursor::new(doc),
            &ReadPolicy::Strict,
            &SampleCriteria::default(),
        )
        .unwrap();
        let report = Pipeline::new(cfg).run_streamed(&mut streamed).unwrap();

        assert_eq!(report.sample_names, batch.sample_names);
        assert_eq!(report.stats, batch.stats);
        assert_eq!(report.groups.assignments, batch.groups.assignments);
        assert_eq!(
            report.laplacian_eigenvalues, batch.laplacian_eigenvalues,
            "identical sample must produce identical spectra"
        );
        assert_eq!(report.summary(), batch.summary());
        assert_eq!(
            crate::figures::render_group_properties(&crate::figures::fig9_group_properties(
                &report
            )),
            crate::figures::render_group_properties(&crate::figures::fig9_group_properties(&batch))
        );
        assert_eq!(
            crate::figures::render_group_shapes(&crate::figures::group_shape_composition(&report)),
            crate::figures::render_group_shapes(&crate::figures::group_shape_composition(&batch))
        );
    }

    #[test]
    fn full_streamed_sample_with_stragglers_and_bad_rows_matches_batch() {
        // Every eligible job is sampled from a trace where some jobs'
        // first rows arrive out of order, later in the file, and bad rows
        // implicate others; the streamed run's DAGs and report must equal
        // the batch run's over the suspect-stripped rows.
        use dagscope_trace::stream::StreamedTrace;
        use dagscope_trace::{csv, ReadPolicy};

        let cfg = PipelineConfig {
            jobs: 900,
            sample: 100_000,
            seed: 13,
            ..PipelineConfig::default()
        };
        let trace = TraceGenerator::new(cfg.generator()).generate();
        let mut doc = Vec::new();
        csv::write_tasks(&mut doc, &trace.tasks).unwrap();
        let text = String::from_utf8(doc).unwrap();
        let mut blocks: Vec<Vec<String>> = Vec::new();
        let mut last_job = "";
        for line in text.lines() {
            let job = line.split(',').nth(2).unwrap();
            if job != last_job {
                blocks.push(Vec::new());
                last_job = job;
            }
            blocks.last_mut().unwrap().push(line.to_string());
        }
        let n = blocks.len();
        let mut stragglers = 0;
        for i in 0..n {
            let job = blocks[i][0].split(',').nth(2).unwrap().to_string();
            if i % 7 == 3 && blocks[i].len() > 1 {
                let row = blocks[i].remove(0);
                blocks[(i + 1 + i % 40).min(n - 1)].push(row);
                stragglers += 1;
            } else if i % 11 == 5 {
                blocks[i].push(format!("M1,x,{job},1,Terminated,1,2,3,4"));
            } else if i % 13 == 6 {
                blocks[i].insert(1, format!("M9,1,{job},1,Terminated,50,10,1.0,0.5"));
            }
        }
        assert!(stragglers > 20);
        let doc = blocks.concat().join("\n") + "\n";

        let policy = ReadPolicy::Quarantine { max_bad: 1_000 };
        let (rows, quarantine) = csv::read_tasks_with_policy(doc.as_bytes(), &policy).unwrap();
        let suspects = quarantine.suspect_jobs();
        assert!(suspects.len() > 100);
        let batch_set = JobSet::from_tasks(
            rows.into_iter()
                .filter(|t| !suspects.contains_key(t.job_name.as_str())),
        );
        let batch = Pipeline::new(cfg.clone()).run_on(&batch_set).unwrap();

        let mut streamed = StreamedTrace::scan(
            std::io::Cursor::new(doc.into_bytes()),
            &policy,
            &SampleCriteria::default(),
        )
        .unwrap();
        let report = Pipeline::new(cfg).run_streamed(&mut streamed).unwrap();

        assert_eq!(report.sample_names.len(), streamed.eligible_count());
        assert_eq!(report.sample_names, batch.sample_names);
        assert_eq!(report.raw_dags, batch.raw_dags);
        assert_eq!(report.conflated_dags, batch.conflated_dags);
        assert_eq!(report.groups.assignments, batch.groups.assignments);
        assert_eq!(report.summary(), batch.summary());
    }

    #[test]
    fn timings_cover_the_run() {
        let report = Pipeline::new(small_cfg()).run().unwrap();
        let t = &report.timings;
        assert!(t.total > std::time::Duration::ZERO);
        // Stages are disjoint sub-intervals of the run.
        let staged: std::time::Duration = t.stages().iter().map(|(_, d)| *d).sum();
        assert!(staged <= t.total);
        assert!(t.render().contains("total"));
    }

    #[test]
    fn malformed_dag_job_is_an_error_naming_the_job() {
        // Every name parses, so integrity passes, but the names do not
        // form a DAG: the run must fail with the job and the reason, not
        // panic.
        use dagscope_trace::{Status, TaskRecord};
        let task = |job: &str, name: &str, start: i64| TaskRecord {
            task_name: name.into(),
            instance_num: 1,
            job_name: job.into(),
            task_type: "1".into(),
            status: Status::Terminated,
            start_time: start,
            end_time: start + 100,
            plan_cpu: 100.0,
            plan_mem: 0.5,
        };
        for (names, reason) in [
            (["M1", "R2_9"], "task 2 references missing parent 9"),
            (["M1", "R1"], "duplicate task id 1"),
            (["M1_2", "R2_1"], "cycle"),
        ] {
            let mut tasks = vec![task("j_good", "M1", 100), task("j_good", "R2_1", 200)];
            tasks.extend(names.iter().map(|n| task("j_bad", n, 100)));
            let err = Pipeline::new(small_cfg())
                .run_on(&JobSet::from_tasks(tasks))
                .unwrap_err();
            assert!(
                err.contains("j_bad") && err.contains(reason),
                "{names:?}: {err}"
            );
        }
    }

    #[test]
    fn empty_population_is_an_error() {
        let err = Pipeline::new(small_cfg())
            .run_on(&JobSet::default())
            .unwrap_err();
        assert!(err.contains("no job passed"));
    }

    #[test]
    fn collapsed_engine_reproduces_the_dense_partition() {
        // The acceptance bar of the collapsed engine: on the paper-scale
        // 100-job sample, dense NJW over the expanded matrix (the oracle)
        // must find the same 5-group partition (ARI 1.0) and print the same
        // report, silhouette lines aside (they differ only in summation
        // order).
        let report = Pipeline::new(paper_scale()).run().unwrap();
        let expanded = report.similarity.to_sym();
        let dense = spectral_cluster(
            &expanded,
            &SpectralConfig {
                k: report.config.clusters,
                seed: report.config.seed,
                n_init: 10,
            },
        )
        .unwrap();
        assert_eq!(
            dagscope_cluster::adjusted_rand_index(&report.groups.assignments, &dense.assignments),
            1.0
        );
        let oracle = Report {
            groups: GroupAnalysis::build(
                &dense.assignments,
                dense.k,
                &report.raw_dags,
                &report.features_raw,
                &expanded,
            ),
            ..report.clone()
        };
        assert!(
            (report.groups.silhouette - oracle.groups.silhouette).abs() < 1e-9,
            "collapsed={} dense={}",
            report.groups.silhouette,
            oracle.groups.silhouette
        );
        let strip = |s: String| {
            s.lines()
                .filter(|l| !l.contains("silhouette"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(report.summary()), strip(oracle.summary()));
        // Both spectra start at the Laplacian's zero eigenvalue.
        assert!(report.laplacian_eigenvalues[0].abs() < 1e-8);
        assert!(dense.eigenvalues[0].abs() < 1e-8);
    }

    #[test]
    fn fixed_group_count_is_capped_at_the_shape_count() {
        // This sample embeds to four distinct WL vectors: collapsed
        // clustering assigns whole shapes, so it makes four groups of the
        // five asked for.
        let report = Pipeline::new(PipelineConfig {
            jobs: 400,
            sample: 20,
            seed: 1,
            ..PipelineConfig::default()
        })
        .run()
        .unwrap();
        assert_eq!(report.gram.unwrap().unique_shapes, 4);
        assert_eq!(report.groups.group_count(), 4);
        assert!(is_partition(&report.groups.assignments, 4));
        assert_eq!(report.similarity.n(), 20);
    }
}
