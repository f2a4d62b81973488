//! The immutable in-memory index the server answers from.
//!
//! [`ServeIndex::build`] replays the deterministic derivation chain over a
//! loaded [`IndexSnapshot`] — DAG construction, conflation, sequential WL
//! embedding — so the rebuilt kernel cache carries exactly the label space
//! and φ vectors of the offline run, and online classification is
//! **bit-identical** to what the pipeline would have computed. After
//! `build` returns, nothing is ever mutated: request handlers share the
//! index behind an `Arc` and query it lock-free (probes embed against the
//! frozen vocabulary, see [`dagscope_wl::KernelCache::probe`]).

use std::collections::HashMap;

use dagscope_cluster::Classification;
use dagscope_core::{IndexSnapshot, SnapshotGroup, SnapshotMeta};
use dagscope_graph::conflate::conflate;
use dagscope_graph::metrics::JobFeatures;
use dagscope_graph::{pattern, JobDag, ShapeTable};
use dagscope_sched::{ProfileBuilder, ProfileTable, SimJob, DEFAULT_MIN_CONFIDENCE};
use dagscope_trace::Job;
use dagscope_wl::{KernelCache, QueryStats, ShapeDedup, SparseVec};

/// Everything one classify verdict carries back to the client.
#[derive(Debug, Clone)]
pub struct ClassifyOutcome {
    /// Structural features of the (raw) probe DAG.
    pub features: JobFeatures,
    /// Shape-pattern label.
    pub pattern: &'static str,
    /// Group label (`'A'`…) of the winning cluster.
    pub group: char,
    /// The raw model verdict (cluster id, confidence, per-cluster scores).
    pub classification: Classification,
}

/// Scheduling hints for one probe job: the classify verdict plus what the
/// winning group's history predicts about the job.
#[derive(Debug, Clone)]
pub struct AdviseOutcome {
    /// The underlying classification (same verdict `/v1/classify` gives).
    pub classify: ClassifyOutcome,
    /// Group-median total work in CPU-seconds (population median when the
    /// classification fell back).
    pub predicted_work: f64,
    /// Group-median critical path in seconds (population median on
    /// fallback).
    pub predicted_critical_path: f64,
    /// The key a `GroupHybrid` dispatcher would use — lower means
    /// schedule sooner.
    pub suggested_priority: f64,
    /// True when the classifier's confidence was under the hybrid floor
    /// (or the winning cluster has no history) and the neutral prior was
    /// used instead.
    pub fallback: bool,
}

/// One entry of a similarity query result.
#[derive(Debug, Clone)]
pub struct Neighbour {
    /// Indexed job name.
    pub name: String,
    /// Cosine similarity to the query job.
    pub score: f64,
    /// The neighbour's group label.
    pub group: char,
}

/// Immutable query index over one characterized sample.
#[derive(Debug)]
pub struct ServeIndex {
    meta: SnapshotMeta,
    groups: Vec<SnapshotGroup>,
    /// WL cache over the kernel-stage DAGs, in sample order.
    cache: KernelCache,
    /// Structural features of the raw (pre-conflation) DAGs.
    features: Vec<JobFeatures>,
    /// Shape pattern per job.
    patterns: Vec<&'static str>,
    /// Group label per cluster id.
    labels: Vec<char>,
    /// Cluster assignment per sample index.
    assignments: Vec<usize>,
    model: dagscope_cluster::GroupModel,
    by_name: HashMap<String, usize>,
    /// Per-group historical work/critical-path distributions, built from
    /// the snapshot's jobs under their offline assignments.
    profiles: ProfileTable,
}

impl ServeIndex {
    /// Replay the derivation chain over a snapshot and freeze the result.
    pub fn build(snapshot: IndexSnapshot) -> Result<ServeIndex, String> {
        snapshot.validate()?;
        let IndexSnapshot {
            meta,
            jobs,
            model,
            groups,
            shapes,
        } = snapshot;

        // Indexed jobs recur, so each distinct task-name list is built and
        // conflated once and its jobs share the shapes.
        let mut table = ShapeTable::new();
        let mut raw_dags = Vec::with_capacity(jobs.len());
        let mut kernel_dags = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let rows = job.tasks.as_slice();
            let id = table.intern(rows);
            let entry = table
                .get(id)
                .map_err(|e| format!("rebuild DAG {}: {e}", job.name))?;
            let raw = entry.raw(job.name.clone(), rows);
            kernel_dags.push(if meta.conflate {
                entry.conflated(&raw)
            } else {
                raw.clone()
            });
            raw_dags.push(raw);
        }
        // Sequential push order == the pipeline's embedding order, so the
        // shared vocabulary (and thus every φ vector) matches bit-for-bit.
        let cache = KernelCache::from_dags(meta.wl_iterations, &kernel_dags);

        // The snapshot records each job's WL shape id + fingerprint; a
        // replay that disagrees means the rebuild is NOT bit-identical to
        // the offline run (codec drift, vocabulary change, …) and every
        // answer the server would give is suspect — refuse to serve.
        let replayed: Vec<SparseVec> = (0..jobs.len()).map(|i| cache.feature(i).clone()).collect();
        let dedup = ShapeDedup::from_features(&replayed);
        for (i, s) in shapes.iter().enumerate() {
            if dedup.shape_of()[i] != s.shape || dedup.fingerprints()[s.shape] != s.fingerprint {
                return Err(format!(
                    "job {}: replayed WL shape {} (fp {:016x}) disagrees with \
                     snapshot shape {} (fp {:016x}) — snapshot and binary are \
                     out of sync",
                    jobs[i].name,
                    dedup.shape_of()[i],
                    dedup.fingerprints()[dedup.shape_of()[i]],
                    s.shape,
                    s.fingerprint,
                ));
            }
        }

        let features: Vec<JobFeatures> = raw_dags.iter().map(JobFeatures::extract).collect();
        let patterns: Vec<&'static str> = raw_dags
            .iter()
            .map(|d| pattern::classify(d).label())
            .collect();

        let mut labels = vec!['?'; meta.k];
        for g in &groups {
            labels[g.cluster] = g.label;
        }
        let mut by_name = HashMap::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            if by_name.insert(job.name.clone(), i).is_some() {
                return Err(format!("duplicate job {} in snapshot", job.name));
            }
        }
        let assignments = model.assignments().to_vec();

        // Group profiles in simulator units: the same snapshot jobs the
        // model was fitted on, summarized per cluster, so /v1/advise
        // hints agree with an offline `sched-replay` over this sample.
        let mut builder = ProfileBuilder::new(meta.k);
        for (i, job) in jobs.iter().enumerate() {
            let sim = SimJob::from_dag(job.name.clone(), 0, raw_dags[i].clone());
            builder.observe(assignments[i], &sim);
        }
        let profiles = builder.finish(&labels);

        Ok(ServeIndex {
            meta,
            groups,
            cache,
            features,
            patterns,
            labels,
            assignments,
            model,
            by_name,
            profiles,
        })
    }

    /// Number of indexed jobs.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the index holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Snapshot metadata.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Group summaries, ordered by label.
    pub fn groups(&self) -> &[SnapshotGroup] {
        &self.groups
    }

    /// Index of a job by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Structural features of indexed job `i`.
    pub fn features(&self, i: usize) -> &JobFeatures {
        &self.features[i]
    }

    /// Shape pattern of indexed job `i`.
    pub fn pattern(&self, i: usize) -> &'static str {
        self.patterns[i]
    }

    /// Group label of indexed job `i`.
    pub fn group_of(&self, i: usize) -> char {
        self.labels[self.assignments[i]]
    }

    /// Group label of cluster `c`.
    pub fn label_of_cluster(&self, c: usize) -> char {
        self.labels[c]
    }

    /// Classify an out-of-sample job: rebuild its DAG, embed it against the
    /// frozen vocabulary and score it against the group centroids. The
    /// probe follows the same conflation policy as the offline run.
    pub fn classify(&self, job: &Job) -> Result<ClassifyOutcome, String> {
        let raw = JobDag::from_job(job).map_err(|e| format!("invalid job: {e}"))?;
        let probe = if self.meta.conflate {
            self.cache.embed(&conflate(&raw))
        } else {
            self.cache.embed(&raw)
        };
        let classification = self.model.classify(&probe);
        Ok(ClassifyOutcome {
            features: JobFeatures::extract(&raw),
            pattern: pattern::classify(&raw).label(),
            group: self.labels[classification.cluster],
            classification,
        })
    }

    /// The per-group profile table the advise endpoint answers from.
    pub fn profiles(&self) -> &ProfileTable {
        &self.profiles
    }

    /// Scheduling hints for an out-of-sample job: classify it (identical
    /// verdict to [`classify`](Self::classify)), then read the winning
    /// group's historical work/critical-path medians. Classifications
    /// under the hybrid confidence floor — or into a cluster with no
    /// history — fall back to the population medians, mirroring
    /// `Policy::GroupHybrid` exactly.
    pub fn advise(&self, job: &Job) -> Result<AdviseOutcome, String> {
        let classify = self.classify(job)?;
        let c = &classify.classification;
        let profile = self.profiles.get(c.cluster).filter(|p| p.population > 0);
        let confident = c.confidence >= DEFAULT_MIN_CONFIDENCE;
        let (predicted_work, predicted_critical_path, fallback) = match profile {
            Some(p) if confident => (p.work.p50, p.critical_path.p50, false),
            _ => (
                self.profiles.neutral_work(),
                self.profiles.neutral_critical_path(),
                true,
            ),
        };
        Ok(AdviseOutcome {
            classify,
            predicted_work,
            predicted_critical_path,
            suggested_priority: predicted_work,
            fallback,
        })
    }

    /// Top-`k` most WL-similar indexed jobs to indexed job `i`.
    pub fn similar(&self, i: usize, k: usize) -> Vec<Neighbour> {
        self.similar_with_stats(i, k).0
    }

    /// [`similar`](Self::similar) plus the pruned searcher's cost
    /// counters, for the `/metrics` endpoint.
    pub fn similar_with_stats(&self, i: usize, k: usize) -> (Vec<Neighbour>, QueryStats) {
        let (neighbours, stats) = self.cache.nearest_with_stats(i, k);
        let neighbours = neighbours
            .into_iter()
            .map(|(j, score)| Neighbour {
                name: self.cache.name(j).to_string(),
                score,
                group: self.group_of(j),
            })
            .collect();
        (neighbours, stats)
    }

    /// Shape-pattern census over the indexed (raw) DAGs, in the paper's
    /// shape order plus `irregular`.
    pub fn pattern_counts(&self) -> Vec<(&'static str, usize)> {
        dagscope_trace::gen::ShapeKind::ALL
            .iter()
            .map(|s| s.label())
            .chain(std::iter::once("irregular"))
            .map(|label| (label, self.patterns.iter().filter(|&&p| p == label).count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_core::{Pipeline, PipelineConfig};

    fn index() -> (ServeIndex, dagscope_core::Report) {
        let report = Pipeline::new(PipelineConfig {
            jobs: 300,
            sample: 30,
            seed: 5,
            ..Default::default()
        })
        .run()
        .unwrap();
        let snap = IndexSnapshot::from_report(&report).unwrap();
        (ServeIndex::build(snap).unwrap(), report)
    }

    #[test]
    fn members_classify_into_their_assigned_groups() {
        let (idx, report) = index();
        assert_eq!(idx.len(), 30);
        // Rebuilt φ vectors must equal the offline ones bit-for-bit…
        for (i, want) in report.wl_features.iter().enumerate() {
            assert_eq!(idx.cache.feature(i), want, "feature {i}");
        }
        // …so every sample member lands exactly in its offline cluster.
        for (i, name) in report.sample_names.iter().enumerate() {
            let j = idx.find(name).unwrap();
            assert_eq!(j, i, "sample order preserved");
            let job_dag = &report.raw_dags[i];
            let job = dagscope_trace::Job {
                name: name.clone(),
                tasks: (0..job_dag.len())
                    .map(|n| {
                        let a = job_dag.attr(n);
                        dagscope_trace::TaskRecord {
                            task_name: job_dag.task_name(n).to_string(),
                            instance_num: a.instance_num,
                            job_name: name.as_str().into(),
                            task_type: "1".into(),
                            status: dagscope_trace::Status::Terminated,
                            start_time: 1,
                            end_time: 1 + a.duration,
                            plan_cpu: a.plan_cpu,
                            plan_mem: a.plan_mem,
                        }
                    })
                    .collect(),
            };
            let out = idx.classify(&job).unwrap();
            assert_eq!(
                out.classification.cluster, report.groups.assignments[i],
                "job {name}"
            );
            assert_eq!(out.group, idx.group_of(i));
        }
    }

    #[test]
    fn lookup_and_similarity() {
        let (idx, report) = index();
        let name = &report.sample_names[0];
        let i = idx.find(name).unwrap();
        assert_eq!(idx.features(i).name, *name);
        assert!(!idx.pattern(i).is_empty());
        let nn = idx.similar(i, 5);
        assert_eq!(nn.len(), 5);
        assert!(nn[0].score >= nn[4].score);
        assert!(nn.iter().all(|n| n.name != *name), "self excluded");
        assert!(idx.find("no_such_job").is_none());
    }

    #[test]
    fn advise_agrees_with_classify_and_profiles() {
        let (idx, report) = index();
        // Profiles cover every cluster; populations sum to the sample.
        let pop: usize = idx.profiles().profiles().iter().map(|p| p.population).sum();
        assert_eq!(pop, idx.len());
        // Probe with a sample member's own rows: advise must classify it
        // exactly as classify does, and the hints must come from the
        // winning group's profile (or the neutral prior on fallback).
        let name = &report.sample_names[0];
        let dag = &report.raw_dags[0];
        let job = dagscope_trace::Job {
            name: name.clone(),
            tasks: (0..dag.len())
                .map(|n| {
                    let a = dag.attr(n);
                    dagscope_trace::TaskRecord {
                        task_name: dag.task_name(n).to_string(),
                        instance_num: a.instance_num,
                        job_name: name.as_str().into(),
                        task_type: "1".into(),
                        status: dagscope_trace::Status::Terminated,
                        start_time: 1,
                        end_time: 1 + a.duration,
                        plan_cpu: a.plan_cpu,
                        plan_mem: a.plan_mem,
                    }
                })
                .collect(),
        };
        let advice = idx.advise(&job).unwrap();
        let classify = idx.classify(&job).unwrap();
        assert_eq!(
            advice.classify.classification.cluster,
            classify.classification.cluster
        );
        assert_eq!(advice.classify.group, classify.group);
        let cluster = advice.classify.classification.cluster;
        if advice.fallback {
            assert_eq!(advice.predicted_work, idx.profiles().neutral_work());
        } else {
            let p = idx.profiles().get(cluster).unwrap();
            assert_eq!(advice.predicted_work, p.work.p50);
            assert_eq!(advice.predicted_critical_path, p.critical_path.p50);
        }
        assert_eq!(advice.suggested_priority, advice.predicted_work);
        assert!(advice.predicted_work > 0.0);
    }

    #[test]
    fn census_covers_every_job() {
        let (idx, _) = index();
        let total: usize = idx.pattern_counts().iter().map(|(_, c)| c).sum();
        assert_eq!(total, idx.len());
        let by_group: usize = idx.groups().iter().map(|g| g.population).sum();
        assert_eq!(by_group, idx.len());
    }

    #[test]
    fn rejects_shape_provenance_mismatch() {
        let (_, report) = index();
        let mut snap = IndexSnapshot::from_report(&report).unwrap();
        // Corrupt shape 0's fingerprint everywhere (consistently, so the
        // snapshot's own validation still passes) — the replayed dedup
        // must catch the disagreement.
        for s in &mut snap.shapes {
            if s.shape == 0 {
                s.fingerprint ^= 1;
            }
        }
        let err = ServeIndex::build(snap).unwrap_err();
        assert!(err.contains("out of sync"), "{err}");
    }

    #[test]
    fn similar_stats_expose_search_costs() {
        let (idx, _) = index();
        let (nn, stats) = idx.similar_with_stats(0, 5);
        assert_eq!(nn.len(), 5);
        assert!(stats.candidates > 0);
        assert!(stats.scanned > 0);
        // The stats variant answers exactly what `similar` answers.
        let plain = idx.similar(0, 5);
        for (a, b) in nn.iter().zip(&plain) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn rejects_duplicate_job_names() {
        let (_, report) = index();
        let mut snap = IndexSnapshot::from_report(&report).unwrap();
        let first = snap.jobs[0].clone();
        let renamed_name = snap.jobs[1].name.clone();
        let mut dup = first;
        dup.name = renamed_name.clone();
        for t in &mut dup.tasks {
            t.job_name = renamed_name.as_str().into();
        }
        snap.jobs[0] = dup;
        assert!(ServeIndex::build(snap).is_err());
    }
}
