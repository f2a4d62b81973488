//! Per-cluster group analysis (Section VI, Figs 8–9).

use serde::{Deserialize, Serialize};

use dagscope_graph::metrics::JobFeatures;
use dagscope_graph::pattern::{self, Pattern};
use dagscope_graph::JobDag;
use dagscope_linalg::SymMatrix;
use dagscope_trace::gen::ShapeKind;

/// Statistics of one clustered group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupStats {
    /// Group label (`'A'` for the most populated, then `'B'`, …) — the
    /// paper orders its five groups the same way.
    pub label: char,
    /// Cluster index in the raw assignment vector.
    pub cluster: usize,
    /// Number of sample jobs in the group.
    pub population: usize,
    /// Fraction of the sample.
    pub fraction: f64,
    /// Job sizes in the group.
    pub sizes: Vec<usize>,
    /// Critical paths in the group.
    pub critical_paths: Vec<usize>,
    /// Maximum widths (parallelism) in the group.
    pub max_widths: Vec<usize>,
    /// Mean job size.
    pub mean_size: f64,
    /// Share of straight-chain jobs.
    pub chain_fraction: f64,
    /// Share of short jobs (≤ 3 tasks) — the paper reports 90.6 % for A.
    pub short_fraction: f64,
    /// Medoid job name — the member most similar to the rest of the group,
    /// shown as the group's representative DAG in Fig 8.
    pub representative: String,
}

/// The full clustering analysis of the job sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupAnalysis {
    /// Cluster assignment per sample index (raw cluster ids).
    pub assignments: Vec<usize>,
    /// Groups ordered by population (descending) and labeled `A`, `B`, ….
    pub groups: Vec<GroupStats>,
    /// Mean silhouette of the clustering in kernel-distance space.
    pub silhouette: f64,
}

impl GroupAnalysis {
    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group containing sample index `i`.
    pub fn group_of(&self, i: usize) -> &GroupStats {
        let c = self.assignments[i];
        self.groups
            .iter()
            .find(|g| g.cluster == c)
            .expect("cluster without group")
    }

    /// Build the analysis from cluster assignments, the sample's DAGs and
    /// features, and the collapsed similarity, never expanding it to n×n:
    /// medoids come from weighted unique-shape row scans and the
    /// silhouette from
    /// [`dagscope_cluster::validation::silhouette_collapsed`]. Equal to
    /// the dense analysis of the expanded matrix up to floating-point
    /// summation order.
    ///
    /// `unique` is the normalized unique-shape similarity, `shape_of`
    /// maps jobs to shapes, and `weights[a]` is shape `a`'s multiplicity.
    /// Collapsed clustering assigns whole shapes, so all jobs of one
    /// shape must share a cluster.
    pub fn build_collapsed(
        assignments: &[usize],
        k: usize,
        dags: &[JobDag],
        features: &[JobFeatures],
        unique: &SymMatrix,
        shape_of: &[usize],
        weights: &[f64],
    ) -> GroupAnalysis {
        assert_eq!(assignments.len(), shape_of.len());
        assert_eq!(unique.n(), weights.len());
        // Recover per-shape clusters; shapes must not straddle clusters.
        let mut shape_cluster = vec![usize::MAX; unique.n()];
        for (i, &s) in shape_of.iter().enumerate() {
            if shape_cluster[s] == usize::MAX {
                shape_cluster[s] = assignments[i];
            } else {
                assert_eq!(
                    shape_cluster[s], assignments[i],
                    "jobs of shape {s} straddle clusters"
                );
            }
        }
        // Shapes absent from the sample (none, by construction) would
        // keep usize::MAX; map them to cluster 0 defensively.
        for c in shape_cluster.iter_mut() {
            if *c == usize::MAX {
                *c = 0;
            }
        }

        let silhouette =
            dagscope_cluster::validation::silhouette_collapsed(unique, weights, &shape_cluster, k);

        // Medoid totals per group: every member of shape `a` has the same
        // summed similarity U(a) = Σ_t count_g(t)·S(a, t), computed by one
        // walk over the nonzero entries of row `a` per distinct member
        // shape; `count[t]` is 0.0 for a shape with no member in the group.
        let m = unique.n();
        let totals = |ms: &[usize]| -> Vec<f64> {
            let mut count = vec![0.0f64; m];
            for &i in ms {
                count[shape_of[i]] += 1.0;
            }
            let u: Vec<f64> = (0..m)
                .map(|a| {
                    if count[a] == 0.0 {
                        return 0.0;
                    }
                    unique
                        .row_nonzeros(a)
                        .filter(|&(t, _)| count[t] > 0.0)
                        .map(|(t, v)| count[t] * v)
                        .sum()
                })
                .collect();
            ms.iter().map(|&i| u[shape_of[i]]).collect()
        };
        assemble(assignments, k, dags, features, &totals, silhouette)
    }
}

/// Shared group-stat assembly: population ordering, labels, per-group
/// structural statistics, and medoid selection from precomputed member
/// totals (largest total wins; ties break to the last member, matching
/// `Iterator::max_by`).
fn assemble(
    assignments: &[usize],
    k: usize,
    dags: &[JobDag],
    features: &[JobFeatures],
    member_totals: &dyn Fn(&[usize]) -> Vec<f64>,
    silhouette: f64,
) -> GroupAnalysis {
    assert_eq!(assignments.len(), dags.len());
    assert_eq!(assignments.len(), features.len());
    let n = assignments.len();

    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &c) in assignments.iter().enumerate() {
        members[c].push(i);
    }

    // Order clusters by population descending and label them A, B, C, …
    // Population ties break on the earliest member in sample order — a
    // content-based key, so the labeling is invariant under the arbitrary
    // cluster numbering k-means happens to produce (dense and collapsed
    // engines agree on labels whenever they agree on the partition).
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&c| {
        (
            std::cmp::Reverse(members[c].len()),
            members[c].first().copied().unwrap_or(usize::MAX),
            c,
        )
    });

    let mut groups = Vec::with_capacity(k);
    for (rank, &c) in order.iter().enumerate() {
        let ms = &members[c];
        let sizes: Vec<usize> = ms.iter().map(|&i| features[i].size).collect();
        let critical_paths: Vec<usize> = ms.iter().map(|&i| features[i].critical_path).collect();
        let max_widths: Vec<usize> = ms.iter().map(|&i| features[i].max_width).collect();
        let mean_size = if ms.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / ms.len() as f64
        };
        let chains = ms
            .iter()
            .filter(|&&i| pattern::classify(&dags[i]) == Pattern::Shape(ShapeKind::Chain))
            .count();
        let short = sizes.iter().filter(|&&s| s <= 3).count();

        // Medoid: member with the largest total similarity to the rest.
        // A total sums member counts times normalized similarities, each
        // a finite dot over √ of positive self-dots of WL count vectors,
        // so no input makes one NaN.
        let totals = member_totals(ms);
        let representative = ms
            .iter()
            .zip(&totals)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("medoid totals are finite"))
            .map(|(&i, _)| dags[i].name.clone())
            .unwrap_or_default();

        groups.push(GroupStats {
            label: (b'A' + rank as u8) as char,
            cluster: c,
            population: ms.len(),
            fraction: if n == 0 {
                0.0
            } else {
                ms.len() as f64 / n as f64
            },
            mean_size,
            chain_fraction: if ms.is_empty() {
                0.0
            } else {
                chains as f64 / ms.len() as f64
            },
            short_fraction: if ms.is_empty() {
                0.0
            } else {
                short as f64 / ms.len() as f64
            },
            sizes,
            critical_paths,
            max_widths,
            representative,
        });
    }

    GroupAnalysis {
        assignments: assignments.to_vec(),
        groups,
        silhouette,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagscope_trace::{Job, Status, TaskRecord};

    impl GroupAnalysis {
        /// Dense oracle of [`GroupAnalysis::build_collapsed`]: medoids and
        /// the silhouette from the expanded n×n similarity matrix.
        pub(crate) fn build(
            assignments: &[usize],
            k: usize,
            dags: &[JobDag],
            features: &[JobFeatures],
            similarity: &SymMatrix,
        ) -> GroupAnalysis {
            assert_eq!(assignments.len(), similarity.n());

            let distances = dagscope_cluster::validation::kernel_distance_matrix(similarity);
            let silhouette =
                dagscope_cluster::validation::silhouette_from_distances(&distances, assignments, k);

            // Medoid totals: member's summed similarity over its group.
            let totals = |ms: &[usize]| -> Vec<f64> {
                ms.iter()
                    .map(|&i| ms.iter().map(|&j| similarity.get(i, j)).sum())
                    .collect()
            };
            assemble(assignments, k, dags, features, &totals, silhouette)
        }
    }

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

    fn setup() -> (Vec<JobDag>, Vec<JobFeatures>, SymMatrix) {
        let dags = vec![
            dag("j_c1", &["M1", "R2_1"]),
            dag("j_c2", &["M1", "R2_1"]),
            dag("j_c3", &["M1", "R2_1", "R3_2"]),
            dag("j_t1", &["M1", "M2", "M3", "M4", "R5_4_3_2_1"]),
        ];
        let features: Vec<JobFeatures> = dags.iter().map(JobFeatures::extract).collect();
        let mut wl = dagscope_wl::WlVectorizer::new(3);
        let feats = wl.transform_all(&dags);
        let sim = dagscope_wl::normalize_kernel(&dagscope_wl::kernel_matrix(&feats));
        (dags, features, sim)
    }

    #[test]
    fn labels_follow_population_order() {
        let (dags, features, sim) = setup();
        // Cluster 1 is the big one (3 members) — must become group A.
        let assignments = vec![1, 1, 1, 0];
        let ga = GroupAnalysis::build(&assignments, 2, &dags, &features, &sim);
        assert_eq!(ga.group_count(), 2);
        assert_eq!(ga.groups[0].label, 'A');
        assert_eq!(ga.groups[0].cluster, 1);
        assert_eq!(ga.groups[0].population, 3);
        assert!((ga.groups[0].fraction - 0.75).abs() < 1e-12);
        assert_eq!(ga.groups[1].label, 'B');
        assert_eq!(ga.groups[1].population, 1);
    }

    #[test]
    fn group_stats_contents() {
        let (dags, features, sim) = setup();
        let ga = GroupAnalysis::build(&[0, 0, 0, 1], 2, &dags, &features, &sim);
        let a = &ga.groups[0];
        assert_eq!(a.sizes, vec![2, 2, 3]);
        assert!((a.mean_size - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.chain_fraction, 1.0);
        assert_eq!(a.short_fraction, 1.0);
        // Medoid of the chain group is one of the two identical 2-chains.
        assert!(a.representative.starts_with("j_c"));
        let b = &ga.groups[1];
        assert_eq!(b.sizes, vec![5]);
        assert_eq!(b.chain_fraction, 0.0);
        assert_eq!(b.representative, "j_t1");
    }

    #[test]
    fn group_of_resolves() {
        let (dags, features, sim) = setup();
        let ga = GroupAnalysis::build(&[0, 0, 0, 1], 2, &dags, &features, &sim);
        assert_eq!(ga.group_of(3).label, 'B');
        assert_eq!(ga.group_of(0).label, 'A');
    }

    #[test]
    fn silhouette_positive_for_sane_grouping() {
        let (dags, features, sim) = setup();
        let good = GroupAnalysis::build(&[0, 0, 0, 1], 2, &dags, &features, &sim);
        assert!(good.silhouette > 0.0, "silhouette {}", good.silhouette);
    }

    #[test]
    fn build_collapsed_matches_dense_build() {
        // j_c1 and j_c2 are the same WL shape, so the collapsed view has
        // three unique shapes with multiplicities [2, 1, 1].
        let (dags, features, sim) = setup();
        let wl_feats = {
            let mut wl = dagscope_wl::WlVectorizer::new(3);
            wl.transform_all(&dags)
        };
        let dedup = dagscope_wl::ShapeDedup::from_features(&wl_feats);
        assert_eq!(dedup.unique_count(), 3, "j_c1/j_c2 must collapse");
        let reps: Vec<&dagscope_wl::SparseVec> = dedup
            .representatives()
            .iter()
            .map(|&i| &wl_feats[i])
            .collect();
        let (mut unique, _) = dagscope_wl::unique_gram(&reps);
        dagscope_wl::normalize_kernel_in_place(&mut unique);
        let weights = dedup.weights();

        let assignments = [0, 0, 0, 1];
        let dense = GroupAnalysis::build(&assignments, 2, &dags, &features, &sim);
        let collapsed = GroupAnalysis::build_collapsed(
            &assignments,
            2,
            &dags,
            &features,
            &unique,
            dedup.shape_of(),
            &weights,
        );
        assert_eq!(collapsed.assignments, dense.assignments);
        assert!(
            (collapsed.silhouette - dense.silhouette).abs() < 1e-12,
            "collapsed={} dense={}",
            collapsed.silhouette,
            dense.silhouette
        );
        for (c, d) in collapsed.groups.iter().zip(&dense.groups) {
            assert_eq!(c.label, d.label);
            assert_eq!(c.population, d.population);
            assert_eq!(c.sizes, d.sizes);
            assert_eq!(c.representative, d.representative, "medoids must agree");
        }
    }

    #[test]
    #[should_panic(expected = "straddle clusters")]
    fn build_collapsed_rejects_shape_straddling_clusters() {
        let (dags, features, _) = setup();
        let mut unique = SymMatrix::zeros(3);
        for s in 0..3 {
            unique.set(s, s, 1.0);
        }
        // Jobs 0 and 1 share shape 0 but sit in different clusters.
        GroupAnalysis::build_collapsed(
            &[0, 1, 0, 1],
            2,
            &dags,
            &features,
            &unique,
            &[0, 0, 1, 2],
            &[2.0, 1.0, 1.0],
        );
    }
}
