//! One regenerator per paper figure.
//!
//! Each `figN_*` function derives the figure's underlying data from a
//! [`Report`] and renders a terminal version of the plot, so
//! `examples/characterize.rs --figure N` and the benches in
//! `dagscope-bench` reproduce every figure of the evaluation.

use std::collections::BTreeMap;
use std::fmt::Write;

use dagscope_graph::metrics::{size_group_table, SizeGroupRow};
use dagscope_graph::pattern::PatternCensus;
use dagscope_graph::tasktype::{type_census, TypeCensusRow};
use dagscope_graph::{render, JobDag};

use crate::{Report, Similarity};

/// Fig 2 — job-level abstraction of sampled DAG batch jobs: ASCII level
/// renderings of the first `count` sample DAGs.
pub fn fig2_sample_dags(report: &Report, count: usize) -> String {
    let mut s = String::new();
    writeln!(s, "Fig 2: sample of job-level DAG abstractions").unwrap();
    for dag in report.raw_dags.iter().take(count) {
        writeln!(s, "\n{} ({} tasks):", dag.name, dag.len()).unwrap();
        s.push_str(&render::to_ascii(dag));
    }
    s
}

/// The Fig 3 dataset: DAG size histograms before and after conflation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflationHistogram {
    /// `size → job count` before conflation.
    pub before: BTreeMap<usize, usize>,
    /// `size → job count` after conflation.
    pub after: BTreeMap<usize, usize>,
}

impl ConflationHistogram {
    /// Fraction of jobs at or below `size` (CDF) in the chosen histogram.
    pub fn cdf(&self, after: bool, size: usize) -> f64 {
        let h = if after { &self.after } else { &self.before };
        let total: usize = h.values().sum();
        if total == 0 {
            return 0.0;
        }
        let small: usize = h.iter().filter(|(s, _)| **s <= size).map(|(_, c)| c).sum();
        small as f64 / total as f64
    }

    /// Render as a two-column histogram table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        writeln!(s, "Fig 3: DAG job sizes before and after node conflation").unwrap();
        writeln!(s, "{:>5} {:>8} {:>8}", "size", "before", "after").unwrap();
        let sizes: std::collections::BTreeSet<usize> = self
            .before
            .keys()
            .chain(self.after.keys())
            .copied()
            .collect();
        for size in sizes {
            writeln!(
                s,
                "{:>5} {:>8} {:>8}",
                size,
                self.before.get(&size).copied().unwrap_or(0),
                self.after.get(&size).copied().unwrap_or(0)
            )
            .unwrap();
        }
        s
    }
}

/// Fig 3 — size distribution before vs after conflation.
pub fn fig3_conflation(report: &Report) -> ConflationHistogram {
    let mut before = BTreeMap::new();
    let mut after = BTreeMap::new();
    for d in &report.raw_dags {
        *before.entry(d.len()).or_insert(0) += 1;
    }
    for d in &report.conflated_dags {
        *after.entry(d.len()).or_insert(0) += 1;
    }
    ConflationHistogram { before, after }
}

/// Render a Fig 4 / Fig 5 size-group table.
pub fn render_size_groups(title: &str, rows: &[SizeGroupRow]) -> String {
    let mut s = String::new();
    writeln!(s, "{title}").unwrap();
    writeln!(
        s,
        "{:>5} {:>6} {:>17} {:>10}",
        "size", "jobs", "max critical path", "max width"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:>5} {:>6} {:>17} {:>10}",
            r.size, r.jobs, r.max_critical_path, r.max_width
        )
        .unwrap();
    }
    s
}

/// Fig 4 — per-size-group job count, max critical path and max width
/// *before* conflation.
pub fn fig4_size_groups(report: &Report) -> Vec<SizeGroupRow> {
    size_group_table(&report.features_raw)
}

/// Fig 5 — the same measurements *after* conflation.
pub fn fig5_size_groups(report: &Report) -> Vec<SizeGroupRow> {
    size_group_table(&report.features_conflated)
}

/// Fig 6 — per-job Map/Join/Reduce task composition of the sample.
pub fn fig6_type_distribution(report: &Report) -> Vec<TypeCensusRow> {
    let mut rows = type_census(&report.raw_dags);
    rows.sort_by_key(|r| (r.size, r.name.clone()));
    rows
}

/// Render the Fig 6 rows as a stacked-bar-style table.
pub fn render_type_distribution(rows: &[TypeCensusRow]) -> String {
    let mut s = String::new();
    writeln!(s, "Fig 6: distribution of Map-Join-Reduce tasks per job").unwrap();
    writeln!(
        s,
        "{:<14} {:>4} {:>3} {:>3} {:>3}  model",
        "job", "size", "M", "J", "R"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:<14} {:>4} {:>3} {:>3} {:>3}  {}",
            r.name,
            r.size,
            r.counts.m,
            r.counts.j,
            r.counts.r,
            r.model.label()
        )
        .unwrap();
    }
    s
}

/// Render the Fig 7 similarity matrix as an ASCII heat map (shade ramp
/// `.:-=+*#%@`, diagonal marked `@`).
pub fn fig7_heatmap(similarity: &Similarity) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let n = similarity.n();
    let mut s = String::new();
    writeln!(s, "Fig 7: pairwise WL similarity ({n}×{n}, ' '=0 … '@'=1)").unwrap();
    for i in 0..n {
        for j in 0..n {
            let v = similarity.get(i, j).clamp(0.0, 1.0);
            let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            s.push(RAMP[idx] as char);
        }
        s.push('\n');
    }
    s
}

/// Summary statistics of the off-diagonal similarity mass — the numbers the
/// paper discusses alongside Fig 7.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilaritySummary {
    /// Mean off-diagonal similarity.
    pub mean: f64,
    /// Minimum off-diagonal similarity.
    pub min: f64,
    /// Maximum off-diagonal similarity.
    pub max: f64,
    /// Number of identical pairs (similarity ≈ 1).
    pub identical_pairs: usize,
}

/// Compute the off-diagonal summary of a similarity matrix.
///
/// Aggregates per nonzero unique-shape entry weighted by shape
/// multiplicities (`O(m²)` for `m` shapes — zero entries are counted in
/// bulk), so the summary never expands n×n.
pub fn fig7_summary(similarity: &Similarity) -> SimilaritySummary {
    let Similarity { unique, shape_of } = similarity;
    let n = shape_of.len();
    let total_pairs = n * n.saturating_sub(1) / 2;
    if total_pairs == 0 {
        return SimilaritySummary {
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            identical_pairs: 0,
        };
    }
    // Shape multiplicities.
    let mut w = vec![0usize; unique.n()];
    for &s in shape_of {
        w[s] += 1;
    }
    let mut sum = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut identical = 0usize;
    let mut covered = 0usize;
    // One visit per nonzero upper-triangle entry. A diagonal entry stands
    // for the within-shape pairs (all at the shape's self-similarity); an
    // off-diagonal (a, b) entry stands for w_a·w_b cross pairs.
    for a in 0..unique.n() {
        for (off, &v) in unique.upper_row(a).iter().enumerate() {
            let b = a + off;
            if v == 0.0 {
                continue;
            }
            let pairs = if b == a {
                w[a] * w[a].saturating_sub(1) / 2
            } else {
                w[a] * w[b]
            };
            if pairs == 0 {
                continue;
            }
            sum += v * pairs as f64;
            min = min.min(v);
            max = max.max(v);
            if v > 1.0 - 1e-9 {
                identical += pairs;
            }
            covered += pairs;
        }
    }
    // Every pair not visited is an exact zero (disjoint WL feature sets —
    // or a zero φ vector, whose diagonal is zero too).
    if covered < total_pairs {
        min = min.min(0.0);
        max = max.max(0.0);
    }
    if covered == 0 {
        min = 0.0;
        max = 0.0;
    }
    SimilaritySummary {
        mean: sum / total_pairs as f64,
        min,
        max,
        identical_pairs: identical,
    }
}

/// Fig 8 — the representative (medoid) DAG of every group, rendered as
/// ASCII levels.
pub fn fig8_representatives(report: &Report) -> String {
    let mut s = String::new();
    writeln!(s, "Fig 8: clustering groups and representative jobs").unwrap();
    let dags = report.kernel_dags();
    for g in &report.groups.groups {
        writeln!(
            s,
            "\nGroup {} ({} jobs, {:.1} %) — representative {}:",
            g.label,
            g.population,
            100.0 * g.fraction,
            g.representative
        )
        .unwrap();
        if let Some(dag) = dags.iter().find(|d| d.name == g.representative) {
            s.push_str(&render::to_ascii(dag));
        }
    }
    s
}

/// One row of the Fig 9 group-property table.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPropertyRow {
    /// Group label (A–E).
    pub label: char,
    /// Population and fraction.
    pub population: usize,
    /// Fraction of the sample.
    pub fraction: f64,
    /// Size distribution (min, median, max).
    pub size_mmm: (usize, usize, usize),
    /// Critical-path distribution (min, median, max).
    pub cp_mmm: (usize, usize, usize),
    /// Max-parallelism distribution (min, median, max).
    pub width_mmm: (usize, usize, usize),
    /// Mean size (the paper's B/A ≈ 1.55 comparison).
    pub mean_size: f64,
}

fn mmm(values: &[usize]) -> (usize, usize, usize) {
    if values.is_empty() {
        return (0, 0, 0);
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    (v[0], v[v.len() / 2], v[v.len() - 1])
}

/// Fig 9 — per-group population plus size / critical-path / parallelism
/// distributions.
pub fn fig9_group_properties(report: &Report) -> Vec<GroupPropertyRow> {
    report
        .groups
        .groups
        .iter()
        .map(|g| GroupPropertyRow {
            label: g.label,
            population: g.population,
            fraction: g.fraction,
            size_mmm: mmm(&g.sizes),
            cp_mmm: mmm(&g.critical_paths),
            width_mmm: mmm(&g.max_widths),
            mean_size: g.mean_size,
        })
        .collect()
}

/// Render the Fig 9 table.
pub fn render_group_properties(rows: &[GroupPropertyRow]) -> String {
    let mut s = String::new();
    writeln!(s, "Fig 9: properties of job DAGs in cluster groups").unwrap();
    writeln!(
        s,
        "{:<6} {:>5} {:>6} {:>15} {:>15} {:>15} {:>9}",
        "group", "jobs", "frac", "size min/med/max", "cp min/med/max", "width m/m/m", "mean size"
    )
    .unwrap();
    for r in rows {
        writeln!(
            s,
            "{:<6} {:>5} {:>5.1}% {:>15} {:>15} {:>15} {:>9.2}",
            r.label,
            r.population,
            100.0 * r.fraction,
            format!("{}/{}/{}", r.size_mmm.0, r.size_mmm.1, r.size_mmm.2),
            format!("{}/{}/{}", r.cp_mmm.0, r.cp_mmm.1, r.cp_mmm.2),
            format!("{}/{}/{}", r.width_mmm.0, r.width_mmm.1, r.width_mmm.2),
            r.mean_size
        )
        .unwrap();
    }
    s
}

/// Per-group shape composition: which of the paper's named patterns each
/// cluster is made of (Section VI discusses exactly this — group A "involves
/// inverted triangle, straight chain, and diamonds", groups C/E are
/// diffuse).
pub fn group_shape_composition(report: &Report) -> Vec<(char, PatternCensus)> {
    report
        .groups
        .groups
        .iter()
        .map(|g| {
            let members: Vec<dagscope_graph::JobDag> = report
                .raw_dags
                .iter()
                .enumerate()
                .filter(|(i, _)| report.groups.assignments[*i] == g.cluster)
                .map(|(_, d)| d.clone())
                .collect();
            (g.label, PatternCensus::compute(&members))
        })
        .collect()
}

/// Render the per-group shape composition as a compact table.
pub fn render_group_shapes(rows: &[(char, PatternCensus)]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Group shape composition (share of each pattern per group)"
    )
    .unwrap();
    write!(s, "{:<6}", "group").unwrap();
    if let Some((_, first)) = rows.first() {
        for (label, _) in &first.counts {
            write!(s, " {:>9}", &label[..label.len().min(9)]).unwrap();
        }
    }
    s.push('\n');
    for (g, census) in rows {
        write!(s, "{g:<6}").unwrap();
        for (label, _) in &census.counts {
            write!(s, " {:>8.0}%", 100.0 * census.fraction(label)).unwrap();
        }
        s.push('\n');
    }
    s
}

/// Section V-B — the shape-pattern census over a DAG population (the
/// 58 % chain / 37 % inverted-triangle headline, E6).
pub fn pattern_census_of(dags: &[JobDag]) -> PatternCensus {
    PatternCensus::compute(dags)
}

/// Render a pattern census.
pub fn render_pattern_census(census: &PatternCensus) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Section V-B: shape-pattern census over {} DAG jobs",
        census.total
    )
    .unwrap();
    for (label, count) in &census.counts {
        let frac = if census.total > 0 {
            100.0 * *count as f64 / census.total as f64
        } else {
            0.0
        };
        writeln!(s, "{label:<20} {count:>8} ({frac:>5.1} %)").unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use dagscope_linalg::SymMatrix;

    /// Dense oracle: every off-diagonal pair of the expanded matrix.
    fn fig7_summary_dense(similarity: &SymMatrix) -> SimilaritySummary {
        let n = similarity.n();
        let mut mean = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut identical = 0usize;
        let mut count = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let v = similarity.get(i, j);
                mean += v;
                min = min.min(v);
                max = max.max(v);
                if v > 1.0 - 1e-9 {
                    identical += 1;
                }
                count += 1;
            }
        }
        if count > 0 {
            mean /= count as f64;
        } else {
            min = 0.0;
            max = 0.0;
        }
        SimilaritySummary {
            mean,
            min,
            max,
            identical_pairs: identical,
        }
    }

    fn report() -> Report {
        Pipeline::new(PipelineConfig {
            jobs: 300,
            sample: 30,
            seed: 11,
            ..Default::default()
        })
        .run()
        .unwrap()
    }

    #[test]
    fn fig2_renders_requested_count() {
        let r = report();
        let s = fig2_sample_dags(&r, 3);
        assert_eq!(s.matches("tasks):").count(), 3);
        assert!(s.contains("L0:"));
    }

    #[test]
    fn fig3_mass_conserved_and_shifted_left() {
        let r = report();
        let h = fig3_conflation(&r);
        let before_total: usize = h.before.values().sum();
        let after_total: usize = h.after.values().sum();
        assert_eq!(before_total, after_total);
        assert_eq!(before_total, 30);
        // Paper: the ratio of smaller jobs increases after merging.
        assert!(h.cdf(true, 3) >= h.cdf(false, 3));
        assert!(h.render().contains("before"));
    }

    #[test]
    fn fig4_fig5_tables() {
        let r = report();
        let f4 = fig4_size_groups(&r);
        let f5 = fig5_size_groups(&r);
        assert!(!f4.is_empty() && !f5.is_empty());
        let total4: usize = f4.iter().map(|r| r.jobs).sum();
        assert_eq!(total4, 30);
        // Critical path within published bounds.
        for row in &f4 {
            assert!(row.max_critical_path >= 1 && row.max_critical_path <= 8);
            assert!(row.max_width < 32);
        }
        let rendered = render_size_groups("Fig 4", &f4);
        assert!(rendered.contains("max critical path"));
    }

    #[test]
    fn fig6_rows_cover_sample() {
        let r = report();
        let rows = fig6_type_distribution(&r);
        assert_eq!(rows.len(), 30);
        for w in rows.windows(2) {
            assert!(w[0].size <= w[1].size, "rows sorted by size");
        }
        for row in &rows {
            assert_eq!(row.counts.total() as usize, row.size);
        }
        assert!(render_type_distribution(&rows).contains("model"));
    }

    #[test]
    fn fig7_heatmap_and_summary() {
        let r = report();
        let map = fig7_heatmap(&r.similarity);
        let lines: Vec<&str> = map.lines().skip(1).collect();
        assert_eq!(lines.len(), 30);
        assert!(lines.iter().all(|l| l.len() == 30));
        // Diagonal is the max shade.
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line.as_bytes()[i], b'@');
        }
        let sum = fig7_summary(&r.similarity);
        assert!(sum.min >= 0.0 && sum.max <= 1.0 + 1e-9);
        assert!(sum.mean > 0.0 && sum.mean < 1.0);
    }

    #[test]
    fn fig7_summary_degenerate() {
        let s = fig7_summary_dense(&SymMatrix::zeros(1));
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.identical_pairs, 0);
        let c = fig7_summary(&Similarity {
            unique: SymMatrix::zeros(1),
            shape_of: vec![0],
        });
        assert_eq!(c.mean, 0.0);
        assert_eq!(c.identical_pairs, 0);
    }

    #[test]
    fn fig7_summary_collapsed_matches_dense_expansion() {
        let mut unique = SymMatrix::zeros(3);
        unique.set(0, 0, 1.0);
        unique.set(1, 1, 1.0);
        unique.set(0, 1, 0.25);
        // Shape 2 has a zero φ vector: zero row, zero diagonal.
        let collapsed = Similarity {
            unique,
            shape_of: vec![0, 0, 1, 2, 2, 1],
        };
        let fast = fig7_summary(&collapsed);
        let slow = fig7_summary_dense(&collapsed.to_sym());
        assert!((fast.mean - slow.mean).abs() < 1e-12);
        assert_eq!(fast.min, slow.min);
        assert_eq!(fast.max, slow.max);
        assert_eq!(fast.identical_pairs, slow.identical_pairs);
    }

    #[test]
    fn fig8_contains_every_group() {
        let r = report();
        let s = fig8_representatives(&r);
        for g in &r.groups.groups {
            assert!(s.contains(&format!("Group {}", g.label)));
            assert!(s.contains(&g.representative));
        }
    }

    #[test]
    fn fig9_rows_consistent() {
        let r = report();
        let rows = fig9_group_properties(&r);
        assert_eq!(rows.len(), 5);
        let pop: usize = rows.iter().map(|r| r.population).sum();
        assert_eq!(pop, 30);
        for row in &rows {
            assert!(row.size_mmm.0 <= row.size_mmm.1 && row.size_mmm.1 <= row.size_mmm.2);
            assert!(row.cp_mmm.2 <= 8);
        }
        assert!(render_group_properties(&rows).contains("group"));
    }

    #[test]
    fn census_renders() {
        let r = report();
        let census = pattern_census_of(&r.raw_dags);
        assert_eq!(census.total, 30);
        assert!(render_pattern_census(&census).contains("straight-chain"));
    }

    #[test]
    fn group_shapes_partition_the_sample() {
        let r = report();
        let rows = group_shape_composition(&r);
        assert_eq!(rows.len(), 5);
        let total: usize = rows.iter().map(|(_, c)| c.total).sum();
        assert_eq!(total, 30);
        let rendered = render_group_shapes(&rows);
        assert!(rendered.contains("group"));
        assert!(rendered.lines().count() >= 6);
    }

    #[test]
    fn mmm_of_empty() {
        assert_eq!(mmm(&[]), (0, 0, 0));
        assert_eq!(mmm(&[4]), (4, 4, 4));
        assert_eq!(mmm(&[3, 1, 2]), (1, 2, 3));
    }
}
