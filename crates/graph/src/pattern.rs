//! Shape-pattern classification (Section V-B).
//!
//! The paper categorizes DAG jobs into shape-based fundamental patterns —
//! *straight chain* (58 % of DAG jobs), *inverted triangle* (37 %),
//! *diamond*, plus the rarer *hourglass*, *trapezium* and hybrid
//! combinations. The classifier here reads a job's level-width profile
//! (population per dependency level) and applies the paper's geometric
//! definitions in priority order.

use serde::{Deserialize, Serialize};

use dagscope_trace::gen::ShapeKind;

use crate::JobDag;

/// Classification result: one of the paper's named shapes, or `Irregular`
/// for width profiles matching none of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// One of the six named shapes.
    Shape(ShapeKind),
    /// No named shape fits.
    Irregular,
}

impl Pattern {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Shape(s) => s.label(),
            Pattern::Irregular => "irregular",
        }
    }
}

/// Classify a DAG by its level-width profile.
///
/// Priority order (first match wins):
/// 1. **chain** — every level has exactly one task;
/// 2. **diamond** — single input, single output, wider middle;
/// 3. **hourglass** — wide start and end, some interior level of width 1;
/// 4. **hybrid** — convergent head ending in a sequential tail of length
///    ≥ 2 (inverted triangle + long tail, the combination style the paper
///    observes);
/// 5. **inverted triangle** — non-increasing widths, more inputs than
///    outputs;
/// 6. **trapezium** — non-decreasing widths, more outputs than inputs;
/// 7. otherwise **irregular**.
pub fn classify(dag: &JobDag) -> Pattern {
    classify_widths(&dag.shape().summary().level_widths)
}

/// Classify a width profile directly (exposed for tests and for the
/// pattern census which caches width vectors).
pub fn classify_widths(widths: &[usize]) -> Pattern {
    let depth = widths.len();
    if depth == 0 {
        return Pattern::Irregular;
    }
    let first = widths[0];
    let last = widths[depth - 1];
    let non_increasing = widths.windows(2).all(|w| w[0] >= w[1]);
    let non_decreasing = widths.windows(2).all(|w| w[0] <= w[1]);

    // 1. Chain.
    if widths.iter().all(|&w| w == 1) {
        return Pattern::Shape(ShapeKind::Chain);
    }
    // 2. Diamond: single source and sink around a wider middle.
    if first == 1 && last == 1 && depth >= 3 {
        return Pattern::Shape(ShapeKind::Diamond);
    }
    // 3. Hourglass: wide rims, narrow waist.
    if first >= 2 && last >= 2 && depth >= 3 && widths[1..depth - 1].contains(&1) {
        return Pattern::Shape(ShapeKind::Hourglass);
    }
    // 4. Hybrid: convergent head + sequential tail (≥ 2 trailing 1-levels).
    let tail_ones = widths.iter().rev().take_while(|&&w| w == 1).count();
    if non_increasing && first > 1 && tail_ones >= 2 {
        return Pattern::Shape(ShapeKind::Hybrid);
    }
    // 5. Inverted triangle: convergent.
    if non_increasing && first > last {
        return Pattern::Shape(ShapeKind::InvertedTriangle);
    }
    // 6. Trapezium: diffuse.
    if non_decreasing && last > first {
        return Pattern::Shape(ShapeKind::Trapezium);
    }
    Pattern::Irregular
}

/// Shape census over a population: counts and fractions per pattern,
/// ordered as the paper lists them (E6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternCensus {
    /// Total DAGs classified.
    pub total: usize,
    /// `(label, count)` rows, fixed order: the six shapes then irregular.
    pub counts: Vec<(String, usize)>,
}

impl PatternCensus {
    /// Classify every DAG and tally.
    pub fn compute(dags: &[JobDag]) -> PatternCensus {
        PatternCensus::tally(dags.iter().map(|dag| (classify(dag), 1)))
    }

    /// Tally `(pattern, jobs)` pairs, a pattern any number of times.
    pub fn tally(patterns: impl IntoIterator<Item = (Pattern, usize)>) -> PatternCensus {
        let mut tally = [0usize; 7];
        for (pattern, jobs) in patterns {
            let idx = match pattern {
                Pattern::Shape(s) => ShapeKind::ALL.iter().position(|k| *k == s).unwrap(),
                Pattern::Irregular => 6,
            };
            tally[idx] += jobs;
        }
        let mut counts = Vec::with_capacity(7);
        for (i, kind) in ShapeKind::ALL.iter().enumerate() {
            counts.push((kind.label().to_string(), tally[i]));
        }
        counts.push(("irregular".to_string(), tally[6]));
        PatternCensus {
            total: tally.iter().sum(),
            counts,
        }
    }

    /// Fraction of the population with the given label (0 when unseen).
    pub fn fraction(&self, label: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0.0, |(_, c)| *c as f64 / self.total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use dagscope_trace::gen::{build_shape, ShapeKind};
    use dagscope_trace::{Job, Status, TaskRecord};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn dag(names: &[&str]) -> JobDag {
        JobDag::from_job(&Job {
            name: "j".into(),
            tasks: names.iter().map(|n| t(n)).collect(),
        })
        .unwrap()
    }

    #[test]
    fn width_profiles() {
        assert_eq!(
            classify_widths(&[1, 1, 1]),
            Pattern::Shape(ShapeKind::Chain)
        );
        assert_eq!(
            classify_widths(&[4, 2, 1]),
            Pattern::Shape(ShapeKind::InvertedTriangle)
        );
        assert_eq!(
            classify_widths(&[1, 3, 1]),
            Pattern::Shape(ShapeKind::Diamond)
        );
        assert_eq!(
            classify_widths(&[3, 1, 3]),
            Pattern::Shape(ShapeKind::Hourglass)
        );
        assert_eq!(
            classify_widths(&[1, 2, 4]),
            Pattern::Shape(ShapeKind::Trapezium)
        );
        assert_eq!(
            classify_widths(&[4, 2, 1, 1]),
            Pattern::Shape(ShapeKind::Hybrid)
        );
        assert_eq!(classify_widths(&[2, 3, 1]), Pattern::Irregular);
        assert_eq!(classify_widths(&[]), Pattern::Irregular);
        // Simple MapReduce: 2 maps + 1 reduce = the paper's easy example.
        assert_eq!(
            classify_widths(&[2, 1]),
            Pattern::Shape(ShapeKind::InvertedTriangle)
        );
    }

    #[test]
    fn classify_real_dags() {
        assert_eq!(
            classify(&dag(&["M1", "R2_1", "R3_2"])),
            Pattern::Shape(ShapeKind::Chain)
        );
        assert_eq!(
            classify(&dag(&["M1", "M2", "R3_2_1"])),
            Pattern::Shape(ShapeKind::InvertedTriangle)
        );
        assert_eq!(
            classify(&dag(&["M1", "R2_1", "R3_1", "R4_3_2"])),
            Pattern::Shape(ShapeKind::Diamond)
        );
    }

    #[test]
    fn generated_shapes_classify_as_themselves() {
        // The generator and classifier must agree — this is what makes the
        // shape-mix experiment (E6) meaningful.
        let mut rng = StdRng::seed_from_u64(17);
        for shape in ShapeKind::ALL {
            for n in [6usize, 10, 20] {
                let plan = build_shape(&mut rng, shape, n);
                let d = JobDag::from_plan("j", &plan);
                let got = classify(&d);
                assert_eq!(
                    got,
                    Pattern::Shape(shape),
                    "shape={shape:?} n={n} widths={:?}",
                    algo::level_widths(&d)
                );
            }
        }
    }

    #[test]
    fn census_counts_and_fractions() {
        let dags = vec![
            dag(&["M1", "R2_1"]),         // chain
            dag(&["M1", "R2_1", "R3_2"]), // chain
            dag(&["M1", "M2", "R3_2_1"]), // inverted triangle
        ];
        let census = PatternCensus::compute(&dags);
        assert_eq!(census.total, 3);
        assert!((census.fraction("straight-chain") - 2.0 / 3.0).abs() < 1e-12);
        assert!((census.fraction("inverted-triangle") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(census.fraction("diamond"), 0.0);
        assert_eq!(census.fraction("nonexistent"), 0.0);
    }

    #[test]
    fn census_empty_population() {
        let census = PatternCensus::compute(&[]);
        assert_eq!(census.total, 0);
        assert_eq!(census.fraction("straight-chain"), 0.0);
    }
}
