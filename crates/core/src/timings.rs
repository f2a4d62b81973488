//! Per-stage wall-clock instrumentation for pipeline runs.

use std::time::Duration;

/// Wall-clock time spent in each pipeline stage of one
/// [`Pipeline::run_on`](crate::Pipeline::run_on) invocation.
///
/// All stages are measured on the calling thread, so a parallel stage's
/// duration is its wall-clock span, not CPU time summed over workers —
/// exactly the number a thread-count sweep should shrink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Trace-level statistics pass.
    pub stats: Duration,
    /// Integrity/availability filters + stratified sampling.
    pub sample: Duration,
    /// DAG construction and node conflation (parallel).
    pub dags: Duration,
    /// Structural feature extraction, raw + conflated (parallel).
    pub features: Duration,
    /// WL (or shortest-path) embedding of the sample (parallel).
    pub embed: Duration,
    /// WL-fingerprint deduplication of the embedded vectors.
    pub dedup: Duration,
    /// Kernel-matrix assembly + normalization (parallel).
    pub kernel: Duration,
    /// Spectral clustering + per-group analysis.
    pub cluster: Duration,
    /// End-to-end wall clock of the whole run.
    pub total: Duration,
}

impl StageTimings {
    /// Named `(stage, duration)` rows in pipeline order, excluding the
    /// total.
    pub fn stages(&self) -> [(&'static str, Duration); 8] {
        [
            ("stats", self.stats),
            ("sample", self.sample),
            ("dags", self.dags),
            ("features", self.features),
            ("embed", self.embed),
            ("dedup", self.dedup),
            ("kernel", self.kernel),
            ("cluster", self.cluster),
        ]
    }

    /// Multi-line table: one row per stage with its share of the total.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("== stage timings ==\n");
        let total = self.total.as_secs_f64().max(f64::MIN_POSITIVE);
        for (name, d) in self.stages() {
            writeln!(
                s,
                "{:<9} {:>9.3} ms {:>5.1} %",
                name,
                1e3 * d.as_secs_f64(),
                100.0 * d.as_secs_f64() / total
            )
            .unwrap();
        }
        writeln!(
            s,
            "{:<9} {:>9.3} ms",
            "total",
            1e3 * self.total.as_secs_f64()
        )
        .unwrap();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_stage_and_total() {
        let t = StageTimings {
            stats: Duration::from_millis(1),
            sample: Duration::from_millis(2),
            dags: Duration::from_millis(3),
            features: Duration::from_millis(4),
            embed: Duration::from_millis(5),
            dedup: Duration::from_millis(0),
            kernel: Duration::from_millis(6),
            cluster: Duration::from_millis(7),
            total: Duration::from_millis(28),
        };
        let s = t.render();
        for name in [
            "stats", "sample", "dags", "features", "embed", "dedup", "kernel", "cluster", "total",
        ] {
            assert!(s.contains(name), "missing {name} in:\n{s}");
        }
        assert!(s.contains("25.0 %")); // cluster: 7/28
    }

    #[test]
    fn zero_total_renders_without_nan() {
        let s = StageTimings::default().render();
        assert!(!s.contains("NaN"));
    }
}
