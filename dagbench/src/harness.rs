//! Pieces every workload shares: the seeded RNG, CRC64, the streaming CSV
//! writer, the child re-exec protocol, the span recorder and percentiles.
//! JSON goes through the serve crate's codec, which keeps every digit of a
//! number.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dagscope_core::{Pipeline, Report};
use dagscope_serve::Json;
use dagscope_trace::csv;
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::stream::StreamedTrace;
use dagscope_trace::ReadPolicy;

/// Environment variable that turns this binary into a measurement child.
pub const CHILD_ENV: &str = "DAGBENCH_CHILD";

/// SplitMix64: a small seeded generator, so request mixes and arrival
/// times are a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential inter-arrival gap, in seconds, of a Poisson process at
    /// `rate` events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// CRC-64/XZ of `data`: the checksum the correctness pins are written in.
pub fn crc64(data: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut crc = !0u64;
    for &b in data {
        crc ^= b as u64;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Stream a seeded `jobs`-job `batch_task.csv` to `path` without holding
/// the trace in memory; returns the byte count.
pub fn write_trace_csv(path: &Path, jobs: usize, seed: u64) -> Result<u64, String> {
    let generator = TraceGenerator::new(GeneratorConfig {
        jobs,
        seed,
        ..GeneratorConfig::default()
    });
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let mut bytes = 0u64;
    let mut row = Vec::with_capacity(128);
    for i in 0..jobs {
        let (tasks, _) = generator.generate_job(i);
        for task in &tasks {
            row.clear();
            csv::push_task_line(&mut row, task);
            bytes += row.len() as u64;
            w.write_all(&row).map_err(|e| format!("write trace: {e}"))?;
        }
    }
    w.flush().map_err(|e| format!("flush trace: {e}"))?;
    Ok(bytes)
}

/// Peak resident set of the calling process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    dagscope_par::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

/// What a measurement child printed: `key=value` lines, in order.
pub struct ChildOutput {
    pub lines: Vec<(String, String)>,
}

impl ChildOutput {
    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.lines
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("child reported no {key}"))
    }

    pub fn num(&self, key: &str) -> Result<f64, String> {
        let v = self.get(key)?;
        v.parse()
            .map_err(|_| format!("child {key}={v:?} is not a number"))
    }

    pub fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.lines
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse `key=value` lines; anything else is ignored.
pub fn parse_kv(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Re-execute this binary as a `kind` child with `env`, wait for it, and
/// parse its report. A fresh process per measurement is what lets `VmHWM`
/// isolate one repetition's peak memory.
pub fn run_child(kind: &str, env: &[(&str, String)]) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.env(CHILD_ENV, kind).stdin(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {kind} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{kind} child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = String::from_utf8(output.stdout).map_err(|_| "child stdout is not UTF-8")?;
    Ok(ChildOutput {
        lines: parse_kv(&text),
    })
}

/// Read a child-side environment variable.
pub fn env_var(key: &str) -> Result<String, String> {
    std::env::var(key).map_err(|_| format!("{key} is not set"))
}

/// Read and parse a child-side environment variable.
pub fn env_num<T: std::str::FromStr>(key: &str) -> Result<T, String> {
    env_var(key)?
        .parse()
        .map_err(|_| format!("{key} is not a number"))
}

/// Nanoseconds since the Unix epoch; the only clock two processes share.
fn unix_ns() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as i64)
}

/// One timed call: a name (`layer.call`), its interval and the span that
/// caused it. Requests of the serve workload also carry their id.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start: i64,
    pub end: i64,
    pub request: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }

    /// The layer is the name's first dot-separated part.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// The root span name of one measured operation.
pub const OP: &str = "op";

/// In-memory span and counter store. Disabled recorders ignore every
/// call, so untraced runs pay for nothing but the `enabled` check.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    epoch_unix: i64,
    pub spans: Vec<Span>,
    /// Per-operation samples of named counters (`layer.metric`).
    pub counters: BTreeMap<String, Vec<f64>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            epoch_unix: unix_ns(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> i64 {
        t.saturating_duration_since(self.epoch).as_nanos() as i64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start: self.ns(start),
            end: self.ns(end),
            request: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end = end;
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn set_request(&mut self, id: Option<usize>, request: u64) {
        if let Some(id) = id {
            self.spans[id].request = Some(request);
        }
    }

    pub fn count(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.counters
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// Time the streamed scan of the trace at `path` as `trace.scan`, and
    /// count its throughput and resident metadata.
    pub fn scan(
        &mut self,
        parent: Option<usize>,
        path: &Path,
    ) -> Result<StreamedTrace<std::fs::File>, String> {
        let start = Instant::now();
        let id = self.open("trace.scan", parent);
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let streamed = StreamedTrace::scan(file, &ReadPolicy::Strict, &SampleCriteria::default())
            .map_err(|e| format!("scan: {e}"))?;
        self.close(id);
        let secs = start.elapsed().as_secs_f64();
        self.count("trace.scan_mb_s", streamed.raw_bytes() as f64 / 1e6 / secs);
        self.count("trace.metadata_mb", streamed.metadata_bytes() as f64 / 1e6);
        Ok(streamed)
    }

    /// Time `Pipeline::run_streamed` as `core.pipeline`, with one child
    /// span per stage of the `StageTimings` it returns, laid end to end,
    /// and count the Gram stage's work.
    pub fn pipeline<R: std::io::Read + std::io::Seek>(
        &mut self,
        parent: Option<usize>,
        pipeline: &Pipeline,
        streamed: &mut StreamedTrace<R>,
    ) -> Result<Report, String> {
        let start = Instant::now();
        let id = self.open("core.pipeline", parent);
        let report = pipeline.run_streamed(streamed)?;
        self.close(id);
        let t = &report.timings;
        let mut at = start;
        for (name, d) in [
            ("trace.stats", t.stats),
            ("trace.sample", t.sample),
            ("graph.dags", t.dags),
            ("graph.features", t.features),
            ("wl.embed", t.embed),
            ("wl.dedup", t.dedup),
            ("wl.kernel", t.kernel),
            ("cluster.cluster", t.cluster),
        ] {
            self.record(name, id, at, at + d);
            at += d;
        }
        if let Some(g) = &report.gram {
            self.count("wl.unique_shapes", g.unique_shapes as f64);
            self.count("wl.dot_products", g.dot_products as f64);
            self.count("wl.candidate_pairs", g.candidate_pairs as f64);
        }
        Ok(report)
    }

    /// Print spans and counters as `key=value` lines for a parent to
    /// [`absorb`](Self::absorb).
    pub fn emit(&self) {
        println!("epoch_unix={}", self.epoch_unix);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            println!("span={parent},{},{},{}", s.start, s.end, s.name);
        }
        for (name, values) in &self.counters {
            for v in values {
                println!("counter={name},{v}");
            }
        }
    }

    /// Take in a child's spans and counters. Child root spans hang under
    /// `parent`; times move onto this recorder's epoch through the shared
    /// Unix clock.
    pub fn absorb(&mut self, child: &ChildOutput, parent: Option<usize>) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let epoch: i64 = child
            .get("epoch_unix")?
            .parse()
            .map_err(|_| "bad epoch_unix")?;
        let shift = epoch - self.epoch_unix;
        let base = self.spans.len();
        for line in child.all("span") {
            let mut parts = line.splitn(4, ',');
            let mut field = || parts.next().ok_or_else(|| format!("bad span {line:?}"));
            let p: i64 = field()?.parse().map_err(|_| format!("bad span {line:?}"))?;
            let start: i64 = field()?.parse().map_err(|_| format!("bad span {line:?}"))?;
            let end: i64 = field()?.parse().map_err(|_| format!("bad span {line:?}"))?;
            let name = field()?.to_string();
            self.spans.push(Span {
                name,
                parent: if p < 0 {
                    parent
                } else {
                    Some(base + p as usize)
                },
                start: start + shift,
                end: end + shift,
                request: None,
            });
        }
        for line in child.all("counter") {
            let (name, v) = line
                .rsplit_once(',')
                .ok_or_else(|| format!("bad counter {line:?}"))?;
            let v: f64 = v.parse().map_err(|_| format!("bad counter {line:?}"))?;
            self.count(name, v);
        }
        Ok(())
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Per operation (each [`OP`] root), the self time of every layer in
    /// its subtree: a span's duration minus its children's. The op
    /// root's own self time is the part no child span accounts for.
    pub fn self_times(&self) -> Vec<BTreeMap<String, f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut per_op = Vec::new();
        for (root, s) in self.spans.iter().enumerate() {
            if s.name != OP || s.parent.is_some() {
                continue;
            }
            let mut layers: BTreeMap<String, f64> = BTreeMap::new();
            let mut stack = vec![root];
            while let Some(i) = stack.pop() {
                let span = &self.spans[i];
                let covered: f64 = children[i].iter().map(|&c| self.spans[c].secs()).sum();
                *layers.entry(span.layer().to_string()).or_default() += span.secs() - covered;
                stack.extend(&children[i]);
            }
            per_op.push(layers);
        }
        per_op
    }

    /// Write every span as JSON, one per line, times in microseconds since
    /// the Unix epoch.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        let us = |t: i64| Json::Num((t + self.epoch_unix) as f64 / 1e3);
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id", Json::from(i)),
                ("name", Json::from(s.name.as_str())),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("start_us", us(s.start)),
                ("end_us", us(s.end)),
            ];
            if let Some(r) = s.request {
                fields.push(("request", Json::from(r)));
            }
            let fields = fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            out.push_str(&Json::Obj(fields).encode());
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Median of `samples` (mean of the middle two for even counts); 0 for
/// none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile (Python's `statistics.quantiles`
/// "inclusive" method); 0 for no samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartiles by Python's default
/// `statistics.quantiles(values, n=4)` ("exclusive" method), the spread
/// the regression rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `q` quantile, reported only when at least ten samples lie beyond
/// it; 0 otherwise, since a tail without samples behind it is noise.
pub fn tail(samples: &[f64], q: f64) -> f64 {
    if (samples.len() as f64) * (1.0 - q) < 10.0 {
        0.0
    } else {
        quantile(samples, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_known_answer() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn quantiles_match_python_inclusive() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_default() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), 0.0);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail(&v, 0.99) > 980.0);
    }

    #[test]
    fn self_times_subtract_children() {
        let mut rec = Recorder::new(true);
        let t0 = Instant::now();
        let ms = |n: u64| t0 + std::time::Duration::from_millis(n);
        let op = rec.record(OP, None, ms(0), ms(100));
        let scan = rec.record("trace.scan", op, ms(0), ms(60));
        rec.record("trace.stats", scan, ms(0), ms(10));
        rec.record("wl.embed", op, ms(60), ms(90));
        let per_op = rec.self_times();
        assert_eq!(per_op.len(), 1);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(per_op[0]["trace"], 0.060));
        assert!(close(per_op[0]["wl"], 0.030));
        assert!(close(per_op[0][OP], 0.010));
    }
}
