//! Lock-free request metrics: per-endpoint counters and latency histograms.
//!
//! Handlers run on the worker pool, so everything here is plain atomics —
//! recording a request is a handful of relaxed fetch-adds, never a lock.
//! Latencies land in fixed logarithmic microsecond buckets (a poor man's
//! HDR histogram); `/metrics` renders the whole structure as one JSON
//! document.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::{obj, Json};

/// Upper bounds (inclusive) of the latency buckets, in microseconds. The
/// last bucket is unbounded.
pub const BUCKET_BOUNDS_US: [u64; 11] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

const BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// The endpoints the service distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/classify`
    Classify,
    /// `POST /v1/advise`
    Advise,
    /// `GET /v1/jobs/{name}`
    Jobs,
    /// `GET /v1/similar/{name}`
    Similar,
    /// `GET /v1/census`
    Census,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// Anything that matched no route.
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 8] = [
        Endpoint::Classify,
        Endpoint::Advise,
        Endpoint::Jobs,
        Endpoint::Similar,
        Endpoint::Census,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    fn name(self) -> &'static str {
        match self {
            Endpoint::Classify => "classify",
            Endpoint::Advise => "advise",
            Endpoint::Jobs => "jobs",
            Endpoint::Similar => "similar",
            Endpoint::Census => "census",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        // Must stay aligned with the order of `Endpoint::ALL`; the
        // `all_indices_align` test pins the correspondence.
        match self {
            Endpoint::Classify => 0,
            Endpoint::Advise => 1,
            Endpoint::Jobs => 2,
            Endpoint::Similar => 3,
            Endpoint::Census => 4,
            Endpoint::Healthz => 5,
            Endpoint::Metrics => 6,
            Endpoint::Other => 7,
        }
    }
}

#[derive(Debug, Default)]
struct EndpointStats {
    requests: AtomicU64,
    /// Responses with status >= 400.
    errors: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl EndpointStats {
    fn record(&self, status: u16, micros: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_us.fetch_add(micros, Ordering::Relaxed);
        self.max_us.fetch_max(micros, Ordering::Relaxed);
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Transport-level failure counters — connections that never produced a
/// routable request, plus overload and panic events. Kept separate from
/// per-endpoint stats because none of these have an endpoint.
#[derive(Debug, Default)]
pub struct Transport {
    /// Connections refused with 503 because the accept queue was full.
    pub shed: AtomicU64,
    /// Keep-alive connections closed after sitting idle past the idle
    /// timeout (normal client behavior, not an error).
    pub idle_timeouts: AtomicU64,
    /// Requests answered 408 because the peer stalled mid-request past
    /// the request deadline (slowloris defense).
    pub request_timeouts: AtomicU64,
    /// Connections torn down by the peer (reset / aborted / broken pipe).
    pub resets: AtomicU64,
    /// Genuine transport I/O errors that were none of the above.
    pub io_errors: AtomicU64,
    /// Handler panics injected through an armed failpoint (identified by
    /// the [`dagscope_faults::InjectedPanic`] payload); always zero in
    /// builds without the `failpoints` feature.
    pub panics_injected: AtomicU64,
    /// Handler panics from real bugs — every caught panic that was not
    /// injected.
    pub panics_organic: AtomicU64,
}

impl Transport {
    /// Bump one counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one caught handler panic, classifying its payload as
    /// injected (failpoint-driven) or organic. The two cause counters
    /// partition every caught panic, so `panics_total` rendered below is
    /// exactly their sum — the cause label is exhaustive.
    pub fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        if dagscope_faults::is_injected_panic(payload) {
            Transport::bump(&self.panics_injected);
        } else {
            Transport::bump(&self.panics_organic);
        }
    }

    fn render(&self) -> Json {
        let n = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let injected = self.panics_injected.load(Ordering::Relaxed);
        let organic = self.panics_organic.load(Ordering::Relaxed);
        obj(vec![
            ("shed_total", n(&self.shed)),
            ("timeouts_total", n(&self.idle_timeouts)),
            ("request_timeouts_total", n(&self.request_timeouts)),
            ("resets_total", n(&self.resets)),
            ("io_errors_total", n(&self.io_errors)),
            ("panics_total", Json::from(injected + organic)),
            (
                "panics_by_cause",
                obj(vec![
                    ("injected", Json::from(injected)),
                    ("organic", Json::from(organic)),
                ]),
            ),
        ])
    }
}

/// Cost counters of the pruned top-k similarity searcher, accumulated
/// across `/v1/similar` queries. `scanned` counts shapes whose partial
/// scores were accumulated; `pruned_candidates` counts shapes the
/// norm-bound admission test skipped — the searcher's savings over a
/// full scan, observable in production without re-running the oracle.
#[derive(Debug, Default)]
pub struct Search {
    /// Unique shapes admitted as candidates.
    pub candidates: AtomicU64,
    /// Posting-list entries accumulated into partial scores.
    pub scanned: AtomicU64,
    /// Shapes skipped by the norm-bound admission test.
    pub pruned_candidates: AtomicU64,
}

impl Search {
    /// Fold one query's counters in.
    pub fn record(&self, stats: &dagscope_wl::QueryStats) {
        self.candidates
            .fetch_add(stats.candidates, Ordering::Relaxed);
        self.scanned.fetch_add(stats.scanned, Ordering::Relaxed);
        self.pruned_candidates
            .fetch_add(stats.pruned, Ordering::Relaxed);
    }

    fn render(&self) -> Json {
        let n = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        obj(vec![
            ("similar_candidates_total", n(&self.candidates)),
            ("similar_scanned_total", n(&self.scanned)),
            (
                "similar_pruned_candidates_total",
                n(&self.pruned_candidates),
            ),
        ])
    }
}

/// Upper bounds (inclusive) of the dispatch batch-size buckets. The last
/// rendered bucket is unbounded.
pub const BATCH_BUCKET_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 32];

const BATCH_BUCKETS: usize = BATCH_BUCKET_BOUNDS.len() + 1;

/// Event-loop counters the reactor thread maintains: connection gauge,
/// wakeup count, requests dispatched per iteration and per-iteration
/// loop lag. Like everything else here these are plain atomics — the
/// reactor writes them between events without taking a lock, and
/// `/metrics` (rendered on a pool worker) reads them concurrently.
#[derive(Debug, Default)]
pub struct Reactor {
    /// Currently open connections (gauge; the reactor stores the slab
    /// population after every accept/close).
    pub open_connections: AtomicU64,
    /// `epoll_wait` returns — one per reactor iteration.
    pub wakeups: AtomicU64,
    batches: AtomicU64,
    batched_items: AtomicU64,
    batch_max: AtomicU64,
    batch_buckets: [AtomicU64; BATCH_BUCKETS],
    lag_buckets: [AtomicU64; BUCKETS],
    lag_max: AtomicU64,
    lag_total_us: AtomicU64,
}

impl Reactor {
    /// Store the current open-connection count.
    pub fn set_open_connections(&self, n: u64) {
        self.open_connections.store(n, Ordering::Relaxed);
    }

    /// Count one reactor iteration that handed `size` (≥ 1) requests to
    /// the worker pool. `/metrics` renders these as `batch_size`.
    pub fn observe_batch(&self, size: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_items.fetch_add(size, Ordering::Relaxed);
        self.batch_max.fetch_max(size, Ordering::Relaxed);
        let bucket = BATCH_BUCKET_BOUNDS
            .iter()
            .position(|&b| size <= b)
            .unwrap_or(BATCH_BUCKETS - 1);
        self.batch_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record how long one reactor iteration spent off `epoll_wait` —
    /// the time events, completions and timers kept the loop busy, which
    /// is exactly the readiness latency every other connection ate.
    pub fn observe_loop_lag_us(&self, micros: u64) {
        self.lag_total_us.fetch_add(micros, Ordering::Relaxed);
        self.lag_max.fetch_max(micros, Ordering::Relaxed);
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(BUCKETS - 1);
        self.lag_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn render(&self) -> Json {
        let n = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let batch_hist: Vec<Json> = (0..BATCH_BUCKETS)
            .map(|i| {
                let le = BATCH_BUCKET_BOUNDS
                    .get(i)
                    .map_or_else(|| "inf".to_string(), |b| b.to_string());
                obj(vec![
                    ("le", Json::Str(le)),
                    (
                        "count",
                        Json::from(self.batch_buckets[i].load(Ordering::Relaxed)),
                    ),
                ])
            })
            .collect();
        let lag_max = self.lag_max.load(Ordering::Relaxed);
        let weighted: Vec<(f64, u64)> = (0..BUCKETS)
            .map(|i| {
                let upper = BUCKET_BOUNDS_US
                    .get(i)
                    .map_or(lag_max as f64, |&b| b as f64);
                (upper, self.lag_buckets[i].load(Ordering::Relaxed))
            })
            .collect();
        let pct = |p: f64| match dagscope_sched::quantile_weighted(&weighted, p) {
            Some(v) => Json::from(v),
            None => Json::Null,
        };
        obj(vec![
            ("open_connections", n(&self.open_connections)),
            ("reactor_wakeups_total", n(&self.wakeups)),
            (
                "batch_size",
                obj(vec![
                    ("batches", n(&self.batches)),
                    ("items", n(&self.batched_items)),
                    ("max", n(&self.batch_max)),
                    ("histogram", Json::Arr(batch_hist)),
                ]),
            ),
            (
                "epoll_loop_lag_us",
                obj(vec![
                    ("p50_us", pct(0.50)),
                    ("p99_us", pct(0.99)),
                    ("max_us", Json::from(lag_max)),
                ]),
            ),
        ])
    }
}

/// Shared, lock-free service metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    stats: [EndpointStats; 8],
    transport: Transport,
    search: Search,
    reactor: Reactor,
    /// Wall clock spent loading the snapshot and building the in-memory
    /// index at startup, in microseconds. Zero until set.
    snapshot_load_us: AtomicU64,
    /// Bytes of snapshot files read during that load. Zero until set;
    /// together with the load time this yields the startup scan
    /// throughput (`snapshot_load_mb_per_s`).
    snapshot_load_bytes: AtomicU64,
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record the startup cost of loading the snapshot and building the
    /// serving index. Called once by the launcher; later calls overwrite.
    pub fn set_snapshot_load_us(&self, micros: u64) {
        self.snapshot_load_us.store(micros, Ordering::Relaxed);
    }

    /// Record how many snapshot bytes that load scanned, so `/metrics`
    /// can report the startup ingest throughput.
    pub fn set_snapshot_load_bytes(&self, bytes: u64) {
        self.snapshot_load_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Record one finished request.
    pub fn record(&self, endpoint: Endpoint, status: u16, micros: u64) {
        self.stats[endpoint.index()].record(status, micros);
    }

    /// Transport-level counters.
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// Similarity-search cost counters.
    pub fn search(&self) -> &Search {
        &self.search
    }

    /// Event-loop counters maintained by the reactor thread.
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Total requests seen across endpoints.
    pub fn total_requests(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Render as the `/metrics` JSON document. `index_jobs` is the size of
    /// the in-memory index the server answers from.
    pub fn render(&self, index_jobs: usize) -> Json {
        let endpoints = Endpoint::ALL
            .iter()
            .map(|e| {
                let s = &self.stats[e.index()];
                let requests = s.requests.load(Ordering::Relaxed);
                let total_us = s.total_us.load(Ordering::Relaxed);
                // Percentile estimates from the bucketed counts: each
                // bucket is represented by its upper bound (the overflow
                // bucket by the observed max), so estimates are
                // conservative but never under-report.
                let max_us = s.max_us.load(Ordering::Relaxed);
                let weighted: Vec<(f64, u64)> = (0..BUCKETS)
                    .map(|i| {
                        let upper = BUCKET_BOUNDS_US.get(i).map_or(max_us as f64, |&b| b as f64);
                        (upper, s.buckets[i].load(Ordering::Relaxed))
                    })
                    .collect();
                let pct = |p: f64| match dagscope_sched::quantile_weighted(&weighted, p) {
                    Some(v) => Json::from(v),
                    None => Json::Null,
                };
                let histogram: Vec<Json> = (0..BUCKETS)
                    .map(|i| {
                        let le = BUCKET_BOUNDS_US
                            .get(i)
                            .map_or_else(|| "inf".to_string(), |b| b.to_string());
                        obj(vec![
                            ("le_us", Json::Str(le)),
                            ("count", Json::from(s.buckets[i].load(Ordering::Relaxed))),
                        ])
                    })
                    .collect();
                (
                    e.name().to_string(),
                    obj(vec![
                        ("requests", Json::from(requests)),
                        ("errors", Json::from(s.errors.load(Ordering::Relaxed))),
                        (
                            "mean_us",
                            if requests == 0 {
                                Json::Null
                            } else {
                                Json::from(total_us as f64 / requests as f64)
                            },
                        ),
                        ("max_us", Json::from(max_us)),
                        ("p50_us", pct(0.50)),
                        ("p95_us", pct(0.95)),
                        ("p99_us", pct(0.99)),
                        ("latency_histogram", Json::Arr(histogram)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("index_jobs", Json::from(index_jobs)),
            ("total_requests", Json::from(self.total_requests())),
            (
                "snapshot_load_us",
                Json::from(self.snapshot_load_us.load(Ordering::Relaxed)),
            ),
            (
                "snapshot_load_bytes",
                Json::from(self.snapshot_load_bytes.load(Ordering::Relaxed)),
            ),
            ("snapshot_load_mb_per_s", {
                // bytes/us is numerically MB/s (1e6 bytes over 1e6 us).
                let us = self.snapshot_load_us.load(Ordering::Relaxed);
                let bytes = self.snapshot_load_bytes.load(Ordering::Relaxed);
                if us == 0 || bytes == 0 {
                    Json::Null
                } else {
                    Json::from(bytes as f64 / us as f64)
                }
            }),
            (
                "process_peak_rss_bytes",
                match dagscope_par::peak_rss_bytes() {
                    Some(bytes) => Json::from(bytes),
                    None => Json::Null,
                },
            ),
            ("transport", self.transport.render()),
            ("search", self.search.render()),
            ("reactor", self.reactor.render()),
            ("endpoints", Json::Obj(endpoints)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_bucket() {
        let m = Metrics::new();
        m.record(Endpoint::Classify, 200, 40); // <= 50
        m.record(Endpoint::Classify, 200, 3_000); // <= 5000
        m.record(Endpoint::Classify, 400, 999_999_999); // overflow bucket
        let doc = m.render(7);
        assert_eq!(doc.get("index_jobs").unwrap().as_num(), Some(7.0));
        assert_eq!(doc.get("total_requests").unwrap().as_num(), Some(3.0));
        let c = doc.get("endpoints").unwrap().get("classify").unwrap();
        assert_eq!(c.get("requests").unwrap().as_num(), Some(3.0));
        assert_eq!(c.get("errors").unwrap().as_num(), Some(1.0));
        let hist = c.get("latency_histogram").unwrap().as_arr().unwrap();
        assert_eq!(hist[0].get("count").unwrap().as_num(), Some(1.0));
        assert_eq!(
            hist.last().unwrap().get("count").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(
            hist.last().unwrap().get("le_us").unwrap().as_str(),
            Some("inf")
        );
        let total: f64 = hist
            .iter()
            .map(|b| b.get("count").unwrap().as_num().unwrap())
            .sum();
        assert_eq!(total, 3.0);
    }

    #[test]
    fn all_indices_align() {
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{e:?}");
        }
    }

    #[test]
    fn transport_counters_render() {
        let m = Metrics::new();
        Transport::bump(&m.transport().shed);
        Transport::bump(&m.transport().shed);
        Transport::bump(&m.transport().request_timeouts);
        let organic = std::panic::catch_unwind(|| panic!("bug")).unwrap_err();
        m.transport().record_panic(organic.as_ref());
        let t = m.render(0);
        let t = t.get("transport").unwrap();
        assert_eq!(t.get("shed_total").unwrap().as_num(), Some(2.0));
        assert_eq!(t.get("request_timeouts_total").unwrap().as_num(), Some(1.0));
        assert_eq!(t.get("panics_total").unwrap().as_num(), Some(1.0));
        let cause = t.get("panics_by_cause").unwrap();
        assert_eq!(cause.get("injected").unwrap().as_num(), Some(0.0));
        assert_eq!(
            cause.get("organic").unwrap().as_num(),
            Some(1.0),
            "a plain panic payload counts as organic"
        );
        assert_eq!(t.get("timeouts_total").unwrap().as_num(), Some(0.0));
        assert_eq!(t.get("resets_total").unwrap().as_num(), Some(0.0));
        assert_eq!(t.get("io_errors_total").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn reactor_counters_render() {
        let m = Metrics::new();
        m.reactor().set_open_connections(42);
        Transport::bump(&m.reactor().wakeups);
        Transport::bump(&m.reactor().wakeups);
        m.reactor().observe_batch(1);
        m.reactor().observe_batch(4);
        m.reactor().observe_batch(100); // overflow bucket
        m.reactor().observe_loop_lag_us(40);
        m.reactor().observe_loop_lag_us(40);
        m.reactor().observe_loop_lag_us(40);
        m.reactor().observe_loop_lag_us(999_999); // overflow; also the max
        let doc = m.render(0);
        let r = doc.get("reactor").unwrap();
        assert_eq!(r.get("open_connections").unwrap().as_num(), Some(42.0));
        assert_eq!(r.get("reactor_wakeups_total").unwrap().as_num(), Some(2.0));
        let b = r.get("batch_size").unwrap();
        assert_eq!(b.get("batches").unwrap().as_num(), Some(3.0));
        assert_eq!(b.get("items").unwrap().as_num(), Some(105.0));
        assert_eq!(b.get("max").unwrap().as_num(), Some(100.0));
        let hist = b.get("histogram").unwrap().as_arr().unwrap();
        assert_eq!(hist.len(), BATCH_BUCKET_BOUNDS.len() + 1);
        assert_eq!(hist[0].get("count").unwrap().as_num(), Some(1.0)); // le 1
        assert_eq!(hist[2].get("count").unwrap().as_num(), Some(1.0)); // le 4
        assert_eq!(
            hist.last().unwrap().get("count").unwrap().as_num(),
            Some(1.0),
            "oversized batch lands in the inf bucket"
        );
        let lag = r.get("epoll_loop_lag_us").unwrap();
        assert_eq!(lag.get("p50_us").unwrap().as_num(), Some(50.0));
        assert_eq!(lag.get("max_us").unwrap().as_num(), Some(999_999.0));
        // The overflow bucket is represented by the observed max.
        assert_eq!(lag.get("p99_us").unwrap().as_num(), Some(999_999.0));
    }

    #[test]
    fn untouched_reactor_renders_null_lag() {
        let m = Metrics::new();
        let doc = m.render(0);
        let r = doc.get("reactor").unwrap();
        assert_eq!(r.get("open_connections").unwrap().as_num(), Some(0.0));
        let lag = r.get("epoll_loop_lag_us").unwrap();
        assert_eq!(lag.get("p50_us"), Some(&Json::Null));
        assert_eq!(lag.get("p99_us"), Some(&Json::Null));
    }

    #[test]
    fn search_counters_render() {
        let m = Metrics::new();
        m.search().record(&dagscope_wl::QueryStats {
            candidates: 4,
            scanned: 17,
            pruned: 9,
        });
        m.search().record(&dagscope_wl::QueryStats {
            candidates: 1,
            scanned: 3,
            pruned: 0,
        });
        let doc = m.render(0);
        let s = doc.get("search").unwrap();
        assert_eq!(
            s.get("similar_candidates_total").unwrap().as_num(),
            Some(5.0)
        );
        assert_eq!(s.get("similar_scanned_total").unwrap().as_num(), Some(20.0));
        assert_eq!(
            s.get("similar_pruned_candidates_total").unwrap().as_num(),
            Some(9.0)
        );
    }

    #[test]
    fn startup_and_process_gauges_render() {
        let m = Metrics::new();
        let doc = m.render(0);
        assert_eq!(doc.get("snapshot_load_us").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("snapshot_load_bytes").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("snapshot_load_mb_per_s"), Some(&Json::Null));
        m.set_snapshot_load_us(123_456);
        m.set_snapshot_load_bytes(2_469_120);
        let doc = m.render(0);
        assert_eq!(
            doc.get("snapshot_load_us").unwrap().as_num(),
            Some(123_456.0)
        );
        assert_eq!(
            doc.get("snapshot_load_bytes").unwrap().as_num(),
            Some(2_469_120.0)
        );
        // 2_469_120 bytes over 123_456 us is exactly 20 MB/s.
        assert_eq!(
            doc.get("snapshot_load_mb_per_s").unwrap().as_num(),
            Some(20.0)
        );
        // On Linux the peak-RSS gauge is a positive number; elsewhere null.
        let rss = doc.get("process_peak_rss_bytes").unwrap();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss.as_num().unwrap() > 0.0);
        } else {
            assert_eq!(rss, &Json::Null);
        }
    }

    #[test]
    fn untouched_endpoint_reports_null_mean() {
        let m = Metrics::new();
        let doc = m.render(0);
        let j = doc.get("endpoints").unwrap().get("jobs").unwrap();
        assert_eq!(j.get("mean_us"), Some(&Json::Null));
        assert_eq!(j.get("requests").unwrap().as_num(), Some(0.0));
        assert_eq!(j.get("p50_us"), Some(&Json::Null));
        assert_eq!(j.get("p99_us"), Some(&Json::Null));
    }

    #[test]
    fn histogram_percentiles_estimate_from_buckets() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record(Endpoint::Advise, 200, 40); // <= 50 bucket
        }
        m.record(Endpoint::Advise, 200, 777_777); // overflow bucket
        let doc = m.render(0);
        let a = doc.get("endpoints").unwrap().get("advise").unwrap();
        // 99/100 requests sit in the first bucket, so every percentile up
        // to p99 resolves to that bucket's 50us upper bound.
        assert_eq!(a.get("p50_us").unwrap().as_num(), Some(50.0));
        assert_eq!(a.get("p95_us").unwrap().as_num(), Some(50.0));
        assert_eq!(a.get("p99_us").unwrap().as_num(), Some(50.0));
        // The overflow bucket reports the observed max, not infinity.
        assert_eq!(a.get("max_us").unwrap().as_num(), Some(777_777.0));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        m.record(Endpoint::Census, 200, i);
                    }
                });
            }
        });
        assert_eq!(m.total_requests(), 4000);
    }
}
