//! End-to-end test: synthetic trace → pipeline → snapshot on disk →
//! server on an ephemeral port → every endpoint exercised through raw
//! `std::net::TcpStream` requests, including error paths and a
//! 4-connection concurrent session whose classify verdicts must be
//! **bit-identical** to the offline pipeline's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use dagscope_cluster::GroupModel;
use dagscope_core::{IndexSnapshot, Pipeline, PipelineConfig};
use dagscope_serve::{Json, ServeIndex, Server, ServerHandle};
use dagscope_trace::{csv, Job};

/// A keep-alive HTTP/1.1 session over one TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Send one request, read one response; the connection stays open.
    fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: e2e\r\n");
        if let Some(b) = body {
            raw.push_str(&format!("Content-Length: {}\r\n", b.len()));
        }
        raw.push_str("\r\n");
        if let Some(b) = body {
            raw.push_str(b);
        }
        self.writer.write_all(raw.as_bytes()).expect("send");
        self.read_response()
    }

    /// Push raw bytes down the socket (for malformed-request tests).
    fn send_raw(&mut self, bytes: &[u8]) -> (u16, String) {
        self.writer.write_all(bytes).expect("send raw");
        self.read_response()
    }

    fn read_response(&mut self) -> (u16, String) {
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length value");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8 body"))
    }

    fn get(&mut self, path: &str) -> (u16, Json) {
        let (status, body) = self.send("GET", path, None);
        (status, Json::parse(&body).expect("JSON body"))
    }
}

/// One fixture: pipeline run → snapshot round-trip through disk → server.
struct Fixture {
    report: dagscope_core::Report,
    jobs: Vec<Job>,
    addr: SocketAddr,
    handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(seed: u64, threads: usize) -> Fixture {
    let report = Pipeline::new(PipelineConfig {
        jobs: 300,
        sample: 30,
        seed,
        ..Default::default()
    })
    .run()
    .expect("pipeline");
    let snapshot = IndexSnapshot::from_report(&report).expect("snapshot");
    let dir = std::env::temp_dir().join(format!(
        "dagscope_e2e_{seed}_{}_{threads}",
        std::process::id()
    ));
    snapshot.save(&dir).expect("save snapshot");
    let loaded = IndexSnapshot::load(&dir).expect("load snapshot");
    std::fs::remove_dir_all(&dir).ok();
    let jobs = loaded.jobs.clone();
    let index = ServeIndex::build(loaded).expect("build index");
    let server = Server::bind(index, "127.0.0.1:0", threads).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    Fixture {
        report,
        jobs,
        addr,
        handle,
        join,
    }
}

impl Fixture {
    fn stop(self) {
        self.handle.shutdown();
        self.join
            .join()
            .expect("server thread")
            .expect("server run");
    }

    /// The classify request body for sampled job `i`, in the exact wire
    /// format the service documents.
    fn classify_body(&self, i: usize) -> String {
        let rows: Vec<Json> = self.jobs[i]
            .tasks
            .iter()
            .map(|t| Json::Str(csv::format_task_line(t)))
            .collect();
        Json::Obj(vec![
            ("job_name".to_string(), Json::Str(self.jobs[i].name.clone())),
            ("tasks".to_string(), Json::Arr(rows)),
        ])
        .encode()
    }
}

#[test]
fn every_endpoint_over_one_keep_alive_connection() {
    let fx = start(21, 2);
    let mut c = Client::connect(fx.addr);

    let (status, body) = c.get("/healthz");
    assert_eq!(status, 200);
    assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(body.get("jobs").unwrap().as_num(), Some(30.0));

    let (status, body) = c.get("/v1/census");
    assert_eq!(status, 200);
    assert_eq!(body.get("jobs").unwrap().as_num(), Some(30.0));
    let groups = body.get("groups").unwrap().as_arr().unwrap();
    assert_eq!(groups.len(), 5);
    let population: f64 = groups
        .iter()
        .map(|g| g.get("population").unwrap().as_num().unwrap())
        .sum();
    assert_eq!(population, 30.0);
    let patterns = body.get("patterns").unwrap().as_arr().unwrap();
    let pattern_total: f64 = patterns
        .iter()
        .map(|p| p.get("count").unwrap().as_num().unwrap())
        .sum();
    assert_eq!(pattern_total, 30.0);

    let name = fx.jobs[0].name.clone();
    let (status, body) = c.get(&format!("/v1/jobs/{name}"));
    assert_eq!(status, 200);
    assert_eq!(body.get("name").unwrap().as_str(), Some(name.as_str()));
    assert!(body.get("critical_path").unwrap().as_num().unwrap() >= 1.0);
    assert!(body.get("max_width").unwrap().as_num().unwrap() >= 1.0);
    let group = body.get("group").unwrap().as_str().unwrap().to_string();

    let (status, body) = c.get(&format!("/v1/similar/{name}?k=4"));
    assert_eq!(status, 200);
    assert_eq!(body.get("group").unwrap().as_str(), Some(group.as_str()));
    let neighbours = body.get("neighbours").unwrap().as_arr().unwrap();
    assert_eq!(neighbours.len(), 4);
    let scores: Vec<f64> = neighbours
        .iter()
        .map(|n| n.get("score").unwrap().as_num().unwrap())
        .collect();
    assert!(
        scores.windows(2).all(|w| w[0] >= w[1]),
        "ranked: {scores:?}"
    );

    let (status, raw) = c.send("POST", "/v1/classify", Some(&fx.classify_body(0)));
    assert_eq!(status, 200, "{raw}");
    let body = Json::parse(&raw).unwrap();
    assert_eq!(
        body.get("group").unwrap().as_str(),
        Some(group.as_str()),
        "an indexed member must classify into its own group"
    );
    let classify_cluster = body.get("cluster").unwrap().as_num().unwrap();
    let classify_confidence = body.get("confidence").unwrap().as_num().unwrap();

    // The advise endpoint answers from the same snapshot: identical
    // classification verdict plus scheduling hints from the group's
    // historical profile.
    let (status, raw) = c.send("POST", "/v1/advise", Some(&fx.classify_body(0)));
    assert_eq!(status, 200, "{raw}");
    let body = Json::parse(&raw).unwrap();
    assert_eq!(body.get("group").unwrap().as_str(), Some(group.as_str()));
    assert_eq!(
        body.get("cluster").unwrap().as_num(),
        Some(classify_cluster),
        "advise must agree with classify on the cluster"
    );
    assert_eq!(
        body.get("confidence").unwrap().as_num(),
        Some(classify_confidence),
        "advise must agree with classify on the confidence"
    );
    let predicted_work = body.get("predicted_work").unwrap().as_num().unwrap();
    assert!(predicted_work > 0.0, "group history gives a positive work");
    assert!(
        body.get("predicted_critical_path")
            .unwrap()
            .as_num()
            .unwrap()
            > 0.0
    );
    assert_eq!(
        body.get("suggested_priority").unwrap().as_num(),
        Some(predicted_work),
        "priority key is the predicted work"
    );
    assert!(
        matches!(body.get("fallback"), Some(Json::Bool(_))),
        "fallback is a boolean"
    );

    // Error paths, all on the same connection.
    let (status, _) = c.get("/v1/jobs/definitely_not_indexed");
    assert_eq!(status, 404);
    let (status, _) = c.get("/v1/similar/definitely_not_indexed");
    assert_eq!(status, 404);
    let (status, _) = c.get(&format!("/v1/similar/{name}?k=-3"));
    assert_eq!(status, 400);
    let (status, _) = c.get("/v1/who_knows");
    assert_eq!(status, 404);
    let (status, raw) = c.send("POST", "/v1/classify", Some("{not json"));
    assert_eq!(status, 400);
    assert!(Json::parse(&raw).unwrap().get("error").is_some());
    let (status, _) = c.send("POST", "/v1/classify", Some(r#"{"tasks":["bogus,row"]}"#));
    assert_eq!(status, 400);
    let (status, _) = c.send("GET", "/v1/classify", None);
    assert_eq!(status, 405);
    let (status, raw) = c.send("POST", "/v1/advise", Some("{not json"));
    assert_eq!(status, 400);
    assert!(Json::parse(&raw).unwrap().get("error").is_some());
    let (status, _) = c.send("POST", "/v1/advise", Some(r#"{"tasks":[]}"#));
    assert_eq!(status, 400);
    let (status, _) = c.send("GET", "/v1/advise", None);
    assert_eq!(status, 405);
    let (status, _) = c.send("POST", "/v1/census", None);
    assert_eq!(status, 405);

    // Metrics must reflect the session: every endpoint hit, nonzero
    // latency histograms.
    let (status, body) = c.get("/metrics");
    assert_eq!(status, 200);
    assert_eq!(body.get("index_jobs").unwrap().as_num(), Some(30.0));
    assert!(body.get("total_requests").unwrap().as_num().unwrap() >= 13.0);
    let endpoints = body.get("endpoints").unwrap();
    for (name, min_requests) in [
        ("classify", 3.0),
        ("advise", 3.0),
        ("jobs", 2.0),
        ("similar", 3.0),
        ("census", 2.0),
        ("healthz", 1.0),
    ] {
        let e = endpoints.get(name).unwrap();
        assert!(
            e.get("requests").unwrap().as_num().unwrap() >= min_requests,
            "endpoint {name}"
        );
        let histogram_total: f64 = e
            .get("latency_histogram")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|b| b.get("count").unwrap().as_num().unwrap())
            .sum();
        assert!(histogram_total >= min_requests, "histogram of {name}");
    }
    let classify_errors = endpoints
        .get("classify")
        .unwrap()
        .get("errors")
        .unwrap()
        .as_num()
        .unwrap();
    assert!(classify_errors >= 2.0, "both bad bodies counted as errors");

    // Every request went to the pool through one dispatch path, and one
    // sequential connection dispatches one request per wakeup.
    let batch_size = body.get("reactor").unwrap().get("batch_size").unwrap();
    let batch_stat = |key: &str| batch_size.get(key).unwrap().as_num().unwrap();
    assert_eq!(batch_stat("max"), 1.0, "one request per wakeup");
    assert!(batch_stat("items") >= 13.0, "every request counted");

    // The pruned top-k searcher's cost counters fed by the similar
    // queries above.
    let search = body.get("search").unwrap();
    let counter = |key: &str| {
        search
            .get(key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .as_num()
            .unwrap()
    };
    assert!(counter("similar_candidates_total") >= 4.0, "k=4 answered");
    assert!(counter("similar_scanned_total") > 0.0);
    assert!(counter("similar_pruned_candidates_total") >= 0.0);

    // Close the client first: the worker owns the keep-alive session and
    // would otherwise hold shutdown until the idle timeout.
    drop(c);
    fx.stop();
}

#[test]
fn malformed_http_gets_a_400_and_close() {
    let fx = start(22, 2);
    let mut c = Client::connect(fx.addr);
    let (status, body) = c.send_raw(b"THIS IS NOT HTTP\r\n\r\n");
    assert_eq!(status, 400);
    assert!(body.contains("error"));
    fx.stop();
}

#[test]
fn four_concurrent_connections_classify_bit_identically() {
    let fx = start(23, 4);
    // Offline truth: the fitted model applied to the pipeline's own φ
    // vectors — exactly what the snapshot's model stores.
    let truth: Vec<_> = {
        let model = GroupModel::fit(
            &fx.report.groups.assignments,
            fx.report.groups.group_count(),
            &fx.report.wl_features,
        );
        fx.report
            .wl_features
            .iter()
            .map(|f| model.classify(f))
            .collect()
    };
    let labels: Vec<(char, usize)> = fx
        .report
        .groups
        .groups
        .iter()
        .map(|g| (g.label, g.cluster))
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let fx = &fx;
            let truth = &truth;
            let labels = &labels;
            scope.spawn(move || {
                // Each worker owns one connection and classifies every
                // 4th job over it.
                let mut c = Client::connect(fx.addr);
                for i in (worker..fx.jobs.len()).step_by(4) {
                    let (status, raw) = c.send("POST", "/v1/classify", Some(&fx.classify_body(i)));
                    assert_eq!(status, 200, "job {i}: {raw}");
                    let body = Json::parse(&raw).unwrap();
                    let want = &truth[i];
                    assert_eq!(
                        body.get("cluster").unwrap().as_num(),
                        Some(want.cluster as f64),
                        "job {i} cluster"
                    );
                    // f64s cross the wire as shortest-round-trip decimal,
                    // so equality here is bit-equality.
                    assert_eq!(
                        body.get("confidence").unwrap().as_num(),
                        Some(want.confidence),
                        "job {i} confidence"
                    );
                    let scores = body.get("scores").unwrap();
                    for &(label, cluster) in labels {
                        assert_eq!(
                            scores.get(&label.to_string()).unwrap().as_num(),
                            Some(want.scores[cluster]),
                            "job {i} score {label}"
                        );
                    }
                }
            });
        }
    });

    // The burst is visible in the metrics.
    let mut c = Client::connect(fx.addr);
    let (status, body) = c.get("/metrics");
    assert_eq!(status, 200);
    let classify = body.get("endpoints").unwrap().get("classify").unwrap();
    assert_eq!(
        classify.get("requests").unwrap().as_num(),
        Some(fx.jobs.len() as f64)
    );
    drop(c);
    fx.stop();
}
