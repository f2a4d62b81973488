//! `serve-mixed`: `dagscope-serve` in a child process over a snapshot of
//! a 10k-job sample, driven by one generator thread over `nproc`
//! pipelined keep-alive connections.
//!
//! The measured operation is one request of a closed loop: every
//! connection keeps [`DEPTH`] requests outstanding and sends the next as
//! soon as one is answered, so the server always has work. Traced runs
//! also drive an open loop, Poisson arrivals at a fixed rate with each
//! request timed from when it was due, for the per-layer latencies at
//! `low` and `high` load. Far under capacity, an open loop's latency is
//! mostly the time idle cores take to wake, which on a shared host varied
//! by a quarter from run to run; near capacity, a slower host pushes the
//! server past it. A busy server's latency instead follows the host's
//! speed, which the host-speed reference measures and takes out.
//!
//! Mix: 70% `POST /v1/classify` and 10% `POST /v1/advise` of jobs the
//! index has never seen (drawn from a `seed + 1` trace), 20%
//! `GET /v1/similar/{name}?k=10` of indexed jobs.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dagscope_core::{ClusterEngine, IndexSnapshot, Pipeline, PipelineConfig};
use dagscope_serve::{Json as Doc, ServeIndex, Server, ServerConfig};
use dagscope_trace::filter::SampleCriteria;
use dagscope_trace::gen::{GeneratorConfig, TraceGenerator};
use dagscope_trace::{csv, Job};

use crate::harness::{
    env_num, env_var, median, parse_kv, peak_rss_mb, tail, write_trace_csv, ChildOutput, Recorder,
    Rng, CHILD_ENV, OP,
};
use crate::{Ctx, Run, SETUPS, SETUP_BUDGET};

/// Novel jobs the classify/advise probes cycle through.
const MAX_PROBE_JOBS: usize = 2_000;
/// How long a step waits for its outstanding requests after its last
/// arrival; anything still unanswered then has failed.
const DRAIN: Duration = Duration::from_secs(2);
/// `k` of every similarity query.
const K: usize = 10;
/// Requests each connection keeps outstanding in the closed loop: enough
/// that the server reads the next one while it answers the last.
const DEPTH: usize = 4;
/// Length of one closed-loop step; the host-speed reference runs before
/// each, for an eighth of it.
const SEGMENT: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Classify,
    Advise,
    Similar,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Classify => "serve.classify",
            Kind::Advise => "serve.advise",
            Kind::Similar => "serve.similar",
        }
    }
}

/// A ready-to-send request: which kind, which job (a novel job, or an
/// indexed job for `Similar`), and its HTTP bytes.
struct Probe {
    kind: Kind,
    target: usize,
    http: Vec<u8>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Low,
    High,
    Closed,
}

#[derive(Clone, Copy)]
struct Step {
    phase: Phase,
    traced: bool,
    /// Open-loop arrivals per second; `None` for the closed loop.
    rate: Option<f64>,
    length: Duration,
}

struct Request {
    probe: usize,
    step: usize,
    due: Instant,
    issued: Instant,
    done: Option<Instant>,
    status: u16,
    body: Vec<u8>,
}

impl Request {
    fn ok(&self) -> bool {
        self.status == 200 && self.done.is_some()
    }

    /// Latency from the due time. A failed request counts as missing any
    /// latency limit: it reads `ceiling_ms`, which no answered request of
    /// its step can reach.
    fn latency_ms(&self, ceiling_ms: f64) -> f64 {
        match self.done {
            Some(done) if self.ok() => done.saturating_duration_since(self.due).as_secs_f64() * 1e3,
            _ => ceiling_ms,
        }
    }
}

/// The generator's own health over one step.
#[derive(Default, Clone, Copy)]
struct GenStats {
    late_ms_max: f64,
    backlog_max: usize,
}

/// Every step driven so far, the requests sent in each, and the
/// generator's health over each.
#[derive(Default)]
struct Log {
    steps: Vec<Step>,
    requests: Vec<Request>,
    stats: Vec<GenStats>,
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::new(ctx.traced);
    let scale = ctx.scale;
    let snap_dir = ctx.work.join("snapshot");
    build_snapshot(ctx, &mut run, &snap_dir)?;
    let snapshot = IndexSnapshot::load(&snap_dir).map_err(|e| e.to_string())?;
    let names: Vec<String> = snapshot.jobs.iter().map(|j| j.name.clone()).collect();
    let novel = novel_jobs(scale.novel_jobs, ctx.seed + 1)?;
    let probes = probes(&novel, &names);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Set-up runs from a server's start through its first `/v1/similar`
    // answer, which also builds the index's lazy top-k structure. Servers
    // start and stop until SETUP_BUDGET has passed, then SETUPS more each
    // take an equal share of the load, so no one server instance decides
    // a run's latency.
    let mut rng = Rng::new(ctx.seed);
    let setups = Instant::now();
    while setups.elapsed() < SETUP_BUDGET {
        let name = &names[rng.below(names.len())];
        start_server(&mut run, &snap_dir, threads, name)?.stop()?;
    }
    let mut log = Log::default();
    for _ in 0..SETUPS {
        let name = &names[rng.below(names.len())];
        let server = start_server(&mut run, &snap_dir, threads, name)?;
        let driven = drive(ctx, &mut run, &mut log, server.addr, &probes, &mut rng);
        let metrics_doc = http_get(server.addr, "/metrics");
        run.rss_mb.push(server.stop()?.num("rss_mb")?);
        driven?;
        if ctx.traced {
            server_metrics(&mut run, &metrics_doc?.1)?;
        }
    }

    let Log {
        steps,
        requests,
        stats,
    } = log;
    for r in &requests {
        if steps[r.step].phase == Phase::Warmup {
            continue;
        }
        run.attempted += 1;
        run.failed += u64::from(!r.ok());
    }
    let step_latencies = |phase: Phase, traced: bool, kind: Option<Kind>| -> Vec<f64> {
        requests
            .iter()
            .filter(|r| steps[r.step].phase == phase && steps[r.step].traced == traced)
            .filter(|r| kind.is_none_or(|k| probes[r.probe].kind == k))
            .map(|r| {
                // Every request of a step is due within it and is answered
                // within DRAIN after it, or fails.
                let ceiling = steps[r.step].length + DRAIN;
                r.latency_ms(ceiling.as_secs_f64() * 1e3)
            })
            .collect()
    };
    run.op_ms = step_latencies(Phase::Closed, false, None);

    // Lateness stays in every open-loop latency, which is timed from the
    // due time; it is reported so that a slow generator is seen. A
    // backlog that does not drain in time shows as failed requests.
    let open = stats.iter().zip(&steps).filter(|(_, s)| s.rate.is_some());
    let late = open.clone().map(|(g, _)| g.late_ms_max).fold(0.0, f64::max);
    let backlog = open.clone().map(|(g, _)| g.backlog_max).max().unwrap_or(0);
    if open.count() > 0 {
        eprintln!(
            "dagbench: open-loop generator at most {late:.3} ms late, backlog at most {backlog}"
        );
    }
    if ctx.traced {
        run.traced_op_ms = step_latencies(Phase::Closed, true, None);
        for (id, r) in requests.iter().enumerate() {
            if !(steps[r.step].traced && r.ok()) {
                continue;
            }
            let done = r.done.expect("ok requests are done");
            // The generator's own lateness, then the request on the wire
            // and in the server.
            let op = run.rec.record(OP, None, r.due, done);
            let queue = run.rec.record("client.queue", op, r.due, r.issued);
            let call = run
                .rec
                .record(probes[r.probe].kind.span(), op, r.issued, done);
            for span in [op, queue, call] {
                run.rec.set_request(span, id as u64);
            }
        }
        let layer = &mut run.layer;
        for (phase, label) in [(Phase::Low, "low"), (Phase::High, "high")] {
            let l = step_latencies(phase, true, None);
            layer.insert(format!("serve.p50_ms.{label}"), median(&l));
            layer.insert(format!("serve.p99_ms.{label}"), tail(&l, 0.99));
        }
        for kind in [Kind::Classify, Kind::Advise, Kind::Similar] {
            let l = step_latencies(Phase::High, true, Some(kind));
            let name = kind.span().trim_start_matches("serve.");
            layer.insert(format!("serve.{name}_ms.p99"), tail(&l, 0.99));
        }
        layer.insert("serve.gen_late_ms.max".into(), late);
        layer.insert("serve.backlog.max".into(), backlog as f64);
    }

    verify(&mut run, snapshot, &novel, &probes, &requests)?;
    Ok(run)
}

/// Drive one server over `nproc` connections for its share of the run: a
/// closed-loop warm-up; in traced runs, the open-loop `low` and `high`
/// steps; then closed-loop steps of [`SEGMENT`], each after the host-speed
/// reference, which traced runs alternate between untraced and traced.
fn drive(
    ctx: &Ctx,
    run: &mut Run,
    log: &mut Log,
    addr: SocketAddr,
    probes: &[Probe],
    rng: &mut Rng,
) -> Result<(), String> {
    let start = Instant::now();
    let share = ctx.seconds / SETUPS as u32;
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut plan = vec![Step {
        phase: Phase::Warmup,
        traced: false,
        rate: None,
        length: share / 12,
    }];
    if ctx.traced {
        for (phase, rate) in [
            (Phase::Low, ctx.scale.low_rate),
            (Phase::High, ctx.scale.high_rate),
        ] {
            plan.push(Step {
                phase,
                traced: true,
                rate: Some(rate),
                length: share / 6,
            });
        }
    }
    for step in plan {
        generate(addr, conns, probes, step, rng, log)?;
    }
    // A traced run needs both an untraced and a traced step.
    let fewest = if ctx.traced { 2 } else { 1 };
    let mut closed = 0;
    loop {
        let left = share.saturating_sub(start.elapsed());
        if left < SEGMENT / 2 && closed >= fewest {
            return Ok(());
        }
        run.calibrate(SEGMENT / 8);
        let step = Step {
            phase: Phase::Closed,
            traced: ctx.traced && closed % 2 == 1,
            rate: None,
            length: SEGMENT.min(left.max(SEGMENT / 2)),
        };
        generate(addr, conns, probes, step, rng, log)?;
        closed += 1;
    }
}

/// Scan a trace, run the pipeline on a large sample, and save the index
/// snapshot the server loads.
fn build_snapshot(ctx: &Ctx, run: &mut Run, dir: &Path) -> Result<(), String> {
    let csv_path = ctx.work.join("batch_task.csv");
    write_trace_csv(&csv_path, ctx.scale.serve_jobs, ctx.seed)?;
    let rec = &mut run.rec;
    let build = rec.open("core.snapshot_build", None);
    let mut streamed = rec.scan(build, &csv_path)?;
    let pipeline = Pipeline::new(PipelineConfig {
        sample: ctx.scale.serve_sample,
        seed: ctx.seed,
        cluster_engine: ClusterEngine::Collapsed,
        ..PipelineConfig::default()
    });
    let report = rec.pipeline(build, &pipeline, &mut streamed)?;
    let snapshot = rec
        .time("core.from_report", build, || {
            IndexSnapshot::from_report(&report)
        })
        .map_err(|e| e.to_string())?;
    rec.close(build);
    rec.time("core.snapshot_save", None, || snapshot.save(dir))
        .map_err(|e| e.to_string())?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        bytes += entry
            .map_err(|e| e.to_string())?
            .metadata()
            .map_err(|e| e.to_string())?
            .len();
    }
    run.layer
        .insert("core.snapshot_mb".into(), bytes as f64 / 1e6);
    Ok(())
}

/// Eligible jobs of a trace the index was not built from.
fn novel_jobs(jobs: usize, seed: u64) -> Result<Vec<Job>, String> {
    let trace = TraceGenerator::new(GeneratorConfig {
        jobs,
        seed,
        ..GeneratorConfig::default()
    })
    .generate();
    let set = trace.job_set();
    let novel: Vec<Job> = SampleCriteria::default()
        .filter(&set)
        .into_iter()
        .take(MAX_PROBE_JOBS)
        .cloned()
        .collect();
    if novel.is_empty() {
        return Err("the probe trace has no eligible job".to_string());
    }
    Ok(novel)
}

fn post(path: &str, job: &Job) -> Vec<u8> {
    let rows = job
        .tasks
        .iter()
        .map(|t| Doc::from(csv::format_task_line(t)).encode())
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        "{{\"job_name\": {}, \"tasks\": [{rows}]}}",
        Doc::from(job.name.as_str()).encode()
    );
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Probe list: classify and advise per novel job, then similar per
/// indexed job.
fn probes(novel: &[Job], names: &[String]) -> Vec<Probe> {
    let mut out = Vec::new();
    for (kind, path) in [
        (Kind::Classify, "/v1/classify"),
        (Kind::Advise, "/v1/advise"),
    ] {
        out.extend(novel.iter().enumerate().map(|(i, job)| Probe {
            kind,
            target: i,
            http: post(path, job),
        }));
    }
    out.extend(names.iter().enumerate().map(|(i, name)| Probe {
        kind: Kind::Similar,
        target: i,
        http: format!("GET /v1/similar/{name}?k={K} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
    }));
    out
}

/// The request mix: 70% classify, 10% advise, 20% similar.
fn pick(rng: &mut Rng, novel: usize, indexed: usize) -> usize {
    let u = rng.unit();
    if u < 0.7 {
        rng.below(novel)
    } else if u < 0.8 {
        novel + rng.below(novel)
    } else {
        2 * novel + rng.below(indexed)
    }
}

/// A running server child.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Close the child's stdin, which drains the server, and wait for it.
    fn stop(mut self) -> Result<ChildOutput, String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        let read = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        read.map_err(|e| format!("server stdout: {e}"))?;
        if !status.success() {
            return Err(format!("server child exited with {status}"));
        }
        Ok(ChildOutput {
            lines: parse_kv(&rest),
        })
    }
}

/// One timed set-up: spawn the server, wait for its address, and ask it
/// `/v1/similar/{name}`; set-up ends with that answer.
fn start_server(
    run: &mut Run,
    snap_dir: &Path,
    threads: usize,
    name: &str,
) -> Result<ServerProc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .env(CHILD_ENV, "serve")
        .env("DAGBENCH_SNAPSHOT", snap_dir)
        .env("DAGBENCH_THREADS", threads.to_string())
        .env("DAGBENCH_TRACED", u8::from(run.rec.enabled()).to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let stdin = child.stdin.take();
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        if n == 0 {
            drop(stdin);
            let status = child.wait().map_err(|e| e.to_string())?;
            return Err(format!("server child exited before listening ({status})"));
        }
        let is_addr = line.starts_with("addr=");
        head.push_str(&line);
        if is_addr {
            break;
        }
    }
    let startup = ChildOutput {
        lines: parse_kv(&head),
    };
    let server = ServerProc {
        child,
        stdin,
        stdout,
        addr: startup
            .get("addr")?
            .trim()
            .parse()
            .map_err(|_| "bad server address")?,
    };
    let first = Instant::now();
    let answer = http_get(server.addr, &format!("/v1/similar/{name}?k={K}"));
    let done = Instant::now();
    match answer {
        Ok((200, _)) => {}
        Ok((status, _)) => {
            server.stop()?;
            return Err(format!("first /v1/similar answered {status}"));
        }
        Err(e) => {
            server.stop()?;
            return Err(e);
        }
    }
    run.setup_s.push(done.duration_since(t0).as_secs_f64());
    let setup = run.rec.record("setup", None, t0, done);
    run.rec.absorb(&startup, setup)?;
    run.rec.record("serve.first_similar", setup, first, done);
    Ok(server)
}

/// Server child: load the snapshot, build the index, listen, and serve
/// until stdin closes.
pub fn child() -> Result<(), String> {
    let dir = env_var("DAGBENCH_SNAPSHOT")?;
    let threads: usize = env_num("DAGBENCH_THREADS")?;
    let mut rec = Recorder::new(env_num::<u8>("DAGBENCH_TRACED")? == 1);
    let snapshot = rec
        .time("core.snapshot_load", None, || {
            IndexSnapshot::load(Path::new(&dir))
        })
        .map_err(|e| e.to_string())?;
    let index = rec.time("serve.index_build", None, || ServeIndex::build(snapshot))?;
    let config = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    let server = rec
        .time("serve.bind", None, || {
            Server::bind_with(index, "127.0.0.1:0", config)
        })
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    rec.emit();
    println!("addr={}", handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut sink = Vec::new();
            let _ = std::io::stdin().read_to_end(&mut sink);
            handle.shutdown();
        });
        server.run()
    })
    .map_err(|e| format!("server: {e}"))?;
    println!("rss_mb={}", peak_rss_mb());
    Ok(())
}

/// `ppoll(2)`: `epoll_wait` only takes whole milliseconds, and an open
/// loop at thousands of requests per second needs to wake between them.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
    }

    const PR_SET_TIMERSLACK: c_int = 29;

    /// Let this thread's timed waits end at their deadline instead of up
    /// to the default 50 µs later, which would count as generator lateness
    /// in every request's latency.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the
        // slack in nanoseconds) and only changes this thread's timer
        // slack; a failure leaves the default slack in place.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    }

    /// Wait until a descriptor is ready or `timeout` passes.
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
        // initialized pollfd structs that outlives the call, `ts` is a
        // valid timespec on the stack, and a null sigmask leaves the
        // signal mask as it is.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// One pipelined keep-alive connection.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// Requests sent or queued on this connection, oldest first.
    pending: VecDeque<usize>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Write what the socket takes; false on a broken connection.
    fn flush(&mut self) -> bool {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.out.clear();
        self.written = 0;
        true
    }

    /// Read what arrived and complete the requests it answers; false on a
    /// broken or closed connection.
    fn receive(&mut self, now: Instant, requests: &mut [Request], chunk: &mut [u8]) -> bool {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return false,
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        while let Some((len, status, body)) = parse_response(&self.inbuf) {
            let Some(r) = self.pending.pop_front() else {
                return false;
            };
            let req = &mut requests[r];
            req.done = Some(now);
            req.status = status;
            req.body = self.inbuf[body].to_vec();
            self.inbuf.drain(..len);
        }
        true
    }
}

/// A complete response at the front of `buf`: its length, status and
/// body range.
fn parse_response(buf: &[u8]) -> Option<(usize, u16, std::ops::Range<usize>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let len = head
        .lines()
        .skip(1)
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    let total = head_end + 4 + len;
    (buf.len() >= total).then_some((total, status, head_end + 4..total))
}

/// Blocking one-shot GET.
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("GET {path}: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((_, status, body)) = parse_response(&buf) {
            return Ok((status, buf[body].to_vec()));
        }
        let n = s.read(&mut chunk).map_err(|e| format!("GET {path}: {e}"))?;
        if n == 0 {
            return Err(format!("GET {path}: connection closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Drive one step over `conns` fresh connections from this one thread,
/// and add it, its requests and the generator's health to `log`.
fn generate(
    addr: SocketAddr,
    conns: usize,
    probes: &[Probe],
    step: Step,
    rng: &mut Rng,
    log: &mut Log,
) -> Result<(), String> {
    let novel = probes.iter().filter(|p| p.kind == Kind::Classify).count();
    let indexed = probes.len() - 2 * novel;
    sys::tight_timer_slack();
    let mut conns: Vec<Conn> = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    let step_no = log.steps.len();
    log.steps.push(step);
    let requests = &mut log.requests;
    let mut st = GenStats::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let start = Instant::now();
    let end = start + step.length;
    let deadline = end + DRAIN;
    let gap = |rng: &mut Rng, rate: f64| Duration::from_secs_f64(rng.exp_gap(rate));
    let mut due = match step.rate {
        Some(rate) => start + gap(rng, rate),
        None => end,
    };
    loop {
        let now = Instant::now();
        match step.rate {
            Some(rate) => {
                while due <= now && due < end {
                    let c = (0..conns.len())
                        .min_by_key(|&c| conns[c].pending.len())
                        .expect("at least one connection");
                    let probe = pick(rng, novel, indexed);
                    issue(&mut conns[c], requests, probes, probe, step_no, due, now);
                    st.late_ms_max = st.late_ms_max.max((now - due).as_secs_f64() * 1e3);
                    due += gap(rng, rate);
                }
            }
            None if now < end => {
                for conn in conns.iter_mut() {
                    while conn.pending.len() < DEPTH {
                        let probe = pick(rng, novel, indexed);
                        issue(conn, requests, probes, probe, step_no, now, now);
                    }
                }
            }
            None => {}
        }
        for conn in conns.iter_mut() {
            if !conn.flush() {
                // A broken connection fails what it still owed.
                *conn = Conn::open(addr)?;
            }
        }
        let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
        st.backlog_max = st.backlog_max.max(outstanding);
        if now >= end && outstanding == 0 {
            break;
        }
        if now >= deadline {
            // Unanswered requests stay failed.
            break;
        }
        let next = if due < end { due } else { deadline };
        fds.clear();
        fds.extend(conns.iter().map(|c| sys::PollFd {
            fd: c.stream.as_raw_fd(),
            events: sys::POLLIN | if c.out.is_empty() { 0 } else { sys::POLLOUT },
            revents: 0,
        }));
        let wait = next
            .saturating_duration_since(now)
            .min(Duration::from_millis(50));
        sys::poll(&mut fds, wait).map_err(|e| format!("ppoll: {e}"))?;
        let now = Instant::now();
        for (c, fd) in fds.iter().enumerate() {
            if fd.revents != 0 && !conns[c].receive(now, requests, &mut chunk) {
                // A torn connection fails what it still owed.
                conns[c] = Conn::open(addr)?;
            }
        }
    }
    log.stats.push(st);
    Ok(())
}

/// Queue `probe` on `conn` as a request of step `step`, due at `due` and
/// sent at `now`.
fn issue(
    conn: &mut Conn,
    requests: &mut Vec<Request>,
    probes: &[Probe],
    probe: usize,
    step: usize,
    due: Instant,
    now: Instant,
) {
    conn.out.extend_from_slice(&probes[probe].http);
    conn.pending.push_back(requests.len());
    requests.push(Request {
        probe,
        step,
        due,
        issued: now,
        done: None,
        status: 0,
        body: Vec::new(),
    });
}

/// Per-layer values from one server's own `/metrics` document: failure
/// totals add up over a run's servers, the rest are medians over them.
fn server_metrics(run: &mut Run, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "/metrics is not UTF-8")?;
    let doc = Doc::parse(text).map_err(|e| format!("/metrics: {e}"))?;
    let num = |path: &[&str]| -> f64 {
        let mut v = &doc;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_num().unwrap_or(0.0)
    };
    for endpoint in ["classify", "advise", "similar"] {
        for p in ["p50", "p99"] {
            let v = num(&["endpoints", endpoint, &format!("{p}_us")]);
            run.rec
                .count(&format!("serve.handler_{endpoint}_us.{p}"), v);
        }
    }
    for total in ["shed_total", "request_timeouts_total"] {
        *run.layer.entry(format!("serve.{total}")).or_default() += num(&["transport", total]);
    }
    let batches = num(&["reactor", "batch_size", "batches"]);
    let items = num(&["reactor", "batch_size", "items"]);
    run.rec.count(
        "serve.batch_size.mean",
        if batches > 0.0 { items / batches } else { 0.0 },
    );
    run.rec.count(
        "serve.loop_lag_us.p99",
        num(&["reactor", "epoll_loop_lag_us", "p99_us"]),
    );
    Ok(())
}

/// Check every answered request against the same call made in process on
/// an index built from the same snapshot, and time those direct calls.
fn verify(
    run: &mut Run,
    snapshot: IndexSnapshot,
    novel: &[Job],
    probes: &[Probe],
    requests: &[Request],
) -> Result<(), String> {
    let index = ServeIndex::build(snapshot)?;
    let mut classify_us = Vec::new();
    let mut similar_us = Vec::new();
    let mut classified = BTreeMap::new();
    let mut neighbours = BTreeMap::new();
    // The first query builds the lazy top-k index; keep it out of the
    // timings.
    index.similar(0, K);
    let mut wrong = 0usize;
    for r in requests.iter().filter(|r| r.ok()) {
        let probe = &probes[r.probe];
        let text = std::str::from_utf8(&r.body).map_err(|_| "response is not UTF-8")?;
        let doc = Doc::parse(text).map_err(|e| format!("response: {e}"))?;
        let good = match probe.kind {
            Kind::Classify | Kind::Advise => {
                let expected = match classified.get(&probe.target) {
                    Some(v) => v,
                    None => {
                        let clock = Instant::now();
                        let outcome = index.classify(&novel[probe.target])?;
                        classify_us.push(clock.elapsed().as_secs_f64() * 1e6);
                        let v = (
                            outcome.group.to_string(),
                            outcome.classification.confidence.to_bits(),
                        );
                        classified.entry(probe.target).or_insert(v)
                    }
                };
                doc.get("group").and_then(Doc::as_str) == Some(expected.0.as_str())
                    && doc
                        .get("confidence")
                        .and_then(Doc::as_num)
                        .map(f64::to_bits)
                        == Some(expected.1)
            }
            Kind::Similar => {
                let expected = neighbours.entry(probe.target).or_insert_with(|| {
                    let clock = Instant::now();
                    let list = index.similar(probe.target, K);
                    similar_us.push(clock.elapsed().as_secs_f64() * 1e6);
                    list.into_iter()
                        .map(|n| (n.name, n.score.to_bits()))
                        .collect::<Vec<_>>()
                });
                let served: Option<Vec<(String, u64)>> =
                    doc.get("neighbours").and_then(Doc::as_arr).map(|list| {
                        list.iter()
                            .filter_map(|n| {
                                let name = n.get("name")?.as_str()?.to_string();
                                Some((name, n.get("score")?.as_num()?.to_bits()))
                            })
                            .collect()
                    });
                served.as_ref() == Some(expected)
            }
        };
        wrong += usize::from(!good);
    }
    if wrong > 0 {
        run.errors.push(format!(
            "{wrong} served answers differ from the in-process index"
        ));
    }
    let layer = &mut run.layer;
    layer.insert("serve.index_classify_us.p50".into(), median(&classify_us));
    layer.insert(
        "serve.index_classify_us.p99".into(),
        tail(&classify_us, 0.99),
    );
    layer.insert("serve.index_similar_us.p50".into(), median(&similar_us));
    layer.insert("serve.index_similar_us.p99".into(), tail(&similar_us, 0.99));
    Ok(())
}
