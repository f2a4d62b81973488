//! The epoll event loop, routing and request handlers.
//!
//! One reactor thread ([`Server::run`]) owns every connection through a
//! non-blocking epoll loop (see [`crate::reactor`]): level-triggered
//! readiness drives per-connection state machines (reading → dispatched →
//! writing → keep-alive idle), so thousands of open connections cost one
//! slab slot each instead of a pinned worker thread. CPU-bound work
//! (classify/advise/similar) still runs on the shared
//! [`WorkerPool`]: every parsed request, whatever its endpoint, becomes
//! one pool task that routes it and times its own handler. Finished
//! responses flow back to the reactor as completions over a self-pipe
//! wakeup. The index is immutable and the metrics are atomic, so
//! handlers run without any lock.
//!
//! **Overload and failure behavior** (see DESIGN.md, "Failure modes and
//! degradation" and "Event-driven serving"):
//!
//! * connections beyond `threads + queue_depth` in-flight requests — or
//!   beyond [`ServerConfig::max_conns`] open sockets — are shed at accept
//!   with `503` + `Retry-After` instead of queueing without bound;
//! * a request must arrive completely within
//!   [`ServerConfig::request_deadline`] of its first byte or the reactor
//!   answers `408` and closes — a slowloris client costs one timer-wheel
//!   entry, not a pinned worker;
//! * keep-alive connections idle past [`ServerConfig::idle_timeout`] are
//!   closed by the same timer wheel;
//! * declared bodies over [`ServerConfig::max_body`] are refused with
//!   `413` before any body byte is read or allocated;
//! * a panicking handler is caught ([`catch_unwind`]), answered with
//!   `500`, and the worker survives; a pool task that evaporates without
//!   running (injected pool faults) cancels back to the reactor, which
//!   closes the connection so the client's retry logic takes over;
//! * [`ServerHandle::drain`] (also wired to SIGTERM by the CLI) stops
//!   accepting, closes idle sessions, lets in-flight requests finish up
//!   to [`ServerConfig::drain_timeout`], reports `draining` from
//!   `/healthz`, then force-closes stragglers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dagscope_faults::failpoint;
use dagscope_par::WorkerPool;
use dagscope_trace::{csv, Job};

use crate::http::{
    declared_body_len, head_len, head_overflowed, read_request_limited, write_response, ReadError,
    Request, Response, MAX_BODY,
};
use crate::index::ServeIndex;
use crate::json::{obj, Json};
use crate::metrics::{Endpoint, Metrics, Transport};
use crate::reactor::{Event, Poller, TimerWheel, Waker};

/// Tunable limits for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request worker threads.
    pub threads: usize,
    /// Requests allowed in flight beyond the busy workers before the
    /// reactor starts shedding new connections with 503.
    pub queue_depth: usize,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the reactor closes it.
    pub idle_timeout: Duration,
    /// How long a request may take from its first byte to the end of its
    /// body before the reactor answers 408 and closes.
    pub request_deadline: Duration,
    /// How long [`Server::run`] waits for in-flight sessions after a
    /// drain begins before force-closing them.
    pub drain_timeout: Duration,
    /// Expose `GET /v1/_panic`, which panics inside the handler — fault
    /// injection for tests; never enabled in production configs.
    pub panic_route: bool,
    /// Open connections the reactor will hold at once; accepts beyond
    /// this are shed with 503.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 4,
            queue_depth: 128,
            max_body: MAX_BODY,
            idle_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(10),
            panic_route: false,
            max_conns: 4096,
        }
    }
}

/// A bound but not yet running server.
pub struct Server {
    listener: TcpListener,
    index: Arc<ServeIndex>,
    metrics: Arc<Metrics>,
    config: Arc<ServerConfig>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
}

/// Remote control for a running [`Server`] — lets another thread (or a
/// signal handler's watcher) drain and stop the event loop.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: stop accepting, close idle keep-alive
    /// sessions, let in-flight requests finish (up to the server's drain
    /// timeout), flip `/healthz` to `draining`. [`Server::run`] returns
    /// once the drain completes.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        // The reactor may be parked in epoll_wait with nothing armed; a
        // connect makes the listener readable and wakes it. The poke is
        // never accepted — the loop observes `stop` first and drops the
        // listener, resetting whatever sits in the backlog.
        let _ = TcpStream::connect(self.addr);
    }

    /// Ask the server to stop. Alias of [`ServerHandle::drain`] — every
    /// shutdown is graceful.
    pub fn shutdown(&self) {
        self.drain();
    }
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and prepare
    /// `threads` request workers over the given index, with default
    /// limits.
    pub fn bind(index: ServeIndex, addr: &str, threads: usize) -> std::io::Result<Server> {
        Server::bind_with(
            index,
            addr,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
        )
    }

    /// Bind with explicit limits.
    pub fn bind_with(
        index: ServeIndex,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let config = ServerConfig {
            threads: config.threads.max(1),
            ..config
        };
        Ok(Server {
            listener,
            index: Arc::new(index),
            metrics: Arc::new(Metrics::new()),
            config: Arc::new(config),
            stop: Arc::new(AtomicBool::new(false)),
            draining: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared metrics (live while the server runs).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A handle that can drain/stop the server from another thread.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.listener.local_addr()?,
            stop: Arc::clone(&self.stop),
            draining: Arc::clone(&self.draining),
        })
    }

    /// Run the event loop until [`ServerHandle::drain`] (or
    /// [`ServerHandle::shutdown`]) is called, then drain in-flight
    /// sessions up to the drain timeout and return.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            index,
            metrics,
            config,
            stop,
            draining,
        } = self;
        listener.set_nonblocking(true)?;
        let poller = Poller::new(EVENTS_PER_WAIT)?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        let completions = Arc::new(Completions::new()?);
        poller.add(completions.waker.fd(), WAKER_TOKEN, true, false)?;
        let pool = WorkerPool::new(config.threads);
        let mut event_loop = EventLoop {
            poller,
            wheel: TimerWheel::new(TIMER_TICK, TIMER_SLOTS),
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            next_conn_id: 0,
            open: 0,
            in_flight: 0,
            dispatched: 0,
            pool,
            completions,
            index,
            metrics,
            config,
            stop,
            draining,
            stop_seen: false,
            drain_deadline: None,
        };
        event_loop.run_loop()
        // Dropping the loop drops the pool (joining workers; any stray
        // completions land in a queue nobody reads) and every remaining
        // descriptor.
    }
}

/// Refuse one connection with `503` + `Retry-After` (load shedding).
fn shed(mut stream: TcpStream, metrics: &Metrics) {
    Transport::bump(&metrics.transport().shed);
    let _ = stream.set_nodelay(true);
    // Bound the write so a peer that never reads cannot pin the reactor.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = write_response(&mut stream, &Response::unavailable(1), false);
}

/// Registration token of the listener.
const LISTENER_TOKEN: u64 = 0;
/// Registration token of the completion-queue waker pipe.
const WAKER_TOKEN: u64 = 1;
/// Connection slab slot `s` registers under token `TOKEN_BASE + s`.
const TOKEN_BASE: u64 = 2;
/// Events decoded per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 1024;
/// Timer wheel granularity; idle/deadline budgets are multi-millisecond,
/// so a coarse tick keeps the wheel small.
const TIMER_TICK: Duration = Duration::from_millis(5);
/// Timer wheel slots (one rotation = slots x tick).
const TIMER_SLOTS: usize = 1024;
/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Where a connection's state machine currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes (or idle between requests).
    Reading,
    /// A parsed request is on the worker pool; no epoll interest.
    Dispatched,
    /// Flushing an encoded response.
    Writing,
}

/// One connection's slab entry.
struct Conn {
    stream: TcpStream,
    /// Generation guard: completions carry the id so a response for a
    /// closed connection cannot land on the slot's next tenant.
    id: u64,
    state: ConnState,
    /// Unparsed inbound bytes (head fragments, bodies, pipelined
    /// requests).
    buf: Vec<u8>,
    /// Encoded response being written.
    out: Vec<u8>,
    out_pos: usize,
    /// Keep the session after the current response flushes.
    keep_alive_after: bool,
    /// A request is underway: first byte read, response not yet
    /// delivered. Counts toward the shed threshold and switches the
    /// conn's timer from idle-expiry to request-deadline semantics.
    mid_request: bool,
    /// The armed idle or deadline timer, if any.
    timer: Option<u64>,
    /// Current epoll interest (readable, writable).
    interest: (bool, bool),
    /// The fd was deregistered after a hangup while dispatched; no
    /// further events will arrive for it.
    epoll_dead: bool,
}

/// A finished (or evaporated) pool task, flowing back to the reactor.
enum Completion {
    /// A routed response to deliver on `token` if generation `conn_id`
    /// still holds the slot.
    Respond {
        token: u64,
        conn_id: u64,
        response: Response,
        keep_alive: bool,
    },
    /// The pool task never ran to completion (injected pool fault or a
    /// panic before the handler); close the connection so the client's
    /// retry logic takes over.
    Abort { token: u64, conn_id: u64 },
}

/// The worker→reactor completion channel: a mutex-guarded vector plus a
/// self-pipe waker. Pushes happen on pool threads — including from drop
/// handlers during a panic unwind, so the lock recovers from poisoning
/// instead of propagating it.
struct Completions {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Completions {
    fn new() -> io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    fn push(&self, completion: Completion) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(completion);
        self.waker.wake();
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        self.waker.drain();
        out.append(&mut self.queue.lock().unwrap_or_else(|e| e.into_inner()));
    }
}

/// The reactor: every field the event loop owns.
struct EventLoop {
    poller: Poller,
    wheel: TimerWheel,
    /// `None` once a drain begins.
    listener: Option<TcpListener>,
    /// Connection slab; tokens index it at `TOKEN_BASE + slot`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_conn_id: u64,
    /// Live connections (slab population).
    open: usize,
    /// Requests between first byte and delivered response — the shed
    /// threshold counts these, so a slowloris holding a request open
    /// occupies queue capacity exactly like a dispatched job.
    in_flight: usize,
    /// Requests handed to the pool so far in this loop iteration.
    dispatched: u64,
    pool: WorkerPool,
    completions: Arc<Completions>,
    index: Arc<ServeIndex>,
    metrics: Arc<Metrics>,
    config: Arc<ServerConfig>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    stop_seen: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run_loop(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        let mut ready: Vec<Completion> = Vec::new();
        let mut busy_since: Option<Instant> = None;
        loop {
            let timeout = self.wait_timeout(Instant::now());
            if let Some(since) = busy_since.take() {
                // Time this iteration spent off epoll_wait — the
                // readiness latency every other connection just ate.
                self.metrics
                    .reactor()
                    .observe_loop_lag_us(since.elapsed().as_micros() as u64);
            }
            events.clear();
            self.poller.wait(timeout, &mut events)?;
            busy_since = Some(Instant::now());
            Transport::bump(&self.metrics.reactor().wakeups);
            // Check stop before touching accept events so the drain poke
            // (and anything else in the backlog) is reset, never
            // accepted — the accept.stall failpoint cannot fire on it.
            if self.stop.load(Ordering::SeqCst) && !self.stop_seen {
                self.begin_drain();
            }
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {} // completions drained below
                    _ => self.conn_event(ev),
                }
            }
            self.completions.drain_into(&mut ready);
            for completion in ready.drain(..) {
                self.apply_completion(completion);
            }
            fired.clear();
            self.wheel.advance(Instant::now(), &mut fired);
            for &(id, token) in fired.iter() {
                self.timer_fired(id, token);
            }
            if self.dispatched > 0 {
                // The loop's unit of bulk work: every request this
                // wakeup handed to the pool.
                self.metrics
                    .reactor()
                    .observe_batch(std::mem::take(&mut self.dispatched));
            }
            if self.stop_seen {
                if self.open == 0 {
                    return Ok(());
                }
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    self.force_close_all();
                    return Ok(());
                }
            }
        }
    }

    /// How long the next `epoll_wait` may sleep.
    fn wait_timeout(&self, now: Instant) -> Option<Duration> {
        let mut timeout = self.wheel.next_deadline(now);
        if let Some(d) = self.drain_deadline {
            let until = d.saturating_duration_since(now);
            timeout = Some(timeout.map_or(until, |cur| cur.min(until)));
        }
        timeout
    }

    fn shed_threshold(&self) -> usize {
        self.config.threads + self.config.queue_depth
    }

    /// Accept until the backlog is empty, shedding past the caps.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    // Chaos site: a stalled acceptor (armed with
                    // `delay(ms)`) holds every pending connection behind
                    // this one.
                    failpoint!("serve.accept.stall");
                    if self.in_flight >= self.shed_threshold() || self.open >= self.config.max_conns
                    {
                        shed(stream, &self.metrics);
                        continue;
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient accept failure; next wakeup retries
            }
        }
    }

    /// Slot a fresh connection into the slab and start its idle timer.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Responses are small; without NODELAY, Nagle holds each one
        // behind the peer's delayed ACK and a keep-alive session crawls.
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = TOKEN_BASE + slot as u64;
        if self
            .poller
            .add(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        let timer = self
            .wheel
            .schedule(Instant::now(), self.config.idle_timeout, token);
        self.conns[slot] = Some(Conn {
            stream,
            id,
            state: ConnState::Reading,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            keep_alive_after: false,
            mid_request: false,
            timer: Some(timer),
            interest: (true, false),
            epoll_dead: false,
        });
        self.open += 1;
        self.metrics
            .reactor()
            .set_open_connections(self.open as u64);
    }

    /// Route one readiness event to the connection's state machine.
    fn conn_event(&mut self, ev: Event) {
        if ev.token < TOKEN_BASE {
            return;
        }
        let slot = (ev.token - TOKEN_BASE) as usize;
        let state = match self.conns.get(slot).and_then(Option::as_ref) {
            Some(conn) => conn.state,
            None => return, // closed earlier this iteration
        };
        match state {
            ConnState::Reading => {
                if ev.readable || ev.hangup {
                    self.read_ready(slot);
                }
            }
            ConnState::Writing => {
                if ev.writable || ev.hangup {
                    self.write_progress(slot);
                }
            }
            ConnState::Dispatched => {
                if ev.hangup {
                    // ERR/HUP fires regardless of the (empty) interest
                    // mask; park the fd so the level-triggered hangup
                    // stops refiring while the worker computes. The
                    // delivery write observes the dead peer.
                    let conn = self.conns[slot].as_mut().expect("checked live");
                    if !conn.epoll_dead {
                        conn.epoll_dead = true;
                        let fd = conn.stream.as_raw_fd();
                        let _ = self.poller.delete(fd);
                    }
                }
            }
        }
    }

    /// Drain the socket into the parse buffer, dispatching every complete
    /// request, until the read would block or the state machine leaves
    /// `Reading`.
    fn read_ready(&mut self, slot: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let result = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if conn.state != ConnState::Reading {
                    return;
                }
                conn.stream.read(&mut chunk)
            };
            match result {
                Ok(0) => return self.peer_eof(slot),
                Ok(n) => {
                    self.conns[slot]
                        .as_mut()
                        .expect("checked live")
                        .buf
                        .extend_from_slice(&chunk[..n]);
                    self.note_first_byte(slot);
                    self.advance_parse(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return self.read_error(slot, e),
            }
        }
    }

    /// First byte of a new request: swap the idle timer for the request
    /// deadline and count the request in flight.
    fn note_first_byte(&mut self, slot: usize) {
        let token = TOKEN_BASE + slot as u64;
        let deadline = self.config.request_deadline;
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.mid_request || conn.state != ConnState::Reading {
            return;
        }
        conn.mid_request = true;
        self.in_flight += 1;
        if let Some(t) = conn.timer.take() {
            self.wheel.cancel(t);
        }
        conn.timer = Some(self.wheel.schedule(Instant::now(), deadline, token));
    }

    /// Try to parse one request off the buffer; dispatch or reject it.
    fn advance_parse(&mut self, slot: usize) {
        let parsed = {
            let Some(conn) = self.conns[slot].as_ref() else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            parse_step(&conn.buf, self.config.max_body)
        };
        match parsed {
            Parsed::Incomplete => {}
            Parsed::Bad(status, message) => {
                self.metrics.record(Endpoint::Other, status, 0);
                self.respond_now(slot, Response::error(status, &message));
            }
            Parsed::Complete(request, consumed) => {
                self.conns[slot]
                    .as_mut()
                    .expect("checked live")
                    .buf
                    .drain(..consumed);
                self.dispatch(slot, request);
            }
        }
    }

    /// Hand a complete request to the pool.
    fn dispatch(&mut self, slot: usize, request: Request) {
        // Chaos site: a reactor that stalls between parsing a request
        // and dispatching it (armed with `delay(ms)`) lets the deadline
        // and idle-expiry logic be exercised from the server side.
        failpoint!("serve.read.stall");
        let token = TOKEN_BASE + slot as u64;
        let conn_id = {
            let conn = self.conns[slot].as_mut().expect("checked live");
            // The request arrived whole; its deadline no longer applies.
            if let Some(t) = conn.timer.take() {
                self.wheel.cancel(t);
            }
            conn.state = ConnState::Dispatched;
            conn.id
        };
        // Drop epoll interest: level-triggered readiness would otherwise
        // spin on pipelined bytes while the worker computes.
        self.set_interest(slot, false, false);
        self.dispatched += 1;
        self.spawn_route(token, conn_id, request);
    }

    /// Run one request on the pool.
    fn spawn_route(&self, token: u64, conn_id: u64, request: Request) {
        let index = Arc::clone(&self.index);
        let metrics = Arc::clone(&self.metrics);
        let draining = Arc::clone(&self.draining);
        let panic_route = self.config.panic_route;
        let completions = Arc::clone(&self.completions);
        let cancel_completions = Arc::clone(&self.completions);
        self.pool.execute_or_cancel(
            move || {
                let started = Instant::now();
                let draining = draining.load(Ordering::SeqCst);
                let ctx = RouteCtx {
                    index: &index,
                    metrics: &metrics,
                    draining,
                    panic_route,
                };
                // Panic isolation: a handler bug answers 500 on this
                // connection; the worker (and every other session)
                // survives.
                let (endpoint, response) =
                    match catch_unwind(AssertUnwindSafe(|| route(&request, &ctx))) {
                        Ok(routed) => routed,
                        Err(payload) => {
                            metrics.transport().record_panic(payload.as_ref());
                            (Endpoint::Other, Response::error(500, "internal error"))
                        }
                    };
                metrics.record(
                    endpoint,
                    response.status,
                    started.elapsed().as_micros() as u64,
                );
                let keep_alive = request.keep_alive && !draining;
                completions.push(Completion::Respond {
                    token,
                    conn_id,
                    response,
                    keep_alive,
                });
            },
            move || {
                cancel_completions.push(Completion::Abort { token, conn_id });
            },
        );
    }

    /// Land a worker completion on its connection, if it still exists.
    fn apply_completion(&mut self, completion: Completion) {
        match completion {
            Completion::Respond {
                token,
                conn_id,
                response,
                keep_alive,
            } => {
                if let Some(slot) = self.live_dispatched(token, conn_id) {
                    self.deliver(slot, response, keep_alive);
                }
            }
            Completion::Abort { token, conn_id } => {
                if let Some(slot) = self.live_dispatched(token, conn_id) {
                    // The job evaporated before running (injected pool
                    // fault): close without a response or a panic count —
                    // the client's retry logic takes it from here.
                    self.close(slot);
                }
            }
        }
    }

    /// Slot of `token` if generation `conn_id` still holds it, dispatched.
    fn live_dispatched(&self, token: u64, conn_id: u64) -> Option<usize> {
        if token < TOKEN_BASE {
            return None;
        }
        let slot = (token - TOKEN_BASE) as usize;
        match self.conns.get(slot).and_then(Option::as_ref) {
            Some(c) if c.id == conn_id && c.state == ConnState::Dispatched => Some(slot),
            _ => None,
        }
    }

    /// Encode and start writing a routed response.
    fn deliver(&mut self, slot: usize, response: Response, keep_alive: bool) {
        // Chaos site: a mid-response reset — half the encoded response
        // goes out, then the connection is torn down, leaving the client
        // a short read it must treat as a transport failure. Counted as
        // a reset so the books stay exact (shed + resets + served).
        failpoint!("serve.write.reset", |_arg: Option<String>| {
            Transport::bump(&self.metrics.transport().resets);
            if let Some(conn) = self.conns[slot].as_mut() {
                let mut encoded = Vec::new();
                let _ = write_response(&mut encoded, &response, false);
                let _ = conn.stream.write(&encoded[..encoded.len() / 2]);
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
            self.close(slot)
        });
        {
            let conn = self.conns[slot].as_mut().expect("live dispatched");
            conn.out.clear();
            conn.out_pos = 0;
            let _ = write_response(&mut conn.out, &response, keep_alive);
            conn.keep_alive_after = keep_alive;
            conn.state = ConnState::Writing;
        }
        self.write_progress(slot);
    }

    /// Answer an error the reactor itself produced (400/408/413) and
    /// close once it flushes.
    fn respond_now(&mut self, slot: usize, response: Response) {
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            conn.out.clear();
            conn.out_pos = 0;
            let _ = write_response(&mut conn.out, &response, false);
            conn.keep_alive_after = false;
            conn.state = ConnState::Writing;
        }
        if let Some(t) = self.conns[slot].as_mut().and_then(|c| c.timer.take()) {
            self.wheel.cancel(t);
        }
        self.write_progress(slot);
    }

    /// Push the pending response bytes until done, blocked, or dead.
    fn write_progress(&mut self, slot: usize) {
        loop {
            let (result, flushed) = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if conn.state != ConnState::Writing {
                    return;
                }
                if conn.out_pos >= conn.out.len() {
                    (Ok(0), true)
                } else {
                    (conn.stream.write(&conn.out[conn.out_pos..]), false)
                }
            };
            if flushed {
                return self.finish_response(slot);
            }
            match result {
                Ok(0) => return self.close(slot),
                Ok(n) => {
                    self.conns[slot].as_mut().expect("checked live").out_pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let dead = self.conns[slot].as_ref().expect("checked live").epoll_dead;
                    if dead {
                        // No events will ever arrive for this fd again.
                        return self.close(slot);
                    }
                    return self.set_interest(slot, false, true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.close(slot), // write errors close silently
            }
        }
    }

    /// A response flushed: close, or return the session to keep-alive.
    fn finish_response(&mut self, slot: usize) {
        let (keep, dead) = {
            let conn = self.conns[slot].as_mut().expect("checked live");
            conn.out.clear();
            conn.out_pos = 0;
            if conn.mid_request {
                conn.mid_request = false;
                self.in_flight -= 1;
            }
            (conn.keep_alive_after, conn.epoll_dead)
        };
        if !keep || dead || self.stop_seen {
            self.close(slot);
            return;
        }
        self.conns[slot].as_mut().expect("checked live").state = ConnState::Reading;
        self.set_interest(slot, true, false);
        let buffered = !self.conns[slot]
            .as_ref()
            .expect("checked live")
            .buf
            .is_empty();
        if buffered {
            // Pipelined bytes arrived behind the previous request; parse
            // them now rather than waiting for more socket readiness.
            self.note_first_byte(slot);
            self.advance_parse(slot);
        } else {
            let token = TOKEN_BASE + slot as u64;
            let timer = self
                .wheel
                .schedule(Instant::now(), self.config.idle_timeout, token);
            self.conns[slot].as_mut().expect("checked live").timer = Some(timer);
        }
    }

    /// The peer sent FIN while we were reading.
    fn peer_eof(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        if conn.buf.is_empty() {
            // Clean keep-alive end between requests: silent, no counter.
            self.close(slot);
            return;
        }
        match parse_step(&conn.buf, self.config.max_body) {
            Parsed::Incomplete => {
                // FIN mid-request: feed the fragment to the parser so
                // the 400 names the truncation exactly as the blocking
                // reader did ("truncated request", "truncated headers",
                // "body shorter than content-length").
                let verdict = {
                    let conn = self.conns[slot].as_ref().expect("checked live");
                    parse_slice(&conn.buf, conn.buf.len(), self.config.max_body)
                };
                match verdict {
                    Parsed::Bad(status, message) => {
                        self.metrics.record(Endpoint::Other, status, 0);
                        self.respond_now(slot, Response::error(status, &message));
                    }
                    _ => self.close(slot),
                }
            }
            Parsed::Bad(status, message) => {
                self.metrics.record(Endpoint::Other, status, 0);
                self.respond_now(slot, Response::error(status, &message));
            }
            Parsed::Complete(request, consumed) => {
                // Possible only in theory (complete requests dispatch as
                // their bytes arrive), but harmless to honor.
                self.conns[slot]
                    .as_mut()
                    .expect("checked live")
                    .buf
                    .drain(..consumed);
                self.dispatch(slot, request);
            }
        }
    }

    /// A socket read failed with a real error.
    fn read_error(&mut self, slot: usize, e: io::Error) {
        let transport = self.metrics.transport();
        match e.kind() {
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => Transport::bump(&transport.resets),
            _ => Transport::bump(&transport.io_errors),
        }
        self.close(slot);
    }

    /// A wheel timer fired for this connection.
    fn timer_fired(&mut self, id: u64, token: u64) {
        if token < TOKEN_BASE {
            return;
        }
        let slot = (token - TOKEN_BASE) as usize;
        let mid_request = match self.conns.get_mut(slot).and_then(Option::as_mut) {
            Some(conn) if conn.timer == Some(id) && conn.state == ConnState::Reading => {
                conn.timer = None;
                conn.mid_request
            }
            _ => return, // stale: the conn moved on or closed
        };
        if mid_request {
            // Slowloris defense: the request's first byte arrived but the
            // rest did not within the deadline.
            Transport::bump(&self.metrics.transport().request_timeouts);
            self.metrics.record(Endpoint::Other, 408, 0);
            self.respond_now(slot, Response::error(408, "request timed out"));
        } else {
            // Idle keep-alive expiry: normal client behavior, close
            // silently.
            Transport::bump(&self.metrics.transport().idle_timeouts);
            self.close(slot);
        }
    }

    /// Update the connection's epoll interest set if it changed.
    fn set_interest(&mut self, slot: usize, readable: bool, writable: bool) {
        let token = TOKEN_BASE + slot as u64;
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.epoll_dead || conn.interest == (readable, writable) {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        if self.poller.modify(fd, token, readable, writable).is_ok() {
            conn.interest = (readable, writable);
        }
    }

    /// Stop accepting and start the drain clock.
    fn begin_drain(&mut self) {
        self.stop_seen = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
            // Dropping the listener resets the drain poke (and anything
            // else still in the backlog) before it is ever accepted.
        }
        self.drain_deadline = Some(Instant::now() + self.config.drain_timeout);
        // Close idle keep-alive sessions immediately; in-flight requests
        // get until the drain deadline.
        for slot in 0..self.conns.len() {
            let idle = matches!(
                self.conns[slot].as_ref(),
                Some(c) if c.state == ConnState::Reading && !c.mid_request
            );
            if idle {
                self.close(slot);
            }
        }
    }

    /// Drain deadline passed: tear down every remaining connection.
    fn force_close_all(&mut self) {
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }

    /// Tear down one connection: timers, epoll registration, slab slot.
    fn close(&mut self, slot: usize) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if let Some(t) = conn.timer.take() {
            self.wheel.cancel(t);
        }
        if conn.mid_request {
            self.in_flight -= 1;
        }
        if !conn.epoll_dead {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        self.free.push(slot);
        self.open -= 1;
        self.metrics
            .reactor()
            .set_open_connections(self.open as u64);
        // conn.stream drops here, closing the fd.
    }
}

/// One step of the incremental parser over a connection's buffer.
#[derive(Debug)]
enum Parsed {
    /// Need more bytes.
    Incomplete,
    /// One complete request, consuming this many buffer bytes.
    Complete(Request, usize),
    /// The buffer can never become a legal request (or declares an
    /// oversized body): answer this status and close.
    Bad(u16, String),
}

/// Decide whether `buf` holds a complete request without consuming it.
/// Delegates every verdict to [`read_request_limited`] over an exact
/// slice, so statuses and messages match the blocking reader byte for
/// byte — this function only finds the boundary.
fn parse_step(buf: &[u8], max_body: usize) -> Parsed {
    let Some(head) = head_len(buf) else {
        if head_overflowed(buf) {
            // A line or the header count outgrew the parser's limits;
            // its error names which.
            return parse_slice(buf, buf.len(), max_body);
        }
        return Parsed::Incomplete;
    };
    let body_len = match declared_body_len(&buf[..head]) {
        Ok(n) if n <= max_body => n,
        // Unparseable content-length (400) or an oversized declaration
        // (413): the parser rejects from the head alone, before any body
        // byte is read or allocated.
        _ => return parse_slice(buf, head, max_body),
    };
    let total = head + body_len;
    if buf.len() < total {
        return Parsed::Incomplete;
    }
    parse_slice(buf, total, max_body)
}

/// Run the real parser over `buf[..end]`.
fn parse_slice(buf: &[u8], end: usize, max_body: usize) -> Parsed {
    let mut reader = &buf[..end];
    let before = reader.len();
    match read_request_limited(&mut reader, max_body) {
        Ok(request) => Parsed::Complete(request, before - reader.len()),
        Err(ReadError::Bad(status, message)) => Parsed::Bad(status, message),
        // A slice cannot block or fail with I/O errors; `Closed` means
        // the caller fed an empty buffer.
        Err(ReadError::Closed) => Parsed::Incomplete,
        Err(ReadError::Io(_)) => Parsed::Bad(400, "malformed request".to_string()),
    }
}

/// Read-only context handlers route against.
struct RouteCtx<'a> {
    index: &'a ServeIndex,
    metrics: &'a Metrics,
    draining: bool,
    panic_route: bool,
}

/// Dispatch one request to its handler.
fn route(request: &Request, ctx: &RouteCtx<'_>) -> (Endpoint, Response) {
    let index = ctx.index;
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => (
            Endpoint::Healthz,
            Response::ok(
                obj(vec![
                    (
                        "status",
                        Json::from(if ctx.draining { "draining" } else { "ok" }),
                    ),
                    ("jobs", Json::from(index.len())),
                    ("groups", Json::from(index.meta().k)),
                ])
                .encode(),
            ),
        ),
        ("GET", "/metrics") => (
            Endpoint::Metrics,
            Response::ok(ctx.metrics.render(index.len()).encode()),
        ),
        ("GET", "/v1/_panic") if ctx.panic_route => {
            panic!("injected panic (/v1/_panic fault route)")
        }
        ("GET", "/v1/census") => (Endpoint::Census, census(index)),
        ("POST", "/v1/classify") => {
            // Chaos site: an injected handler panic, distinguishable
            // from an organic one by its payload (see
            // `Transport::record_panic`). Every classify request runs
            // this arm on its own pool task, so the site fires once per
            // request.
            failpoint!("serve.handler.classify_panic");
            (Endpoint::Classify, classify(request, index))
        }
        ("POST", "/v1/advise") => {
            failpoint!("serve.handler.advise_panic");
            (Endpoint::Advise, advise(request, index))
        }
        _ if path.starts_with("/v1/jobs/") => {
            let name = &path["/v1/jobs/".len()..];
            if method != "GET" {
                return (Endpoint::Jobs, Response::error(405, "use GET"));
            }
            (Endpoint::Jobs, job_info(index, name))
        }
        _ if path.starts_with("/v1/similar/") => {
            let name = &path["/v1/similar/".len()..];
            if method != "GET" {
                return (Endpoint::Similar, Response::error(405, "use GET"));
            }
            (Endpoint::Similar, similar(request, ctx, name))
        }
        ("POST", "/v1/census") | ("POST", "/healthz") | ("POST", "/metrics") => {
            let endpoint = match path {
                "/v1/census" => Endpoint::Census,
                "/healthz" => Endpoint::Healthz,
                _ => Endpoint::Metrics,
            };
            (endpoint, Response::error(405, "use GET"))
        }
        ("GET", "/v1/classify") => (Endpoint::Classify, Response::error(405, "use POST")),
        ("GET", "/v1/advise") => (Endpoint::Advise, Response::error(405, "use POST")),
        _ => (Endpoint::Other, Response::error(404, "no such endpoint")),
    }
}

/// Per-cluster scores keyed by group label, in label order.
fn scores_by_label(index: &ServeIndex, scores: &[f64]) -> Json {
    Json::Obj(
        index
            .groups()
            .iter()
            .map(|g| (g.label.to_string(), Json::from(scores[g.cluster])))
            .collect(),
    )
}

/// Parse the shared `{"job_name": "...", "tasks": [...]}` probe body used
/// by `/v1/classify` and `/v1/advise`. Returns the ready 400 response on
/// any malformation.
fn parse_probe_job(request: &Request) -> Result<Job, Response> {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return Err(Response::error(400, "body is not UTF-8")),
    };
    let doc = match Json::parse(body) {
        Ok(d) => d,
        Err(e) => return Err(Response::error(400, &format!("malformed JSON: {e}"))),
    };
    let Some(task_rows) = doc.get("tasks").and_then(Json::as_arr) else {
        return Err(Response::error(400, "missing \"tasks\" array"));
    };
    if task_rows.is_empty() {
        return Err(Response::error(400, "\"tasks\" is empty"));
    }
    let mut tasks = Vec::with_capacity(task_rows.len());
    for (i, row) in task_rows.iter().enumerate() {
        let Some(line) = row.as_str() else {
            return Err(Response::error(
                400,
                "\"tasks\" entries must be CSV row strings",
            ));
        };
        match csv::parse_task_line(i + 1, line) {
            Ok(t) => tasks.push(t),
            Err(e) => return Err(Response::error(400, &format!("task row {}: {e}", i + 1))),
        }
    }
    let name = doc
        .get("job_name")
        .and_then(Json::as_str)
        .unwrap_or(tasks[0].job_name.as_str())
        .to_string();
    Ok(Job { name, tasks })
}

/// `POST /v1/classify` — body:
/// `{"job_name": "...", "tasks": ["<batch_task CSV row>", ...]}`.
/// The answer's `group` is the size-ordered label; `cluster` is the group
/// model's internal k-means id, arbitrary and not stable across builds.
fn classify(request: &Request, index: &ServeIndex) -> Response {
    let job = match parse_probe_job(request) {
        Ok(job) => job,
        Err(resp) => return resp,
    };
    match index.classify(&job) {
        Ok(outcome) => {
            let f = &outcome.features;
            Response::ok(
                obj(vec![
                    ("job_name", Json::from(job.name.as_str())),
                    ("size", Json::from(f.size)),
                    ("tasks", Json::from(f.weight as u64)),
                    ("critical_path", Json::from(f.critical_path)),
                    ("max_width", Json::from(f.max_width)),
                    ("pattern", Json::from(outcome.pattern)),
                    ("group", Json::from(outcome.group.to_string())),
                    ("cluster", Json::from(outcome.classification.cluster)),
                    ("confidence", Json::from(outcome.classification.confidence)),
                    (
                        "scores",
                        scores_by_label(index, &outcome.classification.scores),
                    ),
                ])
                .encode(),
            )
        }
        Err(e) => Response::error(400, &e),
    }
}

/// `POST /v1/advise` — same probe body as `/v1/classify`; replies with
/// scheduling hints derived from the snapshot's group model.
fn advise(request: &Request, index: &ServeIndex) -> Response {
    let job = match parse_probe_job(request) {
        Ok(job) => job,
        Err(resp) => return resp,
    };
    match index.advise(&job) {
        Ok(outcome) => {
            let c = &outcome.classify;
            Response::ok(
                obj(vec![
                    ("job_name", Json::from(job.name.clone())),
                    ("pattern", Json::from(c.pattern)),
                    ("group", Json::from(c.group.to_string())),
                    ("cluster", Json::from(c.classification.cluster)),
                    ("confidence", Json::from(c.classification.confidence)),
                    ("predicted_work", Json::from(outcome.predicted_work)),
                    (
                        "predicted_critical_path",
                        Json::from(outcome.predicted_critical_path),
                    ),
                    ("suggested_priority", Json::from(outcome.suggested_priority)),
                    ("fallback", Json::Bool(outcome.fallback)),
                ])
                .encode(),
            )
        }
        Err(e) => Response::error(400, &e),
    }
}

/// `GET /v1/jobs/{name}`.
fn job_info(index: &ServeIndex, name: &str) -> Response {
    let Some(i) = index.find(name) else {
        return Response::error(404, &format!("unknown job {name:?}"));
    };
    let f = index.features(i);
    Response::ok(
        obj(vec![
            ("name", Json::from(name)),
            ("size", Json::from(f.size)),
            ("tasks", Json::from(f.weight as u64)),
            ("critical_path", Json::from(f.critical_path)),
            ("max_width", Json::from(f.max_width)),
            ("sources", Json::from(f.sources)),
            ("sinks", Json::from(f.sinks)),
            ("edges", Json::from(f.edges)),
            ("pattern", Json::from(index.pattern(i))),
            ("group", Json::from(index.group_of(i).to_string())),
        ])
        .encode(),
    )
}

/// `GET /v1/similar/{name}?k=N`.
fn similar(request: &Request, ctx: &RouteCtx<'_>, name: &str) -> Response {
    let index = ctx.index;
    let Some(i) = index.find(name) else {
        return Response::error(404, &format!("unknown job {name:?}"));
    };
    let k = match request.query_param("k") {
        None => 5,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if k >= 1 => k,
            _ => return Response::error(400, "k must be a positive integer"),
        },
    };
    let (neighbours, stats) = index.similar_with_stats(i, k);
    ctx.metrics.search().record(&stats);
    let neighbours: Vec<Json> = neighbours
        .into_iter()
        .map(|n| {
            obj(vec![
                ("name", Json::from(n.name)),
                ("score", Json::from(n.score)),
                ("group", Json::from(n.group.to_string())),
            ])
        })
        .collect();
    Response::ok(
        obj(vec![
            ("job", Json::from(name)),
            ("group", Json::from(index.group_of(i).to_string())),
            ("neighbours", Json::Arr(neighbours)),
        ])
        .encode(),
    )
}

/// `GET /v1/census`.
fn census(index: &ServeIndex) -> Response {
    let meta = index.meta();
    let groups: Vec<Json> = index
        .groups()
        .iter()
        .map(|g| {
            obj(vec![
                ("label", Json::from(g.label.to_string())),
                ("population", Json::from(g.population)),
                ("fraction", Json::from(g.fraction)),
                ("mean_size", Json::from(g.mean_size)),
                ("chain_fraction", Json::from(g.chain_fraction)),
                ("short_fraction", Json::from(g.short_fraction)),
                ("representative", Json::from(g.representative.clone())),
            ])
        })
        .collect();
    let patterns: Vec<Json> = index
        .pattern_counts()
        .into_iter()
        .map(|(label, count)| {
            obj(vec![
                ("pattern", Json::from(label)),
                ("count", Json::from(count)),
            ])
        })
        .collect();
    let spectrum: Vec<Json> = meta.eigenvalues.iter().map(|&v| Json::from(v)).collect();
    Response::ok(
        obj(vec![
            ("jobs", Json::from(index.len())),
            ("k", Json::from(meta.k)),
            ("silhouette", Json::from(meta.silhouette)),
            ("wl_iterations", Json::from(meta.wl_iterations)),
            ("conflate", Json::Bool(meta.conflate)),
            ("cluster_engine", Json::from(meta.cluster_engine.clone())),
            ("laplacian_eigenvalues", Json::Arr(spectrum)),
            ("groups", Json::Arr(groups)),
            ("patterns", Json::Arr(patterns)),
        ])
        .encode(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use dagscope_core::{IndexSnapshot, Pipeline, PipelineConfig};

    fn test_index() -> ServeIndex {
        let report = Pipeline::new(PipelineConfig {
            jobs: 300,
            sample: 25,
            seed: 9,
            ..Default::default()
        })
        .run()
        .unwrap();
        ServeIndex::build(IndexSnapshot::from_report(&report).unwrap()).unwrap()
    }

    fn route_plain<'a>(
        request: &Request,
        index: &'a ServeIndex,
        metrics: &'a Metrics,
    ) -> (Endpoint, Response) {
        route(
            request,
            &RouteCtx {
                index,
                metrics,
                draining: false,
                panic_route: false,
            },
        )
    }

    fn get(index: &ServeIndex, metrics: &Metrics, path: &str) -> (u16, Json) {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        let request = read_request(&mut raw.as_bytes()).unwrap();
        let (endpoint, response) = route_plain(&request, index, metrics);
        metrics.record(endpoint, response.status, 1);
        let body = Json::parse(&response.body).expect("response body is JSON");
        (response.status, body)
    }

    #[test]
    fn routes_cover_the_api() {
        let index = test_index();
        let metrics = Metrics::new();

        let (status, body) = get(&index, &metrics, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(body.get("jobs").unwrap().as_num(), Some(25.0));

        let (status, body) = get(&index, &metrics, "/v1/census");
        assert_eq!(status, 200);
        assert_eq!(body.get("groups").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(
            body.get("cluster_engine").unwrap().as_str(),
            Some("collapsed"),
            "engine provenance flows from snapshot meta to the census"
        );
        let spectrum = body.get("laplacian_eigenvalues").unwrap().as_arr().unwrap();
        assert!(!spectrum.is_empty() && spectrum.len() <= 16);
        assert!(spectrum[0].as_num().unwrap().abs() < 1e-8);

        let name = index.features(0).name.clone();
        let (status, body) = get(&index, &metrics, &format!("/v1/jobs/{name}"));
        assert_eq!(status, 200);
        assert!(body.get("pattern").unwrap().as_str().is_some());

        let (status, body) = get(&index, &metrics, &format!("/v1/similar/{name}?k=3"));
        assert_eq!(status, 200);
        assert_eq!(body.get("neighbours").unwrap().as_arr().unwrap().len(), 3);

        let (status, _) = get(&index, &metrics, "/v1/jobs/definitely_missing");
        assert_eq!(status, 404);
        let (status, _) = get(&index, &metrics, "/v1/similar/definitely_missing");
        assert_eq!(status, 404);
        let (status, _) = get(&index, &metrics, &format!("/v1/similar/{name}?k=zero"));
        assert_eq!(status, 400);
        let (status, _) = get(&index, &metrics, "/nope");
        assert_eq!(status, 404);
        let (status, _) = get(&index, &metrics, "/v1/classify");
        assert_eq!(status, 405);
        // The fault route does not exist unless explicitly enabled.
        let (status, _) = get(&index, &metrics, "/v1/_panic");
        assert_eq!(status, 404);

        // Metrics saw everything above.
        let (status, body) = get(&index, &metrics, "/metrics");
        assert_eq!(status, 200);
        assert!(body.get("total_requests").unwrap().as_num().unwrap() >= 8.0);
        assert!(body.get("transport").is_some());
        // The similar query above fed the search cost counters.
        let search = body.get("search").unwrap();
        let counter = |key: &str| search.get(key).unwrap().as_num().unwrap();
        assert!(counter("similar_candidates_total") > 0.0);
        assert!(counter("similar_scanned_total") > 0.0);
        assert!(counter("similar_pruned_candidates_total") >= 0.0);
    }

    #[test]
    fn similar_with_k_past_the_index_returns_every_other_job() {
        let index = test_index();
        let metrics = Metrics::new();
        let name = index.features(0).name.clone();
        let path = format!("/v1/similar/{name}?k={}", usize::MAX);
        assert_eq!(path, format!("/v1/similar/{name}?k=18446744073709551615"));
        let (status, body) = get(&index, &metrics, &path);
        assert_eq!(status, 200);
        let mut got: Vec<&str> = body
            .get("neighbours")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|n| n.get("name").unwrap().as_str().unwrap())
            .collect();
        got.sort_unstable();
        let mut want: Vec<&str> = (1..index.len())
            .map(|j| index.features(j).name.as_str())
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn healthz_reports_draining() {
        let index = test_index();
        let metrics = Metrics::new();
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        let request = read_request(&mut raw.as_bytes()).unwrap();
        let (_, response) = route(
            &request,
            &RouteCtx {
                index: &index,
                metrics: &metrics,
                draining: true,
                panic_route: false,
            },
        );
        assert_eq!(response.status, 200);
        let body = Json::parse(&response.body).unwrap();
        assert_eq!(body.get("status").unwrap().as_str(), Some("draining"));
    }

    #[test]
    fn classify_accepts_batch_task_rows() {
        let index = test_index();
        let metrics = Metrics::new();
        let body = r#"{"job_name":"probe","tasks":[
            "M1,2,probe,1,Terminated,1,10,100,0.5",
            "R2_1,1,probe,1,Terminated,10,20,50,0.25"
        ]}"#;
        let raw = format!(
            "POST /v1/classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let request = read_request(&mut raw.as_bytes()).unwrap();
        let (_, response) = route_plain(&request, &index, &metrics);
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = Json::parse(&response.body).unwrap();
        assert_eq!(doc.get("size").unwrap().as_num(), Some(2.0));
        assert_eq!(doc.get("pattern").unwrap().as_str(), Some("straight-chain"));
        let group = doc.get("group").unwrap().as_str().unwrap();
        assert!(("A".."F").contains(&group), "group {group}");
        let confidence = doc.get("confidence").unwrap().as_num().unwrap();
        assert!((0.0..=1.0).contains(&confidence));
        let scores = doc.get("scores").unwrap();
        assert!(scores.get(group).is_some());
    }

    #[test]
    fn classify_of_a_chain_past_i64_seconds_answers() {
        // Each task lasts i64::MAX / 2 + 1 s; their critical path
        // saturates instead of overflowing.
        let index = test_index();
        let metrics = Metrics::new();
        let body = r#"{"tasks":[
            "M1,1,probe,1,Terminated,1,4611686018427387905,100,0.5",
            "R2_1,1,probe,1,Terminated,1,4611686018427387905,50,0.25"
        ]}"#;
        let raw = format!(
            "POST /v1/classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let request = read_request(&mut raw.as_bytes()).unwrap();
        let (_, response) = route_plain(&request, &index, &metrics);
        assert_eq!(response.status, 200, "{}", response.body);
    }

    #[test]
    fn classify_rejects_bad_bodies() {
        let index = test_index();
        let metrics = Metrics::new();
        for body in [
            "not json at all",
            "{}",
            r#"{"tasks":[]}"#,
            r#"{"tasks":[42]}"#,
            r#"{"tasks":["not,enough,fields"]}"#,
        ] {
            let raw = format!(
                "POST /v1/classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let request = read_request(&mut raw.as_bytes()).unwrap();
            let (_, response) = route_plain(&request, &index, &metrics);
            assert_eq!(response.status, 400, "accepted: {body:?}");
            assert!(Json::parse(&response.body).unwrap().get("error").is_some());
        }
    }

    #[test]
    fn server_binds_and_shuts_down() {
        let server = Server::bind(test_index(), "127.0.0.1:0", 2).unwrap();
        let handle = server.handle().unwrap();
        let join = std::thread::spawn(move || server.run());
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn parse_step_handles_split_and_pipelined_requests() {
        let full = b"GET /healthz HTTP/1.1\r\n\r\n";
        for cut in 1..full.len() {
            assert!(
                matches!(parse_step(&full[..cut], MAX_BODY), Parsed::Incomplete),
                "cut {cut}"
            );
        }
        match parse_step(full, MAX_BODY) {
            Parsed::Complete(r, consumed) => {
                assert_eq!(r.path, "/healthz");
                assert_eq!(consumed, full.len());
            }
            other => panic!("{other:?}"),
        }
        // Two pipelined requests: the first parse consumes exactly its
        // own bytes, leaving the second intact.
        let mut two = full.to_vec();
        two.extend_from_slice(b"GET /metrics HTTP/1.1\r\n\r\n");
        let consumed = match parse_step(&two, MAX_BODY) {
            Parsed::Complete(r, consumed) => {
                assert_eq!(r.path, "/healthz");
                assert_eq!(consumed, full.len());
                consumed
            }
            other => panic!("{other:?}"),
        };
        match parse_step(&two[consumed..], MAX_BODY) {
            Parsed::Complete(r, rest) => {
                assert_eq!(r.path, "/metrics");
                assert_eq!(rest, two.len() - consumed);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_step_bodies_and_limits() {
        let post = b"POST /v1/classify HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        match parse_step(post, MAX_BODY) {
            Parsed::Complete(r, consumed) => {
                assert_eq!(r.body, b"abcd");
                assert_eq!(consumed, post.len());
            }
            other => panic!("{other:?}"),
        }
        // Body not all there yet.
        assert!(matches!(
            parse_step(&post[..post.len() - 1], MAX_BODY),
            Parsed::Incomplete
        ));
        // Declared body over the limit: refused at header time, before
        // any body byte arrives.
        let huge = b"POST /v1/classify HTTP/1.1\r\ncontent-length: 100000\r\n\r\n";
        match parse_step(huge, 64) {
            Parsed::Bad(status, _) => assert_eq!(status, 413),
            other => panic!("{other:?}"),
        }
        // Unparseable content-length: the parser's 400, without waiting
        // for a body that can never be delimited.
        let bad = b"POST /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n";
        assert!(matches!(parse_step(bad, MAX_BODY), Parsed::Bad(400, _)));
        // Garbage that will never become a head is rejected once a line
        // outgrows the parser's limit, bounding the buffer.
        let junk = vec![b'a'; 10 * 1024];
        assert!(matches!(parse_step(&junk, MAX_BODY), Parsed::Bad(400, _)));
    }

    #[test]
    fn head_len_matches_parser_line_rules() {
        assert_eq!(head_len(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(head_len(b"GET / HTTP/1.1\n\n"), Some(16)); // bare LF tolerated
        assert_eq!(head_len(b"GET / HTTP/1.1\r\n"), None);
        // An empty request line ends the head: the parser owns the 400.
        assert_eq!(head_len(b"\r\n"), Some(2));
        assert_eq!(declared_body_len(b"GET / HTTP/1.1\r\n\r\n"), Ok(0));
        assert_eq!(
            declared_body_len(b"P / HTTP/1.1\r\ncontent-length: 3\r\nContent-Length: 7\r\n\r\n"),
            Ok(7),
            "last header wins, case-insensitively"
        );
        assert_eq!(
            declared_body_len(b"P / HTTP/1.1\r\ncontent-length: x\r\n\r\n"),
            Err(())
        );
    }
}
