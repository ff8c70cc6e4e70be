//! The std-only concurrent HTTP server, built for hostile conditions.
//!
//! A `TcpListener` accept loop feeds connections to a fixed pool of
//! worker threads over a **bounded** `sync_channel` — the admission
//! queue. When the queue is full the accept side answers 503
//! `{"error":{"code":"overloaded"}}` immediately instead of queueing
//! forever (`maras_serve_shed_total`), so a flood degrades into fast
//! rejections rather than unbounded memory and latency. Every accepted
//! socket gets read/write deadlines ([`ServeConfig::io_timeout`]) so a
//! slowloris client or dead peer releases its worker
//! (`maras_serve_timeouts_total`), and every handler runs under
//! `catch_unwind`: a panicking route costs one 500 response, not a
//! worker (`maras_serve_worker_panics_total`, with
//! `maras_serve_workers_alive` as the liveness gauge).
//!
//! Every response carries `Connection: close` — one request per
//! connection keeps the protocol handling trivial and is fine for a
//! localhost analytics API. Shutdown is a graceful drain:
//! [`ServerHandle::shutdown`] flips `/healthz` to 503
//! `{"status":"draining"}` (load-balancer deregistration), sheds new
//! connections at the accept side, finishes in-flight and queued
//! requests up to [`ServeConfig::drain`], then sheds whatever is left
//! with 503 and joins every thread.

use crate::debug::{self, RequestId, RequestRecord, REQUEST_ID_HEADER};
use crate::http::{self, ParseError};
use crate::metrics::Endpoint;
use crate::router::{self, ServeState};
use maras_obs::{Event, Histogram, Level};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runtime knobs for [`serve_with`]. The defaults suit an interactive
/// localhost deployment; tests tighten them to provoke failure paths.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling requests (min 1).
    pub n_threads: usize,
    /// Admission-queue capacity (min 1): connections waiting for a
    /// worker beyond this are shed with 503 from the accept side.
    pub queue_depth: usize,
    /// Read/write deadline per connection; also bounds the *total* time
    /// a worker spends parsing one request. `None` disables deadlines
    /// (trusted peers only — a stalled client then holds its worker).
    pub io_timeout: Option<Duration>,
    /// How long [`ServerHandle::shutdown`] waits for in-flight and
    /// queued requests before shedding the remainder.
    pub drain: Duration,
    /// Whether `GET /debug/*` (logs, recent requests, runtime dump) is
    /// routable. On by default; disabled, the paths 404 as if they
    /// never existed.
    pub debug_endpoints: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            n_threads: 4,
            queue_depth: 128,
            io_timeout: Some(Duration::from_millis(5_000)),
            drain: Duration::from_millis(5_000),
            debug_endpoints: true,
        }
    }
}

/// A connection that passed admission control, carrying the correlation
/// id it was assigned at accept time — before it ever touched a worker.
struct Admitted {
    stream: TcpStream,
    id: RequestId,
}

/// A running server: its bound address and the handles to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    /// Once set, workers answer every still-queued connection with 503
    /// instead of handling it — the post-drain-deadline shed.
    shed_remaining: Arc<AtomicBool>,
    drain_limit: Duration,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process inspection (tests, CLI).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Gracefully drains and stops the server: flips `/healthz` to
    /// draining, sheds new connections, waits up to the configured
    /// drain window for in-flight + queued requests, sheds the rest
    /// with 503, then joins every thread.
    pub fn shutdown(self) {
        let limit = self.drain_limit;
        self.drain_for(limit);
    }

    /// [`ServerHandle::shutdown`] with an explicit drain window.
    pub fn drain_for(mut self, limit: Duration) {
        self.state.begin_drain();
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            let m = &self.state.metrics;
            if m.queue_used.get() == 0.0 && m.in_flight.get() == 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Past the window: whatever is still queued gets a fast 503.
        self.shed_remaining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept(); an error just means the listener already died.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort: a dropped-without-shutdown handle still stops the
        // accept loop; threads are detached rather than joined.
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and serves `state`
/// on `n_threads` workers with default robustness settings. See
/// [`serve_with`] to tune queue depth, I/O deadlines, and drain window.
pub fn serve(
    state: Arc<ServeState>,
    addr: &str,
    n_threads: usize,
) -> std::io::Result<ServerHandle> {
    serve_with(state, addr, ServeConfig { n_threads, ..ServeConfig::default() })
}

/// Binds `addr` and serves `state` under the given [`ServeConfig`]
/// until [`ServerHandle::shutdown`].
pub fn serve_with(
    state: Arc<ServeState>,
    addr: &str,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    state.set_debug_endpoints(config.debug_endpoints);
    let stop = Arc::new(AtomicBool::new(false));
    let shed_remaining = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<Admitted>(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let n_threads = config.n_threads.max(1);
    let io_timeout = config.io_timeout;
    let mut workers = Vec::with_capacity(n_threads);
    for i in 0..n_threads {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        let shed_remaining = Arc::clone(&shed_remaining);
        workers.push(
            std::thread::Builder::new()
                .name(format!("maras-serve-{i}"))
                .spawn(move || worker_loop(&state, &rx, &shed_remaining, io_timeout))
                .expect("spawn worker thread"),
        );
    }

    let accept_stop = Arc::clone(&stop);
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("maras-serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                // Correlation starts here: the id exists before the
                // connection touches the queue, so even a shed that
                // never reaches a worker is attributable.
                let id = RequestId::next();
                // Socket deadlines before the connection touches any
                // worker: a dead peer can stall neither side for long.
                let _ = stream.set_read_timeout(io_timeout);
                let _ = stream.set_write_timeout(io_timeout);
                if accept_state.is_draining() {
                    accept_state.metrics.shed.inc();
                    shed_503(
                        &accept_state,
                        &mut stream,
                        id,
                        "draining",
                        "server is draining; not admitting work",
                    );
                    continue;
                }
                accept_state.metrics.queue_used.add(1.0);
                match tx.try_send(Admitted { stream, id }) {
                    Ok(()) => {}
                    // Admission control: full queue means the reply is an
                    // immediate 503 from here, not an unbounded wait.
                    Err(TrySendError::Full(Admitted { mut stream, id })) => {
                        accept_state.metrics.queue_used.add(-1.0);
                        accept_state.metrics.shed.inc();
                        shed_503(
                            &accept_state,
                            &mut stream,
                            id,
                            "overloaded",
                            "request queue is full; load shed",
                        );
                    }
                    // Every worker exited; stop accepting.
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // tx drops here, which unblocks and terminates the workers.
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr,
        state,
        stop,
        shed_remaining,
        drain_limit: config.drain,
        accept_thread: Some(accept_thread),
        workers,
    })
}

/// Decrements the worker-liveness gauge however the worker exits —
/// clean channel close or a panic that escapes everything else.
struct WorkerLiveness<'a>(&'a ServeState);

impl Drop for WorkerLiveness<'_> {
    fn drop(&mut self) {
        self.0.metrics.workers_alive.add(-1.0);
    }
}

/// What a worker knows about the request it is handling, kept *outside*
/// the `catch_unwind` boundary so the panic path can still attribute
/// the failure: which request (id), what it asked for (line), and when
/// handling started.
struct RequestCtx {
    id: RequestId,
    started: Instant,
    line: Option<String>,
    parse_us: u64,
    route_us: u64,
}

/// One worker: pull connections off the bounded queue until it closes,
/// surviving handler panics and a poisoned receiver mutex.
fn worker_loop(
    state: &Arc<ServeState>,
    rx: &Mutex<mpsc::Receiver<Admitted>>,
    shed_remaining: &AtomicBool,
    io_timeout: Option<Duration>,
) {
    state.metrics.workers_alive.add(1.0);
    let _liveness = WorkerLiveness(state);
    loop {
        // Holding the receiver lock only for the recv keeps the other
        // workers free to pick up the next socket. A peer that panicked
        // while holding the lock must not cascade into killing this
        // worker too: recover the guard instead of unwrapping the poison.
        let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match conn {
            Ok(Admitted { mut stream, id }) => {
                state.metrics.queue_used.add(-1.0);
                if shed_remaining.load(Ordering::SeqCst) {
                    // Drain deadline passed: flush the queue with 503s.
                    state.metrics.shed.inc();
                    shed_503(
                        state,
                        &mut stream,
                        id,
                        "draining",
                        "drain deadline exceeded; request shed",
                    );
                    continue;
                }
                state.metrics.in_flight.add(1.0);
                debug::set_current_request(Some(id));
                let mut ctx = RequestCtx {
                    id,
                    started: Instant::now(),
                    line: None,
                    parse_us: 0,
                    route_us: 0,
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(state, &mut stream, io_timeout, &mut ctx)
                }));
                debug::set_current_request(None);
                state.metrics.in_flight.add(-1.0);
                if outcome.is_err() {
                    // Self-healing: count the panic, answer 500, keep
                    // serving. The pool never silently shrinks — and the
                    // flight recorder knows exactly which request did it.
                    state.metrics.worker_panics.inc();
                    let id_text = id.to_string();
                    let _ = http::write_response_with(
                        &mut stream,
                        500,
                        "application/json",
                        &[(REQUEST_ID_HEADER, &id_text)],
                        &router::error_body("internal_error", "handler panicked; worker recovered"),
                    );
                    let what = ctx.line.take().unwrap_or_else(|| "<unparsed request>".to_string());
                    let total_us = elapsed_us(ctx.started);
                    Event::new(Level::Error, "serve.request")
                        .field("request_id", id_text)
                        .field("what", what.as_str())
                        .field("status", 500u64)
                        .field("outcome", "panic")
                        .field("total_us", total_us)
                        .emit();
                    state.flight.record(RequestRecord {
                        id,
                        what,
                        status: 500,
                        outcome: "panic",
                        total_us,
                        parse_us: ctx.parse_us,
                        route_us: ctx.route_us,
                        write_us: 0,
                        ts_ms: now_ms(),
                    });
                }
            }
            Err(_) => break, // channel closed: shutdown
        }
    }
}

/// Best-effort 503 with the uniform error envelope and the request id;
/// the socket already carries a write deadline, so a dead peer cannot
/// stall the caller. Every shed is logged and flight-recorded under its
/// id — admission control is exactly the traffic worth explaining later.
fn shed_503(
    state: &ServeState,
    stream: &mut TcpStream,
    id: RequestId,
    code: &'static str,
    message: &str,
) {
    let id_text = id.to_string();
    let _ = http::write_response_with(
        stream,
        503,
        "application/json",
        &[(REQUEST_ID_HEADER, &id_text)],
        &router::error_body(code, message),
    );
    Event::new(Level::Warn, "serve.request")
        .field("request_id", id_text)
        .field("what", format!("<shed: {code}>"))
        .field("status", 503u64)
        .field("outcome", "shed")
        .field("reason", code)
        .emit();
    state.flight.record(RequestRecord {
        id,
        what: format!("<shed: {code}>"),
        status: 503,
        outcome: "shed",
        total_us: 0,
        parse_us: 0,
        route_us: 0,
        write_us: 0,
        ts_ms: now_ms(),
    });
}

/// Milliseconds since the Unix epoch, for flight-recorder timestamps.
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Runs one request phase under a span of that name and records its wall
/// time, in µs, into the phase's histogram.
fn timed<T>(phase: &'static str, hist: &Histogram, f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let span = maras_obs::span(phase);
    let out = f();
    drop(span);
    let us = elapsed_us(t);
    hist.observe(us as f64);
    (out, us)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)
}

/// Parses, routes, responds, and records metrics for one connection.
///
/// Every response echoes the request id in [`REQUEST_ID_HEADER`].
/// Notable requests — slower than the threshold, or answered with any
/// status ≥ 400 — become a structured `serve.request` event with the
/// per-phase timing breakdown, plus a flight-recorder entry that
/// `GET /debug/requests` serves; `ctx` carries what this function
/// learned back to the worker in case the router panics mid-route.
fn handle_connection(
    state: &ServeState,
    stream: &mut TcpStream,
    io_timeout: Option<Duration>,
    ctx: &mut RequestCtx,
) {
    let started = ctx.started;
    let request_span = maras_obs::span("request");
    // Satellite of the flight recorder: the request line is captured
    // into `ctx.line` *before* parse errors propagate, so a slowloris
    // cut off by the deadline still yields an attributable event.
    let (parsed, parse_us) = timed("parse", &state.metrics.parse_us, || {
        http::read_request_capturing(stream, io_timeout, &mut ctx.line)
    });
    ctx.parse_us = parse_us;
    let (target, endpoint, status, body, failure) = match parsed {
        Ok(req) => {
            ctx.line = Some(format!("{} {}", req.method, req.path));
            let ((endpoint, status, body), route_us) =
                timed("route", &state.metrics.route_us, || router::respond(state, &req));
            ctx.route_us = route_us;
            (Some(req), endpoint, status, body, None)
        }
        Err(ParseError::TooLarge) => (
            None,
            Endpoint::Other,
            413,
            router::error_body("too_large", "request exceeds size limits"),
            Some("too_large"),
        ),
        Err(ParseError::Malformed(what)) => (
            None,
            Endpoint::Other,
            400,
            router::error_body("malformed_request", what),
            Some("malformed"),
        ),
        // The client blew its I/O deadline (slowloris or dead peer):
        // count it, answer 408 best-effort, and release this worker.
        Err(ParseError::Timeout) => {
            state.metrics.timeouts.inc();
            (
                None,
                Endpoint::Other,
                408,
                router::error_body("timeout", "request not received within the I/O deadline"),
                Some("timeout"),
            )
        }
        // Socket died mid-read; nothing to respond to.
        Err(ParseError::Io(_)) => return,
    };
    // The Prometheus endpoint is the one non-JSON body the server emits.
    let content_type = match &target {
        Some(req) if req.method == "GET" && req.path == "/metrics" && status == 200 => {
            "text/plain; version=0.0.4; charset=utf-8"
        }
        _ => "application/json",
    };
    let id_text = ctx.id.to_string();
    let (write_result, write_us) = timed("write", &state.metrics.write_us, || {
        http::write_response_with(
            stream,
            status,
            content_type,
            &[(REQUEST_ID_HEADER, &id_text)],
            &body,
        )
    });
    if let Err(e) = write_result {
        if is_timeout(&e) {
            // The peer stopped reading its own response: count the
            // released worker the same way as a read-side stall.
            state.metrics.timeouts.inc();
        }
    }
    let latency_us = elapsed_us(started);
    state.metrics.record(endpoint, latency_us, status >= 400);
    drop(request_span);
    let slow = latency_us > state.slow_threshold_us();
    if slow {
        state.metrics.slow_requests.inc();
    }
    if !slow && status < 400 {
        return; // healthy and fast: not flight-recorder material
    }
    let outcome = match failure {
        Some(f) => f,
        None if status >= 400 => "error",
        None => "slow",
    };
    let what = ctx.line.clone().unwrap_or_else(|| "<unparsed request>".to_string());
    let level = if status >= 500 {
        Level::Error
    } else if status >= 400 {
        Level::Warn
    } else {
        Level::Info
    };
    Event::new(level, "serve.request")
        .field("request_id", id_text)
        .field("what", what.as_str())
        .field("status", status)
        .field("outcome", outcome)
        .field("slow", slow)
        .field("total_us", latency_us)
        .field("parse_us", parse_us)
        .field("route_us", ctx.route_us)
        .field("write_us", write_us)
        .emit();
    state.flight.record(RequestRecord {
        id: ctx.id,
        what,
        status,
        outcome,
        total_us: latency_us,
        parse_us,
        route_us: ctx.route_us,
        write_us,
        ts_ms: now_ms(),
    });
}
