//! Request routing over a hot-swappable snapshot.
//!
//! [`ServeState`] owns everything a worker thread needs: the current
//! generation (the [`Snapshot`], its evidence archive and its response
//! cache) behind one `RwLock<Arc<..>>`, which readers clone and release
//! immediately, so a reload never blocks in-flight queries, and the
//! metrics registry. [`respond`] is a pure request → `(status, body)`
//! function over that state, which is what lets the bench harness and the
//! integration tests drive the exact production code path without a
//! socket in the way.

use crate::cache::QueryCache;
use crate::debug::{self, FlightRecorder, DEFAULT_RECENT_REQUESTS};
use crate::http::Request;
use crate::metrics::{Endpoint, ServeMetrics};
use crate::snapshot::{Snapshot, SortBy};
use crate::store;
use maras_core::RuleQuery;
use maras_evidence::EvidenceReader;
use maras_faers::CaseReport;
use maras_format::FormatError;
use maras_obs::{Event, Level, Registry};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::Instant;

/// Default slow-request threshold: 1 second.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 1_000_000;

/// Why a `POST /reload` did not swap in a new snapshot.
#[derive(Debug)]
pub enum ReloadError {
    /// Another reload is already in flight; retry after it finishes.
    InProgress,
    /// The server was started without a snapshot file to re-read.
    NoPath,
    /// The file failed to load or verify; the old snapshot keeps serving.
    Store(FormatError),
    /// The evidence archive failed to reopen or verify; the old snapshot
    /// *and* the old archive keep serving.
    Evidence(FormatError),
}

/// What one request reads, swapped as a unit: a snapshot, the evidence
/// archive paired with it (`None` keeps the evidence routes on 404), and
/// the responses rendered from the two. A request caches into its own
/// generation, so no body rendered from an outgoing snapshot is served
/// after a swap, and no cluster is paired with another snapshot's archive.
struct Generation {
    snapshot: Arc<Snapshot>,
    evidence: Option<Arc<EvidenceReader>>,
    cache: QueryCache,
}

/// Everything the server shares across worker threads.
pub struct ServeState {
    /// The generation every new request reads.
    current: RwLock<Arc<Generation>>,
    /// Capacity of each generation's response cache.
    cache_capacity: usize,
    /// Where `POST /reload` re-reads the snapshot from; `None` for
    /// in-memory-only deployments (reload then returns 409).
    snapshot_path: Option<PathBuf>,
    /// This state's own metrics registry: what `/metrics` renders ahead
    /// of the process-global one.
    registry: Registry,
    /// Handles to the series in `registry`.
    pub metrics: ServeMetrics,
    /// Requests slower than this (µs) become a `serve.request` event and
    /// count in `maras_slow_requests_total`.
    slow_threshold_us: AtomicU64,
    /// Flipped by [`ServeState::begin_drain`]: `/healthz` answers 503
    /// `{"status":"draining"}` so load balancers deregister the instance.
    draining: AtomicBool,
    /// Serializes `POST /reload`: the second concurrent reload gets 409
    /// instead of racing the snapshot swap.
    reload_lock: Mutex<()>,
    /// Enables the test-only `GET /__panic` route (chaos harness).
    panic_route: AtomicBool,
    /// Where `POST /reload` reopens the archive from, alongside the
    /// snapshot.
    evidence_path: Option<PathBuf>,
    /// The last-N notable requests (slow / shed / timed out / errored /
    /// panicked), served by `GET /debug/requests`.
    pub flight: FlightRecorder,
    /// Gates the whole `GET /debug/*` suite; disabled routes fall through
    /// to 404 as if they never existed.
    debug_endpoints: AtomicBool,
    /// When this state was built — `/debug/runtime`'s uptime origin.
    started: Instant,
}

impl ServeState {
    /// Wraps an initial snapshot; `snapshot_path` enables `POST /reload`.
    pub fn new(
        snapshot: Snapshot,
        snapshot_path: Option<PathBuf>,
        cache_capacity: usize,
    ) -> ServeState {
        let registry = Registry::new();
        ServeState {
            current: RwLock::new(Arc::new(Generation {
                snapshot: Arc::new(snapshot),
                evidence: None,
                cache: QueryCache::new(cache_capacity),
            })),
            cache_capacity,
            snapshot_path,
            metrics: ServeMetrics::register(&registry),
            registry,
            slow_threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
            draining: AtomicBool::new(false),
            reload_lock: Mutex::new(()),
            panic_route: AtomicBool::new(false),
            evidence_path: None,
            flight: FlightRecorder::new(DEFAULT_RECENT_REQUESTS),
            debug_endpoints: AtomicBool::new(true),
            started: Instant::now(),
        }
    }

    /// Attaches an open evidence archive (builder-style, at startup);
    /// `evidence_path` lets `POST /reload` reopen it together with the
    /// snapshot.
    pub fn with_evidence(
        self,
        reader: Arc<EvidenceReader>,
        evidence_path: Option<PathBuf>,
    ) -> ServeState {
        self.install(self.snapshot(), Some(reader));
        ServeState { evidence_path, ..self }
    }

    /// The generation a request reads; cheap (one `Arc` clone under a read
    /// lock).
    fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Installs a new generation with an empty cache in one write. The
    /// evidence reader carries over when `evidence` is `None`.
    fn install(&self, snapshot: Arc<Snapshot>, evidence: Option<Arc<EvidenceReader>>) {
        let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
        let evidence = evidence.or_else(|| current.evidence.clone());
        *current = Arc::new(Generation {
            snapshot,
            evidence,
            cache: QueryCache::new(self.cache_capacity),
        });
    }

    /// Puts the state into drain mode: `/healthz` flips to 503
    /// `{"status":"draining"}` so a load balancer stops routing here.
    /// One-way — a draining server never goes back to accepting.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`ServeState::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Enables the `GET /__panic` route, which panics inside the handler.
    /// Test-only: the chaos harness uses it to prove workers survive and
    /// count handler panics. Never enabled by the CLI.
    pub fn enable_panic_route(&self) {
        self.panic_route.store(true, Ordering::SeqCst);
    }

    fn panic_route_enabled(&self) -> bool {
        self.panic_route.load(Ordering::SeqCst)
    }

    /// Enables or disables the `GET /debug/*` introspection suite
    /// (enabled by default; `--no-debug` turns it off for deployments
    /// that must not expose internals on the serving port).
    pub fn set_debug_endpoints(&self, on: bool) {
        self.debug_endpoints.store(on, Ordering::SeqCst);
    }

    /// Whether the `/debug/*` suite is currently routable.
    pub fn debug_enabled(&self) -> bool {
        self.debug_endpoints.load(Ordering::SeqCst)
    }

    /// Holds the reload serialization lock, making every concurrent
    /// `POST /reload` answer 409 until the guard drops. Lets tests (and
    /// operators embedding the server) simulate a long in-flight reload.
    pub fn hold_reload_lock(&self) -> MutexGuard<'_, ()> {
        self.reload_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the slow-request threshold in microseconds.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current slow-request threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// The current snapshot; cheap (one `Arc` clone under a read lock).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current().snapshot)
    }

    /// Responses cached for the current generation.
    pub fn cache_len(&self) -> usize {
        self.current().cache.len()
    }

    /// Atomically installs a new snapshot, keeping the evidence archive,
    /// with an empty response cache.
    pub fn swap(&self, next: Snapshot) {
        self.install(Arc::new(next), None);
        self.metrics.reloads.inc();
    }

    /// Re-reads the snapshot file (and the evidence archive, when one was
    /// opened from a path) and swaps both in together. On any error the
    /// current pair keeps serving untouched. Reloads are serialized
    /// behind a try-lock: a second in-flight reload fails fast with
    /// [`ReloadError::InProgress`] instead of racing the swap.
    pub fn reload_from_disk(&self) -> Result<(), ReloadError> {
        let _guard = match self.reload_lock.try_lock() {
            Ok(g) => g,
            // A worker that panicked mid-reload must not wedge reloads
            // forever; the swap itself is atomic either way.
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return Err(ReloadError::InProgress),
        };
        let path = self.snapshot_path.as_ref().ok_or(ReloadError::NoPath)?;
        let next = store::load(path).map_err(ReloadError::Store)?;
        let evidence = match &self.evidence_path {
            Some(path) => {
                Some(Arc::new(EvidenceReader::open(path).map_err(ReloadError::Evidence)?))
            }
            None => None,
        };
        self.install(Arc::new(next), evidence);
        self.metrics.reloads.inc();
        Ok(())
    }
}

/// Routes one parsed request. Returns the endpoint (for metrics), the
/// HTTP status, and the JSON body. Every routed request also emits a
/// `Debug`-level `serve.route` event into the flight recorder's log
/// ring, carrying the correlation id when the server assigned one.
pub fn respond(state: &ServeState, req: &Request) -> (Endpoint, u16, String) {
    let (endpoint, status, body) = route(state, req);
    let mut event = Event::new(Level::Debug, "serve.route")
        .field("method", req.method.as_str())
        .field("path", req.path.as_str())
        .field("status", status);
    if let Some(id) = debug::current_request() {
        event = event.field("request_id", id.to_string());
    }
    event.emit();
    (endpoint, status, body)
}

fn route(state: &ServeState, req: &Request) -> (Endpoint, u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let (status, body) = healthz(state);
            (Endpoint::Healthz, status, body)
        }
        // Chaos-harness route: only reachable after enable_panic_route().
        // The worker pool must catch this unwind, stay alive, and count it.
        ("GET", "/__panic") if state.panic_route_enabled() => {
            panic!("injected panic: /__panic chaos route is enabled")
        }
        ("GET", "/metrics") => (Endpoint::Metrics, 200, metrics_prometheus(state)),
        ("GET", "/metrics.json") => (Endpoint::Metrics, 200, metrics_json(state)),
        ("GET", "/debug/logs") if state.debug_enabled() => {
            let (status, body) = debug_logs(req);
            (Endpoint::Debug, status, body)
        }
        ("GET", "/debug/requests") if state.debug_enabled() => {
            let (status, body) = debug_requests(state, req);
            (Endpoint::Debug, status, body)
        }
        ("GET", "/debug/runtime") if state.debug_enabled() => {
            (Endpoint::Debug, 200, debug_runtime(state))
        }
        ("GET", "/search") => cached(state, Endpoint::Search, req, search),
        ("GET", "/autocomplete") => cached(state, Endpoint::Autocomplete, req, autocomplete),
        ("GET", path) if path.starts_with("/cluster/") && path.ends_with("/reports") => {
            cached(state, Endpoint::Reports, req, cluster_reports)
        }
        ("GET", path) if path.starts_with("/cluster/") => {
            cached(state, Endpoint::Cluster, req, cluster)
        }
        ("GET", path) if path.starts_with("/report/") => {
            cached(state, Endpoint::Report, req, report)
        }
        ("POST", "/reload") => reload(state),
        (_, path) if known_path(path) || (state.debug_enabled() && known_debug_path(path)) => {
            (Endpoint::Other, 405, error_body("method_not_allowed", "wrong method for this path"))
        }
        _ => (Endpoint::Other, 404, error_body("not_found", "unknown path")),
    }
}

fn known_path(path: &str) -> bool {
    matches!(
        path,
        "/healthz" | "/metrics" | "/metrics.json" | "/search" | "/autocomplete" | "/reload"
    ) || path.starts_with("/cluster/")
        || path.starts_with("/report/")
}

/// Debug paths exist only while the suite is enabled: disabled, they are
/// 404s indistinguishable from never having shipped — not 405s that
/// advertise a hidden surface.
fn known_debug_path(path: &str) -> bool {
    matches!(path, "/debug/logs" | "/debug/requests" | "/debug/runtime")
}

/// Runs a GET handler through the response cache. Only 200 bodies are
/// cached; error responses are cheap to recompute and should not shadow
/// a later fix (e.g. a reload that adds the missing cluster).
fn cached(
    state: &ServeState,
    endpoint: Endpoint,
    req: &Request,
    handler: fn(&Generation, &Request) -> (u16, String),
) -> (Endpoint, u16, String) {
    let key = req.cache_key();
    let generation = state.current();
    let cache_span = maras_obs::span("cache");
    let hit = generation.cache.get(&key);
    drop(cache_span);
    if let Some(body) = hit {
        state.metrics.cache_hits.inc();
        return (endpoint, 200, body);
    }
    state.metrics.cache_misses.inc();
    let _render = maras_obs::span("render");
    let (status, body) = handler(&generation, req);
    if status == 200 {
        generation.cache.put(key, body.clone());
    }
    (endpoint, status, body)
}

/// Health probe. While draining it answers 503 with
/// `{"status":"draining"}` — same shape, non-200 — which is what a load
/// balancer's health check needs to deregister the instance while
/// in-flight requests finish.
fn healthz(state: &ServeState) -> (u16, String) {
    let snap = state.snapshot();
    let draining = state.is_draining();
    let body = Value::obj([
        ("status", Value::from(if draining { "draining" } else { "ok" })),
        ("quarter", Value::from(snap.quarter.clone())),
        ("clusters", Value::from(snap.len())),
        ("reports", Value::from(snap.n_reports)),
    ])
    .to_string();
    (if draining { 503 } else { 200 }, body)
}

/// The legacy JSON counter dump, preserved verbatim on `/metrics.json`.
fn metrics_json(state: &ServeState) -> String {
    let mut m = match state.metrics.to_json() {
        Value::Object(m) => m,
        _ => unreachable!("metrics render as an object"),
    };
    m.insert("cache_entries".into(), Value::from(state.cache_len()));
    Value::Object(m).to_string()
}

/// Prometheus text exposition for `/metrics`: this state's registry
/// followed by every series in the process-global registry (pipeline
/// counters, interner gauges, ... — whatever this process recorded).
fn metrics_prometheus(state: &ServeState) -> String {
    state.metrics.refresh(state.cache_len());
    let mut text = state.registry.render_prometheus();
    text.push_str(&maras_obs::registry().render_prometheus());
    text
}

/// Hard ceiling on one `/debug/logs` page; the ring itself is bounded,
/// this just keeps a single response from serializing all of it.
const MAX_LOG_PAGE: usize = 1000;

/// `GET /debug/logs?level=&limit=` — the newest matching events from the
/// in-memory log ring, oldest first, straight from the flight recorder.
fn debug_logs(req: &Request) -> (u16, String) {
    let min_level = match req.param("level") {
        None => Level::Trace,
        Some(raw) => match Level::parse(raw) {
            Some(l) => l,
            None => {
                return (
                    400,
                    error_body(
                        "bad_request",
                        "'level' must be one of trace, debug, info, warn, error",
                    ),
                )
            }
        },
    };
    let limit = match parse_opt::<usize>(req, "limit") {
        Ok(v) => v.unwrap_or(100).min(MAX_LOG_PAGE),
        Err(e) => return (400, e),
    };
    let events = maras_obs::log_tail(limit, min_level);
    // Events already know their JSON-lines form; splice those objects
    // into the envelope instead of re-modeling every field type.
    let mut body = String::with_capacity(64 + events.len() * 96);
    body.push_str("{\"count\":");
    body.push_str(&events.len().to_string());
    body.push_str(",\"dropped\":");
    body.push_str(&maras_obs::logs_dropped().to_string());
    body.push_str(",\"events\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&event.json_line());
    }
    body.push_str("]}");
    (200, body)
}

/// `GET /debug/requests?limit=` — the flight recorder's notable requests
/// (slow / shed / timed out / errored / panicked), newest first, with
/// per-phase timings and the correlation id each response echoed.
fn debug_requests(state: &ServeState, req: &Request) -> (u16, String) {
    let limit = match parse_opt::<usize>(req, "limit") {
        Ok(v) => v.unwrap_or(50),
        Err(e) => return (400, e),
    };
    let records = state.flight.tail(limit);
    let body = Value::obj([
        ("count", Value::from(records.len())),
        ("recorded", Value::from(state.flight.recorded())),
        (
            "requests",
            Value::arr(records.iter().map(|r| {
                Value::obj([
                    ("id", Value::from(r.id.to_string())),
                    ("what", Value::from(r.what.clone())),
                    ("status", Value::from(u64::from(r.status))),
                    ("outcome", Value::from(r.outcome)),
                    ("ts_ms", Value::from(r.ts_ms)),
                    ("total_us", Value::from(r.total_us)),
                    ("parse_us", Value::from(r.parse_us)),
                    ("route_us", Value::from(r.route_us)),
                    ("write_us", Value::from(r.write_us)),
                ])
            })),
        ),
    ]);
    (200, body.to_string())
}

/// `GET /debug/runtime` — one self-describing health dump: uptime,
/// worker liveness, queue depth, robustness counters, cache stats, and
/// the observability substrate's own drop accounting.
fn debug_runtime(state: &ServeState) -> String {
    let m = &state.metrics;
    Value::obj([
        ("uptime_ms", Value::from(state.started.elapsed().as_millis() as u64)),
        ("draining", Value::from(state.is_draining())),
        ("workers_alive", Value::from(m.workers_alive.get() as u64)),
        ("queue_used", Value::from(m.queue_used.get() as u64)),
        ("in_flight", Value::from(m.in_flight.get() as u64)),
        ("requests", Value::from(m.total_requests())),
        ("shed", Value::from(m.shed.get())),
        ("timeouts", Value::from(m.timeouts.get())),
        ("worker_panics", Value::from(m.worker_panics.get())),
        ("reloads", Value::from(m.reloads.get())),
        ("slow_requests", Value::from(m.slow_requests.get())),
        (
            "cache",
            Value::obj([
                ("entries", Value::from(state.cache_len())),
                ("hits", Value::from(m.cache_hits.get())),
                ("misses", Value::from(m.cache_misses.get())),
            ]),
        ),
        (
            "observability",
            Value::obj([
                ("spans_dropped", Value::from(maras_obs::spans_dropped())),
                ("logs_dropped", Value::from(maras_obs::logs_dropped())),
                ("log_events_seen", Value::from(maras_obs::log_events_seen())),
                ("log_recording", Value::from(maras_obs::recording_enabled())),
                ("requests_recorded", Value::from(state.flight.recorded())),
            ]),
        ),
    ])
    .to_string()
}

fn search(generation: &Generation, req: &Request) -> (u16, String) {
    let snap = &generation.snapshot;
    let mut query = RuleQuery::new();
    for drug in req.params("drug") {
        query = query.with_drug(drug);
    }
    for adr in req.params("adr") {
        query = query.with_any_adr(adr);
    }
    match parse_opt::<f64>(req, "min_score") {
        Ok(Some(v)) => query = query.with_min_score(v),
        Ok(None) => {}
        Err(e) => return (400, e),
    }
    match parse_opt::<u8>(req, "min_severity") {
        Ok(Some(v)) => query = query.with_min_severity(v),
        Ok(None) => {}
        Err(e) => return (400, e),
    }
    match parse_opt::<usize>(req, "n_drugs") {
        Ok(Some(v)) => query = query.with_n_drugs(v),
        Ok(None) => {}
        Err(e) => return (400, e),
    }
    match parse_opt::<f64>(req, "min_prr") {
        Ok(Some(v)) => query = query.with_min_prr(v),
        Ok(None) => {}
        Err(e) => return (400, e),
    }
    match parse_opt::<f64>(req, "min_ror") {
        Ok(Some(v)) => query = query.with_min_ror(v),
        Ok(None) => {}
        Err(e) => return (400, e),
    }
    match parse_flag(req, "unknown_only") {
        Ok(true) => query = query.unknown_only(),
        Ok(false) => {}
        Err(e) => return (400, e),
    }
    match parse_flag(req, "novel_adr_only") {
        Ok(true) => query = query.novel_adr_only(),
        Ok(false) => {}
        Err(e) => return (400, e),
    }
    let limit = match parse_opt::<usize>(req, "limit") {
        Ok(v) => v.unwrap_or(50),
        Err(e) => return (400, e),
    };
    let sort_by = match req.param("sort_by") {
        None => SortBy::Rank,
        Some(s) => match SortBy::from_str_opt(s) {
            Some(sb) => sb,
            None => {
                return (
                    400,
                    error_body(
                        "bad_request",
                        "'sort_by' must be one of rank, score, exclusiveness, prr, ror, ebgm",
                    ),
                )
            }
        },
    };
    let ranks = snap.sort_ranks(snap.query(&query), sort_by);
    let body = Value::obj([
        ("quarter", Value::from(snap.quarter.clone())),
        ("total", Value::from(ranks.len())),
        ("hits", Value::arr(ranks.iter().take(limit).map(|&r| snap.hit_json(r)))),
    ]);
    (200, body.to_string())
}

fn autocomplete(generation: &Generation, req: &Request) -> (u16, String) {
    let snap = &generation.snapshot;
    let prefix = match req.param("prefix") {
        Some(p) if !p.is_empty() => p,
        _ => return (400, error_body("bad_request", "missing or empty 'prefix' parameter")),
    };
    let limit = match parse_opt::<usize>(req, "limit") {
        Ok(v) => v.unwrap_or(10),
        Err(e) => return (400, e),
    };
    let completions = match req.param("kind") {
        Some("drug") | None => snap.complete_drug(prefix, limit),
        Some("adr") => snap.complete_adr(prefix, limit),
        Some(_) => return (400, error_body("bad_request", "'kind' must be 'drug' or 'adr'")),
    };
    let body = Value::obj([(
        "completions",
        Value::arr(completions.into_iter().map(|(term, n)| {
            Value::obj([("term", Value::from(term)), ("clusters", Value::from(n))])
        })),
    )]);
    (200, body.to_string())
}

fn cluster(generation: &Generation, req: &Request) -> (u16, String) {
    let snap = &generation.snapshot;
    let rank: usize = match req.path["/cluster/".len()..].parse() {
        Ok(r) => r,
        Err(_) => return (400, error_body("bad_request", "cluster rank must be an integer")),
    };
    // Ranks are 1-based in the API, matching every report the CLI emits.
    // `try_detail_json` keeps any out-of-range rank (including 0) on the 404
    // path instead of panicking the worker.
    match rank.checked_sub(1).and_then(|r| snap.try_detail_json(r)) {
        Some(detail) => (200, detail.to_string()),
        None => (404, error_body("not_found", "no cluster at that rank")),
    }
}

/// Renders one raw case report — the §4.1 evidence the reviewer drills
/// into: demographics, co-medication with suspect roles, reactions,
/// outcomes.
fn report_json(r: &CaseReport) -> Value {
    Value::obj([
        ("case_id", Value::from(r.case_id)),
        ("version", Value::from(u64::from(r.version))),
        ("report_type", Value::from(r.report_type.code())),
        ("age", r.age.map_or(Value::Null, |a| Value::from(f64::from(a)))),
        ("sex", Value::from(r.sex.code())),
        ("weight_kg", r.weight_kg.map_or(Value::Null, |w| Value::from(f64::from(w)))),
        ("country", Value::from(r.country.as_str())),
        ("event_date", r.event_date.map_or(Value::Null, |d| Value::from(u64::from(d)))),
        (
            "drugs",
            Value::arr(r.drugs.iter().map(|d| {
                Value::obj([
                    ("name", Value::from(d.name.as_str())),
                    ("role", Value::from(d.role.code())),
                ])
            })),
        ),
        ("reactions", Value::arr(r.reactions.iter().map(|t| Value::from(t.as_str())))),
        ("outcomes", Value::arr(r.outcomes.iter().map(|o| Value::from(o.code())))),
        ("max_severity", Value::from(r.max_severity().map_or(0, |o| o.severity()))),
        ("serious", Value::from(r.is_serious())),
    ])
}

/// Hard ceiling on one page of raw reports — keeps a single response (and
/// the cache entry it becomes) bounded no matter what `limit` says.
const MAX_REPORTS_PAGE: usize = 500;

/// `GET /cluster/<rank>/reports?offset=&limit=` — pages through the raw
/// case reports supporting a cluster, straight from the on-disk archive.
/// The cover is a postings intersection (no block is touched until the
/// requested page is materialized), so the server never holds the quarter
/// in memory.
fn cluster_reports(generation: &Generation, req: &Request) -> (u16, String) {
    let snap = &generation.snapshot;
    let inner = &req.path["/cluster/".len()..];
    let rank_str = inner.strip_suffix("/reports").unwrap_or(inner);
    let rank: usize = match rank_str.parse() {
        Ok(r) => r,
        Err(_) => return (400, error_body("bad_request", "cluster rank must be an integer")),
    };
    let offset = match parse_opt::<usize>(req, "offset") {
        Ok(v) => v.unwrap_or(0),
        Err(e) => return (400, e),
    };
    let limit = match parse_opt::<usize>(req, "limit") {
        Ok(v) => v.unwrap_or(20).min(MAX_REPORTS_PAGE),
        Err(e) => return (400, e),
    };
    let min_severity = match parse_opt::<u8>(req, "min_severity") {
        Ok(v) => v,
        Err(e) => return (400, e),
    };
    // 404 ordering matches `/cluster/<rank>`: an out-of-range rank is
    // "no cluster" regardless of whether evidence is attached.
    let Some(cluster) = rank.checked_sub(1).and_then(|r| snap.clusters.get(r)) else {
        return (404, error_body("not_found", "no cluster at that rank"));
    };
    let Some(evidence) = &generation.evidence else {
        return (404, error_body("no_evidence", "server was started without an evidence archive"));
    };
    let mut cover = evidence.cover(&cluster.drugs, &cluster.adrs);
    // An archive from another analysis than the snapshot's yields some
    // other cover; refuse it rather than page the wrong reports.
    if cover.len() != cluster.case_ids.len() {
        let message = format!(
            "archive cover holds {} reports, the cluster {}",
            cover.len(),
            cluster.case_ids.len()
        );
        return (500, error_body("evidence_mismatch", &message));
    }
    if let Some(min) = min_severity.filter(|&m| m > 0) {
        let severe = evidence.severity_at_least(min);
        cover.retain(|t| severe.binary_search(t).is_ok());
    }
    let total = cover.len();
    let page: Vec<u32> = cover.into_iter().skip(offset).take(limit).collect();
    match evidence.reports_for(&page) {
        Ok(reports) => {
            let body = Value::obj([
                ("quarter", Value::from(evidence.quarter())),
                ("rank", Value::from(rank)),
                ("total", Value::from(total)),
                ("offset", Value::from(offset)),
                ("limit", Value::from(limit)),
                ("reports", Value::arr(reports.iter().map(report_json))),
            ]);
            (200, body.to_string())
        }
        Err(e) => (500, error_body("evidence_read_failed", &e.to_string())),
    }
}

/// `GET /report/<case_id>` — one raw case report by FAERS case id.
fn report(generation: &Generation, req: &Request) -> (u16, String) {
    let case_id: u64 = match req.path["/report/".len()..].parse() {
        Ok(id) => id,
        Err(_) => return (400, error_body("bad_request", "case id must be an integer")),
    };
    let Some(evidence) = &generation.evidence else {
        return (404, error_body("no_evidence", "server was started without an evidence archive"));
    };
    match evidence.report_by_case_id(case_id) {
        Ok(Some(r)) => (200, report_json(&r).to_string()),
        Ok(None) => (404, error_body("not_found", "no report with that case id")),
        Err(e) => (500, error_body("evidence_read_failed", &e.to_string())),
    }
}

fn reload(state: &ServeState) -> (Endpoint, u16, String) {
    match state.reload_from_disk() {
        Ok(()) => {
            let snap = state.snapshot();
            let mut event = Event::new(Level::Info, "serve.reload")
                .field("quarter", snap.quarter.as_str())
                .field("clusters", snap.len());
            if let Some(id) = debug::current_request() {
                event = event.field("request_id", id.to_string());
            }
            event.emit();
            let body = Value::obj([
                ("status", Value::from("reloaded")),
                ("quarter", Value::from(snap.quarter.clone())),
                ("clusters", Value::from(snap.len())),
            ]);
            (Endpoint::Reload, 200, body.to_string())
        }
        Err(ReloadError::InProgress) => (
            Endpoint::Reload,
            409,
            error_body("reload_in_progress", "another reload is in flight; retry shortly"),
        ),
        Err(ReloadError::NoPath) => (
            Endpoint::Reload,
            409,
            error_body("no_snapshot_path", "server was started without a snapshot file"),
        ),
        Err(ReloadError::Store(e)) => {
            (Endpoint::Reload, 500, error_body("reload_failed", &e.to_string()))
        }
        Err(ReloadError::Evidence(e)) => {
            (Endpoint::Reload, 500, error_body("evidence_reload_failed", &e.to_string()))
        }
    }
}

fn parse_opt<T: std::str::FromStr>(req: &Request, name: &str) -> Result<Option<T>, String> {
    match req.param(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| error_body("bad_request", &format!("invalid '{name}' value: {raw:?}"))),
    }
}

fn parse_flag(req: &Request, name: &str) -> Result<bool, String> {
    match req.param(name) {
        None => Ok(false),
        Some("true") | Some("1") | Some("") => Ok(true),
        Some("false") | Some("0") => Ok(false),
        Some(raw) => {
            Err(error_body("bad_request", &format!("invalid '{name}' flag value: {raw:?}")))
        }
    }
}

/// Renders the uniform error envelope every non-200 response uses.
pub fn error_body(code: &str, message: &str) -> String {
    Value::obj([(
        "error",
        Value::obj([("code", Value::from(code)), ("message", Value::from(message))]),
    )])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_core::{Pipeline, PipelineConfig};
    use maras_faers::{QuarterId, SynthConfig, Synthesizer};

    fn state() -> ServeState {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(91));
        let quarter = synth.generate_quarter(QuarterId::new(2016, 2));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        ServeState::new(Snapshot::build("2016 Q2", &result, &dv, &av, None), None, 64)
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    #[test]
    fn search_serves_hits_and_caches_them() {
        let st = state();
        let req = get("/search", &[("min_severity", "3")]);
        let (ep, status, body) = respond(&st, &req);
        assert_eq!((ep, status), (Endpoint::Search, 200));
        let json = serde_json::from_str(&body).unwrap();
        assert_eq!(json["quarter"], "2016 Q2");
        assert!(json["total"].as_u64().unwrap() > 0);
        let (_, status2, body2) = respond(&st, &req);
        assert_eq!(status2, 200);
        assert_eq!(body2, body);
        assert_eq!(st.metrics.cache_hits.get(), 1);
    }

    #[test]
    fn bad_params_are_400_and_never_cached() {
        let st = state();
        for req in [
            get("/search", &[("min_severity", "high")]),
            get("/search", &[("unknown_only", "maybe")]),
            get("/autocomplete", &[]),
            get("/autocomplete", &[("prefix", "PR"), ("kind", "pet")]),
            get("/cluster/zero", &[]),
        ] {
            let (_, status, body) = respond(&st, &req);
            assert_eq!(status, 400, "{req:?}");
            let json = serde_json::from_str(&body).unwrap();
            assert!(!json["error"]["message"].as_str().unwrap().is_empty());
        }
        assert_eq!(st.cache_len(), 0);
    }

    #[test]
    fn cluster_rank_bounds() {
        let st = state();
        let n = st.snapshot().len();
        let (_, ok, body) = respond(&st, &get(&format!("/cluster/{n}"), &[]));
        assert_eq!(ok, 200);
        let json = serde_json::from_str(&body).unwrap();
        assert_eq!(json["rank"], n);
        let (_, missing, _) = respond(&st, &get(&format!("/cluster/{}", n + 1), &[]));
        assert_eq!(missing, 404);
        let (_, zero, _) = respond(&st, &get("/cluster/0", &[]));
        assert_eq!(zero, 404);
    }

    #[test]
    fn unknown_paths_and_methods() {
        let st = state();
        let (_, status, _) = respond(&st, &get("/nope", &[]));
        assert_eq!(status, 404);
        let req = Request { method: "POST".into(), path: "/search".into(), query: vec![] };
        let (_, status, _) = respond(&st, &req);
        assert_eq!(status, 405);
        let req = Request { method: "POST".into(), path: "/reload".into(), query: vec![] };
        let (_, status, _) = respond(&st, &req);
        assert_eq!(status, 409, "no snapshot path configured");
    }

    #[test]
    fn metrics_endpoints_serve_both_formats() {
        let st = state();
        respond(&st, &get("/search", &[]));
        // Request accounting lives in the connection handler, not respond().
        st.metrics.record(Endpoint::Search, 100, false);
        let (ep, status, prom) = respond(&st, &get("/metrics", &[]));
        assert_eq!((ep, status), (Endpoint::Metrics, 200));
        assert!(prom.contains("# TYPE maras_requests_total counter"), "{prom}");
        assert!(prom.contains("maras_requests_total{endpoint=\"search\"} 1"));
        let (ep, status, json) = respond(&st, &get("/metrics.json", &[]));
        assert_eq!((ep, status), (Endpoint::Metrics, 200));
        let json: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(json["requests"]["search"], 1u64);
        assert!(json["cache_entries"].as_u64().is_some());
        // Wrong method on the new path still routes to 405, not 404.
        let req = Request { method: "POST".into(), path: "/metrics.json".into(), query: vec![] };
        let (_, status, _) = respond(&st, &req);
        assert_eq!(status, 405);
    }

    #[test]
    fn two_states_in_one_process_keep_separate_ledgers() {
        let (busy, idle) = (state(), state());
        respond(&busy, &get("/search", &[]));
        busy.metrics.record(Endpoint::Search, 120, false);
        busy.metrics.record(Endpoint::Other, 80, true);
        busy.metrics.shed.inc();
        let json = |st: &ServeState| -> serde_json::Value {
            serde_json::from_str(&respond(st, &get("/metrics.json", &[])).2).unwrap()
        };
        let (busy_json, idle_json) = (json(&busy), json(&idle));
        assert_eq!(busy_json["requests"]["search"], 1u64);
        assert_eq!(busy_json["cache"]["misses"], 1u64);
        for (key, v) in idle_json["requests"].as_object().unwrap() {
            assert_eq!(*v, 0u64, "idle state counted requests.{key}");
        }
        assert_eq!(idle_json["errors"], 0u64);
        assert_eq!(idle_json["latency_us"]["total"], 0u64);
        assert_eq!(idle_json["cache"]["misses"], 0u64);
        // Every series the state registers reads zero on the idle one's
        // scrape; the global registry's pipeline series follow them.
        let serve_series = |line: &&str| {
            ["maras_request", "maras_cache_", "maras_serve_", "maras_snapshot_", "maras_slow_"]
                .iter()
                .any(|p| line.starts_with(p))
        };
        let (_, _, busy_prom) = respond(&busy, &get("/metrics", &[]));
        assert!(busy_prom.lines().any(|l| l == "maras_serve_shed_total 1"));
        let (_, _, idle_prom) = respond(&idle, &get("/metrics", &[]));
        let idle_samples: Vec<&str> = idle_prom.lines().filter(serve_series).collect();
        assert!(idle_samples.len() > 100, "scrape lost the serve series");
        for line in idle_samples {
            assert!(line.ends_with(" 0"), "idle state's scrape reads nonzero: {line}");
        }
    }

    #[test]
    fn healthz_flips_to_draining_503() {
        let st = state();
        let (_, status, body) = respond(&st, &get("/healthz", &[]));
        assert_eq!(status, 200);
        assert_eq!(serde_json::from_str(&body).unwrap()["status"], "ok");
        st.begin_drain();
        let (ep, status, body) = respond(&st, &get("/healthz", &[]));
        assert_eq!((ep, status), (Endpoint::Healthz, 503));
        let json = serde_json::from_str(&body).unwrap();
        assert_eq!(json["status"], "draining");
        // Identity fields survive the flip: deregistration, not amnesia.
        assert_eq!(json["quarter"], "2016 Q2");
    }

    #[test]
    fn concurrent_reload_is_409_until_lock_released() {
        let st = state();
        let req = Request { method: "POST".into(), path: "/reload".into(), query: vec![] };
        let guard = st.hold_reload_lock();
        let (_, status, body) = respond(&st, &req);
        assert_eq!(status, 409);
        assert_eq!(serde_json::from_str(&body).unwrap()["error"]["code"], "reload_in_progress");
        drop(guard);
        // Lock free again: this state has no snapshot path, so the reload
        // proceeds past serialization and fails on the *path* check.
        let (_, status, body) = respond(&st, &req);
        assert_eq!(status, 409);
        assert_eq!(serde_json::from_str(&body).unwrap()["error"]["code"], "no_snapshot_path");
    }

    #[test]
    fn panic_route_is_404_unless_enabled() {
        let st = state();
        let (_, status, _) = respond(&st, &get("/__panic", &[]));
        assert_eq!(status, 404, "chaos route must not exist by default");
        st.enable_panic_route();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            respond(&st, &get("/__panic", &[]))
        }))
        .is_err();
        assert!(panicked, "enabled chaos route must panic inside the handler");
    }

    #[test]
    fn debug_endpoints_serve_logs_requests_and_runtime() {
        let st = state();
        // Runtime dump: self-describing JSON with the drop accounting.
        let (ep, status, body) = respond(&st, &get("/debug/runtime", &[]));
        assert_eq!((ep, status), (Endpoint::Debug, 200));
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(json["draining"], false);
        assert!(json["uptime_ms"].as_u64().is_some());
        assert!(json["observability"]["logs_dropped"].as_u64().is_some());
        assert!(json["observability"]["spans_dropped"].as_u64().is_some());
        assert!(json["cache"]["entries"].as_u64().is_some());

        // The flight recorder's records come back newest first.
        st.flight.record(crate::debug::RequestRecord {
            id: crate::debug::RequestId::next(),
            what: "GET /unit-test-record".into(),
            status: 200,
            outcome: "slow",
            total_us: 1_234,
            parse_us: 1,
            route_us: 2,
            write_us: 3,
            ts_ms: 0,
        });
        let (ep, status, body) = respond(&st, &get("/debug/requests", &[]));
        assert_eq!((ep, status), (Endpoint::Debug, 200));
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert!(json["recorded"].as_u64().unwrap() >= 1);
        let reqs = json["requests"].as_array().unwrap();
        let mine = reqs.iter().find(|r| r["what"] == "GET /unit-test-record").unwrap();
        assert_eq!(mine["outcome"], "slow");
        assert_eq!(mine["total_us"], 1_234u64);
        assert_eq!(mine["id"].as_str().unwrap().len(), 16);

        // Routing itself logged a Debug event that /debug/logs serves.
        // (The ring is process-global, so pick our event out by path.)
        respond(&st, &get("/search-debug-probe-path", &[]));
        let (_, status, body) = respond(&st, &get("/debug/logs", &[("limit", "1000")]));
        assert_eq!(status, 200);
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        let events = json["events"].as_array().unwrap();
        let probe = events
            .iter()
            .find(|e| e["path"] == "/search-debug-probe-path")
            .expect("serve.route event for the probe request");
        assert_eq!(probe["event"], "serve.route");
        assert_eq!(probe["level"], "debug");
        assert_eq!(probe["status"], 404u64);

        // Level filtering rejects junk, accepts real levels.
        let (_, status, _) = respond(&st, &get("/debug/logs", &[("level", "loud")]));
        assert_eq!(status, 400);
        let (_, status, body) = respond(&st, &get("/debug/logs", &[("level", "error")]));
        assert_eq!(status, 200);
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        for e in json["events"].as_array().unwrap() {
            assert_eq!(e["level"], "error");
        }
    }

    #[test]
    fn debug_suite_is_405_on_wrong_method_and_404_when_disabled() {
        let st = state();
        for path in ["/debug/logs", "/debug/requests", "/debug/runtime"] {
            let req = Request { method: "POST".into(), path: path.into(), query: vec![] };
            let (_, status, _) = respond(&st, &req);
            assert_eq!(status, 405, "{path} enabled + wrong method");
        }
        st.set_debug_endpoints(false);
        assert!(!st.debug_enabled());
        for path in ["/debug/logs", "/debug/requests", "/debug/runtime"] {
            let (_, status, body) = respond(&st, &get(path, &[]));
            assert_eq!(status, 404, "{path} disabled must not exist");
            assert_eq!(serde_json::from_str(&body).unwrap()["error"]["code"], "not_found");
            // Disabled means *gone*, not method-gated: POST is 404 too.
            let req = Request { method: "POST".into(), path: path.into(), query: vec![] };
            let (_, status, _) = respond(&st, &req);
            assert_eq!(status, 404, "{path} disabled + wrong method");
        }
        st.set_debug_endpoints(true);
        let (_, status, _) = respond(&st, &get("/debug/runtime", &[]));
        assert_eq!(status, 200, "re-enable works");
    }

    #[test]
    fn swap_clears_cache_and_counts_reload() {
        let st = state();
        let req = get("/search", &[]);
        respond(&st, &req);
        assert!(st.cache_len() > 0);
        let snap = st.snapshot();
        st.swap(Snapshot::from_parts(
            "2017 Q1".into(),
            snap.n_reports,
            snap.drug_vocab().clone(),
            snap.adr_vocab().clone(),
            snap.clusters.clone(),
        ));
        assert_eq!(st.cache_len(), 0);
        let (_, _, body) = respond(&st, &get("/healthz", &[]));
        let json = serde_json::from_str(&body).unwrap();
        assert_eq!(json["quarter"], "2017 Q1");
    }
}
