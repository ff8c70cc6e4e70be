//! The `serve_session` workload: the §4.1 interface over real TCP.
//!
//! Set-up builds the snapshot and evidence archive with `maras snapshot
//! --evidence` and boots `maras serve` with its defaults until `/healthz`
//! answers, three times; the third server is measured. One generator
//! thread keeps one connection in flight and sends a fixed request stream
//! on a Poisson schedule: a warm-up, a fixed-rate phase for `p50_ms`, then
//! every rung of a fixed rate ladder for `max_rps`. Latency runs from each
//! request's due time to its full response.

use crate::client::{self, Response};
use crate::inputs::{self, Artifacts, QuarterInputs};
use crate::ladder::{self, Rung};
use crate::prom::Scrape;
use crate::{host, json, stats, Args, Outcome};
use maras::evidence::EvidenceReader;
use maras::serve::http::{percent_decode, Request};
use maras::serve::{respond, ServeState, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Closed-loop requests before anything is timed (fills the caches).
const WARMUP_REQUESTS: usize = 600;
/// Offered rate of the `p50_ms` phase, requests/s: a tenth of the ≈5,000/s
/// saturation measured when the benchmark was defined, so the phase spans
/// most of the run within the connection cap.
pub const FIXED_RATE: f64 = 500.0;
/// The rate ladder for `max_rps`, requests/s: from half the ≈5,000–7,000/s
/// saturation measured when the benchmark was defined to a fifth above its
/// top, in steps of 6–9% near it. Every rung runs, with the same request
/// count, in this fixed order: high and low rungs alternate, so a slow
/// spell of the shared host fails the rungs it overlaps and the fit in
/// [`ladder::max_rps`] sees it as noise instead of a lower ceiling.
pub const LADDER: [f64; 13] = [
    5_800.0, 8_600.0, 3_500.0, 7_500.0, 5_000.0, 8_000.0, 6_200.0, 2_500.0, 7_000.0, 4_600.0,
    6_600.0, 4_200.0, 5_400.0,
];
/// Requests per rung: the fewest that support a p99 with ten samples
/// beyond it, which leaves most of the connection budget to the p50 phase.
const PER_RUNG: usize = 1_000;
/// Connections one run may open, below the 28,232-port ephemeral range.
const CONNECTION_CAP: usize = 26_000;
/// Longest wait at start for TIME_WAIT sockets to clear. This benchmark
/// leaves none (it closes with a reset), so any found are someone else's
/// and are only recorded once this wait is over.
const TIMEWAIT_WAIT: Duration = Duration::from_secs(15);
/// Per-socket-operation timeout of the generator.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Drill-down page size the simulated reviewer requests.
const PAGE: usize = 20;

/// splitmix64: the benchmark's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Unit-mean exponential gap.
    fn exp_gap(&mut self) -> f64 {
        -self.unit().ln()
    }
}

/// What a response must satisfy beyond "200 with a JSON body".
#[derive(Debug, Clone, PartialEq)]
enum Check {
    Json,
    /// `/cluster/<rank>`: remember its `n_supporting_reports`.
    Cluster(usize),
    /// `/cluster/<rank>/reports`: `total` equals that cluster's count.
    Reports(usize),
    /// `/report/<case id>`: returns that `case_id`.
    Report(u64),
}

#[derive(Debug, Clone)]
struct Req {
    target: String,
    check: Check,
}

fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The request stream: simulated reviewers, one after another. Each picks
/// a drug weighted by how many clusters it appears in, types 1–4
/// autocomplete keystrokes, searches, narrows the search, opens 1–3 of
/// the top hits, pages through 1–3 drill-down pages of one of them, and
/// opens one of its raw reports.
fn build_stream(snap: &Snapshot, seed: u64, n: usize) -> Vec<Req> {
    let mut by_drug: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (rank, c) in snap.clusters.iter().enumerate() {
        for d in &c.drugs {
            by_drug.entry(d.as_str()).or_default().push(rank);
        }
    }
    let drugs: Vec<(&str, Vec<usize>)> = by_drug.into_iter().collect();
    let mut cumulative = Vec::with_capacity(drugs.len());
    let mut total = 0usize;
    for (_, ranks) in &drugs {
        total += ranks.len();
        cumulative.push(total);
    }
    let mut rng = Rng(seed ^ 0x5EED_5E55_10E5);
    let mut out = Vec::with_capacity(n + 16);
    let json = |target: String| Req { target, check: Check::Json };
    while out.len() < n && total > 0 {
        let pick = rng.below(total);
        let (name, ranks) = &drugs[cumulative.partition_point(|&c| c <= pick)];
        let chars: Vec<char> = name.chars().collect();
        for k in 1..=(1 + rng.below(4)).min(chars.len()) {
            let prefix: String = chars[..k].iter().collect();
            out.push(json(format!("/autocomplete?prefix={}&kind=drug", encode(&prefix))));
        }
        let search = format!("/search?drug={}", encode(name));
        out.push(json(search.clone()));
        let narrow = match rng.below(3) {
            0 => format!("min_severity={}", 1 + rng.below(3)),
            1 => "unknown_only=1".to_string(),
            _ => format!("sort_by={}", ["prr", "ror", "ebgm", "score"][rng.below(4)]),
        };
        out.push(json(format!("{search}&{narrow}")));
        let top = &ranks[..ranks.len().min(20)];
        let mut opened: Vec<usize> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let r = top[rng.below(top.len())];
            if !opened.contains(&r) {
                opened.push(r);
            }
        }
        for &r in &opened {
            out.push(Req { target: format!("/cluster/{}", r + 1), check: Check::Cluster(r + 1) });
        }
        let drill = opened[0];
        let cases = &snap.clusters[drill].case_ids;
        let pages = (1 + rng.below(3)).min(cases.len().div_ceil(PAGE).max(1));
        for p in 0..pages {
            out.push(Req {
                target: format!("/cluster/{}/reports?offset={}&limit={PAGE}", drill + 1, p * PAGE),
                check: Check::Reports(drill + 1),
            });
        }
        if !cases.is_empty() {
            let case = cases[rng.below(cases.len())];
            out.push(Req { target: format!("/report/{case}"), check: Check::Report(case) });
        }
    }
    out.truncate(n);
    out
}

/// Validates responses in stream order; a failed check is a failed request.
#[derive(Default)]
struct Checker {
    supporting: HashMap<usize, u64>,
}

impl Checker {
    fn check(&mut self, req: &Req, resp: &std::io::Result<Response>) -> Result<(), String> {
        let resp = resp.as_ref().map_err(|e| format!("{}: {e}", req.target))?;
        if resp.status != 200 {
            return Err(format!("{}: status {}", req.target, resp.status));
        }
        let fields = json::top_level_u64s(&resp.body)
            .ok_or_else(|| format!("{}: body is not JSON", req.target))?;
        let field = |k: &str| fields.get(k).copied();
        match req.check {
            Check::Json => Ok(()),
            Check::Cluster(rank) => {
                let n = field("n_supporting_reports")
                    .ok_or_else(|| format!("{}: no n_supporting_reports", req.target))?;
                self.supporting.insert(rank, n);
                Ok(())
            }
            Check::Reports(rank) => match (field("total"), self.supporting.get(&rank)) {
                (Some(t), Some(&n)) if t == n => Ok(()),
                (t, n) => {
                    Err(format!("{}: total {t:?} but n_supporting_reports {n:?}", req.target))
                }
            },
            Check::Report(id) => match field("case_id") {
                Some(got) if got == id => Ok(()),
                got => Err(format!("{}: case_id {got:?}", req.target)),
            },
        }
    }
}

/// Waits for `due` by yielding the CPU instead of sleeping. A sleeping
/// generator lets its virtual CPU halt, and the hypervisor's wake-up
/// latency then lands in every request's measured latency; yielding keeps
/// the CPU awake and still lets anything else on it run. (A PAUSE-based
/// `spin_loop` would trigger pause-loop exits that hand the CPU away.)
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One phase's measurements.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    failed: usize,
    span_s: f64,
}

/// Sends `reqs` in order. With a rate, request `i` is due `gaps[..=i]` /
/// rate after the phase starts and its latency runs from that due time;
/// without one the phase is closed-loop. Responses are checked after the
/// phase, so checking never delays the schedule.
fn run_phase(
    addr: SocketAddr,
    reqs: &[Req],
    gaps: &[f64],
    rate: Option<f64>,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let mut responses = Vec::with_capacity(reqs.len());
    let start = Instant::now();
    let mut due_s = 0.0;
    let mut last_done = start;
    for (req, gap) in reqs.iter().zip(gaps) {
        if let Some(rate) = rate {
            due_s += gap / rate;
        }
        let due =
            if rate.is_some() { start + Duration::from_secs_f64(due_s) } else { Instant::now() };
        wait_until(due);
        let sent = Instant::now();
        let resp = client::get(addr, &req.target, IO_TIMEOUT);
        let done = Instant::now();
        phase.latency_ms.push((done - due).as_secs_f64() * 1e3);
        phase.late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        phase.rtt_us.push((done - sent).as_secs_f64() * 1e6);
        responses.push(resp);
        last_done = done;
    }
    phase.span_s = (last_done - start).as_secs_f64();
    for (req, resp) in reqs.iter().zip(&responses) {
        let verdict = checker.check(req, resp);
        if verdict.is_err() {
            phase.failed += 1;
        }
        out.check(verdict.is_ok(), || verdict.unwrap_err());
    }
    phase
}

/// A running `maras serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `maras snapshot --evidence`: the quarter's `$` files to the artifacts.
fn build_artifacts(maras: &Path, inp: &QuarterInputs, files: &Artifacts) -> Result<(), String> {
    let built = Command::new(maras)
        .arg("snapshot")
        .arg("--dir")
        .arg(&inp.dir)
        .arg("--quarter")
        .arg(format!("{}Q{}", inp.id.year, inp.id.quarter))
        .args(["--min-support", "6", "--threads", "1", "--out"])
        .arg(&files.snap)
        .arg("--evidence")
        .arg(&files.evid)
        .env_remove("MARAS_LOG")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("run {}: {e}", maras.display()))?;
    if built.status.success() {
        Ok(())
    } else {
        Err(format!("maras snapshot failed: {}", String::from_utf8_lossy(&built.stderr).trim()))
    }
}

/// `maras serve` with its defaults on the artifacts, once `/healthz`
/// answers 200.
fn start_server(maras: &Path, files: &Artifacts) -> Result<Server, String> {
    let mut child = Command::new(maras)
        .arg("serve")
        .arg("--snapshot")
        .arg(&files.snap)
        .arg("--evidence")
        .arg(&files.evid)
        .args(["--addr", "127.0.0.1:0"])
        .env_remove("MARAS_LOG")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn maras serve: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut addr = None;
    let mut line = String::new();
    while addr.is_none() {
        line.clear();
        if stdout.read_line(&mut line).unwrap_or(0) == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("maras serve exited before listening".into());
        }
        addr = line
            .split("serving on http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
    }
    let server = Server { child, addr: addr.expect("parsed"), _stdout: stdout };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client::get(server.addr, "/healthz", IO_TIMEOUT) {
            Ok(r) if r.status == 200 => return Ok(server),
            _ if Instant::now() > deadline => return Err("/healthz never answered 200".into()),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Requests in the fixed-rate phase: what `--seconds` leaves after the
/// ladder, at [`FIXED_RATE`], capped by the connections left after the
/// warm-up and the ladder. At `--seconds 30` the cap binds and a run
/// measures about 27 s.
fn fixed_requests(seconds: f64) -> usize {
    let ladder_s: f64 = LADDER.iter().map(|r| PER_RUNG as f64 / r).sum();
    let wanted = (FIXED_RATE * (seconds - ladder_s)).max(0.0) as usize;
    let room = CONNECTION_CAP - 64 - WARMUP_REQUESTS - PER_RUNG * LADDER.len();
    wanted.clamp(20 * LADDER.len(), room)
}

fn to_request(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let query = query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (percent_decode(k).unwrap_or_default(), percent_decode(v).unwrap_or_default())
        })
        .collect();
    Request { method: "GET".into(), path: path.into(), query }
}

/// Router nanoseconds per request with flight-recorder recording on minus
/// off, replaying the stream's first sessions in-process through
/// `serve::respond` on a warm cache.
fn recording_ns(snap: Snapshot, files: &Artifacts, stream: &[Req]) -> Result<f64, String> {
    let reader = EvidenceReader::open(&files.evid).map_err(|e| format!("open archive: {e}"))?;
    let state = ServeState::new(snap, None, 1024).with_evidence(Arc::new(reader), None);
    let session: Vec<Request> = stream.iter().take(50).map(|r| to_request(&r.target)).collect();
    let mut on = Vec::new();
    let mut off = Vec::new();
    for round in 0..40 {
        for recording in [round % 2 == 0, round % 2 == 1] {
            maras::obs::set_recording(recording);
            let t = Instant::now();
            for _ in 0..10 {
                for req in &session {
                    std::hint::black_box(respond(&state, std::hint::black_box(req)));
                }
            }
            let ns = t.elapsed().as_nanos() as f64 / (10 * session.len()) as f64;
            if round > 0 {
                if recording {
                    on.push(ns)
                } else {
                    off.push(ns)
                }
            }
            maras::obs::take_spans();
        }
    }
    maras::obs::set_recording(true);
    Ok(stats::median(&on).unwrap_or(0.0) - stats::median(&off).unwrap_or(0.0))
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let r = client::get(addr, "/metrics", IO_TIMEOUT).map_err(|e| format!("scrape: {e}"))?;
    Ok(Scrape::parse(&r.body))
}

const ENDPOINTS: [&str; 5] = ["search", "autocomplete", "cluster", "reports", "report"];

/// The per-layer numbers a traced serve run derives from two `/metrics`
/// scrapes and the client's own round trips.
fn serve_layers(out: &mut Outcome, d: &Scrape, after: &Scrape, rtt_us: &[f64]) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ep = |e: &str| format!("endpoint=\"{e}\"");
    let served: f64 =
        ENDPOINTS.iter().map(|e| d.sum("maras_request_latency_us_count", &ep(e))).sum();
    let server_us: f64 =
        ENDPOINTS.iter().map(|e| d.sum("maras_request_latency_us_sum", &ep(e))).sum();
    let client_us = rtt_us.iter().sum::<f64>() / rtt_us.len().max(1) as f64;
    out.set("http.transport_us", client_us - ratio(server_us, served));
    let parse = d.mean("maras_serve_phase_us", "phase=\"parse\"");
    let write = d.mean("maras_serve_phase_us", "phase=\"write\"");
    out.set("http.parse_us", parse);
    out.set("http.write_us", write);
    for (e, name) in ENDPOINTS.iter().zip([
        "router.route_us.search",
        "router.route_us.autocomplete",
        "router.route_us.cluster",
        "router.route_us.reports",
        "router.route_us.report",
    ]) {
        let total = d.mean("maras_request_latency_us", &ep(e));
        out.set(name, if total > 0.0 { total - parse - write } else { 0.0 });
    }
    let hits = d.get("maras_cache_hits_total");
    out.set("cache.hit_ratio", ratio(hits, hits + d.get("maras_cache_misses_total")));
    out.set("evidence.cover_calls", d.get("maras_evidence_intersections_total"));
    let bh = d.get("maras_evidence_block_cache_hits_total");
    let bm = d.get("maras_evidence_block_cache_misses_total");
    out.set("evidence.block_hit_ratio", ratio(bh, bh + bm));
    out.set("evidence.blocks_read", bm);
    out.set("evidence.block_read_us", d.mean("maras_evidence_block_read_us", ""));
    out.set("evidence.block_decode_us", d.mean("maras_evidence_block_decode_us", ""));
    out.set("obs.spans_dropped", after.get("maras_obs_dropped_total{kind=\"spans\"}"));
}

/// What one replay of the reviewer schedule measured.
struct Session {
    segment_p50_ms: Vec<f64>,
    fixed_latency_ms: Vec<f64>,
    fixed_late_ms: Vec<f64>,
    rungs: Vec<Rung>,
    rtt_us: Vec<f64>,
    requests: usize,
    steal_pct: f64,
    peak_rss_mb: f64,
    /// `/metrics` before and after the measured phases (traced runs).
    scrapes: Option<(Scrape, Scrape)>,
    stream: Vec<Req>,
    snap: Snapshot,
}

/// Replays the seed's schedule against `server` and stops it: the warm-up,
/// then one fixed-rate segment before each ladder rung.
fn run_session(
    args: &Args,
    server: Server,
    files: &Artifacts,
    out: &mut Outcome,
) -> Result<Session, String> {
    let segment = fixed_requests(args.seconds) / LADDER.len();
    let total = WARMUP_REQUESTS + (segment + PER_RUNG) * LADDER.len();
    let snap = maras::serve::load(&files.snap).map_err(|e| format!("load snapshot: {e}"))?;
    let stream = build_stream(&snap, args.seed, total);
    if stream.len() < total {
        return Err(format!("the snapshot yields {} requests of {total}", stream.len()));
    }
    let mut rng = Rng(args.seed ^ 0xA11_CE5);
    let gaps: Vec<f64> = (0..stream.len()).map(|_| rng.exp_gap()).collect();
    let mut checker = Checker::default();

    run_phase(server.addr, &stream[..WARMUP_REQUESTS], &gaps, None, &mut checker, out);
    let before = if args.trace { Some(scrape(server.addr)?) } else { None };
    let ticks = host::CpuTicks::now();
    let mut at = WARMUP_REQUESTS;
    // The fixed-rate phase runs in one segment before each rung, and
    // `p50_ms` is the median of the segments' medians: it samples the whole
    // run, and a slow spell of the shared host (whose speed drifts by tens
    // of percent within seconds) moves only the segments it overlaps.
    let mut s = Session {
        segment_p50_ms: Vec::with_capacity(LADDER.len()),
        fixed_latency_ms: Vec::new(),
        fixed_late_ms: Vec::new(),
        rungs: Vec::with_capacity(LADDER.len()),
        rtt_us: Vec::new(),
        requests: 0,
        steal_pct: 0.0,
        peak_rss_mb: 0.0,
        scrapes: None,
        stream: Vec::new(),
        snap,
    };
    for rate in LADDER {
        let f = run_phase(
            server.addr,
            &stream[at..at + segment],
            &gaps[at..],
            Some(FIXED_RATE),
            &mut checker,
            out,
        );
        at += segment;
        s.segment_p50_ms.push(stats::median(&f.latency_ms).unwrap_or(0.0));
        s.fixed_latency_ms.extend(f.latency_ms);
        s.fixed_late_ms.extend(f.late_ms);
        s.rtt_us.extend(f.rtt_us);
        let p = run_phase(
            server.addr,
            &stream[at..at + PER_RUNG],
            &gaps[at..],
            Some(rate),
            &mut checker,
            out,
        );
        at += PER_RUNG;
        s.rtt_us.extend(p.rtt_us);
        s.rungs.push(Rung {
            rate,
            achieved_rps: PER_RUNG as f64 / p.span_s,
            latency_ms: p.latency_ms,
            late_ms: p.late_ms,
            failed: p.failed,
        });
    }
    s.steal_pct = host::CpuTicks::now().steal_pct_since(&ticks);
    if let Some(before) = before {
        s.scrapes = Some((before, scrape(server.addr)?));
    }
    s.peak_rss_mb = host::peak_rss_mb(&server.child.id().to_string());
    s.requests = at;
    s.stream = stream;
    Ok(s)
}

/// Diagnostic lines: every rung's verdict and the fixed-rate summary.
fn session_notes(out: &mut Outcome, s: &Session, timewait: u64) {
    for (i, r) in s.rungs.iter().enumerate() {
        let v = ladder::judge(r);
        out.notes.push(format!(
            "rung {i}: offered {} /s, achieved {:.1} /s, n={}, p99 {:?} ms, lateness growth {:.2} ms, failed {} -> {}",
            r.rate,
            r.achieved_rps,
            r.latency_ms.len(),
            v.p99_ms,
            v.late_growth_ms,
            r.failed,
            if v.pass { "pass" } else { "fail" }
        ));
    }
    if let Some(f) = stats::summarize(&s.fixed_latency_ms) {
        out.notes.push(format!(
            "fixed rate {FIXED_RATE} /s: n={} pooled p50 {:.4} ms, p{} {:.3} ms; segment p50s {:.3?} ms; host.steal_pct={:.2} host.timewait_at_start={timewait} serve.requests={}",
            f.n,
            f.p50,
            f.tail_pct.unwrap_or(0.0),
            f.tail.unwrap_or(0.0),
            s.segment_p50_ms,
            s.steal_pct,
            s.requests
        ));
    }
}

/// The serve layers' per-layer metrics and the generator diagnostics of a
/// traced replay.
fn session_layers(
    out: &mut Outcome,
    s: Session,
    files: &Artifacts,
    timewait: u64,
) -> Result<(), String> {
    let (before, after) = s.scrapes.as_ref().ok_or("a traced replay scrapes /metrics")?;
    serve_layers(out, &Scrape::delta(before, after), after, &s.rtt_us);
    out.set("host.steal_pct", s.steal_pct);
    out.set("host.timewait_at_start", timewait as f64);
    out.set(
        "gen.late_ms",
        s.fixed_late_ms.iter().sum::<f64>() / s.fixed_late_ms.len().max(1) as f64,
    );
    out.set("serve.p99_ms", stats::p99_supported(&s.fixed_latency_ms).unwrap_or(0.0));
    out.set("serve.requests", s.requests as f64);
    out.set("obs.recording_ns", recording_ns(s.snap, files, &s.stream)?);
    Ok(())
}

/// The `serve_session` workload. Not in `BENCHMARK.json`: on the shared
/// 2-vCPU host its `p50_ms` and `max_rps` spread by 29–30% between runs,
/// above the largest allowed bound. Its layers are measured by traced
/// `quarter_signals` runs (see [`replay_layers`]).
pub fn serve_session(args: &Args) -> Result<Outcome, String> {
    let timewait = host::wait_for_timewait_clear(TIMEWAIT_WAIT);
    let dir = args.work.join("serve");
    let inp = inputs::write_quarter(&dir, args.seed).map_err(|e| format!("write inputs: {e}"))?;
    let files = Artifacts::in_dir(&dir);
    let mut out = Outcome::default();

    // From a new quarter to a live server, SETUPS times; the last is measured.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let started = Instant::now();
        build_artifacts(&args.maras, &inp, &files)?;
        server = Some(start_server(&args.maras, &files)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let s = run_session(args, server.expect("at least one set-up"), &files, &mut out)?;
    session_notes(&mut out, &s, timewait);
    out.notes.push(format!("set-ups {setups:?} s"));
    let (snap_bytes, evid_bytes) = files.bytes();
    if args.trace {
        let t = Instant::now();
        drop(maras::serve::load(&files.snap).map_err(|e| format!("load snapshot: {e}"))?);
        out.set("snapshot.load_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        EvidenceReader::open(&files.evid).map_err(|e| format!("open archive: {e}"))?;
        out.set("evidence.open_ms", t.elapsed().as_secs_f64() * 1e3);
        out.set("snapshot.bytes", snap_bytes as f64);
        out.set("evidence.bytes", evid_bytes as f64);
        session_layers(&mut out, s, &files, timewait)?;
    } else {
        let reports = inp.demo_rows as f64;
        out.set("setup_s", setup_s);
        out.set("reports_per_s", reports / setup_s);
        out.set("peak_rss_mb", s.peak_rss_mb);
        out.set("artifact_bytes_per_report", (snap_bytes + evid_bytes) as f64 / reports);
        out.set("p50_ms", stats::median(&s.segment_p50_ms).unwrap_or(0.0));
        out.set("max_rps", ladder::max_rps(&s.rungs).unwrap_or(0.0));
    }
    Ok(out)
}

/// The serve layers of a traced `quarter_signals` run: serve the artifacts
/// the run built with `maras serve` and replay the seed's reviewer
/// schedule over TCP, as `serve_session` does.
pub fn replay_layers(args: &Args, files: &Artifacts, out: &mut Outcome) -> Result<(), String> {
    let timewait = host::wait_for_timewait_clear(TIMEWAIT_WAIT);
    let server = start_server(&args.maras, files)?;
    let s = run_session(args, server, files, out)?;
    session_notes(out, &s, timewait);
    session_layers(out, s, files, timewait)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_stays_under_the_connection_cap() {
        for seconds in [1.0, 10.0, 30.0, 60.0] {
            let fixed = fixed_requests(seconds);
            assert!(WARMUP_REQUESTS + fixed + PER_RUNG * LADDER.len() < CONNECTION_CAP);
            assert!(fixed >= 20 * LADDER.len(), "{seconds}");
        }
        // The ladder takes 2.53 s at full speed; the rest is at 500/s until
        // the cap binds.
        assert_eq!(fixed_requests(10.0), 3735);
        assert_eq!(fixed_requests(30.0), CONNECTION_CAP - 64 - WARMUP_REQUESTS - 13_000);
    }

    #[test]
    fn targets_round_trip_through_percent_encoding() {
        let req = to_request(&format!("/search?drug={}&unknown_only=1", encode("ASPIRIN 2/x")));
        assert_eq!(req.path, "/search");
        assert_eq!(req.param("drug"), Some("ASPIRIN 2/x"));
        assert_eq!(req.param("unknown_only"), Some("1"));
    }
}
