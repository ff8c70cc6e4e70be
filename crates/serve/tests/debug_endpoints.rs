//! End-to-end flight-recorder correlation: boots the server on an
//! ephemeral port and proves that each notable outcome — a slow
//! request, an I/O-deadline timeout, a panicking route, and a shed —
//! produces (a) a structured `serve.request` event visible through
//! `GET /debug/logs` and (b) a `GET /debug/requests` entry, both
//! carrying the same request id the client saw echoed in the
//! `x-maras-request-id` response header. Also covers the
//! `ServeConfig::debug_endpoints` opt-out over a real socket.
//!
//! A process-wide mutex serializes the scenarios: the log ring is
//! process-global and the timeout scenario reasons about wall-clock
//! deadlines, so a loaded sibling test would skew both.

use maras_core::{Pipeline, PipelineConfig};
use maras_faers::{QuarterId, SynthConfig, Synthesizer};
use maras_serve::chaos;
use maras_serve::{serve_with, ServeConfig, ServeState, Snapshot, REQUEST_ID_HEADER};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn base_snapshot() -> &'static Snapshot {
    static SNAP: OnceLock<Snapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(23));
        let quarter = synth.generate_quarter(QuarterId::new(2017, 1));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        Snapshot::build("2017 Q1", &result, &dv, &av, None)
    })
}

fn boot(config: ServeConfig) -> (Arc<ServeState>, maras_serve::ServerHandle, SocketAddr) {
    let s = base_snapshot();
    let snap = Snapshot::from_parts(
        s.quarter.clone(),
        s.n_reports,
        s.drug_vocab().clone(),
        s.adr_vocab().clone(),
        s.clusters.clone(),
    );
    let state = Arc::new(ServeState::new(snap, None, 64));
    let server = serve_with(Arc::clone(&state), "127.0.0.1:0", config).expect("bind");
    let addr = server.addr();
    (state, server, addr)
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Fetches a `/debug/*` endpoint and parses its JSON body.
fn debug_json(addr: SocketAddr, target: &str) -> Value {
    let (status, _, body) = chaos::request_with_id(addr, "GET", target, Duration::from_secs(2));
    assert_eq!(status, Some(200), "{target} must serve, body: {body:?}");
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("bad JSON from {target}: {e:?}\n{body}"))
}

/// The `/debug/requests` entry for `id` — the correlation oracle.
fn flight_entry(addr: SocketAddr, id: &str) -> Value {
    let dump = debug_json(addr, "/debug/requests?limit=128");
    dump["requests"]
        .as_array()
        .expect("requests array")
        .iter()
        .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
        .cloned()
        .unwrap_or_else(|| panic!("no /debug/requests entry for id {id}: {dump}"))
}

/// The `serve.request` log event for `id`, via `/debug/logs`.
fn log_event(addr: SocketAddr, id: &str) -> Value {
    let dump = debug_json(addr, "/debug/logs?limit=1000");
    dump["events"]
        .as_array()
        .expect("events array")
        .iter()
        .find(|e| {
            e.get("event").and_then(Value::as_str) == Some("serve.request")
                && e.get("request_id").and_then(Value::as_str) == Some(id)
        })
        .cloned()
        .unwrap_or_else(|| panic!("no serve.request log event for id {id}"))
}

#[test]
fn slow_request_is_correlated_end_to_end() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig::default());
    // Threshold zero: every request is "slow", so a plain healthz probe
    // becomes flight-recorder material.
    state.set_slow_threshold_us(0);

    let (status, id, _) = chaos::request_with_id(addr, "GET", "/healthz", Duration::from_secs(2));
    assert_eq!(status, Some(200));
    let id = id.expect("response must echo x-maras-request-id");
    state.set_slow_threshold_us(u64::MAX); // keep the debug fetches below out of the recorder

    let entry = flight_entry(addr, &id);
    assert_eq!(entry["outcome"].as_str(), Some("slow"));
    assert_eq!(entry["status"].as_u64(), Some(200));
    assert_eq!(entry["what"].as_str(), Some("GET /healthz"));

    let event = log_event(addr, &id);
    assert_eq!(event["level"].as_str(), Some("info"));
    assert_eq!(event["outcome"].as_str(), Some("slow"));
    assert_eq!(event["slow"].as_bool(), Some(true));
    assert!(event.get("total_us").and_then(Value::as_u64).is_some(), "{event}");

    server.shutdown();
}

#[test]
fn deadline_timeout_still_yields_an_attributable_record() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_state, server, addr) = boot(ServeConfig {
        io_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    });

    // A slowloris that sends part of a request line and stalls: the
    // deadline kills the read, but the captured prefix must still make
    // the timeout attributable.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /half-sent-request HTT").expect("send partial line");
    stream.set_read_timeout(Some(Duration::from_secs(3))).expect("read timeout");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    let head = text.split("\r\n\r\n").next().unwrap_or("").to_string();
    let status: Option<u16> =
        head.lines().next().and_then(|l| l.split_whitespace().nth(1)).and_then(|s| s.parse().ok());
    assert_eq!(status, Some(408), "deadline must answer 408 best-effort, got {head:?}");
    let id = chaos::parse_request_id(&head).expect("408 must echo x-maras-request-id");

    let entry = flight_entry(addr, &id);
    assert_eq!(entry["outcome"].as_str(), Some("timeout"));
    assert_eq!(entry["status"].as_u64(), Some(408));
    // Satellite: the request line was recorded *before* body read, so
    // the half-sent prefix survives the deadline kill.
    assert_eq!(entry["what"].as_str(), Some("GET /half-sent-request HTT"));

    let event = log_event(addr, &id);
    assert_eq!(event["level"].as_str(), Some("warn"));
    assert_eq!(event["what"].as_str(), Some("GET /half-sent-request HTT"));

    server.shutdown();
}

#[test]
fn panicking_route_is_correlated_end_to_end() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig::default());
    state.enable_panic_route();

    // Keep the injected unwind out of the test log; everything else
    // still reports through the previous hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected =
            info.payload().downcast_ref::<&str>().is_some_and(|m| m.contains("injected panic"));
        if !injected {
            prev(info);
        }
    }));
    let (status, id, _) = chaos::request_with_id(addr, "GET", "/__panic", Duration::from_secs(2));
    let _ = std::panic::take_hook();
    assert_eq!(status, Some(500));
    let id = id.expect("panic 500 must echo x-maras-request-id");

    let entry = flight_entry(addr, &id);
    assert_eq!(entry["outcome"].as_str(), Some("panic"));
    assert_eq!(entry["status"].as_u64(), Some(500));
    assert_eq!(entry["what"].as_str(), Some("GET /__panic"));

    let event = log_event(addr, &id);
    assert_eq!(event["level"].as_str(), Some("error"));
    assert_eq!(event["outcome"].as_str(), Some("panic"));

    server.shutdown();
}

#[test]
fn shed_connection_is_correlated_end_to_end() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 1,
        queue_depth: 1,
        io_timeout: Some(Duration::from_secs(2)),
        drain: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    // Pin the single worker, fill the one queue slot, then overflow:
    // the third connection is shed with 503 from the accept side.
    let c0 = chaos::open_stalled(addr).expect("stalled connection");
    wait_for("worker pinned", || state.metrics.in_flight.get() == 1.0);
    let mut c1 = chaos::open_request(addr, "/healthz").expect("queued request");
    wait_for("queue full", || state.metrics.queue_used.get() == 1.0);

    let (status, id, body) =
        chaos::request_with_id(addr, "GET", "/healthz", Duration::from_secs(2));
    assert_eq!(status, Some(503), "beyond-depth connection must be shed");
    assert!(body.contains("overloaded"), "{body}");
    let id = id.expect("shed 503 must echo x-maras-request-id");

    // Release the worker so the debug endpoints can answer.
    drop(c0);
    assert_eq!(chaos::read_response_status(&mut c1, Duration::from_secs(3)), Some(200));
    wait_for("queue drained", || {
        state.metrics.queue_used.get() == 0.0 && state.metrics.in_flight.get() == 0.0
    });

    let entry = flight_entry(addr, &id);
    assert_eq!(entry["outcome"].as_str(), Some("shed"));
    assert_eq!(entry["status"].as_u64(), Some(503));
    assert_eq!(entry["what"].as_str(), Some("<shed: overloaded>"));

    let event = log_event(addr, &id);
    assert_eq!(event["level"].as_str(), Some("warn"));
    assert_eq!(event["reason"].as_str(), Some("overloaded"));

    server.shutdown();
}

#[test]
fn debug_opt_out_hides_the_suite_on_the_wire() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_state, server, addr) =
        boot(ServeConfig { debug_endpoints: false, ..ServeConfig::default() });

    for target in ["/debug/logs", "/debug/requests", "/debug/runtime"] {
        let (status, id, body) =
            chaos::request_with_id(addr, "GET", target, Duration::from_secs(2));
        assert_eq!(status, Some(404), "{target} must 404 when the suite is disabled");
        assert!(body.contains("not_found"), "{body}");
        // Correlation stays on even where the suite is off: the 404
        // still echoes the request id.
        assert!(id.is_some(), "404 must still carry {REQUEST_ID_HEADER}");
    }
    // Known-but-disabled paths must not leak through the 405 arm either.
    let (status, _, _) =
        chaos::request_with_id(addr, "POST", "/debug/logs", Duration::from_secs(2));
    assert_eq!(status, Some(404), "wrong method on a hidden path is 404, not 405");

    server.shutdown();
}
