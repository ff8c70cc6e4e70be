//! Server chaos suite: seeded misbehaving clients against a live
//! server, asserting an **exact** ledger of shed / timeout / panic
//! counters per scenario and full recovery afterwards — the serving
//! analogue of the ingest layer's fault-injection harness.
//!
//! Every scenario ends with the same oracle: `GET /healthz` answers 200
//! within 2 s and every worker thread is still alive. Scenarios share
//! one mined snapshot (built once) but each boots its own server, so
//! ledgers start from zero. A process-wide mutex serializes the tests:
//! they reason about wall-clock deadlines, and a loaded sibling test
//! would skew them (`make chaos` additionally runs single-threaded
//! under a hard timeout).

use maras_core::{Pipeline, PipelineConfig};
use maras_faers::{QuarterId, SynthConfig, Synthesizer};
use maras_serve::chaos::{self, Injector};
use maras_serve::{respond, serve_with, ServeConfig, ServeState, Snapshot};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn base_snapshot() -> &'static Snapshot {
    static SNAP: OnceLock<Snapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(91));
        let quarter = synth.generate_quarter(QuarterId::new(2016, 2));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        Snapshot::build("2016 Q2", &result, &dv, &av, None)
    })
}

fn fresh_state() -> Arc<ServeState> {
    let s = base_snapshot();
    let snap = Snapshot::from_parts(
        s.quarter.clone(),
        s.n_reports,
        s.drug_vocab().clone(),
        s.adr_vocab().clone(),
        s.clusters.clone(),
    );
    Arc::new(ServeState::new(snap, None, 64))
}

fn boot(config: ServeConfig) -> (Arc<ServeState>, maras_serve::ServerHandle, SocketAddr) {
    let state = fresh_state();
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

/// The post-scenario oracle: healthy probe within 2 s, workers alive.
fn assert_recovered(addr: SocketAddr, state: &ServeState, workers: u64) {
    assert_eq!(
        chaos::probe_healthz(addr, Duration::from_secs(2)),
        Some(200),
        "server must answer a healthy probe within 2s after the scenario"
    );
    assert_eq!(
        state.metrics.workers_alive.get(),
        workers as f64,
        "no worker may die to a scenario"
    );
}

/// The exact counter ledger a scenario is expected to leave behind.
fn assert_ledger(state: &ServeState, shed: u64, timeouts: u64, panics: u64) {
    assert_eq!(state.metrics.shed.get(), shed, "shed ledger");
    assert_eq!(state.metrics.timeouts.get(), timeouts, "timeout ledger");
    assert_eq!(state.metrics.worker_panics.get(), panics, "panic ledger");
}

#[test]
fn slowloris_is_cut_off_and_releases_the_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let io_timeout = Duration::from_millis(400);
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 2,
        queue_depth: 8,
        io_timeout: Some(io_timeout),
        drain: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    let started = Instant::now();
    let outcome = Injector::new(0x510c_1005).slowloris(
        addr,
        Duration::from_millis(25),
        Duration::from_secs(3),
    );
    assert!(outcome.server_closed, "server must cut off a byte-at-a-time client, got {outcome:?}");
    // The worker is released within the configured deadline (plus
    // generous scheduling slack), not held for the client's lifetime.
    assert!(
        started.elapsed() < io_timeout * 4,
        "slowloris held its worker for {:?}",
        started.elapsed()
    );
    wait_for("timeout counted", || state.metrics.timeouts.get() == 1);
    assert_ledger(&state, 0, 1, 0);
    assert_recovered(addr, &state, 2);
    server.shutdown();
}

#[test]
fn newline_free_header_flood_is_rejected_bounded() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 2,
        queue_depth: 8,
        io_timeout: Some(Duration::from_secs(2)),
        drain: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    // 64 KiB without a single newline: 4x the header cap. The bounded
    // reader must answer 413 after ~16 KiB instead of buffering it all.
    let outcome = Injector::new(7).header_flood(addr, 64 * 1024);
    assert!(
        outcome.status == Some(413) || outcome.server_closed,
        "flood must be rejected, got {outcome:?}"
    );
    wait_for("413 recorded", || state.metrics.total_requests() == 1);
    assert_ledger(&state, 0, 0, 0);
    assert_recovered(addr, &state, 2);
    server.shutdown();
}

#[test]
fn abort_mid_body_is_a_silent_dead_peer() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 2,
        queue_depth: 8,
        io_timeout: Some(Duration::from_secs(2)),
        drain: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    let outcome = Injector::new(13).abort_mid_body(addr);
    assert!(outcome.bytes_sent > 0, "client must have sent a partial request");
    // An aborted body is a dead peer, not an error to account: nothing
    // to respond to, nothing shed, no timeout, no panic. Probe first so
    // the ledger is read after the aborted connection was processed.
    assert_recovered(addr, &state, 2);
    wait_for("connection fully handled", || state.metrics.in_flight.get() == 0.0);
    assert_ledger(&state, 0, 0, 0);
    server.shutdown();
}

#[test]
fn connection_flood_beyond_queue_depth_sheds_exactly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 1,
        queue_depth: 4,
        io_timeout: Some(Duration::from_secs(2)),
        drain: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    // Pin the single worker on a stalled connection...
    let c0 = chaos::open_stalled(addr).expect("stalled connection");
    wait_for("worker pinned", || state.metrics.in_flight.get() == 1.0);
    // ...park 4 well-formed requests to fill the admission queue...
    let fills: Vec<TcpStream> =
        (0..4).map(|_| chaos::open_request(addr, "/healthz").expect("fill connection")).collect();
    wait_for("queue full", || state.metrics.queue_used.get() == 4.0);

    // ...then flood past the depth: every extra connection must get an
    // immediate 503 `overloaded` from the accept side, never a wait.
    for i in 0..5 {
        let t = Instant::now();
        let (status, body) = chaos::request_raw(addr, "GET", "/healthz", Duration::from_secs(2));
        assert_eq!(status, Some(503), "flood connection {i} must be shed");
        assert!(body.contains("overloaded"), "shed body must say so, got {body:?}");
        assert!(t.elapsed() < Duration::from_secs(1), "shed must be immediate, not queued");
    }
    assert_eq!(state.metrics.shed.get(), 5, "exactly the 5 beyond-depth connections shed");

    // The stalled connection times out, the worker drains the queue,
    // and every parked request is answered — flood over, nothing lost.
    wait_for("stalled connection timed out", || state.metrics.timeouts.get() == 1);
    for (i, mut stream) in fills.into_iter().enumerate() {
        let status = chaos::read_response_status(&mut stream, Duration::from_secs(3));
        assert_eq!(status, Some(200), "parked request {i} must still be served");
    }
    drop(c0);
    assert_ledger(&state, 5, 1, 0);
    assert_recovered(addr, &state, 1);

    // The ledger is visible on the wire, not just in-process.
    let (status, prom) = chaos::request_raw(addr, "GET", "/metrics", Duration::from_secs(2));
    assert_eq!(status, Some(200));
    assert!(prom.contains("maras_serve_shed_total 5"), "{prom}");
    assert!(prom.contains("maras_serve_timeouts_total 1"));
    server.shutdown();
}

#[test]
fn panicking_route_never_kills_a_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 2,
        queue_depth: 8,
        io_timeout: Some(Duration::from_secs(2)),
        drain: Duration::from_secs(2),
        ..ServeConfig::default()
    });
    state.enable_panic_route();

    // Keep the injected unwinds out of the test log; everything else
    // still reports through the previous hook.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected =
            info.payload().downcast_ref::<&str>().is_some_and(|m| m.contains("injected panic"));
        if !injected {
            prev(info);
        }
    }));
    for i in 0..3 {
        let (status, body) = chaos::request_raw(addr, "GET", "/__panic", Duration::from_secs(2));
        assert_eq!(status, Some(500), "panicking request {i} must answer 500");
        assert!(body.contains("internal_error"), "{body}");
    }
    let _ = std::panic::take_hook(); // restore the default hook

    assert_ledger(&state, 0, 0, 3);
    assert_recovered(addr, &state, 2);
    let (_, prom) = chaos::request_raw(addr, "GET", "/metrics", Duration::from_secs(2));
    assert!(prom.contains("maras_serve_worker_panics_total 3"), "{prom}");
    assert!(prom.contains("maras_serve_workers_alive 2"), "{prom}");
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_and_queued_work() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 1,
        queue_depth: 4,
        io_timeout: Some(Duration::from_secs(2)),
        drain: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    // c1: a request the worker is mid-read on when the drain starts.
    let mut c1 = chaos::open_stalled(addr).expect("connect");
    use std::io::Write;
    c1.write_all(b"GET /search?limit=1 HTTP/1.1\r\nhost: chaos\r\n").expect("partial request");
    wait_for("in-flight request", || state.metrics.in_flight.get() == 1.0);
    // c2: a well-formed request parked in the queue behind it.
    let mut c2 = chaos::open_request(addr, "/cluster/1").expect("queued request");
    wait_for("queued request", || state.metrics.queue_used.get() == 1.0);

    let shutdown = std::thread::spawn(move || server.shutdown());
    wait_for("drain begins", || state.is_draining());

    // /healthz flips to 503 {"status":"draining"} for LB deregistration.
    let req =
        maras_serve::http::Request { method: "GET".into(), path: "/healthz".into(), query: vec![] };
    let (_, status, body) = respond(&state, &req);
    assert_eq!(status, 503);
    assert!(body.contains("\"draining\""), "{body}");
    // New connections are shed at the accept side while draining.
    let (status, body) = chaos::request_raw(addr, "GET", "/healthz", Duration::from_secs(2));
    assert_eq!(status, Some(503));
    assert!(body.contains("draining"), "{body}");

    // The in-flight request completes its headers and is served...
    c1.write_all(b"\r\n").expect("finish request");
    assert_eq!(chaos::read_response_status(&mut c1, Duration::from_secs(3)), Some(200));
    // ...and so is the queued one — drain finishes admitted work.
    assert_eq!(chaos::read_response_status(&mut c2, Duration::from_secs(3)), Some(200));

    shutdown.join().expect("shutdown thread");
    // Post-drain: connections are refused outright or turned away.
    match chaos::get_status(addr, "/healthz", Duration::from_millis(500)) {
        None => {}
        Some(status) => assert_eq!(status, 503, "post-drain probe must not be served"),
    }
    assert_ledger(&state, 1, 0, 0);
    assert_eq!(state.metrics.workers_alive.get(), 0.0, "workers exit cleanly after the drain");
    assert_eq!(state.metrics.in_flight.get(), 0.0);
    assert_eq!(state.metrics.queue_used.get(), 0.0);
}

#[test]
fn drain_deadline_sheds_stragglers_with_503() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (state, server, addr) = boot(ServeConfig {
        n_threads: 1,
        queue_depth: 4,
        io_timeout: Some(Duration::from_millis(800)),
        drain: Duration::from_millis(250),
        ..ServeConfig::default()
    });

    // A stalled in-flight connection that will never complete, and a
    // well-formed request queued behind it.
    let c1 = chaos::open_stalled(addr).expect("stalled connection");
    wait_for("worker pinned", || state.metrics.in_flight.get() == 1.0);
    let mut c2 = chaos::open_request(addr, "/healthz").expect("queued request");
    wait_for("queued request", || state.metrics.queue_used.get() == 1.0);

    // The drain window (250 ms) expires while the worker is still stuck
    // on the stalled peer (800 ms deadline): the queued request must be
    // shed with 503, not served and not leaked.
    let started = Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(3), "drain must be bounded");
    assert_eq!(chaos::read_response_status(&mut c2, Duration::from_secs(1)), Some(503));
    drop(c1);

    assert_ledger(&state, 1, 1, 0); // c2 shed at the deadline, c1 timed out
    assert_eq!(state.metrics.workers_alive.get(), 0.0);
    assert_eq!(state.metrics.in_flight.get(), 0.0);
    assert_eq!(state.metrics.queue_used.get(), 0.0);
}

#[test]
fn concurrent_reloads_serialize_behind_the_try_lock() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("maras-chaos-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("chaos.snap");
    maras_serve::save(base_snapshot(), &path).expect("save snapshot");

    let snap = maras_serve::load(&path).expect("load snapshot");
    let state = Arc::new(ServeState::new(snap, Some(path), 64));
    let server = serve_with(
        Arc::clone(&state),
        "127.0.0.1:0",
        ServeConfig { n_threads: 4, ..ServeConfig::default() },
    )
    .expect("bind");
    let addr = server.addr();

    // A storm of concurrent reloads: every response is either the
    // winner's 200 or a clean 409 `reload_in_progress` — never a torn
    // swap, never a 500.
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                chaos::request_raw(addr, "POST", "/reload", Duration::from_secs(5))
            })
        })
        .collect();
    let mut oks = 0;
    for (i, c) in clients.into_iter().enumerate() {
        let (status, body) = c.join().expect("reload client");
        match status {
            Some(200) => oks += 1,
            Some(409) => assert!(body.contains("reload_in_progress"), "client {i}: {body}"),
            other => panic!("client {i}: unexpected status {other:?} body {body}"),
        }
    }
    assert!(oks >= 1, "at least one reload must win the lock");
    assert_eq!(state.metrics.reloads.get(), oks, "completed reloads == 200 responses");
    assert_ledger(&state, 0, 0, 0);
    assert_recovered(addr, &state, 4);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
