//! Serving-layer benchmark: replays a fixed query workload against a
//! synthetic snapshot through the production router (cache, indexes,
//! metrics — everything but the socket) and writes `BENCH_serve.json`
//! with latency percentiles, throughput, and the cache hit rate.
//!
//! The workload mixes the endpoint shapes a §4.1 interactive session
//! produces: drug searches (hot keys repeated, so the cache sees a
//! realistic mix), severity filters, autocomplete keystrokes, and
//! cluster drill-downs. Scale via `MARAS_SCALE` as usual.

use maras_bench::{generate_quarter, percentile, run_pipeline};
use maras_core::PipelineConfig;
use maras_serve::http::Request;
use maras_serve::{respond, ServeState, Snapshot};
use serde_json::Value;
use std::time::Instant;

/// Repetitions of the whole workload script (hot keys repeat across
/// passes, which is what exercises the cache).
const PASSES: usize = 40;

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

/// The fixed workload: one interactive session's worth of requests,
/// parameterized by terms that actually occur in the snapshot.
fn workload(snap: &Snapshot) -> Vec<Request> {
    let mut reqs = Vec::new();
    let top = &snap.clusters[0];
    let drug = top.drugs[0].as_str();
    let adr = top.adrs[0].as_str();
    // Autocomplete: a user typing the drug name one keystroke at a time.
    for end in 1..=drug.len().min(6) {
        reqs.push(get("/autocomplete", &[("kind", "drug"), ("prefix", &drug[..end])]));
    }
    // Searches, from broad to narrow.
    reqs.push(get("/search", &[]));
    reqs.push(get("/search", &[("drug", drug)]));
    reqs.push(get("/search", &[("drug", drug), ("min_severity", "3")]));
    reqs.push(get("/search", &[("adr", adr)]));
    reqs.push(get("/search", &[("n_drugs", "2"), ("min_severity", "4")]));
    reqs.push(get("/search", &[("drug", drug), ("unknown_only", "true")]));
    // Drill into the first few hits.
    for rank in 1..=8usize.min(snap.len()) {
        reqs.push(get(&format!("/cluster/{rank}"), &[]));
    }
    reqs.push(get("/healthz", &[]));
    reqs
}

/// Replays the script `PASSES` times against `state`, returning
/// `(sorted latencies µs, wall seconds)`.
fn run(state: &ServeState, script: &[Request]) -> (Vec<u64>, f64) {
    let mut latencies_us: Vec<u64> = Vec::with_capacity(script.len() * PASSES);
    let started = Instant::now();
    for _ in 0..PASSES {
        for req in script {
            let t = Instant::now();
            let (_, status, body) = respond(state, req);
            latencies_us.push(t.elapsed().as_micros() as u64);
            assert!(status == 200 || status == 404, "unexpected {status} for {req:?}");
            assert!(!body.is_empty());
        }
    }
    let wall = started.elapsed().as_secs_f64();
    latencies_us.sort_unstable();
    (latencies_us, wall)
}

fn summarize(label: &str, latencies_us: &[u64], wall: f64) -> Value {
    let n = latencies_us.len();
    let throughput = n as f64 / wall;
    let (p50, p95, p99) = (
        percentile(latencies_us, 0.50),
        percentile(latencies_us, 0.95),
        percentile(latencies_us, 0.99),
    );
    println!(
        "{label}: {n} requests in {wall:.4}s -> {throughput:.0} req/s; \
         latency_us p50 {p50}, p95 {p95}, p99 {p99}, max {}",
        latencies_us[n - 1]
    );
    Value::obj([
        ("requests", Value::from(n)),
        ("wall_seconds", Value::from(wall)),
        ("throughput_rps", Value::from(throughput)),
        (
            "latency_us",
            Value::obj([
                ("p50", Value::from(p50)),
                ("p95", Value::from(p95)),
                ("p99", Value::from(p99)),
                ("max", Value::from(latencies_us[n - 1])),
            ]),
        ),
    ])
}

fn main() {
    let corpus = generate_quarter(1);
    let result = run_pipeline(&corpus, 0, PipelineConfig::default());
    let snap = Snapshot::build("2014 Q1", &result, &corpus.drug_vocab, &corpus.adr_vocab, None);
    assert!(!snap.is_empty(), "benchmark snapshot mined no clusters");
    let n_clusters = snap.len();

    // Cold: cache disabled, so every request pays index intersection +
    // JSON rendering. Hot: production cache capacity, steady state.
    let cold_state = ServeState::new(
        Snapshot::build("2014 Q1", &result, &corpus.drug_vocab, &corpus.adr_vocab, None),
        None,
        0,
    );
    let hot_state = ServeState::new(snap, None, 1024);
    let script = workload(&hot_state.snapshot());
    println!(
        "bench_serve: {n_clusters} clusters, {} requests/pass x {PASSES} passes",
        script.len()
    );

    let (cold_lat, cold_wall) = run(&cold_state, &script);
    let cold = summarize("cold (uncached)", &cold_lat, cold_wall);

    // Warm pass populates the cache before the measured hot run.
    for req in &script {
        respond(&hot_state, req);
    }
    let (hot_lat, hot_wall) = run(&hot_state, &script);
    let hot = summarize("hot (cached)", &hot_lat, hot_wall);

    let log_overhead = measure_log_overhead(&hot_state, &script);

    let metrics = hot_state.metrics.to_json();
    let hit_rate = metrics["cache"]["hit_rate"].as_f64().unwrap_or(0.0);
    println!("cache: {} hits, hit rate {:.1}%", hot_state.metrics.cache_hits(), hit_rate * 100.0);

    let json = Value::obj([
        ("clusters", Value::from(n_clusters)),
        ("passes", Value::from(PASSES)),
        ("cold", cold),
        ("hot", hot),
        ("cache_hit_rate", Value::from(hit_rate)),
        ("log_overhead", log_overhead),
    ]);
    let out = "BENCH_serve.json";
    std::fs::write(out, serde_json::to_string_pretty(&json).expect("render json"))
        .expect("write BENCH_serve.json");
    println!("wrote {out}");
}

/// Times the cached workload with flight-recorder logging in its
/// always-on default (every routed request appends a `serve.route`
/// event to the ring) against recording disabled, and enforces the
/// observability budget: recording p50 must stay within 5% of the
/// disabled p50 (plus a 20 µs floor so cache-hit-speed requests don't
/// trip on scheduler noise).
fn measure_log_overhead(state: &ServeState, script: &[Request]) -> Value {
    let mut p50_ns = [0u64; 2];
    for (slot, recording) in [(0usize, true), (1, false)] {
        maras_obs::set_recording(recording);
        maras_obs::clear_log_ring();
        // Hot cached requests finish in well under a microsecond, so
        // this loop times in nanoseconds — µs resolution would round
        // the logging cost away entirely.
        let mut lat_ns: Vec<u64> = Vec::with_capacity(script.len() * PASSES);
        for _ in 0..PASSES {
            for req in script {
                let t = Instant::now();
                let (_, status, _) = respond(state, req);
                lat_ns.push(t.elapsed().as_nanos() as u64);
                assert!(status == 200 || status == 404, "unexpected {status} for {req:?}");
            }
        }
        let recorded = maras_obs::log_tail(usize::MAX, maras_obs::Level::Trace).len();
        assert_eq!(recorded > 0, recording, "recording mode not honored");
        lat_ns.sort_unstable();
        p50_ns[slot] = percentile(&lat_ns, 0.50);
    }
    maras_obs::set_recording(true);
    let [on, off] = p50_ns;
    let overhead_pct = (on as f64 - off as f64) / (off as f64).max(1.0) * 100.0;
    let budget = (off as f64 * 0.05).max(20_000.0);
    println!(
        "log overhead: recording on p50 {on} ns, off p50 {off} ns \
         ({overhead_pct:+.1}%; budget 5% or 20 us)"
    );
    assert!(
        on as f64 <= off as f64 + budget,
        "always-on logging blew the budget: on {on} ns vs off {off} ns"
    );
    Value::obj([
        ("p50_recording_on_ns", Value::from(on)),
        ("p50_recording_off_ns", Value::from(off)),
        ("overhead_pct", Value::from(overhead_pct)),
    ])
}
