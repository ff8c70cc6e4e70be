//! Serving-layer benchmark: replays a fixed query workload against a
//! synthetic snapshot through the production router (cache, indexes,
//! metrics — everything but the socket) and writes `BENCH_serve.json`
//! with latency percentiles, throughput, and the cache hit rate.
//!
//! The workload mixes the endpoint shapes a §4.1 interactive session
//! produces: drug searches (hot keys repeated, so the cache sees a
//! realistic mix), severity filters, autocomplete keystrokes, and
//! cluster drill-downs. Scale via `MARAS_SCALE` as usual.

use maras_bench::{alternating_medians, generate_quarter, percentile, run_pipeline};
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

/// Times one pass of the script against `state`, pushing each request's
/// latency in ns: cached requests finish in well under a microsecond, so
/// µs resolution would round them to 0.
fn pass(state: &ServeState, script: &[Request], latencies_ns: &mut Vec<u64>) {
    for req in script {
        let t = Instant::now();
        let (_, status, body) = respond(state, req);
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        assert!(status == 200 || status == 404, "unexpected {status} for {req:?}");
        assert!(!body.is_empty());
    }
}

/// Replays the script `PASSES` times against `state`, returning
/// `(sorted latencies ns, wall seconds)`.
fn run(state: &ServeState, script: &[Request]) -> (Vec<u64>, f64) {
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(script.len() * PASSES);
    let started = Instant::now();
    for _ in 0..PASSES {
        pass(state, script, &mut latencies_ns);
    }
    let wall = started.elapsed().as_secs_f64();
    latencies_ns.sort_unstable();
    (latencies_ns, wall)
}

fn summarize(label: &str, latencies_ns: &[u64], wall: f64) -> Value {
    let n = latencies_ns.len();
    let throughput = n as f64 / wall;
    let (p50, p95, p99) = (
        percentile(latencies_ns, 0.50),
        percentile(latencies_ns, 0.95),
        percentile(latencies_ns, 0.99),
    );
    println!(
        "{label}: {n} requests in {wall:.4}s -> {throughput:.0} req/s; \
         latency_ns p50 {p50}, p95 {p95}, p99 {p99}, max {}",
        latencies_ns[n - 1]
    );
    Value::obj([
        ("requests", Value::from(n)),
        ("wall_seconds", Value::from(wall)),
        ("throughput_rps", Value::from(throughput)),
        (
            "latency_ns",
            Value::obj([
                ("p50", Value::from(p50)),
                ("p95", Value::from(p95)),
                ("p99", Value::from(p99)),
                ("max", Value::from(latencies_ns[n - 1])),
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

    let hits = hot_state.metrics.cache_hits.get();
    let hit_rate = hits as f64 / (hits + hot_state.metrics.cache_misses.get()).max(1) as f64;
    println!("cache: {hits} hits, hit rate {:.1}%", hit_rate * 100.0);

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
/// event to the ring) against recording disabled, alternating the two
/// pass by pass, and enforces the observability budget: the recording
/// median must stay within 5% of the disabled median (plus a 20 µs floor
/// so cache-hit-speed requests don't trip on scheduler noise).
fn measure_log_overhead(state: &ServeState, script: &[Request]) -> Value {
    // Start from an empty ring, so no recording pass pays for evictions.
    maras_obs::clear_log_ring();
    let (on, off) = alternating_medians(PASSES, |recording, samples| {
        maras_obs::set_recording(recording);
        let seen = maras_obs::log_events_seen();
        pass(state, script, samples);
        assert_eq!(maras_obs::log_events_seen() > seen, recording, "recording mode not honored");
    });
    maras_obs::set_recording(true);
    let overhead_pct = (on as f64 - off as f64) / (off as f64).max(1.0) * 100.0;
    let budget = (off as f64 * 0.05).max(20_000.0);
    println!(
        "log overhead, alternated passes: recording on median {on} ns, off median {off} ns \
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
