//! Cross-layer observability tests: span nesting stays deterministic
//! under the sharded ingest reader and the parallel miner, every pipeline
//! stage shows up in the span stream, the Chrome trace export is
//! well-formed JSON with real durations, and serving requests records no
//! spans (a long-running server has no one to drain them; its per-request
//! timings live in its metrics and flight recorder).
//!
//! The span collector is process-global, so every test here drains it
//! under one shared lock and leaves tracing enabled on exit.

use maras::core::{Pipeline, PipelineConfig};
use maras::faers::ascii::{read_quarter_dir_with, write_quarter_dir, IngestOptions};
use maras::faers::{QuarterId, SynthConfig, Synthesizer, Vocabulary};
use maras::obs::{self, ObsConfig, SpanTree};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct Fixture {
    dir: PathBuf,
    id: QuarterId,
    dv: Vocabulary,
    av: Vocabulary,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Writes one synthetic quarter to a temp dir so the sharded ASCII
/// reader (not just the in-memory pipeline) is under test.
fn fixture(tag: &str, seed: u64) -> Fixture {
    let dir = std::env::temp_dir().join(format!("maras_obs_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let id = QuarterId::new(2014, 1);
    let mut synth = Synthesizer::new(SynthConfig { n_reports: 400, seed, ..Default::default() });
    let quarter = synth.generate_quarter(id);
    write_quarter_dir(&dir, &quarter).expect("write quarter");
    Fixture { dir, id, dv: synth.drug_vocab().clone(), av: synth.adr_vocab().clone() }
}

/// Ingest from disk + full pipeline at `threads`, returning the drained
/// span records of exactly that run.
fn traced_run(
    dir: &Path,
    id: QuarterId,
    threads: usize,
    dv: &Vocabulary,
    av: &Vocabulary,
) -> Vec<obs::SpanRecord> {
    obs::init(&ObsConfig::enabled());
    obs::take_spans(); // start from an empty collector
    let opts = IngestOptions { n_threads: threads, ..Default::default() };
    let ingested = read_quarter_dir_with(dir, id, &opts).expect("ingest");
    let result = Pipeline::new(
        PipelineConfig::default().with_min_support(4).with_n_threads(threads),
    )
    .run(ingested.data, dv, av);
    assert!(!result.ranked.is_empty(), "fixture must mine clusters");
    obs::take_spans()
}

#[test]
fn span_nesting_is_deterministic_per_thread_count() {
    let _g = lock();
    let fx = fixture("determinism", 21);
    for threads in [1usize, 2, 4] {
        let first = SpanTree::build(&traced_run(&fx.dir, fx.id, threads, &fx.dv, &fx.av));
        let second = SpanTree::build(&traced_run(&fx.dir, fx.id, threads, &fx.dv, &fx.av));
        assert!(first.orphans.is_empty(), "{threads} threads: orphan spans {:?}", first.orphans);
        assert_eq!(
            first.paths_and_counts(),
            second.paths_and_counts(),
            "{threads} threads: span structure changed between identical runs"
        );
    }
}

#[test]
fn every_pipeline_stage_appears_in_the_span_stream() {
    let _g = lock();
    let fx = fixture("stages", 22);
    let spans = traced_run(&fx.dir, fx.id, 2, &fx.dv, &fx.av);
    let names: std::collections::HashSet<&str> = spans.iter().map(|s| s.name()).collect();
    for required in
        ["ingest", "io", "parse", "merge", "clean", "encode", "mine", "rules", "closed", "mcac"]
    {
        assert!(names.contains(required), "missing span {required:?} in {names:?}");
    }
    // Worker spans nest under the phase that spawned them, cross-thread.
    assert!(
        spans.iter().any(|s| s.path.ends_with("parse/DRUG")),
        "parse jobs must nest under parse"
    );
    assert!(
        spans.iter().any(|s| s.name() == "shard" || s.name() == "mine_seq"),
        "mining must record shard or sequential spans"
    );
}

#[test]
fn chrome_trace_export_is_valid_json_with_durations() {
    let _g = lock();
    let fx = fixture("trace", 23);
    let spans = traced_run(&fx.dir, fx.id, 2, &fx.dv, &fx.av);
    let json = obs::chrome_trace(&spans);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace must parse");
    assert_eq!(parsed["displayTimeUnit"], "ms");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for ev in events {
        assert_eq!(ev["ph"], "X");
        assert_eq!(ev["cat"], "maras");
        assert!(ev["name"].as_str().is_some());
        assert!(ev["dur"].as_f64().unwrap() >= 0.0);
    }
    assert!(
        events.iter().any(|e| e["dur"].as_f64().unwrap() > 0.0),
        "a real run must have non-zero durations"
    );
}

#[test]
fn disabling_tracing_silences_the_pipeline() {
    let _g = lock();
    let fx = fixture("disabled", 24);
    obs::init(&ObsConfig::disabled());
    obs::take_spans();
    let opts = IngestOptions { n_threads: 2, ..Default::default() };
    let ingested = read_quarter_dir_with(&fx.dir, fx.id, &opts).expect("ingest");
    Pipeline::new(PipelineConfig::default().with_min_support(4).with_n_threads(2)).run(
        ingested.data,
        &fx.dv,
        &fx.av,
    );
    let spans = obs::take_spans();
    obs::init(&ObsConfig::enabled());
    assert!(spans.is_empty(), "disabled tracing must record nothing, got {}", spans.len());
}

#[test]
fn serving_requests_records_no_spans() {
    use maras::serve::{serve, ServeState, Snapshot};
    use std::io::{Read, Write};
    let _g = lock();
    obs::init(&ObsConfig::enabled());
    let mut synth = Synthesizer::new(SynthConfig::test_scale(25));
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let (dv, av) = (synth.drug_vocab().clone(), synth.adr_vocab().clone());
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    let snapshot = Snapshot::build("2014 Q1", &result, &dv, &av, None);
    let drug = snapshot.clusters.first().expect("the fixture mines clusters").drugs[0].clone();
    let server = serve(std::sync::Arc::new(ServeState::new(snapshot, None, 64)), "127.0.0.1:0", 2)
        .expect("bind ephemeral port");
    obs::take_spans();
    // A cache miss and then a hit on each cached endpoint, and one route
    // that bypasses the cache.
    let search = format!("/search?drug={drug}");
    for target in ["/cluster/1", "/cluster/1", &search, &search, "/healthz", "/nope"] {
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        let request =
            format!("GET {target} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n");
        stream.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 "), "{target}: {response:?}");
    }
    server.shutdown();
    let spans = obs::take_spans();
    let recorded: Vec<&str> = spans
        .iter()
        .filter(|s| s.path.starts_with("request") || matches!(s.name(), "cache" | "render"))
        .map(|s| &*s.path)
        .collect();
    assert!(recorded.is_empty(), "serving recorded spans: {recorded:?}");
}
