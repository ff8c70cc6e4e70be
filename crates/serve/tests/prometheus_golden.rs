//! Golden-file test for the Prometheus text exposition: a fixed sequence
//! of recorded requests must render byte-identically to the checked-in
//! `tests/golden/metrics.prom`, plus structural checks (header-once
//! semantics, label escaping, bucket monotonicity) that hold for any
//! counter state.
//!
//! Regenerate the golden file after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p maras-serve --test prometheus_golden`.

use maras_obs::Registry;
use maras_serve::{Endpoint, ServeMetrics};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.prom")
}

/// The fixed counter state every golden render uses, rendered the way a
/// `/metrics` scrape renders the server's own registry.
fn fixed_exposition() -> String {
    let reg = Registry::new();
    let m = ServeMetrics::register(&reg);
    m.record(Endpoint::Healthz, 40, false);
    m.record(Endpoint::Search, 120, false);
    m.record(Endpoint::Search, 800, false);
    m.record(Endpoint::Search, 2_000_000, false);
    m.record(Endpoint::Cluster, 90, true);
    m.record(Endpoint::Other, 10, true);
    // Evidence drill-down endpoints: one cold page fetch, one point lookup.
    m.record(Endpoint::Reports, 350, false);
    m.record(Endpoint::Report, 60, false);
    // One flight-recorder introspection hit.
    m.record(Endpoint::Debug, 75, false);
    m.cache_hits.inc();
    m.cache_misses.inc();
    m.cache_misses.inc();
    m.reloads.inc();
    m.slow_requests.inc();
    // Robustness ledger: shed twice, one I/O timeout, one recovered
    // panic, and a live pool of 3 workers with one queued + one
    // in-flight request at scrape time.
    m.shed.inc();
    m.shed.inc();
    m.timeouts.inc();
    m.worker_panics.inc();
    for _ in 0..3 {
        m.workers_alive.add(1.0);
    }
    m.queue_used.add(1.0);
    m.queue_used.add(1.0);
    m.queue_used.add(-1.0);
    m.in_flight.add(1.0);
    m.refresh(5);
    reg.render_prometheus()
}

#[test]
fn exposition_matches_golden_file() {
    let rendered = fixed_exposition();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "exposition drifted from {path:?}");
}

#[test]
fn exposition_is_structurally_valid() {
    let text = fixed_exposition();
    let mut seen_types = std::collections::HashSet::new();
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines inside the exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            assert!(seen_types.insert(name.to_string()), "duplicate # TYPE for {name}");
        } else if !line.starts_with('#') {
            // Every sample line is `name{labels} value` or `name value`.
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("non-numeric value in {line}"));
        }
    }
    // Cumulative buckets never decrease within one series, and each
    // histogram's last bucket is le="+Inf" with count == _count.
    for endpoint in [
        "healthz",
        "metrics",
        "search",
        "autocomplete",
        "cluster",
        "reload",
        "other",
        "reports",
        "report",
        "debug",
    ] {
        let prefix = format!("maras_request_latency_us_bucket{{endpoint=\"{endpoint}\",le=");
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty(), "missing histogram for {endpoint}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{endpoint} buckets not monotone");
        let inf_line =
            format!("maras_request_latency_us_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}}");
        assert!(text.lines().any(|l| l.starts_with(&inf_line)), "missing +Inf bucket");
        let count_line = format!("maras_request_latency_us_count{{endpoint=\"{endpoint}\"}}");
        let total: u64 = text
            .lines()
            .find(|l| l.starts_with(&count_line))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .expect("histogram _count");
        assert_eq!(*counts.last().unwrap(), total, "{endpoint}: +Inf bucket != _count");
    }
}

fn evidence_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/evidence_metrics.prom")
}

/// The fixed evidence-reader counter state the evidence golden renders:
/// two cache hits, one miss (one disk read + decode), one resident block,
/// and one cover intersection.
fn fixed_evidence_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    let m = maras_evidence::EvidenceMetrics::register(&reg);
    m.cache_hits.add(2);
    m.cache_misses.inc();
    m.cache_entries.set(1.0);
    m.block_read_us.observe(180.0);
    m.block_decode_us.observe(45.0);
    m.intersections.inc();
    reg
}

#[test]
fn evidence_series_match_golden_file() {
    let rendered = fixed_evidence_registry().render_prometheus();
    let path = evidence_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "evidence exposition drifted from {path:?}");
    // Every series carries the subsystem prefix; nothing anonymous leaks
    // into the shared registry from the evidence layer.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_evidence_"), "unprefixed series: {line}");
    }
}

fn signals_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/signals_metrics.prom")
}

/// The fixed score-engine counter state the signals golden renders: two
/// batches (one 4-threaded, one single-threaded) totalling 150 rules.
fn fixed_signals_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    let m = maras_signals::SignalsMetrics::register(&reg);
    m.rules_scored.add(120);
    m.batches.inc();
    m.batch_us.observe(1800.0);
    m.threads.set(4.0);
    m.rules_scored.add(30);
    m.batches.inc();
    m.batch_us.observe(700.0);
    m.threads.set(1.0);
    reg
}

#[test]
fn signals_series_match_golden_file() {
    let rendered = fixed_signals_registry().render_prometheus();
    let path = signals_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "signals exposition drifted from {path:?}");
    // Every series carries the subsystem prefix; the score engine adds to
    // the shared registry append-only.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_signals_"), "unprefixed series: {line}");
    }
    for series in [
        "maras_signals_rules_scored_total",
        "maras_signals_batches_total",
        "maras_signals_batch_us",
        "maras_signals_threads",
    ] {
        assert!(golden.contains(series), "missing series {series}");
    }
}

fn tidset_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tidset_metrics.prom")
}

/// The fixed set-algebra counter state the tidset golden renders: one
/// index build (3 array + 1 bitmap container, 9 KiB resident) followed by
/// a mixed kernel workload.
fn fixed_tidset_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    let m = maras_tidset::TidsetMetrics::register(&reg);
    m.array_containers.add(3);
    m.bitmap_containers.inc();
    m.built_bytes.add(9216);
    m.intersect_calls.add(4);
    m.intersect_count_calls.add(12);
    m.union_calls.add(2);
    m.intersect_k_calls.add(5);
    reg
}

#[test]
fn tidset_series_match_golden_file() {
    let rendered = fixed_tidset_registry().render_prometheus();
    let path = tidset_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "tidset exposition drifted from {path:?}");
    // Every series carries the subsystem prefix; the kernels add to the
    // shared registry append-only.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_tidset_"), "unprefixed series: {line}");
    }
    for series in [
        "maras_tidset_intersect_total",
        "maras_tidset_intersect_count_total",
        "maras_tidset_union_total",
        "maras_tidset_intersect_k_total",
        "maras_tidset_array_containers_total",
        "maras_tidset_bitmap_containers_total",
        "maras_tidset_built_bytes_total",
    ] {
        assert!(golden.contains(series), "missing series {series}");
    }
}

fn obs_dropped_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_dropped_metrics.prom")
}

/// The fixed flight-recorder drop ledger the obs golden renders: seven
/// log events evicted from the ring, two spans discarded at capacity.
/// Production increments the same series through the global registry;
/// a fresh one keeps the golden deterministic.
fn fixed_obs_dropped_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    reg.counter_with(maras_obs::DROPPED_SERIES, maras_obs::DROPPED_HELP, &[("kind", "logs")])
        .add(7);
    reg.counter_with(maras_obs::DROPPED_SERIES, maras_obs::DROPPED_HELP, &[("kind", "spans")])
        .add(2);
    reg
}

#[test]
fn obs_dropped_series_match_golden_file() {
    let rendered = fixed_obs_dropped_registry().render_prometheus();
    let path = obs_dropped_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "obs-dropped exposition drifted from {path:?}");
    // One # TYPE/# HELP block, both kinds present, subsystem prefix on
    // every sample: the drop ledger is append-only in the shared registry.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_obs_dropped_total{"), "unprefixed series: {line}");
    }
    for kind in ["logs", "spans"] {
        assert!(
            golden.contains(&format!("maras_obs_dropped_total{{kind=\"{kind}\"}}")),
            "missing kind={kind}"
        );
    }
}

#[test]
fn label_values_are_escaped_in_registry_series() {
    // The global registry flows into the same exposition on /metrics;
    // escaping must survive the round trip for hostile label values.
    let reg = maras_obs::Registry::new();
    reg.counter_with("golden_escapes_total", "tricky \\ help\nline", &[("q", "a\"b\\c\nd")]).add(1);
    let text = reg.render_prometheus();
    assert!(text.contains("# HELP golden_escapes_total tricky \\\\ help\\nline\n"));
    assert!(text.contains("golden_escapes_total{q=\"a\\\"b\\\\c\\nd\"} 1\n"));
}
