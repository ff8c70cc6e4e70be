//! End-to-end server test: boots the HTTP server on an ephemeral port,
//! exercises every endpoint over real sockets, performs a hot snapshot
//! swap mid-test, verifies a corrupted snapshot is refused while the old
//! one keeps serving, and pins indexed results byte-identical to the
//! legacy scan path.

use maras_core::{KnowledgeBase, Pipeline, PipelineConfig, RuleQuery};
use maras_faers::{QuarterId, SynthConfig, Synthesizer, Vocabulary};
use maras_serve::{serve, ServeState, Snapshot};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

struct Fixture {
    snapshot: Snapshot,
    result: maras_core::AnalysisResult,
    dv: Vocabulary,
    av: Vocabulary,
    kb: KnowledgeBase,
}

fn fixture(seed: u64, quarter: QuarterId, label: &str) -> Fixture {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(seed));
    let data = synth.generate_quarter(quarter);
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let result = Pipeline::new(PipelineConfig::default()).run(data, &dv, &av);
    let kb = KnowledgeBase::literature_validated();
    let snapshot = Snapshot::build(label, &result, &dv, &av, Some(&kb));
    Fixture { snapshot, result, dv, av, kb }
}

/// Minimal HTTP/1.1 client: one request, parse status + raw headers + body.
fn http_raw(addr: SocketAddr, method: &str, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!("{method} {target} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head.to_string(), body.to_string())
}

/// Minimal HTTP/1.1 client: one request, parse status + JSON body.
fn http(addr: SocketAddr, method: &str, target: &str) -> (u16, Value) {
    let (status, _, body) = http_raw(addr, method, target);
    let json = if body.is_empty() {
        Value::Null
    } else {
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e:?}"))
    };
    (status, json)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maras-serve-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_server_lifecycle() {
    let dir = temp_dir("lifecycle");
    let snap_path = dir.join("quarter.snap");

    let fx = fixture(41, QuarterId::new(2014, 1), "2014 Q1");
    maras_serve::save(&fx.snapshot, &snap_path).expect("save snapshot");
    let initial = maras_serve::load(&snap_path).expect("load snapshot");
    let n_clusters = initial.len();
    assert!(n_clusters > 0, "fixture must mine clusters");

    let state = Arc::new(ServeState::new(initial, Some(snap_path.clone()), 256));
    let server = serve(Arc::clone(&state), "127.0.0.1:0", 4).expect("bind ephemeral port");
    let addr = server.addr();

    // -- /healthz ---------------------------------------------------------
    let (status, health) = http(addr, "GET", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health["status"], "ok");
    assert_eq!(health["quarter"], "2014 Q1");
    assert_eq!(health["clusters"], n_clusters);

    // -- /search: indexed results byte-identical to the legacy scan -------
    let top_drug = fx.snapshot.clusters[0].drugs[0].clone();
    let query = RuleQuery::new().with_drug(&top_drug).with_min_severity(3);
    let scan = query.apply(&fx.result, &fx.dv, &fx.av, Some(&fx.kb));
    let target = format!("/search?drug={}&min_severity=3&limit=1000", top_drug.replace(' ', "+"));
    let (status, found) = http(addr, "GET", &target);
    assert_eq!(status, 200);
    assert_eq!(found["total"], scan.len());
    let hits = found["hits"].as_array().expect("hits array");
    let api_ranks: Vec<usize> =
        hits.iter().map(|h| h["rank"].as_u64().unwrap() as usize - 1).collect();
    assert_eq!(api_ranks, scan, "indexed path must equal the scan path");
    for (hit, &rank) in hits.iter().zip(&scan) {
        let entry = &fx.snapshot.clusters[rank];
        assert_eq!(hit["score"].as_f64().unwrap(), entry.score);
        assert_eq!(hit["support"].as_u64().unwrap(), entry.stats().support_ab);
    }

    // Misspelled, lowercased drug goes through the same vocabulary
    // canonicalization as the scan path — parity must hold there too.
    let misspelled = format!("{}x", top_drug.to_ascii_lowercase());
    let scan_fuzzy =
        RuleQuery::new().with_drug(&misspelled).apply(&fx.result, &fx.dv, &fx.av, Some(&fx.kb));
    let (status, fuzzy) =
        http(addr, "GET", &format!("/search?drug={}&limit=1000", misspelled.replace(' ', "+")));
    assert_eq!(status, 200);
    assert_eq!(fuzzy["total"], scan_fuzzy.len(), "fuzzy spelling must canonicalize like the scan");
    assert!(!scan_fuzzy.is_empty(), "one-letter typo must still resolve to {top_drug}");

    // -- /autocomplete ----------------------------------------------------
    let prefix = &top_drug[..3.min(top_drug.len())];
    let (status, ac) = http(addr, "GET", &format!("/autocomplete?kind=drug&prefix={prefix}"));
    assert_eq!(status, 200);
    let terms: Vec<&str> =
        ac["completions"].as_array().unwrap().iter().map(|c| c["term"].as_str().unwrap()).collect();
    assert!(terms.contains(&top_drug.as_str()), "{terms:?} must contain {top_drug}");
    let (status, _) = http(addr, "GET", "/autocomplete?kind=adr&prefix=a");
    assert_eq!(status, 200);

    // -- /cluster/<rank> --------------------------------------------------
    let (status, detail) = http(addr, "GET", "/cluster/1");
    assert_eq!(status, 200);
    assert_eq!(detail["rank"], 1u64);
    assert!(detail["context"].as_array().is_some());
    assert_eq!(
        detail["case_ids"].as_array().unwrap().len() as u64,
        detail["support"].as_u64().unwrap()
    );
    let (status, _) = http(addr, "GET", &format!("/cluster/{}", n_clusters + 1));
    assert_eq!(status, 404);

    // -- score block + disproportionality filters and sorts ---------------
    let entry0 = &fx.snapshot.clusters[0];
    let scores = &detail["scores"];
    assert_eq!(scores["prr"]["estimate"].as_f64().unwrap(), entry0.scores.prr.estimate);
    assert_eq!(scores["ror"]["lower"].as_f64().unwrap(), entry0.scores.ror.lower);
    assert_eq!(scores["ebgm"]["ebgm"].as_f64().unwrap(), entry0.scores.ebgm.ebgm);
    assert_eq!(scores["table"]["a"].as_u64().unwrap(), entry0.scores.table.a);
    assert_eq!(scores["exclusiveness"].as_f64().unwrap(), entry0.score);

    // min_prr / min_ror answer identically to the legacy scan.
    let median_prr = fx.snapshot.clusters[n_clusters / 2].scores.prr.estimate;
    let filter_query = RuleQuery::new().with_min_prr(median_prr).with_min_ror(1.0);
    let scan_filtered = filter_query.apply(&fx.result, &fx.dv, &fx.av, Some(&fx.kb));
    let (status, filtered) =
        http(addr, "GET", &format!("/search?min_prr={median_prr}&min_ror=1&limit=1000"));
    assert_eq!(status, 200);
    let filtered_ranks: Vec<usize> = filtered["hits"]
        .as_array()
        .unwrap()
        .iter()
        .map(|h| h["rank"].as_u64().unwrap() as usize - 1)
        .collect();
    assert_eq!(filtered_ranks, scan_filtered, "min_prr/min_ror must equal the scan path");

    // ?sort_by=prr reorders hits by descending PRR estimate; every hit
    // carries the score block it was ordered by.
    let (status, by_prr) = http(addr, "GET", "/search?sort_by=prr&limit=1000");
    assert_eq!(status, 200);
    assert_eq!(by_prr["total"], n_clusters);
    let prrs: Vec<f64> = by_prr["hits"]
        .as_array()
        .unwrap()
        .iter()
        .map(|h| h["scores"]["prr"]["estimate"].as_f64().unwrap())
        .collect();
    assert_eq!(prrs.len(), n_clusters);
    for w in prrs.windows(2) {
        assert!(w[0] >= w[1], "sort_by=prr must be non-increasing: {} then {}", w[0], w[1]);
    }
    let (status, err) = http(addr, "GET", "/search?sort_by=alphabetical");
    assert_eq!(status, 400);
    assert_eq!(err["error"]["code"], "bad_request");

    // -- cache behaviour: repeat query hits the cache ---------------------
    let before = state.metrics.cache_hits.get();
    let (_, repeat) = http(addr, "GET", &target);
    assert_eq!(repeat, found, "cached response must be byte-identical");
    assert!(state.metrics.cache_hits.get() > before, "second identical query must hit the cache");

    // -- corrupted snapshot: reload refused, old snapshot keeps serving ---
    let good_bytes = std::fs::read(&snap_path).unwrap();
    let mut corrupt = good_bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&snap_path, &corrupt).unwrap();
    let (status, err) = http(addr, "POST", "/reload");
    assert_eq!(status, 500);
    assert_eq!(err["error"]["code"], "reload_failed");
    let (status, health) = http(addr, "GET", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health["quarter"], "2014 Q1", "old snapshot must keep serving");

    // -- hot swap: write a new quarter's snapshot and reload --------------
    let fx2 = fixture(42, QuarterId::new(2014, 2), "2014 Q2");
    maras_serve::save(&fx2.snapshot, &snap_path).expect("save second snapshot");
    let (status, reloaded) = http(addr, "POST", "/reload");
    assert_eq!(status, 200);
    assert_eq!(reloaded["status"], "reloaded");
    assert_eq!(reloaded["quarter"], "2014 Q2");
    let (_, health) = http(addr, "GET", "/healthz");
    assert_eq!(health["quarter"], "2014 Q2");
    assert_eq!(health["clusters"], fx2.snapshot.len());

    // Post-swap, the same search target is re-answered from the NEW data.
    let scan2 = query.apply(&fx2.result, &fx2.dv, &fx2.av, Some(&fx2.kb));
    let (_, found2) = http(addr, "GET", &target);
    assert_eq!(found2["total"], scan2.len(), "swap must invalidate cached answers");

    // -- /metrics.json: the legacy JSON counter schema --------------------
    let (status, metrics) = http(addr, "GET", "/metrics.json");
    assert_eq!(status, 200);
    assert!(metrics["requests"]["search"].as_u64().unwrap() >= 4);
    assert!(metrics["requests"]["healthz"].as_u64().unwrap() >= 3);
    assert_eq!(metrics["reloads"], 1u64);
    assert!(metrics["cache"]["hits"].as_u64().unwrap() >= 1);
    assert!(metrics["cache_entries"].as_u64().is_some());
    let buckets = metrics["latency_us"]["buckets"].as_array().unwrap();
    let total: u64 = buckets.iter().map(|b| b["count"].as_u64().unwrap()).sum();
    assert_eq!(
        total,
        metrics["requests"].as_object().unwrap().values().fold(0, |a, v| a + v.as_u64().unwrap())
    );

    // -- /metrics: Prometheus text exposition ------------------------------
    let (status, head, prom) = http_raw(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase().contains("content-type: text/plain; version=0.0.4"),
        "Prometheus content type, got headers: {head}"
    );
    assert!(prom.contains("# TYPE maras_requests_total counter"));
    assert!(prom.contains("# TYPE maras_request_latency_us histogram"));
    assert!(prom.contains("maras_requests_total{endpoint=\"search\"}"));
    assert!(prom.contains("maras_request_latency_us_bucket{endpoint=\"search\",le=\"+Inf\"}"));
    assert!(prom.contains("maras_snapshot_reloads_total 1"));
    // The fixtures ran the score engine in this process, so its series
    // must reach the scrape via the shared registry — while /metrics.json
    // above kept its frozen key set (no "signals" key).
    assert!(prom.contains("# TYPE maras_signals_rules_scored_total counter"));
    assert!(prom.contains("maras_signals_batches_total"));
    assert!(metrics.get("signals").is_none(), "signals series must stay Prometheus-only");
    // The scrape reflects the same counters as the JSON dump.
    let search_line = prom
        .lines()
        .find(|l| l.starts_with("maras_requests_total{endpoint=\"search\"}"))
        .expect("search series");
    let search_count: u64 = search_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(search_count, metrics["requests"]["search"].as_u64().unwrap());
    // The state's registry and the global one render back to back and
    // never share a metric name.
    let mut typed = std::collections::HashSet::new();
    for name in prom.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        assert!(typed.insert(name.split(' ').next().unwrap()), "# TYPE repeats: {name}");
    }
    // Every request above went through the worker's timed phases.
    for phase in ["parse", "route", "write"] {
        let key = format!("maras_serve_phase_us_count{{phase=\"{phase}\"}} ");
        let line = prom.lines().find(|l| l.starts_with(&key)).expect("phase histogram");
        let count: u64 = line[key.len()..].parse().unwrap();
        assert!(count > 0, "{line}");
    }

    // -- malformed request handling ---------------------------------------
    let (status, err) = http(addr, "GET", "/search?min_severity=high");
    assert_eq!(status, 400);
    assert_eq!(err["error"]["code"], "bad_request");
    let (status, _) = http(addr, "GET", "/definitely/not/a/route");
    assert_eq!(status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_see_consistent_snapshots() {
    let fx = fixture(77, QuarterId::new(2015, 1), "2015 Q1");
    let state = Arc::new(ServeState::new(fx.snapshot, None, 128));
    let server = serve(Arc::clone(&state), "127.0.0.1:0", 4).expect("bind");
    let addr = server.addr();

    let (_, baseline) = http(addr, "GET", "/search?limit=5");
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let expected = baseline.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let (status, body) = http(addr, "GET", "/search?limit=5");
                    assert_eq!(status, 200);
                    assert_eq!(body, expected);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    assert_eq!(state.metrics.total_requests() as usize, 8 * 10 + 1);
    server.shutdown();
}
