//! The evidence drill-down over HTTP semantics (router-level, no socket):
//! `/cluster/N/reports` pages raw case reports out of the on-disk archive,
//! `/report/CASEID` serves point lookups, `/cluster/N` advertises both,
//! hot reload swaps snapshot + archive together or not at all, and a
//! cover that disagrees with its cluster is refused, not paged.

use maras_core::{Pipeline, PipelineConfig};
use maras_evidence::{build_archive, BuildConfig, EvidenceReader};
use maras_faers::{QuarterId, SynthConfig, Synthesizer};
use maras_serve::http::Request;
use maras_serve::{respond, save, Endpoint, ServeState, Snapshot};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("maras-evid-serve-{tag}-{}.{ext}", std::process::id()))
}

/// One analysis run turned into the snapshot + archive pair the server
/// loads, with both files left on disk for the reload tests.
fn fixture(tag: &str) -> (ServeState, PathBuf, PathBuf) {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(91));
    let quarter = synth.generate_quarter(QuarterId::new(2016, 2));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    let snap = Snapshot::build("2016Q2", &result, &dv, &av, None);
    let snap_path = tmp_path(tag, "snap");
    save(&snap, &snap_path).unwrap();
    let evid_path = tmp_path(tag, "evid");
    build_archive(&result, &dv, &av, &evid_path, BuildConfig { block_size: 32 }).unwrap();
    let reader = Arc::new(EvidenceReader::open(&evid_path).unwrap());
    let state = ServeState::new(snap, Some(snap_path.clone()), 64)
        .with_evidence(reader, Some(evid_path.clone()));
    (state, snap_path, evid_path)
}

/// Another seed's analysis of the same quarter, as a snapshot only.
fn other_snapshot(seed: u64) -> Snapshot {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(seed));
    let quarter = synth.generate_quarter(QuarterId::new(2016, 2));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    Snapshot::build("2016Q2", &result, &dv, &av, None)
}

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

fn cleanup(paths: &[&PathBuf]) {
    for p in paths {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn cluster_detail_advertises_reports_and_pagination_walks_them() {
    let (st, snap_path, evid_path) = fixture("paginate");

    let (_, status, body) = respond(&st, &get("/cluster/1", &[]));
    assert_eq!(status, 200);
    let detail: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(detail["reports_url"], "/cluster/1/reports");
    let n_supporting = detail["n_supporting_reports"].as_u64().unwrap() as usize;
    let case_ids: Vec<u64> =
        detail["case_ids"].as_array().unwrap().iter().map(|v| v.as_u64().unwrap()).collect();
    assert_eq!(case_ids.len(), n_supporting);

    // Page through the advertised URL in chunks of 3; the concatenation
    // must reproduce the detail view's case ids exactly, in order.
    let mut walked: Vec<u64> = Vec::new();
    let mut offset = 0;
    loop {
        let off = offset.to_string();
        let (ep, status, body) =
            respond(&st, &get("/cluster/1/reports", &[("offset", &off), ("limit", "3")]));
        assert_eq!((ep, status), (Endpoint::Reports, 200));
        let page: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(page["total"].as_u64().unwrap() as usize, n_supporting);
        assert_eq!(page["offset"].as_u64().unwrap() as usize, offset);
        let reports = page["reports"].as_array().unwrap();
        if reports.is_empty() {
            break;
        }
        for r in reports {
            walked.push(r["case_id"].as_u64().unwrap());
            // Full raw-report shape, not just ids.
            assert!(r["drugs"].as_array().unwrap().len() >= 2, "rule needs >= 2 drugs");
            assert!(!r["reactions"].as_array().unwrap().is_empty());
            assert!(r.get("age").is_some() && r.get("sex").is_some());
        }
        offset += reports.len();
    }
    assert_eq!(walked, case_ids, "paged evidence must equal the in-snapshot provenance");

    // Point lookups resolve the same records by FAERS case id.
    let (ep, status, body) = respond(&st, &get(&format!("/report/{}", case_ids[0]), &[]));
    assert_eq!((ep, status), (Endpoint::Report, 200));
    let report: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(report["case_id"].as_u64().unwrap(), case_ids[0]);

    cleanup(&[&snap_path, &evid_path]);
}

#[test]
fn severity_filter_narrows_the_page() {
    let (st, snap_path, evid_path) = fixture("severity");
    let (_, status, body) =
        respond(&st, &get("/cluster/1/reports", &[("limit", "500"), ("min_severity", "6")]));
    assert_eq!(status, 200);
    let page: Value = serde_json::from_str(&body).unwrap();
    let all = respond(&st, &get("/cluster/1/reports", &[("limit", "500")]));
    let all: Value = serde_json::from_str(&all.2).unwrap();
    assert!(page["total"].as_u64().unwrap() <= all["total"].as_u64().unwrap());
    for r in page["reports"].as_array().unwrap() {
        assert_eq!(r["max_severity"].as_u64().unwrap(), 6, "death-only filter");
    }
    cleanup(&[&snap_path, &evid_path]);
}

#[test]
fn error_paths_are_typed_and_never_cached() {
    let (st, snap_path, evid_path) = fixture("errors");
    for (req, want_status, want_code) in [
        (get("/cluster/0/reports", &[]), 404, "not_found"),
        (get("/cluster/99999/reports", &[]), 404, "not_found"),
        (get("/cluster/xyz/reports", &[]), 400, "bad_request"),
        (get("/cluster/1/reports", &[("offset", "minus")]), 400, "bad_request"),
        (get("/cluster/1/reports", &[("limit", "-3")]), 400, "bad_request"),
        (get("/report/999999999", &[]), 404, "not_found"),
        (get("/report/not-a-number", &[]), 400, "bad_request"),
    ] {
        let (_, status, body) = respond(&st, &req);
        assert_eq!(status, want_status, "{req:?}");
        let json: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(json["error"]["code"], want_code, "{req:?}");
    }
    assert_eq!(st.cache_len(), 0, "error responses must not enter the cache");

    // Wrong method on the evidence routes is 405, not 404.
    let req = Request { method: "POST".into(), path: "/report/1".into(), query: vec![] };
    let (_, status, _) = respond(&st, &req);
    assert_eq!(status, 405);
    cleanup(&[&snap_path, &evid_path]);
}

#[test]
fn without_an_archive_the_routes_404_but_detail_still_serves() {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(91));
    let quarter = synth.generate_quarter(QuarterId::new(2016, 2));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    let st = ServeState::new(Snapshot::build("2016Q2", &result, &dv, &av, None), None, 64);

    let (_, status, body) = respond(&st, &get("/cluster/1/reports", &[]));
    assert_eq!(status, 404);
    let json: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(json["error"]["code"], "no_evidence");
    let (_, status, _) = respond(&st, &get("/report/1", &[]));
    assert_eq!(status, 404);
    // The snapshot-only detail view still works and still advertises the
    // (currently unserved) drill-down link.
    let (_, status, body) = respond(&st, &get("/cluster/1", &[]));
    assert_eq!(status, 200);
    let detail: Value = serde_json::from_str(&body).unwrap();
    assert!(detail["n_supporting_reports"].as_u64().unwrap() > 0);
}

#[test]
fn reload_swaps_archive_and_refuses_a_corrupt_one_atomically() {
    let (st, snap_path, evid_path) = fixture("reload");
    let reload = Request { method: "POST".into(), path: "/reload".into(), query: vec![] };

    // Healthy pair: reload succeeds and evidence keeps serving.
    let (_, status, _) = respond(&st, &reload);
    assert_eq!(status, 200);
    let (_, status, _) = respond(&st, &get("/cluster/1/reports", &[]));
    assert_eq!(status, 200);

    // Corrupt the archive on disk: reload must refuse it, keep the old
    // reader, and keep serving evidence from the pre-reload archive.
    let good = std::fs::read(&evid_path).unwrap();
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    std::fs::write(&evid_path, &bad).unwrap();
    let (_, status, body) = respond(&st, &reload);
    assert_eq!(status, 500);
    let json: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(json["error"]["code"], "evidence_reload_failed");
    let (_, status, _) = respond(&st, &get("/cluster/1/reports", &[]));
    assert_eq!(status, 200, "old archive must keep serving after a failed reload");

    // Restore and reload again: back to healthy.
    std::fs::write(&evid_path, &good).unwrap();
    let (_, status, _) = respond(&st, &reload);
    assert_eq!(status, 200);
    cleanup(&[&snap_path, &evid_path]);
}

#[test]
fn a_cover_that_disagrees_with_its_cluster_is_refused() {
    let (st, snap_path, evid_path) = fixture("mismatch");
    // Each of the first ten drill-downs: its status, its body, and the
    // cluster's report count.
    let drill_downs = |st: &ServeState| -> Vec<(u16, Value, u64)> {
        (1..=st.snapshot().len().min(10))
            .map(|rank| {
                let detail = respond(st, &get(&format!("/cluster/{rank}"), &[])).2;
                let detail: Value = serde_json::from_str(&detail).unwrap();
                let n = detail["n_supporting_reports"].as_u64().unwrap();
                let (_, status, body) = respond(st, &get(&format!("/cluster/{rank}/reports"), &[]));
                (status, serde_json::from_str(&body).unwrap(), n)
            })
            .collect()
    };

    // The matched pair pages every cover.
    for (status, page, n) in drill_downs(&st) {
        assert_eq!(status, 200);
        assert_eq!(page["total"].as_u64(), Some(n));
    }

    // A swap keeps the archive: another seed's snapshot now meets the
    // seed-91 covers. A cover of another size is refused; one of the same
    // size cannot be told apart by its length and still pages.
    st.swap(other_snapshot(92));
    let mut refused = 0;
    for (status, body, n) in drill_downs(&st) {
        match status {
            200 => assert_eq!(body["total"].as_u64(), Some(n)),
            500 => {
                assert_eq!(body["error"]["code"], "evidence_mismatch");
                refused += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(refused > 0, "no drill-down of the swapped snapshot was refused");
    cleanup(&[&snap_path, &evid_path]);
}
