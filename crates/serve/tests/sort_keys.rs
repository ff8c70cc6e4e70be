//! `?sort_by=` over `/search` (router-level, no socket): every name
//! `--rank-by` takes orders the hits by that key's value whatever key
//! ranked the snapshot, `rank`/`score` keep the native order, and any
//! other name is a 400.

use maras_core::{Pipeline, PipelineConfig};
use maras_faers::{QuarterId, SynthConfig, Synthesizer};
use maras_serve::http::Request;
use maras_serve::{respond, ServeState, Snapshot};
use maras_signals::RankKey;
use serde_json::Value;

/// A served analysis of one synthetic quarter, ranked by `key`.
fn state(key: RankKey) -> ServeState {
    let mut cfg = SynthConfig::test_scale(23);
    cfg.n_reports = 1200;
    let mut synth = Synthesizer::new(cfg);
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let result = Pipeline::new(PipelineConfig::default().with_rank_by(key)).run(quarter, &dv, &av);
    let snap = Snapshot::build("2014 Q1", &result, &dv, &av, None);
    assert!(snap.len() > 100, "fixture mined too few clusters to order");
    ServeState::new(snap, None, 64)
}

/// `/search` with the given parameters: the top 50 hits and the total.
fn search(state: &ServeState, params: &[(&str, &str)]) -> (u16, Value) {
    let query = params.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    let req = Request { method: "GET".into(), path: "/search".into(), query };
    let (_, status, body) = respond(state, &req);
    (status, serde_json::from_str(&body).unwrap())
}

fn hits(body: &Value) -> &[Value] {
    body["hits"].as_array().unwrap()
}

fn ranks(body: &Value) -> Vec<u64> {
    hits(body).iter().map(|h| h["rank"].as_u64().unwrap()).collect()
}

#[test]
fn every_key_orders_the_hits_of_a_prr_ranked_snapshot() {
    let st = state(RankKey::Prr);
    let n = st.snapshot().len();
    let value = |hit: &Value, key: RankKey| {
        let s = &hit["scores"];
        let prr = s["prr"]["estimate"].as_f64().unwrap();
        let ror = s["ror"]["estimate"].as_f64().unwrap();
        let ebgm = s["ebgm"]["ebgm"].as_f64().unwrap();
        match key {
            RankKey::Exclusiveness => s["exclusiveness"].as_f64().unwrap(),
            RankKey::Prr => prr,
            RankKey::Ror => ror,
            RankKey::Ebgm => ebgm,
            RankKey::Composite => (prr * ror * ebgm).cbrt(),
        }
    };
    for key in RankKey::ALL {
        let (status, body) = search(&st, &[("sort_by", key.name())]);
        assert_eq!(status, 200, "sort_by={}: {body}", key.name());
        assert_eq!(body["total"], n, "sort_by={}", key.name());
        assert_eq!(hits(&body).len(), 50, "sort_by={}", key.name());
        for w in hits(&body).windows(2) {
            let (x, y) = (value(&w[0], key), value(&w[1], key));
            assert!(x >= y, "sort_by={} rose from {x} to {y}", key.name());
        }
    }
    // The snapshot's own key is its native order, which `rank` and
    // `score` keep.
    let (_, native) = search(&st, &[]);
    assert_eq!(ranks(&native), (1..=50).collect::<Vec<_>>());
    for name in ["rank", "score", "prr"] {
        assert_eq!(ranks(&search(&st, &[("sort_by", name)]).1), ranks(&native), "{name}");
    }
    let (status, err) = search(&st, &[("sort_by", "alphabetical")]);
    assert_eq!(status, 400);
    assert_eq!(err["error"]["code"], "bad_request");
    let message = err["error"]["message"].as_str().unwrap();
    for key in RankKey::ALL {
        assert!(message.contains(key.name()), "{message}");
    }
}
