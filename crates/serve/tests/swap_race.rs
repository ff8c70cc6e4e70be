//! Snapshot swaps racing a reader.
//!
//! A request renders from the snapshot it started with. If it caches that
//! body after a swap has replaced the snapshot, every later request for
//! the same key is answered from the outgoing quarter. Each swap here
//! lands while a reader thread renders a stream of distinct `/search`
//! keys; once the request in flight during the swap has finished, every
//! key the reader issued must answer with the quarter now installed.

use maras_core::{Pipeline, PipelineConfig};
use maras_faers::{QuarterId, SynthConfig, Synthesizer};
use maras_serve::http::Request;
use maras_serve::{respond, ServeState, Snapshot};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const SWAPS: usize = 200;

fn search(i: usize) -> Request {
    Request {
        method: "GET".into(),
        path: "/search".into(),
        query: vec![("min_score".into(), format!("-{i}"))],
    }
}

fn relabelled(base: &Snapshot, quarter: String) -> Snapshot {
    Snapshot::from_parts(
        quarter,
        base.n_reports,
        base.drug_vocab().clone(),
        base.adr_vocab().clone(),
        base.clusters.clone(),
    )
}

#[test]
fn no_body_rendered_from_an_outgoing_snapshot_outlives_its_swap() {
    let mut synth = Synthesizer::new(SynthConfig::test_scale(91));
    let quarter = synth.generate_quarter(QuarterId::new(2016, 2));
    let (dv, av) = (synth.drug_vocab().clone(), synth.adr_vocab().clone());
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    let base = Snapshot::build("Q0", &result, &dv, &av, None);
    let state = Arc::new(ServeState::new(relabelled(&base, "Q0".into()), None, 1 << 16));
    let completed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (state, completed, stop) = (state.clone(), completed.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Acquire) {
                respond(&state, &search(i));
                i += 1;
                completed.store(i, Ordering::Release);
            }
        })
    };
    for swap in 1..=SWAPS {
        let quarter = format!("Q{swap}");
        let before = completed.load(Ordering::Acquire);
        state.swap(relabelled(&base, quarter.clone()));
        // Two more completions: the request in flight during the swap has
        // rendered and cached whatever it was going to. Keys from `before`
        // on are the ones that can have started before the swap.
        let seen = completed.load(Ordering::Acquire);
        while completed.load(Ordering::Acquire) < seen + 2 {
            std::thread::yield_now();
        }
        let done = completed.load(Ordering::Acquire);
        let current = format!("\"quarter\":\"{quarter}\"");
        for i in before..done {
            let body = respond(&state, &search(i)).2;
            if !body.contains(&current) {
                let body: Value = serde_json::from_str(&body).unwrap();
                panic!("swap {swap}: key {i} was answered from quarter {}", body["quarter"]);
            }
        }
    }
    stop.store(true, Ordering::Release);
    reader.join().unwrap();
}
