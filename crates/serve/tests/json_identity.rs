//! Every `/cluster/N` body equals one rendered straight from the analysis.
//!
//! A snapshot stores counts, not the measures derived from them: a
//! contextual rule is a mask over its target's drugs plus two supports,
//! and a cluster's support, confidence, lift and closed-form scores come
//! back from its 2×2 table. This suite renders every cluster detail of a
//! built snapshot and of its save → load round trip through `respond`,
//! and compares each body byte for byte against one built from the
//! `AnalysisResult`'s own rules: their names, their `RuleStats` and the
//! engine's `SignalScores`.

use maras_core::link::{max_severity, supporting_case_ids, supporting_tids};
use maras_core::{AnalysisResult, KnowledgeBase, Pipeline, PipelineConfig};
use maras_faers::{QuarterId, SynthConfig, Synthesizer, Vocabulary};
use maras_rules::DrugAdrRule;
use maras_serve::http::Request;
use maras_serve::{load, respond, save, scores_json, ServeState, Snapshot};
use serde_json::Value;

fn names(
    result: &AnalysisResult,
    rule: &DrugAdrRule,
    (dv, av): (&Vocabulary, &Vocabulary),
) -> (Vec<String>, Vec<String>) {
    let drugs = result.encoded.names(&rule.drugs, dv, av);
    let drugs = drugs.into_iter().map(|n| n.to_ascii_uppercase()).collect();
    (drugs, result.encoded.names(&rule.adrs, dv, av))
}

/// The detail body of 0-based `rank`, from the analysis alone.
fn expected_detail(
    result: &AnalysisResult,
    rank: usize,
    vocabs: (&Vocabulary, &Vocabulary),
    kb: &KnowledgeBase,
) -> String {
    let ranked = &result.ranked[rank];
    let target = &ranked.cluster.target;
    let (drugs, adrs) = names(result, target, vocabs);
    let drug_refs: Vec<&str> = drugs.iter().map(String::as_str).collect();
    let adr_refs: Vec<&str> = adrs.iter().map(String::as_str).collect();
    let tids = supporting_tids(result, target);
    let case_ids = supporting_case_ids(result, &tids);
    let context = ranked.cluster.context.iter().map(|rule| {
        let rule = rule.to_rule(target);
        let (drugs, adrs) = names(result, &rule, vocabs);
        Value::obj([
            ("drugs", Value::from(drugs)),
            ("adrs", Value::from(adrs)),
            ("support", Value::from(rule.stats.support_ab)),
            ("confidence", Value::from(rule.stats.confidence())),
            ("lift", Value::from(rule.stats.lift())),
        ])
    });
    Value::obj([
        ("rank", Value::from(rank + 1)),
        ("known", Value::from(kb.is_known(&drug_refs))),
        ("has_novel_adr", Value::from(kb.has_novel_adr(&drug_refs, &adr_refs))),
        ("drugs", Value::from(drugs)),
        ("adrs", Value::from(adrs)),
        ("score", Value::from(ranked.score)),
        ("support", Value::from(target.stats.support_ab)),
        ("confidence", Value::from(target.stats.confidence())),
        ("lift", Value::from(target.stats.lift())),
        ("max_severity", Value::from(max_severity(result, &tids).map_or(0, |o| o.severity()))),
        ("scores", scores_json(&ranked.scores)),
        ("n_supporting_reports", Value::from(case_ids.len())),
        ("case_ids", Value::from(case_ids)),
        ("reports_url", Value::from(format!("/cluster/{}/reports", rank + 1))),
        ("context", Value::arr(context)),
    ])
    .to_string()
}

#[test]
fn every_cluster_detail_equals_the_analysis_rendering_before_and_after_a_round_trip() {
    let mut synth =
        Synthesizer::new(SynthConfig { n_reports: 2000, ..SynthConfig::test_scale(41) });
    let quarter = synth.generate_quarter(QuarterId::new(2015, 2));
    let (dv, av) = (synth.drug_vocab().clone(), synth.adr_vocab().clone());
    let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
    let kb = KnowledgeBase::literature_validated();
    let built = Snapshot::build("2015 Q2", &result, &dv, &av, Some(&kb));
    assert!(
        built.clusters.iter().any(|c| c.drugs.len() >= 3),
        "the fixture needs targets whose context keeps drug pairs"
    );
    let path =
        std::env::temp_dir().join(format!("maras-json-identity-{}.snap", std::process::id()));
    save(&built, &path).unwrap();
    let loaded = load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let expected: Vec<String> = (0..result.ranked.len())
        .map(|rank| expected_detail(&result, rank, (&dv, &av), &kb))
        .collect();
    for (which, snap) in [("built", built), ("loaded", loaded)] {
        assert_eq!(snap.len(), expected.len(), "{which}");
        let state = ServeState::new(snap, None, 0);
        for (rank, want) in expected.iter().enumerate() {
            let req = Request {
                method: "GET".into(),
                path: format!("/cluster/{}", rank + 1),
                query: Vec::new(),
            };
            let (_, status, body) = respond(&state, &req);
            assert_eq!(status, 200, "{which} rank {}", rank + 1);
            assert_eq!(&body, want, "{which} rank {}", rank + 1);
        }
    }
}
