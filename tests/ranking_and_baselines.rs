//! Integration of the ranking layer with the disproportionality baselines:
//! the paper's central claim — context-aware exclusiveness surfaces planted
//! interactions that context-free measures bury — must hold on realistic
//! synthetic data.

use maras::core::{Pipeline, PipelineConfig};
use maras::faers::{QuarterId, SynthConfig, Synthesizer};
use maras::mcac::rank_rules_by;
use maras::rules::{DrugAdrRule, Measure, RuleStats};
use maras::signals::{harpaz_rank, interaction_contrast};

struct Fixture {
    result: maras::core::AnalysisResult,
    synth: Synthesizer,
}

fn fixture() -> Fixture {
    let mut cfg = SynthConfig::test_scale(21);
    cfg.n_reports = 2500;
    let mut synth = Synthesizer::new(cfg);
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let result = Pipeline::new(PipelineConfig::default().with_min_support(6)).run(
        quarter,
        synth.drug_vocab(),
        synth.adr_vocab(),
    );
    Fixture { result, synth }
}

/// Best (lowest) position of any planted interaction in a ranked rule list.
fn best_planted_rank<'a>(
    rules: impl Iterator<Item = &'a DrugAdrRule>,
    planted: &[(Vec<u32>, Vec<u32>)],
    adr_start: u32,
) -> Option<usize> {
    let mut best = None;
    for (i, rule) in rules.enumerate() {
        for (drugs, adrs) in planted {
            let drug_match = rule.drugs.iter().map(|x| x.0).eq(drugs.iter().copied());
            let adr_match = adrs.iter().all(|&a| rule.adrs.iter().any(|x| x.0 == a + adr_start));
            if drug_match && adr_match {
                best = Some(best.map_or(i, |b: usize| b.min(i)));
            }
        }
    }
    best
}

#[test]
fn exclusiveness_outranks_plain_confidence_on_planted_truth() {
    let f = fixture();
    let planted = f.synth.planted_truth();
    let adr_start = f.result.encoded.partition.adr_start;

    let excl_rank =
        best_planted_rank(f.result.ranked.iter().map(|r| &r.cluster.target), &planted, adr_start)
            .expect("planted interaction mined");

    let pool: Vec<DrugAdrRule> = f.result.ranked.iter().map(|r| r.cluster.target.clone()).collect();
    let by_conf = rank_rules_by(pool, Measure::Confidence);
    let conf_rank = best_planted_rank(by_conf.iter(), &planted, adr_start).expect("same pool");

    assert!(
        excl_rank < conf_rank,
        "exclusiveness (rank {excl_rank}) must beat plain confidence (rank {conf_rank})"
    );
}

#[test]
fn harpaz_baseline_runs_on_pipeline_output() {
    let f = fixture();
    let ranked = harpaz_rank(&f.result.encoded.db, &f.result.encoded.partition, 6);
    assert_eq!(ranked.len(), f.result.ranked.len(), "Harpaz ranks the same closed multi-drug pool");
    assert!(ranked.windows(2).all(|w| w[0].rrr >= w[1].rrr));
}

#[test]
fn planted_interactions_have_positive_interaction_contrast() {
    let f = fixture();
    let planted = f.synth.planted_truth();
    let adr_start = f.result.encoded.partition.adr_start;
    let mut checked = 0;
    for (drugs, adrs) in &planted {
        let drug_set: maras::mining::ItemSet =
            drugs.iter().map(|&d| maras::mining::Item(d)).collect();
        let adr_set: maras::mining::ItemSet =
            adrs.iter().map(|&a| maras::mining::Item(a + adr_start)).collect();
        if f.result.encoded.db.support(&drug_set.union(&adr_set)) < 5 {
            continue; // too rare in this small corpus to assert on
        }
        let ic = interaction_contrast(&f.result.encoded.db, &drug_set, &adr_set);
        assert!(ic > 0.5, "planted {drugs:?} contrast too weak: {ic}");
        checked += 1;
    }
    assert!(checked >= 3, "need at least 3 planted interactions to check, got {checked}");
}

#[test]
fn mcac_context_confidences_match_db_counts() {
    // The glue property across rules/mcac/core: every contextual rule of
    // every ranked cluster carries its exact counts in the encoded
    // database, so its confidence is the exact count ratio.
    let f = fixture();
    let db = &f.result.encoded.db;
    assert!(!f.result.ranked.is_empty());
    for r in &f.result.ranked {
        for ctx in &r.cluster.context {
            let ctx = ctx.to_rule(&r.cluster.target);
            let want = RuleStats {
                support_ab: db.support(&ctx.complete_itemset()) as u64,
                support_a: db.support(&ctx.drugs) as u64,
                support_b: db.support(&ctx.adrs) as u64,
                n_transactions: db.len() as u64,
            };
            assert_eq!(ctx.stats, want, "{ctx}");
        }
    }
}
