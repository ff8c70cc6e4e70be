//! End-to-end integration: synthetic FAERS generation → cleaning →
//! closed-rule mining → MCAC ranking, checked against the planted ground
//! truth and the paper's qualitative claims.

use maras::core::{Pipeline, PipelineConfig};
use maras::faers::{PlantedInteraction, QuarterId, SynthConfig, Synthesizer};

fn fixture(seed: u64) -> (maras::core::AnalysisResult, Synthesizer) {
    let mut cfg = SynthConfig::test_scale(seed);
    cfg.n_reports = 2500;
    let mut synth = Synthesizer::new(cfg);
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let result = Pipeline::new(PipelineConfig::default().with_min_support(6)).run(
        quarter,
        synth.drug_vocab(),
        synth.adr_vocab(),
    );
    (result, synth)
}

#[test]
fn planted_interactions_rank_in_leading_fraction() {
    let (result, synth) = fixture(42);
    let n = result.ranked.len();
    assert!(n > 50, "expected a substantial ruleset, got {n}");
    let mut found = 0usize;
    for pi in PlantedInteraction::paper_case_studies() {
        let drugs: Vec<&str> = pi.drugs.iter().map(String::as_str).collect();
        let adrs: Vec<&str> = pi.adrs.iter().map(String::as_str).collect();
        if let Some(rank) = result.rank_of(&drugs, &adrs, synth.drug_vocab(), synth.adr_vocab()) {
            found += 1;
            assert!(
                rank < n / 4,
                "{:?} ranked {rank} of {n} — outside the leading quartile",
                pi.drugs
            );
        }
    }
    assert!(found >= 4, "at least 4 of 6 planted interactions must be mined, got {found}");
}

#[test]
fn rule_funnel_is_monotone_and_nonempty() {
    let (result, _) = fixture(43);
    let c = result.counts;
    assert!(c.total_rules > c.filtered_rules);
    assert!(c.filtered_rules > c.mcacs);
    assert!(c.mcacs > 0);
    assert!(c.closed_itemsets < c.frequent_itemsets);
    assert_eq!(c.mcacs as usize, result.ranked.len());
}

#[test]
fn pipeline_is_deterministic() {
    let (a, _) = fixture(44);
    let (b, _) = fixture(44);
    assert_eq!(a.ranked.len(), b.ranked.len());
    for (x, y) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(x.cluster.target.drugs, y.cluster.target.drugs);
        assert_eq!(x.cluster.target.adrs, y.cluster.target.adrs);
        assert_eq!(x.score, y.score);
    }
    assert_eq!(a.cleaning, b.cleaning);
    assert_eq!(a.counts, b.counts);
}

#[test]
fn every_ranked_cluster_is_wellformed() {
    let (result, _) = fixture(45);
    for r in &result.ranked {
        assert!(r.cluster.n_drugs() >= 2);
        assert!(r.cluster.context_is_complete(), "incomplete context");
        assert!(r.score.is_finite());
        let t = &r.cluster.target;
        // The rule's stats must be consistent with the encoded database.
        assert_eq!(t.stats.support_ab, result.encoded.db.support(&t.complete_itemset()) as u64);
        assert!(t.stats.support_ab >= 6, "below the mining threshold");
        // The complete itemset of every MCAC target is closed (§3.4).
        assert!(result.encoded.db.is_closed(&t.complete_itemset()));
    }
    // Scores descend.
    assert!(result.ranked.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn cleaning_statistics_are_consistent() {
    let (result, _) = fixture(46);
    let s = result.cleaning;
    assert_eq!(s.input_reports, result.quarter.reports.len());
    assert_eq!(s.output_reports, result.cleaned.len());
    assert_eq!(
        s.output_reports + s.dropped_sparse + s.deduplicated_versions,
        s.input_reports,
        "cleaning accounting must balance: {s:?}"
    );
    assert!(s.corrected_drugs > 0, "synthetic noise must exercise spell correction");
    assert_eq!(result.encoded.db.len(), result.cleaned.len());
}

#[test]
fn exclusiveness_separates_planted_from_dominated() {
    // Craft a corpus with exactly one planted interaction and verify the
    // top of the ranking is not dominated by single-drug explanations.
    let mut cfg = SynthConfig::test_scale(47);
    cfg.n_reports = 2000;
    cfg.interactions = vec![PlantedInteraction {
        co_report_rate: 0.012,
        ..PlantedInteraction::new(&["ASPIRIN", "WARFARIN"], &["Haemorrhage"])
    }];
    let mut synth = Synthesizer::new(cfg);
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let result = Pipeline::new(PipelineConfig::default().with_min_support(8)).run(
        quarter,
        synth.drug_vocab(),
        synth.adr_vocab(),
    );
    let rank = result
        .rank_of(&["ASPIRIN", "WARFARIN"], &["Haemorrhage"], synth.drug_vocab(), synth.adr_vocab())
        .expect("planted interaction mined");
    assert!(rank < 10, "boosted planted interaction should be near the very top, got {rank}");
    // Its single-drug context must be substantially weaker than the
    // combination — the exclusiveness signature. (Singles still pick up
    // conditional probability from the combo reports themselves, so the
    // check is a margin, not an absolute bound.)
    let cluster = &result.ranked[rank].cluster;
    let target_conf = cluster.target.confidence();
    for ctx in cluster.singleton_level() {
        let ctx = ctx.to_rule(&cluster.target);
        assert!(
            ctx.confidence() < target_conf - 0.3,
            "single drug {} explains the ADR too well: {} vs target {}",
            ctx.drugs,
            ctx.confidence(),
            target_conf
        );
    }
}
