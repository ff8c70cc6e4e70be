//! Differential suite for the MCAC support counter: every contextual rule
//! of every ranked cluster must carry exactly the counts a per-probe oracle
//! takes straight from the tid-lists (`support_of_union`,
//! `support_of(subset)`, `support_of(adrs)`), every context level must
//! keep its (confidence desc, antecedent asc) order, and the interaction
//! contrast the engine reads off the singleton level must equal
//! `interaction_contrast`'s database probes bit for bit. It runs over
//! several seeded quarters, read strictly when clean and leniently with
//! injected faults, at a support low enough for 3- and 4-drug targets, and
//! ranks each at 1, 2 and 4 threads.

use maras::core::{AnalysisResult, Pipeline, PipelineConfig};
use maras::faers::ascii::IngestOptions;
use maras::faers::{corrupt_quarter, FaultConfig, QuarterId, SynthConfig, Synthesizer};
use maras::mcac::rank_clusters_with;
use maras::mining::{ItemSet, TransactionDb};
use maras::rules::{DrugAdrRule, RuleStats};
use maras::signals::interaction_contrast;

/// Low enough that the test-scale quarters mine 3- and 4-drug targets.
const MIN_SUPPORT: u64 = 4;

/// The counts of `drugs ⇒ adrs`, one database probe each.
fn oracle_stats(db: &TransactionDb, drugs: &ItemSet, adrs: &ItemSet) -> RuleStats {
    RuleStats {
        support_ab: db.support_of_union(drugs.items(), adrs.items()) as u64,
        support_a: db.support_of(drugs.items()) as u64,
        support_b: db.support_of(adrs.items()) as u64,
        n_transactions: db.len() as u64,
    }
}

/// Checks every ranked cluster of `result` against the oracle and returns
/// how many targets it saw of each drug count (the last slot counts 4 or
/// more).
fn check_against_oracle(result: &AnalysisResult, ctx: &str) -> [usize; 5] {
    let db = &result.encoded.db;
    let mut by_size = [0usize; 5];
    for (i, r) in result.ranked.iter().enumerate() {
        let cluster = &r.cluster;
        let target = &cluster.target;
        by_size[cluster.n_drugs().min(4)] += 1;
        assert!(cluster.context_is_complete(), "{ctx} cluster {i}: incomplete context");
        let n = cluster.n_drugs();
        assert_eq!(cluster.levels().count(), n - 1, "{ctx} cluster {i}: levels");
        for (level, cardinality) in cluster.levels().zip((1..n).rev()) {
            let rules: Vec<DrugAdrRule> = level.iter().map(|rule| rule.to_rule(target)).collect();
            for rule in &rules {
                assert_eq!(rule.drugs.len(), cardinality, "{ctx} cluster {i}: level");
                assert_eq!(
                    rule.stats,
                    oracle_stats(db, &rule.drugs, &rule.adrs),
                    "{ctx} cluster {i}: counts of {rule}"
                );
            }
            for w in rules.windows(2) {
                let (a, b) = (w[0].confidence(), w[1].confidence());
                assert!(
                    a > b || (a == b && w[0].drugs < w[1].drugs),
                    "{ctx} cluster {i}: level {} out of order: {} then {}",
                    cardinality,
                    w[0],
                    w[1]
                );
            }
        }
        let want = interaction_contrast(db, &target.drugs, &target.adrs);
        assert_eq!(
            r.scores.interaction.to_bits(),
            want.to_bits(),
            "{ctx} cluster {i}: interaction {} vs {want}",
            r.scores.interaction
        );
    }
    by_size
}

#[test]
fn counted_context_matches_per_probe_oracle_across_quarters_modes_and_threads() {
    let mut by_size = [0usize; 5];
    for seed in [51u64, 52, 53] {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(seed));
        let quarter = synth.generate_quarter(QuarterId::new(2015, 1 + (seed % 4) as u8));
        let clean = corrupt_quarter(&quarter, &FaultConfig::new(seed, 0.0));
        assert!(clean.faults.is_empty(), "seed {seed}: a zero fault rate injected faults");
        let faulty = corrupt_quarter(&quarter, &FaultConfig::new(seed, 0.02));
        assert!(!faulty.faults.is_empty(), "seed {seed}: no faults injected");
        for (mode, source, opts) in [
            ("strict", &clean, IngestOptions::strict()),
            ("lenient", &faulty, IngestOptions::lenient()),
        ] {
            let data = source
                .read(&opts)
                .unwrap_or_else(|e| panic!("seed {seed} {mode} ingest failed: {e}"))
                .data;
            let config = PipelineConfig::default().with_min_support(MIN_SUPPORT).with_n_threads(1);
            let result =
                Pipeline::new(config.clone()).run(data, synth.drug_vocab(), synth.adr_vocab());
            let ctx = format!("seed {seed} {mode}");
            assert!(!result.ranked.is_empty(), "{ctx}: no ranked clusters");
            for (total, n) in by_size.iter_mut().zip(check_against_oracle(&result, &ctx)) {
                *total += n;
            }
            // The pipeline ranked at one thread; the sharded scoring pass
            // must reproduce it exactly.
            let targets: Vec<DrugAdrRule> =
                result.ranked.iter().map(|r| r.cluster.target.clone()).collect();
            for threads in [2usize, 4] {
                let db = &result.encoded.db;
                let ranked =
                    rank_clusters_with(targets.clone(), db, config.ranking_method(), threads);
                assert_eq!(ranked.len(), result.ranked.len(), "{ctx} threads {threads}");
                for (i, (a, b)) in ranked.iter().zip(&result.ranked).enumerate() {
                    let ctx = format!("{ctx} threads {threads} cluster {i}");
                    assert_eq!(a.cluster, b.cluster, "{ctx}");
                    assert_eq!(a.scores, b.scores, "{ctx}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{ctx}");
                }
            }
        }
    }
    assert!(by_size[3] > 0, "no 3-drug targets mined: {by_size:?}");
    assert!(by_size[4] > 0, "no targets of 4 or more drugs mined: {by_size:?}");
}
