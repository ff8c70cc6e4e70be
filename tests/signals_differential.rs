//! Differential acceptance suite for the batch score engine: every table
//! and every measure `score_rules` emits must be byte-identical (f64 bit
//! patterns) to the legacy per-rule path — `ContingencyTable::from_db`'s
//! three support scans plus direct measure calls — across seeded quarters,
//! strict and lenient ingestion, and 1/2/4 scoring threads. The ranked
//! pipeline output must carry the same block with the exclusiveness slot
//! filled in.

use maras::core::{Pipeline, PipelineConfig};
use maras::faers::ascii::{read_quarter_dir_with, write_quarter_dir, IngestOptions};
use maras::faers::{QuarterId, SynthConfig, Synthesizer};
use maras::mining::TransactionDb;
use maras::rules::{ContextRule, DrugAdrRule};
use maras::signals::{interaction_contrast, score_rules, ContingencyTable, SignalScores};

/// Bit-level equality over the whole score block, with a labelled panic
/// naming the first field that diverges.
fn assert_bits_eq(got: &SignalScores, want: &SignalScores, ctx: &str) {
    assert_eq!(got.table, want.table, "{ctx}: table");
    let fields: [(&str, f64, f64); 16] = [
        ("rrr", got.rrr, want.rrr),
        ("prr.estimate", got.prr.estimate, want.prr.estimate),
        ("prr.lower", got.prr.lower, want.prr.lower),
        ("prr.upper", got.prr.upper, want.prr.upper),
        ("ror.estimate", got.ror.estimate, want.ror.estimate),
        ("ror.lower", got.ror.lower, want.ror.lower),
        ("ror.upper", got.ror.upper, want.ror.upper),
        ("chi2", got.chi2, want.chi2),
        ("ic.ic", got.ic.ic, want.ic.ic),
        ("ic.ic025", got.ic.ic025, want.ic.ic025),
        ("ic.ic975", got.ic.ic975, want.ic.ic975),
        ("ebgm.ebgm", got.ebgm.ebgm, want.ebgm.ebgm),
        ("ebgm.eb05", got.ebgm.eb05, want.ebgm.eb05),
        ("ebgm.eb95", got.ebgm.eb95, want.ebgm.eb95),
        ("interaction", got.interaction, want.interaction),
        ("exclusiveness", got.exclusiveness, want.exclusiveness),
    ];
    for (name, g, w) in fields {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {name} ({g} vs {w})");
    }
    assert_eq!(got.evans, want.evans, "{ctx}: evans");
}

/// The legacy path the engine replaced: re-derive the 2×2 table with
/// support scans, then call each measure directly.
fn legacy_score(db: &TransactionDb, rule: &DrugAdrRule) -> SignalScores {
    let table = ContingencyTable::from_db(db, &rule.drugs, &rule.adrs);
    let base = SignalScores::from_table(table);
    if rule.is_multi_drug() {
        base.with_interaction(interaction_contrast(db, &rule.drugs, &rule.adrs))
    } else {
        base
    }
}

#[test]
fn engine_is_bit_identical_to_legacy_across_quarters_modes_and_threads() {
    let tmp = std::env::temp_dir().join("maras-signals-differential");
    for seed in [31u64, 32, 33] {
        let mut cfg = SynthConfig::test_scale(seed);
        cfg.n_reports = 1500;
        let mut synth = Synthesizer::new(cfg);
        let id = QuarterId::new(2014, 1 + (seed % 4) as u8);
        let quarter = synth.generate_quarter(id);
        let dir = tmp.join(format!("q{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        write_quarter_dir(&dir, &quarter).unwrap();

        for (mode, opts) in
            [("strict", IngestOptions::strict()), ("lenient", IngestOptions::lenient())]
        {
            let ingested = read_quarter_dir_with(&dir, id, &opts)
                .unwrap_or_else(|e| panic!("seed {seed} {mode} ingest failed: {e}"));
            let result = Pipeline::new(PipelineConfig::default().with_min_support(6)).run(
                ingested.data,
                synth.drug_vocab(),
                synth.adr_vocab(),
            );
            let db = &result.encoded.db;
            let rules: Vec<DrugAdrRule> =
                result.ranked.iter().map(|r| r.cluster.target.clone()).collect();
            assert!(!rules.is_empty(), "seed {seed} {mode}: no ranked rules");
            let legacy: Vec<SignalScores> = rules.iter().map(|r| legacy_score(db, r)).collect();

            let inputs: Vec<(&DrugAdrRule, &[ContextRule])> = result
                .ranked
                .iter()
                .map(|r| (&r.cluster.target, r.cluster.singleton_level()))
                .collect();
            for threads in [1usize, 2, 4] {
                let scored = score_rules(&inputs, threads);
                assert_eq!(scored.len(), legacy.len());
                for (i, (got, want)) in scored.iter().zip(&legacy).enumerate() {
                    let ctx = format!("seed {seed} {mode} threads {threads} rule {i}");
                    assert_bits_eq(got, want, &ctx);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn ranked_pipeline_output_carries_the_engine_block_with_exclusiveness() {
    let mut cfg = SynthConfig::test_scale(34);
    cfg.n_reports = 1500;
    let mut synth = Synthesizer::new(cfg);
    let quarter = synth.generate_quarter(QuarterId::new(2015, 2));
    let result = Pipeline::new(PipelineConfig::default().with_min_support(6)).run(
        quarter,
        synth.drug_vocab(),
        synth.adr_vocab(),
    );
    let db = &result.encoded.db;
    assert!(!result.ranked.is_empty());
    for (i, r) in result.ranked.iter().enumerate() {
        // The stored block is the legacy block with the cluster's
        // exclusiveness (= the default ranking score) filled in.
        let want = legacy_score(db, &r.cluster.target).with_exclusiveness(r.score);
        let ctx = format!("ranked {i}");
        assert_bits_eq(&r.scores, &want, &ctx);
        assert_eq!(r.scores.exclusiveness.to_bits(), r.score.to_bits(), "{ctx}");
    }
}
