//! Shared experiment harness: synthetic-corpus construction, naming
//! helpers and plain-text table printing for the `exp_*` binaries, and
//! the timing and JSON helpers every timing of the `bench_kernels`
//! binary goes through.
//!
//! Every `exp_*` binary regenerates one table or figure of the thesis
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for recorded
//! outputs). Scale is controlled by the `MARAS_SCALE` environment
//! variable: `paper` (default for binaries; ≈20k reports/quarter,
//! DESIGN.md substitution 1) or `test` (≈800, used in CI smoke tests).

#![warn(missing_docs)]

use maras_core::{AnalysisResult, Pipeline, PipelineConfig};
use maras_faers::{QuarterData, QuarterId, SynthConfig, Synthesizer, Vocabulary};
use maras_rules::DrugAdrRule;
use serde_json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// The seed every experiment shares (the paper's data year).
pub const SEED: u64 = 2014;

/// Resolves the experiment scale from `MARAS_SCALE`.
pub fn scale_config() -> SynthConfig {
    match std::env::var("MARAS_SCALE").as_deref() {
        Ok("test") => SynthConfig::test_scale(SEED),
        _ => SynthConfig::paper_scale(SEED),
    }
}

/// A generated 2014: the four quarters plus the vocabularies and ground
/// truth that produced them.
pub struct Corpus {
    /// The four quarters, Q1..Q4.
    pub quarters: Vec<QuarterData>,
    /// Canonical drug vocabulary.
    pub drug_vocab: Vocabulary,
    /// Canonical ADR vocabulary.
    pub adr_vocab: Vocabulary,
    /// Planted ground-truth interactions as (drug ids, adr ids).
    pub planted: Vec<(Vec<u32>, Vec<u32>)>,
}

/// Generates the full synthetic 2014 corpus at the configured scale.
pub fn generate_corpus() -> Corpus {
    let mut synth = Synthesizer::new(scale_config());
    let quarters = synth.generate_year(2014);
    Corpus {
        quarters,
        drug_vocab: synth.drug_vocab().clone(),
        adr_vocab: synth.adr_vocab().clone(),
        planted: synth.planted_truth(),
    }
}

/// Generates just one quarter (cheaper for single-quarter experiments).
pub fn generate_quarter(q: u8) -> Corpus {
    let mut synth = Synthesizer::new(scale_config());
    // Quarters draw from per-quarter seeds, so generating only Qn is
    // deterministic and consistent with the full-year corpus except for
    // case-id offsets.
    let quarter = synth.generate_quarter(QuarterId::new(2014, q));
    Corpus {
        quarters: vec![quarter],
        drug_vocab: synth.drug_vocab().clone(),
        adr_vocab: synth.adr_vocab().clone(),
        planted: synth.planted_truth(),
    }
}

/// Runs the default MARAS pipeline over a quarter of the corpus.
pub fn run_pipeline(
    corpus: &Corpus,
    quarter_index: usize,
    config: PipelineConfig,
) -> AnalysisResult {
    Pipeline::new(config).run(
        corpus.quarters[quarter_index].clone(),
        &corpus.drug_vocab,
        &corpus.adr_vocab,
    )
}

/// Renders a rule with canonical names, Table 5.2-style.
pub fn rule_names(result: &AnalysisResult, rule: &DrugAdrRule, corpus: &Corpus) -> String {
    let drugs = result.encoded.names(&rule.drugs, &corpus.drug_vocab, &corpus.adr_vocab);
    let adrs = result.encoded.names(&rule.adrs, &corpus.drug_vocab, &corpus.adr_vocab);
    format!("[{}] => [{}]", drugs.join(" + "), adrs.join(", "))
}

/// Directory experiment figures land in.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create figures dir");
    dir
}

/// The median of a non-empty sample; the upper one of an even-sized
/// sample.
fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs `f`, pushes its wall time in ns onto `samples`, and returns what
/// `f` returned, so a caller can check an output outside the timed span.
pub fn time_ns<T>(samples: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    samples.push(started.elapsed().as_nanos() as u64);
    out
}

/// Times two modes of one workload rep by rep, alternating which mode
/// runs first, so a host whose speed drifts over seconds slows both modes
/// alike. `run(mode, samples)` puts the workload in `mode`, times one rep
/// and pushes its samples; round 0 of `1 + rounds` is a discarded warm-up.
/// Returns the median sample of mode `true`, then of mode `false`.
pub fn alternating_medians(rounds: usize, mut run: impl FnMut(bool, &mut Vec<u64>)) -> (u64, u64) {
    let mut samples = [Vec::new(), Vec::new()]; // [true, false]
    for round in 0..=rounds {
        for mode in [round % 2 == 0, round % 2 == 1] {
            let mut rep = Vec::new();
            run(mode, &mut rep);
            if round > 0 {
                samples[usize::from(!mode)].extend(rep);
            }
        }
    }
    let [on, off] = samples.map(median);
    (on, off)
}

/// The single-mode sibling of [`alternating_medians`]: the median wall
/// time in ns of `run` over `rounds` timed reps, after one discarded
/// warm-up rep.
pub fn median_ns(rounds: usize, mut run: impl FnMut()) -> u64 {
    let mut samples = Vec::with_capacity(rounds + 1);
    for _ in 0..=rounds {
        time_ns(&mut samples, &mut run);
    }
    samples.remove(0);
    median(samples)
}

/// Writes `json` pretty-printed to `path` and says so on stdout.
pub fn write_json(path: &str, json: &Value) {
    let text = serde_json::to_string_pretty(json).expect("render json");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Prints a fixed-width table: a header row plus data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!(" {:<width$} |", c, width = widths[i]));
        }
        println!("{out}");
    };
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&sep);
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generation_is_consistent() {
        std::env::set_var("MARAS_SCALE", "test");
        let c = generate_quarter(1);
        assert_eq!(c.quarters.len(), 1);
        assert!(!c.quarters[0].reports.is_empty());
        assert!(!c.planted.is_empty());
        assert!(c.drug_vocab.id_of("IBUPROFEN").is_some());
    }

    #[test]
    fn median_picks_the_rounded_middle_rank() {
        assert_eq!(median(vec![50, 10, 40, 20, 30]), 30);
        assert_eq!(median(vec![40, 10, 30, 20]), 30);
        assert_eq!(median(vec![7]), 7);
    }

    #[test]
    fn alternating_medians_interleaves_modes_and_drops_the_warm_up() {
        let mut order = Vec::new();
        let (on, off) = alternating_medians(3, |mode, samples| {
            order.push(mode);
            // The warm-up round pushes outliers that must not count.
            let warm_up = order.len() <= 2;
            samples.push(if warm_up {
                1_000
            } else if mode {
                10
            } else {
                20
            });
        });
        assert_eq!(order, [true, false, false, true, true, false, false, true]);
        assert_eq!((on, off), (10, 20));
    }

    #[test]
    fn median_ns_runs_one_warm_up_then_the_rounds() {
        let mut calls = 0;
        median_ns(4, || calls += 1);
        assert_eq!(calls, 5);
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            &["a", "header"],
            &[vec!["1".into(), "x".into()], vec!["22".into(), "yy".into()]],
        );
    }
}
