//! The MARAS pipeline: clean → encode → mine → cluster → rank.

use crate::config::PipelineConfig;
use crate::encode::{encode_reports, Encoded};
use maras_faers::{CleanedReport, Cleaner, CleaningStats, QuarterData, Vocabulary};
use maras_mcac::{rank_clusters_with, RankedMcac};
use maras_mining::PatternStore;
use maras_obs::{Event, Level};
use maras_rules::{rule_space, RuleSpaceCounts};
use maras_signals::SignalScores;
use std::time::Instant;

/// Emits the per-phase flight-recorder event batch runs log at Info.
fn phase_event(quarter: &str, phase: &str, out: usize, started: Instant) {
    Event::new(Level::Info, "pipeline.phase")
        .field("quarter", quarter)
        .field("phase", phase)
        .field("out", out)
        .field("elapsed_us", started.elapsed().as_micros() as u64)
        .emit();
}

/// Runs MARAS over quarters of FAERS data.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full analysis over one quarter.
    ///
    /// The returned [`AnalysisResult`] owns the (possibly EXP-filtered)
    /// quarter so rules can always be traced back to raw reports.
    pub fn run(
        &self,
        quarter: QuarterData,
        drug_vocab: &Vocabulary,
        adr_vocab: &Vocabulary,
    ) -> AnalysisResult {
        let mut cleaner = Cleaner::new(drug_vocab, adr_vocab, self.config.clean.clone());
        self.run_with_cleaner(quarter, &mut cleaner)
    }

    /// [`Self::run`] with a caller-supplied [`Cleaner`].
    ///
    /// Multi-quarter drivers pass one cleaner for the whole run so the
    /// drug/ADR canonicalization memos carry across quarters — repeated
    /// verbatim strings pay the fuzzy vocabulary search once per run, not
    /// once per quarter. The cleaner's own `CleanConfig` governs cleaning;
    /// build it from [`PipelineConfig::clean`] to match [`Self::run`].
    pub fn run_with_cleaner(
        &self,
        quarter: QuarterData,
        cleaner: &mut Cleaner<'_>,
    ) -> AnalysisResult {
        let (drug_vocab, adr_vocab) = (cleaner.drug_vocab(), cleaner.adr_vocab());

        // 1. §5.1 selection.
        let quarter = if self.config.expedited_only { quarter.expedited_only() } else { quarter };
        let qid = quarter.id.to_string();

        // 2. §5.2 step 1: clean.
        let t = Instant::now();
        let (cleaned, cleaning) = cleaner.clean_quarter(&quarter);
        phase_event(&qid, "clean", cleaned.len(), t);

        // 3. Encode into the item space.
        let t = Instant::now();
        let encode_span = maras_obs::span("encode");
        let encoded = encode_reports(&cleaned, drug_vocab, adr_vocab);
        drop(encode_span);
        phase_event(&qid, "encode", encoded.db.len(), t);

        // 4. §5.2 steps 2–3: one shared mining pass produces the Fig. 5.1
        //    rule-space accounting, the closed-pattern store, and the
        //    multi-drug target rules with every count their clusters need,
        //    read from the frequent store rather than the tid-lists.
        let t = Instant::now();
        let space = rule_space(
            &encoded.db,
            &encoded.partition,
            self.config.min_support,
            self.config.effective_threads(),
        );
        phase_event(&qid, "mine", space.multi_drug_rules.len(), t);

        // 5. §5.2 step 4: MCACs with their full signal-score blocks, ranked
        //    under the configured key (exclusiveness by default). The score
        //    engine shards the batch across the same worker count as mining.
        let t = Instant::now();
        let ranked = rank_clusters_with(
            space.multi_drug_rules,
            &encoded.db,
            self.config.ranking_method(),
            self.config.effective_threads(),
        );
        phase_event(&qid, "score", ranked.len(), t);

        AnalysisResult {
            quarter,
            cleaned,
            cleaning,
            encoded,
            counts: space.counts,
            closed_patterns: space.closed,
            ranked,
        }
    }
}

/// Everything one quarter's analysis produced, with full provenance.
#[derive(Debug)]
pub struct AnalysisResult {
    /// The analyzed quarter (after the EXP filter, if enabled).
    pub quarter: QuarterData,
    /// Cleaned, abstracted reports (aligned with transaction tids).
    pub cleaned: Vec<CleanedReport>,
    /// What cleaning did.
    pub cleaning: CleaningStats,
    /// Transaction database + partition (tid `t` is `cleaned[t]`).
    pub encoded: Encoded,
    /// Fig. 5.1-style rule-space sizes.
    pub counts: RuleSpaceCounts,
    /// Closed frequent patterns in the arena store (support desc, items asc),
    /// the §5.2 step-2 artifact downstream consumers can borrow slices from.
    pub closed_patterns: PatternStore,
    /// MCACs in descending order of the configured ranking key, each
    /// carrying its full disproportionality score block.
    pub ranked: Vec<RankedMcac>,
}

impl AnalysisResult {
    /// The top `k` clusters (fewer if the ranking is shorter).
    pub fn top(&self, k: usize) -> &[RankedMcac] {
        &self.ranked[..k.min(self.ranked.len())]
    }

    /// Human-readable view of the `rank`-th cluster (0-based).
    ///
    /// # Panics
    /// Panics if `rank` is out of range; use [`Self::try_view`] when the rank
    /// comes from untrusted input (CLI flags, HTTP paths).
    pub fn view(&self, rank: usize, drug_vocab: &Vocabulary, adr_vocab: &Vocabulary) -> RuleView {
        self.try_view(rank, drug_vocab, adr_vocab).expect("rank out of range")
    }

    /// Checked variant of [`Self::view`]: `None` when `rank` exceeds the
    /// ranking instead of panicking.
    pub fn try_view(
        &self,
        rank: usize,
        drug_vocab: &Vocabulary,
        adr_vocab: &Vocabulary,
    ) -> Option<RuleView> {
        let r = self.ranked.get(rank)?;
        let t = &r.cluster.target;
        Some(RuleView {
            rank: rank + 1,
            drugs: self.encoded.names(&t.drugs, drug_vocab, adr_vocab),
            adrs: self.encoded.names(&t.adrs, drug_vocab, adr_vocab),
            score: r.score,
            support: t.support(),
            confidence: t.confidence(),
            lift: t.lift(),
            scores: r.scores,
        })
    }

    /// Views of the top `k` clusters.
    pub fn views(
        &self,
        k: usize,
        drug_vocab: &Vocabulary,
        adr_vocab: &Vocabulary,
    ) -> Vec<RuleView> {
        (0..k.min(self.ranked.len())).map(|i| self.view(i, drug_vocab, adr_vocab)).collect()
    }

    /// Position (0-based rank) of the cluster whose target matches the given
    /// canonical drug names and ADR terms exactly, if mined.
    pub fn rank_of(
        &self,
        drugs: &[&str],
        adrs: &[&str],
        drug_vocab: &Vocabulary,
        adr_vocab: &Vocabulary,
    ) -> Option<usize> {
        let want_drugs: Option<Vec<u32>> = drugs.iter().map(|d| drug_vocab.id_of(d)).collect();
        let want_adrs: Option<Vec<u32>> = adrs.iter().map(|a| adr_vocab.id_of(a)).collect();
        let (mut want_drugs, mut want_adrs) = (want_drugs?, want_adrs?);
        want_drugs.sort_unstable();
        want_adrs.sort_unstable();
        self.ranked.iter().position(|r| {
            let t = &r.cluster.target;
            t.drugs.iter().map(|i| i.0).eq(want_drugs.iter().copied())
                && t.adrs
                    .iter()
                    .map(|i| self.encoded.partition.adr_index(i))
                    .eq(want_adrs.iter().copied())
        })
    }
}

/// A display-ready row of the ranked output (what the §4.1 interface lists).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleView {
    /// 1-based rank.
    pub rank: usize,
    /// Canonical drug names of the antecedent.
    pub drugs: Vec<String>,
    /// Canonical ADR terms of the consequent.
    pub adrs: Vec<String>,
    /// Score under the run's ranking key (exclusiveness by default).
    pub score: f64,
    /// Absolute support.
    pub support: u64,
    /// Confidence.
    pub confidence: f64,
    /// Lift.
    pub lift: f64,
    /// Full disproportionality block (RRR, PRR/ROR with CIs, χ², IC, EBGM,
    /// interaction contrast, exclusiveness).
    pub scores: SignalScores,
}

impl std::fmt::Display for RuleView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} [{}] => [{}] score={:.4} sup={} conf={:.3} lift={:.1}",
            self.rank,
            self.drugs.join(" + "),
            self.adrs.join(", "),
            self.score,
            self.support,
            self.confidence,
            self.lift
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_faers::{PlantedInteraction, SynthConfig, Synthesizer};

    fn run_small() -> (AnalysisResult, Vocabulary, Vocabulary) {
        let mut cfg = SynthConfig::test_scale(11);
        cfg.n_reports = 1200;
        // Boost a single planted interaction to make the test sharp.
        cfg.interactions = vec![PlantedInteraction {
            co_report_rate: 0.01,
            ..PlantedInteraction::new(&["IBUPROFEN", "METAMIZOLE"], &["Acute renal failure"])
        }];
        let mut synth = Synthesizer::new(cfg);
        let quarter = synth.generate_quarter(maras_faers::QuarterId::new(2014, 1));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        (result, dv, av)
    }

    #[test]
    fn pipeline_end_to_end_recovers_planted_interaction() {
        let (result, dv, av) = run_small();
        assert!(result.counts.mcacs > 0, "no MCACs mined: {:?}", result.counts);
        assert!(!result.ranked.is_empty());
        let rank = result
            .rank_of(&["IBUPROFEN", "METAMIZOLE"], &["Acute renal failure"], &dv, &av)
            .expect("planted interaction must be mined");
        // It should be in the leading ranks of the list.
        assert!(
            rank < result.ranked.len().div_ceil(5),
            "planted interaction ranked {rank} of {}",
            result.ranked.len()
        );
    }

    #[test]
    fn views_are_displayable_and_ordered() {
        let (result, dv, av) = run_small();
        let views = result.views(5, &dv, &av);
        assert!(!views.is_empty());
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.rank, i + 1);
            assert!(!v.drugs.is_empty());
            assert!(!v.adrs.is_empty());
            let s = v.to_string();
            assert!(s.contains("=>"), "{s}");
        }
        let scores: Vec<f64> = views.iter().map(|v| v.score).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn exp_filter_reduces_reports() {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(3));
        let quarter = synth.generate_quarter(maras_faers::QuarterId::new(2014, 1));
        let n_raw = quarter.reports.len();
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        assert!(result.quarter.reports.len() < n_raw);
        assert!(result
            .quarter
            .reports
            .iter()
            .all(|r| r.report_type == maras_faers::ReportType::Expedited));
    }

    #[test]
    fn counts_shrink_along_the_funnel() {
        let (result, _, _) = run_small();
        let c = result.counts;
        assert!(c.mcacs <= c.filtered_rules);
        assert!(c.filtered_rules <= c.total_rules);
        assert!(c.closed_itemsets <= c.frequent_itemsets);
    }

    #[test]
    fn rank_of_unknown_names_is_none() {
        let (result, dv, av) = run_small();
        assert_eq!(result.rank_of(&["NOT_A_DRUG"], &["Pain"], &dv, &av), None);
    }

    #[test]
    fn try_view_checks_bounds() {
        let (result, dv, av) = run_small();
        assert!(result.try_view(0, &dv, &av).is_some());
        assert!(result.try_view(result.ranked.len(), &dv, &av).is_none());
        assert!(result.try_view(usize::MAX, &dv, &av).is_none());
        assert_eq!(result.try_view(0, &dv, &av).unwrap(), result.view(0, &dv, &av));
    }

    #[test]
    fn closed_patterns_store_matches_counts() {
        let (result, _, _) = run_small();
        assert_eq!(result.closed_patterns.len() as u64, result.counts.closed_itemsets);
        // Store contract: strictly ascending item slices, positive support.
        for (items, support) in result.closed_patterns.iter() {
            assert!(items.windows(2).all(|w| w[0] < w[1]));
            assert!(support > 0);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(5));
        let quarter = synth.generate_quarter(maras_faers::QuarterId::new(2015, 2));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let seq = Pipeline::new(PipelineConfig::default().with_n_threads(1)).run(
            quarter.clone(),
            &dv,
            &av,
        );
        let par = Pipeline::new(PipelineConfig::default().with_n_threads(4)).run(quarter, &dv, &av);
        assert_eq!(seq.counts, par.counts);
        assert!(seq.closed_patterns.iter().eq(par.closed_patterns.iter()));
        assert_eq!(seq.ranked.len(), par.ranked.len());
        for (a, b) in seq.ranked.iter().zip(&par.ranked) {
            assert_eq!(a.cluster.target, b.cluster.target);
            assert_eq!(a.score, b.score);
            // The whole score block must be bit-identical too.
            assert_eq!(a.scores, b.scores);
        }
    }

    #[test]
    fn rank_by_baseline_reorders_by_its_key() {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(5));
        let quarter = synth.generate_quarter(maras_faers::QuarterId::new(2015, 2));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result =
            Pipeline::new(PipelineConfig::default().with_rank_by(maras_signals::RankKey::Prr))
                .run(quarter, &dv, &av);
        assert!(!result.ranked.is_empty());
        for r in &result.ranked {
            assert_eq!(r.score, r.scores.prr.estimate);
        }
        assert!(result.ranked.windows(2).all(|w| w[0].score >= w[1].score));
        // Views expose the block.
        let v = result.view(0, &dv, &av);
        assert_eq!(v.scores, result.ranked[0].scores);
    }
}
