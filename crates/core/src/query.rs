//! Rule search & filtering — the headless version of the §4.1 interface's
//! "Highlighting interesting drug-drug interactions" panel: search by a
//! specific drug, a drug combination, or an ADR; restrict by severity; and
//! restrict to interactions absent from the knowledge base.

use crate::knowledge::KnowledgeBase;
use crate::link::rule_max_severity;
use crate::pipeline::AnalysisResult;
use maras_faers::{CleanConfig, Vocabulary};

/// Canonicalizes one raw query term against a vocabulary the same way the
/// ingest cleaner resolves report strings (§5.2 step 1): whitespace folding,
/// exact match, case-folded exact match, then fuzzy lookup within the
/// cleaner's edit distance. Terms that resolve nowhere are returned
/// uppercased, which (like the legacy scan behaviour for unknown names)
/// matches nothing.
pub fn canonical_query_term(raw: &str, vocab: &Vocabulary) -> String {
    let max_dist = CleanConfig::default().max_edit_distance;
    let trimmed: String = raw.split_whitespace().collect::<Vec<_>>().join(" ");
    if let Some(id) = vocab.id_of(&trimmed) {
        return vocab.term(id).to_string();
    }
    let upper = trimmed.to_ascii_uppercase();
    if let Some(id) = vocab.id_of(&upper) {
        return vocab.term(id).to_string();
    }
    // Fuzzy-match both the verbatim and the case-folded spelling and keep
    // the closer hit (ties prefer the verbatim form for determinism).
    let best = match (vocab.nearest(&trimmed, max_dist), vocab.nearest(&upper, max_dist)) {
        (Some(a), Some(b)) => Some(if b.1 < a.1 { b } else { a }),
        (a, b) => a.or(b),
    };
    match best {
        Some((id, _)) => vocab.term(id).to_string(),
        None => upper,
    }
}

/// A composable filter over the ranked clusters.
#[derive(Debug, Clone, Default)]
pub struct RuleQuery {
    /// Drugs that must all appear in the antecedent (canonical names).
    pub require_drugs: Vec<String>,
    /// If non-empty, at least one of these ADR terms must appear.
    pub any_adr: Vec<String>,
    /// Minimum exclusiveness score.
    pub min_score: Option<f64>,
    /// Minimum severity (0–6, see `Outcome::severity`) among supporting
    /// reports.
    pub min_severity: Option<u8>,
    /// Exact drug-combination cardinality, if constrained.
    pub n_drugs: Option<usize>,
    /// Keep only interactions *not* documented in the knowledge base.
    pub unknown_only: bool,
    /// Keep only interactions carrying at least one ADR absent from every
    /// constituent drug's label — the "unknown ADR" preference (§1.3).
    pub novel_adr_only: bool,
    /// Minimum PRR point estimate in the cluster's score block.
    pub min_prr: Option<f64>,
    /// Minimum ROR point estimate in the cluster's score block.
    pub min_ror: Option<f64>,
}

impl RuleQuery {
    /// A fresh, match-everything query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requires a drug in the antecedent.
    pub fn with_drug(mut self, name: &str) -> Self {
        self.require_drugs.push(name.to_ascii_uppercase());
        self
    }

    /// Requires one of the given ADR terms in the consequent.
    pub fn with_any_adr(mut self, term: &str) -> Self {
        self.any_adr.push(term.to_string());
        self
    }

    /// Requires a minimum exclusiveness score.
    pub fn with_min_score(mut self, score: f64) -> Self {
        self.min_score = Some(score);
        self
    }

    /// Requires a minimum outcome severity among supporting reports.
    pub fn with_min_severity(mut self, severity: u8) -> Self {
        self.min_severity = Some(severity);
        self
    }

    /// Requires an exact antecedent size.
    pub fn with_n_drugs(mut self, n: usize) -> Self {
        self.n_drugs = Some(n);
        self
    }

    /// Keeps only undocumented interactions.
    pub fn unknown_only(mut self) -> Self {
        self.unknown_only = true;
        self
    }

    /// Keeps only interactions with at least one unlabeled ADR.
    pub fn novel_adr_only(mut self) -> Self {
        self.novel_adr_only = true;
        self
    }

    /// Requires a minimum PRR point estimate.
    pub fn with_min_prr(mut self, prr: f64) -> Self {
        self.min_prr = Some(prr);
        self
    }

    /// Requires a minimum ROR point estimate.
    pub fn with_min_ror(mut self, ror: f64) -> Self {
        self.min_ror = Some(ror);
        self
    }

    /// Returns a copy of the query with `require_drugs` and `any_adr`
    /// canonicalized through the vocabularies (spelling correction by
    /// [`Vocabulary::nearest`]), so near-miss spellings in queries resolve
    /// exactly like report strings do at ingest. [`RuleQuery::apply`] calls
    /// this internally; the indexed serving path reuses it so scan and
    /// index share one resolution rule.
    pub fn resolved(&self, drug_vocab: &Vocabulary, adr_vocab: &Vocabulary) -> RuleQuery {
        let mut q = self.clone();
        q.require_drugs = self
            .require_drugs
            .iter()
            .map(|d| canonical_query_term(d, drug_vocab).to_ascii_uppercase())
            .collect();
        q.any_adr = self.any_adr.iter().map(|a| canonical_query_term(a, adr_vocab)).collect();
        q
    }

    /// Applies the query, returning 0-based ranks (ascending = best first)
    /// of the clusters that match.
    pub fn apply(
        &self,
        result: &AnalysisResult,
        drug_vocab: &Vocabulary,
        adr_vocab: &Vocabulary,
        kb: Option<&KnowledgeBase>,
    ) -> Vec<usize> {
        let q = self.resolved(drug_vocab, adr_vocab);
        let mut out = Vec::new();
        'outer: for (rank, r) in result.ranked.iter().enumerate() {
            let t = &r.cluster.target;
            if let Some(n) = self.n_drugs {
                if t.drugs.len() != n {
                    continue;
                }
            }
            if let Some(min) = self.min_score {
                if r.score < min {
                    continue;
                }
            }
            if let Some(min) = self.min_prr {
                if r.scores.prr.estimate < min {
                    continue;
                }
            }
            if let Some(min) = self.min_ror {
                if r.scores.ror.estimate < min {
                    continue;
                }
            }
            let drug_names: Vec<String> = result
                .encoded
                .names(&t.drugs, drug_vocab, adr_vocab)
                .into_iter()
                .map(|n| n.to_ascii_uppercase())
                .collect();
            for need in &q.require_drugs {
                if !drug_names.contains(need) {
                    continue 'outer;
                }
            }
            if !q.any_adr.is_empty() {
                let adr_names = result.encoded.names(&t.adrs, drug_vocab, adr_vocab);
                if !q.any_adr.iter().any(|want| adr_names.iter().any(|have| have == want)) {
                    continue;
                }
            }
            if let Some(min_sev) = self.min_severity {
                let sev = rule_max_severity(result, t).map_or(0, |o| o.severity());
                if sev < min_sev {
                    continue;
                }
            }
            if self.unknown_only || self.novel_adr_only {
                if let Some(kb) = kb {
                    let refs: Vec<&str> = drug_names.iter().map(String::as_str).collect();
                    if self.unknown_only && kb.is_known(&refs) {
                        continue;
                    }
                    if self.novel_adr_only {
                        let adr_names = result.encoded.names(&t.adrs, drug_vocab, adr_vocab);
                        let adr_refs: Vec<&str> = adr_names.iter().map(String::as_str).collect();
                        if !kb.has_novel_adr(&refs, &adr_refs) {
                            continue;
                        }
                    }
                }
            }
            out.push(rank);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Pipeline;
    use maras_faers::{QuarterId, SynthConfig, Synthesizer};

    fn fixture() -> (AnalysisResult, Vocabulary, Vocabulary) {
        let mut cfg = SynthConfig::test_scale(17);
        cfg.n_reports = 1500;
        let mut synth = Synthesizer::new(cfg);
        let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        (result, dv, av)
    }

    #[test]
    fn empty_query_matches_everything_in_rank_order() {
        let (result, dv, av) = fixture();
        let hits = RuleQuery::new().apply(&result, &dv, &av, None);
        assert_eq!(hits.len(), result.ranked.len());
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn drug_filter_restricts_to_that_drug() {
        let (result, dv, av) = fixture();
        // Pick a drug from the top cluster so the filter has hits.
        let top_drugs = result.encoded.names(&result.ranked[0].cluster.target.drugs, &dv, &av);
        let q = RuleQuery::new().with_drug(&top_drugs[0]);
        let hits = q.apply(&result, &dv, &av, None);
        assert!(!hits.is_empty());
        for rank in hits {
            let names = result.encoded.names(&result.ranked[rank].cluster.target.drugs, &dv, &av);
            assert!(names.iter().any(|n| n.eq_ignore_ascii_case(&top_drugs[0])));
        }
    }

    #[test]
    fn score_and_cardinality_filters() {
        let (result, dv, av) = fixture();
        let median = result.ranked[result.ranked.len() / 2].score;
        let hits = RuleQuery::new().with_min_score(median).apply(&result, &dv, &av, None);
        assert!(hits.iter().all(|&r| result.ranked[r].score >= median));
        let two = RuleQuery::new().with_n_drugs(2).apply(&result, &dv, &av, None);
        assert!(two.iter().all(|&r| result.ranked[r].cluster.n_drugs() == 2));
    }

    #[test]
    fn disproportionality_filters_restrict_by_score_block() {
        let (result, dv, av) = fixture();
        let mut prrs: Vec<f64> = result.ranked.iter().map(|r| r.scores.prr.estimate).collect();
        prrs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_prr = prrs[prrs.len() / 2];
        let hits = RuleQuery::new().with_min_prr(median_prr).apply(&result, &dv, &av, None);
        assert!(!hits.is_empty());
        assert!(hits.len() < result.ranked.len());
        assert!(hits.iter().all(|&r| result.ranked[r].scores.prr.estimate >= median_prr));
        let ror_hits = RuleQuery::new().with_min_ror(1.0).apply(&result, &dv, &av, None);
        assert!(ror_hits.iter().all(|&r| result.ranked[r].scores.ror.estimate >= 1.0));
        // An impossible threshold matches nothing (post-correction all
        // estimates are finite).
        assert!(RuleQuery::new()
            .with_min_prr(f64::INFINITY)
            .apply(&result, &dv, &av, None)
            .is_empty());
    }

    #[test]
    fn unknown_only_drops_documented_interactions() {
        let (result, dv, av) = fixture();
        let kb = KnowledgeBase::literature_validated();
        let all = RuleQuery::new().apply(&result, &dv, &av, None);
        let unknown = RuleQuery::new().unknown_only().apply(&result, &dv, &av, Some(&kb));
        assert!(unknown.len() <= all.len());
        for rank in unknown {
            let names: Vec<String> =
                result.encoded.names(&result.ranked[rank].cluster.target.drugs, &dv, &av);
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            assert!(!kb.is_known(&refs));
        }
    }

    #[test]
    fn novel_adr_filter_drops_fully_labeled_consequents() {
        let (result, dv, av) = fixture();
        let mut kb = KnowledgeBase::new();
        // Label every ADR of the top cluster on its first drug: the top
        // cluster then has no novel ADR and must be filtered out.
        let top = &result.ranked[0].cluster.target;
        let drugs = result.encoded.names(&top.drugs, &dv, &av);
        for adr in result.encoded.names(&top.adrs, &dv, &av) {
            kb.add_label(&drugs[0], &adr);
        }
        let hits = RuleQuery::new().novel_adr_only().apply(&result, &dv, &av, Some(&kb));
        assert!(!hits.contains(&0), "fully-labeled top cluster must be dropped");
        // With an empty KB everything has novel ADRs.
        let empty = KnowledgeBase::new();
        let all = RuleQuery::new().novel_adr_only().apply(&result, &dv, &av, Some(&empty));
        assert_eq!(all.len(), result.ranked.len());
    }

    #[test]
    fn severity_filter_is_monotone() {
        let (result, dv, av) = fixture();
        let lo = RuleQuery::new().with_min_severity(1).apply(&result, &dv, &av, None);
        let hi = RuleQuery::new().with_min_severity(6).apply(&result, &dv, &av, None);
        assert!(hi.len() <= lo.len());
        for rank in &hi {
            assert!(lo.contains(rank));
        }
    }

    #[test]
    fn canonical_query_term_matches_ingest_resolution() {
        let dv = Vocabulary::drugs(200);
        let av = Vocabulary::adrs(160);
        assert_eq!(canonical_query_term("IBUPROFEN", &dv), "IBUPROFEN");
        assert_eq!(canonical_query_term("IBUPROFFEN", &dv), "IBUPROFEN");
        assert_eq!(canonical_query_term("ibuprofen", &dv), "IBUPROFEN");
        assert_eq!(canonical_query_term("  Acute   renal failure ", &av), "Acute renal failure");
        assert_eq!(canonical_query_term("acute renal failure", &av), "Acute renal failure");
        assert_eq!(canonical_query_term("Acute renal failur", &av), "Acute renal failure");
        // Unresolvable terms fall back to the legacy uppercased form.
        assert_eq!(canonical_query_term("QQQQQQQQQQQ", &dv), "QQQQQQQQQQQ");
    }

    #[test]
    fn near_miss_query_spellings_resolve_like_ingest() {
        let (result, dv, av) = fixture();
        let exact = RuleQuery::new().with_drug("IBUPROFEN").apply(&result, &dv, &av, None);
        let typo = RuleQuery::new().with_drug("IBUPROFFEN").apply(&result, &dv, &av, None);
        assert_eq!(exact, typo);
        let exact = RuleQuery::new().with_any_adr("Pain").apply(&result, &dv, &av, None);
        let typo = RuleQuery::new().with_any_adr("pain").apply(&result, &dv, &av, None);
        assert_eq!(exact, typo);
    }

    #[test]
    fn adr_filter_matches_consequents() {
        let (result, dv, av) = fixture();
        let top_adrs = result.encoded.names(&result.ranked[0].cluster.target.adrs, &dv, &av);
        let hits = RuleQuery::new().with_any_adr(&top_adrs[0]).apply(&result, &dv, &av, None);
        assert!(hits.contains(&0));
    }
}
