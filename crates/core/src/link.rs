//! Rule → raw-report drill-down (thesis §4.1, "Mapping the drug-drug
//! interactions to actual reports").
//!
//! "It is essential to analyze the original data reports submitted by
//! patients that supports the corresponding drug-drug interactions" — the
//! evaluator needs age, history and co-medication context. The pipeline
//! keeps tid → source-report provenance, so any mined rule resolves to the
//! exact FAERS case reports in its cover. One rule's cover comes from
//! [`supporting_tids`]; every ranked target's at once from
//! [`target_covers`], one scan of the transactions instead of one tid-list
//! intersection per target.

use crate::pipeline::AnalysisResult;
use maras_faers::model::{CaseReport, Outcome};
use maras_mining::Covers;
use maras_rules::DrugAdrRule;

/// Transaction ids of a rule's cover (every transaction containing all of
/// the rule's drugs and ADRs), ascending. This is the canonical ordering
/// the evidence archive's postings intersection must reproduce exactly.
pub fn supporting_tids(result: &AnalysisResult, rule: &DrugAdrRule) -> Vec<u32> {
    result.encoded.db.cover_tids(&rule.complete_itemset())
}

/// Every ranked target's cover from one batch call
/// ([`TransactionDb::covers`](maras_mining::TransactionDb::covers)): cover
/// `i` is [`supporting_tids`] of `result.ranked[i]`'s target.
pub fn target_covers(result: &AnalysisResult) -> Covers {
    result.encoded.db.covers(result.ranked.iter().map(|r| {
        let target = &r.cluster.target;
        (target.drugs.iter().chain(target.adrs.iter()), target.support())
    }))
}

/// The raw case reports supporting a rule, in tid order.
pub fn supporting_reports<'a>(
    result: &'a AnalysisResult,
    rule: &DrugAdrRule,
) -> Vec<&'a CaseReport> {
    supporting_tids(result, rule)
        .into_iter()
        .map(|tid| &result.quarter.reports[result.cleaned[tid as usize].source_index])
        .collect()
}

/// FAERS case ids of the reports with the given tids (a rule's
/// [`supporting_tids`]), in the same order.
pub fn supporting_case_ids(result: &AnalysisResult, tids: &[u32]) -> Vec<u64> {
    tids.iter().map(|&tid| result.cleaned[tid as usize].case_id).collect()
}

/// The most severe outcome among a rule's supporting reports — the basis of
/// the interface's "interactions that may lead to particularly severe
/// adverse reactions" filter.
pub fn rule_max_severity(result: &AnalysisResult, rule: &DrugAdrRule) -> Option<Outcome> {
    max_severity(result, &supporting_tids(result, rule))
}

/// The most severe outcome among the reports with the given tids, so a
/// caller that already holds a rule's cover need not compute it again.
pub fn max_severity(result: &AnalysisResult, tids: &[u32]) -> Option<Outcome> {
    tids.iter()
        .filter_map(|&tid| result.cleaned[tid as usize].max_severity)
        .max_by_key(|o| o.severity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::Pipeline;
    use maras_faers::{QuarterId, SynthConfig, Synthesizer};

    #[test]
    fn supporting_reports_contain_the_rules_drugs() {
        let mut synth = Synthesizer::new(SynthConfig::test_scale(5));
        let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
        let dv = synth.drug_vocab().clone();
        let av = synth.adr_vocab().clone();
        let result = Pipeline::new(PipelineConfig::default()).run(quarter, &dv, &av);
        let Some(top) = result.ranked.first() else {
            panic!("expected at least one mined cluster");
        };
        let rule = &top.cluster.target;
        let reports = supporting_reports(&result, rule);
        assert_eq!(reports.len() as u64, rule.support());
        // Every supporting report, after normalization, mentions every drug
        // of the rule — check via the cleaned view keyed by case id.
        let ids = supporting_case_ids(&result, &supporting_tids(&result, rule));
        assert_eq!(ids.len(), reports.len());
        for (report, case_id) in reports.iter().zip(&ids) {
            assert_eq!(report.case_id, *case_id);
            let cleaned = result
                .cleaned
                .iter()
                .find(|c| c.case_id == *case_id)
                .expect("cleaned entry exists");
            for drug_item in rule.drugs.iter() {
                assert!(cleaned.drug_ids.contains(&drug_item.0));
            }
        }
        // Severity: expedited reports are always serious, so a max exists.
        assert!(rule_max_severity(&result, rule).is_some());
        // The batch covers are the per-rule ones.
        let covers = target_covers(&result);
        assert_eq!(covers.len(), result.ranked.len());
        for (r, cover) in result.ranked.iter().zip(covers.iter()) {
            assert_eq!(cover, supporting_tids(&result, &r.cluster.target));
        }
    }
}
