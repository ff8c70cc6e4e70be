//! Multi-drug interaction baselines.
//!
//! * [`harpaz_rank`] — Harpaz, Chase & Friedman's method (thesis ref. \[17\]):
//!   mine closed multi-item drug→ADR associations and rank them by relative
//!   reporting ratio. This is the closest prior art the thesis's §6 compares
//!   MARAS against ("lacks … contextual information").
//! * [`interaction_contrast`] — a shrunken log-contrast between the
//!   combination's event rate and the best single-drug event rate, in the
//!   spirit of Norén-style Ω interaction scores: positive only when the
//!   combination out-reports every constituent.

use crate::contingency::ContingencyTable;
use crate::disproportionality::rrr;
use maras_mining::{Item, ItemSet, TransactionDb};
use maras_rules::{multi_drug_rules, DrugAdrRule, ItemPartition};

/// A multi-item association scored by relative reporting ratio.
#[derive(Debug, Clone)]
pub struct HarpazSignal {
    /// The association.
    pub rule: DrugAdrRule,
    /// Relative reporting ratio of the complete itemset.
    pub rrr: f64,
}

/// Harpaz-style baseline: closed multi-drug associations ranked by RRR,
/// ties broken by support then antecedent for determinism.
pub fn harpaz_rank(
    db: &TransactionDb,
    partition: &ItemPartition,
    min_support: u64,
) -> Vec<HarpazSignal> {
    let mut out: Vec<HarpazSignal> = multi_drug_rules(db, partition, min_support)
        .into_iter()
        .map(|rule| {
            let t = ContingencyTable::from_db(db, &rule.drugs, &rule.adrs);
            HarpazSignal { rrr: rrr(&t), rule }
        })
        .collect();
    out.sort_by(|a, b| {
        b.rrr
            .partial_cmp(&a.rrr)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.rule.support().cmp(&a.rule.support()))
            .then_with(|| a.rule.drugs.cmp(&b.rule.drugs))
    });
    out
}

/// Shrunken log₂ contrast between the combination's conditional event
/// probability and the strongest single constituent's:
///
/// `IC = log₂[(P(B|A) + s) / (maxᵢ P(B|{dᵢ}) + s)]`, with shrinkage
/// `s = 0.5 / N` taming zero counts. Positive values indicate the
/// combination reports the ADR more often than any of its drugs alone.
pub fn interaction_contrast(db: &TransactionDb, drugs: &ItemSet, adrs: &ItemSet) -> f64 {
    assert!(drugs.len() >= 2, "interaction contrast needs >= 2 drugs");
    let n = db.len().max(1) as f64;
    let s = 0.5 / n;
    let p_combo = conditional(db, drugs, adrs);
    let p_best_single = drugs
        .iter()
        .map(|d| conditional(db, &ItemSet::singleton(Item(d.0)), adrs))
        .fold(0.0f64, f64::max);
    ((p_combo + s) / (p_best_single + s)).log2()
}

fn conditional(db: &TransactionDb, drugs: &ItemSet, adrs: &ItemSet) -> f64 {
    let exposed = db.support(drugs) as f64;
    if exposed == 0.0 {
        return 0.0;
    }
    db.support(&drugs.union(adrs)) as f64 / exposed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    const P: ItemPartition = ItemPartition { adr_start: 10 };

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn contrast_positive_for_exclusive_combo() {
        let d = db(&[&[0, 1, 10], &[0, 1, 10], &[0, 2], &[0, 3], &[1, 2], &[1, 3]]);
        // P(10|{0,1}) = 1.0; best single is P(10|{0}) = 0.5 (the combo
        // reports count toward single-drug exposure too) → contrast ≈ 1 bit.
        let ic = interaction_contrast(&d, &set(&[0, 1]), &set(&[10]));
        assert!(ic > 0.8, "exclusive combo should have positive contrast: {ic}");
    }

    #[test]
    fn contrast_near_zero_for_dominated_combo() {
        // Drug 0 alone causes the ADR at the same rate.
        let d = db(&[&[0, 1, 10], &[0, 1, 10], &[0, 10], &[0, 10], &[1, 2]]);
        let ic = interaction_contrast(&d, &set(&[0, 1]), &set(&[10]));
        assert!(ic.abs() < 0.1, "dominated combo contrast should vanish: {ic}");
    }

    #[test]
    fn contrast_negative_when_single_stronger() {
        let d = db(&[&[0, 10], &[0, 10], &[0, 10], &[0, 1, 10], &[0, 1, 2], &[0, 1, 3]]);
        // P(10|{0,1}) = 1/3 ; P(10|{0}) = 4/6.
        let ic = interaction_contrast(&d, &set(&[0, 1]), &set(&[10]));
        assert!(ic < -0.5, "{ic}");
    }

    #[test]
    fn contrast_handles_unseen_combo() {
        let d = db(&[&[0, 10], &[1, 11]]);
        let ic = interaction_contrast(&d, &set(&[0, 1]), &set(&[10]));
        assert!(ic.is_finite());
    }

    #[test]
    #[should_panic(expected = ">= 2 drugs")]
    fn contrast_rejects_single_drug() {
        let d = db(&[&[0, 10]]);
        interaction_contrast(&d, &set(&[0]), &set(&[10]));
    }

    #[test]
    fn harpaz_ranks_by_rrr() {
        let d = db(&[
            // rare combo with rare ADR → huge RRR
            &[0, 1, 12],
            &[0, 1, 12],
            // frequent combo with frequent ADR → modest RRR
            &[2, 3, 10],
            &[2, 3, 10],
            &[2, 3, 10],
            &[4, 10],
            &[5, 10],
            &[6, 10],
            &[7, 2],
            &[8, 3],
        ]);
        let ranked = harpaz_rank(&d, &P, 2);
        assert!(!ranked.is_empty());
        assert!(ranked.windows(2).all(|w| w[0].rrr >= w[1].rrr));
        let top = &ranked[0];
        assert_eq!(top.rule.drugs, set(&[0, 1]));
        assert!(top.rrr > ranked.last().unwrap().rrr);
    }

    #[test]
    fn harpaz_scores_match_manual_rrr() {
        let d = db(&[&[0, 1, 10], &[0, 1, 10], &[0, 2], &[3, 10]]);
        for s in harpaz_rank(&d, &P, 1) {
            let t = ContingencyTable::from_db(&d, &s.rule.drugs, &s.rule.adrs);
            assert_eq!(s.rrr, rrr(&t));
        }
    }
}
