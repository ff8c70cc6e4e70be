//! The drug-ADR association rule (thesis §3.1).

use crate::measures::RuleStats;
use crate::partition::ItemPartition;
use maras_mining::{Item, ItemSet, TransactionDb};
use std::fmt;

/// A drug-ADR association `A ⇒ B` with `A ⊆ I_drug`, `B ⊆ I_ade` (§3.1),
/// carrying the counts its measures derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct DrugAdrRule {
    /// Antecedent: the drug combination.
    pub drugs: ItemSet,
    /// Consequent: the ADR set.
    pub adrs: ItemSet,
    /// Raw counts (support of rule / antecedent / consequent, and N).
    pub stats: RuleStats,
}

impl DrugAdrRule {
    /// Builds a rule from a mixed itemset, counting the antecedent and
    /// consequent supports against the database.
    ///
    /// Returns `None` if the itemset lacks either a drug or an ADR item.
    pub fn from_itemset(
        itemset: &ItemSet,
        support: u64,
        partition: &ItemPartition,
        db: &TransactionDb,
    ) -> Option<Self> {
        Self::from_pattern(itemset.items(), support, partition, db)
    }

    /// Builds a rule from a mixed pattern borrowed as a sorted item slice —
    /// the arena-store path. Owned [`ItemSet`]s are materialized here, at the
    /// final rule boundary, and nowhere upstream.
    ///
    /// Returns `None` if the slice lacks either a drug or an ADR item.
    pub fn from_pattern(
        items: &[Item],
        support: u64,
        partition: &ItemPartition,
        db: &TransactionDb,
    ) -> Option<Self> {
        if !partition.is_mixed_items(items) {
            return None;
        }
        let (drugs, adrs) = partition.split_items(items);
        let stats = RuleStats {
            support_ab: support,
            support_a: db.support_of(drugs) as u64,
            support_b: db.support_of(adrs) as u64,
            n_transactions: db.len() as u64,
        };
        Some(DrugAdrRule {
            drugs: ItemSet::from_sorted_unchecked(drugs.to_vec()),
            adrs: ItemSet::from_sorted_unchecked(adrs.to_vec()),
            stats,
        })
    }

    /// Builds a rule for an explicit (drugs, adrs) split, counting all three
    /// supports. Used for contextual sub-rules, which need not be frequent.
    pub fn from_parts(drugs: ItemSet, adrs: ItemSet, db: &TransactionDb) -> Self {
        let stats = Self::split_stats(drugs.items(), adrs.items(), db);
        DrugAdrRule { drugs, adrs, stats }
    }

    /// Builds a rule from borrowed (drugs, adrs) slices, counting all three
    /// supports without materializing the union. The MCAC context loop uses
    /// this to enumerate `2^n − 2` contextual sub-rules per cluster straight
    /// from borrowed antecedent subsets.
    pub fn from_split_slices(drugs: &[Item], adrs: &[Item], db: &TransactionDb) -> Self {
        let stats = Self::split_stats(drugs, adrs, db);
        DrugAdrRule {
            drugs: ItemSet::from_sorted_unchecked(drugs.to_vec()),
            adrs: ItemSet::from_sorted_unchecked(adrs.to_vec()),
            stats,
        }
    }

    fn split_stats(drugs: &[Item], adrs: &[Item], db: &TransactionDb) -> RuleStats {
        RuleStats {
            support_ab: db.support_of_union(drugs, adrs) as u64,
            support_a: db.support_of(drugs) as u64,
            support_b: db.support_of(adrs) as u64,
            n_transactions: db.len() as u64,
        }
    }

    /// The complete itemset `A ∪ B` of the rule (§3.4 "complete itemset").
    pub fn complete_itemset(&self) -> ItemSet {
        self.drugs.union(&self.adrs)
    }

    /// Number of drugs in the antecedent.
    pub fn n_drugs(&self) -> usize {
        self.drugs.len()
    }

    /// Whether this is a multi-drug rule (≥ 2 drugs), the only kind MARAS
    /// evaluates for drug-drug interaction (§3.4 end).
    pub fn is_multi_drug(&self) -> bool {
        self.drugs.len() >= 2
    }

    /// Confidence (Formula 2.2).
    pub fn confidence(&self) -> f64 {
        self.stats.confidence()
    }

    /// Lift (Formula 2.3).
    pub fn lift(&self) -> f64 {
        self.stats.lift()
    }

    /// Absolute support (Formula 2.1).
    pub fn support(&self) -> u64 {
        self.stats.support_ab
    }
}

impl fmt::Display for DrugAdrRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} => {} (sup={}, conf={:.3}, lift={:.2})",
            self.drugs,
            self.adrs,
            self.support(),
            self.confidence(),
            self.lift()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::Item;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn from_itemset_splits_and_counts() {
        let p = ItemPartition::new(10);
        let d = db(&[&[0, 1, 10], &[0, 1, 10], &[0, 2], &[1, 10]]);
        let rule = DrugAdrRule::from_itemset(&set(&[0, 1, 10]), 2, &p, &d).expect("mixed itemset");
        assert_eq!(rule.drugs, set(&[0, 1]));
        assert_eq!(rule.adrs, set(&[10]));
        assert_eq!(rule.stats.support_ab, 2);
        assert_eq!(rule.stats.support_a, 2); // {0,1} in tids 0,1
        assert_eq!(rule.stats.support_b, 3); // {10} in tids 0,1,3
        assert_eq!(rule.stats.n_transactions, 4);
        assert_eq!(rule.confidence(), 1.0);
        assert!(rule.is_multi_drug());
    }

    #[test]
    fn from_itemset_rejects_pure_sets() {
        let p = ItemPartition::new(10);
        let d = db(&[&[0, 1]]);
        assert!(DrugAdrRule::from_itemset(&set(&[0, 1]), 1, &p, &d).is_none());
        assert!(DrugAdrRule::from_itemset(&set(&[10, 11]), 1, &p, &d).is_none());
        assert!(DrugAdrRule::from_itemset(&ItemSet::empty(), 0, &p, &d).is_none());
    }

    #[test]
    fn from_parts_counts_unsupported_combination() {
        // Contextual sub-rule whose drug subset never co-occurs with the ADRs.
        let d = db(&[&[0, 10], &[1, 11]]);
        let rule = DrugAdrRule::from_parts(set(&[1]), set(&[10]), &d);
        assert_eq!(rule.stats.support_ab, 0);
        assert_eq!(rule.confidence(), 0.0);
        assert_eq!(rule.lift(), 0.0);
    }

    #[test]
    fn complete_itemset_roundtrip() {
        let d = db(&[&[0, 1, 10]]);
        let rule = DrugAdrRule::from_parts(set(&[0, 1]), set(&[10]), &d);
        assert_eq!(rule.complete_itemset(), set(&[0, 1, 10]));
        assert_eq!(rule.n_drugs(), 2);
    }

    #[test]
    fn display_is_readable() {
        let d = db(&[&[0, 10]]);
        let rule = DrugAdrRule::from_parts(set(&[0]), set(&[10]), &d);
        let s = rule.to_string();
        assert!(s.contains("=>"), "{s}");
        assert!(s.contains("conf=1.000"), "{s}");
    }
}
