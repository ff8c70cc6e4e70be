//! MCAC construction (thesis §3.5, Defs 3.5.1–3.5.2, Table 3.1).

use maras_mining::{ItemSet, TransactionDb};
use maras_rules::DrugAdrRule;

/// One level of a cluster's context: all contextual rules whose antecedent
/// has the same cardinality `k`, ordered by descending confidence (the order
/// the contextual glyph lays sectors out in, §4).
#[derive(Debug, Clone, PartialEq)]
pub struct ContextLevel {
    /// Antecedent cardinality of every rule in this level.
    pub cardinality: usize,
    /// Contextual rules `X ⇒ B`, `|X| = cardinality`, sorted by descending
    /// confidence (ties broken by antecedent for determinism).
    pub rules: Vec<DrugAdrRule>,
}

/// A multi-level contextual association cluster: a *target* multi-drug rule
/// together with its complete context (Def. 3.5.2 — one contextual rule per
/// non-empty proper subset of the target's antecedent, same consequent).
#[derive(Debug, Clone, PartialEq)]
pub struct Mcac {
    /// The evaluated multi-drug association.
    pub target: DrugAdrRule,
    /// Context levels in descending cardinality (`n-1` first, singletons
    /// last), mirroring Table 3.1's `R̃₂` before `R̃₁` presentation.
    pub levels: Vec<ContextLevel>,
}

impl Mcac {
    /// Builds the cluster for `target`, counting every contextual rule's
    /// support/confidence/lift directly against the database (contextual
    /// rules are routinely below the mining threshold, so they cannot come
    /// from the mined ruleset).
    ///
    /// ```
    /// use maras_mining::{Item, ItemSet, TransactionDb};
    /// use maras_rules::DrugAdrRule;
    /// use maras_mcac::Mcac;
    /// // Drugs 0,1 together always trigger ADR 10; singly they never do.
    /// let db = TransactionDb::new(vec![
    ///     vec![Item(0), Item(1), Item(10)],
    ///     vec![Item(0), Item(2)],
    ///     vec![Item(1), Item(3)],
    /// ]);
    /// let target = DrugAdrRule::from_parts(
    ///     ItemSet::from_ids([0u32, 1]),
    ///     ItemSet::from_ids([10u32]),
    ///     &db,
    /// );
    /// let cluster = Mcac::build(target, &db);
    /// assert_eq!(cluster.context_size(), 2); // {0}=>.. and {1}=>..
    /// assert_eq!(cluster.target.confidence(), 1.0);
    /// // Each single drug appears twice, once with the ADR: conf = 0.5.
    /// assert!(cluster.context_rules().all(|r| r.confidence() <= 0.5));
    /// ```
    ///
    /// # Panics
    /// Panics if the target has fewer than 2 drugs — single-drug rules have
    /// no context and are not drug-drug-interaction candidates (§3.4).
    pub fn build(target: DrugAdrRule, db: &TransactionDb) -> Self {
        let n = target.drugs.len();
        assert!(n >= 2, "MCAC target must be a multi-drug rule");
        assert!(n <= 24, "refusing to enumerate 2^{n} contextual subsets");
        let mut levels: Vec<ContextLevel> =
            (1..n).rev().map(|k| ContextLevel { cardinality: k, rules: Vec::new() }).collect();
        // Enumerate proper non-empty antecedent subsets straight off the
        // borrowed drug slice — one reused scratch buffer, no powerset of
        // owned ItemSets.
        let drugs = target.drugs.items();
        let adrs = target.adrs.items();
        let full = (1u32 << n) - 1;
        let mut subset: Vec<maras_mining::Item> = Vec::with_capacity(n);
        for mask in 1..full {
            subset.clear();
            subset.extend((0..n).filter(|b| mask & (1 << b) != 0).map(|b| drugs[b]));
            let k = subset.len();
            let rule = DrugAdrRule::from_split_slices(&subset, adrs, db);
            // levels[0] has cardinality n-1, levels[n-1-k] has cardinality k.
            levels[n - 1 - k].rules.push(rule);
        }
        for level in &mut levels {
            level.rules.sort_by(|a, b| {
                b.confidence()
                    .partial_cmp(&a.confidence())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.drugs.cmp(&b.drugs))
            });
        }
        Mcac { target, levels }
    }

    /// Number of drugs in the target rule.
    pub fn n_drugs(&self) -> usize {
        self.target.drugs.len()
    }

    /// Total number of contextual rules (`2^n − 2` for `n` drugs).
    pub fn context_size(&self) -> usize {
        self.levels.iter().map(|l| l.rules.len()).sum()
    }

    /// The level holding contextual rules of cardinality `k`, if any.
    pub fn level(&self, cardinality: usize) -> Option<&ContextLevel> {
        self.levels.iter().find(|l| l.cardinality == cardinality)
    }

    /// Iterates over every contextual rule across all levels.
    pub fn context_rules(&self) -> impl Iterator<Item = &DrugAdrRule> {
        self.levels.iter().flat_map(|l| l.rules.iter())
    }

    /// The single-drug level (`k = 1`), the most diagnostic one (§3.6:
    /// individual-drug context matters most).
    pub fn singleton_level(&self) -> &ContextLevel {
        self.levels.last().expect("n >= 2 guarantees a k=1 level")
    }

    /// Checks Def. 3.5.2's completeness invariant: the union of contextual
    /// antecedents is the powerset of the target antecedent minus itself and
    /// the empty set.
    pub fn context_is_complete(&self) -> bool {
        let n = self.n_drugs();
        let expected: usize = (1usize << n) - 2;
        if self.context_size() != expected {
            return false;
        }
        let mut seen: Vec<&ItemSet> = self.context_rules().map(|r| &r.drugs).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len() == expected
            && self.context_rules().all(|r| {
                r.drugs.is_proper_subset_of(&self.target.drugs)
                    && !r.drugs.is_empty()
                    && r.adrs == self.target.adrs
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::Item;
    use maras_rules::ItemPartition;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn target(drugs: &[u32], adrs: &[u32], d: &TransactionDb) -> DrugAdrRule {
        DrugAdrRule::from_parts(set(drugs), set(adrs), d)
    }

    #[test]
    fn table_3_1_structure_three_drugs() {
        // Mirrors Table 3.1: [XOLAIR][SINGULAIR][PREDNISONE] => [Asthma]
        // with drugs 0,1,2 and ADR 10.
        let d = db(&[&[0, 1, 2, 10], &[0, 1, 2, 10], &[0, 10], &[1, 2]]);
        let cluster = Mcac::build(target(&[0, 1, 2], &[10], &d), &d);
        assert_eq!(cluster.n_drugs(), 3);
        assert_eq!(cluster.context_size(), 6); // 2^3 - 2
        assert_eq!(cluster.levels.len(), 2);
        assert_eq!(cluster.levels[0].cardinality, 2); // R̃² first
        assert_eq!(cluster.levels[1].cardinality, 1); // R̃¹ last
        assert_eq!(cluster.levels[0].rules.len(), 3);
        assert_eq!(cluster.levels[1].rules.len(), 3);
        assert!(cluster.context_is_complete());
    }

    #[test]
    fn contextual_confidences_counted_from_db() {
        let d = db(&[
            &[0, 1, 10], // combo causes ADR
            &[0, 1, 10],
            &[0, 2], // drug 0 alone, no ADR
            &[0, 3],
            &[1, 10], // drug 1 alone: ADR once in two reports
            &[1, 4],
        ]);
        let cluster = Mcac::build(target(&[0, 1], &[10], &d), &d);
        assert_eq!(cluster.target.confidence(), 1.0);
        let k1 = cluster.singleton_level();
        // {1}=>{10}: support({1})=4 ({0,1,10}x2,{1,10},{1,4}); joint=3 → 0.75
        // {0}=>{10}: support({0})=4; joint=2 → 0.5
        let confs: Vec<(String, f64)> =
            k1.rules.iter().map(|r| (r.drugs.to_string(), r.confidence())).collect();
        assert_eq!(confs[0], ("{i1}".to_string(), 0.75));
        assert_eq!(confs[1], ("{i0}".to_string(), 0.5));
    }

    #[test]
    fn levels_sorted_by_confidence_desc() {
        let d = db(&[&[0, 1, 2, 10], &[0, 10], &[0, 10], &[1, 10], &[1, 5], &[2, 6]]);
        let cluster = Mcac::build(target(&[0, 1, 2], &[10], &d), &d);
        for level in &cluster.levels {
            let confs: Vec<f64> = level.rules.iter().map(|r| r.confidence()).collect();
            assert!(confs.windows(2).all(|w| w[0] >= w[1]), "{confs:?}");
        }
    }

    #[test]
    fn zero_support_context_rules_kept() {
        // Drug subset never reported with the ADRs: confidence 0 but the
        // rule must stay in the context (Def. 3.5.2 demands the full powerset).
        let d = db(&[&[0, 1, 10], &[2, 11]]);
        let cluster = Mcac::build(target(&[0, 1], &[10], &d), &d);
        assert_eq!(cluster.context_size(), 2);
        assert!(cluster.context_is_complete());
    }

    #[test]
    fn four_drug_cluster_has_three_levels() {
        let d = db(&[&[0, 1, 2, 3, 10]]);
        let cluster = Mcac::build(target(&[0, 1, 2, 3], &[10], &d), &d);
        assert_eq!(cluster.levels.len(), 3);
        assert_eq!(cluster.context_size(), 14); // 2^4 - 2
        assert_eq!(cluster.level(3).unwrap().rules.len(), 4);
        assert_eq!(cluster.level(2).unwrap().rules.len(), 6);
        assert_eq!(cluster.level(1).unwrap().rules.len(), 4);
        assert!(cluster.level(4).is_none());
        assert!(cluster.context_is_complete());
    }

    #[test]
    #[should_panic(expected = "multi-drug")]
    fn single_drug_target_panics() {
        let d = db(&[&[0, 10]]);
        Mcac::build(target(&[0], &[10], &d), &d);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn context_always_complete(
                rows in proptest::collection::vec(
                    proptest::collection::vec(prop_oneof![0u32..5, 10u32..13], 1..6), 1..15),
                n_drugs in 2usize..5,
            ) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                let drugs: ItemSet = (0..n_drugs as u32).map(Item).collect();
                let t = DrugAdrRule::from_parts(drugs, ItemSet::from_ids([10u32]), &d);
                let c = Mcac::build(t, &d);
                prop_assert!(c.context_is_complete());
                prop_assert_eq!(c.context_size(), (1 << n_drugs) - 2);
                // Levels strictly descending cardinality.
                let cards: Vec<usize> = c.levels.iter().map(|l| l.cardinality).collect();
                prop_assert!(cards.windows(2).all(|w| w[0] == w[1] + 1));
                let _ = ItemPartition::new(10); // partition consistent with item choice
            }
        }
    }
}
