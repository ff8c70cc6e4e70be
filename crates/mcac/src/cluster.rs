//! MCAC construction (thesis §3.5, Defs 3.5.1–3.5.2, Table 3.1).

use maras_mining::TransactionDb;
use maras_rules::{is_complete_context, ContextRule, DrugAdrRule, RuleStats, TargetRules};

/// A multi-level contextual association cluster: a *target* multi-drug rule
/// together with its complete context (Def. 3.5.2 — one contextual rule per
/// non-empty proper subset of the target's antecedent, same consequent).
#[derive(Debug, Clone, PartialEq)]
pub struct Mcac {
    /// The evaluated multi-drug association.
    pub target: DrugAdrRule,
    /// The contextual rules `X ⇒ B`, level by level in descending
    /// cardinality (`n-1` first, singletons last, mirroring Table 3.1's
    /// `R̃₂` before `R̃₁` presentation). Each level is ordered by descending
    /// confidence, the order the contextual glyph lays sectors out in (§4),
    /// with ties in the lexicographic order of the kept drugs.
    pub context: Vec<ContextRule>,
}

impl Mcac {
    /// Builds the cluster for a hand-built `target`: the one-target call of
    /// [`build_clusters`], which probes its context's counts from `db`.
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
    /// assert!(cluster.context_stats().all(|r| r.confidence() <= 0.5));
    /// ```
    ///
    /// # Panics
    /// Panics if the target has fewer than 2 drugs — single-drug rules have
    /// no context and are not drug-drug-interaction candidates (§3.4).
    pub fn build(target: DrugAdrRule, db: &TransactionDb) -> Self {
        build_clusters(vec![target], db).pop().expect("one target builds one cluster")
    }

    /// Number of drugs in the target rule.
    pub fn n_drugs(&self) -> usize {
        self.target.drugs.len()
    }

    /// Total number of contextual rules (`2^n − 2` for `n` drugs).
    pub fn context_size(&self) -> usize {
        self.context.len()
    }

    /// The context levels in [`Self::context`] order, `n-1` first: each the
    /// slice of rules that keep the same number of drugs.
    pub fn levels(&self) -> impl Iterator<Item = &[ContextRule]> {
        self.context.chunk_by(|a, b| a.n_drugs() == b.n_drugs())
    }

    /// The counts of every contextual rule, in [`Self::context`] order.
    pub fn context_stats(&self) -> impl Iterator<Item = RuleStats> + '_ {
        self.context.iter().map(|rule| rule.stats(&self.target.stats))
    }

    /// The single-drug level (`k = 1`), the most diagnostic one (§3.6:
    /// individual-drug context matters most): the last `n` rules.
    pub fn singleton_level(&self) -> &[ContextRule] {
        &self.context[self.context.len() - self.n_drugs()..]
    }

    /// Checks Def. 3.5.2's completeness invariant: the contextual
    /// antecedents are the powerset of the target antecedent minus itself
    /// and the empty set, each once ([`is_complete_context`]).
    pub fn context_is_complete(&self) -> bool {
        is_complete_context(self.n_drugs(), &self.context)
    }
}

/// Builds the cluster of every target, in input order.
///
/// Targets from [`maras_rules::rule_space`] carry their context counts,
/// which the miner already counted: every contextual rule's antecedent `X`
/// and `X ∪ B` are subsets of the target's frequent itemset, so they are
/// frequent too. Laying out the levels then touches no tid-list and
/// allocates one context per target. A hand-built target's contextual
/// rules may fall below any mining threshold, so theirs are probed from
/// `db`, two tid-list intersections per rule.
///
/// ```
/// use maras_mining::{Item, ItemSet, TransactionDb};
/// use maras_rules::{rule_space, DrugAdrRule, ItemPartition};
/// use maras_mcac::{build_clusters, Mcac};
/// let db = TransactionDb::new(vec![
///     vec![Item(0), Item(1), Item(2), Item(10)],
///     vec![Item(0), Item(1), Item(10)],
///     vec![Item(1), Item(2)],
/// ]);
/// let adrs = ItemSet::from_ids([10u32]);
/// let rule = |drugs: &[u32]| {
///     DrugAdrRule::from_parts(ItemSet::from_ids(drugs.iter().copied()), adrs.clone(), &db)
/// };
/// let clusters = build_clusters(vec![rule(&[0, 1, 2]), rule(&[1, 2])], &db);
/// assert_eq!(clusters[0], Mcac::build(rule(&[0, 1, 2]), &db));
/// assert_eq!(clusters[1].context_size(), 2);
/// // The miner's targets come with their counts and build the same cluster.
/// let targets = rule_space(&db, &ItemPartition::new(10), 1, 1).multi_drug_rules;
/// assert!(build_clusters(targets, &db).contains(&clusters[0]));
/// ```
///
/// # Panics
/// Panics if a target has fewer than 2 drugs, as [`Mcac::build`] does, or
/// more than 24.
pub fn build_clusters(targets: impl Into<TargetRules>, db: &TransactionDb) -> Vec<Mcac> {
    let targets = targets.into();
    for target in targets.rules() {
        assert!(target.drugs.len() >= 2, "MCAC target must be a multi-drug rule");
    }
    targets
        .into_contexts(db)
        .map(|(target, mut context)| {
            let drugs = target.drugs.items();
            // Confidences are neither NaN nor -0.0: `total_cmp` is numeric order.
            let confidence = |r: &ContextRule| r.stats(&target.stats).confidence();
            context.sort_by(|a, b| {
                b.n_drugs()
                    .cmp(&a.n_drugs())
                    .then_with(|| confidence(b).total_cmp(&confidence(a)))
                    .then_with(|| a.drugs(drugs).cmp(b.drugs(drugs)))
            });
            Mcac { target, context }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::{Item, ItemSet};
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
        let levels: Vec<&[ContextRule]> = cluster.levels().collect();
        assert_eq!(levels.len(), 2);
        assert!(levels[0].iter().all(|r| r.n_drugs() == 2)); // R̃² first
        assert!(levels[1].iter().all(|r| r.n_drugs() == 1)); // R̃¹ last
        assert_eq!(levels[0].len(), 3);
        assert_eq!(levels[1].len(), 3);
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
        let confs: Vec<(String, f64)> = k1
            .iter()
            .map(|r| r.to_rule(&cluster.target))
            .map(|r| (r.drugs.to_string(), r.confidence()))
            .collect();
        assert_eq!(confs[0], ("{i1}".to_string(), 0.75));
        assert_eq!(confs[1], ("{i0}".to_string(), 0.5));
    }

    #[test]
    fn levels_sorted_by_confidence_desc() {
        let d = db(&[&[0, 1, 2, 10], &[0, 10], &[0, 10], &[1, 10], &[1, 5], &[2, 6]]);
        let cluster = Mcac::build(target(&[0, 1, 2], &[10], &d), &d);
        for level in cluster.levels() {
            let confs: Vec<f64> =
                level.iter().map(|r| r.stats(&cluster.target.stats).confidence()).collect();
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
        let levels: Vec<&[ContextRule]> = cluster.levels().collect();
        assert_eq!(levels.len(), 3);
        assert_eq!(cluster.context_size(), 14); // 2^4 - 2
        let sizes: Vec<(usize, usize)> = levels.iter().map(|l| (l[0].n_drugs(), l.len())).collect();
        assert_eq!(sizes, [(3, 4), (2, 6), (1, 4)]);
        assert!(cluster.context_is_complete());
        // One report holds every drug and the ADR, so every context rule
        // has confidence 1 and each level falls back to the lexicographic
        // order of its kept drugs, not to mask order ({0,3} is mask 9 and
        // {1,2} mask 6).
        assert!(cluster.context_stats().all(|r| r.confidence() == 1.0));
        let pairs: Vec<Vec<u32>> = levels[1]
            .iter()
            .map(|r| r.drugs(cluster.target.drugs.items()).map(|d| d.0).collect())
            .collect();
        assert_eq!(pairs, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]);
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
                let cards: Vec<usize> = c.levels().map(|l| l[0].n_drugs()).collect();
                prop_assert!(cards.windows(2).all(|w| w[0] == w[1] + 1));
                let _ = ItemPartition::new(10); // partition consistent with item choice
            }
        }

        /// The per-probe oracle: the target and each contextual rule counted
        /// straight from the database, one target at a time, the levels
        /// ordered over item sets and each rule then named by the target
        /// drugs it keeps.
        fn per_probe_cluster(target: &DrugAdrRule, d: &TransactionDb) -> Mcac {
            let target = DrugAdrRule::from_parts(target.drugs.clone(), target.adrs.clone(), d);
            let n = target.drugs.len();
            let mut levels: Vec<Vec<DrugAdrRule>> = vec![Vec::new(); n - 1];
            for subset in target.drugs.proper_nonempty_subsets() {
                let k = subset.len();
                levels[n - 1 - k].push(DrugAdrRule::from_parts(subset, target.adrs.clone(), d));
            }
            for level in &mut levels {
                level.sort_by(|a, b| {
                    b.confidence()
                        .partial_cmp(&a.confidence())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.drugs.cmp(&b.drugs))
                });
            }
            let context = levels
                .into_iter()
                .flatten()
                .map(|rule| {
                    // A context rule keeps its target's consequent support
                    // and report count.
                    assert_eq!(rule.stats.support_b, target.stats.support_b);
                    assert_eq!(rule.stats.n_transactions, target.stats.n_transactions);
                    let mask = target
                        .drugs
                        .iter()
                        .enumerate()
                        .filter(|&(_, drug)| rule.drugs.contains(drug))
                        .fold(0, |mask, (i, _)| mask | 1 << i);
                    ContextRule {
                        mask,
                        support_a: rule.stats.support_a,
                        support_ab: rule.stats.support_ab,
                    }
                })
                .collect();
            Mcac { target, context }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Drugs 0..5 and ADRs 10..13, so targets share ADR sets and
            /// drug subsets, and contexts hold rules below the threshold
            /// that only the closed store leaves out.
            #[test]
            fn store_counts_equal_per_probe_oracle(
                rows in proptest::collection::vec(
                    proptest::collection::vec(prop_oneof![0u32..5, 10u32..13], 1..7), 1..25),
                min_support in 1u64..4,
                threads in 1usize..3,
            ) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                let targets = maras_rules::rule_space(
                    &d, &ItemPartition::new(10), min_support, threads,
                ).multi_drug_rules;
                let want: Vec<Mcac> =
                    targets.rules().iter().map(|t| per_probe_cluster(t, &d)).collect();
                prop_assert_eq!(build_clusters(targets, &d), want);
            }
        }
    }
}
