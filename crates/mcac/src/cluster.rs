//! MCAC construction (thesis §3.5, Defs 3.5.1–3.5.2, Table 3.1).

use maras_mining::{Item, ItemSet, TidSet, TransactionDb};
use maras_rules::{DrugAdrRule, RuleStats};
use rustc_hash::FxHashMap;
use std::borrow::Cow;

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
    /// Builds the cluster for `target`: the one-target call of
    /// [`build_clusters`], so a lone cluster is counted exactly as a
    /// ranking pass counts it.
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
        build_clusters(vec![target], db).pop().expect("one target builds one cluster")
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

/// Builds the cluster of every target in one pass, in input order.
///
/// Contextual rules are routinely below the mining threshold, so their
/// supports cannot come from the mined ruleset: they are counted against
/// the database, each distinct quantity once per pass.
///
/// * A single drug's support is its tid-list length.
/// * A multi-drug subset's support is counted the first time a target
///   contains it.
/// * Targets are grouped by ADR set, and each set's cover is built once.
///   Its length is the consequent support of every contextual rule in the
///   group.
/// * Each target drug's cover is intersected with that ADR cover once per
///   group. A contextual rule's joint support is then the size of the
///   intersection of its drugs' intersected covers: a length for one drug,
///   one allocation-free `intersect_count` for two.
///
/// ```
/// use maras_mining::{Item, ItemSet, TransactionDb};
/// use maras_rules::DrugAdrRule;
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
/// ```
///
/// # Panics
/// Panics if a target has fewer than 2 drugs, as [`Mcac::build`] does.
pub fn build_clusters(targets: Vec<DrugAdrRule>, db: &TransactionDb) -> Vec<Mcac> {
    for target in &targets {
        let n = target.drugs.len();
        assert!(n >= 2, "MCAC target must be a multi-drug rule");
        assert!(n <= 24, "refusing to enumerate 2^{n} contextual subsets");
    }
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_unstable_by(|&a, &b| targets[a].adrs.cmp(&targets[b].adrs));
    let mut counter = ContextCounter::new(db);
    let mut levels: Vec<Vec<ContextLevel>> = vec![Vec::new(); targets.len()];
    for group in order.chunk_by(|&a, &b| targets[a].adrs == targets[b].adrs) {
        counter.start_adr_set(&targets[group[0]].adrs);
        for &i in group {
            levels[i] = counter.levels(&targets[i]);
        }
    }
    targets.into_iter().zip(levels).map(|(target, levels)| Mcac { target, levels }).collect()
}

/// The pass-scoped support counts behind [`build_clusters`]. Drug-subset
/// supports live for the whole pass; the ADR cover and the joint counts
/// live for one ADR-set group.
struct ContextCounter<'db> {
    db: &'db TransactionDb,
    /// Support of every multi-drug subset counted so far.
    subset_support: FxHashMap<Vec<Item>, u64>,
    /// Cover of the current group's ADR set.
    adr_cover: Cow<'db, TidSet>,
    /// Each drug's cover intersected with `adr_cover`.
    drug_joint: FxHashMap<Item, TidSet>,
    /// Joint support of each multi-drug subset with the current ADR set.
    subset_joint: FxHashMap<Vec<Item>, u64>,
}

impl<'db> ContextCounter<'db> {
    fn new(db: &'db TransactionDb) -> Self {
        ContextCounter {
            db,
            subset_support: FxHashMap::default(),
            adr_cover: Cow::Owned(TidSet::new()),
            drug_joint: FxHashMap::default(),
            subset_joint: FxHashMap::default(),
        }
    }

    /// Starts the group of targets whose consequent is `adrs`.
    fn start_adr_set(&mut self, adrs: &ItemSet) {
        self.adr_cover = match adrs.items() {
            [] => Cow::Owned((0..self.db.len() as u32).collect()),
            [adr] => {
                self.db.item_cover(*adr).map_or_else(|| Cow::Owned(TidSet::new()), Cow::Borrowed)
            }
            _ => Cow::Owned(self.db.cover_set(adrs).expect("a non-empty itemset has a cover")),
        };
        self.drug_joint.clear();
        self.subset_joint.clear();
    }

    /// The context levels of `target`, whose ADR set is the current group's.
    fn levels(&mut self, target: &DrugAdrRule) -> Vec<ContextLevel> {
        let drugs = target.drugs.items();
        let n = drugs.len();
        for &drug in drugs {
            if !self.drug_joint.contains_key(&drug) {
                let joint = self
                    .db
                    .item_cover(drug)
                    .map_or_else(TidSet::new, |c| c.intersect(&self.adr_cover));
                self.drug_joint.insert(drug, joint);
            }
        }
        let mut levels: Vec<ContextLevel> =
            (1..n).rev().map(|k| ContextLevel { cardinality: k, rules: Vec::new() }).collect();
        // Enumerate proper non-empty antecedent subsets straight off the
        // borrowed drug slice, in one reused scratch buffer.
        let full = (1u32 << n) - 1;
        let mut subset: Vec<Item> = Vec::with_capacity(n);
        for mask in 1..full {
            subset.clear();
            subset.extend((0..n).filter(|b| mask & (1 << b) != 0).map(|b| drugs[b]));
            let stats = self.stats(&subset);
            // levels[0] has cardinality n-1, levels[n-1-k] has cardinality k.
            levels[n - 1 - subset.len()].rules.push(DrugAdrRule {
                drugs: ItemSet::from_sorted_unchecked(subset.clone()),
                adrs: target.adrs.clone(),
                stats,
            });
        }
        for level in &mut levels {
            level.rules.sort_by(|a, b| {
                b.confidence()
                    .partial_cmp(&a.confidence())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.drugs.cmp(&b.drugs))
            });
        }
        levels
    }

    /// The counts of `subset ⇒ current ADR set`; every drug of `subset`
    /// already has its `drug_joint` entry.
    fn stats(&mut self, subset: &[Item]) -> RuleStats {
        let (support_a, support_ab) = match subset {
            [drug] => (self.db.item_support(*drug) as u64, self.drug_joint[drug].len()),
            _ => {
                let support_a = match self.subset_support.get(subset) {
                    Some(&s) => s,
                    None => {
                        let s = self.db.support_of(subset) as u64;
                        self.subset_support.insert(subset.to_vec(), s);
                        s
                    }
                };
                let support_ab = match self.subset_joint.get(subset) {
                    Some(&s) => s,
                    None => {
                        let covers: Vec<&TidSet> =
                            subset.iter().map(|d| &self.drug_joint[d]).collect();
                        let s = TidSet::intersect_count_k(&covers);
                        self.subset_joint.insert(subset.to_vec(), s);
                        s
                    }
                };
                (support_a, support_ab)
            }
        };
        RuleStats {
            support_ab,
            support_a,
            support_b: self.adr_cover.len(),
            n_transactions: self.db.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        /// The per-probe construction the pass counter replaced: three
        /// database probes per contextual rule, one target at a time.
        fn per_probe_cluster(target: &DrugAdrRule, d: &TransactionDb) -> Mcac {
            let n = target.drugs.len();
            let mut levels: Vec<ContextLevel> =
                (1..n).rev().map(|k| ContextLevel { cardinality: k, rules: Vec::new() }).collect();
            for subset in target.drugs.proper_nonempty_subsets() {
                let k = subset.len();
                levels[n - 1 - k].rules.push(DrugAdrRule::from_parts(
                    subset,
                    target.adrs.clone(),
                    d,
                ));
            }
            for level in &mut levels {
                level.rules.sort_by(|a, b| {
                    b.confidence()
                        .partial_cmp(&a.confidence())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.drugs.cmp(&b.drugs))
                });
            }
            Mcac { target: target.clone(), levels }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Drugs 0..7 and ADRs 10..15 over a db holding only drugs 0..6
            /// and ADRs 10..14, so targets share ADR sets and drug subsets
            /// and some of their items never occur.
            #[test]
            fn batch_equals_per_target_oracle(
                rows in proptest::collection::vec(
                    proptest::collection::vec(prop_oneof![0u32..6, 10u32..14], 1..7), 1..25),
                targets in proptest::collection::vec(
                    (
                        proptest::collection::btree_set(0u32..7, 2..5),
                        proptest::collection::btree_set(10u32..15, 1..4),
                    ),
                    1..16,
                ),
            ) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                let targets: Vec<DrugAdrRule> = targets
                    .into_iter()
                    .filter(|(drugs, _)| drugs.len() >= 2)
                    .map(|(drugs, adrs)| {
                        DrugAdrRule::from_parts(ItemSet::from_ids(drugs), ItemSet::from_ids(adrs), &d)
                    })
                    .collect();
                let want: Vec<Mcac> = targets.iter().map(|t| per_probe_cluster(t, &d)).collect();
                prop_assert_eq!(build_clusters(targets, &d), want);
            }
        }
    }
}
