//! Rule generation from mined itemsets, and the three rule-space sizes of
//! Fig. 5.1.
//!
//! Traditional association rule mining derives, from every frequent itemset
//! `S`, every rule `A ⇒ B` with `A ∪ B = S` and both sides non-empty — the
//! `2^|S| − 2` splits of §3.2/Formula 3.1. MARAS then (1) keeps only splits
//! with drugs as antecedent and ADRs as consequent (§3.1, "filtered rules"),
//! of which each mixed itemset has exactly one, and (2) keeps only rules
//! whose complete itemset is *closed* with ≥ 2 drugs — the MCAC target rules.

use crate::partition::ItemPartition;
use crate::rule::DrugAdrRule;
use maras_mining::{
    closed_refs, fpgrowth_into, mine_patterns_parallel, FnSink, PatternStore, TransactionDb,
};

/// Sizes of the successively-reduced rule spaces (the three series of
/// Fig. 5.1), plus the underlying itemset counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleSpaceCounts {
    /// All `A ⇒ B` splits of all frequent itemsets ("Total Rules").
    pub total_rules: u64,
    /// Splits with pure drug antecedent and pure ADR consequent
    /// ("Filtered Rules"): one per mixed frequent itemset.
    pub filtered_rules: u64,
    /// Closed, mixed, multi-drug associations — the MCAC target rules.
    pub mcacs: u64,
    /// Number of frequent itemsets mined.
    pub frequent_itemsets: u64,
    /// Number of closed frequent itemsets.
    pub closed_itemsets: u64,
}

/// One quarter's complete rule space, derived from a *single* mining pass:
/// the Fig. 5.1 counters, the MCAC target rules, and the closed patterns
/// themselves (arena-backed, in descending-support presentation order).
#[derive(Debug, Clone, Default)]
pub struct RuleSpace {
    /// The three successively-reduced rule-space sizes.
    pub counts: RuleSpaceCounts,
    /// Closed, mixed, multi-drug rules — the MCAC targets, in the closed
    /// store's order.
    pub multi_drug_rules: Vec<DrugAdrRule>,
    /// Every closed frequent pattern, ordered by descending support then
    /// ascending itemset.
    pub closed: PatternStore,
}

/// Mines the quarter once (with `n_threads` workers) and derives everything
/// downstream of mining from the resulting arena: Fig. 5.1 counters, closed
/// patterns, and the multi-drug MCAC target rules. Replaces the legacy
/// arrangement where counting, closed mining, and rule generation each ran
/// their own FP-Growth pass.
pub fn rule_space(
    db: &TransactionDb,
    partition: &ItemPartition,
    min_support: u64,
    n_threads: usize,
) -> RuleSpace {
    let _span = maras_obs::span("rules");
    let store = mine_patterns_parallel(db, min_support, n_threads);
    let mut counts =
        RuleSpaceCounts { frequent_itemsets: store.len() as u64, ..RuleSpaceCounts::default() };
    for (items, _) in store.iter() {
        let n = items.len() as u32;
        if n >= 2 {
            counts.total_rules += (1u64 << n.min(62)) - 2;
        }
        if partition.is_mixed_items(items) {
            counts.filtered_rules += 1;
        }
    }

    let closed_span = maras_obs::span("closed");
    let mut refs = closed_refs(&store);
    refs.sort_unstable_by(|&a, &b| {
        store.support(b).cmp(&store.support(a)).then_with(|| store.items(a).cmp(store.items(b)))
    });
    drop(closed_span);
    counts.closed_itemsets = refs.len() as u64;

    let _derive = maras_obs::span("derive");
    let mut closed = PatternStore::with_capacity(refs.len(), 0);
    let mut rules = Vec::new();
    for r in refs {
        let items = store.items(r);
        let support = store.support(r);
        closed.push(items, support);
        if partition.is_mixed_items(items) && partition.drug_count_items(items) >= 2 {
            counts.mcacs += 1;
            rules.push(
                DrugAdrRule::from_pattern(items, support, partition, db)
                    .expect("mixed pattern must yield a rule"),
            );
        }
    }
    maras_obs::counter("maras_rules_mcac_total", "closed multi-drug MCAC target rules derived")
        .add(counts.mcacs);
    RuleSpace { counts, multi_drug_rules: rules, closed }
}

/// All drug→ADR rules from the *unfiltered* frequent itemsets — the
/// traditional pool Table 5.2's plain confidence/lift rankings draw from
/// ("these two methods do not filter the rule using closed itemsets").
/// Streams the pattern space; rules materialize at the sink.
pub fn drug_adr_rules(
    db: &TransactionDb,
    partition: &ItemPartition,
    min_support: u64,
) -> Vec<DrugAdrRule> {
    let mut out = Vec::new();
    let mut sink = FnSink(|items: &[maras_mining::Item], sup| {
        if let Some(rule) = DrugAdrRule::from_pattern(items, sup, partition, db) {
            out.push(rule);
        }
    });
    fpgrowth_into(db, min_support, &mut sink);
    out
}

/// Drug→ADR rules whose complete itemset is closed (§3.4): the supported,
/// non-spurious associations MARAS keeps (Lemma 3.4.2).
pub fn closed_drug_adr_rules(
    db: &TransactionDb,
    partition: &ItemPartition,
    min_support: u64,
) -> Vec<DrugAdrRule> {
    let (closed, _) = maras_mining::closed_patterns(db, min_support, 1);
    closed
        .iter()
        .filter_map(|(items, sup)| DrugAdrRule::from_pattern(items, sup, partition, db))
        .collect()
}

/// Closed drug→ADR rules with at least two drugs — the drug-drug-interaction
/// candidates the MCAC layer evaluates (§3.4 "the drug-ADR association will
/// be evaluated as long as it has more than one drug").
pub fn multi_drug_rules(
    db: &TransactionDb,
    partition: &ItemPartition,
    min_support: u64,
) -> Vec<DrugAdrRule> {
    rule_space(db, partition, min_support, 1).multi_drug_rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::{Item, ItemSet};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    const P: ItemPartition = ItemPartition { adr_start: 10 };

    #[test]
    fn single_report_rule_explosion() {
        // Thesis §3.3: one report {d0,d1 ⇒ a10,a11} yields 9 drug-ADR
        // associations under traditional mining ((2²−1)·(2²−1)), which in our
        // accounting appear inside the 2^4−2 = 14 total splits; exactly 1
        // split is a full drug→ADR rule per mixed itemset.
        let d = db(&[&[0, 1, 10, 11]]);
        let c = rule_space(&d, &P, 1, 1).counts;
        assert_eq!(c.frequent_itemsets, 15);
        // Splits: every itemset of size>=2 contributes 2^n-2.
        // sizes: 6 pairs*2 + 4 triples*6 + 1 quad*14 = 12+24+14 = 50.
        assert_eq!(c.total_rules, 50);
        // Mixed frequent itemsets: those with >=1 drug and >=1 ADR: 2*2 + 2*1(+..)
        // count directly: subsets with d in {1,2}, a in {1,2}, both nonzero:
        // C(2,1)C(2,1)+C(2,1)C(2,2)+C(2,2)C(2,1)+C(2,2)C(2,2)=4+2+2+1=9.
        assert_eq!(c.filtered_rules, 9);
        assert_eq!(c.closed_itemsets, 1);
        assert_eq!(c.mcacs, 1);
    }

    #[test]
    fn spurious_partial_rule_removed_by_closedness() {
        // {d1 ⇒ a11} (thesis's R2 example) is a partial reading of the
        // report and must not survive as a closed association.
        let d = db(&[&[0, 1, 10, 11], &[0, 2, 10]]);
        let closed = closed_drug_adr_rules(&d, &P, 1);
        assert!(
            !closed.iter().any(|r| r.drugs == set(&[1]) && r.adrs == set(&[11])),
            "partial rule leaked: {closed:?}"
        );
        // But the explicit report itself survives.
        assert!(closed.iter().any(|r| r.drugs == set(&[0, 1]) && r.adrs == set(&[10, 11])));
        // And the implicit overlap {d0 ⇒ a10} (in both reports) survives.
        assert!(closed.iter().any(|r| r.drugs == set(&[0]) && r.adrs == set(&[10])));
    }

    #[test]
    fn unclosed_pool_is_superset_of_closed_pool() {
        let d = db(&[&[0, 1, 10], &[0, 1, 10], &[0, 10], &[1, 11], &[2, 10, 11]]);
        let all = drug_adr_rules(&d, &P, 1);
        let closed = closed_drug_adr_rules(&d, &P, 1);
        assert!(closed.len() <= all.len());
        for c in &closed {
            assert!(
                all.iter().any(|r| r.drugs == c.drugs && r.adrs == c.adrs),
                "closed rule missing from unfiltered pool: {c}"
            );
        }
    }

    #[test]
    fn multi_drug_filter_drops_singletons() {
        let d = db(&[&[0, 10], &[0, 10], &[0, 1, 11], &[0, 1, 11]]);
        let multi = multi_drug_rules(&d, &P, 1);
        assert!(multi.iter().all(|r| r.n_drugs() >= 2));
        assert!(multi.iter().any(|r| r.drugs == set(&[0, 1])));
    }

    #[test]
    fn counts_are_monotone_reductions() {
        let d = db(&[
            &[0, 1, 10, 11],
            &[0, 2, 10],
            &[1, 2, 11, 12],
            &[0, 1, 2, 10],
            &[3, 13],
            &[0, 3, 10, 13],
        ]);
        let c = rule_space(&d, &P, 1, 1).counts;
        assert!(c.mcacs <= c.filtered_rules, "{c:?}");
        assert!(c.filtered_rules <= c.total_rules, "{c:?}");
        assert!(c.closed_itemsets <= c.frequent_itemsets, "{c:?}");
    }

    #[test]
    fn rules_have_consistent_stats() {
        let d = db(&[&[0, 1, 10], &[0, 1, 10], &[0, 11], &[1, 10]]);
        for r in drug_adr_rules(&d, &P, 1) {
            assert_eq!(r.stats.support_a, d.support(&r.drugs) as u64);
            assert_eq!(r.stats.support_b, d.support(&r.adrs) as u64);
            assert_eq!(r.stats.support_ab, d.support(&r.complete_itemset()) as u64);
            assert!(r.stats.support_ab <= r.stats.support_a);
            assert!(r.stats.support_ab <= r.stats.support_b);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
            // Items 0..5 are drugs, 10..15 ADRs under partition P.
            proptest::collection::vec(
                proptest::collection::vec(prop_oneof![0u32..5, 10u32..15], 0..6),
                0..20,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn reductions_hold(rows in arb_rows(), ms in 1u64..3) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                let c = rule_space(&d, &P, ms, 1).counts;
                prop_assert!(c.mcacs <= c.filtered_rules);
                prop_assert!(c.filtered_rules <= c.total_rules || c.filtered_rules <= c.frequent_itemsets);
                prop_assert!(c.closed_itemsets <= c.frequent_itemsets);
                // Cross-check materialized pools against the counters.
                let closed = closed_drug_adr_rules(&d, &P, ms);
                prop_assert_eq!(
                    closed.iter().filter(|r| r.is_multi_drug()).count() as u64,
                    c.mcacs
                );
                prop_assert_eq!(drug_adr_rules(&d, &P, ms).len() as u64, c.filtered_rules);
            }

            #[test]
            fn closed_rules_are_closed(rows in arb_rows()) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                for r in closed_drug_adr_rules(&d, &P, 1) {
                    prop_assert!(d.is_closed(&r.complete_itemset()));
                }
            }
        }
    }
}
