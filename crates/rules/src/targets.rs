//! MCAC target rules together with the counts of their contexts.
//!
//! A target `A ⇒ B` is evaluated with its full context (thesis Def. 3.5.2):
//! one contextual rule `X ⇒ B` for every proper non-empty drug subset
//! `X ⊂ A`. Each `X` and `X ∪ B` is a subset of the frequent itemset
//! `A ∪ B`, so it is frequent too and the miner has already counted it;
//! [`crate::rule_space`] reads those counts from the mining pass's
//! [`SupportIndex`] and they travel here with the targets. Targets built by
//! hand carry no context counts, since their contexts need not be frequent;
//! theirs are probed from the database when the context is laid out.

use crate::measures::RuleStats;
use crate::partition::ItemPartition;
use crate::rule::DrugAdrRule;
use maras_mining::{Item, ItemSet, PatternStore, SupportIndex, TransactionDb};

/// MCAC target rules, each with the counts of its context.
///
/// ```
/// use maras_mining::{Item, TransactionDb};
/// use maras_rules::{rule_space, ItemPartition};
/// let db = TransactionDb::new(vec![
///     vec![Item(0), Item(1), Item(10)],
///     vec![Item(0), Item(1), Item(10)],
///     vec![Item(0), Item(2)],
/// ]);
/// let targets = rule_space(&db, &ItemPartition::new(10), 2, 1).multi_drug_rules;
/// assert_eq!(targets.len(), 1);
/// let (target, context) = targets.into_contexts(&db).next().unwrap();
/// assert_eq!(target.confidence(), 1.0);
/// // {0} ⇒ {10} and {1} ⇒ {10}: drug 0 is reported three times.
/// assert_eq!(context.len(), 2);
/// assert_eq!(context[0].stats.support_a, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TargetRules {
    rules: Vec<DrugAdrRule>,
    /// `(support(X), support(X ∪ B))` of every context rule, targets back
    /// to back, each target's subsets in [`context_masks`] order; `None`
    /// for targets built by hand, whose contexts are probed from the
    /// database.
    contexts: Option<Vec<(u64, u64)>>,
}

impl TargetRules {
    /// The multi-drug rules among the `closed` patterns, with every count
    /// read from `index`, which must hold every frequent pattern of the
    /// database the closed patterns were mined from.
    ///
    /// # Panics
    /// Panics if `index` lacks a subset of a target, which a frequent-pattern
    /// store never does.
    pub(crate) fn from_index(
        closed: &PatternStore,
        partition: &ItemPartition,
        index: &SupportIndex<'_>,
        n_transactions: u64,
    ) -> Self {
        let support = |items: &[Item]| {
            index.support(items).expect("every subset of a frequent itemset is frequent")
        };
        let mut rules = Vec::new();
        let mut contexts = Vec::new();
        let mut scratch: Vec<Item> = Vec::new();
        for (items, support_ab) in closed.iter() {
            if !partition.is_mixed_items(items) || partition.drug_count_items(items) < 2 {
                continue;
            }
            let (drugs, adrs) = partition.split_items(items);
            for mask in context_masks(drugs.len()) {
                select(drugs, mask, &mut scratch);
                let support_x = support(&scratch);
                // Drug ids sort below ADR ids, so `X ∪ B` is `X` then `B`.
                scratch.extend_from_slice(adrs);
                contexts.push((support_x, support(&scratch)));
            }
            rules.push(DrugAdrRule {
                drugs: ItemSet::from_sorted_unchecked(drugs.to_vec()),
                adrs: ItemSet::from_sorted_unchecked(adrs.to_vec()),
                stats: RuleStats {
                    support_ab,
                    support_a: support(drugs),
                    support_b: support(adrs),
                    n_transactions,
                },
            });
        }
        TargetRules { rules, contexts: Some(contexts) }
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether there are no targets.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The target rules.
    pub fn rules(&self) -> &[DrugAdrRule] {
        &self.rules
    }

    /// The target rules, without their context counts.
    pub fn into_rules(self) -> Vec<DrugAdrRule> {
        self.rules
    }

    /// Drops the rules with fewer than two drugs, which are not
    /// drug-drug-interaction candidates. Such a rule has an empty context,
    /// so the other targets keep their counts.
    pub fn retain_multi_drug(&mut self) {
        self.rules.retain(DrugAdrRule::is_multi_drug);
    }

    /// Each target with its context: the rule `X ⇒ B` for every proper
    /// non-empty subset `X` of its drugs, in ascending order of the subset's
    /// mask over the target's drugs. A rule's consequent support and report
    /// count are its target's. Targets built by hand have their contexts
    /// probed from `db` instead, three tid-list intersections per rule.
    ///
    /// # Panics
    /// Panics if a target has more than 24 drugs.
    pub fn into_contexts(
        self,
        db: &TransactionDb,
    ) -> impl Iterator<Item = (DrugAdrRule, Vec<DrugAdrRule>)> + '_ {
        let TargetRules { rules, contexts } = self;
        let mut counts = contexts.map(Vec::into_iter);
        let mut scratch: Vec<Item> = Vec::new();
        rules.into_iter().map(move |target| {
            let drugs = target.drugs.items();
            let context = context_masks(drugs.len())
                .map(|mask| {
                    select(drugs, mask, &mut scratch);
                    let subset = ItemSet::from_sorted_unchecked(scratch.clone());
                    let Some(counts) = counts.as_mut() else {
                        return DrugAdrRule::from_parts(subset, target.adrs.clone(), db);
                    };
                    let (support_a, support_ab) =
                        counts.next().expect("one count per context rule");
                    DrugAdrRule {
                        drugs: subset,
                        adrs: target.adrs.clone(),
                        stats: RuleStats { support_ab, support_a, ..target.stats },
                    }
                })
                .collect();
            (target, context)
        })
    }
}

/// Targets built by hand: their contexts are probed from the database.
impl From<Vec<DrugAdrRule>> for TargetRules {
    fn from(rules: Vec<DrugAdrRule>) -> Self {
        TargetRules { rules, contexts: None }
    }
}

/// The masks of a target's context rules over its `n_drugs` drugs, bit `b`
/// keeping drug `b`: every proper non-empty subset once, in ascending order.
fn context_masks(n_drugs: usize) -> std::ops::Range<u32> {
    assert!(n_drugs <= 24, "refusing to enumerate 2^{n_drugs} contextual subsets");
    1..(1u32 << n_drugs) - 1
}

/// Writes the drugs `mask` keeps into `out`, in order.
fn select(drugs: &[Item], mask: u32, out: &mut Vec<Item>) {
    out.clear();
    out.extend(drugs.iter().enumerate().filter(|&(b, _)| mask & (1 << b) != 0).map(|(_, &d)| d));
}
