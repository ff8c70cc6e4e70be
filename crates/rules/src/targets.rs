//! MCAC target rules together with their contexts.
//!
//! A target `A ⇒ B` is evaluated with its full context (thesis Def. 3.5.2):
//! one [`ContextRule`] `X ⇒ B` for every proper non-empty drug subset
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

/// One contextual rule `X ⇒ B` of a target `A ⇒ B`: bit `i` of `mask`
/// keeps the target's `drugs[i]`, and its consequent support and report
/// count are the target's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextRule {
    /// The target drugs the antecedent `X` keeps.
    pub mask: u32,
    /// `|X|` — reports containing the kept drugs.
    pub support_a: u64,
    /// `|X ∪ B|` — reports containing the kept drugs and the target's ADRs.
    pub support_ab: u64,
}

impl ContextRule {
    /// The rule's counts: its own two supports, and the consequent support
    /// and report count of its target, whose counts are `target`.
    pub fn stats(&self, target: &RuleStats) -> RuleStats {
        RuleStats { support_ab: self.support_ab, support_a: self.support_a, ..*target }
    }

    /// The drugs the mask keeps out of its target's `drugs`, in order.
    pub fn drugs<'a, T>(&self, drugs: &'a [T]) -> impl Iterator<Item = &'a T> + 'a {
        kept(drugs, self.mask)
    }

    /// How many drugs the rule keeps: the cardinality of its context level.
    pub fn n_drugs(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// The rule as a standalone [`DrugAdrRule`] of `target`, with its own
    /// item sets: for display, where a rule is named one at a time.
    pub fn to_rule(&self, target: &DrugAdrRule) -> DrugAdrRule {
        DrugAdrRule {
            drugs: self.drugs(target.drugs.items()).copied().collect(),
            adrs: target.adrs.clone(),
            stats: self.stats(&target.stats),
        }
    }
}

/// Whether `context` is the full context of a target of `n_drugs` drugs
/// (Def. 3.5.2): a target of `n ≥ 2` drugs has `2ⁿ − 2` rules, and each
/// mask in `1..2ⁿ − 1` appears exactly once.
pub fn is_complete_context(n_drugs: usize, context: &[ContextRule]) -> bool {
    let full = (1u64 << n_drugs.min(63)) - 1;
    // The length check comes first, so `seen` is no larger than `context`.
    if n_drugs < 2 || context.len() as u64 != full - 1 {
        return false;
    }
    let mut seen = vec![false; full as usize];
    context.iter().all(|c| {
        let mask = c.mask as usize;
        mask != 0 && mask < seen.len() && !std::mem::replace(&mut seen[mask], true)
    })
}

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
/// assert_eq!((context[0].mask, context[0].support_a), (0b01, 3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TargetRules {
    rules: Vec<DrugAdrRule>,
    /// Every target's context rules, targets back to back, each target's
    /// in [`context_masks`] order; `None` for targets built by hand, whose
    /// contexts are probed from the database.
    contexts: Option<Vec<ContextRule>>,
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
                let support_a = support(&scratch);
                // Drug ids sort below ADR ids, so `X ∪ B` is `X` then `B`.
                scratch.extend_from_slice(adrs);
                contexts.push(ContextRule { mask, support_a, support_ab: support(&scratch) });
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

    /// Each target with its context: one [`ContextRule`] for every proper
    /// non-empty subset of its drugs, in ascending mask order. Targets
    /// built by hand have their contexts probed from `db` instead, two
    /// tid-list intersections per rule.
    ///
    /// # Panics
    /// Panics if a target has more than 24 drugs.
    pub fn into_contexts(
        self,
        db: &TransactionDb,
    ) -> impl Iterator<Item = (DrugAdrRule, Vec<ContextRule>)> + '_ {
        let TargetRules { rules, contexts } = self;
        let mut counted = contexts.map(Vec::into_iter);
        let mut scratch: Vec<Item> = Vec::new();
        rules.into_iter().map(move |target| {
            let drugs = target.drugs.items();
            let masks = context_masks(drugs.len());
            let context = match counted.as_mut() {
                Some(counted) => counted.take(masks.len()).collect(),
                None => masks
                    .map(|mask| {
                        select(drugs, mask, &mut scratch);
                        ContextRule {
                            mask,
                            support_a: db.support_of(&scratch) as u64,
                            support_ab: db.support_of_union(&scratch, target.adrs.items()) as u64,
                        }
                    })
                    .collect(),
            };
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

/// The drugs `mask` keeps, in order: none past the 32nd.
fn kept<T>(drugs: &[T], mask: u32) -> impl Iterator<Item = &T> {
    (0..drugs.len().min(32)).filter(move |&b| mask >> b & 1 == 1).map(move |b| &drugs[b])
}

/// Writes the drugs `mask` keeps into `out`, in order.
fn select(drugs: &[Item], mask: u32, out: &mut Vec<Item>) {
    out.clear();
    out.extend(kept(drugs, mask));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_context_rule_keeps_masked_drugs_and_its_targets_consequent() {
        let target = DrugAdrRule {
            drugs: ItemSet::from_ids([3u32, 5, 8]),
            adrs: ItemSet::from_ids([20u32]),
            stats: RuleStats { support_ab: 4, support_a: 5, support_b: 40, n_transactions: 1000 },
        };
        // {d3, d8} ⇒ {a20}, reported 20 times, 10 of them with the ADR.
        let rule = ContextRule { mask: 0b101, support_a: 20, support_ab: 10 };
        assert_eq!(rule.drugs(target.drugs.items()).collect::<Vec<_>>(), [&Item(3), &Item(8)]);
        assert_eq!(rule.n_drugs(), 2);
        let stats = rule.stats(&target.stats);
        assert_eq!((stats.confidence(), stats.support_b, stats.n_transactions), (0.5, 40, 1000));
        let alone = rule.to_rule(&target);
        assert_eq!(
            (alone.drugs, alone.adrs, alone.stats),
            (ItemSet::from_ids([3u32, 8]), target.adrs, stats)
        );
    }

    #[test]
    fn a_complete_context_holds_each_proper_nonempty_mask_once() {
        let rules = |masks: &[u32]| -> Vec<ContextRule> {
            masks.iter().map(|&mask| ContextRule { mask, support_a: 1, support_ab: 1 }).collect()
        };
        assert!(is_complete_context(2, &rules(&[2, 1])));
        assert!(is_complete_context(3, &rules(&[3, 5, 6, 1, 2, 4])));
        assert!(!is_complete_context(2, &rules(&[1, 1])));
        assert!(!is_complete_context(2, &rules(&[1, 3])));
        assert!(!is_complete_context(2, &rules(&[0, 1])));
        assert!(!is_complete_context(3, &rules(&[1, 2, 3, 4, 5])));
        assert!(!is_complete_context(1, &[]));
        assert!(!is_complete_context(32, &[]));
    }
}
