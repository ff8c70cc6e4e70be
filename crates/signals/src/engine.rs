//! The batch score engine: one parallel pass deriving every rule's full
//! disproportionality block from counts the rule layer already holds.
//!
//! The legacy path re-derived each rule's 2×2 table with three
//! [`maras_mining::TransactionDb::support`] scans per rule
//! ([`ContingencyTable::from_db`]), then called each measure separately —
//! O(rules × |DB|) across a ranking pass. Every mined [`DrugAdrRule`]
//! already carries its exact marginals in [`RuleStats`], established once
//! by the miner's compressed tid-set intersections (hybrid array/bitmap
//! kernels from `maras-tidset`), so the table is an O(1)
//! inclusion–exclusion rearrangement ([`ContingencyTable::from_stats`]).
//! The interaction contrast's per-drug rates are the single-drug
//! contextual rules `{d} ⇒ B` that the rule's MCAC has already counted, so
//! the engine reads them from the caller instead of probing the database.
//! The differential suite in `tests/signals_differential.rs` proves the
//! tables and every score bit-identical to the legacy per-rule path at
//! 1/2/4 threads.

use crate::contingency::ContingencyTable;
use crate::disproportionality::SignalScores;
use crate::metrics::SignalsMetrics;
use maras_rules::{ContextRule, DrugAdrRule, RuleStats};
use std::time::Instant;

/// Scores every rule in one pass, sharded across `n_threads` workers
/// (clamped to ≥ 1). Output order matches input order and is identical at
/// every thread count — worker `w` takes the rules whose index is
/// `≡ w (mod n_threads)` and the shards merge back by index.
///
/// Each entry pairs a rule with its single-drug contextual rules
/// `{d} ⇒ B`, one per drug of the rule (the MCAC's singleton level, in any
/// order); single-drug rules pass an empty slice. The table-derived
/// measures come from the rule's stored marginals, and multi-drug rules
/// also get the interaction contrast from the contextual rules' counts.
/// The exclusiveness slot stays 0 here — it needs the rule's whole
/// cluster, which `maras-mcac` attaches during ranking.
pub fn score_rules(
    rules: &[(&DrugAdrRule, &[ContextRule])],
    n_threads: usize,
) -> Vec<SignalScores> {
    let n_threads = n_threads.max(1);
    let metrics = SignalsMetrics::global();
    let started = Instant::now();
    let score_span = maras_obs::span("signals");
    let out = if n_threads == 1 || rules.len() < 2 {
        rules.iter().map(|&(rule, singles)| score_rule(rule, singles)).collect()
    } else {
        score_sharded(rules, n_threads)
    };
    drop(score_span);
    metrics.rules_scored.add(rules.len() as u64);
    metrics.batches.inc();
    metrics.batch_us.observe(started.elapsed().as_micros() as f64);
    metrics.threads.set(n_threads as f64);
    out
}

fn score_sharded(rules: &[(&DrugAdrRule, &[ContextRule])], n_threads: usize) -> Vec<SignalScores> {
    let parent = maras_obs::current_path().unwrap_or_default();
    let parent = &parent;
    let shards: Vec<Vec<(usize, SignalScores)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|w| {
                scope.spawn(move || {
                    let _shard = maras_obs::span_under(parent, "shard");
                    rules
                        .iter()
                        .enumerate()
                        .filter(|(idx, _)| idx % n_threads == w)
                        .map(|(idx, &(rule, singles))| (idx, score_rule(rule, singles)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("scorer thread panicked")).collect()
    });
    let mut out: Vec<Option<SignalScores>> = vec![None; rules.len()];
    for shard in shards {
        for (idx, scores) in shard {
            out[idx] = Some(scores);
        }
    }
    out.into_iter().map(|s| s.expect("every rule index scored exactly once")).collect()
}

fn score_rule(rule: &DrugAdrRule, singles: &[ContextRule]) -> SignalScores {
    let table =
        ContingencyTable::from_stats(&rule.stats).expect("miner-derived rule stats are consistent");
    let base = SignalScores::from_table(table);
    if !rule.is_multi_drug() {
        return base;
    }
    base.with_interaction(interaction(&rule.stats, singles))
}

/// [`crate::interaction::interaction_contrast`] from counts: the rule's
/// stored joint/antecedent supports and each `{d} ⇒ B` rule's. These are
/// the integers that function re-derives with `db.support` scans, so every
/// rate divides identical `f64` values, and `f64::max` over these non-NaN
/// rates gives the same best single rate in any order.
fn interaction(stats: &RuleStats, singles: &[ContextRule]) -> f64 {
    let n = stats.n_transactions.max(1) as f64;
    let s = 0.5 / n;
    let p_combo = stats.confidence();
    let p_best_single = singles.iter().map(|c| c.stats(stats).confidence()).fold(0.0f64, f64::max);
    ((p_combo + s) / (p_best_single + s)).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::interaction_contrast;
    use maras_mining::{Item, ItemSet, TransactionDb};
    use maras_rules::{multi_drug_rules, ItemPartition};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    const P: ItemPartition = ItemPartition { adr_start: 10 };

    fn example_db() -> TransactionDb {
        db(&[
            &[0, 1, 10],
            &[0, 1, 10],
            &[0, 1, 11],
            &[0, 2, 10],
            &[1, 2, 11],
            &[2, 10],
            &[3, 11],
            &[0, 10],
            &[1, 10],
            &[2, 3, 10, 11],
        ])
    }

    /// Each rule's single-drug contextual rules, counted per probe.
    fn singles(d: &TransactionDb, rules: &[DrugAdrRule]) -> Vec<Vec<ContextRule>> {
        rules
            .iter()
            .map(|r| {
                r.drugs
                    .iter()
                    .enumerate()
                    .map(|(i, drug)| {
                        let single =
                            DrugAdrRule::from_parts(ItemSet::singleton(drug), r.adrs.clone(), d);
                        ContextRule {
                            mask: 1 << i,
                            support_a: single.stats.support_a,
                            support_ab: single.stats.support_ab,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn inputs<'a>(
        rules: &'a [DrugAdrRule],
        singles: &'a [Vec<ContextRule>],
    ) -> Vec<(&'a DrugAdrRule, &'a [ContextRule])> {
        rules.iter().zip(singles).map(|(r, s)| (r, s.as_slice())).collect()
    }

    #[test]
    fn engine_matches_legacy_per_rule_path() {
        let d = example_db();
        let rules = multi_drug_rules(&d, &P, 1);
        assert!(!rules.is_empty());
        let singles = singles(&d, &rules);
        let scored = score_rules(&inputs(&rules, &singles), 1);
        assert_eq!(scored.len(), rules.len());
        for (rule, got) in rules.iter().zip(&scored) {
            let table = ContingencyTable::from_db(&d, &rule.drugs, &rule.adrs);
            let want = SignalScores::from_table(table).with_interaction(interaction_contrast(
                &d,
                &rule.drugs,
                &rule.adrs,
            ));
            assert_eq!(got, &want, "rule {rule}");
        }
    }

    #[test]
    fn single_rule_order_does_not_change_the_contrast() {
        let d = example_db();
        let rules = multi_drug_rules(&d, &P, 1);
        let singles = singles(&d, &rules);
        let reversed: Vec<Vec<ContextRule>> =
            singles.iter().map(|s| s.iter().rev().cloned().collect()).collect();
        let a = score_rules(&inputs(&rules, &singles), 1);
        let b = score_rules(&inputs(&rules, &reversed), 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interaction.to_bits(), y.interaction.to_bits());
        }
    }

    #[test]
    fn thread_count_does_not_change_scores() {
        let d = example_db();
        let rules = multi_drug_rules(&d, &P, 1);
        let singles = singles(&d, &rules);
        let inputs = inputs(&rules, &singles);
        let baseline = score_rules(&inputs, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(score_rules(&inputs, threads), baseline, "threads={threads}");
        }
        // More workers than rules must still cover every index.
        let two = &inputs[..2.min(inputs.len())];
        assert_eq!(score_rules(two, 8), score_rules(two, 1));
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(score_rules(&[], 4).is_empty());
    }

    #[test]
    fn single_drug_rules_get_zero_interaction() {
        let d = example_db();
        let single =
            DrugAdrRule::from_parts(ItemSet::singleton(Item(0)), ItemSet::singleton(Item(10)), &d);
        let scored = score_rules(&[(&single, &[])], 1);
        assert_eq!(scored[0].interaction, 0.0);
        assert!(scored[0].prr.estimate > 0.0);
    }
}
