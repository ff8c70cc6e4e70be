//! Ranking of multi-drug associations (thesis §3.6, §5.3, Table 5.2).
//!
//! Table 5.2 compares four rankings of the quarter's multi-drug
//! associations: plain confidence and plain lift over the *unfiltered* rule
//! pool ([`rank_rules_by`]), and exclusiveness (with confidence or lift)
//! over the closed MCAC pool ([`rank_clusters`]). The cluster ranking can
//! also order by a disproportionality baseline ([`RankKey`]).

use crate::cluster::{build_clusters, Mcac};
use crate::exclusiveness::ExclusivenessConfig;
use maras_mining::TransactionDb;
use maras_rules::{DrugAdrRule, Measure, TargetRules};
use maras_signals::{score_rules, RankKey, SignalScores};

/// A scored cluster, the unit of MARAS's ranked output.
#[derive(Debug, Clone)]
pub struct RankedMcac {
    /// The cluster (target rule + full context).
    pub cluster: Mcac,
    /// Interestingness under the ranking's score.
    pub score: f64,
    /// The full disproportionality block for the target rule (every
    /// baseline measure plus the cluster's exclusiveness), computed once by
    /// the signal engine during ranking.
    pub scores: SignalScores,
}

/// How clusters are ranked: the key that orders them, and the exclusiveness
/// settings (measure, θ, decay) every score block is computed with,
/// whatever the key. The default is the paper's ranking, exclusiveness
/// with confidence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RankingMethod {
    /// The score that orders the clusters.
    pub key: RankKey,
    /// The exclusiveness every cluster's score block carries.
    pub exclusiveness: ExclusivenessConfig,
}

impl RankingMethod {
    /// The thesis's "Exclusiveness with Confidence" column.
    pub fn exclusiveness_confidence() -> Self {
        RankingMethod::default()
    }

    /// The thesis's "Exclusiveness with Lift" column.
    pub fn exclusiveness_lift() -> Self {
        RankingMethod {
            key: RankKey::Exclusiveness,
            exclusiveness: ExclusivenessConfig { measure: Measure::Lift, ..Default::default() },
        }
    }
}

/// Builds and scores a cluster for every multi-drug rule, returning clusters
/// in descending score order (deterministic tie-break on the target rule).
///
/// Single-threaded convenience wrapper over [`rank_clusters_with`].
pub fn rank_clusters(
    rules: impl Into<TargetRules>,
    db: &TransactionDb,
    method: RankingMethod,
) -> Vec<RankedMcac> {
    rank_clusters_with(rules, db, method, 1)
}

/// Builds and scores a cluster for every multi-drug rule, returning clusters
/// in descending score order (deterministic tie-break on score, then target
/// support, then antecedent, then consequent — so every ranking method is a
/// total order regardless of thread count).
///
/// Single-drug rules are dropped. Every cluster is built first, by
/// [`build_clusters`]: the miner's targets carry their context counts, and
/// hand-built ones are probed from `db`. The full disproportionality block
/// is then computed for every rule in one signal-engine batch pass sharded
/// across `n_threads` workers, reading each cluster's singleton level for the
/// interaction contrast, and given the cluster's exclusiveness under
/// `method.exclusiveness`; `method.key` then picks the score out of the
/// block. Output is identical at every thread count.
pub fn rank_clusters_with(
    rules: impl Into<TargetRules>,
    db: &TransactionDb,
    method: RankingMethod,
    n_threads: usize,
) -> Vec<RankedMcac> {
    let _span = maras_obs::span("mcac");
    let mut targets = rules.into();
    targets.retain_multi_drug();
    let clusters = build_clusters(targets, db);
    let inputs: Vec<_> = clusters.iter().map(|c| (&c.target, c.singleton_level())).collect();
    let base = score_rules(&inputs, n_threads);
    let mut out: Vec<RankedMcac> = clusters
        .into_iter()
        .zip(base)
        .map(|(cluster, base)| {
            let scores = base.with_exclusiveness(method.exclusiveness.score(&cluster));
            RankedMcac { cluster, score: method.key.value(&scores), scores }
        })
        .collect();
    sort_ranked(&mut out);
    maras_obs::counter("maras_mcac_clusters_total", "MCAC clusters built and ranked")
        .add(out.len() as u64);
    out
}

/// Orders a plain rule pool by confidence or lift — the two context-free
/// columns of Table 5.2, which operate on the unfiltered rule pool.
pub fn rank_rules_by(mut rules: Vec<DrugAdrRule>, measure: Measure) -> Vec<DrugAdrRule> {
    rules.sort_by(|a, b| {
        b.stats
            .measure(measure)
            .partial_cmp(&a.stats.measure(measure))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.support().cmp(&a.support()))
            .then_with(|| a.drugs.cmp(&b.drugs))
            .then_with(|| a.adrs.cmp(&b.adrs))
    });
    rules
}

fn sort_ranked(out: &mut [RankedMcac]) {
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.cluster.target.support().cmp(&a.cluster.target.support()))
            .then_with(|| a.cluster.target.drugs.cmp(&b.cluster.target.drugs))
            .then_with(|| a.cluster.target.adrs.cmp(&b.cluster.target.adrs))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::{Item, ItemSet};
    use maras_rules::{multi_drug_rules, ItemPartition};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    const P: ItemPartition = ItemPartition { adr_start: 10 };

    /// A database with a planted interaction {0,1}=>{10} (exclusive) and a
    /// dominated combination {2,3}=>{11} where drug 2 alone explains it.
    fn planted_db() -> TransactionDb {
        db(&[
            // exclusive interaction: combo present => ADR, singles never
            &[0, 1, 10],
            &[0, 1, 10],
            &[0, 1, 10],
            &[0, 4],
            &[0, 5],
            &[1, 4],
            &[1, 5],
            // dominated: drug 2 causes ADR 11 alone all the time
            &[2, 3, 11],
            &[2, 3, 11],
            &[2, 3, 11],
            &[2, 11],
            &[2, 11],
            &[2, 11],
            &[3, 6],
        ])
    }

    #[test]
    fn exclusiveness_ranks_planted_interaction_first() {
        let d = planted_db();
        let rules = multi_drug_rules(&d, &P, 2);
        let ranked = rank_clusters(rules, &d, RankingMethod::exclusiveness_confidence());
        assert!(!ranked.is_empty());
        let top = &ranked[0].cluster.target;
        assert_eq!(top.drugs, ItemSet::from_ids([0u32, 1]));
        assert_eq!(top.adrs, ItemSet::from_ids([10u32]));
        // The dominated combo must rank strictly below.
        let dominated_pos = ranked
            .iter()
            .position(|r| r.cluster.target.drugs == ItemSet::from_ids([2u32, 3]))
            .expect("dominated combo present");
        assert!(dominated_pos > 0);
        assert!(ranked[0].score > ranked[dominated_pos].score);
    }

    #[test]
    fn plain_confidence_cannot_separate_them() {
        // Both combos have confidence 1.0 — the thesis's §5.3 observation
        // that context-free rankings are dominated by uninteresting rules.
        let d = planted_db();
        let rules = multi_drug_rules(&d, &P, 2);
        let ranked = rank_rules_by(rules, Measure::Confidence);
        let c_exclusive =
            ranked.iter().find(|r| r.drugs == ItemSet::from_ids([0u32, 1])).unwrap().confidence();
        let c_dominated =
            ranked.iter().find(|r| r.drugs == ItemSet::from_ids([2u32, 3])).unwrap().confidence();
        assert_eq!(c_exclusive, c_dominated);
    }

    #[test]
    fn scores_descending_with_deterministic_ties() {
        let d = planted_db();
        let rules = multi_drug_rules(&d, &P, 1);
        let ranked = rank_clusters(rules.clone(), &d, RankingMethod::exclusiveness_confidence());
        assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
        // Re-ranking the same input yields the same order.
        let again = rank_clusters(rules, &d, RankingMethod::exclusiveness_confidence());
        let order: Vec<_> = ranked.iter().map(|r| r.cluster.target.drugs.clone()).collect();
        let order2: Vec<_> = again.iter().map(|r| r.cluster.target.drugs.clone()).collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn single_drug_rules_are_excluded() {
        let d = planted_db();
        let mut rules = multi_drug_rules(&d, &P, 1);
        // Inject a single-drug rule; rank_clusters must drop it.
        rules.push(DrugAdrRule::from_parts(
            ItemSet::from_ids([2u32]),
            ItemSet::from_ids([11u32]),
            &d,
        ));
        let ranked = rank_clusters(rules, &d, RankingMethod::exclusiveness_confidence());
        assert!(ranked.iter().all(|r| r.cluster.n_drugs() >= 2));
    }

    #[test]
    fn ranked_clusters_carry_full_score_block() {
        let d = planted_db();
        let rules = multi_drug_rules(&d, &P, 2);
        let method = RankingMethod::exclusiveness_confidence();
        let ranked = rank_clusters(rules, &d, method);
        assert!(!ranked.is_empty());
        for r in &ranked {
            // The block's table is the target rule's own marginals.
            let want =
                maras_signals::ContingencyTable::from_stats(&r.cluster.target.stats).unwrap();
            assert_eq!(r.scores.table, want);
            // Exclusiveness in the block matches the ranking key under the
            // exclusiveness method.
            assert_eq!(r.score, r.scores.exclusiveness);
            assert_eq!(r.scores.exclusiveness, ExclusivenessConfig::default().score(&r.cluster));
            assert!(!r.scores.prr.estimate.is_nan());
            assert!(!r.scores.ebgm.ebgm.is_nan());
        }
    }

    #[test]
    fn every_key_ranks_by_its_value_and_keeps_the_callers_exclusiveness() {
        let d = planted_db();
        let exclusiveness =
            ExclusivenessConfig { measure: Measure::Lift, theta: 0.9, ..Default::default() };
        for key in RankKey::ALL {
            let method = RankingMethod { key, exclusiveness };
            let ranked = rank_clusters(multi_drug_rules(&d, &P, 2), &d, method);
            assert!(!ranked.is_empty(), "{key:?}");
            for r in &ranked {
                assert_eq!(r.score, key.value(&r.scores), "{key:?}");
                assert!(r.score.is_finite(), "{key:?}: {}", r.score);
                assert_eq!(r.scores.exclusiveness, exclusiveness.score(&r.cluster), "{key:?}");
            }
            assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score), "{key:?}");
        }
    }

    #[test]
    fn thread_count_does_not_change_ranking() {
        let d = planted_db();
        let method = RankingMethod::exclusiveness_confidence();
        let baseline = rank_clusters_with(multi_drug_rules(&d, &P, 1), &d, method, 1);
        for threads in [2, 4, 8] {
            let par = rank_clusters_with(multi_drug_rules(&d, &P, 1), &d, method, threads);
            assert_eq!(par.len(), baseline.len());
            for (a, b) in par.iter().zip(&baseline) {
                assert_eq!(a.cluster.target, b.cluster.target, "threads={threads}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "threads={threads}");
                assert_eq!(a.scores, b.scores, "threads={threads}");
            }
        }
    }
}
