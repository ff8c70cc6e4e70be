//! Ranking of multi-drug associations (thesis §3.6, §5.3, Table 5.2).
//!
//! Table 5.2 compares four rankings of the quarter's multi-drug
//! associations: plain confidence and plain lift over the *unfiltered* rule
//! pool, and exclusiveness (with confidence or lift) over the closed MCAC
//! pool. All four live here, plus improvement as an ablation baseline.

use crate::cluster::Mcac;
use crate::exclusiveness::{improvement, ExclusivenessConfig};
use maras_mining::TransactionDb;
use maras_rules::{DrugAdrRule, Measure};
use maras_signals::{score_rules, ContingencyTable, SignalScores};

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

/// The ranking methods of Table 5.2, plus the improvement ablation and the
/// disproportionality-baseline orderings served by `--rank-by` / `?sort_by=`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankingMethod {
    /// Order rules by raw confidence (no closedness filter, no context).
    Confidence,
    /// Order rules by raw lift (no closedness filter, no context).
    Lift,
    /// Exclusiveness (Formula 3.5) with the given inner measure and θ.
    Exclusiveness(ExclusivenessConfig),
    /// Bayardo's improvement (Formula 3.2) with the given inner measure.
    Improvement(Measure),
    /// Proportional reporting ratio point estimate.
    Prr,
    /// Reporting odds ratio point estimate.
    Ror,
    /// MGPS shrunken geometric mean (EBGM).
    Ebgm,
    /// Geometric mean of PRR, ROR and EBGM — a composite that rewards
    /// agreement across the frequentist and Bayesian baselines.
    Composite,
}

impl RankingMethod {
    /// The thesis's "Exclusiveness with Confidence" column.
    pub fn exclusiveness_confidence() -> Self {
        RankingMethod::Exclusiveness(ExclusivenessConfig::default())
    }

    /// The thesis's "Exclusiveness with Lift" column.
    pub fn exclusiveness_lift() -> Self {
        RankingMethod::Exclusiveness(ExclusivenessConfig {
            measure: Measure::Lift,
            ..Default::default()
        })
    }
}

impl std::fmt::Display for RankingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankingMethod::Confidence => write!(f, "Confidence"),
            RankingMethod::Lift => write!(f, "Lift"),
            RankingMethod::Exclusiveness(cfg) => {
                write!(f, "Exclusiveness with {}", cfg.measure)
            }
            RankingMethod::Improvement(m) => write!(f, "Improvement with {m}"),
            RankingMethod::Prr => write!(f, "PRR"),
            RankingMethod::Ror => write!(f, "ROR"),
            RankingMethod::Ebgm => write!(f, "EBGM"),
            RankingMethod::Composite => write!(f, "Composite"),
        }
    }
}

/// Builds and scores a cluster for every multi-drug rule, returning clusters
/// in descending score order (deterministic tie-break on the target rule).
///
/// Single-threaded convenience wrapper over [`rank_clusters_with`].
pub fn rank_clusters(
    rules: Vec<DrugAdrRule>,
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
/// The full disproportionality block is computed for every rule in one
/// signal-engine batch pass sharded across `n_threads` workers; the chosen
/// `method` then just picks its key out of the block (or the context-aware
/// legacy scores). Output is identical at every thread count.
pub fn rank_clusters_with(
    rules: Vec<DrugAdrRule>,
    db: &TransactionDb,
    method: RankingMethod,
    n_threads: usize,
) -> Vec<RankedMcac> {
    let _span = maras_obs::span("mcac");
    let rules: Vec<DrugAdrRule> = rules.into_iter().filter(DrugAdrRule::is_multi_drug).collect();
    let base = score_rules(db, &rules, n_threads);
    let cfg = exclusiveness_config(method);
    let mut out: Vec<RankedMcac> = rules
        .into_iter()
        .zip(base)
        .map(|(rule, base)| {
            let cluster = Mcac::build(rule, db);
            let scores = base.with_exclusiveness(cfg.score(&cluster));
            let score = score_from(&cluster, &scores, method);
            RankedMcac { cluster, score, scores }
        })
        .collect();
    sort_ranked(&mut out);
    maras_obs::counter("maras_mcac_clusters_total", "MCAC clusters built and ranked")
        .add(out.len() as u64);
    out
}

/// The exclusiveness configuration a ranking carries along in its score
/// block: the method's own when ranking by exclusiveness, the default
/// otherwise (the block still reports exclusiveness next to the baselines).
fn exclusiveness_config(method: RankingMethod) -> ExclusivenessConfig {
    match method {
        RankingMethod::Exclusiveness(cfg) => cfg,
        _ => ExclusivenessConfig::default(),
    }
}

/// Picks the ranking key for `method` out of a computed score block.
fn score_from(cluster: &Mcac, scores: &SignalScores, method: RankingMethod) -> f64 {
    match method {
        RankingMethod::Confidence => cluster.target.confidence(),
        RankingMethod::Lift => cluster.target.lift(),
        RankingMethod::Exclusiveness(_) => scores.exclusiveness,
        RankingMethod::Improvement(m) => improvement(cluster, m),
        RankingMethod::Prr => scores.prr.estimate,
        RankingMethod::Ror => scores.ror.estimate,
        RankingMethod::Ebgm => scores.ebgm.ebgm,
        RankingMethod::Composite => {
            (scores.prr.estimate * scores.ror.estimate * scores.ebgm.ebgm).cbrt()
        }
    }
}

/// Scores one cluster under a ranking method, deriving the score block from
/// the target rule's stored marginals.
pub fn score_cluster(cluster: &Mcac, method: RankingMethod) -> f64 {
    let table = ContingencyTable::from_stats(&cluster.target.stats)
        .expect("rule stats counted from one database are consistent");
    let cfg = exclusiveness_config(method);
    let scores = SignalScores::from_table(table).with_exclusiveness(cfg.score(cluster));
    score_from(cluster, &scores, method)
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
    fn improvement_method_runs() {
        let d = planted_db();
        let rules = multi_drug_rules(&d, &P, 2);
        let ranked = rank_clusters(rules, &d, RankingMethod::Improvement(Measure::Confidence));
        assert!(!ranked.is_empty());
        assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
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
    fn method_display() {
        assert_eq!(RankingMethod::Confidence.to_string(), "Confidence");
        assert_eq!(
            RankingMethod::exclusiveness_confidence().to_string(),
            "Exclusiveness with confidence"
        );
        assert_eq!(RankingMethod::exclusiveness_lift().to_string(), "Exclusiveness with lift");
        assert_eq!(RankingMethod::Prr.to_string(), "PRR");
        assert_eq!(RankingMethod::Ror.to_string(), "ROR");
        assert_eq!(RankingMethod::Ebgm.to_string(), "EBGM");
        assert_eq!(RankingMethod::Composite.to_string(), "Composite");
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
    fn baseline_methods_rank_by_their_key() {
        let d = planted_db();
        for (method, key) in [
            (
                RankingMethod::Prr,
                (|r: &RankedMcac| r.scores.prr.estimate) as fn(&RankedMcac) -> f64,
            ),
            (RankingMethod::Ror, |r| r.scores.ror.estimate),
            (RankingMethod::Ebgm, |r| r.scores.ebgm.ebgm),
            (RankingMethod::Composite, |r| {
                (r.scores.prr.estimate * r.scores.ror.estimate * r.scores.ebgm.ebgm).cbrt()
            }),
        ] {
            let rules = multi_drug_rules(&d, &P, 2);
            let ranked = rank_clusters(rules, &d, method);
            assert!(!ranked.is_empty(), "{method}");
            for r in &ranked {
                assert_eq!(r.score, key(r), "{method}");
                assert!(r.score.is_finite(), "{method}: {}", r.score);
            }
            assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score), "{method}");
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

    #[test]
    fn score_cluster_matches_ranked_score() {
        let d = planted_db();
        let rules = multi_drug_rules(&d, &P, 2);
        for method in [
            RankingMethod::Confidence,
            RankingMethod::exclusiveness_confidence(),
            RankingMethod::Prr,
            RankingMethod::Ebgm,
        ] {
            for r in rank_clusters(rules.clone(), &d, method) {
                assert_eq!(r.score, score_cluster(&r.cluster, method), "{method}");
            }
        }
    }
}
