//! The exclusiveness interestingness score (thesis §3.6, Formulas 3.2–3.5).
//!
//! Exclusiveness measures how much of the target rule's strength is *not*
//! explained by its context: high when the full drug combination is strongly
//! associated with the ADRs while every drug subset is weakly associated.
//! The score evolves in the thesis through three formulas, all kept here:
//!
//! * Formula 3.3 — `p − mean(context)`;
//! * Formula 3.4 — Formula 3.3 scaled by `(1 − θ·Cv)` so a context with one
//!   high-confidence rule hidden in a low average still penalizes;
//! * Formula 3.5 — the per-level form with a cardinality decay `fd(k)`,
//!   giving single-drug context the greatest weight:
//!   `(1/|V|) Σ_k (p − v̄_k) · fd(k) · (1 − θ·Cv(v_k))`.
//!
//! Bayardo et al.'s *improvement* (Formula 3.2) is implemented as the
//! baseline: `min_{X ⊂ A} (p − conf(X ⇒ B))`, which uses only the single
//! strongest sub-rule and thus cannot distinguish clusters whose remaining
//! context differs (§3.6's motivating criticism).

use crate::cluster::Mcac;
use maras_rules::Measure;

/// Decay function `fd(k)` weighting context levels by antecedent
/// cardinality (§3.6: importance decreases as `k` grows).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DecayFn {
    /// The thesis's experimental choice: `fd(k) = 1 − (k−1)/n` where `n` is
    /// the number of drugs in the target.
    #[default]
    Linear,
    /// No decay: every level weighs 1 (ablation baseline).
    Flat,
    /// Exponential decay `fd(k) = α^(k−1)` with `α ∈ (0, 1]`.
    Exponential(f64),
}

impl DecayFn {
    /// Weight for a level of cardinality `k` in a target with `n` drugs.
    pub fn weight(&self, k: usize, n: usize) -> f64 {
        debug_assert!(k >= 1 && k < n);
        match *self {
            DecayFn::Linear => 1.0 - (k as f64 - 1.0) / n as f64,
            DecayFn::Flat => 1.0,
            DecayFn::Exponential(alpha) => alpha.powi(k as i32 - 1),
        }
    }
}

/// Configuration of the exclusiveness score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExclusivenessConfig {
    /// Strength measure for the target and its context (confidence or lift;
    /// Table 5.2 ranks with both).
    pub measure: Measure,
    /// Coefficient-of-variation penalty strength `θ ∈ [0, 1]` (Formula 3.4).
    pub theta: f64,
    /// Level decay `fd(k)` (Formula 3.5).
    pub decay: DecayFn,
}

impl Default for ExclusivenessConfig {
    fn default() -> Self {
        ExclusivenessConfig { measure: Measure::Confidence, theta: 0.5, decay: DecayFn::Linear }
    }
}

impl ExclusivenessConfig {
    /// Formula 3.5: the full multi-level exclusiveness score of a cluster.
    pub fn score(&self, cluster: &Mcac) -> f64 {
        let n = cluster.n_drugs();
        let p = cluster.target.stats.measure(self.measure);
        let n_levels = cluster.levels.len() as f64;
        debug_assert!(n_levels >= 1.0);
        let mut acc = 0.0;
        for level in &cluster.levels {
            let values: Vec<f64> =
                level.rules.iter().map(|r| r.stats.measure(self.measure)).collect();
            let mean = mean(&values);
            let cv = coefficient_of_variation(&values);
            let penalty = (1.0 - self.theta * cv).max(0.0);
            acc += (p - mean) * self.decay.weight(level.cardinality, n) * penalty;
        }
        acc / n_levels
    }

    /// Formula 3.3: plain contrast against the whole-context mean.
    pub fn score_mean(&self, cluster: &Mcac) -> f64 {
        let p = cluster.target.stats.measure(self.measure);
        let values: Vec<f64> =
            cluster.context_rules().map(|r| r.stats.measure(self.measure)).collect();
        p - mean(&values)
    }

    /// Formula 3.4: whole-context mean with the CV penalty.
    pub fn score_cv(&self, cluster: &Mcac) -> f64 {
        let p = cluster.target.stats.measure(self.measure);
        let values: Vec<f64> =
            cluster.context_rules().map(|r| r.stats.measure(self.measure)).collect();
        let penalty = (1.0 - self.theta * coefficient_of_variation(&values)).max(0.0);
        (p - mean(&values)) * penalty
    }
}

/// Formula 3.2 — Bayardo et al.'s improvement of the target over its best
/// sub-rule, under the configured measure.
pub fn improvement(cluster: &Mcac, measure: Measure) -> f64 {
    let p = cluster.target.stats.measure(measure);
    cluster.context_rules().map(|r| p - r.stats.measure(measure)).fold(f64::INFINITY, f64::min)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population coefficient of variation `Cv = σ/μ`, defined as 0 for empty
/// input or zero mean (a context of all-zero confidences has no spread worth
/// penalizing — the target already maximally dominates it).
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let m = mean(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt() / m
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::{Item, ItemSet, TransactionDb};
    use maras_rules::DrugAdrRule;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn cluster(rows: &[&[u32]], drugs: &[u32], adrs: &[u32]) -> Mcac {
        let d = db(rows);
        let t = DrugAdrRule::from_parts(
            ItemSet::from_ids(drugs.iter().copied()),
            ItemSet::from_ids(adrs.iter().copied()),
            &d,
        );
        Mcac::build(t, &d)
    }

    /// A clean interaction: combo always causes the ADR, singles never do.
    fn exclusive_cluster() -> Mcac {
        cluster(&[&[0, 1, 10], &[0, 1, 10], &[0, 2], &[0, 3], &[1, 2], &[1, 3]], &[0, 1], &[10])
    }

    /// A dominated association: drug 0 alone causes the ADR just as often.
    fn dominated_cluster() -> Mcac {
        cluster(&[&[0, 1, 10], &[0, 1, 10], &[0, 10], &[0, 10], &[1, 2], &[1, 3]], &[0, 1], &[10])
    }

    #[test]
    fn exclusive_combo_scores_high() {
        let cfg = ExclusivenessConfig::default();
        let score = cfg.score(&exclusive_cluster());
        // p=1, singleton confidences 2/4=0.5 and 2/6≈0.33 → positive score.
        assert!(score > 0.2, "score={score}");
    }

    #[test]
    fn dominated_combo_scores_lower() {
        let cfg = ExclusivenessConfig::default();
        let s_exclusive = cfg.score(&exclusive_cluster());
        let s_dominated = cfg.score(&dominated_cluster());
        assert!(
            s_exclusive > s_dominated,
            "exclusive {s_exclusive} must beat dominated {s_dominated}"
        );
    }

    #[test]
    fn improvement_is_min_contrast() {
        let c = dominated_cluster();
        let imp = improvement(&c, Measure::Confidence);
        // Strongest sub-rule: {0}=>{10}: support({0})=4, joint=4 → conf=1.0.
        // p=1.0 → improvement 0.
        assert_eq!(imp, 0.0);
        // Exclusiveness still sees the weak drug-1 context; improvement doesn't.
        let cfg = ExclusivenessConfig::default();
        assert!(cfg.score(&c) > imp);
    }

    #[test]
    fn improvement_negative_when_subrule_stronger() {
        // Sub-rule more predictive than the full combination.
        let c = cluster(&[&[0, 10], &[0, 10], &[0, 1, 10], &[0, 1, 2]], &[0, 1], &[10]);
        // target: sup({0,1})=2, joint=1 → 0.5 ; {0}: 3/4=0.75 → improvement < 0
        assert!(improvement(&c, Measure::Confidence) < 0.0);
    }

    #[test]
    fn formula_progression_on_uniform_context() {
        // With a single context level (2 drugs) and uniform values, 3.3, 3.4
        // and 3.5 coincide: |V|=1, fd(1)=1 for Linear (1-(0)/2=1), Cv=0.
        let c = exclusive_cluster();
        let cfg = ExclusivenessConfig { theta: 0.5, ..Default::default() };
        let f33 = cfg.score_mean(&c);
        let f34 = cfg.score_cv(&c);
        let f35 = cfg.score(&c);
        assert!((f33 - f35).abs() < 1e-12 || f34 <= f33);
        // CV penalty can only reduce the mean-based score when positive.
        assert!(f34 <= f33 + 1e-12);
    }

    #[test]
    fn cv_penalty_distinguishes_spread_contexts() {
        // Two contexts with the same mean, different spread: the one hiding
        // a single high-confidence sub-rule must score lower (§3.6).
        let even = cluster(
            &[&[0, 1, 10], &[0, 1, 10], &[0, 10], &[0, 2], &[1, 10], &[1, 2]],
            &[0, 1],
            &[10],
        ); // both singles conf 0.5
        let spread = cluster(
            &[&[0, 1, 10], &[0, 1, 10], &[0, 10], &[0, 10], &[1, 2], &[1, 3]],
            &[0, 1],
            &[10],
        ); // drug0 conf 1.0, drug1 conf ~0
        let cfg = ExclusivenessConfig { theta: 1.0, ..Default::default() };
        // Means equal (0.5), so Formula 3.3 ties...
        assert!((cfg.score_mean(&even) - cfg.score_mean(&spread)).abs() < 0.01);
        // ...but 3.4/3.5 break the tie against the spread context.
        assert!(cfg.score_cv(&even) > cfg.score_cv(&spread));
        assert!(cfg.score(&even) > cfg.score(&spread));
    }

    #[test]
    fn decay_weights() {
        assert_eq!(DecayFn::Linear.weight(1, 4), 1.0);
        assert_eq!(DecayFn::Linear.weight(2, 4), 0.75);
        assert_eq!(DecayFn::Linear.weight(3, 4), 0.5);
        assert_eq!(DecayFn::Flat.weight(3, 4), 1.0);
        let e = DecayFn::Exponential(0.5);
        assert_eq!(e.weight(1, 4), 1.0);
        assert_eq!(e.weight(3, 4), 0.25);
    }

    #[test]
    fn cv_of_degenerate_inputs() {
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.5, 0.5, 0.5]), 0.0);
        assert!(coefficient_of_variation(&[0.0, 1.0]) > 0.9);
    }

    #[test]
    fn lift_measure_variant_runs() {
        let cfg = ExclusivenessConfig { measure: Measure::Lift, ..Default::default() };
        let s = cfg.score(&exclusive_cluster());
        assert!(s.is_finite());
        assert!(s > 0.0, "exclusive combo should have positive lift contrast: {s}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_cluster() -> impl Strategy<Value = Mcac> {
            (
                proptest::collection::vec(
                    proptest::collection::vec(prop_oneof![0u32..4, 10u32..12], 1..6),
                    2..20,
                ),
                2usize..4,
            )
                .prop_map(|(rows, n)| {
                    let mut rows = rows;
                    // Guarantee the target combination occurs at least once.
                    rows.push((0..n as u32).chain([10]).collect());
                    let d = TransactionDb::new(
                        rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                    );
                    let t = DrugAdrRule::from_parts(
                        (0..n as u32).map(Item).collect(),
                        ItemSet::from_ids([10u32]),
                        &d,
                    );
                    Mcac::build(t, &d)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn score_bounded_for_confidence(c in arb_cluster(), theta in 0.0f64..1.0) {
                let cfg = ExclusivenessConfig { theta, ..Default::default() };
                for s in [cfg.score(&c), cfg.score_mean(&c), cfg.score_cv(&c)] {
                    prop_assert!(s.is_finite());
                    prop_assert!((-1.0..=1.0).contains(&s), "confidence contrast out of range: {s}");
                }
            }

            #[test]
            fn improvement_le_target_strength(c in arb_cluster()) {
                let p = c.target.confidence();
                prop_assert!(improvement(&c, Measure::Confidence) <= p + 1e-12);
            }

            #[test]
            fn zero_theta_ignores_cv(c in arb_cluster()) {
                let cfg = ExclusivenessConfig { theta: 0.0, ..Default::default() };
                prop_assert!((cfg.score_cv(&c) - cfg.score_mean(&c)).abs() < 1e-12);
            }
        }
    }
}
