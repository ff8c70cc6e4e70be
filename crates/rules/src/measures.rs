//! Interestingness measures for associations (thesis §2.1, Formulas 2.1–2.3).
//!
//! The thesis uses *absolute* support (`Support(R) = |A ∪ B|`, Formula 2.1),
//! confidence as the MLE of `P(B|A)` (Formula 2.2), and lift as the
//! observed-to-independent co-occurrence ratio (Formula 2.3). §3.6 notes the
//! exclusiveness computation "could be replaced by other reasonable
//! measures"; [`Measure`] is that plug point.

/// Confidence of a rule from raw counts: `|A∪B| / |A|` (Formula 2.2).
///
/// Returns 0 when the antecedent never occurs — the convention MARAS needs
/// for contextual sub-rules whose drug subset was never reported alone.
pub fn confidence(support_ab: u64, support_a: u64) -> f64 {
    if support_a == 0 {
        0.0
    } else {
        support_ab as f64 / support_a as f64
    }
}

/// Lift of a rule from raw counts: `(|A∪B| · N) / (|A| · |B|)` (Formula 2.3).
///
/// Returns 0 when either side never occurs.
pub fn lift(support_ab: u64, support_a: u64, support_b: u64, n_transactions: u64) -> f64 {
    if support_a == 0 || support_b == 0 {
        0.0
    } else {
        (support_ab as f64 * n_transactions as f64) / (support_a as f64 * support_b as f64)
    }
}

/// The raw counts every measure is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleStats {
    /// `|A ∪ B|` — reports containing the whole rule.
    pub support_ab: u64,
    /// `|A|` — reports containing the antecedent (drug set).
    pub support_a: u64,
    /// `|B|` — reports containing the consequent (ADR set).
    pub support_b: u64,
    /// `N` — total reports in the database.
    pub n_transactions: u64,
}

impl RuleStats {
    /// Formula 2.2.
    pub fn confidence(&self) -> f64 {
        confidence(self.support_ab, self.support_a)
    }

    /// Formula 2.3.
    pub fn lift(&self) -> f64 {
        lift(self.support_ab, self.support_a, self.support_b, self.n_transactions)
    }

    /// Relative support `|A∪B| / N` (the probabilistic reading of 2.1).
    pub fn relative_support(&self) -> f64 {
        if self.n_transactions == 0 {
            0.0
        } else {
            self.support_ab as f64 / self.n_transactions as f64
        }
    }

    /// Evaluates the given measure on these counts.
    pub fn measure(&self, m: Measure) -> f64 {
        match m {
            Measure::Confidence => self.confidence(),
            Measure::Lift => self.lift(),
            Measure::Support => self.relative_support(),
        }
    }
}

/// Strength measure selector (thesis §3.6 experiments with confidence *and*
/// lift; Table 5.2 shows both rankings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Measure {
    /// Formula 2.2 — the thesis's default for exclusiveness.
    #[default]
    Confidence,
    /// Formula 2.3 — favours rules with rarer consequents (§5.3).
    Lift,
    /// Relative support, kept for completeness of §2.1.
    Support,
}

impl std::fmt::Display for Measure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Measure::Confidence => write!(f, "confidence"),
            Measure::Lift => write!(f, "lift"),
            Measure::Support => write!(f, "support"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_basic() {
        assert_eq!(confidence(2, 4), 0.5);
        assert_eq!(confidence(4, 4), 1.0);
        assert_eq!(confidence(0, 4), 0.0);
    }

    #[test]
    fn confidence_zero_antecedent_is_zero() {
        assert_eq!(confidence(0, 0), 0.0);
        assert_eq!(confidence(5, 0), 0.0);
    }

    #[test]
    fn lift_independence_is_one() {
        // A in half the db, B in half, together in a quarter: independent.
        assert_eq!(lift(25, 50, 50, 100), 1.0);
    }

    #[test]
    fn lift_positive_and_negative_association() {
        assert!(lift(50, 50, 50, 100) > 1.0); // perfectly dependent
        assert!(lift(1, 50, 50, 100) < 1.0); // anti-associated
        assert_eq!(lift(0, 0, 10, 100), 0.0);
        assert_eq!(lift(0, 10, 0, 100), 0.0);
    }

    #[test]
    fn stats_accessors_agree_with_free_functions() {
        let s = RuleStats { support_ab: 3, support_a: 6, support_b: 10, n_transactions: 100 };
        assert_eq!(s.confidence(), confidence(3, 6));
        assert_eq!(s.lift(), lift(3, 6, 10, 100));
        assert_eq!(s.relative_support(), 0.03);
        assert_eq!(s.measure(Measure::Confidence), s.confidence());
        assert_eq!(s.measure(Measure::Lift), s.lift());
        assert_eq!(s.measure(Measure::Support), 0.03);
    }

    #[test]
    fn measure_display() {
        assert_eq!(Measure::Confidence.to_string(), "confidence");
        assert_eq!(Measure::Lift.to_string(), "lift");
        assert_eq!(Measure::Support.to_string(), "support");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn confidence_in_unit_interval(ab in 0u64..1000, extra_a in 0u64..1000) {
                let a = ab + extra_a; // |A∪B| ≤ |A| always holds in a real DB
                let c = confidence(ab, a);
                prop_assert!((0.0..=1.0).contains(&c));
            }

            #[test]
            fn lift_nonnegative(ab in 0u64..100, a in 0u64..100, b in 0u64..100, n in 0u64..1000) {
                prop_assert!(lift(ab, a, b, n) >= 0.0);
            }

            #[test]
            fn confidence_monotone_in_joint_support(ab in 0u64..500, a in 1u64..1000) {
                prop_assume!(ab < a);
                prop_assert!(confidence(ab, a) <= confidence(ab + 1, a));
            }
        }
    }
}
