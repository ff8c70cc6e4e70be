//! Classical disproportionality measures: RRR, PRR, ROR, χ².
//!
//! Conventions follow the pharmacovigilance literature (Evans et al. for
//! PRR; van Puijenbroek for ROR). Degenerate tables with a zero cell take
//! the Haldane–Anscombe continuity correction — 0.5 added to every cell —
//! so both the point estimate and the 95% CI stay finite and usable instead
//! of collapsing to `0.0`/`INFINITY`; a table with no reports at all scores
//! zero. Ranking stays total either way.

use crate::contingency::ContingencyTable;
use crate::ebgm::{ebgm_from_table, EbgmScores, GammaMixturePrior};
use crate::ic::{information_component, InformationComponent};

/// A 95% confidence interval on the log scale, exponentiated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub estimate: f64,
    /// Lower 95% bound.
    pub lower: f64,
    /// Upper 95% bound.
    pub upper: f64,
}

const Z95: f64 = 1.959_963_984_540_054;

/// The four cells as floats, Haldane–Anscombe corrected when any cell is
/// zero: 0.5 is added to all four so ratio estimates and their log-scale
/// standard errors are defined on degenerate tables.
fn ha_cells(t: &ContingencyTable) -> (f64, f64, f64, f64) {
    if t.a == 0 || t.b == 0 || t.c == 0 || t.d == 0 {
        (t.a as f64 + 0.5, t.b as f64 + 0.5, t.c as f64 + 0.5, t.d as f64 + 0.5)
    } else {
        (t.a as f64, t.b as f64, t.c as f64, t.d as f64)
    }
}

/// Relative reporting ratio: observed over expected count of the joint cell,
/// `RR = a·N / ((a+b)(a+c))` — the measure Harpaz et al. \[17\] rank
/// multi-item associations with.
pub fn rrr(t: &ContingencyTable) -> f64 {
    let expected = t.expected_a();
    if expected == 0.0 {
        return if t.a == 0 { 0.0 } else { f64::INFINITY };
    }
    t.a as f64 / expected
}

/// Proportional reporting ratio `PRR = [a/(a+b)] / [c/(c+d)]` with a 95% CI
/// via the standard log-normal approximation. Zero-cell tables are
/// Haldane–Anscombe corrected (estimate and CI both computed from the
/// corrected cells); an empty table scores zero.
///
/// ```
/// use maras_signals::{prr, ContingencyTable};
/// let t = ContingencyTable { a: 25, b: 75, c: 50, d: 850 };
/// let ci = prr(&t);
/// assert!((ci.estimate - 4.5).abs() < 1e-12);
/// assert!(ci.lower > 1.0); // the CI excludes the null
/// ```
pub fn prr(t: &ContingencyTable) -> ConfidenceInterval {
    if t.n() == 0 {
        return ConfidenceInterval { estimate: 0.0, lower: 0.0, upper: 0.0 };
    }
    let (a, b, c, d) = ha_cells(t);
    let estimate = (a / (a + b)) / (c / (c + d));
    let se = (1.0 / a - 1.0 / (a + b) + 1.0 / c - 1.0 / (c + d)).max(0.0).sqrt();
    let ln = estimate.ln();
    ConfidenceInterval { estimate, lower: (ln - Z95 * se).exp(), upper: (ln + Z95 * se).exp() }
}

/// Reporting odds ratio `ROR = (a·d)/(b·c)` with a 95% CI. Zero-cell tables
/// are Haldane–Anscombe corrected; an empty table scores zero.
pub fn ror(t: &ContingencyTable) -> ConfidenceInterval {
    if t.n() == 0 {
        return ConfidenceInterval { estimate: 0.0, lower: 0.0, upper: 0.0 };
    }
    let (a, b, c, d) = ha_cells(t);
    let estimate = (a * d) / (b * c);
    let se = (1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d).sqrt();
    let ln = estimate.ln();
    ConfidenceInterval { estimate, lower: (ln - Z95 * se).exp(), upper: (ln + Z95 * se).exp() }
}

/// Pearson χ² with Yates continuity correction.
pub fn chi_square_yates(t: &ContingencyTable) -> f64 {
    let (a, b, c, d) = (t.a as f64, t.b as f64, t.c as f64, t.d as f64);
    let n = a + b + c + d;
    let denom = (a + b) * (c + d) * (a + c) * (b + d);
    if denom == 0.0 {
        return 0.0;
    }
    let diff = (a * d - b * c).abs() - n / 2.0;
    let diff = diff.max(0.0);
    n * diff * diff / denom
}

/// Evans et al.'s standard signal criterion: `PRR ≥ 2`, `χ² ≥ 4`, `a ≥ 3`.
pub fn evans_signal(t: &ContingencyTable) -> bool {
    t.a >= 3 && prr(t).estimate >= 2.0 && chi_square_yates(t) >= 4.0
}

/// All scores for one (drug set, ADR set) pair, bundled for reporting: the
/// classical frequentist measures, the Bayesian shrinkage baselines (BCPNN
/// IC, MGPS EBGM), the multi-drug interaction contrast, and the MARAS
/// exclusiveness score of the rule's cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalScores {
    /// The underlying table.
    pub table: ContingencyTable,
    /// Relative reporting ratio.
    pub rrr: f64,
    /// Proportional reporting ratio with CI.
    pub prr: ConfidenceInterval,
    /// Reporting odds ratio with CI.
    pub ror: ConfidenceInterval,
    /// Yates-corrected χ².
    pub chi2: f64,
    /// Whether the Evans criterion fires.
    pub evans: bool,
    /// BCPNN information component with 95% credibility bounds.
    pub ic: InformationComponent,
    /// MGPS empirical-Bayes scores under the default DuMouchel prior.
    pub ebgm: EbgmScores,
    /// Shrunken log₂ interaction contrast (0 for single-drug rules, set by
    /// [`with_interaction`](Self::with_interaction)).
    pub interaction: f64,
    /// Exclusiveness of the rule's contextual cluster (0 until ranked, set
    /// by [`with_exclusiveness`](Self::with_exclusiveness)).
    pub exclusiveness: f64,
}

impl SignalScores {
    /// Computes every table-derived measure. The interaction contrast and
    /// exclusiveness need context beyond the 2×2 table and default to 0;
    /// use the `with_*` builders to attach them.
    pub fn from_table(table: ContingencyTable) -> Self {
        Self::from_table_and_ebgm(table, ebgm_from_table(&table, &GammaMixturePrior::default()))
    }

    /// Computes every closed-form measure of `table` and takes the EBGM
    /// block as given, so a stored block need not be re-solved: the
    /// snapshot loader keeps EBGM and rebuilds the rest from the table.
    pub fn from_table_and_ebgm(table: ContingencyTable, ebgm: EbgmScores) -> Self {
        SignalScores {
            table,
            rrr: rrr(&table),
            prr: prr(&table),
            ror: ror(&table),
            chi2: chi_square_yates(&table),
            evans: evans_signal(&table),
            ic: information_component(&table),
            ebgm,
            interaction: 0.0,
            exclusiveness: 0.0,
        }
    }

    /// Attaches the multi-drug interaction contrast.
    pub fn with_interaction(mut self, interaction: f64) -> Self {
        self.interaction = interaction;
        self
    }

    /// Attaches the cluster exclusiveness score.
    pub fn with_exclusiveness(mut self, exclusiveness: f64) -> Self {
        self.exclusiveness = exclusiveness;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worked example used across pharmacovigilance tutorials:
    /// a=25, b=75, c=50, d=850.
    fn textbook() -> ContingencyTable {
        ContingencyTable { a: 25, b: 75, c: 50, d: 850 }
    }

    #[test]
    fn rrr_observed_over_expected() {
        let t = textbook();
        // expected = 100 * 75 / 1000 = 7.5 ; RR = 25/7.5
        assert!((rrr(&t) - 25.0 / 7.5).abs() < 1e-12);
    }

    #[test]
    fn prr_point_estimate() {
        let t = textbook();
        // PRR = (25/100) / (50/900) = 0.25 / 0.0555… = 4.5
        let ci = prr(&t);
        assert!((ci.estimate - 4.5).abs() < 1e-12);
        assert!(ci.lower < ci.estimate && ci.estimate < ci.upper);
        assert!(ci.lower > 1.0, "strong signal: CI should exclude 1, lower={}", ci.lower);
    }

    #[test]
    fn ror_point_estimate() {
        let t = textbook();
        // ROR = (25*850)/(75*50) = 21250/3750 = 5.666…
        let ci = ror(&t);
        assert!((ci.estimate - 21250.0 / 3750.0).abs() < 1e-12);
        assert!(ci.lower < ci.estimate && ci.estimate < ci.upper);
    }

    #[test]
    fn chi2_yates_hand_computed() {
        let t = ContingencyTable { a: 20, b: 30, c: 10, d: 40 };
        // n=100; |ad-bc| = |800-300| = 500; corrected = 450
        // chi2 = 100*450^2 / (50*50*30*70) = 20250000/5250000 = 3.857142...
        assert!((chi_square_yates(&t) - 20_250_000.0 / 5_250_000.0).abs() < 1e-9);
    }

    #[test]
    fn independence_scores_near_one() {
        // Perfectly independent margins.
        let t = ContingencyTable::from_supports(10, 100, 100, 1000).unwrap();
        assert!((rrr(&t) - 1.0).abs() < 1e-12);
        assert!((prr(&t).estimate - 1.0).abs() < 0.12);
        assert!(chi_square_yates(&t) < 1.0);
        assert!(!evans_signal(&t));
    }

    #[test]
    fn evans_criterion_thresholds() {
        assert!(evans_signal(&textbook()));
        // Too few exposed-event reports.
        let few = ContingencyTable { a: 2, b: 1, c: 5, d: 992 };
        assert!(!evans_signal(&few));
    }

    #[test]
    fn zero_cells_get_haldane_anscombe_correction() {
        // Any zero cell → 0.5 added to all four cells, so the estimate and
        // CI come out finite and positive instead of 0 / INFINITY.
        let zero_a = ContingencyTable { a: 0, b: 10, c: 5, d: 985 };
        let zero_b = ContingencyTable { a: 5, b: 0, c: 3, d: 992 };
        let zero_c = ContingencyTable { a: 5, b: 10, c: 0, d: 985 };
        let zero_d = ContingencyTable { a: 5, b: 10, c: 20, d: 0 };
        for t in [zero_a, zero_b, zero_c, zero_d] {
            for ci in [prr(&t), ror(&t)] {
                assert!(ci.estimate.is_finite() && ci.estimate > 0.0, "{t:?}: {ci:?}");
                assert!(ci.lower.is_finite() && ci.upper.is_finite(), "{t:?}: {ci:?}");
                assert!(ci.lower > 0.0, "{t:?}: {ci:?}");
                assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper, "{t:?}: {ci:?}");
            }
            assert!(!rrr(&t).is_nan());
            assert!(!chi_square_yates(&t).is_nan());
        }
        // Hand-checked corrected estimates for the zero-a table
        // (cells 0.5, 10.5, 5.5, 985.5):
        let ci = prr(&zero_a);
        assert!((ci.estimate - (0.5 / 11.0) / (5.5 / 991.0)).abs() < 1e-12);
        let ci = ror(&zero_a);
        assert!((ci.estimate - (0.5 * 985.5) / (10.5 * 5.5)).abs() < 1e-12);
        // Direction is preserved: no unexposed events → large PRR/ROR.
        assert!(prr(&zero_c).estimate > 10.0);
        assert!(ror(&zero_c).estimate > 10.0);
    }

    #[test]
    fn uncorrected_tables_keep_classic_estimates() {
        // No zero cell → the correction must not perturb the textbook values
        // (asserted exactly, not within a tolerance).
        let t = textbook();
        assert_eq!(prr(&t).estimate, (25.0 / 100.0) / (50.0 / 900.0));
        assert_eq!(ror(&t).estimate, (25.0 * 850.0) / (75.0 * 50.0));
    }

    #[test]
    fn empty_table_scores_zero() {
        let empty = ContingencyTable { a: 0, b: 0, c: 0, d: 0 };
        for ci in [prr(&empty), ror(&empty)] {
            assert_eq!(ci.estimate, 0.0);
            assert_eq!(ci.lower, 0.0);
            assert_eq!(ci.upper, 0.0);
        }
        assert_eq!(rrr(&empty), 0.0);
        assert_eq!(chi_square_yates(&empty), 0.0);
    }

    #[test]
    fn bundle_is_consistent() {
        let s = SignalScores::from_table(textbook());
        assert_eq!(s.rrr, rrr(&textbook()));
        assert_eq!(s.prr, prr(&textbook()));
        assert_eq!(s.ic, crate::ic::information_component(&textbook()));
        assert_eq!(
            s.ebgm,
            crate::ebgm::ebgm_from_table(&textbook(), &GammaMixturePrior::default())
        );
        assert_eq!(s.interaction, 0.0);
        assert_eq!(s.exclusiveness, 0.0);
        assert!(s.evans);
        let s = s.with_interaction(1.25).with_exclusiveness(0.75);
        assert_eq!(s.interaction, 1.25);
        assert_eq!(s.exclusiveness, 0.75);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_table() -> impl Strategy<Value = ContingencyTable> {
            (0u64..200, 0u64..200, 0u64..200, 0u64..2000)
                .prop_map(|(a, b, c, d)| ContingencyTable { a, b, c, d })
        }

        proptest! {
            #[test]
            fn measures_never_nan(t in arb_table()) {
                prop_assert!(!rrr(&t).is_nan());
                prop_assert!(!prr(&t).estimate.is_nan());
                prop_assert!(!ror(&t).estimate.is_nan());
                prop_assert!(!chi_square_yates(&t).is_nan());
                prop_assert!(chi_square_yates(&t) >= 0.0);
            }

            #[test]
            fn prr_ror_always_finite(t in arb_table()) {
                // Post-correction totality: no table, however degenerate,
                // yields an infinite estimate or bound.
                for ci in [prr(&t), ror(&t)] {
                    prop_assert!(ci.estimate.is_finite());
                    prop_assert!(ci.lower.is_finite());
                    prop_assert!(ci.upper.is_finite());
                }
            }

            #[test]
            fn ci_brackets_estimate(t in arb_table()) {
                for ci in [prr(&t), ror(&t)] {
                    if ci.estimate.is_finite() && ci.estimate > 0.0 {
                        prop_assert!(ci.lower <= ci.estimate + 1e-9);
                        prop_assert!(ci.estimate <= ci.upper + 1e-9);
                    }
                }
            }
        }
    }
}
