//! The Bayesian Information Component (IC) of the WHO/UMC BCPNN method
//! (Bate et al., 1998) — the measure VigiBase screening runs on, and thus
//! the method behind the WHO newsletter study that validated the thesis's
//! Case I (Ibuprofen + Metamizole, §5.4).
//!
//! `IC = log₂ P(drug, adr) / (P(drug)·P(adr))` with Bayesian shrinkage:
//! `IC = log₂ (a + ½) / (E + ½)`, where `E` is the expected joint count
//! under independence. The 95% credibility bounds use the closed form of
//! Norén, Hopstadius & Bate (2013), with `s = a + ½`:
//!
//! `IC₀₂₅ ≈ IC − 3.3·s^(−1/2) − 2·s^(−3/2)`
//!
//! `IC₉₇₅ ≈ IC + 2.4·s^(−1/2) − 0.5·s^(−3/2)`
//!
//! A positive lower bound (`ic025 > 0`) is the conventional signal
//! criterion.

use crate::contingency::ContingencyTable;

/// The shrunken information component with its 95% credibility bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InformationComponent {
    /// Shrunken point estimate `log₂((a+0.5)/(E+0.5))`.
    pub ic: f64,
    /// Lower 2.5% credibility bound.
    pub ic025: f64,
    /// Upper 97.5% credibility bound.
    pub ic975: f64,
}

impl InformationComponent {
    /// The conventional BCPNN signal criterion: the credibility interval's
    /// lower bound is above zero.
    pub fn is_signal(&self) -> bool {
        self.ic025 > 0.0
    }
}

/// Computes the shrunken IC from a 2×2 table.
pub fn information_component(t: &ContingencyTable) -> InformationComponent {
    let a = t.a as f64;
    let expected = t.expected_a();
    let ic = ((a + 0.5) / (expected + 0.5)).log2();
    // Norén's closed-form credibility approximation.
    let s = a + 0.5;
    let half_width_lo = 3.3 * s.powf(-0.5) + 2.0 * s.powf(-1.5);
    let half_width_hi = 2.4 * s.powf(-0.5) - 0.5 * s.powf(-1.5);
    InformationComponent { ic, ic025: ic - half_width_lo, ic975: ic + half_width_hi }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_signal_positive_ic() {
        // a=25 observed vs E=7.5 expected.
        let t = ContingencyTable { a: 25, b: 75, c: 50, d: 850 };
        let ic = information_component(&t);
        let expect = (25.5f64 / 8.0).log2();
        assert!((ic.ic - expect).abs() < 1e-12);
        assert!(ic.is_signal(), "ic025 = {}", ic.ic025);
        assert!(ic.ic025 < ic.ic && ic.ic < ic.ic975);
    }

    #[test]
    fn independence_ic_near_zero() {
        let t = ContingencyTable::from_supports(10, 100, 100, 1000).unwrap();
        let ic = information_component(&t);
        assert!(ic.ic.abs() < 0.1, "{}", ic.ic);
        assert!(!ic.is_signal());
    }

    #[test]
    fn zero_count_is_shrunken_not_degenerate() {
        let t = ContingencyTable { a: 0, b: 100, c: 100, d: 800 };
        let ic = information_component(&t);
        assert!(ic.ic.is_finite());
        assert!(ic.ic < 0.0);
        assert!(!ic.is_signal());
    }

    #[test]
    fn small_counts_cannot_signal() {
        // Even a 'perfect' association with a=1 must not fire: shrinkage
        // dominates — the whole point of the Bayesian variant.
        let t = ContingencyTable { a: 1, b: 0, c: 0, d: 999 };
        let ic = information_component(&t);
        assert!(!ic.is_signal(), "ic025={}", ic.ic025);
    }

    #[test]
    fn upper_bound_follows_the_published_closed_form() {
        // (a, E) with E = exposed · event / N, against IC975 from
        // IC + 2.4·s^(−1/2) − 0.5·s^(−3/2), s = a + ½.
        for (t, want) in [
            (ContingencyTable { a: 0, b: 1, c: 1, d: 8 }, 1.717), // (0, 0.1)
            (ContingencyTable { a: 1, b: 0, c: 0, d: 1 }, 2.272), // (1, 0.5)
            (ContingencyTable { a: 3, b: 0, c: 0, d: 6 }, 2.429), // (3, 1)
            (ContingencyTable { a: 10, b: 0, c: 0, d: 40 }, 2.796), // (10, 2)
            (ContingencyTable { a: 100, b: 20, c: 50, d: 430 }, 1.959), // (100, 30)
        ] {
            let ic975 = information_component(&t).ic975;
            assert!((ic975 - want).abs() < 1e-3, "a {}, E {}: IC975 {ic975}", t.a, t.expected_a());
        }
    }

    #[test]
    fn width_shrinks_with_count() {
        let narrow = information_component(&ContingencyTable { a: 400, b: 600, c: 100, d: 900 });
        let wide = information_component(&ContingencyTable { a: 4, b: 6, c: 100, d: 900 });
        assert!(
            (narrow.ic975 - narrow.ic025) < (wide.ic975 - wide.ic025),
            "credibility interval must tighten with evidence"
        );
    }
}
