//! Special functions for the empirical-Bayes layer: log-gamma, digamma and
//! the regularized incomplete gamma functions. No external math crates;
//! implementations follow the standard Lanczos / series / continued-fraction
//! constructions with accuracy adequate for signal scoring (~1e-10
//! relative).

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g=7, n=9).
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Digamma function ψ(x) (recurrence + asymptotic series).
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    // Shift x up until the asymptotic series is accurate.
    while x < 10.0 {
        acc -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a,x) / Γ(a)`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    gamma_p_with_factor(a, x, ln_gamma(a)).0
}

/// `P(a, x)` for `x > 0` from a precomputed `ln_gamma_a = lnΓ(a)`, paired
/// with the factor `xᵃ e⁻ˣ / Γ(a)` both branches scale by. That factor
/// divided by `x` is the Gamma(a, 1) density at `x`, so a solver inverting
/// `P` gets the derivative for free.
pub(crate) fn gamma_p_with_factor(a: f64, x: f64, ln_gamma_a: f64) -> (f64, f64) {
    let factor = (-x + a * x.ln() - ln_gamma_a).exp();
    let p =
        if x < a + 1.0 { gamma_p_series(a, x) * factor } else { 1.0 - gamma_q_cf(a, x) * factor };
    (p, factor)
}

/// The series `Σ xᵏ / (a(a+1)…(a+k))`, which times the factor is `P(a, x)`.
/// Near `x ≈ a` it needs about `√(70a)` terms, so the cap grows with `√a`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let max_terms = 500.max((20.0 * a.sqrt()) as usize);
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..max_terms {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum
}

/// Lentz's continued fraction, which times the factor is `Q(a, x)`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Test oracle: the `p`-quantile of a continuous CDF on `[0, ∞)` by
/// bisection, doubling the upper end from `hi` until it brackets `p`.
/// Stops once the bracket is within 1e-12 of its upper end.
#[cfg(test)]
pub(crate) fn bisect_quantile(p: f64, hi: f64, cdf: impl Fn(f64) -> f64) -> f64 {
    let mut hi = hi.max(1e-300);
    while cdf(hi) < p {
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-12 * hi {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Test oracle: the `p`-th percentile of a gamma with the given shape and
/// *rate* (not scale), by bisection on its CDF.
#[cfg(test)]
pub(crate) fn gamma_quantile(p: f64, shape: f64, rate: f64) -> f64 {
    assert!((0.0..1.0).contains(&p), "p must be in [0,1), got {p}");
    assert!(shape > 0.0 && rate > 0.0);
    if p == 0.0 {
        return 0.0;
    }
    bisect_quantile(p, shape / rate, |x| gamma_p(shape, x * rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_recurrence_property() {
        // Γ(x+1) = x·Γ(x) → lnΓ(x+1) = ln x + lnΓ(x).
        for x in [0.3, 1.7, 4.2, 9.9, 55.5] {
            assert!((ln_gamma(x + 1.0) - (x.ln() + ln_gamma(x))).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn digamma_known_values() {
        assert!((digamma(1.0) + EULER_GAMMA).abs() < 1e-10);
        assert!((digamma(2.0) - (1.0 - EULER_GAMMA)).abs() < 1e-10);
        assert!((digamma(0.5) + EULER_GAMMA + 2.0 * 2f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn digamma_recurrence_property() {
        // ψ(x+1) = ψ(x) + 1/x.
        for x in [0.2, 1.3, 7.7, 42.0] {
            assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // Shape 1 ⇒ exponential: P(1, x) = 1 − e^{-x}.
        for x in [0.1, 1.0, 3.0, 10.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn gamma_p_chi_square_median() {
        // χ²(2) median is 2·ln2: P(1, ln2·2/2) = 0.5 at x=ln2 for shape 1...
        // Simpler: P(a, a) approaches 0.5 for large a (median ≈ mean).
        assert!((gamma_p(100.0, 100.0) - 0.5).abs() < 0.03);
        // Exact check: exponential median.
        assert!((gamma_p(1.0, 2f64.ln()) - 0.5).abs() < 1e-12);
    }

    /// `1 − Σ_{k<a} e⁻ˣ xᵏ / k!`, which is `P(a, x)` for integer `a`. Sums
    /// down from `k = a − 1`, whose term comes from Stirling's series in
    /// `m = a − 1` so that no large lnΓ cancels against `x`.
    fn poisson_identity(a: u64, x: f64) -> f64 {
        let m = (a - 1) as f64;
        let stirling = 1.0 / (12.0 * m) - 1.0 / (360.0 * m.powi(3)) + 1.0 / (1260.0 * m.powi(5))
            - 1.0 / (1680.0 * m.powi(7));
        let ln_top = (m - x) + m * ((x - m) / m).ln_1p()
            - 0.5 * (2.0 * std::f64::consts::PI * m).ln()
            - stirling;
        let (mut term, mut sum, mut k) = (ln_top.exp(), 0.0, m);
        loop {
            sum += term;
            if k == 0.0 || term < sum * 1e-18 {
                return 1.0 - sum;
            }
            term *= k / x;
            k -= 1.0;
        }
    }

    #[test]
    fn gamma_p_matches_the_poisson_identity_at_large_shape() {
        for a in [10u64, 100, 1_000, 10_000, 50_000, 100_000] {
            for r in [0.95, 0.99, 0.999, 1.0, 1.001, 1.01, 1.05] {
                let x = a as f64 * r;
                let (got, want) = (gamma_p(a as f64, x), poisson_identity(a, x));
                assert!((got - want).abs() <= 1e-9, "a={a} x={x}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for (p, shape, rate) in
            [(0.05, 2.0, 4.0), (0.5, 1.0, 1.0), (0.95, 10.0, 0.5), (0.25, 0.2, 0.1)]
        {
            let q = gamma_quantile(p, shape, rate);
            assert!((gamma_p(shape, q * rate) - p).abs() < 1e-9, "p={p} shape={shape}");
        }
        // Exponential(1) median = ln 2.
        assert!((gamma_quantile(0.5, 1.0, 1.0) - 2f64.ln()).abs() < 1e-9);
        assert_eq!(gamma_quantile(0.0, 3.0, 1.0), 0.0);
    }

    #[test]
    fn quantiles_are_monotone_in_p() {
        let qs: Vec<f64> =
            [0.05, 0.25, 0.5, 0.75, 0.95].iter().map(|&p| gamma_quantile(p, 3.0, 2.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] < w[1]), "{qs:?}");
    }
}
