//! The `max_rps` decision: which rungs of the fixed rate ladder the
//! server kept up with.

use crate::stats;

/// p99 latency limit from due time, in ms: the threshold at which a UI
/// response still feels instant.
pub const P99_LIMIT_MS: f64 = 100.0;

/// How much the generator's mean lateness may rise from the first quarter
/// of a rung's requests to its last quarter before the backlog counts as
/// growing, in ms.
pub const LATE_GROWTH_LIMIT_MS: f64 = 10.0;

/// What one rung of the ladder measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency of every request, from its due time to its full response, ms.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent after its due time, in send order, ms.
    pub late_ms: Vec<f64>,
    /// Requests that failed (transport error, non-200, or a failed check).
    pub failed: usize,
    /// Requests completed per second of the rung's span (first due time to
    /// last response).
    pub achieved_rps: f64,
}

/// Why a rung passed or failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// p99 from due time, if the rung has enough samples to support it.
    pub p99_ms: Option<f64>,
    /// Mean lateness of the last quarter minus that of the first, ms.
    pub late_growth_ms: f64,
    /// All three conditions met.
    pub pass: bool,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Judges one rung: p99 from due time within [`P99_LIMIT_MS`] (a rung too
/// short to support a p99 fails), no failed request, and lateness that does
/// not grow by more than [`LATE_GROWTH_LIMIT_MS`].
pub fn judge(rung: &Rung) -> Verdict {
    let p99_ms = stats::p99_supported(&rung.latency_ms);
    let q = rung.late_ms.len() / 4;
    let late_growth_ms = if q == 0 {
        0.0
    } else {
        mean(&rung.late_ms[rung.late_ms.len() - q..]) - mean(&rung.late_ms[..q])
    };
    let pass = rung.failed == 0
        && p99_ms.is_some_and(|p| p <= P99_LIMIT_MS)
        && late_growth_ms <= LATE_GROWTH_LIMIT_MS;
    Verdict { p99_ms, late_growth_ms, pass }
}

/// `max_rps`: where the ladder's verdicts switch from pass to fail.
///
/// Rungs sorted by offered rate are split at the boundary that disagrees
/// with the fewest verdicts (a failed rung below it, or a passed rung
/// above it, is one disagreement), and `max_rps` is the achieved rate of
/// the highest rung below that boundary, averaged over boundaries that tie.
/// One lucky rung above the ceiling or one unlucky rung below it, which a
/// busy shared host produces, thus moves it by at most one rung. `None`
/// when the best fit puts every rung above the boundary.
pub fn max_rps(rungs: &[Rung]) -> Option<f64> {
    let mut sorted: Vec<(&Rung, bool)> = rungs.iter().map(|r| (r, judge(r).pass)).collect();
    sorted.sort_by(|a, b| a.0.rate.total_cmp(&b.0.rate));
    let disagreements = |k: usize| {
        sorted[..k].iter().filter(|(_, pass)| !pass).count()
            + sorted[k..].iter().filter(|(_, pass)| *pass).count()
    };
    let best = (0..=sorted.len()).map(disagreements).min()?;
    let below: Vec<f64> = (1..=sorted.len())
        .filter(|&k| disagreements(k) == best)
        .map(|k| sorted[k - 1].0.achieved_rps)
        .collect();
    if below.is_empty() {
        return None;
    }
    Some(below.iter().sum::<f64>() / below.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, latency_ms: Vec<f64>, late_ms: Vec<f64>, failed: usize) -> Rung {
        Rung { rate, latency_ms, late_ms, failed, achieved_rps: rate * 0.99 }
    }

    fn flat(n: usize, v: f64) -> Vec<f64> {
        vec![v; n]
    }

    #[test]
    fn a_fast_clean_rung_passes() {
        let r = rung(1000.0, flat(2000, 0.4), flat(2000, 0.05), 0);
        let v = judge(&r);
        assert!(v.pass);
        assert_eq!(v.p99_ms, Some(0.4));
        assert_eq!(v.late_growth_ms, 0.0);
    }

    #[test]
    fn p99_over_the_limit_fails() {
        let mut lat = flat(2000, 0.4);
        for x in lat.iter_mut().take(30) {
            *x = 150.0;
        }
        let v = judge(&rung(1000.0, lat, flat(2000, 0.0), 0));
        assert!(!v.pass);
        assert_eq!(v.p99_ms, Some(150.0));
        // Twenty slow requests of 2000 sit beyond p99 only partly: p99 is
        // the 1980th value, which is fast.
        let mut lat = flat(2000, 0.4);
        for x in lat.iter_mut().take(20) {
            *x = 150.0;
        }
        assert!(judge(&rung(1000.0, lat, flat(2000, 0.0), 0)).pass);
    }

    #[test]
    fn a_rung_too_short_for_p99_fails() {
        assert!(!judge(&rung(1000.0, flat(999, 0.4), flat(999, 0.0), 0)).pass);
        assert!(judge(&rung(1000.0, flat(1000, 0.4), flat(1000, 0.0), 0)).pass);
    }

    #[test]
    fn growing_lateness_fails_even_under_the_p99_limit() {
        // Lateness climbs linearly to 40 ms: the backlog is growing.
        let late: Vec<f64> = (0..2000).map(|i| i as f64 * 0.02).collect();
        let v = judge(&rung(3000.0, flat(2000, 0.5), late, 0));
        assert!(!v.pass);
        assert!(v.late_growth_ms > 20.0);
        // Lateness that jitters without trend passes.
        let late: Vec<f64> = (0..2000).map(|i| if i % 7 == 0 { 3.0 } else { 0.1 }).collect();
        assert!(judge(&rung(3000.0, flat(2000, 0.5), late, 0)).pass);
    }

    #[test]
    fn one_failed_request_fails_the_rung() {
        assert!(!judge(&rung(1000.0, flat(2000, 0.4), flat(2000, 0.0), 1)).pass);
    }

    fn ok(rate: f64) -> Rung {
        rung(rate, flat(2000, 0.4), flat(2000, 0.0), 0)
    }

    fn slow(rate: f64) -> Rung {
        rung(rate, flat(2000, 200.0), flat(2000, 0.0), 0)
    }

    #[test]
    fn max_rps_is_the_top_of_a_clean_ladder() {
        let ladder = vec![ok(3000.0), ok(1000.0), ok(2000.0), slow(5000.0), slow(4000.0)];
        assert_eq!(max_rps(&ladder), Some(3000.0 * 0.99));
        let all = vec![ok(1000.0), ok(2000.0)];
        assert_eq!(max_rps(&all), Some(2000.0 * 0.99));
    }

    #[test]
    fn one_stray_verdict_moves_max_rps_by_at_most_one_rung() {
        // A lucky pass above the ceiling is outvoted.
        let lucky = vec![
            ok(1000.0),
            ok(2000.0),
            ok(3000.0),
            slow(4000.0),
            slow(5000.0),
            ok(6000.0),
            slow(7000.0),
        ];
        assert_eq!(max_rps(&lucky), Some(3000.0 * 0.99));
        // An unlucky failure below it is outvoted too.
        let unlucky =
            vec![ok(1000.0), slow(2000.0), ok(3000.0), ok(4000.0), slow(5000.0), slow(6000.0)];
        assert_eq!(max_rps(&unlucky), Some(4000.0 * 0.99));
        // A pass and a fail that swap places tie two boundaries: average them.
        let swapped = vec![ok(1000.0), ok(2000.0), slow(3000.0), ok(4000.0), slow(5000.0)];
        assert_eq!(max_rps(&swapped), Some((2000.0 + 4000.0) * 0.99 / 2.0));
    }

    #[test]
    fn max_rps_is_none_when_the_ladder_fails() {
        assert_eq!(max_rps(&[slow(1000.0), slow(2000.0)]), None);
        assert_eq!(max_rps(&[]), None);
    }
}
