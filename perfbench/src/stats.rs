//! Order statistics over latency samples.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The 1-based nearest rank of percentile `p` among `n` samples; the
/// epsilon keeps `0.999 * 10_000` from rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// Percentiles reported for a tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_CANDIDATES`] that still has at least
/// ten samples beyond it among `n` samples, so a reported tail is never
/// one or two unlucky requests. `None` when even the median lacks them.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| n - rank(p, n).min(n) >= 10)
}

/// A latency summary: median, the highest supported tail percentile, and
/// the sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (see [`supported_tail`]), if any.
    pub tail_pct: Option<f64>,
    /// Its value.
    pub tail: Option<f64>,
}

/// Summarizes `samples` (any order).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile_sorted(&sorted, 50.0)?;
    let tail_pct = supported_tail(sorted.len());
    let tail = tail_pct.and_then(|p| percentile_sorted(&sorted, p));
    Some(Summary { n: sorted.len(), p50, tail_pct, tail })
}

/// p99 of `samples` if at least ten samples lie beyond it, else `None`.
pub fn p99_supported(samples: &[f64]) -> Option<f64> {
    if supported_tail(samples.len())? < 99.0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.1), Some(1.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly ten lie beyond p99.
        assert_eq!(supported_tail(1000), Some(99.0));
        // 999 samples: p99 has nine beyond it, so fall back to p95.
        assert_eq!(supported_tail(999), Some(95.0));
        // 10_000 samples: p99.9 has ten beyond it.
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0));
        // 100 samples: p90 has ten beyond it.
        assert_eq!(supported_tail(100), Some(90.0));
        // 20 samples: only the median qualifies; 19 have none.
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, Some(990.0));
        assert_eq!(p99_supported(&v), Some(990.0));
        assert_eq!(p99_supported(&v[..999]), None);
    }
}
