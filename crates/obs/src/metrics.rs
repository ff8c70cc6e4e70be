//! The global metrics registry: named counters, gauges, and fixed-bucket
//! histograms with optional labels, rendered for Prometheus scrapes.
//!
//! Pipeline layers register into the global [`registry`]; the query
//! server registers its own series into a [`Registry`] each serving state
//! owns. Handles are cheap `Arc`-backed atomics, so callers register once
//! (often in a `OnceLock`) and update lock-free on the hot path; the
//! registry's mutex guards only registration and rendering.

use crate::prom::PromText;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` (negative to subtract), atomically.
    pub fn add(&self, v: f64) {
        add_f64(&self.0, v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Adds `v` to an `f64` held as bits, by compare-and-swap.
fn add_f64(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

/// Shared state of a histogram: one overflow bucket past the last bound.
#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last one is the `+Inf` overflow.
    counts: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram with upper-bound buckets plus `+Inf` overflow.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.0.bounds.partition_point(|&ub| ub < v);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.0.sum_bits, v);
    }

    /// Bucket upper bounds (excluding `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts, including the trailing `+Inf` overflow bucket.
    pub fn counts(&self) -> Vec<u64> {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile, interpolated within the containing bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_buckets(&self.0.bounds, &self.counts(), q)
    }
}

/// Estimates quantile `q` (in `[0, 1]`) from per-bucket counts by linear
/// interpolation within the containing bucket.
///
/// `counts` has one more entry than `bounds`: the trailing `+Inf` overflow
/// bucket. The first bucket interpolates from 0; a quantile landing in the
/// overflow bucket is clamped to the last finite bound (there is nothing
/// defensible to interpolate toward). Returns `None` when no observations
/// were recorded.
pub fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    assert_eq!(counts.len(), bounds.len() + 1, "counts must include +Inf bucket");
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let prev = cum;
        cum += c;
        if (cum as f64) >= rank && c > 0 {
            if i >= bounds.len() {
                // Overflow bucket: clamp to the last finite bound.
                return Some(bounds.last().copied().unwrap_or(0.0));
            }
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds[i];
            let frac = (rank - prev as f64) / c as f64;
            return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
        }
    }
    Some(bounds.last().copied().unwrap_or(0.0))
}

/// Label set attached to a series: sorted key→value pairs.
pub type Labels = Vec<(String, String)>;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Labels,
}

#[derive(Debug, Clone)]
enum SeriesValue {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Series {
    help: String,
    value: SeriesValue,
}

/// A registry of named metric series. One process-global instance lives
/// behind [`registry`]; each query-server state owns another, so servers
/// sharing a process keep separate ledgers.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, Series>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or registers an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Gets or registers a counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let key = SeriesKey { name: name.to_string(), labels: sorted_labels(labels) };
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let entry = series.entry(key).or_insert_with(|| Series {
            help: help.to_string(),
            value: SeriesValue::Counter(Counter(Arc::new(AtomicU64::new(0)))),
        });
        match &entry.value {
            SeriesValue::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or registers an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Gets or registers a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = SeriesKey { name: name.to_string(), labels: sorted_labels(labels) };
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let entry = series.entry(key).or_insert_with(|| Series {
            help: help.to_string(),
            value: SeriesValue::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))),
        });
        match &entry.value {
            SeriesValue::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Gets or registers an unlabelled histogram with the given bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Gets or registers a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        let key = SeriesKey { name: name.to_string(), labels: sorted_labels(labels) };
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let entry = series.entry(key).or_insert_with(|| Series {
            help: help.to_string(),
            value: SeriesValue::Histogram(Histogram::new(bounds)),
        });
        match &entry.value {
            SeriesValue::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Renders every registered series as Prometheus exposition text.
    pub fn render_prometheus(&self) -> String {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let mut text = PromText::new();
        for (key, s) in series.iter() {
            let labels: Vec<(&str, &str)> =
                key.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            match &s.value {
                SeriesValue::Counter(c) => {
                    text.counter(&key.name, &s.help, &labels, c.get());
                }
                SeriesValue::Gauge(g) => {
                    text.gauge(&key.name, &s.help, &labels, g.get());
                }
                SeriesValue::Histogram(h) => {
                    text.histogram(&key.name, &s.help, &labels, h.bounds(), &h.counts(), h.sum());
                }
            }
        }
        text.finish()
    }

    /// Removes every registered series (tests only; existing handles keep
    /// working but are no longer rendered).
    pub fn reset(&self) {
        self.series.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Gets or registers an unlabelled counter in the global registry.
pub fn counter(name: &str, help: &str) -> Counter {
    registry().counter(name, help)
}

/// Gets or registers a labelled counter in the global registry.
pub fn counter_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
    registry().counter_with(name, help, labels)
}

/// Gets or registers an unlabelled gauge in the global registry.
pub fn gauge(name: &str, help: &str) -> Gauge {
    registry().gauge(name, help)
}

/// Gets or registers a labelled gauge in the global registry.
pub fn gauge_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
    registry().gauge_with(name, help, labels)
}

/// Gets or registers an unlabelled histogram in the global registry.
pub fn histogram(name: &str, help: &str, bounds: &[f64]) -> Histogram {
    registry().histogram(name, help, bounds)
}

/// Gets or registers a labelled histogram in the global registry.
pub fn histogram_with(
    name: &str,
    help: &str,
    bounds: &[f64],
    labels: &[(&str, &str)],
) -> Histogram {
    registry().histogram_with(name, help, bounds, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("jobs_total", "jobs");
        c.inc();
        c.add(4);
        // Re-registering returns the same underlying series.
        assert_eq!(reg.counter("jobs_total", "jobs").get(), 5);
        let g = reg.gauge("depth", "queue depth");
        g.set(2.5);
        assert_eq!(reg.gauge("depth", "queue depth").get(), 2.5);
        g.add(1.0);
        g.add(-3.5);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn labelled_series_are_distinct_and_order_insensitive() {
        let reg = Registry::new();
        let a = reg.counter_with("req", "requests", &[("ep", "search"), ("code", "200")]);
        let same = reg.counter_with("req", "requests", &[("code", "200"), ("ep", "search")]);
        let other = reg.counter_with("req", "requests", &[("ep", "cluster"), ("code", "200")]);
        a.inc();
        same.inc();
        assert_eq!(a.get(), 2, "label order must not split the series");
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn histogram_buckets_sum_and_count() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "latency", &[10.0, 100.0]);
        for v in [5.0, 10.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), vec![2, 1, 1], "10.0 lands in the <=10 bucket");
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 565.0);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let bounds = [50.0, 100.0];
        // All 100 observations fell in (50, 100].
        let counts = [0, 100, 0];
        assert_eq!(quantile_from_buckets(&bounds, &counts, 0.5), Some(75.0));
        assert_eq!(quantile_from_buckets(&bounds, &counts, 0.99), Some(99.5));
        assert_eq!(quantile_from_buckets(&bounds, &counts, 0.0), Some(50.0));
        assert_eq!(quantile_from_buckets(&bounds, &counts, 1.0), Some(100.0));
    }

    #[test]
    fn quantile_handles_overflow_and_empty() {
        let bounds = [50.0, 100.0];
        assert_eq!(quantile_from_buckets(&bounds, &[0, 0, 0], 0.5), None);
        // Everything overflowed: clamp to the last finite bound.
        assert_eq!(quantile_from_buckets(&bounds, &[0, 0, 10], 0.5), Some(100.0));
        // First bucket interpolates from zero.
        assert_eq!(quantile_from_buckets(&bounds, &[10, 0, 0], 0.5), Some(25.0));
    }

    #[test]
    fn quantile_edge_cases_empty_all_inf_and_single_bucket() {
        // A histogram with no finite bounds at all: only the +Inf bucket
        // exists. Zero mass is still `None`; any mass clamps to 0.0
        // because there is no finite bound to clamp to.
        assert_eq!(quantile_from_buckets(&[], &[0], 0.5), None);
        assert_eq!(quantile_from_buckets(&[], &[7], 0.5), Some(0.0));
        // All mass in the +Inf bucket: every quantile, including the
        // extremes, clamps to the last finite bound.
        let bounds = [10.0, 20.0, 40.0];
        let counts = [0, 0, 0, 9];
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_from_buckets(&bounds, &counts, q), Some(40.0), "q={q}");
        }
        // Single-bucket histogram: interpolation spans [0, bound].
        assert_eq!(quantile_from_buckets(&[8.0], &[4, 0], 0.0), Some(0.0));
        assert_eq!(quantile_from_buckets(&[8.0], &[4, 0], 0.25), Some(2.0));
        assert_eq!(quantile_from_buckets(&[8.0], &[4, 0], 0.5), Some(4.0));
        assert_eq!(quantile_from_buckets(&[8.0], &[4, 0], 1.0), Some(8.0));
        // Out-of-range q is clamped, not an error.
        assert_eq!(quantile_from_buckets(&[8.0], &[4, 0], -1.0), Some(0.0));
        assert_eq!(quantile_from_buckets(&[8.0], &[4, 0], 2.0), Some(8.0));
    }

    #[test]
    fn render_includes_every_series_type() {
        let reg = Registry::new();
        reg.counter("c_total", "a counter").add(3);
        reg.gauge("g", "a gauge").set(1.5);
        reg.histogram("h", "a histogram", &[1.0]).observe(0.5);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE c_total counter"));
        assert!(text.contains("c_total 3"));
        assert!(text.contains("# TYPE g gauge"));
        assert!(text.contains("g 1.5"));
        assert!(text.contains("# TYPE h histogram"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("h_count 1"));
    }
}
