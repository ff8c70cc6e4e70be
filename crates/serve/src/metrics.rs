//! Server metrics: per-endpoint request counters and latency histograms,
//! cache hit/miss counts, robustness counters (shed / timeout /
//! recovered-panic totals plus worker-liveness, queue-depth and
//! in-flight gauges), and per-phase request timings.
//!
//! [`ServeMetrics`] holds `maras_obs` handles registered once into the
//! [`Registry`] its [`ServeState`](crate::ServeState) owns — one registry
//! per state, so servers sharing a process keep separate ledgers. The
//! registry renders `/metrics`; [`ServeMetrics::to_json`] projects the
//! same handles onto the legacy `/metrics.json` schema, whose single
//! latency histogram is the per-endpoint ones summed. Reloads only ever
//! *increment* `maras_snapshot_reloads_total`; no cumulative series
//! resets on a snapshot swap.

use maras_obs::{Counter, Gauge, Histogram, Registry};
use serde_json::Value;

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is the +Inf overflow.
pub const LATENCY_BUCKETS_US: [f64; 10] =
    [50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 50_000.0, 250_000.0];

/// Upper bounds (µs) of the per-phase (parse / route / write) histograms.
const PHASE_BUCKETS_US: [f64; 8] =
    [10.0, 50.0, 100.0, 250.0, 1_000.0, 5_000.0, 25_000.0, 100_000.0];

/// Endpoints the server distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics` (Prometheus) and `GET /metrics.json`
    Metrics,
    /// `GET /search`
    Search,
    /// `GET /autocomplete`
    Autocomplete,
    /// `GET /cluster/<rank>`
    Cluster,
    /// `POST /reload`
    Reload,
    /// Anything else (404s, bad methods, parse failures).
    Other,
    /// `GET /cluster/<rank>/reports` (paginated evidence drill-down).
    Reports,
    /// `GET /report/<case_id>` (single-record evidence lookup).
    Report,
    /// `GET /debug/*` (flight-recorder introspection suite).
    Debug,
}

impl Endpoint {
    /// Every endpoint, in declaration order (`endpoint as usize` indexes
    /// the per-endpoint handles).
    const ALL: [Endpoint; 10] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Search,
        Endpoint::Autocomplete,
        Endpoint::Cluster,
        Endpoint::Reload,
        Endpoint::Other,
        Endpoint::Reports,
        Endpoint::Report,
        Endpoint::Debug,
    ];

    fn name(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Search => "search",
            Endpoint::Autocomplete => "autocomplete",
            Endpoint::Cluster => "cluster",
            Endpoint::Reload => "reload",
            Endpoint::Other => "other",
            Endpoint::Reports => "reports",
            Endpoint::Report => "report",
            Endpoint::Debug => "debug",
        }
    }
}

/// Handles to the server's metric series; cheap to record from any
/// worker thread.
#[derive(Clone)]
pub struct ServeMetrics {
    /// Requests served, indexed by `Endpoint as usize`.
    pub requests: [Counter; Endpoint::ALL.len()],
    /// Request wall latency in µs, indexed by `Endpoint as usize`.
    pub latency_us: [Histogram; Endpoint::ALL.len()],
    /// Requests answered with status ≥ 400.
    pub errors: Counter,
    /// Response-cache hits.
    pub cache_hits: Counter,
    /// Response-cache misses.
    pub cache_misses: Counter,
    /// Completed snapshot reloads.
    pub reloads: Counter,
    /// Requests slower than the slow-request threshold.
    pub slow_requests: Counter,
    /// Connections answered 503 by admission control (full queue or drain).
    pub shed: Counter,
    /// Connections dropped after exceeding their I/O deadline.
    pub timeouts: Counter,
    /// Handler panics caught and recovered by a worker.
    pub worker_panics: Counter,
    /// Worker threads currently alive (the liveness gauge).
    pub workers_alive: Gauge,
    /// Connections currently waiting in the accept queue.
    pub queue_used: Gauge,
    /// Requests currently being handled by workers.
    pub in_flight: Gauge,
    /// Wall time of reading and parsing one request, µs.
    pub parse_us: Histogram,
    /// Wall time of routing one request, µs.
    pub route_us: Histogram,
    /// Wall time of writing one response, µs.
    pub write_us: Histogram,
    cache_entries: Gauge,
    latency_p50_us: Gauge,
    latency_p99_us: Gauge,
}

impl ServeMetrics {
    /// Registers (or re-acquires) the series in `reg`.
    pub fn register(reg: &Registry) -> ServeMetrics {
        let phase = |name| {
            reg.histogram_with(
                "maras_serve_phase_us",
                "request handling wall time by phase, microseconds",
                &PHASE_BUCKETS_US,
                &[("phase", name)],
            )
        };
        let quantile =
            |name| reg.gauge(name, "interpolated global latency quantile in microseconds");
        ServeMetrics {
            requests: Endpoint::ALL.map(|e| {
                reg.counter_with(
                    "maras_requests_total",
                    "requests served, by endpoint",
                    &[("endpoint", e.name())],
                )
            }),
            latency_us: Endpoint::ALL.map(|e| {
                reg.histogram_with(
                    "maras_request_latency_us",
                    "request wall latency in microseconds, by endpoint",
                    &LATENCY_BUCKETS_US,
                    &[("endpoint", e.name())],
                )
            }),
            errors: reg
                .counter("maras_request_errors_total", "requests answered with status >= 400"),
            cache_hits: reg.counter("maras_cache_hits_total", "response-cache hits"),
            cache_misses: reg.counter("maras_cache_misses_total", "response-cache misses"),
            reloads: reg.counter("maras_snapshot_reloads_total", "snapshot reloads completed"),
            slow_requests: reg.counter(
                "maras_slow_requests_total",
                "requests slower than the slow-request threshold",
            ),
            shed: reg.counter(
                "maras_serve_shed_total",
                "connections answered 503 by admission control (full queue or drain)",
            ),
            timeouts: reg.counter(
                "maras_serve_timeouts_total",
                "connections dropped after exceeding the socket I/O deadline",
            ),
            worker_panics: reg.counter(
                "maras_serve_worker_panics_total",
                "handler panics caught and recovered by the worker pool",
            ),
            workers_alive: reg.gauge("maras_serve_workers_alive", "worker threads currently alive"),
            queue_used: reg
                .gauge("maras_serve_queue_used", "connections waiting in the bounded accept queue"),
            in_flight: reg
                .gauge("maras_serve_inflight", "requests currently being handled by workers"),
            parse_us: phase("parse"),
            route_us: phase("route"),
            write_us: phase("write"),
            cache_entries: reg.gauge("maras_cache_entries", "response-cache entries"),
            latency_p50_us: quantile("maras_request_latency_p50_us"),
            latency_p99_us: quantile("maras_request_latency_p99_us"),
        }
    }

    /// Records one served request with its wall latency.
    pub fn record(&self, endpoint: Endpoint, latency_us: u64, is_error: bool) {
        self.requests[endpoint as usize].inc();
        if is_error {
            self.errors.inc();
        }
        self.latency_us[endpoint as usize].observe(latency_us as f64);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }

    /// Latency bucket counts (with the trailing +Inf overflow) and total
    /// µs, summed across endpoints.
    fn summed_latency(&self) -> (Vec<u64>, f64) {
        let mut counts = vec![0u64; LATENCY_BUCKETS_US.len() + 1];
        let mut total_us = 0.0;
        for h in &self.latency_us {
            for (slot, c) in counts.iter_mut().zip(h.counts()) {
                *slot += c;
            }
            total_us += h.sum();
        }
        (counts, total_us)
    }

    /// Approximate global latency quantile in µs, linearly interpolated
    /// within the containing bucket (a quantile landing in the overflow
    /// bucket is clamped to the last finite bound). `None` before any
    /// request was recorded.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        maras_obs::quantile_from_buckets(&LATENCY_BUCKETS_US, &self.summed_latency().0, q)
    }

    /// Sets the gauges a scrape computes rather than records — the global
    /// p50/p99 and the response cache's current size (owned by the
    /// router) — just before the registry renders them.
    pub fn refresh(&self, cache_entries: usize) {
        self.latency_p50_us.set(self.latency_quantile(0.5).unwrap_or(0.0));
        self.latency_p99_us.set(self.latency_quantile(0.99).unwrap_or(0.0));
        self.cache_entries.set(cache_entries as f64);
    }

    /// The legacy JSON counter dump for `GET /metrics.json`.
    pub fn to_json(&self) -> Value {
        let (counts, total_us) = self.summed_latency();
        let buckets = Value::arr(counts.iter().enumerate().map(|(i, &count)| {
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map_or_else(|| Value::from("+Inf"), |&ub| Value::from(ub as u64));
            Value::obj([("le_us", le), ("count", Value::from(count))])
        }));
        let (hits, misses) = (self.cache_hits.get(), self.cache_misses.get());
        let hit_rate = if hits + misses == 0 {
            Value::Null
        } else {
            Value::from(hits as f64 / (hits + misses) as f64)
        };
        Value::obj([
            (
                "requests",
                Value::obj(
                    Endpoint::ALL.map(|e| (e.name(), self.requests[e as usize].get().into())),
                ),
            ),
            ("errors", Value::from(self.errors.get())),
            (
                "latency_us",
                Value::obj([("buckets", buckets), ("total", Value::from(total_us as u64))]),
            ),
            (
                "cache",
                Value::obj([
                    ("hits", Value::from(hits)),
                    ("misses", Value::from(misses)),
                    ("hit_rate", hit_rate),
                ]),
            ),
            ("reloads", Value::from(self.reloads.get())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Registry, ServeMetrics) {
        let reg = Registry::new();
        let m = ServeMetrics::register(&reg);
        (reg, m)
    }

    /// What `/metrics` renders of the server's own registry.
    fn prometheus(reg: &Registry, m: &ServeMetrics, cache_entries: usize) -> String {
        m.refresh(cache_entries);
        reg.render_prometheus()
    }

    #[test]
    fn counters_accumulate_and_render() {
        let (_reg, m) = fresh();
        m.record(Endpoint::Search, 120, false);
        m.record(Endpoint::Search, 30, false);
        m.record(Endpoint::Other, 999_999, true);
        m.cache_hits.inc();
        m.cache_misses.inc();
        m.cache_misses.inc();
        m.reloads.inc();
        assert_eq!(m.total_requests(), 3);
        let json = m.to_json();
        assert_eq!(json["requests"]["search"], 2u64);
        assert_eq!(json["requests"]["other"], 1u64);
        assert_eq!(json["errors"], 1u64);
        assert_eq!(json["reloads"], 1u64);
        assert_eq!(json["cache"]["hits"], 1u64);
        assert_eq!(json["cache"]["misses"], 2u64);
        let rate = json["cache"]["hit_rate"].as_f64().unwrap();
        assert!((rate - 1.0 / 3.0).abs() < 1e-12);
        // 30µs lands in the ≤50 bucket, 120µs in ≤250, overflow in +Inf.
        let buckets = json["latency_us"]["buckets"].as_array().unwrap();
        assert_eq!(buckets[0]["count"], 1u64);
        assert_eq!(buckets[2]["count"], 1u64);
        assert_eq!(buckets.last().unwrap()["count"], 1u64);
    }

    #[test]
    fn hit_rate_is_null_before_any_lookup() {
        let (_reg, m) = fresh();
        assert!(m.to_json()["cache"]["hit_rate"].is_null());
    }

    #[test]
    fn latency_quantile_interpolates_within_bucket() {
        let (_reg, m) = fresh();
        assert_eq!(m.latency_quantile(0.99), None, "no observations yet");
        // 100 requests, all in the (100, 250] bucket.
        for _ in 0..100 {
            m.record(Endpoint::Search, 200, false);
        }
        // p50 is halfway into the bucket, p99 near its top — not the
        // bucket's upper bound for every quantile.
        assert_eq!(m.latency_quantile(0.5), Some(175.0));
        assert_eq!(m.latency_quantile(0.99), Some(248.5));
        // Overflow-bucket observations clamp to the last finite bound.
        let (_reg2, m2) = fresh();
        m2.record(Endpoint::Search, 10_000_000, false);
        assert_eq!(m2.latency_quantile(0.99), Some(250_000.0));
    }

    #[test]
    fn reload_never_resets_cumulative_series() {
        let (reg, m) = fresh();
        m.record(Endpoint::Search, 100, false);
        m.record(Endpoint::Cluster, 100, true);
        m.cache_hits.inc();
        let before = m.to_json();
        m.reloads.inc();
        m.reloads.inc();
        let after = m.to_json();
        assert_eq!(after["requests"], before["requests"]);
        assert_eq!(after["errors"], before["errors"]);
        assert_eq!(after["latency_us"], before["latency_us"]);
        assert_eq!(after["cache"]["hits"], before["cache"]["hits"]);
        assert_eq!(after["reloads"], 2u64);
        assert!(prometheus(&reg, &m, 0).contains("maras_snapshot_reloads_total 2"));
    }

    #[test]
    fn robustness_counters_render_as_serve_series() {
        let (reg, m) = fresh();
        m.shed.inc();
        m.shed.inc();
        m.timeouts.inc();
        m.worker_panics.inc();
        m.workers_alive.add(1.0);
        m.workers_alive.add(1.0);
        m.workers_alive.add(-1.0);
        m.queue_used.add(1.0);
        m.in_flight.add(1.0);
        assert_eq!(m.shed.get(), 2);
        assert_eq!(m.timeouts.get(), 1);
        assert_eq!(m.worker_panics.get(), 1);
        assert_eq!(m.workers_alive.get(), 1.0);
        assert_eq!(m.queue_used.get(), 1.0);
        assert_eq!(m.in_flight.get(), 1.0);
        let text = prometheus(&reg, &m, 0);
        assert!(text.contains("# TYPE maras_serve_shed_total counter"));
        assert!(text.contains("maras_serve_shed_total 2"));
        assert!(text.contains("maras_serve_timeouts_total 1"));
        assert!(text.contains("maras_serve_worker_panics_total 1"));
        assert!(text.contains("# TYPE maras_serve_workers_alive gauge"));
        assert!(text.contains("maras_serve_workers_alive 1"));
        assert!(text.contains("maras_serve_queue_used 1"));
        assert!(text.contains("maras_serve_inflight 1"));
        // The legacy JSON schema is frozen: robustness series are
        // Prometheus-only and must not leak into `/metrics.json`.
        let json = m.to_json();
        assert!(json.get("shed").is_none());
        assert!(json.get("timeouts").is_none());
    }

    #[test]
    fn metrics_json_schema_stays_frozen_for_existing_keys() {
        // Adding the evidence endpoints must be purely additive: the
        // legacy `/metrics.json` consumers keep every key they had, with
        // the same shapes, and the new endpoint counters appear alongside
        // the old ones instead of displacing them.
        let (_reg, m) = fresh();
        m.record(Endpoint::Search, 100, false);
        m.record(Endpoint::Reports, 200, false);
        m.record(Endpoint::Report, 50, true);
        m.record(Endpoint::Debug, 25, false);
        let json = m.to_json();
        let top: Vec<&str> = match &json {
            Value::Object(o) => o.keys().map(String::as_str).collect(),
            _ => panic!("metrics.json is an object"),
        };
        assert_eq!(top, ["cache", "errors", "latency_us", "reloads", "requests"]);
        for legacy in ["healthz", "metrics", "search", "autocomplete", "cluster", "reload", "other"]
        {
            assert!(json["requests"].get(legacy).is_some(), "lost requests.{legacy}");
        }
        assert_eq!(json["requests"]["reports"], 1u64);
        assert_eq!(json["requests"]["report"], 1u64);
        assert_eq!(json["requests"]["debug"], 1u64);
        assert_eq!(json["errors"], 1u64);
        assert!(json["latency_us"]["buckets"].as_array().is_some());
        assert!(json["cache"].get("hit_rate").is_some());
        // The score engine's `maras_signals_*` and the set-algebra
        // kernels' `maras_tidset_*` series live in the shared Prometheus
        // registry only — like the robustness series, they are
        // append-only on `/metrics` and never grow the frozen JSON schema.
        assert!(json.get("signals").is_none());
        assert!(json.get("tidset").is_none());
        for (i, key) in ["cache", "errors", "latency_us", "reloads", "requests"].iter().enumerate()
        {
            assert_eq!(top[i], *key, "legacy key index {i} moved");
        }
    }

    #[test]
    fn prometheus_exposition_has_per_endpoint_series() {
        let (reg, m) = fresh();
        m.record(Endpoint::Search, 120, false);
        m.record(Endpoint::Healthz, 10, false);
        m.slow_requests.inc();
        let text = prometheus(&reg, &m, 3);
        assert!(text.contains("# TYPE maras_requests_total counter"));
        assert!(text.contains("maras_requests_total{endpoint=\"search\"} 1"));
        assert!(text.contains("maras_requests_total{endpoint=\"healthz\"} 1"));
        assert!(text.contains("# TYPE maras_request_latency_us histogram"));
        assert!(text.contains("maras_request_latency_us_bucket{endpoint=\"search\",le=\"250\"} 1"));
        assert!(text.contains("maras_request_latency_us_bucket{endpoint=\"search\",le=\"+Inf\"} 1"));
        assert!(text.contains("maras_request_latency_us_count{endpoint=\"search\"} 1"));
        assert!(text.contains("maras_cache_entries 3"));
        assert!(text.contains("maras_slow_requests_total 1"));
    }
}
