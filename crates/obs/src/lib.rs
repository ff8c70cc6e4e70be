//! Unified observability for the MARAS workspace: hierarchical span
//! tracing, a global metrics registry, and exporters — with zero
//! dependencies beyond `std`.
//!
//! Every layer of the pipeline (ingest, clean, mine, rules, MCAC) and the
//! query server records into this one substrate, so a year-scale run or a
//! slow `/search` can be broken down without a profiler:
//!
//! * [`span()`] / [`span_under`] — RAII span guards building a process-wide
//!   hierarchical timing tree. The hot path touches only a thread-local
//!   buffer plus one relaxed atomic load; completed spans are flushed to
//!   a bounded global collector when a thread's stack empties, so the
//!   tracer is cheap enough to stay on in production (see the span-tracing
//!   guard in `make bench`'s `bench_kernels`).
//! * [`log`] — the structured-log flight recorder: leveled key-value
//!   events in a bounded in-memory ring (served by `GET /debug/logs` and
//!   dumped by the panic hook) with optional JSON-lines emission to
//!   stderr/file gated by `--log-level` / `MARAS_LOG`.
//! * [`Registry`] — named counters, gauges, and fixed-bucket histograms
//!   (with optional labels) that replace per-layer bespoke stat structs as
//!   the scrapeable surface: the pipeline's in the global [`registry`],
//!   each query server's in a registry its state owns.
//! * [`prom`] — Prometheus text exposition v0.0.4 rendering (`# HELP` /
//!   `# TYPE`, label escaping, cumulative `_bucket` series ending in
//!   `+Inf`), served by `maras serve` on `GET /metrics`.
//! * [`chrome_trace`] — Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto) written by `maras analyze|year --trace out.json`.
//! * [`SpanTree`] — the merged span tree, aggregated by path, rendered as
//!   the `--timings` table.
//!
//! ## Why std-only and always-on
//!
//! The tracer must be available in every crate of the workspace, including
//! the leaf parsing crates, without pulling an async runtime or a
//! subscriber framework into a build that is otherwise dependency-free.
//! A disabled span is one relaxed atomic load; an enabled one is a
//! monotonic clock read plus a thread-local push, far below the cost of
//! the quarter-, file-, and phase-granularity work being measured.
//!
//! ## Span naming convention
//!
//! Span names are `/`-free segments; the tracer joins them with `/` into
//! hierarchical paths (`quarter 2014 Q1/ingest/parse/DRUG`). Dynamic
//! segments (quarter ids) go in the name; high-cardinality values (case
//! ids, query strings) belong in metrics labels or nowhere.

#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod prom;
pub mod span;
pub mod trace;
pub mod tree;

pub use log::{
    clear_log_ring, dump_log_tail, init_logging, install_panic_hook, log_events_seen, log_tail,
    logs_dropped, recording_enabled, set_emit_level, set_recording, Event, FieldValue, Level,
    LogConfig, LogEvent, DROPPED_HELP, DROPPED_SERIES,
};
pub use metrics::{
    counter, counter_with, gauge, gauge_with, histogram, histogram_with, quantile_from_buckets,
    registry, Counter, Gauge, Histogram, Registry,
};
pub use prom::PromText;
pub use span::{
    current_path, init, set_tracing, span, span_under, spans_dropped, take_spans, tracing_enabled,
    ObsConfig, SpanGuard, SpanRecord,
};
pub use trace::chrome_trace;
pub use tree::{SpanNode, SpanTree};
