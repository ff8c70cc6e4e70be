//! Serving layer for MARAS analytics: indexed snapshots, versioned
//! persistence, and a std-only concurrent HTTP query server.
//!
//! The thesis's §4.1 interactive interface is a query loop over one
//! quarter's ranked MCACs. This crate turns that loop into a service:
//!
//! * [`snapshot`] — an immutable [`Snapshot`] built once per analysis,
//!   with inverted indexes (drug → clusters, ADR → clusters, severity
//!   buckets, antecedent cardinality) and prefix autocomplete, so every
//!   [`RuleQuery`](maras_core::RuleQuery) dispatches through index
//!   intersection instead of a full scan — with results guaranteed
//!   identical to the scan path.
//! * [`store`] — MARASNAP, the versioned binary snapshot file, on the
//!   shared [`maras_format`] container (magic, format version, FNV-1a
//!   checksum, typed refusals, durable atomic writes); loading rebuilds
//!   the posting indexes and the closed-form scores instead of reading
//!   them.
//! * [`server`] + [`router`] + [`http`] — an HTTP/1.1 JSON API on
//!   `std::net` and a fixed thread pool: `/search`, `/autocomplete`,
//!   `/cluster/<rank>`, `/cluster/<rank>/reports` and
//!   `/report/<case-id>` (raw case evidence paged from a
//!   [`maras_evidence`] archive when the server is given one),
//!   `/healthz`, and `POST /reload` for atomic hot snapshot(+archive)
//!   swaps that never block readers. The runtime is hardened
//!   for hostile traffic: a **bounded admission queue** sheds overload
//!   with immediate 503s, per-socket **I/O deadlines** cut off
//!   slowloris clients and dead peers, workers **self-heal** through
//!   handler panics (`catch_unwind` + liveness gauge), reloads are
//!   serialized (concurrent `POST /reload` → 409), and shutdown is a
//!   **graceful drain** (`/healthz` flips to 503 `draining`, in-flight
//!   and queued work finishes inside a bounded window).
//! * [`chaos`] — a deterministic, seeded misbehaving-client injector
//!   (slowloris, header floods, abort-mid-body, connection floods) that
//!   the chaos suite replays with exact shed/timeout/panic ledgers.
//! * [`debug`] — request correlation and the flight recorder: every
//!   connection gets a [`RequestId`] at accept time, echoed as
//!   `x-maras-request-id` on *every* response path (including
//!   sheds, timeouts, and recovered panics) and attached to every log
//!   event the request produces; `GET /debug/logs`, `/debug/requests`,
//!   and `/debug/runtime` serve the in-memory log ring, the last-N
//!   notable requests with phase timings, and a runtime health dump
//!   (all three gated by `ServeConfig::debug_endpoints`).
//! * [`cache`] + [`metrics`] — a sharded LRU over rendered responses
//!   (one per serving generation, so a swap starts empty) and
//!   [`ServeMetrics`]: per-endpoint counters and latency histograms,
//!   per-phase timings and the robustness ledger
//!   as [`maras_obs`] handles in a registry each [`ServeState`] owns,
//!   exposed as Prometheus text on `/metrics` (followed by the
//!   process-global registry) and as the legacy JSON dump on
//!   `/metrics.json`. Requests slower than
//!   [`ServeState::slow_threshold_us`] become a `serve.request` event
//!   and are counted; every request records parse/route/cache/render
//!   spans into [`maras_obs`].
//!
//! No dependencies beyond the workspace: the whole server is `std`.

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod debug;
pub mod http;
pub mod metrics;
pub mod router;
pub mod server;
pub mod snapshot;
pub mod store;

pub use cache::QueryCache;
pub use debug::{FlightRecorder, RequestId, RequestRecord, REQUEST_ID_HEADER};
pub use metrics::{Endpoint, ServeMetrics};
pub use router::{respond, ReloadError, ServeState, DEFAULT_SLOW_THRESHOLD_US};
pub use server::{serve, serve_with, ServeConfig, ServerHandle};
pub use snapshot::{scores_json, ClusterEntry, ContextEntry, Snapshot, SortBy};
pub use store::{load, save, FORMAT_VERSION, MAGIC};
