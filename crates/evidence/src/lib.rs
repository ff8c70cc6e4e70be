//! Evidence store: the on-disk case archive behind the thesis's §4.1
//! drill-down ("mapping the drug-drug interactions to actual reports").
//!
//! A reviewer who sees a mined interaction must be able to pull the
//! original FAERS case reports that support it. In-memory that linkage is
//! `core::link` over a live `AnalysisResult`; at production scale the
//! quarter cannot stay resident next to the serving index, so analysis
//! time writes a **versioned columnar archive** (`MARAEVID`) and serve
//! time pages records back through a block cache:
//!
//! * [`format`](mod@format) — the file layout: header, checksummed meta
//!   section, varint primitives, typed [`EvidenceError`].
//! * [`record`] — the columnar block codec for `CaseReport`s (strings are
//!   ids into a shared dictionary routed through `faers::intern`).
//! * [`postings`] — the delta-varint on-disk codec for sorted-u32
//!   postings lists; in memory they decode into `maras-tidset` hybrid
//!   sets, whose shared kernels compute a rule's cover without touching
//!   record blocks.
//! * [`build`] — [`build_archive`]: blocks + postings + case index,
//!   written atomically (tmp + rename) like the snapshot store.
//! * [`reader`] — [`EvidenceReader`]: verifies the file, keeps only the
//!   index resident, serves point and page lookups through a sharded LRU
//!   block cache; [`check_archive`] verifies every block.
//! * [`metrics`] — `maras_evidence_*` series in the shared obs registry.
//!
//! The postings cover is differential-tested byte-identical to
//! `core::link::supporting_tids` (see `tests/differential.rs`); corrupt
//! archives are refused with typed errors, never panics
//! (`tests/corrupt.rs`).

#![warn(missing_docs)]

pub mod build;
pub mod format;
pub mod metrics;
pub mod postings;
pub mod reader;
pub mod record;

pub use build::{build_archive, ArchiveSummary, BuildConfig};
pub use format::{EvidenceError, FORMAT_VERSION, MAGIC};
pub use metrics::EvidenceMetrics;
pub use reader::{check_archive, CheckReport, EvidenceReader, DEFAULT_CACHE_BLOCKS};
