//! Evidence store: the on-disk case archive behind the thesis's §4.1
//! drill-down ("mapping the drug-drug interactions to actual reports").
//!
//! A reviewer who sees a mined interaction must be able to pull the
//! original FAERS case reports that support it. In-memory that linkage is
//! `core::link` over a live `AnalysisResult`; at production scale the
//! quarter cannot stay resident next to the serving index, so analysis
//! time writes a **versioned columnar archive** (`MARAEVID`) and serve
//! time pages records back through a block cache.
//!
//! The archive is a [`maras_format`] container, all integers
//! little-endian:
//!
//! ```text
//! +------------------+----------------------------------------------------+
//! | header (28 B)    | magic "MARAEVID" · format version u32 ·            |
//! |                  | meta length u64 · meta FNV-1a checksum u64         |
//! | meta section     | quarter · record/block geometry · symbol table ·   |
//! |                  | case index · drug/ADR/severity postings ·          |
//! |                  | block index (offset, length, checksum per block)   |
//! | data section     | fixed-size record blocks, varint-packed columns    |
//! +------------------+----------------------------------------------------+
//! ```
//!
//! The meta section is covered by the header checksum; each data block is
//! covered by its own checksum stored in the (checksummed) block index, so
//! any single flipped byte anywhere in the file is detected before a record
//! is handed to a caller. Every decode path returns a typed
//! [`FormatError`](maras_format::FormatError) — corrupt input must never
//! panic.
//!
//! * [`record`] — the columnar block codec for `CaseReport`s (strings are
//!   ids into a shared dictionary routed through `faers::intern`).
//! * [`postings`] — the delta-varint on-disk codec for sorted-u32
//!   postings lists; in memory they decode into `maras-tidset` hybrid
//!   sets, whose shared kernels compute a rule's cover without touching
//!   record blocks.
//! * [`build`] — [`build_archive`]: blocks + postings + case index,
//!   written with the shared durable atomic write.
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
pub mod metrics;
pub mod postings;
pub mod reader;
pub mod record;

pub use build::{build_archive, ArchiveSummary, BuildConfig};
pub use metrics::EvidenceMetrics;
pub use reader::{check_archive, CheckReport, EvidenceReader, DEFAULT_CACHE_BLOCKS};

/// File magic: 8 bytes at offset 0.
pub const MAGIC: &[u8; 8] = b"MARAEVID";

/// Bumped on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 1;
