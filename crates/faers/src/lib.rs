//! FAERS substrate: the adverse-event-report layer MARAS mines (thesis §5.1–5.2).
//!
//! The FDA Adverse Event Reporting System publishes quarterly extracts as
//! `$`-delimited ASCII files (`DEMOyyQq`, `DRUGyyQq`, `REACyyQq`,
//! `OUTCyyQq`). This crate implements that substrate end to end:
//!
//! * [`model`] — the case-report data model (demographics, drug entries
//!   with suspect roles, reaction preferred terms, outcome codes).
//! * [`ascii`] — reader/writer for the quarterly ASCII exchange format.
//! * [`quarter`] — a quarter's worth of reports plus the corpus statistics
//!   Table 5.1 reports (report / distinct-drug / distinct-ADR counts).
//! * [`vocab`] — drug & ADR vocabularies with a BK-tree spelling index;
//!   seeded with every drug and ADR the thesis names so the case studies
//!   reproduce verbatim.
//! * [`clean`] — the §5.2 "data preparation and cleaning" step: case-version
//!   de-duplication, drug-name normalization and misspelling correction,
//!   ADR-term canonicalization.
//! * [`intern`] — string interning for the ingestion hot path: repeated
//!   drug names, ADR terms, and country codes are allocated once and
//!   shared by refcount thereafter.
//! * [`faults`] — deterministic fault injection over the ASCII format
//!   (truncation, stray delimiters, orphans, duplicates, header damage)
//!   with a ledger of expected quarantines, for robustness testing.
//! * [`synth`] — the synthetic FAERS generator substituting for the real
//!   2014 extract (see DESIGN.md, substitution 1): Zipf prescription
//!   marginals, comorbidity-driven co-prescription, per-drug ADR profiles,
//!   planted drug-drug interactions, spelling noise and follow-up
//!   duplicates.

#![warn(missing_docs)]

pub mod ascii;
pub mod clean;
pub mod faults;
pub mod intern;
pub mod model;
pub mod quarter;
pub mod synth;
pub mod vocab;

pub use clean::{clean_quarter, CleanConfig, CleanedReport, Cleaner, CleaningStats};
pub use faults::{corrupt_quarter, CorruptedQuarter, FaultConfig, FaultKind, InjectedFault};
pub use intern::{IStr, InternStats, SymbolTable};
pub use model::{CaseReport, DrugEntry, DrugRole, Outcome, ReportType, Sex};
pub use quarter::{QuarterData, QuarterId, QuarterStats};
pub use synth::{PlantedInteraction, SynthConfig, Synthesizer};
pub use vocab::{levenshtein, BkTree, Vocabulary};
