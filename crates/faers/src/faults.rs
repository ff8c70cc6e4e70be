//! Deterministic fault injection for ingestion robustness testing.
//!
//! Real FAERS extracts are dirty: truncated rows, stray delimiters from
//! unescaped free text, child rows whose case was dropped upstream,
//! re-exported duplicates, and occasionally a damaged header. This module
//! manufactures those defects *on purpose* and *on record*: it takes a
//! clean [`QuarterData`], renders it through the canonical
//! [`QuarterWriter`], and applies seeded corruptions to the ASCII text —
//! returning both the corrupted tables and a precise ledger of every
//! injected fault plus every quarantine a lenient read is expected to
//! produce (including *collateral* orphans: child rows of a DEMO row that
//! a fault destroyed).
//!
//! Everything is driven by a single `u64` seed, so a failing robustness
//! test reproduces exactly.

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::Path;

use crate::ascii::{self, AsciiError, IngestOptions, Ingested, QuarantineReason, QuarterWriter};
use crate::model::CaseReport;
use crate::quarter::{QuarterData, QuarterId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// One kind of seeded corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Drop the last `$`-delimited field of a data row.
    TruncateFields,
    /// Insert a stray `$` delimiter into a data row.
    InjectDelimiter,
    /// Replace the DEMO `wt` field with non-numeric text.
    NonNumericWeight,
    /// Rewrite a child row's primaryid to one no DEMO row defines.
    OrphanRow,
    /// Append a verbatim copy of an existing DEMO row.
    DuplicatePrimaryid,
    /// Damage a table's header line.
    HeaderDamage,
}

impl FaultKind {
    /// Every fault kind, in a stable order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::TruncateFields,
        FaultKind::InjectDelimiter,
        FaultKind::NonNumericWeight,
        FaultKind::OrphanRow,
        FaultKind::DuplicatePrimaryid,
        FaultKind::HeaderDamage,
    ];

    /// Stable snake_case label.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TruncateFields => "truncate_fields",
            FaultKind::InjectDelimiter => "inject_delimiter",
            FaultKind::NonNumericWeight => "non_numeric_weight",
            FaultKind::OrphanRow => "orphan_row",
            FaultKind::DuplicatePrimaryid => "duplicate_primaryid",
            FaultKind::HeaderDamage => "header_damage",
        }
    }

    /// The quarantine reason a lenient read must assign to a row carrying
    /// this fault.
    pub fn expected_reason(self) -> QuarantineReason {
        match self {
            FaultKind::TruncateFields | FaultKind::InjectDelimiter => QuarantineReason::FieldCount,
            FaultKind::NonNumericWeight => QuarantineReason::BadNumeric,
            FaultKind::OrphanRow => QuarantineReason::Orphan,
            FaultKind::DuplicatePrimaryid => QuarantineReason::DuplicatePrimaryid,
            FaultKind::HeaderDamage => QuarantineReason::HeaderDamage,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Seeded corruption policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; the whole corruption is a pure function of (quarter,
    /// config).
    pub seed: u64,
    /// Per-row probability of a direct corruption (also used per table
    /// for header damage and per clean DEMO row for duplication).
    pub rate: f64,
    /// Which fault kinds may be injected.
    pub kinds: Vec<FaultKind>,
}

impl FaultConfig {
    /// All fault kinds at the given seed and rate.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultConfig { seed, rate, kinds: FaultKind::ALL.to_vec() }
    }

    /// Restricts the config to the given kinds.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    fn enabled(&self, kind: FaultKind) -> bool {
        self.kinds.contains(&kind)
    }
}

/// One corruption that was actually applied, addressed by the line it
/// landed on in the *corrupted* output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Table name: `DEMO`, `DRUG`, `REAC`, or `OUTC`.
    pub file: &'static str,
    /// 1-based line in the corrupted table text.
    pub line: usize,
    /// What was done to the line.
    pub kind: FaultKind,
    /// The primaryid the line carried before corruption, if any.
    pub primaryid: Option<u64>,
}

/// A quarter's four tables after seeded corruption, with the full fault
/// ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptedQuarter {
    /// Quarter identity (drives on-disk file names).
    pub id: QuarterId,
    /// Corrupted DEMO table text (header + rows).
    pub demo: String,
    /// Corrupted DRUG table text.
    pub drug: String,
    /// Corrupted REAC table text.
    pub reac: String,
    /// Corrupted OUTC table text.
    pub outc: String,
    /// Every corruption that was applied, in table order.
    pub faults: Vec<InjectedFault>,
    /// Every quarantine a lenient read must produce: direct faults plus
    /// collateral orphans of destroyed DEMO rows.
    expected: Vec<(&'static str, usize, QuarantineReason)>,
    data_rows: usize,
}

impl CorruptedQuarter {
    /// Reads the corrupted tables under the given ingestion policy.
    pub fn read(&self, opts: &IngestOptions) -> Result<Ingested, AsciiError> {
        ascii::read_quarter_with(
            self.id,
            self.demo.as_bytes(),
            self.drug.as_bytes(),
            self.reac.as_bytes(),
            self.outc.as_bytes(),
            opts,
        )
    }

    /// Writes the corrupted tables into `dir` under the canonical FAERS
    /// file names (`DEMO14Q1.txt` etc.).
    pub fn write_dir(&self, dir: &Path) -> io::Result<()> {
        let tables = [&self.demo, &self.drug, &self.reac, &self.outc].map(|t| t.as_bytes());
        ascii::write_tables(dir, self.id, tables)
    }

    /// Every `(file, line, reason)` a lenient read must quarantine —
    /// direct faults plus collateral orphans.
    pub fn expected_quarantines(&self) -> &[(&'static str, usize, QuarantineReason)] {
        &self.expected
    }

    /// Expected per-reason quarantine counts, in [`QuarantineReason::ALL`]
    /// order with zero-count reasons omitted — directly comparable to
    /// [`ascii::IngestReport::counts_by_reason`].
    pub fn expected_reason_counts(&self) -> Vec<(QuarantineReason, usize)> {
        QuarantineReason::ALL
            .iter()
            .filter_map(|&reason| {
                let n = self.expected.iter().filter(|e| e.2 == reason).count();
                (n > 0).then_some((reason, n))
            })
            .collect()
    }

    /// Expected quarantined *data* rows (header damage excluded) — the
    /// number a lenient read's error budget is charged for.
    pub fn expected_bad_rows(&self) -> usize {
        self.expected.iter().filter(|e| e.2 != QuarantineReason::HeaderDamage).count()
    }

    /// Total data rows across the four corrupted tables.
    pub fn data_rows(&self) -> usize {
        self.data_rows
    }
}

/// Renders `quarter` through [`QuarterWriter`] and applies seeded
/// corruptions per `cfg`.
///
/// Requires every case id to be ≥ 1 (FAERS case ids are), so that a
/// primaryid below 100 is guaranteed to be an orphan.
pub fn corrupt_quarter(quarter: &QuarterData, cfg: &FaultConfig) -> CorruptedQuarter {
    assert!((0.0..=1.0).contains(&cfg.rate), "fault rate must be in [0, 1]");
    debug_assert!(
        quarter.reports.iter().all(|r| r.case_id >= 1),
        "orphan injection requires case ids >= 1"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut demo = Table::render("DEMO", QuarterWriter::write_demo, quarter);
    let mut drug = Table::render("DRUG", QuarterWriter::write_drug, quarter);
    let mut reac = Table::render("REAC", QuarterWriter::write_reac, quarter);
    let mut outc = Table::render("OUTC", QuarterWriter::write_outc, quarter);

    let demo_kinds: Vec<FaultKind> =
        [FaultKind::TruncateFields, FaultKind::InjectDelimiter, FaultKind::NonNumericWeight]
            .into_iter()
            .filter(|&k| cfg.enabled(k))
            .collect();
    let child_kinds: Vec<FaultKind> =
        [FaultKind::TruncateFields, FaultKind::InjectDelimiter, FaultKind::OrphanRow]
            .into_iter()
            .filter(|&k| cfg.enabled(k))
            .collect();

    let mut faults: Vec<InjectedFault> = Vec::new();
    let mut expected: Vec<(&'static str, usize, QuarantineReason)> = Vec::new();
    let mut killed: HashSet<u64> = HashSet::new();
    let mut demo_corrupted = vec![false; demo.rows.len()];

    // DEMO row faults destroy the case: its child rows become orphans.
    for (i, corrupted) in demo_corrupted.iter_mut().enumerate() {
        if !demo_kinds.is_empty() && rng.gen_bool(cfg.rate) {
            let kind = *demo_kinds.choose(&mut rng).expect("non-empty");
            apply_row_fault(&mut demo.rows[i], kind, &mut rng);
            faults.push(InjectedFault {
                file: "DEMO",
                line: i + 2,
                kind,
                primaryid: Some(demo.pids[i]),
            });
            expected.push(("DEMO", i + 2, kind.expected_reason()));
            killed.insert(demo.pids[i]);
            *corrupted = true;
        }
    }

    // Duplicates are appended copies of rows that survived intact, so the
    // original stays the first (and valid) occurrence.
    if cfg.enabled(FaultKind::DuplicatePrimaryid) {
        for (i, &was_corrupted) in demo_corrupted.iter().enumerate() {
            if !was_corrupted && rng.gen_bool(cfg.rate) {
                demo.rows.push(demo.rows[i].clone());
                let line = demo.rows.len() + 1;
                faults.push(InjectedFault {
                    file: "DEMO",
                    line,
                    kind: FaultKind::DuplicatePrimaryid,
                    primaryid: Some(demo.pids[i]),
                });
                expected.push(("DEMO", line, QuarantineReason::DuplicatePrimaryid));
            }
        }
    }

    // Child tables: direct faults, plus collateral orphans for rows whose
    // DEMO case a fault destroyed.
    for table in [&mut drug, &mut reac, &mut outc] {
        for i in 0..table.rows.len() {
            let line = i + 2;
            if !child_kinds.is_empty() && rng.gen_bool(cfg.rate) {
                let kind = *child_kinds.choose(&mut rng).expect("non-empty");
                apply_row_fault(&mut table.rows[i], kind, &mut rng);
                faults.push(InjectedFault {
                    file: table.file,
                    line,
                    kind,
                    primaryid: Some(table.pids[i]),
                });
                expected.push((table.file, line, kind.expected_reason()));
            } else if killed.contains(&table.pids[i]) {
                expected.push((table.file, line, QuarantineReason::Orphan));
            }
        }
    }

    // Header damage, decided last so row RNG draws are stable across
    // configs that toggle it.
    for table in [&mut demo, &mut drug, &mut reac, &mut outc] {
        if cfg.enabled(FaultKind::HeaderDamage) && rng.gen_bool(cfg.rate) {
            table.header.insert(0, 'X');
            faults.push(InjectedFault {
                file: table.file,
                line: 1,
                kind: FaultKind::HeaderDamage,
                primaryid: None,
            });
            expected.push((table.file, 1, QuarantineReason::HeaderDamage));
        }
    }

    let data_rows = demo.rows.len() + drug.rows.len() + reac.rows.len() + outc.rows.len();
    CorruptedQuarter {
        id: quarter.id,
        demo: demo.text(),
        drug: drug.text(),
        reac: reac.text(),
        outc: outc.text(),
        faults,
        expected,
        data_rows,
    }
}

/// One rendered table, split into header and data rows so faults can be
/// addressed by line.
struct Table {
    file: &'static str,
    header: String,
    rows: Vec<String>,
    /// The primaryid each data row carries, in writer order.
    pids: Vec<u64>,
}

impl Table {
    fn render(
        file: &'static str,
        write: fn(&mut Vec<u8>, &[CaseReport]) -> io::Result<()>,
        quarter: &QuarterData,
    ) -> Table {
        let mut buf = Vec::new();
        write(&mut buf, &quarter.reports).expect("writing to a Vec cannot fail");
        let text = String::from_utf8(buf).expect("ASCII writer output is UTF-8");
        let mut lines = text.lines().map(str::to_string);
        let header = lines.next().expect("writer always emits a header");
        let rows: Vec<String> = lines.collect();
        let pids: Vec<u64> = quarter
            .reports
            .iter()
            .flat_map(|r| {
                let pid = ascii::primary_id(r.case_id, r.version);
                let per_report = match file {
                    "DEMO" => 1,
                    "DRUG" => r.drugs.len(),
                    "REAC" => r.reactions.len(),
                    _ => r.outcomes.len(),
                };
                std::iter::repeat_n(pid, per_report)
            })
            .collect();
        debug_assert_eq!(rows.len(), pids.len());
        Table { file, header, rows, pids }
    }

    fn text(&self) -> String {
        let mut out = String::with_capacity(
            self.header.len() + self.rows.iter().map(|r| r.len() + 1).sum::<usize>() + 1,
        );
        out.push_str(&self.header);
        out.push('\n');
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}

fn apply_row_fault(row: &mut String, kind: FaultKind, rng: &mut StdRng) {
    let mut fields: Vec<String> = row.split('$').map(str::to_string).collect();
    match kind {
        FaultKind::TruncateFields => {
            fields.pop();
        }
        FaultKind::InjectDelimiter => {
            let at = rng.gen_range(0..=fields.len());
            fields.insert(at, String::new());
        }
        FaultKind::NonNumericWeight => {
            fields[6] = "heavy".to_string();
        }
        FaultKind::OrphanRow => {
            fields[0] = rng.gen_range(1u64..100).to_string();
        }
        FaultKind::DuplicatePrimaryid | FaultKind::HeaderDamage => {
            unreachable!("{kind} is not a row fault")
        }
    }
    *row = fields.join("$");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ascii::IngestMode;
    use crate::synth::{SynthConfig, Synthesizer};

    fn sample_quarter(seed: u64) -> QuarterData {
        Synthesizer::new(SynthConfig::test_scale(seed)).generate_quarter(QuarterId::new(2014, 1))
    }

    #[test]
    fn zero_rate_is_the_identity() {
        let q = sample_quarter(11);
        let corrupted = corrupt_quarter(&q, &FaultConfig::new(1, 0.0));
        assert!(corrupted.faults.is_empty());
        assert!(corrupted.expected_quarantines().is_empty());
        let back = corrupted.read(&IngestOptions::strict()).unwrap();
        assert_eq!(back.data, q);
    }

    #[test]
    fn corruption_is_deterministic_in_the_seed() {
        let q = sample_quarter(12);
        let a = corrupt_quarter(&q, &FaultConfig::new(42, 0.05));
        let b = corrupt_quarter(&q, &FaultConfig::new(42, 0.05));
        assert_eq!(a, b);
        let c = corrupt_quarter(&q, &FaultConfig::new(43, 0.05));
        assert_ne!(a.faults, c.faults);
    }

    #[test]
    fn lenient_read_quarantines_exactly_the_ledger() {
        let q = sample_quarter(13);
        let corrupted = corrupt_quarter(&q, &FaultConfig::new(7, 0.03));
        assert!(!corrupted.faults.is_empty(), "rate 3% on a synth quarter must fault");
        let ingested = corrupted.read(&IngestOptions::lenient()).unwrap();
        let report = &ingested.report;

        assert_eq!(report.counts_by_reason(), corrupted.expected_reason_counts());
        assert_eq!(report.quarantined(), corrupted.expected_quarantines().len());
        assert_eq!(report.bad_rows(), corrupted.expected_bad_rows());
        // Quarantines land on exactly the predicted (file, line) pairs.
        let got: Vec<(&str, usize, QuarantineReason)> =
            report.quarantine.iter().map(|r| (r.file, r.line, r.reason)).collect();
        let mut want: Vec<(&str, usize, QuarantineReason)> =
            corrupted.expected_quarantines().to_vec();
        // The ledger appends header-damage entries last; the reader sees a
        // damaged header first in its file. Compare as sets of rows.
        want.sort_unstable();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        assert_eq!(got_sorted, want);
        // Every data row is either parsed or quarantined.
        assert_eq!(report.rows_read(), corrupted.data_rows());
        assert_eq!(report.rows_ok() + report.bad_rows(), report.rows_read());
        assert_eq!(report.mode, IngestMode::Lenient);
    }

    #[test]
    fn strict_read_fails_on_a_faulted_quarter() {
        let q = sample_quarter(14);
        let corrupted = corrupt_quarter(&q, &FaultConfig::new(9, 0.05));
        assert!(!corrupted.faults.is_empty());
        assert!(corrupted.read(&IngestOptions::strict()).is_err());
    }

    #[test]
    fn restricting_kinds_restricts_faults() {
        let q = sample_quarter(15);
        let cfg = FaultConfig::new(21, 0.10).with_kinds(&[FaultKind::OrphanRow]);
        let corrupted = corrupt_quarter(&q, &cfg);
        assert!(!corrupted.faults.is_empty());
        assert!(corrupted.faults.iter().all(|f| f.kind == FaultKind::OrphanRow));
        let ingested = corrupted.read(&IngestOptions::lenient()).unwrap();
        assert!(ingested.report.quarantine.iter().all(|r| r.reason == QuarantineReason::Orphan));
    }

    #[test]
    fn write_dir_roundtrips_through_the_dir_reader() {
        let dir = std::env::temp_dir().join(format!("maras_faults_{}", std::process::id()));
        let q = sample_quarter(16);
        let corrupted = corrupt_quarter(&q, &FaultConfig::new(3, 0.02));
        corrupted.write_dir(&dir).unwrap();
        let from_dir = ascii::read_quarter_dir_with(&dir, q.id, &IngestOptions::lenient()).unwrap();
        let from_mem = corrupted.read(&IngestOptions::lenient()).unwrap();
        assert_eq!(from_dir, from_mem);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
