//! Reader/writer for the FAERS quarterly `$`-delimited ASCII exchange format.
//!
//! A quarter is published as four joined tables keyed by `primaryid`
//! (the case id concatenated with the case version):
//!
//! * `DEMOyyQq.txt` — one row per case version: demographics + report type;
//! * `DRUGyyQq.txt` — one row per reported medication;
//! * `REACyyQq.txt` — one row per reaction preferred term;
//! * `OUTCyyQq.txt` — one row per outcome code.
//!
//! Each file starts with a `$`-delimited header line. This module implements
//! a faithful subset of the real column inventory (the columns MARAS's
//! pipeline consumes) with exact round-tripping, strict error reporting
//! (file + line), and delimiter sanitization on write.

use crate::intern::{InternStats, SymbolTable};
use crate::model::{CaseReport, DrugEntry, DrugRole, Outcome, ReportType, Sex};
use crate::quarter::{QuarterData, QuarterId};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use std::time::Instant;

/// Errors raised while reading a FAERS ASCII quarter.
#[derive(Debug)]
pub enum AsciiError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed row: file label, 1-based line number, description.
    Malformed {
        /// Which table the row came from (`DEMO`, `DRUG`, `REAC`, `OUTC`).
        file: &'static str,
        /// 1-based line number within that file.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A DRUG/REAC/OUTC row references a primaryid absent from DEMO.
    OrphanRow {
        /// Which table the orphan row came from.
        file: &'static str,
        /// The unresolved primaryid.
        primaryid: u64,
    },
    /// Lenient ingestion quarantined more rows than the
    /// [`ErrorBudget`] allows; the read is abandoned as a hard failure.
    BudgetExceeded {
        /// Rows quarantined when the budget tripped.
        bad_rows: usize,
        /// Data rows read when the budget tripped (all four tables).
        rows_read: usize,
        /// The configured budget.
        budget: ErrorBudget,
        /// The first record quarantined in this read — names the file and
        /// line where the trouble started.
        first: Box<QuarantinedRecord>,
    },
}

impl fmt::Display for AsciiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsciiError::Io(e) => write!(f, "I/O error: {e}"),
            AsciiError::Malformed { file, line, message } => {
                write!(f, "{file} line {line}: {message}")
            }
            AsciiError::OrphanRow { file, primaryid } => {
                write!(f, "{file}: row references unknown primaryid {primaryid}")
            }
            AsciiError::BudgetExceeded { bad_rows, rows_read, budget, first } => {
                write!(
                    f,
                    "error budget exceeded: {bad_rows} of {rows_read} rows quarantined \
                     (budget: {budget}); first offending row: {} line {} ({})",
                    first.file, first.line, first.detail
                )
            }
        }
    }
}

impl std::error::Error for AsciiError {}

impl From<io::Error> for AsciiError {
    fn from(e: io::Error) -> Self {
        AsciiError::Io(e)
    }
}

const DEMO_HEADER: &str =
    "primaryid$caseid$caseversion$rept_cod$age$sex$wt$reporter_country$event_dt";
const DRUG_HEADER: &str = "primaryid$drug_seq$role_cod$drugname";
const REAC_HEADER: &str = "primaryid$pt";
const OUTC_HEADER: &str = "primaryid$outc_cod";

/// Computes the `primaryid` of a case version (caseid ⧺ two-digit version,
/// matching FAERS's concatenation convention).
pub fn primary_id(case_id: u64, version: u32) -> u64 {
    case_id * 100 + u64::from(version % 100)
}

fn sanitize(field: &str) -> String {
    field.replace(['$', '\n', '\r'], " ")
}

/// How the reader treats rows it cannot parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Fail the whole read on the first malformed or orphan row
    /// (historical behaviour, and the default).
    #[default]
    Strict,
    /// Capture malformed rows in a dead-letter quarantine and keep going,
    /// subject to the [`ErrorBudget`].
    Lenient,
}

impl fmt::Display for IngestMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IngestMode::Strict => "strict",
            IngestMode::Lenient => "lenient",
        })
    }
}

impl IngestMode {
    /// Parses `"strict"` / `"lenient"` (case-insensitive).
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "strict" => Some(IngestMode::Strict),
            "lenient" => Some(IngestMode::Lenient),
            _ => None,
        }
    }
}

/// How much quarantined data a lenient read tolerates before escalating
/// to [`AsciiError::BudgetExceeded`].
///
/// Both limits are optional and conjunctive: the absolute limit is
/// enforced as soon as it is crossed (fail fast mid-read); the fractional
/// limit is checked once the denominator — total data rows across the
/// four tables — is known at end of read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorBudget {
    /// Maximum number of quarantined rows (`None` = unlimited).
    pub max_bad_rows: Option<usize>,
    /// Maximum quarantined fraction of all data rows in `[0, 1]`
    /// (`None` = unlimited).
    pub max_bad_frac: Option<f64>,
}

impl ErrorBudget {
    /// No limits: quarantine everything that fails to parse.
    pub fn unlimited() -> Self {
        ErrorBudget::default()
    }

    /// At most `n` quarantined rows.
    pub fn max_rows(n: usize) -> Self {
        ErrorBudget { max_bad_rows: Some(n), max_bad_frac: None }
    }

    /// At most `frac` (e.g. `0.01` for 1%) of data rows quarantined.
    pub fn max_frac(frac: f64) -> Self {
        ErrorBudget { max_bad_rows: None, max_bad_frac: Some(frac) }
    }
}

impl fmt::Display for ErrorBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.max_bad_rows, self.max_bad_frac) {
            (None, None) => f.write_str("unlimited"),
            (Some(n), None) => write!(f, "<= {n} rows"),
            (None, Some(p)) => write!(f, "<= {:.2}% of rows", p * 100.0),
            (Some(n), Some(p)) => write!(f, "<= {n} rows and <= {:.2}% of rows", p * 100.0),
        }
    }
}

/// Full ingestion policy for one quarter read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IngestOptions {
    /// Strict or lenient row handling.
    pub mode: IngestMode,
    /// Error budget applied in lenient mode (ignored in strict mode).
    pub budget: ErrorBudget,
    /// Parse worker threads for the read side; `0` means "use the
    /// machine's available parallelism". Safe at any value: the parallel
    /// parse is a pure per-line map and the merge that applies mode,
    /// budget, and quarantine policy is sequential, so the output is
    /// byte-identical at every thread count (differential-tested).
    pub n_threads: usize,
}

impl IngestOptions {
    /// Historical fail-fast behaviour.
    pub fn strict() -> Self {
        IngestOptions::default()
    }

    /// Lenient mode with an unlimited budget.
    pub fn lenient() -> Self {
        IngestOptions { mode: IngestMode::Lenient, ..IngestOptions::default() }
    }

    /// Lenient mode with the given budget.
    pub fn lenient_with(budget: ErrorBudget) -> Self {
        IngestOptions { mode: IngestMode::Lenient, budget, ..IngestOptions::default() }
    }

    /// Same policy with an explicit parse thread count (`0` = auto).
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.n_threads = n_threads;
        self
    }

    /// Resolves [`Self::n_threads`] to a concrete worker count: `0` maps
    /// to the machine's available parallelism (falling back to 1 when
    /// that is unknowable), anything else is taken literally.
    pub fn effective_threads(&self) -> usize {
        if self.n_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.n_threads
        }
    }
}

/// Why a row was quarantined instead of parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QuarantineReason {
    /// Wrong number of `$`-separated fields.
    FieldCount,
    /// The `primaryid` column failed to parse as an integer.
    BadPrimaryid,
    /// A numeric column (caseid, caseversion, age, wt, event_dt,
    /// drug_seq) failed to parse.
    BadNumeric,
    /// A coded column (rept_cod, role_cod, outc_cod) held an unknown code.
    UnknownCode,
    /// `primaryid` does not equal `caseid * 100 + caseversion % 100`.
    InconsistentPrimaryid,
    /// A DEMO row repeats a primaryid already established.
    DuplicatePrimaryid,
    /// A DRUG/REAC/OUTC row references a primaryid with no DEMO row.
    Orphan,
    /// The header line is damaged or missing; data rows are still
    /// attempted positionally.
    HeaderDamage,
}

impl QuarantineReason {
    /// All reasons, in stable reporting order.
    pub const ALL: [QuarantineReason; 8] = [
        QuarantineReason::FieldCount,
        QuarantineReason::BadPrimaryid,
        QuarantineReason::BadNumeric,
        QuarantineReason::UnknownCode,
        QuarantineReason::InconsistentPrimaryid,
        QuarantineReason::DuplicatePrimaryid,
        QuarantineReason::Orphan,
        QuarantineReason::HeaderDamage,
    ];

    /// A stable snake_case label (used in reports and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::FieldCount => "field_count",
            QuarantineReason::BadPrimaryid => "bad_primaryid",
            QuarantineReason::BadNumeric => "bad_numeric",
            QuarantineReason::UnknownCode => "unknown_code",
            QuarantineReason::InconsistentPrimaryid => "inconsistent_primaryid",
            QuarantineReason::DuplicatePrimaryid => "duplicate_primaryid",
            QuarantineReason::Orphan => "orphan",
            QuarantineReason::HeaderDamage => "header_damage",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One row the lenient reader refused to parse, preserved verbatim in the
/// dead-letter sink.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRecord {
    /// Which table the row came from (`DEMO`, `DRUG`, `REAC`, `OUTC`).
    pub file: &'static str,
    /// 1-based line number within that file.
    pub line: usize,
    /// The row's primaryid, when it could at least be parsed.
    pub primaryid: Option<u64>,
    /// Why the row was quarantined.
    pub reason: QuarantineReason,
    /// Human-readable specifics (mirrors the strict-mode error message).
    pub detail: String,
    /// The offending line, verbatim.
    pub raw: String,
}

/// Row accounting for one of the four tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileCounts {
    /// Non-header lines seen.
    pub rows: usize,
    /// Rows parsed into the quarter.
    pub ok: usize,
    /// Rows quarantined (excludes a damaged header, which is not a data
    /// row; see [`IngestReport::damaged_headers`]).
    pub quarantined: usize,
}

/// What one quarter ingest read, skipped, and why — emitted by every
/// lenient read and threaded through the pipeline into CLI/JSON output.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// The quarter that was read.
    pub quarter: QuarterId,
    /// The mode the read ran under.
    pub mode: IngestMode,
    /// The budget the read ran under.
    pub budget: ErrorBudget,
    /// DEMO table accounting.
    pub demo: FileCounts,
    /// DRUG table accounting.
    pub drug: FileCounts,
    /// REAC table accounting.
    pub reac: FileCounts,
    /// OUTC table accounting.
    pub outc: FileCounts,
    /// The dead-letter sink: every quarantined row, in read order.
    pub quarantine: Vec<QuarantinedRecord>,
}

impl IngestReport {
    fn new(quarter: QuarterId, opts: &IngestOptions) -> Self {
        IngestReport {
            quarter,
            mode: opts.mode,
            budget: opts.budget,
            demo: FileCounts::default(),
            drug: FileCounts::default(),
            reac: FileCounts::default(),
            outc: FileCounts::default(),
            quarantine: Vec::new(),
        }
    }

    /// Per-table accounting, in file order.
    pub fn files(&self) -> [(&'static str, FileCounts); 4] {
        [("DEMO", self.demo), ("DRUG", self.drug), ("REAC", self.reac), ("OUTC", self.outc)]
    }

    /// Total data rows read across the four tables.
    pub fn rows_read(&self) -> usize {
        self.demo.rows + self.drug.rows + self.reac.rows + self.outc.rows
    }

    /// Total rows parsed into the quarter.
    pub fn rows_ok(&self) -> usize {
        self.demo.ok + self.drug.ok + self.reac.ok + self.outc.ok
    }

    /// Total quarantined records (including damaged headers) — what the
    /// [`ErrorBudget`] counts.
    pub fn quarantined(&self) -> usize {
        self.quarantine.len()
    }

    /// Quarantined *data* rows (damaged headers excluded), so that
    /// `rows_ok() + bad_rows() == rows_read()` always holds.
    pub fn bad_rows(&self) -> usize {
        self.demo.quarantined
            + self.drug.quarantined
            + self.reac.quarantined
            + self.outc.quarantined
    }

    /// Quarantine counts per reason (only reasons that occurred), in
    /// [`QuarantineReason::ALL`] order.
    pub fn counts_by_reason(&self) -> Vec<(QuarantineReason, usize)> {
        QuarantineReason::ALL
            .iter()
            .filter_map(|&r| {
                let n = self.quarantine.iter().filter(|q| q.reason == r).count();
                (n > 0).then_some((r, n))
            })
            .collect()
    }

    /// Tables whose header line was damaged or missing.
    pub fn damaged_headers(&self) -> Vec<&'static str> {
        self.quarantine
            .iter()
            .filter(|q| q.reason == QuarantineReason::HeaderDamage)
            .map(|q| q.file)
            .collect()
    }

    /// `true` when nothing was quarantined — the read was
    /// indistinguishable from a strict read.
    pub fn is_clean(&self) -> bool {
        self.quarantine.is_empty()
    }

    /// Fraction of data rows quarantined (0.0 when no rows were read).
    pub fn bad_fraction(&self) -> f64 {
        if self.rows_read() == 0 {
            0.0
        } else {
            self.quarantine.len() as f64 / self.rows_read() as f64
        }
    }
}

/// A successfully ingested quarter: the parsed data plus the accounting
/// of everything that was skipped to get it.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The parsed quarter.
    pub data: QuarterData,
    /// What was read, skipped, and why.
    pub report: IngestReport,
    /// Wall-time and interner accounting for the read.
    pub metrics: IngestMetrics,
}

/// Equality deliberately ignores [`Ingested::metrics`]: two reads of the
/// same bytes are "the same ingest" even though their wall times differ.
impl PartialEq for Ingested {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.report == other.report
    }
}

/// Where one quarter read spent its time, plus what the string interner
/// absorbed. Surfaced through `maras analyze --json` so ingestion
/// regressions are observable without a profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestMetrics {
    /// Microseconds reading each file's bytes (DEMO, DRUG, REAC, OUTC).
    pub io_us: [u64; 4],
    /// Microseconds parsing each file's rows, summed across workers
    /// (DEMO, DRUG, REAC, OUTC).
    pub parse_us: [u64; 4],
    /// Microseconds in the sequential merge (policy, budget, join).
    pub merge_us: u64,
    /// Microseconds for the whole read, wall clock.
    pub total_us: u64,
    /// Parse workers the read ran with (resolved, never 0).
    pub threads: usize,
    /// What the string interner deduplicated.
    pub intern: InternStats,
}

impl IngestMetrics {
    /// Per-file `(name, io µs, parse µs)` rows, in file order.
    pub fn per_file(&self) -> [(&'static str, u64, u64); 4] {
        [
            ("DEMO", self.io_us[0], self.parse_us[0]),
            ("DRUG", self.io_us[1], self.parse_us[1]),
            ("REAC", self.io_us[2], self.parse_us[2]),
            ("OUTC", self.io_us[3], self.parse_us[3]),
        ]
    }
}

/// Writes one table to a writer. Exposed for targeted tests; use
/// [`write_quarter_dir`] for the on-disk layout.
pub struct QuarterWriter;

impl QuarterWriter {
    /// Writes the DEMO table.
    pub fn write_demo<W: Write>(w: &mut W, reports: &[CaseReport]) -> io::Result<()> {
        writeln!(w, "{DEMO_HEADER}")?;
        for r in reports {
            writeln!(
                w,
                "{}${}${}${}${}${}${}${}${}",
                primary_id(r.case_id, r.version),
                r.case_id,
                r.version,
                r.report_type.code(),
                r.age.map_or(String::new(), |a| format!("{a}")),
                r.sex.code(),
                r.weight_kg.map_or(String::new(), |wt| format!("{wt}")),
                sanitize(&r.country),
                r.event_date.map_or(String::new(), |d| d.to_string()),
            )?;
        }
        Ok(())
    }

    /// Writes the DRUG table.
    pub fn write_drug<W: Write>(w: &mut W, reports: &[CaseReport]) -> io::Result<()> {
        writeln!(w, "{DRUG_HEADER}")?;
        for r in reports {
            for (seq, d) in r.drugs.iter().enumerate() {
                writeln!(
                    w,
                    "{}${}${}${}",
                    primary_id(r.case_id, r.version),
                    seq + 1,
                    d.role.code(),
                    sanitize(&d.name),
                )?;
            }
        }
        Ok(())
    }

    /// Writes the REAC table.
    pub fn write_reac<W: Write>(w: &mut W, reports: &[CaseReport]) -> io::Result<()> {
        writeln!(w, "{REAC_HEADER}")?;
        for r in reports {
            for pt in &r.reactions {
                writeln!(w, "{}${}", primary_id(r.case_id, r.version), sanitize(pt))?;
            }
        }
        Ok(())
    }

    /// Writes the OUTC table.
    pub fn write_outc<W: Write>(w: &mut W, reports: &[CaseReport]) -> io::Result<()> {
        writeln!(w, "{OUTC_HEADER}")?;
        for r in reports {
            for o in &r.outcomes {
                writeln!(w, "{}${}", primary_id(r.case_id, r.version), o.code())?;
            }
        }
        Ok(())
    }
}

/// Writes a quarter as the four ASCII files into `dir`, named
/// `DEMO14Q1.txt` etc. after the quarter id.
pub fn write_quarter_dir(dir: &Path, quarter: &QuarterData) -> io::Result<()> {
    let r = &quarter.reports;
    let (mut demo, mut drug, mut reac, mut outc) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    QuarterWriter::write_demo(&mut demo, r)?;
    QuarterWriter::write_drug(&mut drug, r)?;
    QuarterWriter::write_reac(&mut reac, r)?;
    QuarterWriter::write_outc(&mut outc, r)?;
    write_tables(dir, quarter.id, [&demo, &drug, &reac, &outc])
}

/// Writes quarter `id`'s rendered DEMO, DRUG, REAC and OUTC tables into
/// `dir` under the canonical file names, each with one write call.
pub(crate) fn write_tables(dir: &Path, id: QuarterId, tables: [&[u8]; 4]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let label = id.file_label();
    for (name, text) in ["DEMO", "DRUG", "REAC", "OUTC"].into_iter().zip(tables) {
        std::fs::write(dir.join(format!("{name}{label}.txt")), text)?;
    }
    Ok(())
}

/// Reads a quarter back from the four ASCII files in `dir`, strictly.
pub fn read_quarter_dir(dir: &Path, id: QuarterId) -> Result<QuarterData, AsciiError> {
    read_quarter_dir_with(dir, id, &IngestOptions::strict()).map(|i| i.data)
}

/// Reads a quarter from the four ASCII files in `dir` under the given
/// ingestion policy.
pub fn read_quarter_dir_with(
    dir: &Path,
    id: QuarterId,
    opts: &IngestOptions,
) -> Result<Ingested, AsciiError> {
    let label = id.file_label();
    let open = |name: String| -> Result<std::fs::File, AsciiError> {
        std::fs::File::open(dir.join(&name)).map_err(AsciiError::Io)
    };
    read_quarter_with(
        id,
        open(format!("DEMO{label}.txt"))?,
        open(format!("DRUG{label}.txt"))?,
        open(format!("REAC{label}.txt"))?,
        open(format!("OUTC{label}.txt"))?,
        opts,
    )
}

/// Reads a quarter from the four table streams, strictly: the first
/// malformed or orphan row fails the whole read.
pub fn read_quarter<R1: Read, R2: Read, R3: Read, R4: Read>(
    id: QuarterId,
    demo: R1,
    drug: R2,
    reac: R3,
    outc: R4,
) -> Result<QuarterData, AsciiError> {
    read_quarter_with(id, demo, drug, reac, outc, &IngestOptions::strict()).map(|i| i.data)
}

/// A row offense before mode policy is applied: primaryid if known,
/// reason, and the strict-mode message.
type Offense = (Option<u64>, QuarantineReason, String);

/// Applies the ingestion policy to row offenses: strict mode converts the
/// first offense into the historical [`AsciiError`]; lenient mode feeds
/// the dead-letter sink and enforces the absolute error budget.
struct Sink {
    mode: IngestMode,
    budget: ErrorBudget,
    report: IngestReport,
}

impl Sink {
    fn offend(
        &mut self,
        file: &'static str,
        line: usize,
        offense: Offense,
        raw: &str,
    ) -> Result<(), AsciiError> {
        let (primaryid, reason, detail) = offense;
        match self.mode {
            IngestMode::Strict => Err(if reason == QuarantineReason::Orphan {
                AsciiError::OrphanRow { file, primaryid: primaryid.unwrap_or(0) }
            } else {
                AsciiError::Malformed { file, line, message: detail }
            }),
            IngestMode::Lenient => {
                self.report.quarantine.push(QuarantinedRecord {
                    file,
                    line,
                    primaryid,
                    reason,
                    detail,
                    raw: raw.to_string(),
                });
                match self.budget.max_bad_rows {
                    Some(max) if self.report.quarantine.len() > max => Err(self.budget_exceeded()),
                    _ => Ok(()),
                }
            }
        }
    }

    fn budget_exceeded(&self) -> AsciiError {
        AsciiError::BudgetExceeded {
            bad_rows: self.report.quarantine.len(),
            rows_read: self.report.rows_read(),
            budget: self.budget,
            first: Box::new(self.report.quarantine[0].clone()),
        }
    }

    fn check_header(&mut self, file: &'static str, first: Option<&str>) -> Result<(), AsciiError> {
        let expected = match file {
            "DEMO" => DEMO_HEADER,
            "DRUG" => DRUG_HEADER,
            "REAC" => REAC_HEADER,
            _ => OUTC_HEADER,
        };
        match first {
            None => {
                let offense = (None, QuarantineReason::HeaderDamage, "missing header".to_string());
                self.offend(file, 1, offense, "")
            }
            Some(line) if line != expected => {
                let offense =
                    (None, QuarantineReason::HeaderDamage, format!("bad header {line:?}"));
                self.offend(file, 1, offense, line)
            }
            Some(_) => Ok(()),
        }
    }
}

/// Reads a quarter from the four table streams under the given ingestion
/// policy.
///
/// Strict mode reproduces [`read_quarter`]'s fail-fast behaviour exactly.
/// Lenient mode parses what it can: malformed rows, orphans, duplicate
/// DEMO primaryids, and damaged headers land in the returned report's
/// quarantine; the read only fails hard on I/O errors or when the
/// [`ErrorBudget`] is exceeded (absolute limits fail fast mid-read,
/// fractional limits are settled at end of read).
pub fn read_quarter_with<R1: Read, R2: Read, R3: Read, R4: Read>(
    id: QuarterId,
    demo: R1,
    drug: R2,
    reac: R3,
    outc: R4,
    opts: &IngestOptions,
) -> Result<Ingested, AsciiError> {
    let t_total = Instant::now();
    let _span = maras_obs::span("ingest");
    let mut metrics = IngestMetrics { threads: opts.effective_threads(), ..Default::default() };

    // Phase 0: slurp each file into one buffer; every field below is a
    // borrow into these buffers until the CaseReport boundary.
    //
    // The legacy reader interleaved I/O and parsing table by table, so an
    // I/O failure in a later file could be masked by a strict parse error
    // in an earlier one. Reading all four buffers up front means I/O
    // errors now always surface first; parse, quarantine, and budget
    // behaviour is otherwise byte-identical (differential-tested).
    let io_span = maras_obs::span("io");
    let demo_buf = slurp(demo, &mut metrics.io_us[0])?;
    let drug_buf = slurp(drug, &mut metrics.io_us[1])?;
    let reac_buf = slurp(reac, &mut metrics.io_us[2])?;
    let outc_buf = slurp(outc, &mut metrics.io_us[3])?;
    drop(io_span);
    let line_sets: [Vec<&str>; 4] = [
        demo_buf.lines().collect(),
        drug_buf.lines().collect(),
        reac_buf.lines().collect(),
        outc_buf.lines().collect(),
    ];
    let headers: [Option<&str>; 4] = [
        line_sets[0].first().copied(),
        line_sets[1].first().copied(),
        line_sets[2].first().copied(),
        line_sets[3].first().copied(),
    ];
    let rows: [&[&str]; 4] = [
        data_rows(&line_sets[0]),
        data_rows(&line_sets[1]),
        data_rows(&line_sets[2]),
        data_rows(&line_sets[3]),
    ];

    // Phase 1: embarrassingly parallel pure parse over line ranges.
    let parse_span = maras_obs::span("parse");
    let parsed = parse_phase(&rows, metrics.threads, &mut metrics.parse_us);
    drop(parse_span);

    // Phase 2: sequential merge applies mode/budget/quarantine policy in
    // exact legacy row order and interns the repeated strings.
    let t_merge = Instant::now();
    let merge_span = maras_obs::span("merge");
    let mut interner = SymbolTable::new();
    let merged = merge_quarter(id, opts, headers, rows, parsed, &mut interner);
    drop(merge_span);
    metrics.merge_us = t_merge.elapsed().as_micros() as u64;
    metrics.intern = interner.stats();
    metrics.total_us = t_total.elapsed().as_micros() as u64;
    let (data, report) = merged?;
    publish_ingest_metrics(&report, &metrics);
    maras_obs::Event::new(maras_obs::Level::Info, "ingest.quarter")
        .field("quarter", id.to_string())
        .field("rows_ok", report.rows_ok())
        .field("quarantined", report.quarantined())
        .field("reports", data.reports.len())
        .field("total_us", metrics.total_us)
        .emit();
    Ok(Ingested { data, report, metrics })
}

/// Folds one quarter's ingest accounting into the global metrics
/// registry: cumulative row outcomes, per-phase wall time, and the
/// interner's footprint (a gauge — it describes the latest quarter).
fn publish_ingest_metrics(report: &IngestReport, metrics: &IngestMetrics) {
    let (ok, quarantined) = report.files().iter().fold((0u64, 0u64), |(ok, q), (_, counts)| {
        (ok + counts.ok as u64, q + counts.quarantined as u64)
    });
    maras_obs::counter("maras_ingest_rows_ok_total", "FAERS data rows parsed into quarters")
        .add(ok);
    maras_obs::counter("maras_ingest_rows_quarantined_total", "FAERS data rows quarantined")
        .add(quarantined);
    for (phase, us) in [
        ("io", metrics.io_us.iter().sum::<u64>()),
        ("parse", metrics.parse_us.iter().sum::<u64>()),
        ("merge", metrics.merge_us),
    ] {
        maras_obs::counter_with(
            "maras_ingest_phase_us_total",
            "ingest wall time by phase",
            &[("phase", phase)],
        )
        .add(us);
    }
    maras_obs::counter("maras_intern_hits_total", "string-interner lookups answered by cache")
        .add(metrics.intern.hits);
    maras_obs::gauge("maras_intern_unique", "distinct strings in the latest quarter's interner")
        .set(metrics.intern.unique as f64);
    maras_obs::gauge("maras_intern_bytes", "bytes owned by the latest quarter's interner")
        .set(metrics.intern.bytes as f64);
}

/// Reads a whole stream into one buffer, accumulating the wall time.
fn slurp<R: Read>(mut reader: R, io_us: &mut u64) -> Result<String, AsciiError> {
    let t = Instant::now();
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    *io_us += t.elapsed().as_micros() as u64;
    Ok(buf)
}

/// The data rows of a file: everything after the header line.
fn data_rows<'a>(lines: &'a [&'a str]) -> &'a [&'a str] {
    if lines.is_empty() {
        &[]
    } else {
        &lines[1..]
    }
}

/// A DEMO row parsed into borrowed fields, before interning.
struct DemoRow<'a> {
    pid: u64,
    case_id: u64,
    version: u32,
    report_type: ReportType,
    age: Option<f32>,
    sex: Sex,
    weight_kg: Option<f32>,
    country: &'a str,
    event_date: Option<u32>,
}

/// A DRUG row parsed into borrowed fields, before interning.
struct DrugRow<'a> {
    pid: u64,
    seq: u32,
    role: DrugRole,
    name: &'a str,
}

/// An OUTC row after parsing: primaryid plus a *deferred* outcome-code
/// validation, so the merge can apply the legacy error precedence
/// (primaryid parse, then orphan check, then code).
type OutcRow = (u64, Result<Outcome, Offense>);

/// One file's rows after the parallel parse phase.
struct ParsedQuarter<'a> {
    demo: Vec<Result<DemoRow<'a>, Offense>>,
    drug: Vec<Result<DrugRow<'a>, Offense>>,
    reac: Vec<Result<(u64, &'a str), Offense>>,
    outc: Vec<Result<OutcRow, Offense>>,
}

/// One contiguous line range's parse output, tagged by table.
enum ParsedChunk<'a> {
    Demo(Vec<Result<DemoRow<'a>, Offense>>),
    Drug(Vec<Result<DrugRow<'a>, Offense>>),
    Reac(Vec<Result<(u64, &'a str), Offense>>),
    Outc(Vec<Result<OutcRow, Offense>>),
}

fn parse_chunk<'a>(file: usize, lines: &[&'a str]) -> ParsedChunk<'a> {
    match file {
        0 => ParsedChunk::Demo(lines.iter().map(|l| parse_demo_line(l)).collect()),
        1 => ParsedChunk::Drug(lines.iter().map(|l| parse_drug_line(l)).collect()),
        2 => ParsedChunk::Reac(lines.iter().map(|l| parse_reac_line(l)).collect()),
        _ => ParsedChunk::Outc(lines.iter().map(|l| parse_outc_line(l)).collect()),
    }
}

/// Parses all four tables' data rows, sharding each table's line ranges
/// across `n_threads` scoped workers. Parsing a row is a pure function of
/// its text, so reassembling chunks in job order makes the result
/// independent of scheduling by construction.
fn parse_phase<'a>(
    rows: &[&'a [&'a str]; 4],
    n_threads: usize,
    parse_us: &mut [u64; 4],
) -> ParsedQuarter<'a> {
    // Job list in (file, offset) order: reassembly is plain concatenation.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new();
    for (f, file_rows) in rows.iter().enumerate() {
        let len = file_rows.len();
        let chunk = len.div_ceil(n_threads).max(1);
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            jobs.push((f, start, end));
            start = end;
        }
    }

    const TABLE: [&str; 4] = ["DEMO", "DRUG", "REAC", "OUTC"];
    let workers = n_threads.min(jobs.len()).max(1);
    let parent = maras_obs::current_path().unwrap_or_default();
    let mut results: Vec<(usize, ParsedChunk<'a>, u64)> = Vec::with_capacity(jobs.len());
    if workers <= 1 {
        for (i, &(f, start, end)) in jobs.iter().enumerate() {
            let t = Instant::now();
            let _job = maras_obs::span(TABLE[f]);
            let chunk = parse_chunk(f, &rows[f][start..end]);
            results.push((i, chunk, t.elapsed().as_micros() as u64));
        }
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let jobs = &jobs;
                    let parent = &parent;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (i, &(f, start, end)) in jobs.iter().enumerate() {
                            if i % workers != w {
                                continue;
                            }
                            let t = Instant::now();
                            let _job = maras_obs::span_under(parent, TABLE[f]);
                            let chunk = parse_chunk(f, &rows[f][start..end]);
                            out.push((i, chunk, t.elapsed().as_micros() as u64));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                results.extend(h.join().expect("parse worker panicked"));
            }
        });
        results.sort_unstable_by_key(|r| r.0);
    }

    let mut parsed = ParsedQuarter {
        demo: Vec::with_capacity(rows[0].len()),
        drug: Vec::with_capacity(rows[1].len()),
        reac: Vec::with_capacity(rows[2].len()),
        outc: Vec::with_capacity(rows[3].len()),
    };
    for (i, chunk, us) in results {
        parse_us[jobs[i].0] += us;
        match chunk {
            ParsedChunk::Demo(v) => parsed.demo.extend(v),
            ParsedChunk::Drug(v) => parsed.drug.extend(v),
            ParsedChunk::Reac(v) => parsed.reac.extend(v),
            ParsedChunk::Outc(v) => parsed.outc.extend(v),
        }
    }
    parsed
}

/// Sequentially replays the parsed rows through the mode/budget/quarantine
/// policy in exact legacy order, joining child tables onto their cases and
/// interning repeated strings at the [`CaseReport`] boundary.
fn merge_quarter(
    id: QuarterId,
    opts: &IngestOptions,
    headers: [Option<&str>; 4],
    rows: [&[&str]; 4],
    parsed: ParsedQuarter<'_>,
    interner: &mut SymbolTable,
) -> Result<(QuarterData, IngestReport), AsciiError> {
    let mut reports: Vec<CaseReport> = Vec::new();
    let mut by_pid: FxHashMap<u64, usize> = FxHashMap::default();
    let mut sink =
        Sink { mode: opts.mode, budget: opts.budget, report: IngestReport::new(id, opts) };

    // DEMO establishes the cases.
    sink.check_header("DEMO", headers[0])?;
    for (i, res) in parsed.demo.into_iter().enumerate() {
        let (lineno, line) = (i + 2, rows[0][i]);
        sink.report.demo.rows += 1;
        match res {
            Err(offense) => {
                sink.offend("DEMO", lineno, offense, line)?;
                sink.report.demo.quarantined += 1;
            }
            Ok(d) => match by_pid.entry(d.pid) {
                Entry::Occupied(_) => {
                    let offense = (
                        Some(d.pid),
                        QuarantineReason::DuplicatePrimaryid,
                        format!("duplicate primaryid {}", d.pid),
                    );
                    sink.offend("DEMO", lineno, offense, line)?;
                    sink.report.demo.quarantined += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(reports.len());
                    reports.push(CaseReport {
                        case_id: d.case_id,
                        version: d.version,
                        report_type: d.report_type,
                        age: d.age,
                        sex: d.sex,
                        weight_kg: d.weight_kg,
                        country: interner.intern(d.country),
                        event_date: d.event_date,
                        drugs: Vec::new(),
                        reactions: Vec::new(),
                        outcomes: Vec::new(),
                    });
                    sink.report.demo.ok += 1;
                }
            },
        }
    }

    // DRUG rows attach medications (kept in drug_seq order).
    sink.check_header("DRUG", headers[1])?;
    let mut drug_rows: Vec<DrugRow<'_>> = Vec::new();
    for (i, res) in parsed.drug.into_iter().enumerate() {
        let (lineno, line) = (i + 2, rows[1][i]);
        sink.report.drug.rows += 1;
        match res.and_then(|row| orphan_check(&by_pid, row.pid).map(|()| row)) {
            Err(offense) => {
                sink.offend("DRUG", lineno, offense, line)?;
                sink.report.drug.quarantined += 1;
            }
            Ok(row) => {
                drug_rows.push(row);
                sink.report.drug.ok += 1;
            }
        }
    }
    drug_rows.sort_by_key(|r| (r.pid, r.seq));
    for r in drug_rows {
        let entry = DrugEntry { name: interner.intern(r.name), role: r.role };
        reports[by_pid[&r.pid]].drugs.push(entry);
    }

    // REAC rows attach reactions.
    sink.check_header("REAC", headers[2])?;
    for (i, res) in parsed.reac.into_iter().enumerate() {
        let (lineno, line) = (i + 2, rows[2][i]);
        sink.report.reac.rows += 1;
        match res.and_then(|row| orphan_check(&by_pid, row.0).map(|()| row)) {
            Err(offense) => {
                sink.offend("REAC", lineno, offense, line)?;
                sink.report.reac.quarantined += 1;
            }
            Ok((pid, pt)) => {
                let pt = interner.intern(pt);
                reports[by_pid[&pid]].reactions.push(pt);
                sink.report.reac.ok += 1;
            }
        }
    }

    // OUTC rows attach outcomes. (The orphan check precedes code
    // validation, preserving strict-mode error precedence.)
    sink.check_header("OUTC", headers[3])?;
    for (i, res) in parsed.outc.into_iter().enumerate() {
        let (lineno, line) = (i + 2, rows[3][i]);
        sink.report.outc.rows += 1;
        let resolved = res
            .and_then(|(pid, code)| orphan_check(&by_pid, pid).map(|()| (pid, code)))
            .and_then(|(pid, code)| code.map(|outcome| (pid, outcome)));
        match resolved {
            Err(offense) => {
                sink.offend("OUTC", lineno, offense, line)?;
                sink.report.outc.quarantined += 1;
            }
            Ok((pid, outcome)) => {
                reports[by_pid[&pid]].outcomes.push(outcome);
                sink.report.outc.ok += 1;
            }
        }
    }

    // Fractional budget: settled now that the denominator is known.
    if let Some(max_frac) = opts.budget.max_bad_frac {
        if opts.mode == IngestMode::Lenient
            && !sink.report.quarantine.is_empty()
            && sink.report.bad_fraction() > max_frac
        {
            return Err(sink.budget_exceeded());
        }
    }

    Ok((QuarterData { id, reports }, sink.report))
}

fn orphan_check(by_pid: &FxHashMap<u64, usize>, pid: u64) -> Result<(), Offense> {
    if by_pid.contains_key(&pid) {
        Ok(())
    } else {
        let msg = format!("row references unknown primaryid {pid}");
        Err((Some(pid), QuarantineReason::Orphan, msg))
    }
}

/// Splits a line into exactly `N` `$`-separated borrowed fields without
/// allocating; `Err` carries the actual field count for the legacy
/// `FieldCount` message.
fn split_fixed<const N: usize>(line: &str) -> Result<[&str; N], usize> {
    let mut out = [""; N];
    let mut n = 0;
    for part in line.split('$') {
        if n < N {
            out[n] = part;
        }
        n += 1;
    }
    if n == N {
        Ok(out)
    } else {
        Err(n)
    }
}

fn parse_demo_line(line: &str) -> Result<DemoRow<'_>, Offense> {
    use QuarantineReason as Q;
    let fields: [&str; 9] = split_fixed(line)
        .map_err(|n| (None, Q::FieldCount, format!("expected 9 fields, got {n}")))?;
    let pid: u64 = fields[0]
        .parse()
        .map_err(|_| (None, Q::BadPrimaryid, format!("bad primaryid {:?}", fields[0])))?;
    let case_id: u64 = fields[1]
        .parse()
        .map_err(|_| (Some(pid), Q::BadNumeric, format!("bad caseid {:?}", fields[1])))?;
    let version: u32 = fields[2]
        .parse()
        .map_err(|_| (Some(pid), Q::BadNumeric, format!("bad caseversion {:?}", fields[2])))?;
    let report_type = ReportType::from_code(fields[3])
        .ok_or_else(|| (Some(pid), Q::UnknownCode, format!("bad rept_cod {:?}", fields[3])))?;
    let age = parse_opt_f32(fields[4])
        .map_err(|_| (Some(pid), Q::BadNumeric, format!("bad age {:?}", fields[4])))?;
    let sex = Sex::from_code(fields[5]);
    let weight_kg = parse_opt_f32(fields[6])
        .map_err(|_| (Some(pid), Q::BadNumeric, format!("bad wt {:?}", fields[6])))?;
    let event_date = if fields[8].is_empty() {
        None
    } else {
        Some(
            fields[8]
                .parse()
                .map_err(|_| (Some(pid), Q::BadNumeric, format!("bad event_dt {:?}", fields[8])))?,
        )
    };
    if primary_id(case_id, version) != pid {
        return Err((
            Some(pid),
            Q::InconsistentPrimaryid,
            format!("primaryid {pid} inconsistent with caseid {case_id} v{version}"),
        ));
    }
    Ok(DemoRow {
        pid,
        case_id,
        version,
        report_type,
        age,
        sex,
        weight_kg,
        country: fields[7],
        event_date,
    })
}

fn parse_drug_line(line: &str) -> Result<DrugRow<'_>, Offense> {
    use QuarantineReason as Q;
    let fields: [&str; 4] = split_fixed(line)
        .map_err(|n| (None, Q::FieldCount, format!("expected 4 fields, got {n}")))?;
    let pid: u64 = fields[0]
        .parse()
        .map_err(|_| (None, Q::BadPrimaryid, format!("bad primaryid {:?}", fields[0])))?;
    let seq: u32 = fields[1]
        .parse()
        .map_err(|_| (Some(pid), Q::BadNumeric, format!("bad drug_seq {:?}", fields[1])))?;
    let role = DrugRole::from_code(fields[2])
        .ok_or_else(|| (Some(pid), Q::UnknownCode, format!("bad role_cod {:?}", fields[2])))?;
    Ok(DrugRow { pid, seq, role, name: fields[3] })
}

fn parse_reac_line(line: &str) -> Result<(u64, &str), Offense> {
    use QuarantineReason as Q;
    let fields: [&str; 2] = split_fixed(line)
        .map_err(|n| (None, Q::FieldCount, format!("expected 2 fields, got {n}")))?;
    let pid: u64 = fields[0]
        .parse()
        .map_err(|_| (None, Q::BadPrimaryid, format!("bad primaryid {:?}", fields[0])))?;
    Ok((pid, fields[1]))
}

fn parse_outc_line(line: &str) -> Result<(u64, Result<Outcome, Offense>), Offense> {
    use QuarantineReason as Q;
    let fields: [&str; 2] = split_fixed(line)
        .map_err(|n| (None, Q::FieldCount, format!("expected 2 fields, got {n}")))?;
    let pid: u64 = fields[0]
        .parse()
        .map_err(|_| (None, Q::BadPrimaryid, format!("bad primaryid {:?}", fields[0])))?;
    let code = Outcome::from_code(fields[1])
        .ok_or_else(|| (None, Q::UnknownCode, format!("bad outc_cod {:?}", fields[1])));
    Ok((pid, code))
}

fn parse_opt_f32(field: &str) -> Result<Option<f32>, std::num::ParseFloatError> {
    if field.is_empty() {
        Ok(None)
    } else {
        field.parse().map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reports() -> Vec<CaseReport> {
        vec![
            CaseReport {
                case_id: 9000001,
                version: 1,
                report_type: ReportType::Expedited,
                age: Some(63.0),
                sex: Sex::Female,
                weight_kg: Some(71.5),
                country: "US".into(),
                event_date: Some(20140117),
                drugs: vec![
                    DrugEntry::new("IBUPROFEN", DrugRole::PrimarySuspect),
                    DrugEntry::new("METAMIZOLE", DrugRole::SecondarySuspect),
                ],
                reactions: vec!["Acute renal failure".into()],
                outcomes: vec![Outcome::Hospitalization],
            },
            CaseReport {
                case_id: 9000002,
                version: 2,
                report_type: ReportType::Periodic,
                age: None,
                sex: Sex::Unknown,
                weight_kg: None,
                country: "MX".into(),
                event_date: None,
                drugs: vec![DrugEntry::new("ASPIRIN", DrugRole::Concomitant)],
                reactions: vec!["Headache".into(), "Nausea".into()],
                outcomes: vec![],
            },
        ]
    }

    fn roundtrip(reports: Vec<CaseReport>) -> QuarterData {
        let id = QuarterId::new(2014, 1);
        let q = QuarterData { id, reports };
        let mut demo = Vec::new();
        let mut drug = Vec::new();
        let mut reac = Vec::new();
        let mut outc = Vec::new();
        QuarterWriter::write_demo(&mut demo, &q.reports).unwrap();
        QuarterWriter::write_drug(&mut drug, &q.reports).unwrap();
        QuarterWriter::write_reac(&mut reac, &q.reports).unwrap();
        QuarterWriter::write_outc(&mut outc, &q.reports).unwrap();
        read_quarter(id, &demo[..], &drug[..], &reac[..], &outc[..]).unwrap()
    }

    #[test]
    fn roundtrip_preserves_reports() {
        let reports = sample_reports();
        let back = roundtrip(reports.clone());
        assert_eq!(back.reports, reports);
    }

    #[test]
    fn primary_id_concatenates_version() {
        assert_eq!(primary_id(9000001, 1), 900000101);
        assert_eq!(primary_id(9000001, 12), 900000112);
    }

    #[test]
    fn dollar_in_drugname_is_sanitized() {
        let mut reports = sample_reports();
        reports[0].drugs[0].name = "IBU$PROFEN".into();
        let back = roundtrip(reports);
        assert_eq!(back.reports[0].drugs[0].name, "IBU PROFEN");
    }

    #[test]
    fn orphan_drug_row_is_error() {
        let demo = format!("{DEMO_HEADER}\n");
        let drug = format!("{DRUG_HEADER}\n999$1$PS$ASPIRIN\n");
        let reac = format!("{REAC_HEADER}\n");
        let outc = format!("{OUTC_HEADER}\n");
        let err = read_quarter(
            QuarterId::new(2014, 1),
            demo.as_bytes(),
            drug.as_bytes(),
            reac.as_bytes(),
            outc.as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, AsciiError::OrphanRow { file: "DRUG", primaryid: 999 }));
    }

    #[test]
    fn malformed_demo_row_reports_line() {
        let demo = format!("{DEMO_HEADER}\nnot-a-number$1$1$EXP$$UNK$$US$\n");
        let err = read_quarter(
            QuarterId::new(2014, 1),
            demo.as_bytes(),
            format!("{DRUG_HEADER}\n").as_bytes(),
            format!("{REAC_HEADER}\n").as_bytes(),
            format!("{OUTC_HEADER}\n").as_bytes(),
        )
        .unwrap_err();
        match err {
            AsciiError::Malformed { file: "DEMO", line: 2, .. } => {}
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn bad_header_rejected() {
        let err = read_quarter(
            QuarterId::new(2014, 1),
            "wrong$header\n".as_bytes(),
            format!("{DRUG_HEADER}\n").as_bytes(),
            format!("{REAC_HEADER}\n").as_bytes(),
            format!("{OUTC_HEADER}\n").as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, AsciiError::Malformed { file: "DEMO", line: 1, .. }));
    }

    #[test]
    fn inconsistent_primaryid_rejected() {
        let demo = format!("{DEMO_HEADER}\n777$9000001$1$EXP$$UNK$$US$\n");
        let err = read_quarter(
            QuarterId::new(2014, 1),
            demo.as_bytes(),
            format!("{DRUG_HEADER}\n").as_bytes(),
            format!("{REAC_HEADER}\n").as_bytes(),
            format!("{OUTC_HEADER}\n").as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(err, AsciiError::Malformed { file: "DEMO", line: 2, .. }));
    }

    #[test]
    fn dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("maras_ascii_test_{}", std::process::id()));
        let q = QuarterData { id: QuarterId::new(2014, 3), reports: sample_reports() };
        write_quarter_dir(&dir, &q).unwrap();
        assert!(dir.join("DEMO14Q3.txt").exists());
        let back = read_quarter_dir(&dir, q.id).unwrap();
        assert_eq!(back.reports, q.reports);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drug_rows_rejoin_in_seq_order() {
        // Shuffle DRUG rows across cases; reader must restore per-case order.
        let demo = format!(
            "{DEMO_HEADER}\n{}$1$1$EXP$$UNK$$US$\n{}$2$1$EXP$$UNK$$US$\n",
            primary_id(1, 1),
            primary_id(2, 1)
        );
        let drug = format!(
            "{DRUG_HEADER}\n{}$2$SS$B2\n{}$1$PS$A1\n{}$1$PS$B1\n",
            primary_id(2, 1),
            primary_id(1, 1),
            primary_id(2, 1)
        );
        let q = read_quarter(
            QuarterId::new(2014, 1),
            demo.as_bytes(),
            drug.as_bytes(),
            format!("{REAC_HEADER}\n").as_bytes(),
            format!("{OUTC_HEADER}\n").as_bytes(),
        )
        .unwrap();
        let names: Vec<&str> = q.reports[1].drug_names().collect();
        assert_eq!(names, vec!["B1", "B2"]);
    }

    // --- lenient-mode ingestion ---

    /// One good DEMO row, one bad-age DEMO row, one orphan DRUG row.
    fn dirty_streams() -> (String, String, String, String) {
        let good = primary_id(9000001, 1);
        let demo = format!(
            "{DEMO_HEADER}\n{good}$9000001$1$EXP$63$F$71.5$US$20140117\n\
             {}$9000002$1$EXP$sixty$M$$US$\n",
            primary_id(9000002, 1)
        );
        let drug = format!("{DRUG_HEADER}\n{good}$1$PS$IBUPROFEN\n999$1$PS$ASPIRIN\n");
        let reac = format!("{REAC_HEADER}\n{good}$Acute renal failure\n");
        let outc = format!("{OUTC_HEADER}\n{good}$HO\n");
        (demo, drug, reac, outc)
    }

    fn read_with(
        streams: &(String, String, String, String),
        opts: &IngestOptions,
    ) -> Result<Ingested, AsciiError> {
        read_quarter_with(
            QuarterId::new(2014, 1),
            streams.0.as_bytes(),
            streams.1.as_bytes(),
            streams.2.as_bytes(),
            streams.3.as_bytes(),
            opts,
        )
    }

    #[test]
    fn lenient_quarantines_bad_rows_and_keeps_good_ones() {
        let ingested = read_with(&dirty_streams(), &IngestOptions::lenient()).unwrap();
        assert_eq!(ingested.data.reports.len(), 1);
        assert_eq!(ingested.data.reports[0].case_id, 9000001);
        assert_eq!(ingested.data.reports[0].drugs.len(), 1);

        let report = &ingested.report;
        assert_eq!(report.quarantined(), 2);
        assert_eq!(report.demo, FileCounts { rows: 2, ok: 1, quarantined: 1 });
        assert_eq!(report.drug, FileCounts { rows: 2, ok: 1, quarantined: 1 });
        let reasons = report.counts_by_reason();
        assert_eq!(reasons, vec![(QuarantineReason::BadNumeric, 1), (QuarantineReason::Orphan, 1)]);
        let q = &report.quarantine[0];
        assert_eq!((q.file, q.line), ("DEMO", 3));
        assert!(q.detail.contains("bad age"), "detail: {}", q.detail);
        assert!(q.raw.contains("sixty"));
        assert_eq!(report.quarantine[1].primaryid, Some(999));
    }

    #[test]
    fn strict_still_fails_on_dirty_input() {
        let err = read_with(&dirty_streams(), &IngestOptions::strict()).unwrap_err();
        assert!(matches!(err, AsciiError::Malformed { file: "DEMO", line: 3, .. }));
    }

    #[test]
    fn lenient_on_clean_input_matches_strict_with_empty_report() {
        let id = QuarterId::new(2014, 1);
        let q = QuarterData { id, reports: sample_reports() };
        let mut demo = Vec::new();
        let mut drug = Vec::new();
        let mut reac = Vec::new();
        let mut outc = Vec::new();
        QuarterWriter::write_demo(&mut demo, &q.reports).unwrap();
        QuarterWriter::write_drug(&mut drug, &q.reports).unwrap();
        QuarterWriter::write_reac(&mut reac, &q.reports).unwrap();
        QuarterWriter::write_outc(&mut outc, &q.reports).unwrap();
        let strict = read_quarter(id, &demo[..], &drug[..], &reac[..], &outc[..]).unwrap();
        let lenient = read_quarter_with(
            id,
            &demo[..],
            &drug[..],
            &reac[..],
            &outc[..],
            &IngestOptions::lenient(),
        )
        .unwrap();
        assert_eq!(lenient.data, strict);
        assert!(lenient.report.is_clean());
        assert_eq!(lenient.report.rows_ok(), lenient.report.rows_read());
    }

    #[test]
    fn absolute_budget_fails_fast_with_first_offender() {
        let opts = IngestOptions::lenient_with(ErrorBudget::max_rows(1));
        let err = read_with(&dirty_streams(), &opts).unwrap_err();
        match err {
            AsciiError::BudgetExceeded { bad_rows, first, .. } => {
                assert_eq!(bad_rows, 2);
                assert_eq!((first.file, first.line), ("DEMO", 3));
                assert_eq!(first.reason, QuarantineReason::BadNumeric);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn fractional_budget_is_settled_at_end_of_read() {
        // 2 bad of 6 data rows = 33%; a 10% budget trips, a 50% one passes.
        let tight = IngestOptions::lenient_with(ErrorBudget::max_frac(0.10));
        assert!(matches!(
            read_with(&dirty_streams(), &tight).unwrap_err(),
            AsciiError::BudgetExceeded { .. }
        ));
        let loose = IngestOptions::lenient_with(ErrorBudget::max_frac(0.50));
        let ingested = read_with(&dirty_streams(), &loose).unwrap();
        assert_eq!(ingested.report.quarantined(), 2);
    }

    #[test]
    fn lenient_header_damage_is_quarantined_and_rows_still_parse() {
        let good = primary_id(9000001, 1);
        let demo = format!("wrong$header\n{good}$9000001$1$EXP$$UNK$$US$\n");
        let ingested = read_quarter_with(
            QuarterId::new(2014, 1),
            demo.as_bytes(),
            format!("{DRUG_HEADER}\n").as_bytes(),
            format!("{REAC_HEADER}\n").as_bytes(),
            format!("{OUTC_HEADER}\n").as_bytes(),
            &IngestOptions::lenient(),
        )
        .unwrap();
        assert_eq!(ingested.data.reports.len(), 1);
        assert_eq!(ingested.report.damaged_headers(), vec!["DEMO"]);
        // Header damage is not a data-row quarantine.
        assert_eq!(ingested.report.demo, FileCounts { rows: 1, ok: 1, quarantined: 0 });
        assert_eq!(ingested.report.quarantine[0].reason, QuarantineReason::HeaderDamage);
    }

    #[test]
    fn duplicate_primaryid_strict_errors_lenient_quarantines() {
        let pid = primary_id(9000001, 1);
        let demo = format!(
            "{DEMO_HEADER}\n{pid}$9000001$1$EXP$$UNK$$US$\n{pid}$9000001$1$EXP$$UNK$$US$\n"
        );
        let make = |opts: &IngestOptions| {
            read_quarter_with(
                QuarterId::new(2014, 1),
                demo.as_bytes(),
                format!("{DRUG_HEADER}\n").as_bytes(),
                format!("{REAC_HEADER}\n").as_bytes(),
                format!("{OUTC_HEADER}\n").as_bytes(),
                opts,
            )
        };
        let err = make(&IngestOptions::strict()).unwrap_err();
        assert!(matches!(err, AsciiError::Malformed { file: "DEMO", line: 3, .. }));
        let ingested = make(&IngestOptions::lenient()).unwrap();
        assert_eq!(ingested.data.reports.len(), 1);
        assert_eq!(
            ingested.report.counts_by_reason(),
            vec![(QuarantineReason::DuplicatePrimaryid, 1)]
        );
    }

    #[test]
    fn lenient_dir_roundtrip_reports_clean() {
        let dir = std::env::temp_dir().join(format!("maras_ascii_lenient_{}", std::process::id()));
        let q = QuarterData { id: QuarterId::new(2015, 2), reports: sample_reports() };
        write_quarter_dir(&dir, &q).unwrap();
        let ingested = read_quarter_dir_with(&dir, q.id, &IngestOptions::lenient()).unwrap();
        assert_eq!(ingested.data.reports, q.reports);
        assert!(ingested.report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
