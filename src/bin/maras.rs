//! `maras` — command-line front end for the MARAS pipeline.
//!
//! ```text
//! maras generate --out DIR [--reports N] [--seed S]      synthesize a year of quarterly extracts
//! maras analyze  --dir DIR --quarter 2014Q1 [opts]       run MARAS over one quarter
//! maras year     --dir DIR [--year 2014] [opts]          fault-tolerant run over four quarters
//! maras render   --dir DIR --quarter 2014Q1 --out DIR    render panorama + top-glyph SVGs
//! maras study    [--participants N] [--seed S]           run the simulated user study
//! maras demo                                             end-to-end demo on in-memory data
//! ```
//!
//! `generate` writes the four FAERS-format ASCII quarters plus
//! `drug_vocab.txt` / `adr_vocab.txt` (one canonical term per line), which
//! `analyze` and `render` read back — the same contract a real deployment
//! would satisfy with RxNorm/MedDRA dictionaries.
//!
//! Dirty data: every reading command accepts `--ingest-mode
//! strict|lenient` (default strict), `--max-bad-rows N` and
//! `--max-bad-frac F`. Lenient ingestion quarantines malformed rows and
//! reports them (and serializes the ingest report into `--json` output);
//! a blown error budget exits with code 2.

use maras::core::ingest::{run_quarters_dir, QuarterOutcome};
use maras::core::{supporting_reports, KnowledgeBase, Pipeline, PipelineConfig};
use maras::evidence::{build_archive, check_archive, BuildConfig, EvidenceReader};
use maras::faers::ascii::{
    read_quarter_dir_with, write_quarter_dir, AsciiError, ErrorBudget, IngestMetrics, IngestMode,
    IngestOptions, IngestReport, Ingested,
};
use maras::faers::{CleaningStats, QuarterId, SynthConfig, Synthesizer, Vocabulary};
use maras::format::FormatError;
use maras::rules::DrugAdrRule;
use maras::serve::{ServeState, Snapshot};
use maras::signals::RankKey;
use maras::study::{appendix_a_battery, run_study, Encoding, StudyConfig};
use maras::viz::{glyph_svg, panorama_svg, GlyphConfig, PanoramaConfig, Theme, DARK, LIGHT};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Structured CLI failure. Usage problems exit 1; a blown ingest error
/// budget exits 2, so batch drivers can tell "you typed it wrong" from
/// "the data is worse than the budget allows".
#[derive(Debug)]
enum CliError {
    /// Bad flags, arguments, or values.
    Usage(String),
    /// FAERS ingestion failed (I/O, malformed data in strict mode, or a
    /// blown error budget).
    Ingest(AsciiError),
    /// A non-ingest I/O step failed.
    Io { context: String, source: std::io::Error },
    /// A snapshot file was refused (bad magic/version/checksum, corrupt
    /// payload) when loading for `serve`.
    Snapshot(FormatError),
    /// An evidence archive could not be built, validated, or opened.
    Evidence(FormatError),
    /// Anything else (empty mining output, render failures, …).
    Other(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn io(context: impl Into<String>, source: std::io::Error) -> CliError {
        CliError::Io { context: context.into(), source }
    }

    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Ingest(AsciiError::BudgetExceeded { .. }) => ExitCode::from(2),
            _ => ExitCode::FAILURE,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Other(msg) => f.write_str(msg),
            CliError::Ingest(e) => write!(f, "ingest: {e}"),
            CliError::Io { context, source } => write!(f, "{context}: {source}"),
            CliError::Snapshot(e) => write!(f, "snapshot: {e}"),
            CliError::Evidence(e) => write!(f, "evidence: {e}"),
        }
    }
}

impl From<AsciiError> for CliError {
    fn from(e: AsciiError) -> CliError {
        CliError::Ingest(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = init_logging_from_flags(&flags) {
        eprintln!("error: {e}");
        return e.exit_code();
    }
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "analyze" => cmd_analyze(&flags),
        "year" => cmd_year(&flags),
        "render" => cmd_render(&flags),
        "report" => cmd_report(&flags),
        "snapshot" => cmd_snapshot(&flags),
        "serve" => cmd_serve(&flags),
        "evidence build" => cmd_evidence_build(&flags),
        "evidence check" => cmd_evidence_check(&flags),
        "study" => cmd_study(&flags),
        "demo" => cmd_demo(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

const USAGE: &str = "\
maras - multi-drug adverse reaction analytics

USAGE:
  maras generate --out DIR [--reports N] [--seed S]
  maras analyze  --dir DIR --quarter 2014Q1 [--min-support N] [--top K]
                 [--measure confidence|lift] [--theta T] [--threads N]
                 [--rank-by exclusiveness|prr|ror|ebgm|composite]
                 [--drug NAME] [--unknown-only] [--novel-adr-only] [--json FILE]
                 [--ingest-mode strict|lenient] [--max-bad-rows N] [--max-bad-frac F]
                 [--trace FILE.json] [--timings]
  maras year     --dir DIR [--year 2014] [--min-support N] [--top K] [--threads N]
                 [--rank-by METHOD] [--json FILE] [--trace FILE.json] [--timings]
                 [--ingest-mode strict|lenient] [--max-bad-rows N] [--max-bad-frac F]
  maras render   --dir DIR --quarter 2014Q1 [--out DIR] [--top K] [--dark]
  maras report   --dir DIR --quarter 2014Q1 [--out FILE.html] [--top K] [--threads N]
                 [--rank-by METHOD] [--trace FILE.json] [--timings]
  maras snapshot --dir DIR --quarter 2014Q1 --out FILE.snap [--json FILE] [--threads N]
                 [--rank-by METHOD] [--evidence FILE.evid] [--trace FILE.json] [--timings]
  maras serve    --snapshot FILE.snap [--evidence FILE.evid] [--addr HOST:PORT]
                 [--threads N] [--cache N] [--check] [--json FILE] [--slow-ms MS]
                 [--queue-depth N] [--io-timeout-ms MS] [--drain-ms MS] [--no-debug]
  maras evidence build --dir DIR --quarter 2014Q1 --out FILE.evid
                 [--block-size N] [--json FILE] [--threads N]
                 [--ingest-mode strict|lenient] [--max-bad-rows N] [--max-bad-frac F]
  maras evidence check --archive FILE.evid [--json FILE]

For analyze/year/report/snapshot, --threads N sets the mining AND ingest
worker count (0 or omitted = all available cores); for serve it sets HTTP
worker threads. Ingest output is byte-identical at any thread count.
--rank-by METHOD orders the ranked clusters by exclusiveness (default)
or a disproportionality baseline (prr, ror, ebgm, or their geometric
mean, composite); every method serves the full score block either way.
--theta and --measure set the exclusiveness in every score block,
whatever --rank-by says. The server's /search?sort_by= takes the same
names, plus rank or score for the snapshot's own order.
  maras study    [--participants N] [--seed S]
  maras demo

`snapshot` runs the pipeline and writes an indexed, checksummed binary
snapshot; `serve` loads it and answers /search, /autocomplete,
/cluster/<rank>, /healthz, /metrics (Prometheus text) and /metrics.json
(legacy JSON) over HTTP (POST /reload hot-swaps the file atomically).
`--check` validates the snapshot (and the evidence archive, if given)
and exits.

`evidence build` writes the checksummed on-disk case archive that backs
the drill-down endpoints; passing `--evidence` to `snapshot` writes it
from the same analysis run. `serve --evidence` opens the archive and
additionally answers /cluster/<rank>/reports (paginated raw case
reports, ?offset=&limit=&min_severity=) and /report/<case-id>; reload
re-opens snapshot + archive together or not at all. `evidence check`
re-reads every block against its checksum and exits non-zero on any
corruption. `--slow-ms` sets the
slow-request log threshold (default 1000 ms). `--queue-depth` bounds the
admission queue (default 128; full queue answers 503 immediately),
`--io-timeout-ms` is the per-request socket deadline (default 5000;
0 disables), and `--drain-ms` bounds the graceful-drain window used by
embedders that call `ServerHandle::shutdown` (default 5000).

Observability: --trace FILE.json writes a Chrome trace-event file of the
run (open in chrome://tracing or Perfetto); --timings prints the
aggregated span tree to stderr. Every command accepts --log-level
trace|debug|info|warn|error|off (or the MARAS_LOG env var) to emit
structured JSON-lines log events to stderr, and --log-file FILE to tee
them to a file; the in-memory log ring records regardless and a panic
dumps its tail. `serve` assigns every connection a request id (echoed
as x-maras-request-id), keeps a flight recorder of notable requests,
and answers GET /debug/logs, /debug/requests, and /debug/runtime
(disable the suite with --no-debug).

Dirty data: --ingest-mode lenient quarantines malformed rows instead of
failing; --max-bad-rows / --max-bad-frac cap the quarantine (exceeding the
budget exits with code 2).";

type Flags = HashMap<String, String>;

fn parse(args: &[String]) -> Result<(String, Flags), String> {
    let mut command = args.first().cloned().ok_or("missing command")?;
    let mut i = 1;
    // `evidence` takes a subcommand word (`evidence build`, `evidence
    // check`) before its flags; fold it into the command key.
    if command == "evidence" {
        let sub = args
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .ok_or("evidence needs a subcommand: build or check")?;
        command = format!("evidence {sub}");
        i = 2;
    }
    let mut flags = HashMap::new();
    while i < args.len() {
        let flag = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        // Boolean flags take no value.
        if flag == "unknown-only"
            || flag == "dark"
            || flag == "novel-adr-only"
            || flag == "check"
            || flag == "timings"
            || flag == "no-debug"
        {
            flags.insert(flag.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| format!("--{flag} needs a value"))?;
        flags.insert(flag.to_string(), value.clone());
        i += 2;
    }
    Ok((command, flags))
}

fn flag<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, CliError> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("missing required --{name}")))
}

fn flag_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::usage(format!("--{name}: cannot parse {v:?}"))),
    }
}

fn parse_quarter(s: &str) -> Result<QuarterId, CliError> {
    // "2014Q1" or "2014q1"
    let s = s.to_ascii_uppercase();
    let (year, q) = s
        .split_once('Q')
        .ok_or_else(|| CliError::usage(format!("bad quarter {s:?}, want 2014Q1")))?;
    let year: u16 = year.parse().map_err(|_| CliError::usage(format!("bad year in {s:?}")))?;
    let q: u8 = q.parse().map_err(|_| CliError::usage(format!("bad quarter number in {s:?}")))?;
    if !(1..=4).contains(&q) {
        return Err(CliError::usage(format!("quarter must be 1-4, got {q}")));
    }
    Ok(QuarterId::new(year, q))
}

/// Drains the span collector and emits the observability artifacts the
/// run asked for: `--trace FILE` writes a Chrome trace-event JSON file
/// (open in `chrome://tracing` or Perfetto), `--timings` prints the
/// aggregated span tree to stderr. With neither flag this is a no-op —
/// the collector is left alone so tests sharing the process can drain
/// it themselves.
fn emit_obs(flags: &Flags) -> Result<(), CliError> {
    let trace_path = flags.get("trace");
    let timings = flags.contains_key("timings");
    if trace_path.is_none() && !timings {
        return Ok(());
    }
    let spans = maras::obs::take_spans();
    if let Some(path) = trace_path {
        let json = maras::obs::chrome_trace(&spans);
        std::fs::write(path, json).map_err(|e| CliError::io(format!("write {path}"), e))?;
        println!("wrote Chrome trace ({} spans) to {path}", spans.len());
    }
    if timings {
        eprint!("{}", maras::obs::SpanTree::build(&spans).render());
    }
    let dropped = maras::obs::spans_dropped();
    if dropped > 0 {
        eprintln!("warning: {dropped} spans dropped (collector cap reached)");
    }
    Ok(())
}

/// Configures the structured-log flight recorder for every command:
/// `MARAS_LOG` / `--log-level` gate JSON-lines emission to stderr (the
/// in-memory ring records regardless), `--log-file` tees emitted lines
/// to a file, and a panic hook dumps the ring tail before aborting so a
/// crash always leaves its last moments behind.
fn init_logging_from_flags(flags: &Flags) -> Result<(), CliError> {
    let mut config = maras::obs::LogConfig::from_env();
    if let Some(raw) = flags.get("log-level") {
        config.emit_level = match maras::obs::Level::parse(raw) {
            Some(level) => Some(level),
            None if raw.eq_ignore_ascii_case("off") => None,
            None => {
                return Err(CliError::usage(format!(
                    "--log-level must be trace, debug, info, warn, error, or off, got {raw:?}"
                )))
            }
        };
    }
    config.file = flags.get("log-file").map(PathBuf::from);
    config.panic_hook = true;
    maras::obs::init_logging(&config).map_err(|e| CliError::io("initialize logging".to_string(), e))
}

/// `--ingest-mode` / `--max-bad-rows` / `--max-bad-frac` → [`IngestOptions`].
fn ingest_options(flags: &Flags) -> Result<IngestOptions, CliError> {
    let mode = match flags.get("ingest-mode") {
        None => IngestMode::Strict,
        Some(v) => IngestMode::from_str_opt(v).ok_or_else(|| {
            CliError::usage(format!("--ingest-mode must be strict or lenient, got {v:?}"))
        })?,
    };
    let mut budget = ErrorBudget::unlimited();
    if let Some(v) = flags.get("max-bad-rows") {
        let n: usize = v
            .parse()
            .map_err(|_| CliError::usage(format!("--max-bad-rows: cannot parse {v:?}")))?;
        budget.max_bad_rows = Some(n);
    }
    if let Some(v) = flags.get("max-bad-frac") {
        let f: f64 = v
            .parse()
            .map_err(|_| CliError::usage(format!("--max-bad-frac: cannot parse {v:?}")))?;
        if !(0.0..=1.0).contains(&f) {
            return Err(CliError::usage(format!("--max-bad-frac must be in [0, 1], got {f}")));
        }
        budget.max_bad_frac = Some(f);
    }
    Ok(IngestOptions { mode, budget, n_threads: flag_num(flags, "threads", 0usize)? })
}

fn write_vocab(path: &Path, vocab: &Vocabulary) -> Result<(), CliError> {
    let mut out = String::new();
    for (_, term) in vocab.iter() {
        out.push_str(term);
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| CliError::io(format!("write {}", path.display()), e))
}

fn read_vocab(path: &Path) -> Result<Vocabulary, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("read {}", path.display()), e))?;
    Ok(Vocabulary::from_terms(text.lines().map(str::to_string)))
}

fn cmd_generate(flags: &Flags) -> Result<(), CliError> {
    let out = PathBuf::from(flag(flags, "out")?);
    let reports: usize = flag_num(flags, "reports", 5_000)?;
    let seed: u64 = flag_num(flags, "seed", 2014)?;
    let config = SynthConfig { n_reports: reports, seed, ..SynthConfig::default() };
    let mut synth = Synthesizer::new(config);
    std::fs::create_dir_all(&out)
        .map_err(|e| CliError::io(format!("mkdir {}", out.display()), e))?;
    for quarter in synth.generate_year(2014) {
        write_quarter_dir(&out, &quarter)
            .map_err(|e| CliError::io("write quarter".to_string(), e))?;
        println!("wrote {} ({} reports)", quarter.id, quarter.reports.len());
    }
    write_vocab(&out.join("drug_vocab.txt"), synth.drug_vocab())?;
    write_vocab(&out.join("adr_vocab.txt"), synth.adr_vocab())?;
    println!("wrote vocabularies to {}", out.display());
    Ok(())
}

fn load_vocabs(dir: &Path) -> Result<(Vocabulary, Vocabulary), CliError> {
    Ok((read_vocab(&dir.join("drug_vocab.txt"))?, read_vocab(&dir.join("adr_vocab.txt"))?))
}

/// Parses the pipeline and ingest flags before it reads any file.
fn load(
    flags: &Flags,
    dir: &Path,
    id: QuarterId,
) -> Result<(Pipeline, Ingested, Vocabulary, Vocabulary), CliError> {
    let pipeline = Pipeline::new(pipeline_config(flags)?);
    let ingested = read_quarter_dir_with(dir, id, &ingest_options(flags)?)?;
    let (dv, av) = load_vocabs(dir)?;
    Ok((pipeline, ingested, dv, av))
}

fn pipeline_config(flags: &Flags) -> Result<PipelineConfig, CliError> {
    let theta: f64 = flag_num(flags, "theta", 0.5)?;
    if !(0.0..=1.0).contains(&theta) {
        return Err(CliError::usage(format!("--theta must be in [0, 1], got {theta}")));
    }
    let mut config = PipelineConfig::default()
        .with_min_support(flag_num(flags, "min-support", 6u64)?)
        .with_theta(theta)
        .with_n_threads(flag_num(flags, "threads", 0usize)?);
    match flags.get("measure").map(String::as_str) {
        None | Some("confidence") => {}
        Some("lift") => config = config.with_lift(),
        Some(other) => {
            return Err(CliError::usage(format!(
                "--measure must be confidence or lift, got {other:?}"
            )))
        }
    }
    if let Some(s) = flags.get("rank-by") {
        let key = RankKey::parse(s).ok_or_else(|| {
            let names = RankKey::ALL.map(RankKey::name).join(", ");
            CliError::usage(format!("--rank-by must be one of {names}, got {s:?}"))
        })?;
        config = config.with_rank_by(key);
    }
    Ok(config)
}

/// One-paragraph ingest accounting, printed by `analyze`, `year`, and
/// `report`.
fn print_ingest(report: &IngestReport) {
    let mut line = format!(
        "ingest [{}]: {}/{} rows ok, {} quarantined",
        report.mode,
        report.rows_ok(),
        report.rows_read(),
        report.quarantined(),
    );
    if !report.is_clean() {
        let reasons: Vec<String> =
            report.counts_by_reason().iter().map(|(r, n)| format!("{r}: {n}")).collect();
        line.push_str(&format!(" ({})", reasons.join(", ")));
    }
    println!("{line}; budget: {}", report.budget);
    let damaged = report.damaged_headers();
    if !damaged.is_empty() {
        println!("  damaged headers: {}", damaged.join(", "));
    }
}

/// JSON projection of an [`IngestReport`] (the schema README documents).
fn ingest_report_json(report: &IngestReport) -> serde_json::Value {
    use serde_json::Value;
    let files = Value::obj(report.files().into_iter().map(|(name, c)| {
        (
            name,
            Value::obj([
                ("rows", Value::from(c.rows)),
                ("ok", Value::from(c.ok)),
                ("quarantined", Value::from(c.quarantined)),
            ]),
        )
    }));
    let by_reason = Value::obj(
        report.counts_by_reason().into_iter().map(|(r, n)| (r.as_str(), Value::from(n))),
    );
    Value::obj([
        ("quarter", Value::from(report.quarter.to_string())),
        ("mode", Value::from(report.mode.to_string())),
        (
            "budget",
            Value::obj([
                ("max_bad_rows", Value::from(report.budget.max_bad_rows)),
                ("max_bad_frac", Value::from(report.budget.max_bad_frac)),
            ]),
        ),
        ("rows_read", Value::from(report.rows_read())),
        ("rows_ok", Value::from(report.rows_ok())),
        ("bad_rows", Value::from(report.bad_rows())),
        ("quarantined", Value::from(report.quarantined())),
        ("files", files),
        ("by_reason", by_reason),
        ("damaged_headers", Value::arr(report.damaged_headers().into_iter().map(Value::from))),
        ("clean", Value::from(report.is_clean())),
    ])
}

/// JSON projection of [`IngestMetrics`]: where the read spent its time,
/// plus interner accounting.
fn ingest_metrics_json(metrics: &IngestMetrics) -> serde_json::Value {
    use serde_json::Value;
    let files = Value::obj(metrics.per_file().into_iter().map(|(name, io_us, parse_us)| {
        (name, Value::obj([("io_us", Value::from(io_us)), ("parse_us", Value::from(parse_us))]))
    }));
    Value::obj([
        ("threads", Value::from(metrics.threads)),
        ("files", files),
        ("merge_us", Value::from(metrics.merge_us)),
        ("total_us", Value::from(metrics.total_us)),
        (
            "interner",
            Value::obj([
                ("unique", Value::from(metrics.intern.unique)),
                ("hits", Value::from(metrics.intern.hits)),
                ("bytes", Value::from(metrics.intern.bytes)),
                ("hit_rate", Value::from(metrics.intern.hit_rate())),
            ]),
        ),
    ])
}

/// JSON projection of [`CleaningStats`], including the canonicalization
/// cache counters.
fn cleaning_stats_json(stats: &CleaningStats) -> serde_json::Value {
    use serde_json::Value;
    Value::obj([
        ("input_reports", Value::from(stats.input_reports)),
        ("deduplicated_versions", Value::from(stats.deduplicated_versions)),
        ("output_reports", Value::from(stats.output_reports)),
        ("dropped_sparse", Value::from(stats.dropped_sparse)),
        ("drug_mentions", Value::from(stats.drug_mentions)),
        ("corrected_drugs", Value::from(stats.corrected_drugs)),
        ("unmatched_drugs", Value::from(stats.unmatched_drugs)),
        ("adr_mentions", Value::from(stats.adr_mentions)),
        ("corrected_adrs", Value::from(stats.corrected_adrs)),
        ("unmatched_adrs", Value::from(stats.unmatched_adrs)),
        ("drug_cache_hits", Value::from(stats.drug_cache_hits)),
        ("drug_cache_misses", Value::from(stats.drug_cache_misses)),
        ("adr_cache_hits", Value::from(stats.adr_cache_hits)),
        ("adr_cache_misses", Value::from(stats.adr_cache_misses)),
        ("cache_hit_rate", Value::from(stats.cache_hit_rate())),
    ])
}

fn cmd_analyze(flags: &Flags) -> Result<(), CliError> {
    let dir = PathBuf::from(flag(flags, "dir")?);
    let id = parse_quarter(flag(flags, "quarter")?)?;
    let top: usize = flag_num(flags, "top", 15)?;
    let (pipeline, ingested, dv, av) = load(flags, &dir, id)?;
    print_ingest(&ingested.report);
    let ingest_report = ingested.report;
    let ingest_metrics = ingested.metrics;
    let result = pipeline.run(ingested.data, &dv, &av);

    println!(
        "{id}: {} reports -> {} cleaned -> {} MCACs ({} total splits, {} drug->ADR rules)",
        result.cleaning.input_reports,
        result.cleaning.output_reports,
        result.counts.mcacs,
        result.counts.total_rules,
        result.counts.filtered_rules,
    );

    // Optional drug / novelty filters (§4.1 search panel).
    let mut query = maras::core::RuleQuery::new();
    if let Some(drug) = flags.get("drug") {
        query = query.with_drug(drug);
    }
    let kb = KnowledgeBase::literature_validated();
    if flags.contains_key("unknown-only") {
        query = query.unknown_only();
    }
    if flags.contains_key("novel-adr-only") {
        query = query.novel_adr_only();
    }
    let hits = query.apply(&result, &dv, &av, Some(&kb));

    let mut views = Vec::new();
    for &rank in hits.iter().take(top) {
        // `try_view` keeps a bad rank from panicking the CLI, whatever the
        // query produced.
        let Some(view) = result.try_view(rank, &dv, &av) else { continue };
        println!("{view}");
        views.push(view);
    }
    if let Some(json_path) = flags.get("json") {
        let json = serde_json::Value::obj([
            ("quarter", serde_json::Value::from(id.to_string())),
            ("ingest", ingest_report_json(&ingest_report)),
            ("ingest_metrics", ingest_metrics_json(&ingest_metrics)),
            ("cleaning", cleaning_stats_json(&result.cleaning)),
            ("rules", serde_json::Value::arr(views.iter().map(rule_view_json))),
        ]);
        let json =
            serde_json::to_string_pretty(&json).map_err(|e| CliError::Other(e.to_string()))?;
        std::fs::write(json_path, json)
            .map_err(|e| CliError::io(format!("write {json_path}"), e))?;
        println!("wrote JSON to {json_path}");
    }
    emit_obs(flags)
}

/// JSON projection of a ranked rule, mirroring `RuleView`'s fields. The
/// nested `scores` object uses the same schema as the server's JSON API.
fn rule_view_json(view: &maras::core::pipeline::RuleView) -> serde_json::Value {
    serde_json::Value::obj([
        ("rank", serde_json::Value::from(view.rank)),
        ("drugs", serde_json::Value::from(view.drugs.clone())),
        ("adrs", serde_json::Value::from(view.adrs.clone())),
        ("score", serde_json::Value::from(view.score)),
        ("support", serde_json::Value::from(view.support)),
        ("confidence", serde_json::Value::from(view.confidence)),
        ("lift", serde_json::Value::from(view.lift)),
        ("scores", maras::serve::scores_json(&view.scores)),
    ])
}

/// Fault-tolerant run over a year of quarters: failed quarters are
/// reported and skipped instead of aborting the whole run.
fn cmd_year(flags: &Flags) -> Result<(), CliError> {
    let dir = PathBuf::from(flag(flags, "dir")?);
    let year: u16 = flag_num(flags, "year", 2014)?;
    let top: usize = flag_num(flags, "top", 10)?;
    let opts = ingest_options(flags)?;
    let pipeline = Pipeline::new(pipeline_config(flags)?);
    let (dv, av) = load_vocabs(&dir)?;
    let ids: Vec<QuarterId> = (1..=4).map(|q| QuarterId::new(year, q)).collect();
    let run = run_quarters_dir(&pipeline, &dir, &ids, &opts, &dv, &av);

    let mut quarters_json = Vec::new();
    for qr in &run.runs {
        match &qr.outcome {
            QuarterOutcome::Ok { result, .. } => {
                println!(
                    "{}: ok - {} reports, {} MCACs",
                    qr.id, result.cleaning.input_reports, result.counts.mcacs
                );
            }
            QuarterOutcome::Degraded { result, report, .. } => {
                println!(
                    "{}: degraded - {} of {} rows quarantined, {} MCACs from surviving reports",
                    qr.id,
                    report.quarantined(),
                    report.rows_read(),
                    result.counts.mcacs
                );
                print_ingest(report);
            }
            QuarterOutcome::Failed { error } => {
                println!("{}: failed - {error}", qr.id);
            }
        }
        quarters_json.push(serde_json::Value::obj([
            ("quarter", serde_json::Value::from(qr.id.to_string())),
            ("status", serde_json::Value::from(qr.status())),
            ("ingest", qr.ingest_report().map_or(serde_json::Value::Null, ingest_report_json)),
            (
                "ingest_metrics",
                qr.ingest_metrics().map_or(serde_json::Value::Null, ingest_metrics_json),
            ),
            (
                "cleaning",
                qr.result().map_or(serde_json::Value::Null, |r| cleaning_stats_json(&r.cleaning)),
            ),
            (
                "error",
                qr.error()
                    .map_or(serde_json::Value::Null, |e| serde_json::Value::from(e.to_string())),
            ),
        ]));
    }
    println!(
        "{} ok, {} degraded, {} failed of {} quarters",
        run.ok_count(),
        run.degraded_count(),
        run.failed_count(),
        run.runs.len()
    );

    // Cross-quarter signals, decoded through any analyzed quarter (the
    // item space depends only on the shared vocabularies).
    let trends = run.tracker.trends();
    if let Some((_, result)) = run.analyzed().next() {
        println!("top signals across the year:");
        for t in trends.iter().take(top) {
            let drugs = result.encoded.names(&t.drugs, &dv, &av);
            let adrs = result.encoded.names(&t.adrs, &dv, &av);
            let marker = if t.is_persistent() {
                " [persistent]"
            } else if t.is_emerging() {
                " [emerging]"
            } else {
                ""
            };
            println!(
                "  [{}] => [{}] in {}/{} quarters, mean score {:.4}{}",
                drugs.join(" + "),
                adrs.join(", "),
                t.quarters_present(),
                t.points.len(),
                t.mean_score(),
                marker
            );
        }
    }

    if let Some(json_path) = flags.get("json") {
        let json = serde_json::Value::obj([
            ("year", serde_json::Value::from(year)),
            ("quarters", serde_json::Value::arr(quarters_json)),
            ("signals_tracked", serde_json::Value::from(trends.len())),
        ]);
        let json =
            serde_json::to_string_pretty(&json).map_err(|e| CliError::Other(e.to_string()))?;
        std::fs::write(json_path, json)
            .map_err(|e| CliError::io(format!("write {json_path}"), e))?;
        println!("wrote JSON to {json_path}");
    }
    emit_obs(flags)
}

fn cmd_render(flags: &Flags) -> Result<(), CliError> {
    let dir = PathBuf::from(flag(flags, "dir")?);
    let id = parse_quarter(flag(flags, "quarter")?)?;
    let out = PathBuf::from(flags.get("out").cloned().unwrap_or_else(|| "figures".into()));
    let top: usize = flag_num(flags, "top", 15)?;
    let (pipeline, ingested, dv, av) = load(flags, &dir, id)?;
    if !ingested.report.is_clean() {
        print_ingest(&ingested.report);
    }
    let result = pipeline.run(ingested.data, &dv, &av);
    if result.ranked.is_empty() {
        return Err(CliError::Other("no clusters mined".into()));
    }
    let namer = |rule: &DrugAdrRule| -> String {
        let drugs = result.encoded.names(&rule.drugs, &dv, &av);
        let adrs = result.encoded.names(&rule.adrs, &dv, &av);
        format!("{} => {}", drugs.join("+"), adrs.join(","))
    };
    std::fs::create_dir_all(&out)
        .map_err(|e| CliError::io(format!("mkdir {}", out.display()), e))?;
    let theme: Theme = if flags.contains_key("dark") { DARK } else { LIGHT };
    let n = result.ranked.len().min(top);
    panorama_svg(
        &result.ranked[..n],
        &PanoramaConfig { theme, ..Default::default() },
        Some(&namer),
    )
    .save(&out.join("panoramagram.svg"))
    .map_err(|e| CliError::Other(e.to_string()))?;
    glyph_svg(
        &result.ranked[0].cluster,
        &GlyphConfig { theme, ..GlyphConfig::zoomed() },
        Some(&namer),
    )
    .save(&out.join("top_glyph.svg"))
    .map_err(|e| CliError::Other(e.to_string()))?;
    println!("wrote panoramagram.svg and top_glyph.svg to {}", out.display());
    Ok(())
}

fn cmd_report(flags: &Flags) -> Result<(), CliError> {
    let dir = PathBuf::from(flag(flags, "dir")?);
    let id = parse_quarter(flag(flags, "quarter")?)?;
    let out = PathBuf::from(flags.get("out").cloned().unwrap_or_else(|| "report.html".into()));
    let top: usize = flag_num(flags, "top", 25)?;
    let (pipeline, ingested, dv, av) = load(flags, &dir, id)?;
    print_ingest(&ingested.report);
    let result = pipeline.run(ingested.data, &dv, &av);
    let kb = KnowledgeBase::literature_validated();
    let cfg = maras::report::ReportConfig {
        top_n: top,
        title: format!("MARAS report - {id}"),
        ..Default::default()
    };
    let html = maras::report::html_report(&result, &dv, &av, &kb, &cfg);
    std::fs::write(&out, html).map_err(|e| CliError::io(format!("write {}", out.display()), e))?;
    println!("wrote {} ({} signals)", out.display(), result.ranked.len().min(top));
    emit_obs(flags)
}

/// Runs the pipeline over one quarter and writes the indexed,
/// checksummed binary snapshot `maras serve` loads.
fn cmd_snapshot(flags: &Flags) -> Result<(), CliError> {
    let dir = PathBuf::from(flag(flags, "dir")?);
    let id = parse_quarter(flag(flags, "quarter")?)?;
    let out = PathBuf::from(flag(flags, "out")?);
    let (pipeline, ingested, dv, av) = load(flags, &dir, id)?;
    print_ingest(&ingested.report);
    let result = pipeline.run(ingested.data, &dv, &av);
    let kb = KnowledgeBase::literature_validated();
    let snap = Snapshot::build(id.to_string(), &result, &dv, &av, Some(&kb));
    maras::serve::save(&snap, &out).map_err(CliError::Snapshot)?;
    println!(
        "wrote {} (format v{}, {} clusters from {} reports)",
        out.display(),
        maras::serve::FORMAT_VERSION,
        snap.len(),
        snap.n_reports
    );
    // `--evidence` writes the drill-down archive from the same analysis
    // run, so snapshot + archive always describe the same quarter.
    let mut evidence_json = serde_json::Value::Null;
    if let Some(evid_path) = flags.get("evidence") {
        let summary =
            build_archive(&result, &dv, &av, Path::new(evid_path), BuildConfig::default())
                .map_err(CliError::Evidence)?;
        println!(
            "wrote {evid_path} (evidence v{}, {} reports in {} blocks, {} bytes)",
            maras::evidence::FORMAT_VERSION,
            summary.n_records,
            summary.n_blocks,
            summary.file_bytes
        );
        evidence_json = archive_summary_json(&summary, Path::new(evid_path));
    }
    if let Some(json_path) = flags.get("json") {
        let mut json = snapshot_summary_json(&snap, &out);
        if let serde_json::Value::Object(map) = &mut json {
            map.insert("evidence".into(), evidence_json);
        }
        write_json(json_path, json)?;
        println!("wrote JSON to {json_path}");
    }
    emit_obs(flags)
}

/// JSON projection of an [`maras::evidence::ArchiveSummary`].
fn archive_summary_json(
    summary: &maras::evidence::ArchiveSummary,
    path: &Path,
) -> serde_json::Value {
    serde_json::Value::obj([
        ("path", serde_json::Value::from(path.display().to_string())),
        ("format_version", serde_json::Value::from(maras::evidence::FORMAT_VERSION)),
        ("records", serde_json::Value::from(summary.n_records)),
        ("blocks", serde_json::Value::from(summary.n_blocks)),
        ("symbols", serde_json::Value::from(summary.n_symbols)),
        ("drug_keys", serde_json::Value::from(summary.n_drug_keys)),
        ("adr_keys", serde_json::Value::from(summary.n_adr_keys)),
        ("file_bytes", serde_json::Value::from(summary.file_bytes)),
        ("data_bytes", serde_json::Value::from(summary.data_bytes)),
    ])
}

/// `maras evidence build`: run the pipeline over one quarter and write
/// the on-disk case archive the drill-down endpoints page out of.
fn cmd_evidence_build(flags: &Flags) -> Result<(), CliError> {
    let dir = PathBuf::from(flag(flags, "dir")?);
    let id = parse_quarter(flag(flags, "quarter")?)?;
    let out = PathBuf::from(flag(flags, "out")?);
    let block_size: u32 = flag_num(flags, "block-size", BuildConfig::default().block_size)?;
    if block_size == 0 {
        return Err(CliError::usage("--block-size must be >= 1"));
    }
    let (pipeline, ingested, dv, av) = load(flags, &dir, id)?;
    print_ingest(&ingested.report);
    let result = pipeline.run(ingested.data, &dv, &av);
    let summary = build_archive(&result, &dv, &av, &out, BuildConfig { block_size })
        .map_err(CliError::Evidence)?;
    println!(
        "wrote {} (evidence v{}, {} reports in {} blocks of {block_size}, {} bytes; {} drug keys, {} adr keys)",
        out.display(),
        maras::evidence::FORMAT_VERSION,
        summary.n_records,
        summary.n_blocks,
        summary.file_bytes,
        summary.n_drug_keys,
        summary.n_adr_keys,
    );
    if let Some(json_path) = flags.get("json") {
        write_json(json_path, archive_summary_json(&summary, &out))?;
        println!("wrote JSON to {json_path}");
    }
    emit_obs(flags)
}

/// `maras evidence check`: re-read every block against its checksum.
fn cmd_evidence_check(flags: &Flags) -> Result<(), CliError> {
    let path = PathBuf::from(flag(flags, "archive")?);
    let report = check_archive(&path).map_err(CliError::Evidence)?;
    println!(
        "{} ok: {} ({} reports in {} blocks, {} symbols, {} drug keys, {} adr keys)",
        path.display(),
        report.quarter,
        report.n_records,
        report.n_blocks,
        report.n_symbols,
        report.n_drug_keys,
        report.n_adr_keys,
    );
    if let Some(json_path) = flags.get("json") {
        let json = serde_json::Value::obj([
            ("path", serde_json::Value::from(path.display().to_string())),
            ("quarter", serde_json::Value::from(report.quarter.clone())),
            ("records", serde_json::Value::from(report.n_records)),
            ("blocks", serde_json::Value::from(report.n_blocks)),
            ("symbols", serde_json::Value::from(report.n_symbols)),
            ("drug_keys", serde_json::Value::from(report.n_drug_keys)),
            ("adr_keys", serde_json::Value::from(report.n_adr_keys)),
            ("ok", serde_json::Value::from(true)),
        ]);
        write_json(json_path, json)?;
        println!("wrote JSON to {json_path}");
    }
    Ok(())
}

/// Serves a snapshot over HTTP; `--check` just validates it and exits.
fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let path = PathBuf::from(flag(flags, "snapshot")?);
    let snap = match maras::serve::load(&path) {
        Ok(s) => s,
        Err(e) => {
            // `--json` gets the same structured error envelope the HTTP
            // API uses, so supervisors can diagnose a refused snapshot
            // without scraping stderr.
            if let Some(json_path) = flags.get("json") {
                let json = serde_json::Value::obj([(
                    "error",
                    serde_json::Value::obj([
                        ("code", serde_json::Value::from("snapshot")),
                        ("message", serde_json::Value::from(e.to_string())),
                        ("path", serde_json::Value::from(path.display().to_string())),
                    ]),
                )]);
                write_json(json_path, json)?;
            }
            return Err(CliError::Snapshot(e));
        }
    };
    println!(
        "loaded {}: {} ({} clusters from {} reports)",
        path.display(),
        snap.quarter,
        snap.len(),
        snap.n_reports
    );
    // `--evidence` opens the drill-down archive alongside the snapshot;
    // a refused archive fails startup the same way a refused snapshot
    // does, instead of silently serving without drill-down.
    let evidence_path = flags.get("evidence").map(PathBuf::from);
    let evidence = match &evidence_path {
        None => None,
        Some(p) => {
            let reader = EvidenceReader::open(p).map_err(CliError::Evidence)?;
            if reader.quarter() != snap.quarter {
                return Err(CliError::Other(format!(
                    "evidence archive covers {} but snapshot covers {}",
                    reader.quarter(),
                    snap.quarter
                )));
            }
            println!(
                "loaded {}: evidence for {} ({} reports)",
                p.display(),
                reader.quarter(),
                reader.n_records()
            );
            Some(std::sync::Arc::new(reader))
        }
    };
    if let Some(json_path) = flags.get("json") {
        write_json(json_path, snapshot_summary_json(&snap, &path))?;
        println!("wrote JSON to {json_path}");
    }
    if flags.contains_key("check") {
        return Ok(());
    }
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:8645");
    let threads: usize = flag_num(flags, "threads", 4)?;
    let cache: usize = flag_num(flags, "cache", 1024)?;
    let slow_ms: u64 = flag_num(flags, "slow-ms", maras::serve::DEFAULT_SLOW_THRESHOLD_US / 1_000)?;
    let queue_depth: usize = flag_num(flags, "queue-depth", 128)?;
    let io_timeout_ms: u64 = flag_num(flags, "io-timeout-ms", 5_000)?;
    let drain_ms: u64 = flag_num(flags, "drain-ms", 5_000)?;
    let mut state = ServeState::new(snap, Some(path), cache);
    if let Some(reader) = evidence {
        state = state.with_evidence(reader, evidence_path);
    }
    let state = std::sync::Arc::new(state);
    state.set_slow_threshold_us(slow_ms.saturating_mul(1_000));
    let config = maras::serve::ServeConfig {
        n_threads: threads,
        queue_depth,
        io_timeout: (io_timeout_ms > 0).then(|| std::time::Duration::from_millis(io_timeout_ms)),
        drain: std::time::Duration::from_millis(drain_ms),
        debug_endpoints: !flags.contains_key("no-debug"),
    };
    let server = maras::serve::serve_with(state, addr, config)
        .map_err(|e| CliError::io(format!("bind {addr}"), e))?;
    println!(
        "serving on http://{} ({threads} threads, queue {queue_depth}, io timeout {io_timeout_ms} ms; POST /reload to hot-swap)",
        server.addr()
    );
    // Serve until killed; workers run on their own threads.
    loop {
        std::thread::park();
    }
}

fn snapshot_summary_json(snap: &Snapshot, path: &Path) -> serde_json::Value {
    serde_json::Value::obj([
        ("path", serde_json::Value::from(path.display().to_string())),
        ("format_version", serde_json::Value::from(maras::serve::FORMAT_VERSION)),
        ("quarter", serde_json::Value::from(snap.quarter.clone())),
        ("clusters", serde_json::Value::from(snap.len())),
        ("reports", serde_json::Value::from(snap.n_reports)),
    ])
}

fn write_json(path: &str, json: serde_json::Value) -> Result<(), CliError> {
    let text = serde_json::to_string_pretty(&json).map_err(|e| CliError::Other(e.to_string()))?;
    std::fs::write(path, text).map_err(|e| CliError::io(format!("write {path}"), e))
}

fn cmd_study(flags: &Flags) -> Result<(), CliError> {
    let n: usize = flag_num(flags, "participants", 50)?;
    let seed: u64 = flag_num(flags, "seed", 2016)?;
    let battery = appendix_a_battery(seed);
    let results =
        run_study(&battery, &StudyConfig { n_participants: n, seed, ..Default::default() });
    println!("{:<16} {:>18} {:>10}", "drugs", "contextual glyph", "barchart");
    for (count, label) in [(2usize, "two"), (3, "three"), (4, "four")] {
        println!(
            "{:<16} {:>17.0}% {:>9.0}%",
            label,
            results.percent_correct(count, Encoding::ContextualGlyph),
            results.percent_correct(count, Encoding::BarChart)
        );
    }
    Ok(())
}

fn cmd_demo() -> Result<(), CliError> {
    let mut synth = Synthesizer::new(SynthConfig::default());
    let quarter = synth.generate_quarter(QuarterId::new(2014, 1));
    let result = Pipeline::new(PipelineConfig::default().with_min_support(8)).run(
        quarter,
        synth.drug_vocab(),
        synth.adr_vocab(),
    );
    println!("top 5 drug-drug-interaction signals:");
    for view in result.views(5, synth.drug_vocab(), synth.adr_vocab()) {
        println!("  {view}");
    }
    if let Some(top) = result.ranked.first() {
        let n = supporting_reports(&result, &top.cluster.target).len();
        println!("\n#1 is supported by {n} raw case reports (drill down via `analyze --json`)");
    }
    Ok(())
}
