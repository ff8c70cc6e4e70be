//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <year_ingest|quarter_signals|serve_session>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --maras <path to the maras binary> --work <scratch dir>
//! ```
//!
//! Every run generates its inputs from the seed, sets the system up,
//! measures for `--seconds`, checks the outputs, and prints one JSON line
//! last: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1`
//! the per-layer ones ([`PER_LAYER`]). README.md explains the workloads
//! and what each metric should move.

mod batch;
mod client;
mod host;
mod inputs;
mod json;
mod ladder;
mod prom;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every untraced run prints: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("reports_per_s", "reports/s"),
    ("peak_rss_mb", "MB"),
    ("artifact_bytes_per_report", "bytes/report"),
    ("p50_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Per-layer metrics every traced run prints: name and unit. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("ascii.busy_ms", "ms"),
    ("ascii.rows_read", "count"),
    ("ascii.rows_quarantined", "count"),
    ("clean.busy_ms", "ms"),
    ("clean.memo_hit_ratio", "ratio"),
    ("clean.fuzzy_lookups", "count"),
    ("encode.busy_ms", "ms"),
    ("encode.transactions", "count"),
    ("mining.busy_ms", "ms"),
    ("mining.patterns", "count"),
    ("mining.arena_bytes", "bytes"),
    ("rules.multi_drug", "count"),
    ("mcac.busy_ms", "ms"),
    ("mcac.clusters", "count"),
    ("signals.busy_ms", "ms"),
    ("signals.rules_scored", "count"),
    ("signals.us_per_rule", "us"),
    ("snapshot.build_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.load_ms", "ms"),
    ("evidence.build_ms", "ms"),
    ("evidence.bytes", "bytes"),
    ("evidence.open_ms", "ms"),
    ("evidence.cover_calls", "count"),
    ("evidence.block_hit_ratio", "ratio"),
    ("evidence.blocks_read", "count"),
    ("evidence.block_read_us", "us"),
    ("evidence.block_decode_us", "us"),
    ("http.transport_us", "us"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("router.route_us.search", "us"),
    ("router.route_us.autocomplete", "us"),
    ("router.route_us.cluster", "us"),
    ("router.route_us.reports", "us"),
    ("router.route_us.report", "us"),
    ("cache.hit_ratio", "ratio"),
    ("obs.recording_ns", "ns"),
    ("obs.spans_dropped", "count"),
    ("host.steal_pct", "%"),
    ("host.timewait_at_start", "count"),
    ("gen.late_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.requests", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.layer_sum_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// The `maras` CLI binary (serve_session runs it).
    pub maras: PathBuf,
    /// Directory for inputs and artifacts; removed by the caller.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace,
        maras: PathBuf::from(get("maras")?),
        work: PathBuf::from(get("work")?),
    })
}

/// What a run produced: operations attempted and failed (a failed check
/// counts as a failed operation), the metrics, and diagnostic lines.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: batch passes' quarters, or HTTP requests.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Metric name → value; units come from the catalogues above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable diagnostics printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 50 {
                self.notes.push(format!("check failed: {}", what()));
            }
        }
    }

    /// Sets a metric by catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Formats a metric value with all its digits (shortest round-trip form).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(v))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One CPU for everything: this process and, by inheritance, every
    // thread and child it starts (the CLI set-up and the server). Pinned
    // before any thread starts. See host::pin.
    let cpu = host::allowed_cpus().last().copied().filter(|&c| host::pin(c));
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "year_ingest" => batch::year_ingest(&args),
        "quarter_signals" => batch::quarter_signals(&args),
        "serve_session" => serve::serve_session(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(outcome) => {
            println!("# pinned to CPU {cpu:?} with the server it started");
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", result_line(&outcome, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_catalogue_metric() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("p50_ms", 0.25);
        let line = result_line(&o, false);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let m = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["p50_ms"].get("value").and_then(|x| x.as_f64()), Some(0.25));
        let traced = serde_json::from_str(&result_line(&o, true)).unwrap();
        assert_eq!(traced.get("metrics").unwrap().as_object().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "boom".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        let v = serde_json::from_str(&result_line(&o, false)).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
    }
}
