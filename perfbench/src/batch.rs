//! The batch workloads.
//!
//! * `year_ingest` — the `maras year` shape: a lenient run over a faulty
//!   paper-scale year through `core::run_quarters_dir`.
//! * `quarter_signals` — the `maras snapshot --evidence` shape: one clean
//!   quarter read strictly, mined at min_support 6, ranked, and written as
//!   a snapshot and an evidence archive.
//!
//! The untraced run times whole passes. The traced run alternates an
//! untraced pass with a traced one that calls each layer's public entry
//! point inside a span opened here, checks that both produce the same
//! result, and splits the traced pass's wall time across the layers.

use crate::inputs::{self, Artifacts, QuarterInputs, YearInputs};
use crate::prom::Scrape;
use crate::{host, stats, Args, Outcome};
use maras::core::{
    encode_reports, run_quarters_dir, AnalysisResult, KnowledgeBase, MultiQuarterRun, Pipeline,
    PipelineConfig, QuarterOutcome, TrendTracker,
};
use maras::evidence::{build_archive, check_archive, BuildConfig, EvidenceReader};
use maras::faers::ascii::{read_quarter_dir_with, ErrorBudget, IngestOptions, IngestReport};
use maras::faers::{Cleaner, QuarterData, QuarterId, Vocabulary};
use maras::mcac::rank_clusters_with;
use maras::obs::{span, take_spans, SpanRecord};
use maras::rules::rule_space;
use maras::serve::Snapshot;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions before the first pass. One more follows every timed
/// pass, so `setup_s`, the median of them all, samples the whole run rather
/// than the host's speed in its first 100 ms.
const SETUP_REPS: usize = 5;
/// Fewest timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Stop starting passes past this much wall time, so a run ends well
/// inside its 180 s limit even on a slow host.
const WALL_CAP: Duration = Duration::from_secs(120);

/// One set-up: reading both vocabulary files and building their spell
/// indexes. Returns its wall seconds and the vocabularies.
fn setup_once(dir: &Path) -> Result<(f64, (Vocabulary, Vocabulary)), String> {
    let t = Instant::now();
    let vocabs = inputs::read_vocabs(dir).map_err(|e| format!("read vocabularies: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), vocabs))
}

/// [`SETUP_REPS`] set-ups: their wall seconds and the last vocabularies.
fn setup(dir: &Path) -> Result<(Vec<f64>, Vocabulary, Vocabulary), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut vocabs = None;
    for _ in 0..SETUP_REPS {
        let (secs, v) = setup_once(dir)?;
        times.push(secs);
        vocabs = Some(v);
    }
    let (dv, av) = vocabs.expect("at least one set-up repetition");
    Ok((times, dv, av))
}

/// One quarter of a pass, as the checks and the fingerprint see it.
struct QuarterView<'a> {
    id: QuarterId,
    degraded: bool,
    report: Option<&'a IngestReport>,
    result: Option<&'a AnalysisResult>,
}

fn views(run: &MultiQuarterRun) -> Vec<QuarterView<'_>> {
    run.runs
        .iter()
        .map(|qr| QuarterView {
            id: qr.id,
            degraded: matches!(qr.outcome, QuarterOutcome::Degraded { .. }),
            report: qr.ingest_report(),
            result: qr.result(),
        })
        .collect()
}

/// Hash of what a pass computed: row accounting, rule-space counts, and
/// every ranked target with its full score block (Debug formatting of an
/// `f64` round-trips, so equal text means equal bits).
fn fingerprint(views: &[QuarterView<'_>]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in views {
        v.id.to_string().hash(&mut h);
        if let Some(report) = v.report {
            (report.rows_read(), report.quarantined()).hash(&mut h);
        }
        if let Some(r) = v.result {
            format!("{:?}", r.counts).hash(&mut h);
            (r.cleaned.len(), r.encoded.db.len()).hash(&mut h);
            for m in &r.ranked {
                let t = &m.cluster.target;
                t.drugs.iter().map(|i| i.0).collect::<Vec<u32>>().hash(&mut h);
                t.adrs.iter().map(|i| i.0).collect::<Vec<u32>>().hash(&mut h);
                m.score.to_bits().hash(&mut h);
                format!("{:?}", m.scores).hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Per-layer wall time of one traced pass, ms, keyed by the span names
/// opened in this file, plus `signals` (recorded by the score engine
/// inside `rank_clusters_with`).
fn layer_ms(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let ms = s.dur_ns as f64 / 1e6;
        if s.depth() == 1 && s.path.starts_with("bench.") {
            *out.entry(s.path.trim_start_matches("bench.").to_string()).or_default() += ms;
        } else if s.path.starts_with("bench.mcac/") && s.name() == "signals" && s.depth() == 3 {
            *out.entry("signals".to_string()).or_default() += ms;
        }
    }
    out
}

fn registry_scrape() -> Scrape {
    Scrape::parse(&maras::obs::registry().render_prometheus())
}

/// What the traced passes of a run measured.
#[derive(Default)]
struct Traced {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    layer_sum_pct: Vec<f64>,
    layers: BTreeMap<String, Vec<f64>>,
    /// Transactions encoded per traced pass.
    transactions: Vec<f64>,
    /// Registry deltas summed over the traced passes.
    counters: Scrape,
}

impl Traced {
    fn record_layers(&mut self, wall_s: f64, spans: &[SpanRecord]) {
        let layers = layer_ms(spans);
        let covered: f64 = layers.iter().filter(|(k, _)| *k != "signals").map(|(_, v)| v).sum();
        self.layer_sum_pct.push(100.0 * covered / (wall_s * 1e3));
        for (k, v) in layers {
            self.layers.entry(k).or_default().push(v);
        }
    }

    fn add_counters(&mut self, before: &Scrape, after: &Scrape) {
        let d = Scrape::delta(before, after);
        for (k, v) in d.0 {
            *self.counters.0.entry(k).or_default() += v;
        }
    }

    fn layer(&self, name: &str) -> f64 {
        self.layers.get(name).and_then(|v| stats::median(v)).unwrap_or(0.0)
    }

    /// A registry counter's delta per traced pass.
    fn per_pass(&self, series: &str) -> f64 {
        self.counters.get(series) / self.traced_s.len().max(1) as f64
    }

    /// Sets the metrics every batch trace shares and checks the trace
    /// against the acceptance rules: layer times within 5% of wall time.
    fn finish(&self, out: &mut Outcome) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        out.set("ascii.busy_ms", self.layer("ascii"));
        out.set(
            "ascii.rows_read",
            self.per_pass("maras_ingest_rows_ok_total")
                + self.per_pass("maras_ingest_rows_quarantined_total"),
        );
        out.set("ascii.rows_quarantined", self.per_pass("maras_ingest_rows_quarantined_total"));
        out.set("clean.busy_ms", self.layer("clean"));
        let hits = self.per_pass("maras_clean_cache_hits_total");
        let misses = self.per_pass("maras_clean_cache_misses_total");
        out.set("clean.memo_hit_ratio", ratio(hits, hits + misses));
        out.set("clean.fuzzy_lookups", misses);
        out.set("encode.busy_ms", self.layer("encode"));
        out.set("encode.transactions", stats::median(&self.transactions).unwrap_or(0.0));
        out.set("mining.arena_bytes", registry_scrape().get("maras_mining_arena_bytes"));
        out.set("mining.busy_ms", self.layer("mining"));
        out.set("mining.patterns", self.per_pass("maras_mining_patterns_total"));
        out.set("rules.multi_drug", self.per_pass("maras_rules_mcac_total"));
        let signals = self.layer("signals");
        out.set("mcac.busy_ms", self.layer("mcac") - signals);
        out.set("mcac.clusters", self.per_pass("maras_mcac_clusters_total"));
        out.set("signals.busy_ms", signals);
        let scored = self.per_pass("maras_signals_rules_scored_total");
        out.set("signals.rules_scored", scored);
        out.set("signals.us_per_rule", ratio(signals * 1e3, scored));
        let traced = stats::median(&self.traced_s).unwrap_or(0.0);
        let untraced = stats::median(&self.untraced_s).unwrap_or(0.0);
        out.set("trace.wall_ms", traced * 1e3);
        out.set("trace.overhead_pct", ratio(100.0 * (traced - untraced), untraced));
        let coverage = stats::median(&self.layer_sum_pct).unwrap_or(0.0);
        out.set("trace.layer_sum_pct", coverage);
        out.check((coverage - 100.0).abs() <= 5.0, || {
            format!("traced layer times sum to {coverage:.1}% of the pass wall time, not within 5%")
        });
    }
}

/// Runs warm-up plus timed passes until `--seconds` of timed work (at
/// least [`MIN_PASSES`]), each followed by one set-up from `setup_dir`
/// timed into `setup_times`, and returns the passes' wall seconds.
fn timed_passes(
    args: &Args,
    out: &mut Outcome,
    (setup_dir, setup_times): (&Path, &mut Vec<f64>),
    mut pass: impl FnMut(&mut Outcome) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    pass(out)?; // warm-up: checked, not timed
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_PASSES
        || (times.iter().sum::<f64>() < args.seconds && started.elapsed() < WALL_CAP)
    {
        times.push(pass(out)?);
        setup_times.push(setup_once(setup_dir)?.0);
    }
    Ok(times)
}

/// Alternates untraced and traced passes until `--seconds` of work (at
/// least two of each).
fn traced_passes(
    args: &Args,
    out: &mut Outcome,
    mut untraced: impl FnMut(&mut Outcome) -> Result<(f64, u64), String>,
    mut traced: impl FnMut(&mut Outcome, &mut Traced) -> Result<u64, String>,
) -> Result<Traced, String> {
    let mut t = Traced::default();
    untraced(out)?; // warm-up
    let started = Instant::now();
    while t.traced_s.len() < 2
        || (t.untraced_s.iter().chain(&t.traced_s).sum::<f64>() < args.seconds
            && started.elapsed() < WALL_CAP)
    {
        let (secs, want) = untraced(out)?;
        t.untraced_s.push(secs);
        let got = traced(out, &mut t)?;
        out.check(got == want, || "traced pass computed a different result than untraced".into());
    }
    Ok(t)
}

fn prepare_work(args: &Args, name: &str) -> Result<PathBuf, String> {
    let dir = args.work.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

// ---------------------------------------------------------------- year

fn year_pipeline() -> (Pipeline, IngestOptions) {
    let config = PipelineConfig::default().with_min_support(200).with_n_threads(1);
    let opts = IngestOptions::lenient_with(ErrorBudget::max_frac(0.05)).with_threads(1);
    (Pipeline::new(config), opts)
}

/// Every quarter degraded (none failed), with exactly the quarantines the
/// fault injector planted.
fn check_year(out: &mut Outcome, inp: &YearInputs, views: &[QuarterView<'_>]) {
    out.check(views.len() == inp.ids.len(), || format!("{} quarters analyzed", views.len()));
    for (v, expected) in views.iter().zip(&inp.expected) {
        let got = v.report.map(IngestReport::counts_by_reason);
        out.check(v.degraded && v.result.is_some() && got.as_ref() == Some(expected), || {
            format!("{}: degraded={} quarantine {got:?}, expected {expected:?}", v.id, v.degraded)
        });
    }
}

/// Bytes of the dead-letter sink: every quarantined row verbatim, with
/// the reason text the analyst reviews.
fn dead_letter_bytes(views: &[QuarterView<'_>]) -> usize {
    views
        .iter()
        .filter_map(|v| v.report)
        .flat_map(|r| &r.quarantine)
        .map(|q| q.raw.len() + q.detail.len())
        .sum()
}

/// `Pipeline::run_with_cleaner`, one layer's public entry point per span.
fn traced_analysis(
    config: &PipelineConfig,
    cleaner: &mut Cleaner<'_>,
    data: QuarterData,
    (dv, av): (&Vocabulary, &Vocabulary),
) -> AnalysisResult {
    let threads = config.effective_threads();
    let (quarter, cleaned, cleaning) = {
        let _s = span("bench.clean");
        let q = if config.expedited_only { data.expedited_only() } else { data };
        let (cleaned, cleaning) = cleaner.clean_quarter(&q);
        (q, cleaned, cleaning)
    };
    let encoded = {
        let _s = span("bench.encode");
        encode_reports(&cleaned, dv, av)
    };
    let space = {
        let _s = span("bench.mining");
        rule_space(&encoded.db, &encoded.partition, config.min_support, threads)
    };
    let ranked = {
        let _s = span("bench.mcac");
        rank_clusters_with(space.multi_drug_rules, &encoded.db, config.ranking_method(), threads)
    };
    AnalysisResult {
        quarter,
        cleaned,
        cleaning,
        encoded,
        counts: space.counts,
        closed_patterns: space.closed,
        ranked,
    }
}

fn traced_year_pass(
    pipeline: &Pipeline,
    inp: &YearInputs,
    opts: &IngestOptions,
    (dv, av): (&Vocabulary, &Vocabulary),
    out: &mut Outcome,
    t: &mut Traced,
) -> u64 {
    let config = pipeline.config();
    take_spans();
    let before = registry_scrape();
    let started = Instant::now();
    let mut cleaner = Cleaner::new(dv, av, config.clean.clone());
    let mut tracker = TrendTracker::new();
    let mut quarters = Vec::new();
    let mut transactions = 0;
    for &id in &inp.ids {
        let ingested = {
            let _s = span("bench.ascii");
            read_quarter_dir_with(&inp.dir, id, opts)
        };
        let Ok(ingested) = ingested else {
            tracker.skip_quarter(id);
            quarters.push((id, None));
            continue;
        };
        let result = traced_analysis(config, &mut cleaner, ingested.data, (dv, av));
        transactions += result.encoded.db.len();
        {
            let _s = span("bench.trend");
            tracker.ingest(id, &result);
        }
        quarters.push((id, Some((ingested.report, result))));
    }
    let wall = started.elapsed().as_secs_f64();
    let spans = take_spans();
    t.add_counters(&before, &registry_scrape());
    t.traced_s.push(wall);
    t.transactions.push(transactions as f64);
    t.record_layers(wall, &spans);
    let views: Vec<QuarterView<'_>> = quarters
        .iter()
        .map(|(id, r)| QuarterView {
            id: *id,
            degraded: r.as_ref().is_some_and(|(rep, _)| !rep.is_clean()),
            report: r.as_ref().map(|(rep, _)| rep),
            result: r.as_ref().map(|(_, res)| res),
        })
        .collect();
    check_year(out, inp, &views);
    fingerprint(&views)
}

/// The `year_ingest` workload.
pub fn year_ingest(args: &Args) -> Result<Outcome, String> {
    let dir = prepare_work(args, "year")?;
    let inp = inputs::write_year(&dir, args.seed).map_err(|e| format!("write inputs: {e}"))?;
    host::reset_peak_rss();
    let mut out = Outcome::default();
    let (mut setup_times, dv, av) = setup(&dir)?;
    let (pipeline, opts) = year_pipeline();
    let mut dead_letter = 0usize;
    let mut untraced = |out: &mut Outcome| -> Result<(f64, u64), String> {
        take_spans();
        let t = Instant::now();
        let run = run_quarters_dir(&pipeline, &inp.dir, &inp.ids, &opts, &dv, &av);
        let secs = t.elapsed().as_secs_f64();
        let v = views(&run);
        check_year(out, &inp, &v);
        dead_letter = dead_letter_bytes(&v);
        Ok((secs, if args.trace { fingerprint(&v) } else { 0 }))
    };
    let ticks = host::CpuTicks::now();
    if args.trace {
        let traced = traced_passes(args, &mut out, &mut untraced, |out, t| {
            Ok(traced_year_pass(&pipeline, &inp, &opts, (&dv, &av), out, t))
        })?;
        traced.finish(&mut out);
        out.set("host.steal_pct", host::CpuTicks::now().steal_pct_since(&ticks));
    } else {
        let times = timed_passes(args, &mut out, (&dir, &mut setup_times), |out| {
            untraced(out).map(|(s, _)| s)
        })?;
        let median = stats::median(&times).expect("timed passes");
        // Throughput over all timed passes: the host's speed switches
        // between states for seconds at a time, and a mean over the run
        // weighs them by time where a median picks one.
        let passes_per_s = times.len() as f64 / times.iter().sum::<f64>();
        let reports = inp.demo_rows as f64;
        out.set("setup_s", stats::median(&setup_times).expect("set-ups ran"));
        out.set("reports_per_s", reports * passes_per_s);
        out.set("peak_rss_mb", host::peak_rss_mb("self"));
        out.set("artifact_bytes_per_report", dead_letter as f64 / reports);
        out.set("p50_ms", median * 1e3);
        out.set("max_rps", inp.ids.len() as f64 * passes_per_s);
        out.notes.push(format!(
            "year_ingest: {} reports in {} quarters, {} timed passes {times:.3?} s, inputs prepared in {:.2} s (not measured)",
            inp.demo_rows,
            inp.ids.len(),
            times.len(),
            inp.prepare_s
        ));
    }
    out.notes.push(format!("host.steal_pct={:.2}", host::CpuTicks::now().steal_pct_since(&ticks)));
    Ok(out)
}

// ------------------------------------------------------------- quarter

fn quarter_config() -> PipelineConfig {
    PipelineConfig::default().with_min_support(6).with_n_threads(1)
}

fn strict_one_thread() -> IngestOptions {
    IngestOptions::strict().with_threads(1)
}

/// Planted interactions mined and ranked in the top 1%; the snapshot loads
/// back; the archive passes its full check. Loads are timed for the
/// traced run's `snapshot.load_ms` / `evidence.open_ms`.
fn check_quarter(
    out: &mut Outcome,
    inp: &QuarterInputs,
    result: &AnalysisResult,
    (dv, av): (&Vocabulary, &Vocabulary),
    n_clusters: usize,
    files: &Artifacts,
    loads: Option<&mut Vec<(f64, f64)>>,
) {
    let top = (result.ranked.len() as f64 * 0.01).ceil() as usize;
    let ranks: Vec<Option<usize>> = inp
        .planted
        .iter()
        .map(|p| {
            let drugs: Vec<&str> = p.drugs.iter().map(String::as_str).collect();
            let adrs: Vec<&str> = p.adrs.iter().map(String::as_str).collect();
            result.rank_of(&drugs, &adrs, dv, av)
        })
        .collect();
    let n_records = result.cleaned.len();
    let t = Instant::now();
    let loaded = maras::serve::load(&files.snap).map(|s| s.len());
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let opened = EvidenceReader::open(&files.evid).map(|r| r.n_records());
    let open_s = t.elapsed().as_secs_f64();
    let checked = check_archive(&files.evid).map(|r| r.n_records);
    if let Some(loads) = loads {
        loads.push((load_s, open_s));
    }
    let ok = ranks.iter().all(|r| r.is_some_and(|r| r < top))
        && loaded.as_ref().ok() == Some(&n_clusters)
        && opened.as_ref().ok() == Some(&n_records)
        && checked.as_ref().ok() == Some(&n_records);
    out.check(ok, || {
        format!(
            "planted ranks {ranks:?} (top 1% = {top}), snapshot load {:?} of {n_clusters}, archive open {:?} check {:?} of {n_records}",
            loaded.map_err(|e| e.to_string()),
            opened.map_err(|e| e.to_string()),
            checked.map_err(|e| e.to_string())
        )
    });
}

fn quarter_fingerprint(result: &AnalysisResult, report: &IngestReport, id: QuarterId) -> u64 {
    fingerprint(&[QuarterView { id, degraded: false, report: Some(report), result: Some(result) }])
}

/// The `quarter_signals` workload.
pub fn quarter_signals(args: &Args) -> Result<Outcome, String> {
    let dir = prepare_work(args, "quarter")?;
    let inp = inputs::write_quarter(&dir, args.seed).map_err(|e| format!("write inputs: {e}"))?;
    host::reset_peak_rss();
    let mut out = Outcome::default();
    let (mut setup_times, dv, av) = setup(&dir)?;
    let files = Artifacts::in_dir(&dir);
    let mut bytes = (0, 0);
    let mut untraced = |out: &mut Outcome| -> Result<(f64, u64), String> {
        take_spans();
        let t = Instant::now();
        let ingested = read_quarter_dir_with(&inp.dir, inp.id, &strict_one_thread())
            .map_err(|e| format!("read quarter: {e}"))?;
        let result = Pipeline::new(quarter_config()).run(ingested.data, &dv, &av);
        let kb = KnowledgeBase::literature_validated();
        let snap = Snapshot::build(inp.id.to_string(), &result, &dv, &av, Some(&kb));
        maras::serve::save(&snap, &files.snap).map_err(|e| format!("save snapshot: {e}"))?;
        build_archive(&result, &dv, &av, &files.evid, BuildConfig::default())
            .map_err(|e| format!("build archive: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let n_clusters = snap.len();
        drop((snap, kb));
        check_quarter(out, &inp, &result, (&dv, &av), n_clusters, &files, None);
        bytes = files.bytes();
        let fp =
            if args.trace { quarter_fingerprint(&result, &ingested.report, inp.id) } else { 0 };
        Ok((secs, fp))
    };
    let ticks = host::CpuTicks::now();
    if args.trace {
        let mut loads = Vec::new();
        let mut snapshot_bytes = 0.0;
        let mut evidence_bytes = 0.0;
        let traced = traced_passes(args, &mut out, &mut untraced, |out, t| {
            take_spans();
            let before = registry_scrape();
            let started = Instant::now();
            let ingested = {
                let _s = span("bench.ascii");
                read_quarter_dir_with(&inp.dir, inp.id, &strict_one_thread())
            }
            .map_err(|e| format!("read quarter: {e}"))?;
            let config = quarter_config();
            let mut cleaner = Cleaner::new(&dv, &av, config.clean.clone());
            let result = traced_analysis(&config, &mut cleaner, ingested.data, (&dv, &av));
            let snap = {
                let _s = span("bench.snapshot_build");
                let kb = KnowledgeBase::literature_validated();
                Snapshot::build(inp.id.to_string(), &result, &dv, &av, Some(&kb))
            };
            {
                let _s = span("bench.snapshot_save");
                maras::serve::save(&snap, &files.snap)
            }
            .map_err(|e| format!("save snapshot: {e}"))?;
            {
                let _s = span("bench.evidence_build");
                build_archive(&result, &dv, &av, &files.evid, BuildConfig::default())
            }
            .map_err(|e| format!("build archive: {e}"))?;
            let wall = started.elapsed().as_secs_f64();
            let spans = take_spans();
            t.add_counters(&before, &registry_scrape());
            t.traced_s.push(wall);
            t.transactions.push(result.encoded.db.len() as f64);
            t.record_layers(wall, &spans);
            let n_clusters = snap.len();
            drop(snap);
            check_quarter(out, &inp, &result, (&dv, &av), n_clusters, &files, Some(&mut loads));
            let (s, e) = files.bytes();
            (snapshot_bytes, evidence_bytes) = (s as f64, e as f64);
            Ok(quarter_fingerprint(&result, &ingested.report, inp.id))
        })?;
        traced.finish(&mut out);
        out.set("snapshot.build_ms", traced.layer("snapshot_build"));
        out.set("snapshot.save_ms", traced.layer("snapshot_save"));
        out.set("snapshot.bytes", snapshot_bytes);
        out.set("evidence.build_ms", traced.layer("evidence_build"));
        out.set("evidence.bytes", evidence_bytes);
        let load: Vec<f64> = loads.iter().map(|l| l.0 * 1e3).collect();
        let open: Vec<f64> = loads.iter().map(|l| l.1 * 1e3).collect();
        out.set("snapshot.load_ms", stats::median(&load).unwrap_or(0.0));
        out.set("evidence.open_ms", stats::median(&open).unwrap_or(0.0));
        // The serve layers, on the artifacts this run built; this sets the
        // serve diagnostics, `host.steal_pct` among them.
        crate::serve::replay_layers(args, &files, &mut out)?;
    } else {
        let times = timed_passes(args, &mut out, (&dir, &mut setup_times), |out| {
            untraced(out).map(|(s, _)| s)
        })?;
        let median = stats::median(&times).expect("timed passes");
        // Throughput over all timed passes: the host's speed switches
        // between states for seconds at a time, and a mean over the run
        // weighs them by time where a median picks one.
        let passes_per_s = times.len() as f64 / times.iter().sum::<f64>();
        let reports = inp.demo_rows as f64;
        out.set("setup_s", stats::median(&setup_times).expect("set-ups ran"));
        out.set("reports_per_s", reports * passes_per_s);
        out.set("peak_rss_mb", host::peak_rss_mb("self"));
        out.set("artifact_bytes_per_report", (bytes.0 + bytes.1) as f64 / reports);
        out.set("p50_ms", median * 1e3);
        out.set("max_rps", passes_per_s);
        out.notes.push(format!(
            "quarter_signals: {} reports, snapshot {} B + archive {} B, {} timed passes {times:.3?} s, inputs prepared in {:.2} s (not measured)",
            inp.demo_rows,
            bytes.0,
            bytes.1,
            times.len(),
            inp.prepare_s
        ));
    }
    out.notes.push(format!("host.steal_pct={:.2}", host::CpuTicks::now().steal_pct_since(&ticks)));
    Ok(out)
}
