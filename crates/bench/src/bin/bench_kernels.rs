//! Kernel benchmark: times what the repository benchmark (`perfbench/`)
//! cannot isolate from a whole pass, and guards the cost of always-on
//! observability. Four sections, each asserting what it must, written to
//! `BENCH_kernels.json`:
//!
//! * **tidset** — the hybrid array/bitmap `TidSet::intersect_count`
//!   against the scalar galloping count it replaced, in a dense regime
//!   (bitmap containers only; floor 2×) and a sparse one (array
//!   containers only; it must stay within 10% of the scalar count).
//! * **measures** — the cost per rule of each of the seven scores, and the
//!   1-thread batch engine against a full transaction scan per rule
//!   (floor 5×, with every score block equal).
//! * **guards** — always-on log recording on the cached `respond` script
//!   (budget 5% of the median or 20 µs), and span tracing on the
//!   1-thread miner (5% or 500 µs), with the spans a traced run records
//!   and the time `take_spans` takes to drain them.
//! * **threads** — each thread knob at 1 against 2 threads in alternating
//!   rounds, its output equal to 1 thread's. The ratio is reported, not
//!   asserted: a 2-vCPU host shared with other tenants cannot settle it.
//!
//! Every timing goes through `maras_bench::alternating_medians` or
//! `median_ns`. Scale via `MARAS_SCALE` (default `paper`: the 5× floor is
//! defined there).

use maras_bench::{
    alternating_medians, generate_quarter, median_ns, print_table, run_pipeline, time_ns,
    write_json, Corpus,
};
use maras_core::PipelineConfig;
use maras_faers::ascii::{read_quarter_with, IngestOptions, QuarterWriter};
use maras_faers::{clean_quarter, CleanConfig};
use maras_mcac::{build_clusters, Mcac};
use maras_mining::{mine_patterns_parallel, Item, PatternStore, TransactionDb};
use maras_obs::ObsConfig;
use maras_rules::{rule_space, ContextRule, DrugAdrRule, ItemPartition};
use maras_serve::http::Request;
use maras_serve::{respond, ServeState, Snapshot};
use maras_signals::{
    chi_square_yates, ebgm_from_table, information_component, interaction_contrast, prr, ror, rrr,
    score_rules, ContingencyTable, GammaMixturePrior, SignalScores,
};
use maras_tidset::TidSet;
use serde_json::Value;
use std::hint::black_box;

/// Minimum support — the `maras analyze` CLI default.
const MIN_SUPPORT: u64 = 6;

/// Timed reps per tidset regime and kernel.
const TIDSET_REPS: usize = 9;

/// Kernel calls per timed tidset rep, so a sub-µs kernel gets a stable
/// median.
const INNER: usize = 50;

/// Rounds of the engine against the full scan: one scan of every rule
/// takes seconds at paper scale, and the engine clears the 5× floor by
/// two orders of magnitude.
const SCAN_ROUNDS: usize = 2;

/// Timed reps per measure.
const MEASURE_REPS: usize = 7;

/// Passes of the cached request script per recording mode.
const LOG_ROUNDS: usize = 40;

/// Miner runs per tracing mode.
const SPAN_ROUNDS: usize = 21;

/// Alternating rounds per thread knob.
const THREAD_ROUNDS: usize = 15;

fn main() {
    let tidset = tidset();
    let corpus = generate_quarter(1);
    let quarter = Quarter::new(&corpus);
    let measures = measures(&quarter);
    let guards = guards(&corpus, &quarter);
    let threads = threads(&corpus, &quarter);
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    write_json(
        "BENCH_kernels.json",
        &Value::obj([
            ("available_parallelism", Value::from(parallelism)),
            ("tidset", tidset),
            ("measures", measures),
            ("guards", guards),
            ("threads", threads),
        ]),
    );
}

// --- tidset ------------------------------------------------------------

/// The scalar baseline the hybrid kernels replaced: galloping
/// sorted-slice intersection count.
fn scalar_intersect_count(a: &[u32], b: &[u32]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut n = 0u64;
    let mut lo = 0usize;
    for &x in short {
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            hi = lo.saturating_add(step).min(long.len());
            step <<= 1;
        }
        let idx = lo + long[lo..hi.min(long.len())].partition_point(|&v| v < x);
        if idx < long.len() && long[idx] == x {
            n += 1;
            lo = idx + 1;
        } else {
            lo = idx;
        }
        if lo >= long.len() {
            break;
        }
    }
    n
}

/// Sorted unique tids: `n` values drawn from `0..universe` by a
/// deterministic xorshift, so the regimes repeat exactly.
fn draw(seed: u64, n: usize, universe: u64) -> Vec<u32> {
    let mut x = seed | 1;
    let mut v: Vec<u32> = (0..n * 2)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % universe) as u32
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v.truncate(n);
    v
}

fn tidset() -> Value {
    let regimes = [
        // ~45k of 131k tids per side: every chunk holds more than 4096
        // values, so both operands are bitmap containers only.
        ("dense", draw(11, 45_000, 131_072), draw(12, 45_000, 131_072)),
        // ~3k tids spread over 10M: every chunk stays an array container.
        ("sparse", draw(21, 3_000, 10_000_000), draw(22, 3_000, 10_000_000)),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut speedups = Vec::new();
    for (name, a, b) in &regimes {
        let (sa, sb) = (TidSet::from_sorted(a), TidSet::from_sorted(b));
        let (arrays, bitmaps) = sa.container_mix();
        match *name {
            "dense" => assert!(bitmaps > 0 && arrays == 0, "dense regime must be all bitmaps"),
            _ => assert!(arrays > 0 && bitmaps == 0, "sparse regime must be all arrays"),
        }
        let want = scalar_intersect_count(a, b);
        assert_eq!(sa.intersect_count(&sb), want, "{name}: kernels disagree");

        // Each kernel's reps run back to back, as when the floor and the
        // ceiling were set: on a shared 2-vCPU host, alternating the two
        // kernels read the sparse regime 0.1–0.15× higher.
        let scalar_ns = median_ns(TIDSET_REPS, || {
            for _ in 0..INNER {
                black_box(scalar_intersect_count(a, b));
            }
        });
        let hybrid_ns = median_ns(TIDSET_REPS, || {
            for _ in 0..INNER {
                black_box(sa.intersect_count(&sb));
            }
        });
        let (scalar_us, hybrid_us) = (us_per(scalar_ns, INNER), us_per(hybrid_ns, INNER));
        let speedup = scalar_us / hybrid_us;
        speedups.push(speedup);
        rows.push(vec![
            name.to_string(),
            format!("{}×{}", a.len(), b.len()),
            format!("{bitmaps} bitmap / {arrays} array"),
            format!("{scalar_us:.2}"),
            format!("{hybrid_us:.2}"),
            format!("{speedup:.2}×"),
        ]);
        json.push(Value::obj([
            ("regime", Value::from(*name)),
            ("len_a", Value::from(a.len())),
            ("len_b", Value::from(b.len())),
            ("intersection", Value::from(want)),
            ("scalar_p50_us", Value::from(scalar_us)),
            ("hybrid_p50_us", Value::from(hybrid_us)),
            ("speedup", Value::from(speedup)),
        ]));
    }
    print_table(&["regime", "sizes", "containers", "scalar us", "hybrid us", "speedup"], &rows);

    let [dense, sparse] = speedups[..] else { unreachable!("two regimes") };
    assert!(dense >= 2.0, "dense intersect_count must beat the scalar count ≥2× (got {dense:.2}×)");
    assert!(
        sparse >= 0.90,
        "sparse intersect_count must stay within 10% of the scalar count (got {sparse:.2}×)"
    );
    Value::obj([
        ("reps", Value::from(TIDSET_REPS)),
        ("inner_iterations", Value::from(INNER)),
        ("regimes", Value::arr(json)),
    ])
}

/// A median in ns as µs per each of `calls` calls.
fn us_per(ns: u64, calls: usize) -> f64 {
    ns as f64 / 1000.0 / calls as f64
}

// --- the mined quarter ---------------------------------------------------

/// A rule paired with its single-drug contextual rules: what `score_rules`
/// takes.
type Input<'a> = (&'a DrugAdrRule, &'a [ContextRule]);

/// One quarter's cleaned transactions, with the multi-drug clusters mined
/// from them at `MIN_SUPPORT`.
struct Quarter {
    db: TransactionDb,
    clusters: Vec<Mcac>,
}

impl Quarter {
    fn new(corpus: &Corpus) -> Quarter {
        let (cleaned, _) = clean_quarter(
            &corpus.quarters[0],
            &corpus.drug_vocab,
            &corpus.adr_vocab,
            &CleanConfig::default(),
        );
        let adr_start = corpus.drug_vocab.len() as u32;
        let db = TransactionDb::new(
            cleaned
                .iter()
                .map(|c| {
                    let adrs = c.adr_ids.iter().map(|&a| a + adr_start);
                    c.drug_ids.iter().copied().chain(adrs).map(Item).collect()
                })
                .collect(),
        );
        let targets =
            rule_space(&db, &ItemPartition { adr_start }, MIN_SUPPORT, 1).multi_drug_rules;
        let clusters = build_clusters(targets, &db);
        assert!(!clusters.is_empty(), "benchmark quarter mined no multi-drug rules");
        Quarter { db, clusters }
    }

    fn inputs(&self) -> Vec<Input<'_>> {
        self.clusters.iter().map(|c| (&c.target, c.singleton_level())).collect()
    }
}

// --- measures ------------------------------------------------------------

/// One named measure for the per-measure cost split, run on a rule and its
/// already-derived table.
type Measure<'a> = (&'a str, Box<dyn Fn(&Input, &ContingencyTable) + 'a>);

/// Sorted-slice subset containment (both sides ascending).
fn contains_all(transaction: &[Item], needle: &[Item]) -> bool {
    let mut i = 0;
    for want in needle {
        while i < transaction.len() && transaction[i] < *want {
            i += 1;
        }
        if i >= transaction.len() || transaction[i] != *want {
            return false;
        }
        i += 1;
    }
    true
}

/// The naive comparator the tid-list substrate exists to avoid: derive
/// each rule's 2×2 table by subset-testing every transaction, then fan
/// out the same measures.
fn full_scan_score(db: &TransactionDb, rule: &DrugAdrRule) -> SignalScores {
    let drugs = rule.drugs.items();
    let adrs = rule.adrs.items();
    let (mut joint, mut exposed, mut event) = (0u64, 0u64, 0u64);
    for row in db.transactions() {
        let has_drugs = contains_all(row.items(), drugs);
        let has_adrs = contains_all(row.items(), adrs);
        joint += (has_drugs && has_adrs) as u64;
        exposed += has_drugs as u64;
        event += has_adrs as u64;
    }
    let table = ContingencyTable::from_supports(joint, exposed, event, db.len() as u64)
        .expect("scanned counts are consistent");
    SignalScores::from_table(table).with_interaction(interaction_contrast(
        db,
        &rule.drugs,
        &rule.adrs,
    ))
}

fn measures(q: &Quarter) -> Value {
    let inputs = q.inputs();
    let n_rules = inputs.len();
    println!(
        "measures: {} transactions, min_support {MIN_SUPPORT} -> {n_rules} multi-drug rules",
        q.db.len()
    );
    let reference = score_rules(&inputs, 1);
    let (engine_ns, scan_ns) = alternating_medians(SCAN_ROUNDS, |engine, samples| {
        let scores: Vec<SignalScores> = time_ns(samples, || {
            if engine {
                score_rules(&inputs, 1)
            } else {
                inputs.iter().map(|&(rule, _)| full_scan_score(&q.db, rule)).collect()
            }
        });
        assert!(scores == reference, "full-scan scores differ from the engine's");
    });
    let speedup = scan_ns as f64 / engine_ns as f64;
    print_table(
        &["path", "p50 ms", "rules/s", "vs full-scan"],
        &[(scan_ns, "full-scan"), (engine_ns, "engine, 1 thread")].map(|(ns, path)| {
            vec![
                path.into(),
                format!("{:.2}", ns as f64 / 1e6),
                format!("{:.0}", n_rules as f64 / (ns as f64 / 1e9)),
                format!("{:.2}x", scan_ns as f64 / ns as f64),
            ]
        }),
    );

    // Per-measure cost split over the already-derived tables: the 2×2
    // arithmetic measures are noise; EBGM solves two posterior quantiles,
    // and the interaction contrast reads one rate per drug off the
    // singleton level.
    let tables: Vec<ContingencyTable> = inputs
        .iter()
        .map(|(r, _)| ContingencyTable::from_stats(&r.stats).expect("miner stats consistent"))
        .collect();
    let prior = GammaMixturePrior::default();
    let measures: [Measure; 7] = [
        (
            "rrr",
            Box::new(|_, t| {
                black_box(rrr(t));
            }),
        ),
        (
            "prr",
            Box::new(|_, t| {
                black_box(prr(t));
            }),
        ),
        (
            "ror",
            Box::new(|_, t| {
                black_box(ror(t));
            }),
        ),
        (
            "chi2",
            Box::new(|_, t| {
                black_box(chi_square_yates(t));
            }),
        ),
        (
            "ic",
            Box::new(|_, t| {
                black_box(information_component(t));
            }),
        ),
        (
            "ebgm",
            Box::new(move |_, t| {
                black_box(ebgm_from_table(t, &prior));
            }),
        ),
        (
            "interaction",
            Box::new(|&(rule, singles), _| {
                let s = 0.5 / rule.stats.n_transactions.max(1) as f64;
                let best = singles.iter().map(|c| c.stats(&rule.stats).confidence());
                black_box(((rule.confidence() + s) / (best.fold(0.0f64, f64::max) + s)).log2());
            }),
        ),
    ];
    let mut split_rows = Vec::new();
    let mut split_json = Vec::new();
    for (name, f) in &measures {
        let ns = median_ns(MEASURE_REPS, || {
            for (input, t) in inputs.iter().zip(&tables) {
                f(input, t);
            }
        });
        split_rows.push(vec![
            (*name).to_string(),
            format!("{:.3}", us_per(ns, n_rules)),
            format!("{:.2}", ns as f64 / 1e6),
        ]);
        split_json.push(Value::obj([
            ("measure", Value::from(*name)),
            ("p50_us_all_rules", Value::from(ns as f64 / 1000.0)),
            ("us_per_rule", Value::from(us_per(ns, n_rules))),
        ]));
    }
    print_table(&["measure", "us/rule", "p50 ms (all rules)"], &split_rows);

    assert!(
        speedup >= 5.0,
        "engine (1 thread, {engine_ns} ns) must be >= 5x the full scan ({scan_ns} ns), got {speedup:.2}x"
    );
    Value::obj([
        ("transactions", Value::from(q.db.len())),
        ("min_support", Value::from(MIN_SUPPORT)),
        ("rules", Value::from(n_rules)),
        ("reps", Value::from(SCAN_ROUNDS)),
        ("full_scan_p50_us", Value::from(scan_ns as f64 / 1000.0)),
        ("engine_1_thread_p50_us", Value::from(engine_ns as f64 / 1000.0)),
        ("speedup_vs_full_scan", Value::from(speedup)),
        ("per_measure_reps", Value::from(MEASURE_REPS)),
        ("per_measure", Value::arr(split_json)),
    ])
}

// --- guards --------------------------------------------------------------

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

/// One interactive session's worth of requests (§4.1): autocomplete
/// keystrokes, searches from broad to narrow and drill-downs, on terms
/// that occur in the snapshot.
fn request_script(snap: &Snapshot) -> Vec<Request> {
    let mut reqs = Vec::new();
    let top = &snap.clusters[0];
    let drug = top.drugs[0].as_str();
    let adr = top.adrs[0].as_str();
    for end in 1..=drug.len().min(6) {
        reqs.push(get("/autocomplete", &[("kind", "drug"), ("prefix", &drug[..end])]));
    }
    reqs.push(get("/search", &[]));
    reqs.push(get("/search", &[("drug", drug)]));
    reqs.push(get("/search", &[("drug", drug), ("min_severity", "3")]));
    reqs.push(get("/search", &[("adr", adr)]));
    reqs.push(get("/search", &[("n_drugs", "2"), ("min_severity", "4")]));
    reqs.push(get("/search", &[("drug", drug), ("unknown_only", "true")]));
    for rank in 1..=8usize.min(snap.len()) {
        reqs.push(get(&format!("/cluster/{rank}"), &[]));
    }
    reqs.push(get("/healthz", &[]));
    reqs
}

fn guards(corpus: &Corpus, q: &Quarter) -> Value {
    let result = run_pipeline(corpus, 0, PipelineConfig::default());
    let snap = Snapshot::build("2014 Q1", &result, &corpus.drug_vocab, &corpus.adr_vocab, None);
    assert!(!snap.is_empty(), "benchmark snapshot mined no clusters");
    let state = ServeState::new(snap, None, 1024);
    let script = request_script(&state.snapshot());
    Value::obj([
        ("log_overhead", log_recording_guard(&state, &script)),
        ("obs_overhead", span_tracing_guard(&q.db)),
    ])
}

/// Times each cached request with flight-recorder logging in its
/// always-on default (every routed request appends a `serve.route` event
/// to the ring) against recording disabled, alternating the two pass by
/// pass. The recording median must stay within 5% of the disabled median
/// plus a 20 µs floor, so cache-hit-speed requests do not trip on
/// scheduler noise. The warm-up round fills the response cache.
fn log_recording_guard(state: &ServeState, script: &[Request]) -> Value {
    // Start from an empty ring, so no recording pass pays for evictions.
    maras_obs::clear_log_ring();
    let (on, off) = alternating_medians(LOG_ROUNDS, |recording, samples| {
        maras_obs::set_recording(recording);
        let seen = maras_obs::log_events_seen();
        for req in script {
            let (_, status, body) = time_ns(samples, || respond(state, req));
            assert!(status == 200 || status == 404, "unexpected {status} for {req:?}");
            assert!(!body.is_empty());
        }
        assert_eq!(maras_obs::log_events_seen() > seen, recording, "recording mode not honored");
    });
    maras_obs::set_recording(true);
    let overhead_pct = (on as f64 - off as f64) / (off as f64).max(1.0) * 100.0;
    let budget = (off as f64 * 0.05).max(20_000.0);
    println!(
        "log recording, {LOG_ROUNDS} alternated passes of {} cached requests: on median {on} ns, \
         off median {off} ns ({overhead_pct:+.1}%; budget 5% or 20 us)",
        script.len()
    );
    assert!(
        on as f64 <= off as f64 + budget,
        "always-on logging blew the budget: on {on} ns vs off {off} ns"
    );
    Value::obj([
        ("p50_recording_on_ns", Value::from(on)),
        ("p50_recording_off_ns", Value::from(off)),
        ("overhead_pct", Value::from(overhead_pct)),
    ])
}

/// Times the 1-thread miner with span tracing on (draining the collector
/// each run, as a `--trace` run would) against `ObsConfig::disabled()`,
/// alternating the two run by run. The traced median must stay within 5%
/// of the untraced one plus a 500 µs floor. One thread is the count
/// perfbench pins; at more threads the guard timed the scheduler, not the
/// spans. Also records what a traced run pays for inside the timed
/// region: the spans it records, and the `take_spans` call that drains
/// them.
fn span_tracing_guard(db: &TransactionDb) -> Value {
    let n_patterns = mine_patterns_parallel(db, MIN_SUPPORT, 1).len();
    assert!(n_patterns > 0, "benchmark quarter mined no patterns");
    let mut spans_per_run = None;
    let mut take_ns = Vec::new();
    let (on, off) = alternating_medians(SPAN_ROUNDS, |tracing, samples| {
        let cfg = if tracing { ObsConfig::enabled() } else { ObsConfig::disabled() };
        maras_obs::init(&cfg);
        maras_obs::take_spans(); // start each run from an empty collector
        let mut take = Vec::new();
        let (store, spans) = time_ns(samples, || {
            let store = mine_patterns_parallel(db, MIN_SUPPORT, 1);
            (store, time_ns(&mut take, maras_obs::take_spans))
        });
        assert_eq!(store.len(), n_patterns);
        assert_eq!(spans.is_empty(), !tracing, "tracing mode not honored");
        if tracing {
            assert_eq!(*spans_per_run.get_or_insert(spans.len()), spans.len());
            take_ns.extend(take);
        }
    });
    maras_obs::init(&ObsConfig::enabled());
    let spans_per_run = spans_per_run.expect("a traced run");
    take_ns.remove(0); // the warm-up round's, as `alternating_medians` drops it
    take_ns.sort_unstable();
    let take_spans_ns = take_ns[take_ns.len() / 2];
    let overhead_pct = (on as f64 - off as f64) / off as f64 * 100.0;
    let budget = (off as f64 * 0.05).max(500_000.0);
    println!(
        "span tracing, {SPAN_ROUNDS} alternated 1-thread mining runs ({n_patterns} patterns): \
         on median {:.0} us, off median {:.0} us ({overhead_pct:+.1}%; budget 5% or 500 us); \
         {spans_per_run} spans per traced run, take_spans median {take_spans_ns} ns",
        on as f64 / 1000.0,
        off as f64 / 1000.0,
    );
    assert!(
        on as f64 <= off as f64 + budget,
        "span tracing overhead blew the budget: on {on} ns vs off {off} ns"
    );
    Value::obj([
        ("threads", Value::from(1u64)),
        ("p50_tracing_on_us", Value::from(on as f64 / 1000.0)),
        ("p50_tracing_off_us", Value::from(off as f64 / 1000.0)),
        ("overhead_pct", Value::from(overhead_pct)),
        ("spans_per_traced_run", Value::from(spans_per_run)),
        ("p50_take_spans_ns", Value::from(take_spans_ns)),
    ])
}

// --- threads -------------------------------------------------------------

/// Times `run` at 1 and 2 threads in alternating rounds, holding every
/// output to `same_as_1_thread`, and returns its table row and JSON.
fn thread_knob<T>(
    knob: &str,
    mut run: impl FnMut(usize) -> T,
    same_as_1_thread: impl Fn(&T) -> bool,
) -> (Vec<String>, Value) {
    let (one, two) = alternating_medians(THREAD_ROUNDS, |one_thread, samples| {
        let threads = if one_thread { 1 } else { 2 };
        let out = time_ns(samples, || run(threads));
        assert!(same_as_1_thread(&out), "{knob}: {threads} threads changed the output");
    });
    let ratio = one as f64 / two as f64;
    let row = vec![
        knob.to_string(),
        format!("{:.2}", one as f64 / 1e6),
        format!("{:.2}", two as f64 / 1e6),
        format!("{ratio:.2}x"),
    ];
    let json = Value::obj([
        ("knob", Value::from(knob)),
        ("rounds", Value::from(THREAD_ROUNDS)),
        ("p50_1_thread_us", Value::from(one as f64 / 1000.0)),
        ("p50_2_threads_us", Value::from(two as f64 / 1000.0)),
        ("speedup_2_vs_1", Value::from(ratio)),
    ]);
    (row, json)
}

fn threads(corpus: &Corpus, q: &Quarter) -> Value {
    // Serialize once: the ingest knob times the read side only.
    let quarter = &corpus.quarters[0];
    let mut files = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    QuarterWriter::write_demo(&mut files[0], &quarter.reports).expect("write DEMO");
    QuarterWriter::write_drug(&mut files[1], &quarter.reports).expect("write DRUG");
    QuarterWriter::write_reac(&mut files[2], &quarter.reports).expect("write REAC");
    QuarterWriter::write_outc(&mut files[3], &quarter.reports).expect("write OUTC");
    let [demo, drug, reac, outc] = &files;
    let read = |threads: usize| {
        let opts = IngestOptions::strict().with_threads(threads);
        read_quarter_with(quarter.id, &demo[..], &drug[..], &reac[..], &outc[..], &opts)
            .expect("benchmark quarter must ingest cleanly")
    };
    let read_1 = read(1);
    // The miner's record order is unspecified; compare the sorted stores.
    let sorted = |mut store: PatternStore| {
        store.sort_by_items();
        store
    };
    let mined_1 = sorted(mine_patterns_parallel(&q.db, MIN_SUPPORT, 1));
    let inputs = q.inputs();
    let scores_1 = score_rules(&inputs, 1);

    let (rows, json): (Vec<_>, Vec<_>) = [
        thread_knob("IngestOptions::with_threads", read, |out| *out == read_1),
        thread_knob(
            "mine_patterns_parallel",
            |threads| mine_patterns_parallel(&q.db, MIN_SUPPORT, threads),
            |store| sorted(store.clone()).iter().eq(mined_1.iter()),
        ),
        thread_knob("score_rules", |threads| score_rules(&inputs, threads), |s| *s == scores_1),
    ]
    .into_iter()
    .unzip();
    println!(
        "threads: {THREAD_ROUNDS} alternated rounds per knob, {} reports, {} rules",
        quarter.reports.len(),
        inputs.len()
    );
    print_table(&["knob", "1 thread ms", "2 threads ms", "2 vs 1"], &rows);
    Value::arr(json)
}
