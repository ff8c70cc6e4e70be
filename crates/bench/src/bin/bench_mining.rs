//! Mining-layer benchmark: times the arena-backed parallel FP-Growth miner
//! at several thread counts over one synthetic quarter and writes
//! `BENCH_mining.json` with wall-time percentiles, throughput, speedup over
//! the single-threaded run, and the arena footprint (a peak-RSS proxy: the
//! pattern store is the mining output's dominant allocation).
//!
//! EXPERIMENTS.md's "Parallel mining after the arena refactor" section is
//! regenerated from this binary's output. Scale via `MARAS_SCALE` as usual.

use maras_bench::{alternating_medians, generate_quarter, percentile, print_table};
use maras_faers::{clean_quarter, CleanConfig};
use maras_mining::{mine_patterns_parallel, TransactionDb};
use maras_obs::ObsConfig;
use serde_json::Value;
use std::time::Instant;

/// Timed repetitions per thread count (first extra run is a discarded
/// warm-up, so caches and the allocator reach steady state).
const REPS: usize = 7;

/// Minimum support — the `maras analyze` CLI default.
const MIN_SUPPORT: u64 = 6;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let corpus = generate_quarter(1);
    let quarter = &corpus.quarters[0];
    let (cleaned, _) =
        clean_quarter(quarter, &corpus.drug_vocab, &corpus.adr_vocab, &CleanConfig::default());
    let adr_start = corpus.drug_vocab.len() as u32;
    let db = TransactionDb::new(
        cleaned
            .iter()
            .map(|c| {
                c.drug_ids
                    .iter()
                    .copied()
                    .chain(c.adr_ids.iter().map(|&a| a + adr_start))
                    .map(maras_mining::Item)
                    .collect()
            })
            .collect(),
    );

    let reference = mine_patterns_parallel(&db, MIN_SUPPORT, 1);
    let n_patterns = reference.len();
    let arena_bytes = reference.arena_bytes();
    assert!(n_patterns > 0, "benchmark quarter mined no patterns");
    println!(
        "bench_mining: {} transactions, min_support {MIN_SUPPORT} -> {n_patterns} patterns \
         ({arena_bytes} arena bytes); {REPS} reps per thread count",
        db.len()
    );

    let mut rows = Vec::new();
    let mut per_thread = Vec::new();
    let mut p50_by_threads = Vec::new();
    for &threads in &THREAD_COUNTS {
        // Warm-up, plus the cheap safety check that every thread count
        // produces the exact store the differential suite guarantees.
        let store = mine_patterns_parallel(&db, MIN_SUPPORT, threads);
        assert!(store.iter().eq(reference.iter()), "thread count {threads} changed the output");

        let mut lat_us: Vec<u64> = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            let store = mine_patterns_parallel(&db, MIN_SUPPORT, threads);
            lat_us.push(t.elapsed().as_micros() as u64);
            assert_eq!(store.len(), n_patterns);
        }
        lat_us.sort_unstable();
        let (min, p50, max) = (lat_us[0], percentile(&lat_us, 0.50), lat_us[lat_us.len() - 1]);
        let patterns_per_sec = n_patterns as f64 / (p50 as f64 / 1e6);
        p50_by_threads.push((threads, p50));
        let speedup = p50_by_threads[0].1 as f64 / p50 as f64;
        rows.push(vec![
            threads.to_string(),
            format!("{:.2}", p50 as f64 / 1000.0),
            format!("{:.2}", min as f64 / 1000.0),
            format!("{:.2}", max as f64 / 1000.0),
            format!("{patterns_per_sec:.0}"),
            format!("{speedup:.2}x"),
        ]);
        per_thread.push(Value::obj([
            ("threads", Value::from(threads)),
            (
                "wall_us",
                Value::obj([
                    ("min", Value::from(min)),
                    ("p50", Value::from(p50)),
                    ("max", Value::from(max)),
                ]),
            ),
            ("patterns_per_sec", Value::from(patterns_per_sec)),
            ("speedup_vs_1_thread", Value::from(speedup)),
        ]));
    }
    print_table(&["threads", "p50 ms", "min ms", "max ms", "patterns/s", "speedup"], &rows);

    let obs_overhead = measure_obs_overhead(&db, n_patterns);

    let json = Value::obj([
        ("transactions", Value::from(db.len())),
        ("min_support", Value::from(MIN_SUPPORT)),
        ("patterns", Value::from(n_patterns)),
        ("arena_bytes", Value::from(arena_bytes)),
        ("reps", Value::from(REPS)),
        ("per_thread", Value::arr(per_thread)),
        ("obs_overhead", obs_overhead),
    ]);
    let out = "BENCH_mining.json";
    std::fs::write(out, serde_json::to_string_pretty(&json).expect("render json"))
        .expect("write BENCH_mining.json");
    println!("wrote {out}");
}

/// Times the miner with span tracing on (draining the collector each rep,
/// as a `--trace` run would) against `ObsConfig::disabled()`, alternating
/// the two rep by rep, and enforces the observability budget: the
/// instrumented median must stay within 5% of the disabled median (plus a
/// 500 µs floor so micro-runs don't trip on noise).
fn measure_obs_overhead(db: &TransactionDb, n_patterns: usize) -> Value {
    let threads = 4;
    let (on, off) = alternating_medians(REPS, |tracing, samples| {
        let cfg = if tracing { ObsConfig::enabled() } else { ObsConfig::disabled() };
        maras_obs::init(&cfg);
        maras_obs::take_spans(); // start each rep from an empty collector
        let t = Instant::now();
        let store = mine_patterns_parallel(db, MIN_SUPPORT, threads);
        let spans = maras_obs::take_spans();
        samples.push(t.elapsed().as_micros() as u64);
        assert_eq!(store.len(), n_patterns);
        assert_eq!(spans.is_empty(), !tracing, "tracing mode not honored");
    });
    maras_obs::init(&ObsConfig::enabled());
    let overhead_pct = (on as f64 - off as f64) / off as f64 * 100.0;
    let budget = (off as f64 * 0.05).max(500.0);
    println!(
        "obs overhead @ {threads} threads, alternated reps: tracing on median {on} us, \
         off median {off} us \
         ({overhead_pct:+.1}%; budget 5% or 500 us)"
    );
    assert!(
        on as f64 <= off as f64 + budget,
        "span tracing overhead blew the budget: on {on} us vs off {off} us"
    );
    Value::obj([
        ("threads", Value::from(threads)),
        ("p50_tracing_on_us", Value::from(on)),
        ("p50_tracing_off_us", Value::from(off)),
        ("overhead_pct", Value::from(overhead_pct)),
    ])
}
