//! Score-engine benchmark: times the batch `score_rules` pass against the
//! two per-rule paths it replaced — the legacy `ContingencyTable::from_db`
//! tid-list intersections and a naive full transaction scan — and splits
//! the per-measure cost (EBGM's bisected quantiles dominate). Writes
//! `BENCH_signals.json` with rules/s at 1/2/4/8 threads.
//!
//! EXPERIMENTS.md's "Single-pass signal scoring" section is regenerated
//! from this binary's output. Scale via `MARAS_SCALE` as usual.

use maras_bench::{generate_quarter, percentile, print_table};
use maras_faers::{clean_quarter, CleanConfig};
use maras_mining::{Item, TransactionDb};
use maras_rules::{multi_drug_rules, DrugAdrRule, ItemPartition};
use maras_signals::{
    chi_square_yates, ebgm_from_table, information_component, interaction_contrast, prr, ror, rrr,
    score_rules, ContingencyTable, GammaMixturePrior, SignalScores,
};
use serde_json::Value;
use std::time::Instant;

/// Timed repetitions per comparator (first extra run is a discarded
/// warm-up, so caches and the allocator reach steady state).
const REPS: usize = 7;

/// Minimum support — the `maras analyze` CLI default.
const MIN_SUPPORT: u64 = 6;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One named measure for the per-measure cost split.
type Measure<'a> = (&'a str, Box<dyn Fn(&ContingencyTable) + 'a>);

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
fn full_scan_score(rows: &[Vec<Item>], db: &TransactionDb, rule: &DrugAdrRule) -> SignalScores {
    let drugs = rule.drugs.items();
    let adrs = rule.adrs.items();
    let (mut joint, mut exposed, mut event) = (0u64, 0u64, 0u64);
    for row in rows {
        let has_drugs = contains_all(row, drugs);
        let has_adrs = contains_all(row, adrs);
        joint += (has_drugs && has_adrs) as u64;
        exposed += has_drugs as u64;
        event += has_adrs as u64;
    }
    let table = ContingencyTable::from_supports(joint, exposed, event, rows.len() as u64)
        .expect("scanned counts are consistent");
    SignalScores::from_table(table).with_interaction(interaction_contrast(
        db,
        &rule.drugs,
        &rule.adrs,
    ))
}

/// The pre-engine path: three tid-list intersections per rule, then the
/// same measure fan-out.
fn legacy_score(db: &TransactionDb, rule: &DrugAdrRule) -> SignalScores {
    let table = ContingencyTable::from_db(db, &rule.drugs, &rule.adrs);
    SignalScores::from_table(table).with_interaction(interaction_contrast(
        db,
        &rule.drugs,
        &rule.adrs,
    ))
}

/// p50 wall time of `f` over REPS reps (plus one discarded warm-up).
fn time_p50(mut f: impl FnMut()) -> u64 {
    let mut lat_us: Vec<u64> = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t = Instant::now();
        f();
        if rep > 0 {
            lat_us.push(t.elapsed().as_micros() as u64);
        }
    }
    lat_us.sort_unstable();
    percentile(&lat_us, 0.50)
}

fn main() {
    let corpus = generate_quarter(1);
    let quarter = &corpus.quarters[0];
    let (cleaned, _) =
        clean_quarter(quarter, &corpus.drug_vocab, &corpus.adr_vocab, &CleanConfig::default());
    let adr_start = corpus.drug_vocab.len() as u32;
    let rows: Vec<Vec<Item>> = cleaned
        .iter()
        .map(|c| {
            let mut row: Vec<Item> = c
                .drug_ids
                .iter()
                .copied()
                .chain(c.adr_ids.iter().map(|&a| a + adr_start))
                .map(Item)
                .collect();
            row.sort_unstable();
            row
        })
        .collect();
    let db = TransactionDb::new(rows.clone());
    let partition = ItemPartition { adr_start };
    let rules = multi_drug_rules(&db, &partition, MIN_SUPPORT);
    let n_rules = rules.len();
    assert!(n_rules > 0, "benchmark quarter mined no multi-drug rules");
    println!(
        "bench_signals: {} transactions, min_support {MIN_SUPPORT} -> {n_rules} multi-drug \
         rules; {REPS} reps per comparator",
        db.len()
    );

    // Correctness first: all three comparators agree bit for bit.
    let engine_ref = score_rules(&db, &rules, 1);
    for (i, rule) in rules.iter().enumerate() {
        assert_eq!(engine_ref[i], legacy_score(&db, rule), "legacy mismatch on rule {i}");
        assert_eq!(engine_ref[i], full_scan_score(&rows, &db, rule), "scan mismatch on rule {i}");
    }

    let scan_p50 = time_p50(|| {
        for rule in &rules {
            std::hint::black_box(full_scan_score(&rows, &db, rule));
        }
    });
    let legacy_p50 = time_p50(|| {
        for rule in &rules {
            std::hint::black_box(legacy_score(&db, rule));
        }
    });

    let mut rows_out = vec![
        vec![
            "full-scan".into(),
            "-".into(),
            format!("{:.2}", scan_p50 as f64 / 1000.0),
            format!("{:.0}", n_rules as f64 / (scan_p50 as f64 / 1e6)),
            "1.00x".into(),
        ],
        vec![
            "from_db".into(),
            "-".into(),
            format!("{:.2}", legacy_p50 as f64 / 1000.0),
            format!("{:.0}", n_rules as f64 / (legacy_p50 as f64 / 1e6)),
            format!("{:.2}x", scan_p50 as f64 / legacy_p50 as f64),
        ],
    ];
    let mut per_thread = Vec::new();
    let mut engine_1t_p50 = 0;
    for &threads in &THREAD_COUNTS {
        let p50 = time_p50(|| {
            std::hint::black_box(score_rules(&db, &rules, threads));
        });
        if threads == 1 {
            engine_1t_p50 = p50;
        }
        let rules_per_sec = n_rules as f64 / (p50 as f64 / 1e6);
        rows_out.push(vec![
            "engine".into(),
            threads.to_string(),
            format!("{:.2}", p50 as f64 / 1000.0),
            format!("{rules_per_sec:.0}"),
            format!("{:.2}x", scan_p50 as f64 / p50 as f64),
        ]);
        per_thread.push(Value::obj([
            ("threads", Value::from(threads)),
            ("p50_us", Value::from(p50)),
            ("rules_per_sec", Value::from(rules_per_sec)),
            ("speedup_vs_full_scan", Value::from(scan_p50 as f64 / p50 as f64)),
            ("speedup_vs_from_db", Value::from(legacy_p50 as f64 / p50 as f64)),
        ]));
    }
    print_table(&["path", "threads", "p50 ms", "rules/s", "vs full-scan"], &rows_out);

    // The acceptance floor: the batch engine must beat the naive per-rule
    // scan by ≥5× even single-threaded.
    let speedup = scan_p50 as f64 / engine_1t_p50 as f64;
    assert!(
        speedup >= 5.0,
        "engine (1 thread, {engine_1t_p50} us) must be >= 5x the full scan ({scan_p50} us), got {speedup:.2}x"
    );

    // Per-measure cost split over the already-derived tables: where does
    // a scoring pass actually spend its time? (EBGM's 3 × 200-step
    // bisections dominate; the 2×2 arithmetic measures are noise.)
    let tables: Vec<ContingencyTable> = rules
        .iter()
        .map(|r| ContingencyTable::from_stats(&r.stats).expect("miner stats consistent"))
        .collect();
    let prior = GammaMixturePrior::default();
    let measures: [Measure; 6] = [
        (
            "rrr",
            Box::new(|t| {
                std::hint::black_box(rrr(t));
            }),
        ),
        (
            "prr",
            Box::new(|t| {
                std::hint::black_box(prr(t));
            }),
        ),
        (
            "ror",
            Box::new(|t| {
                std::hint::black_box(ror(t));
            }),
        ),
        (
            "chi2",
            Box::new(|t| {
                std::hint::black_box(chi_square_yates(t));
            }),
        ),
        (
            "ic",
            Box::new(|t| {
                std::hint::black_box(information_component(t));
            }),
        ),
        (
            "ebgm",
            Box::new(move |t| {
                std::hint::black_box(ebgm_from_table(t, &prior));
            }),
        ),
    ];
    let mut split_rows = Vec::new();
    let mut split_json = Vec::new();
    for (name, f) in &measures {
        let p50 = time_p50(|| {
            for t in &tables {
                f(t);
            }
        });
        split_rows.push(vec![
            (*name).to_string(),
            format!("{:.1}", p50 as f64 / n_rules as f64),
            format!("{:.2}", p50 as f64 / 1000.0),
        ]);
        split_json.push(Value::obj([
            ("measure", Value::from(*name)),
            ("p50_us_all_rules", Value::from(p50)),
            ("us_per_rule", Value::from(p50 as f64 / n_rules as f64)),
        ]));
    }
    print_table(&["measure", "us/rule", "p50 ms (all rules)"], &split_rows);

    let json = Value::obj([
        ("transactions", Value::from(db.len())),
        ("min_support", Value::from(MIN_SUPPORT)),
        ("rules", Value::from(n_rules)),
        ("reps", Value::from(REPS)),
        ("full_scan_p50_us", Value::from(scan_p50)),
        ("from_db_p50_us", Value::from(legacy_p50)),
        ("engine_per_thread", Value::arr(per_thread)),
        ("per_measure", Value::arr(split_json)),
    ]);
    let out = "BENCH_signals.json";
    std::fs::write(out, serde_json::to_string_pretty(&json).expect("render json"))
        .expect("write BENCH_signals.json");
    println!("wrote {out}");
}
