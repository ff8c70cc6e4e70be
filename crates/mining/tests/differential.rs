//! Fuzz-style differential proof that the arena-backed miner mines the
//! same records at every thread count, and the same as Apriori.
//!
//! For each of several synthesized quarters (seeded drug/ADR-shaped
//! transaction databases), the suite sorts the `(itemset, support)` output
//! of three paths (the parallel miner leaves its record order unspecified),
//! renders each to one byte string and asserts equality:
//!
//! 1. arena `PatternStore` FP-Growth, 1 thread;
//! 2. arena `PatternStore` FP-Growth, N threads (N ∈ {2, 3, 4, 8});
//! 3. Apriori — a genuinely independent algorithm, so the proof does not
//!    rest on shared recursion.

use maras_mining::{
    apriori, mine_patterns, mine_patterns_parallel, Item, PatternStore, TransactionDb,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;

/// Synthesizes one quarter-shaped database: `n_reports` transactions, each a
/// skewed mix of "drug" items (0..n_drugs) and "ADR" items (100..100+n_adrs).
/// Skew comes from squaring a uniform draw so low ids are hot, mimicking the
/// head-heavy drug frequency distribution cleaning produces.
fn synth_quarter(seed: u64, n_reports: usize, n_drugs: u32, n_adrs: u32) -> TransactionDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<Item>> = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        let mut row = Vec::new();
        for _ in 0..rng.gen_range(1usize..=4) {
            let u = rng.gen_range(0.0f64..1.0);
            row.push(Item((u * u * n_drugs as f64) as u32));
        }
        for _ in 0..rng.gen_range(1usize..=3) {
            let u = rng.gen_range(0.0f64..1.0);
            row.push(Item(100 + (u * u * n_adrs as f64) as u32));
        }
        rows.push(row);
    }
    TransactionDb::new(rows)
}

/// Renders a sorted pattern store to the canonical byte string.
fn render_store(store: &PatternStore) -> String {
    let mut out = String::new();
    for (items, support) in store.iter() {
        for i in items {
            write!(out, "{},", i.0).unwrap();
        }
        writeln!(out, ":{support}").unwrap();
    }
    out
}

/// Renders owned `(ItemSet, support)` pairs, sorted the same way.
fn render_owned(mut v: Vec<maras_mining::FrequentItemset>) -> String {
    v.sort_unstable_by(|a, b| a.items.cmp(&b.items));
    let mut out = String::new();
    for f in &v {
        for i in f.items.iter() {
            write!(out, "{},", i.0).unwrap();
        }
        writeln!(out, ":{}", f.support).unwrap();
    }
    out
}

#[test]
fn all_miners_agree_on_synthesized_quarters() {
    let quarters: Vec<(u64, TransactionDb, u64)> = vec![
        (1, synth_quarter(1, 250, 30, 40), 2),
        (2, synth_quarter(2, 300, 20, 30), 3),
        (3, synth_quarter(3, 200, 40, 25), 2),
        (4, synth_quarter(4, 350, 15, 20), 4),
        (5, synth_quarter(5, 280, 25, 35), 2),
        (6, synth_quarter(6, 150, 10, 12), 1),
    ];
    for (seed, db, min_support) in &quarters {
        let ms = *min_support;

        let mut arena_seq = mine_patterns(db, ms);
        arena_seq.sort_by_items();
        let reference = render_store(&arena_seq);
        assert!(!reference.is_empty(), "seed {seed}: no patterns mined");

        let independent = render_owned(apriori(db, ms));
        assert_eq!(reference, independent, "seed {seed}: arena FP-Growth vs Apriori");

        for threads in [2usize, 3, 4, 8] {
            let mut par = mine_patterns_parallel(db, ms, threads);
            par.sort_by_items();
            assert_eq!(
                reference,
                render_store(&par),
                "seed {seed}: arena 1 thread vs {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_store_identical_under_support_sweep() {
    // One quarter, several thresholds — the funnel the pipeline actually
    // sweeps (min_support is the paper's one hot knob).
    let db = synth_quarter(7, 400, 25, 30);
    for ms in [1u64, 2, 4, 8] {
        let mut seq = mine_patterns(&db, ms);
        seq.sort_by_items();
        for threads in [2usize, 4] {
            let mut par = mine_patterns_parallel(&db, ms, threads);
            par.sort_by_items();
            assert_eq!(render_store(&seq), render_store(&par), "ms={ms} threads={threads}");
        }
    }
}
