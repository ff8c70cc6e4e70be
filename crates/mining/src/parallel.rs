//! Parallel FP-Growth over arena-backed pattern stores.
//!
//! FP-Growth's outer loop is embarrassingly parallel: every pattern is
//! generated under exactly one top-level suffix item (its globally
//! least-frequent member), so assigning top-level items to workers partitions
//! the mining work exactly. This module shards that loop over a shared
//! read-only FP-tree with std scoped threads.
//!
//! Earlier revisions recorded an honest negative result here: with every
//! emitted pattern boxed as an owned `ItemSet`, the global allocator was the
//! contended resource and 8 threads ran no faster than 1. The emission path
//! is now allocation-free — each worker streams sorted slices into a private
//! [`PatternStore`] arena, and the join is a rebase merge
//! ([`PatternStore::absorb`]) plus one record sort. See
//! EXPERIMENTS.md ("Parallel mining after the arena refactor") for the
//! re-measured scaling, the threads section of `make bench` for 1 against
//! 2 threads, and the differential suite in `tests/differential.rs` for
//! the byte-identical output proof at every thread count.

use crate::fpgrowth::{build_global_tree, conditional_tree, mine_into};
use crate::items::Item;
use crate::store::PatternStore;
use crate::transactions::TransactionDb;

/// Runs the suffix-sharded miner with one private store per worker and
/// returns the stores in worker order. Worker `w` mines exactly the patterns
/// whose top-level suffix item has rank `≡ w (mod n_threads)` in the global
/// frequency order, so each pattern lands in exactly one store.
fn mine_sharded(db: &TransactionDb, min_support: u64, n_threads: usize) -> Vec<PatternStore> {
    let build_span = maras_obs::span("build_tree");
    let tree = build_global_tree(db, min_support);
    drop(build_span);
    if tree.mining_order().is_empty() {
        return Vec::new();
    }
    let tree = &tree;
    let parent = maras_obs::current_path().unwrap_or_default();
    let parent = &parent;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|w| {
                scope.spawn(move || {
                    let _shard = maras_obs::span_under(parent, "shard");
                    let mut store = PatternStore::new();
                    let mut prefix: Vec<Item> = Vec::new();
                    let mut scratch: Vec<Item> = Vec::new();
                    for (idx, &item) in tree.mining_order().iter().enumerate() {
                        if idx % n_threads != w {
                            continue;
                        }
                        let header = match tree.header(item) {
                            Some(h) => h,
                            None => continue,
                        };
                        if header.total < min_support {
                            continue;
                        }
                        store.push(&[item], header.total);
                        prefix.clear();
                        prefix.push(item);
                        let cond = conditional_tree(tree, item, min_support);
                        if !cond.mining_order().is_empty() {
                            mine_into(&cond, min_support, &mut prefix, &mut scratch, &mut store);
                        }
                    }
                    store
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("miner thread panicked")).collect()
    })
}

/// Mines all frequent itemsets into one [`PatternStore`] using `n_threads`
/// workers (clamped to ≥ 1), records sorted in canonical (lexicographic
/// itemset) order.
///
/// Each worker fills a private arena; at join the arenas are merged by
/// rebase and the combined record table is sorted once. The output is
/// byte-identical to the sequential miner's sorted output at every thread
/// count (differential-tested in `tests/differential.rs`).
pub fn mine_patterns_parallel(
    db: &TransactionDb,
    min_support: u64,
    n_threads: usize,
) -> PatternStore {
    let n_threads = n_threads.max(1);
    let min_support = min_support.max(1);
    let mine_span = maras_obs::span("mine");
    let mut out = if n_threads == 1 {
        let _seq = maras_obs::span("mine_seq");
        crate::fpgrowth::mine_patterns(db, min_support)
    } else {
        let shards = mine_sharded(db, min_support, n_threads);
        let _merge = maras_obs::span("merge");
        let mut merged = PatternStore::new();
        for shard in shards {
            merged.absorb(shard);
        }
        merged
    };
    let sort_span = maras_obs::span("sort");
    out.sort_by_items();
    drop(sort_span);
    maras_obs::counter("maras_mining_patterns_total", "frequent patterns mined")
        .add(out.len() as u64);
    maras_obs::gauge("maras_mining_arena_bytes", "item arena size of the latest pattern store")
        .set(out.arena_bytes() as f64);
    drop(mine_span);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::{mine_patterns, FrequentItemset};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn parallel(d: &TransactionDb, min_support: u64, threads: usize) -> Vec<FrequentItemset> {
        mine_patterns_parallel(d, min_support, threads).to_frequent_itemsets()
    }

    fn sequential_sorted(d: &TransactionDb, min_support: u64) -> Vec<FrequentItemset> {
        let mut v = mine_patterns(d, min_support).to_frequent_itemsets();
        v.sort_unstable_by(|a, b| a.items.cmp(&b.items));
        v
    }

    #[test]
    fn matches_sequential_on_fixed_example() {
        let d = db(&[
            &[1, 2, 5],
            &[2, 4],
            &[2, 3],
            &[1, 2, 4],
            &[1, 3],
            &[2, 3],
            &[1, 3],
            &[1, 2, 3, 5],
            &[1, 2, 3],
        ]);
        for threads in [1, 2, 3, 8] {
            for ms in [1u64, 2, 3] {
                assert_eq!(
                    parallel(&d, ms, threads),
                    sequential_sorted(&d, ms),
                    "threads={threads} ms={ms}"
                );
            }
        }
    }

    #[test]
    fn store_matches_sequential_store() {
        let d = db(&[&[1, 2, 3], &[1, 2], &[2, 3], &[1, 3], &[1, 2, 3]]);
        let mut seq = mine_patterns(&d, 1);
        seq.sort_by_items();
        for threads in [2, 4] {
            let par = mine_patterns_parallel(&d, 1, threads);
            assert_eq!(par.len(), seq.len());
            assert!(par.iter().eq(seq.iter()), "threads={threads}");
        }
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let d = db(&[&[1, 2], &[2, 3]]);
        assert_eq!(parallel(&d, 1, 1), sequential_sorted(&d, 1));
    }

    #[test]
    fn empty_db_yields_nothing() {
        let d = db(&[]);
        assert!(mine_patterns_parallel(&d, 1, 4).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn parallel_equals_sequential(
                rows in proptest::collection::vec(
                    proptest::collection::vec(0u32..10, 0..6), 0..25),
                ms in 1u64..3,
                threads in 2usize..5,
            ) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                prop_assert_eq!(parallel(&d, ms, threads), sequential_sorted(&d, ms));
            }
        }
    }
}
