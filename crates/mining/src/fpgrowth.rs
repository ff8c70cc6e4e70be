//! FP-Growth frequent-itemset mining.
//!
//! The miner streams every frequent itemset to a caller-supplied sink so
//! large rule spaces (Fig. 5.1 reports up to 10⁶–10⁷ associations) can be
//! counted or filtered without materializing them all.

use crate::fptree::FpTree;
use crate::items::{Item, ItemSet};
use crate::store::{PatternSink, PatternStore};
use crate::transactions::TransactionDb;
use rustc_hash::FxHashMap;

/// A mined frequent itemset with its absolute support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The itemset.
    pub items: ItemSet,
    /// Absolute support (number of containing transactions).
    pub support: u64,
}

/// Longest single path that still gets the combination shortcut; longer
/// paths fall back to plain recursion to bound the 2^len blow-up.
const SINGLE_PATH_CAP: usize = 16;

/// Runs FP-Growth, streaming every frequent itemset (of length ≥ 1) with
/// `support ≥ min_support` into `sink` as a strictly-ascending `&[Item]`
/// slice — the zero-allocation emission path. The slice lives in a reused
/// scratch buffer and is only valid for the duration of each
/// [`PatternSink::emit`] call.
///
/// `min_support` is absolute (a report count); the thesis mines with a very
/// low threshold to keep rare drug combinations (§1.3 "a low support is
/// necessary"). A `min_support` of 0 is clamped to 1: support-0 itemsets are
/// not patterns of the data.
pub fn fpgrowth_into<S: PatternSink>(db: &TransactionDb, min_support: u64, sink: &mut S) {
    let min_support = min_support.max(1);
    let tree = build_global_tree(db, min_support);
    let mut prefix: Vec<Item> = Vec::new();
    let mut scratch: Vec<Item> = Vec::new();
    mine_into(&tree, min_support, &mut prefix, &mut scratch, sink);
}

/// Mines the frequent-pattern space into a fresh [`PatternStore`], in the
/// miner's emission order (use [`PatternStore::sort_by_items`] for the
/// canonical order).
///
/// ```
/// use maras_mining::{mine_patterns, Item, TransactionDb};
/// let db = TransactionDb::new(vec![
///     vec![Item(1), Item(2)],
///     vec![Item(1), Item(2)],
///     vec![Item(1), Item(3)],
/// ]);
/// let store = mine_patterns(&db, 2);
/// assert!(store.iter().all(|(items, support)| support >= 2 && !items.is_empty()));
/// assert_eq!(store.len(), 3); // {1}, {2}, {1,2}
/// ```
pub fn mine_patterns(db: &TransactionDb, min_support: u64) -> PatternStore {
    let mut store = PatternStore::new();
    fpgrowth_into(db, min_support, &mut store);
    store
}

/// Builds the global FP-tree: items below `min_support` dropped, transaction
/// items reordered by descending global support (ties by ascending id).
/// Shared by the sequential and parallel miners so "suffix item" means the
/// same thing in both.
pub(crate) fn build_global_tree(db: &TransactionDb, min_support: u64) -> FpTree {
    let mut supports: Vec<(Item, u64)> = db
        .item_supports()
        .filter(|&(_, s)| s as u64 >= min_support)
        .map(|(i, s)| (i, s as u64))
        .collect();
    supports.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let rank: FxHashMap<Item, u32> =
        supports.iter().enumerate().map(|(r, &(i, _))| (i, r as u32)).collect();

    let mut tree = FpTree::new();
    let mut buf: Vec<Item> = Vec::new();
    for t in db.transactions() {
        buf.clear();
        buf.extend(t.iter().filter(|i| rank.contains_key(i)));
        buf.sort_unstable_by_key(|i| rank[i]);
        if !buf.is_empty() {
            tree.insert_path(&buf, 1);
        }
    }
    tree.finish();
    tree
}

/// Normalizes `prefix` (which is in mining order, not ascending) into
/// `scratch` and emits it. Items are distinct by construction, so sorting
/// yields a strictly-ascending slice.
#[inline]
fn emit_sorted<S: PatternSink>(
    prefix: &[Item],
    support: u64,
    scratch: &mut Vec<Item>,
    sink: &mut S,
) {
    scratch.clear();
    scratch.extend_from_slice(prefix);
    scratch.sort_unstable();
    sink.emit(scratch, support);
}

pub(crate) fn mine_into<S: PatternSink>(
    tree: &FpTree,
    min_support: u64,
    prefix: &mut Vec<Item>,
    scratch: &mut Vec<Item>,
    sink: &mut S,
) {
    // Single-path shortcut: all combinations of path items are frequent with
    // support = min count of the chosen suffix.
    if let Some(path) = tree.single_path() {
        if path.len() <= SINGLE_PATH_CAP {
            emit_path_combinations(&path, min_support, prefix, scratch, sink);
            return;
        }
    }

    for &item in tree.mining_order() {
        let header = match tree.header(item) {
            Some(h) => h,
            None => continue,
        };
        if header.total < min_support {
            continue;
        }
        prefix.push(item);
        emit_sorted(prefix, header.total, scratch, sink);

        // Conditional pattern base → conditional tree.
        let cond = conditional_tree(tree, item, min_support);
        if cond.mining_order().is_empty() {
            prefix.pop();
            continue;
        }
        mine_into(&cond, min_support, prefix, scratch, sink);
        prefix.pop();
    }
}

/// Builds the conditional FP-tree for `item`: prefix paths of every node in
/// `item`'s thread, with counts propagated and items below `min_support`
/// removed.
pub(crate) fn conditional_tree(tree: &FpTree, item: Item, min_support: u64) -> FpTree {
    // First pass: conditional item supports.
    let mut csup: FxHashMap<Item, u64> = FxHashMap::default();
    let mut path = Vec::new();
    let mut paths: Vec<(Vec<Item>, u64)> = Vec::new();
    for (node, count) in tree.thread(item) {
        tree.prefix_path(node, &mut path);
        if path.is_empty() {
            continue;
        }
        for &i in &path {
            *csup.entry(i).or_insert(0) += count;
        }
        paths.push((path.clone(), count));
    }
    // Order surviving items by conditional support (descending).
    let mut order: Vec<(Item, u64)> =
        csup.iter().filter(|&(_, &s)| s >= min_support).map(|(&i, &s)| (i, s)).collect();
    order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let rank: FxHashMap<Item, u32> =
        order.iter().enumerate().map(|(r, &(i, _))| (i, r as u32)).collect();

    let mut cond = FpTree::new();
    let mut buf = Vec::new();
    for (p, count) in paths {
        buf.clear();
        buf.extend(p.into_iter().filter(|i| rank.contains_key(i)));
        buf.sort_unstable_by_key(|i| rank[i]);
        if !buf.is_empty() {
            cond.insert_path(&buf, count);
        }
    }
    cond.finish();
    cond
}

/// Emits every non-empty combination of a single path, each unioned with the
/// current prefix. `path` is in root→leaf order so counts are non-increasing;
/// a combination's support is the count of its deepest item.
fn emit_path_combinations<S: PatternSink>(
    path: &[(Item, u64)],
    min_support: u64,
    prefix: &[Item],
    scratch: &mut Vec<Item>,
    sink: &mut S,
) {
    let n = path.len();
    if n == 0 {
        return;
    }
    debug_assert!(path.windows(2).all(|w| w[0].1 >= w[1].1), "path counts must be non-increasing");
    for mask in 1u32..(1 << n) {
        let deepest = 31 - mask.leading_zeros();
        let support = path[deepest as usize].1;
        if support < min_support {
            continue;
        }
        scratch.clear();
        scratch.extend_from_slice(prefix);
        scratch.extend((0..n).filter(|b| mask & (1 << b) != 0).map(|b| path[b].0));
        scratch.sort_unstable();
        sink.emit(scratch, support);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashMap;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn mined_map(d: &TransactionDb, min_support: u64) -> FxHashMap<ItemSet, u64> {
        let mut m = FxHashMap::default();
        for f in mine_patterns(d, min_support).to_frequent_itemsets() {
            let prev = m.insert(f.items.clone(), f.support);
            assert!(prev.is_none(), "itemset {} emitted twice", f.items);
        }
        m
    }

    #[test]
    fn classic_small_example() {
        // Han's textbook example (simplified).
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
        let m = mined_map(&d, 2);
        assert_eq!(m[&ItemSet::from_ids([1])], 6);
        assert_eq!(m[&ItemSet::from_ids([2])], 7);
        assert_eq!(m[&ItemSet::from_ids([1, 2])], 4);
        assert_eq!(m[&ItemSet::from_ids([1, 2, 5])], 2);
        assert_eq!(m[&ItemSet::from_ids([2, 3])], 4);
        assert!(!m.contains_key(&ItemSet::from_ids([4, 5])));
    }

    #[test]
    fn supports_match_db_counts() {
        let d = db(&[&[1, 2, 3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3]]);
        let m = mined_map(&d, 1);
        for (s, sup) in &m {
            assert_eq!(*sup, d.support(s) as u64, "support mismatch for {s}");
        }
        // Completeness: every subset of every transaction with support>=1 present.
        assert_eq!(m.len(), 7); // {1},{2},{3},{12},{13},{23},{123}
    }

    #[test]
    fn min_support_zero_clamped() {
        let d = db(&[&[1]]);
        let m = mined_map(&d, 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn empty_db_yields_nothing() {
        let d = db(&[]);
        assert!(mine_patterns(&d, 1).is_empty());
        let d2 = db(&[&[], &[]]);
        assert!(mine_patterns(&d2, 1).is_empty());
    }

    #[test]
    fn high_threshold_prunes_everything() {
        let d = db(&[&[1, 2], &[2, 3]]);
        assert!(mine_patterns(&d, 3).is_empty());
    }

    #[test]
    fn duplicate_transactions_accumulate() {
        let d = db(&[&[7, 8], &[7, 8], &[7, 8]]);
        let m = mined_map(&d, 2);
        assert_eq!(m[&ItemSet::from_ids([7, 8])], 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
            proptest::collection::vec(proptest::collection::vec(0u32..12, 0..6), 0..25)
        }

        /// Brute-force frequent itemsets by enumerating subsets of occurring items.
        fn brute(d: &TransactionDb, min_support: u64) -> FxHashMap<ItemSet, u64> {
            let items: Vec<Item> = {
                let mut v: Vec<Item> = d.item_supports().map(|(i, _)| i).collect();
                v.sort_unstable();
                v
            };
            let n = items.len();
            let mut out = FxHashMap::default();
            if n == 0 || n > 14 {
                if n > 14 {
                    panic!("brute force domain too large");
                }
                return out;
            }
            for mask in 1u32..(1 << n) {
                let s: ItemSet =
                    (0..n).filter(|b| mask & (1 << b) != 0).map(|b| items[b]).collect();
                let sup = d.support(&s) as u64;
                if sup >= min_support {
                    out.insert(s, sup);
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn matches_bruteforce(rows in arb_rows(), min_support in 1u64..4) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                let mined = mined_map(&d, min_support);
                let expect = brute(&d, min_support);
                prop_assert_eq!(mined, expect);
            }
        }
    }
}
