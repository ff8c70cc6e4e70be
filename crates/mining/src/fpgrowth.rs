//! FP-Growth frequent-itemset mining.
//!
//! The miner streams every frequent itemset to a caller-supplied sink so
//! large rule spaces (Fig. 5.1 reports up to 10⁶–10⁷ associations) can be
//! counted or filtered without materializing them all.

use crate::fptree::FpTree;
use crate::items::{Item, ItemSet};
use crate::store::{PatternSink, PatternStore};
use crate::transactions::TransactionDb;

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

/// The local number of an item a tree leaves out (below `min_support`).
const UNRANKED: u32 = u32::MAX;

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
///
/// Conditional trees are rebuilt into one reused tree per recursion depth,
/// so the allocations of a run grow with the depth and the widest tree, not
/// with the number of patterns.
pub fn fpgrowth_into<S: PatternSink>(db: &TransactionDb, min_support: u64, sink: &mut S) {
    let min_support = min_support.max(1);
    let tree = build_global_tree(db, min_support);
    Miner::new(min_support).mine_tree(&tree, 0, sink);
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

/// Builds the global FP-tree: items below `min_support` dropped, the rest
/// numbered by descending global support (ties by ascending id), which is
/// the order each transaction's path is inserted in. Shared by the
/// sequential and parallel miners so "suffix item" means the same thing in
/// both.
pub(crate) fn build_global_tree(db: &TransactionDb, min_support: u64) -> FpTree {
    let mut supports: Vec<(Item, u32)> =
        db.item_supports().filter(|&(_, s)| s as u64 >= min_support).collect();
    supports.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut rank = vec![UNRANKED; db.item_bound() as usize];
    for (r, &(item, _)) in supports.iter().enumerate() {
        rank[item.index()] = r as u32;
    }

    let mut tree = FpTree::default();
    tree.reset(supports.iter().map(|&(item, _)| item));
    let mut path: Vec<u32> = Vec::new();
    for t in db.transactions() {
        path.clear();
        path.extend(t.iter().map(|i| rank[i.index()]).filter(|&r| r != UNRANKED));
        path.sort_unstable();
        if !path.is_empty() {
            tree.insert(&path, 1);
        }
    }
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

/// One worker's FP-Growth state: the pattern prefix, one conditional tree
/// per recursion depth, and the dense scratch each conditional tree is
/// projected through. All of it is reused from one conditional tree to the
/// next.
#[derive(Default)]
pub(crate) struct Miner {
    min_support: u64,
    /// `trees[d]` holds the conditional tree mined at recursion depth
    /// `d + 1`.
    trees: Vec<FpTree>,
    /// Conditional support by local number in the projected tree; zero
    /// between projections.
    counts: Vec<u64>,
    /// Local number in the projected tree → local number in the
    /// conditional tree; `UNRANKED` between projections.
    remap: Vec<u32>,
    /// The local numbers `counts` holds a non-zero entry for.
    touched: Vec<u32>,
    /// The prefix paths of one projection, each leaf to root, back to back.
    paths: Vec<u32>,
    /// Per prefix path: its end in `paths` and its count.
    ends: Vec<(u32, u64)>,
    /// One remapped path.
    path: Vec<u32>,
    prefix: Vec<Item>,
    scratch: Vec<Item>,
}

impl Miner {
    pub(crate) fn new(min_support: u64) -> Self {
        Miner { min_support, ..Miner::default() }
    }

    /// Emits every pattern of `tree` (each unioned with the prefix), least
    /// frequent item first. `depth` is the tree's recursion depth.
    pub(crate) fn mine_tree<S: PatternSink>(&mut self, tree: &FpTree, depth: usize, sink: &mut S) {
        // Single-path shortcut: all combinations of path items are frequent
        // with support = the count of the deepest chosen item.
        if tree.is_single_path() && tree.len() <= SINGLE_PATH_CAP {
            self.emit_path_combinations(tree, sink);
            return;
        }
        for l in (0..tree.len()).rev() {
            self.mine_item(tree, l, depth, sink);
        }
    }

    /// Emits local item `l` of `tree` under the prefix, then every pattern
    /// of its conditional tree.
    pub(crate) fn mine_item<S: PatternSink>(
        &mut self,
        tree: &FpTree,
        l: usize,
        depth: usize,
        sink: &mut S,
    ) {
        self.prefix.push(tree.item(l));
        emit_sorted(&self.prefix, tree.total(l), &mut self.scratch, sink);
        if self.trees.len() == depth {
            self.trees.push(FpTree::default());
        }
        let mut cond = std::mem::take(&mut self.trees[depth]);
        self.project(tree, l, &mut cond);
        if cond.len() > 0 {
            self.mine_tree(&cond, depth + 1, sink);
        }
        self.trees[depth] = cond;
        self.prefix.pop();
    }

    /// Builds the conditional FP-tree of local item `l` into `cond`: the
    /// prefix paths of every node in `l`'s thread, with counts propagated
    /// and items below `min_support` removed. The surviving items are
    /// numbered by descending conditional support, ties by ascending id.
    fn project(&mut self, tree: &FpTree, l: usize, cond: &mut FpTree) {
        // Every item on a prefix path of `l` has a smaller local number.
        if self.counts.len() < l {
            self.counts.resize(l, 0);
            self.remap.resize(l, UNRANKED);
        }
        self.paths.clear();
        self.ends.clear();
        for (count, path) in tree.prefix_paths(l) {
            let start = self.paths.len();
            for i in path {
                let c = &mut self.counts[i as usize];
                if *c == 0 {
                    self.touched.push(i);
                }
                *c += count;
                self.paths.push(i);
            }
            if self.paths.len() > start {
                self.ends.push((self.paths.len() as u32, count));
            }
        }

        let counts = &self.counts;
        self.touched.retain(|&i| counts[i as usize] >= self.min_support);
        self.touched.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            counts[b].cmp(&counts[a]).then(tree.item(a).cmp(&tree.item(b)))
        });
        for (new, &old) in self.touched.iter().enumerate() {
            self.remap[old as usize] = new as u32;
        }
        cond.reset(self.touched.iter().map(|&i| tree.item(i as usize)));

        let mut start = 0;
        for &(end, count) in &self.ends {
            let end = end as usize;
            self.path.clear();
            self.path.extend(
                self.paths[start..end]
                    .iter()
                    .map(|&i| self.remap[i as usize])
                    .filter(|&i| i != UNRANKED),
            );
            self.path.sort_unstable();
            if !self.path.is_empty() {
                cond.insert(&self.path, count);
            }
            start = end;
        }

        // Leave the scratch clean for the next projection.
        for &i in &self.paths {
            self.counts[i as usize] = 0;
            self.remap[i as usize] = UNRANKED;
        }
        self.touched.clear();
    }

    /// Emits every non-empty combination of a single-path tree's items,
    /// each unioned with the prefix. The path runs root to leaf in local
    /// order, so counts are non-increasing and a combination's support is
    /// the total of its deepest item.
    fn emit_path_combinations<S: PatternSink>(&mut self, tree: &FpTree, sink: &mut S) {
        let n = tree.len();
        debug_assert!(n <= SINGLE_PATH_CAP);
        for mask in 1u32..(1 << n) {
            let deepest = (31 - mask.leading_zeros()) as usize;
            let support = tree.total(deepest);
            debug_assert!(support >= self.min_support, "every item of a tree is frequent");
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.prefix);
            self.scratch.extend((0..n).filter(|b| mask & (1 << b) != 0).map(|b| tree.item(b)));
            self.scratch.sort_unstable();
            sink.emit(&self.scratch, support);
        }
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
    fn single_path_past_the_cap_recurses_to_the_closed_form() {
        // One 17-item transaction, three times: the tree is one chain too
        // long for the combination shortcut, so the miner recurses, and
        // every one of the 2^17 - 1 non-empty subsets has support 3.
        let n = SINGLE_PATH_CAP as u32 + 1;
        let row: Vec<u32> = (0..n).map(|i| 10 * i).collect();
        let d = db(&[&row, &row, &row]);
        let mut count = 0u64;
        let mut seen = rustc_hash::FxHashSet::default();
        fpgrowth_into(
            &d,
            1,
            &mut crate::store::FnSink(|items: &[Item], support| {
                assert_eq!(support, 3, "{items:?}");
                assert!(items.windows(2).all(|w| w[0] < w[1]));
                let mask = items.iter().fold(0u32, |m, i| m | 1 << (i.0 / 10));
                assert!(seen.insert(mask), "{items:?} emitted twice");
                count += 1;
            }),
        );
        assert_eq!(count, (1u64 << n) - 1);
    }

    #[test]
    fn duplicate_transactions_accumulate() {
        let d = db(&[&[7, 8], &[7, 8], &[7, 8]]);
        let m = mined_map(&d, 2);
        assert_eq!(m[&ItemSet::from_ids([7, 8])], 3);
    }

    #[test]
    fn global_tree_mines_least_frequent_first() {
        // Supports 1: 6, 2: 5, 3: 1, 4: 1. Mining runs in reverse local
        // order: the least frequent item first, ties by descending id.
        let d = db(&[&[1, 2], &[1, 2], &[1, 2], &[1, 2], &[1, 2], &[1], &[3], &[4]]);
        let t = build_global_tree(&d, 1);
        let order: Vec<Item> = (0..t.len()).rev().map(|l| t.item(l)).collect();
        assert_eq!(order, [Item(4), Item(3), Item(2), Item(1)]);
    }

    /// `mine_patterns`' records as `(items, support)`, in emission order.
    fn emitted(d: &TransactionDb, min_support: u64) -> Vec<(Vec<u32>, u64)> {
        let store = mine_patterns(d, min_support);
        store.iter().map(|(items, s)| (items.iter().map(|i| i.0).collect(), s)).collect()
    }

    fn pinned(records: &[(&[u32], u64)]) -> Vec<(Vec<u32>, u64)> {
        records.iter().map(|&(items, s)| (items.to_vec(), s)).collect()
    }

    #[test]
    fn emission_order_is_least_frequent_first_at_every_depth() {
        // Every tree, the global one and each conditional one, is mined
        // least frequent item first, ties by descending id; a single
        // path's combinations come in mask order over its items, most
        // frequent first. `mine_patterns_parallel` at one thread, and each
        // of its shards, keep this order.
        //
        // Han's example: global ties 1/3 (6 reports) and 4/5 (2), and a
        // tie between 1 and 2 under 5 (a single path) and under 3.
        let han = db(&[
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
        assert_eq!(
            emitted(&han, 2),
            pinned(&[
                (&[5], 2),
                (&[1, 5], 2),
                (&[2, 5], 2),
                (&[1, 2, 5], 2),
                (&[4], 2),
                (&[2, 4], 2),
                (&[3], 6),
                (&[2, 3], 4),
                (&[1, 2, 3], 2),
                (&[1, 3], 4),
                (&[1], 6),
                (&[1, 2], 4),
                (&[2], 7),
            ])
        );
        // Globally 1 > 2 = 4 > 3, but under 3 item 4 (3 reports) comes
        // before item 1 (1 report).
        let reordered =
            db(&[&[1, 2], &[1, 2], &[1, 2], &[3, 4], &[3, 4], &[1, 3, 4], &[1, 2, 4], &[1]]);
        assert_eq!(
            emitted(&reordered, 1),
            pinned(&[
                (&[3], 3),
                (&[3, 4], 3),
                (&[1, 3], 1),
                (&[1, 3, 4], 1),
                (&[4], 4),
                (&[1, 4], 2),
                (&[2, 4], 1),
                (&[1, 2, 4], 1),
                (&[2], 4),
                (&[1, 2], 4),
                (&[1], 6),
            ])
        );
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
