//! The transaction database: abstracted ADR reports.
//!
//! Each transaction is the union of one report's drug items and ADR items
//! (thesis §2.1: `D = {d1..dm}`, each `di ⊆ I`). Besides the horizontal
//! representation the DB keeps *vertical* tid-lists so the exact support of
//! any itemset — including infrequent contextual sub-rules — can be counted
//! (§3.5 needs `conf(X ⇒ B)` for every `X ⊂ A` even when `X ∪ B` never met
//! the mining threshold).
//!
//! Tid-lists are hybrid compressed sets ([`maras_tidset::TidSet`]): common
//! items in a dense quarter get bitmap containers whose intersections run
//! word-AND + popcount, rare items stay sorted arrays with galloping
//! merges. Support counting never materializes an intersection unless the
//! caller asks for the cover itself.

use crate::items::{Item, ItemSet};
use rustc_hash::FxHashMap;

/// A compressed set of transaction ids (the *cover* of an itemset) —
/// re-exported from `maras-tidset`, the shared set-algebra layer.
pub type TidSet = maras_tidset::TidSet;

/// An immutable transaction database with vertical tid-list indexes.
///
/// ```
/// use maras_mining::{Item, ItemSet, TransactionDb};
/// let db = TransactionDb::new(vec![
///     vec![Item(0), Item(1), Item(10)],
///     vec![Item(0), Item(2), Item(10)],
/// ]);
/// let s = ItemSet::from_ids([0u32, 10]);
/// assert_eq!(db.support(&s), 2);
/// // {0} always co-occurs with {10}: its closure grows.
/// assert_eq!(db.closure(&ItemSet::from_ids([0u32])), s);
/// assert!(db.is_closed(&s));
/// ```
#[derive(Debug, Clone)]
pub struct TransactionDb {
    /// Horizontal form: each transaction is a strictly-ascending item list.
    transactions: Vec<ItemSet>,
    /// Vertical form: item → compressed set of tids of transactions
    /// containing it.
    tidlists: FxHashMap<Item, TidSet>,
    /// Largest item id present plus one (size hint for dense tables).
    item_bound: u32,
}

impl TransactionDb {
    /// Builds a database from raw transactions.
    ///
    /// Items within a transaction are sorted and de-duplicated; empty
    /// transactions are kept (they contribute to `len()` but to no support).
    pub fn new(raw: Vec<Vec<Item>>) -> Self {
        let transactions: Vec<ItemSet> = raw.into_iter().map(ItemSet::from_items).collect();
        Self::from_itemsets(transactions)
    }

    /// Builds a database from already-normalized itemsets.
    pub fn from_itemsets(transactions: Vec<ItemSet>) -> Self {
        let mut tidlists: FxHashMap<Item, TidSet> = FxHashMap::default();
        let mut item_bound = 0u32;
        for (tid, t) in transactions.iter().enumerate() {
            for item in t.iter() {
                tidlists.entry(item).or_default().push_ascending(tid as u32);
                item_bound = item_bound.max(item.0 + 1);
            }
        }
        for tids in tidlists.values() {
            tids.record_build();
        }
        TransactionDb { transactions, tidlists, item_bound }
    }

    /// Number of transactions `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the database holds no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// One plus the largest item id that occurs in any transaction.
    #[inline]
    pub fn item_bound(&self) -> u32 {
        self.item_bound
    }

    /// The transactions in tid order.
    #[inline]
    pub fn transactions(&self) -> &[ItemSet] {
        &self.transactions
    }

    /// The transaction with the given tid.
    pub fn transaction(&self, tid: u32) -> &ItemSet {
        &self.transactions[tid as usize]
    }

    /// Number of distinct items that occur at least once.
    pub fn distinct_items(&self) -> usize {
        self.tidlists.len()
    }

    /// Iterates over `(item, support)` pairs for every occurring item.
    pub fn item_supports(&self) -> impl Iterator<Item = (Item, u32)> + '_ {
        self.tidlists.iter().map(|(&i, t)| (i, t.len() as u32))
    }

    /// Support of a single item (`|{t : i ∈ t}|`).
    pub fn item_support(&self, item: Item) -> u32 {
        self.tidlists.get(&item).map_or(0, |t| t.len() as u32)
    }

    /// The cover (compressed tid-set) of a single item.
    pub fn item_cover(&self, item: Item) -> Option<&TidSet> {
        self.tidlists.get(&item)
    }

    /// Exact absolute support of an arbitrary itemset (thesis Formula 2.1).
    ///
    /// The empty itemset is contained in every transaction, so its support
    /// is `N`. Computed by intersecting tid-sets smallest-first; the final
    /// pair is counted popcount-only, so the largest cover never
    /// materializes an output.
    pub fn support(&self, itemset: &ItemSet) -> u32 {
        self.support_of(itemset.items())
    }

    /// Exact absolute support of an item slice — the borrowed-view path the
    /// arena-backed pattern store hands out (no `ItemSet` required).
    pub fn support_of(&self, items: &[Item]) -> u32 {
        match self.lists_of(items.iter().copied(), items.len()) {
            None => 0,
            Some(lists) if lists.is_empty() => self.len() as u32,
            Some(lists) => TidSet::intersect_count_k(&lists) as u32,
        }
    }

    /// Exact absolute support of the union of two item slices, without
    /// materializing the union. Duplicate items across the slices are
    /// harmless (a tid-set intersected with itself is itself).
    pub fn support_of_union(&self, a: &[Item], b: &[Item]) -> u32 {
        match self.lists_of(a.iter().chain(b).copied(), a.len() + b.len()) {
            None => 0,
            Some(lists) if lists.is_empty() => self.len() as u32,
            Some(lists) => TidSet::intersect_count_k(&lists) as u32,
        }
    }

    /// The cover of an arbitrary itemset as an explicit ascending tid-list.
    ///
    /// For the empty itemset this materializes `0..N`.
    pub fn cover_tids(&self, itemset: &ItemSet) -> Vec<u32> {
        match self.cover_set(itemset) {
            Some(set) => set.to_vec(),
            None => (0..self.len() as u32).collect(),
        }
    }

    /// The cover of an arbitrary itemset as a compressed tid-set, or
    /// `None` for the empty itemset (whose cover is all of `0..N`).
    pub fn cover_set(&self, itemset: &ItemSet) -> Option<TidSet> {
        match self.lists_of(itemset.iter(), itemset.len()) {
            None => Some(TidSet::new()),
            Some(lists) if lists.is_empty() => None,
            Some(lists) => Some(TidSet::intersect_k(&lists)),
        }
    }

    /// Gathers the per-item tid-sets: `None` if some item never occurs
    /// (empty cover), `Some(vec![])` for the empty itemset.
    fn lists_of(
        &self,
        items: impl Iterator<Item = Item>,
        size_hint: usize,
    ) -> Option<Vec<&TidSet>> {
        let mut lists: Vec<&TidSet> = Vec::with_capacity(size_hint);
        for item in items {
            lists.push(self.tidlists.get(&item)?);
        }
        Some(lists)
    }

    /// The closure of an itemset: the intersection of all transactions that
    /// contain it (Galois closure operator).
    ///
    /// `closure(S) ⊇ S`, `support(closure(S)) == support(S)`, and `S` is a
    /// *closed itemset* (thesis Def. 3.4.1) iff `closure(S) == S`. For an
    /// itemset with empty cover the closure is defined here as `S` itself.
    pub fn closure(&self, itemset: &ItemSet) -> ItemSet {
        let tids = self.cover_tids(itemset);
        let mut it = tids.iter();
        let first = match it.next() {
            Some(&tid) => self.transactions[tid as usize].clone(),
            None => return itemset.clone(),
        };
        let mut acc = first;
        for &tid in it {
            acc = acc.intersection(&self.transactions[tid as usize]);
            if acc.len() == itemset.len() {
                break; // cannot shrink below S, which it contains
            }
        }
        acc
    }

    /// Whether `itemset` is closed in this database (Def. 3.4.1).
    pub fn is_closed(&self, itemset: &ItemSet) -> bool {
        if self.support(itemset) == 0 {
            return false;
        }
        self.closure(itemset) == *itemset
    }

    /// Restricts the database to transactions whose tids satisfy `keep`,
    /// renumbering tids densely. Used by per-quarter slicing.
    pub fn filter_tids(&self, mut keep: impl FnMut(u32) -> bool) -> TransactionDb {
        let kept: Vec<ItemSet> = self
            .transactions
            .iter()
            .enumerate()
            .filter(|(tid, _)| keep(*tid as u32))
            .map(|(_, t)| t.clone())
            .collect();
        TransactionDb::from_itemsets(kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    fn sample_db() -> TransactionDb {
        // Mirrors the structure of thesis §3.3's worked example.
        TransactionDb::new(vec![
            vec![Item(0), Item(1), Item(10), Item(11)], // d0 d1 -> a10 a11
            vec![Item(0), Item(2), Item(10)],
            vec![Item(1), Item(11)],
            vec![Item(0), Item(1), Item(10), Item(11)],
            vec![],
        ])
    }

    #[test]
    fn len_and_distinct_items() {
        let db = sample_db();
        assert_eq!(db.len(), 5);
        assert_eq!(db.distinct_items(), 5);
        assert_eq!(db.item_bound(), 12);
    }

    #[test]
    fn support_counts() {
        let db = sample_db();
        assert_eq!(db.support(&ItemSet::empty()), 5);
        assert_eq!(db.support(&set(&[0])), 3);
        assert_eq!(db.support(&set(&[0, 1])), 2);
        assert_eq!(db.support(&set(&[0, 1, 10, 11])), 2);
        assert_eq!(db.support(&set(&[2, 11])), 0);
        assert_eq!(db.support(&set(&[99])), 0);
    }

    #[test]
    fn cover_tids_match_supports() {
        let db = sample_db();
        assert_eq!(db.cover_tids(&set(&[0, 1])), vec![0, 3]);
        assert_eq!(db.cover_tids(&set(&[11])), vec![0, 2, 3]);
        assert_eq!(db.cover_tids(&ItemSet::empty()), vec![0, 1, 2, 3, 4]);
        // The compressed view agrees and flags the empty-itemset case.
        assert_eq!(db.cover_set(&set(&[0, 1])).unwrap().to_vec(), vec![0, 3]);
        assert!(db.cover_set(&ItemSet::empty()).is_none());
        assert!(db.cover_set(&set(&[99])).unwrap().is_empty());
    }

    #[test]
    fn item_cover_is_compressed() {
        let db = sample_db();
        let cover = db.item_cover(Item(0)).expect("item 0 occurs");
        assert_eq!(cover.to_vec(), vec![0, 1, 3]);
        assert!(db.item_cover(Item(99)).is_none());
    }

    #[test]
    fn closure_grows_to_closed_set() {
        let db = sample_db();
        // {0,1} appears only with {10,11}.
        assert_eq!(db.closure(&set(&[0, 1])), set(&[0, 1, 10, 11]));
        assert!(!db.is_closed(&set(&[0, 1])));
        assert!(db.is_closed(&set(&[0, 1, 10, 11])));
        // {0} also occurs with {2,10}: closure is {0,10}.
        assert_eq!(db.closure(&set(&[0])), set(&[0, 10]));
        // Unsupported itemsets are never closed.
        assert!(!db.is_closed(&set(&[2, 11])));
    }

    #[test]
    fn closure_has_same_support() {
        let db = sample_db();
        for s in [set(&[0]), set(&[1]), set(&[0, 1]), set(&[10, 11])] {
            assert_eq!(db.support(&db.closure(&s)), db.support(&s));
        }
    }

    #[test]
    fn filter_tids_renumbers() {
        let db = sample_db();
        let q = db.filter_tids(|tid| tid < 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.support(&set(&[0])), 2);
        assert_eq!(q.support(&set(&[1])), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_db() -> impl Strategy<Value = TransactionDb> {
            proptest::collection::vec(proptest::collection::vec(0u32..20, 0..8), 0..30).prop_map(
                |raw| {
                    TransactionDb::new(
                        raw.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                    )
                },
            )
        }

        fn arb_set() -> impl Strategy<Value = ItemSet> {
            proptest::collection::vec(0u32..20, 0..5).prop_map(ItemSet::from_ids)
        }

        proptest! {
            #[test]
            fn support_matches_naive_scan(db in arb_db(), s in arb_set()) {
                let naive = db.transactions().iter().filter(|t| s.is_subset_of(t)).count() as u32;
                prop_assert_eq!(db.support(&s), naive);
            }

            #[test]
            fn support_is_antimonotone(db in arb_db(), s in arb_set(), extra in 0u32..20) {
                let bigger = s.with(Item(extra));
                prop_assert!(db.support(&bigger) <= db.support(&s));
            }

            #[test]
            fn closure_is_extensive_and_idempotent(db in arb_db(), s in arb_set()) {
                let c = db.closure(&s);
                prop_assert!(s.is_subset_of(&c));
                prop_assert_eq!(db.closure(&c), c.clone());
                if db.support(&s) > 0 {
                    prop_assert_eq!(db.support(&c), db.support(&s));
                    prop_assert!(db.is_closed(&c));
                }
            }

            #[test]
            fn cover_tids_match_naive_scan(db in arb_db(), s in arb_set()) {
                let naive: Vec<u32> = db
                    .transactions()
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| s.is_subset_of(t))
                    .map(|(tid, _)| tid as u32)
                    .collect();
                prop_assert_eq!(db.cover_tids(&s), naive);
            }
        }
    }
}
