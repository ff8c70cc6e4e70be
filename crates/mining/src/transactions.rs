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

/// The covers of many itemsets in one flat buffer, as
/// [`TransactionDb::covers`] returns them: cover `i` is the ascending tids
/// of the `i`-th itemset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Covers {
    tids: Vec<u32>,
    /// Cover `i` is `tids[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
}

impl Covers {
    /// Number of covers (the number of itemsets asked for).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no itemset was asked for.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cover, ascending, in itemset order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets.windows(2).map(|w| &self.tids[w[0]..w[1]])
    }
}

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

    /// Iterates over `(item, support)` pairs for every occurring item.
    pub fn item_supports(&self) -> impl Iterator<Item = (Item, u32)> + '_ {
        self.tidlists.iter().map(|(&i, t)| (i, t.len() as u32))
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

    /// The covers of many itemsets from one scan of the transactions: cover
    /// `i` of the result equals [`cover_tids`](Self::cover_tids) of the
    /// `i`-th itemset (every tid for an empty one). Each itemset comes with
    /// its support, which is its cover's length and sizes the flat buffer
    /// the covers are written into. Items of one itemset may come in any
    /// order and may repeat.
    ///
    /// Each itemset is anchored on its rarest item (ties to the smaller
    /// id), and an anchor's itemsets keep their other items rarest first,
    /// so a transaction holding the anchor usually rejects a non-member at
    /// its first probe. The transactions are walked once in tid order
    /// against a dense item marker, and each hit's tid goes straight to
    /// the end of its cover, so every cover is ascending. The scan visits
    /// every transaction whatever the itemsets, so for a handful of
    /// itemsets per-itemset [`cover_tids`](Self::cover_tids) is cheaper.
    ///
    /// # Panics
    ///
    /// If some itemset's cover is not as long as the support given for it.
    ///
    /// ```
    /// use maras_mining::{Item, TransactionDb};
    /// let db = TransactionDb::new(vec![
    ///     vec![Item(0), Item(1), Item(10)],
    ///     vec![Item(0), Item(10)],
    ///     vec![Item(1)],
    /// ]);
    /// let covers = db.covers([(vec![Item(0), Item(10)], 2), (vec![Item(1)], 2), (vec![], 3)]);
    /// let covers: Vec<&[u32]> = covers.iter().collect();
    /// assert_eq!(covers, [&[0, 1][..], &[0, 2], &[0, 1, 2]]);
    /// ```
    pub fn covers<S, I>(&self, itemsets: S) -> Covers
    where
        S: IntoIterator<Item = (I, u64)>,
        I: IntoIterator<Item = Item>,
    {
        struct Anchored {
            anchor: Item,
            set: u32,
            /// The other items, rarest first: `others[start..end]`.
            start: u32,
            end: u32,
        }
        let mut anchored: Vec<Anchored> = Vec::new();
        let mut others: Vec<Item> = Vec::new();
        let mut everything: Vec<u32> = Vec::new();
        let mut by_rarity: Vec<(u64, Item)> = Vec::new();
        // Cover `i` goes to `tids[offsets[i]..offsets[i + 1]]`.
        let mut offsets = vec![0usize];
        for (itemset, support) in itemsets {
            let set = (offsets.len() - 1) as u32;
            offsets.push(offsets[set as usize] + support as usize);
            by_rarity.clear();
            by_rarity.extend(
                itemset.into_iter().map(|i| (self.tidlists.get(&i).map_or(0, TidSet::len), i)),
            );
            by_rarity.sort_unstable();
            by_rarity.dedup();
            match by_rarity.first() {
                None => everything.push(set),
                Some(&(0, _)) => {} // an item no transaction holds: empty cover
                Some(&(_, anchor)) => {
                    let start = others.len() as u32;
                    others.extend(by_rarity[1..].iter().map(|&(_, i)| i));
                    anchored.push(Anchored { anchor, set, start, end: others.len() as u32 });
                }
            }
        }
        // Group by anchor: `anchored[first[a]..first[a + 1]]` hold item a.
        anchored.sort_unstable_by_key(|a| a.anchor);
        let bound = self.item_bound as usize;
        let mut first = vec![0u32; bound + 1];
        for a in &anchored {
            first[a.anchor.index() + 1] += 1;
        }
        for i in 0..bound {
            first[i + 1] += first[i];
        }

        // Stamp each transaction's items with its tid + 1, then test every
        // itemset anchored on one of them against the stamps. An empty
        // itemset is in every transaction.
        let n_sets = offsets.len() - 1;
        let mut tids = vec![0u32; offsets[n_sets]];
        let mut next = offsets[..n_sets].to_vec();
        let mut put = |set: u32, tid: u32| {
            let at = &mut next[set as usize];
            tids[*at] = tid;
            *at += 1;
        };
        let mut stamp = vec![0u32; bound];
        for (tid, t) in self.transactions.iter().enumerate() {
            let tid = tid as u32;
            for &set in &everything {
                put(set, tid);
            }
            for i in t.iter() {
                stamp[i.index()] = tid + 1;
            }
            for i in t.iter() {
                let range = first[i.index()] as usize..first[i.index() + 1] as usize;
                for a in &anchored[range] {
                    let rest = &others[a.start as usize..a.end as usize];
                    if rest.iter().all(|o| stamp[o.index()] == tid + 1) {
                        put(a.set, tid);
                    }
                }
            }
        }
        assert!(
            next == offsets[1..],
            "an itemset's cover is not as long as the support given for it"
        );
        Covers { tids, offsets }
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
    fn len_and_item_bound() {
        let db = sample_db();
        assert_eq!(db.len(), 5);
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
    fn batch_covers_handle_ties_and_absent_items() {
        let db = sample_db();
        // Items 0 and 1 both occur in 3 transactions: a tie for the anchor.
        let sets = [set(&[0, 1]), set(&[1, 0, 11]), set(&[2, 99]), ItemSet::empty(), set(&[0, 1])];
        let covers = db.covers(sets.iter().map(|s| (s.iter(), db.support(s) as u64)));
        let got: Vec<&[u32]> = covers.iter().collect();
        assert_eq!(got, vec![&[0, 3][..], &[0, 3], &[], &[0, 1, 2, 3, 4], &[0, 3]]);
        assert!(db.covers(Vec::<(Vec<Item>, u64)>::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "not as long as the support")]
    fn batch_covers_refuse_an_understated_support() {
        // {0, 1} is in 2 transactions: its second tid would land in the
        // next itemset's cover.
        let s = set(&[0, 1]);
        sample_db().covers([(s.iter(), 1), (s.iter(), 2)]);
    }

    #[test]
    #[should_panic(expected = "not as long as the support")]
    fn batch_covers_refuse_an_overstated_support() {
        let s = set(&[0, 1]);
        sample_db().covers([(s.iter(), 3), (s.iter(), 2)]);
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
            fn batch_covers_match_cover_tids(
                db in arb_db(),
                sets in proptest::collection::vec(arb_set(), 0..12),
                dup in 0usize..12,
            ) {
                // Item 20 is beyond every transaction's items, the empty
                // itemset covers every tid, and a repeated itemset and
                // ties for the rarest item (small ids share supports on
                // 30 transactions) must not disturb the layout.
                let mut sets = sets;
                sets.push(ItemSet::empty());
                sets.push(ItemSet::from_ids([3u32, 20]));
                if let Some(s) = sets.get(dup % sets.len()).cloned() {
                    sets.push(s);
                }
                let covers = db.covers(sets.iter().map(|s| (s.iter(), db.support(s) as u64)));
                prop_assert_eq!(covers.len(), sets.len());
                for (s, cover) in sets.iter().zip(covers.iter()) {
                    prop_assert_eq!(cover, db.cover_tids(s).as_slice(), "itemset {}", s);
                }
                // Item order and repeats inside one itemset do not matter.
                let reversed = db.covers(sets.iter().map(|s| {
                    (s.items().iter().rev().chain(s.items()).copied(), db.support(s) as u64)
                }));
                prop_assert_eq!(reversed, covers);
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
