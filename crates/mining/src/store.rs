//! Arena-backed pattern storage.
//!
//! The mining loop emits 10⁶–10⁷ patterns per quarter (Fig. 5.1). Boxing each
//! one as an owned [`ItemSet`] makes the global allocator the contended
//! resource and defeats the suffix-sharded parallel miner (the negative
//! result previously recorded in EXPERIMENTS.md). A [`PatternStore`] replaces
//! per-pattern heap allocations with one flat `Item` arena plus fixed-size
//! `(offset, len, support)` records: emitting a pattern is two `Vec` appends,
//! a pattern is addressed by a copyable [`PatternRef`], and its items are a
//! borrowed `&[Item]` slice into the arena.
//!
//! [`PatternSink`] is the emission boundary: miners stream
//! `(sorted item slice, support)` pairs into any sink — a store, or a
//! closure wrapped in [`FnSink`]. Per-worker stores merge by *rebase*
//! ([`PatternStore::absorb`]): the arena is appended and record offsets are
//! shifted, so a parallel join is two `memcpy`-shaped extends per worker.

use crate::fpgrowth::FrequentItemset;
use crate::items::{Item, ItemSet};

/// Receives mined patterns as borrowed slices.
///
/// Contract: `items` is non-empty, strictly ascending, and only valid for the
/// duration of the call; `support` is the pattern's absolute support.
pub trait PatternSink {
    /// Accepts one mined pattern.
    fn emit(&mut self, items: &[Item], support: u64);
}

/// Adapts a closure to a [`PatternSink`] (a blanket impl for `FnMut` would
/// collide with the concrete sink impls under coherence rules).
#[derive(Debug)]
pub struct FnSink<F: FnMut(&[Item], u64)>(pub F);

impl<F: FnMut(&[Item], u64)> PatternSink for FnSink<F> {
    #[inline]
    fn emit(&mut self, items: &[Item], support: u64) {
        (self.0)(items, support)
    }
}

/// One pattern record: a slice of the arena plus its support.
#[derive(Debug, Clone, Copy)]
struct Rec {
    offset: u32,
    len: u32,
    support: u64,
}

/// A stable id for a pattern inside one [`PatternStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternRef(u32);

impl PatternRef {
    /// The record index inside the owning store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An arena of mined patterns: one flat item buffer, one record per pattern.
///
/// ```
/// use maras_mining::{Item, PatternStore};
/// let mut store = PatternStore::new();
/// let r = store.push(&[Item(1), Item(3)], 7);
/// assert_eq!(store.items(r), &[Item(1), Item(3)]);
/// assert_eq!(store.support(r), 7);
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternStore {
    buf: Vec<Item>,
    recs: Vec<Rec>,
}

impl PatternStore {
    /// An empty store.
    pub fn new() -> Self {
        PatternStore::default()
    }

    /// An empty store with reserved capacity.
    pub fn with_capacity(patterns: usize, items: usize) -> Self {
        PatternStore { buf: Vec::with_capacity(items), recs: Vec::with_capacity(patterns) }
    }

    /// Number of stored patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the store holds no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Bytes held by the arena and the record table — the store's resident
    /// footprint (the `maras_mining_arena_bytes` gauge).
    pub fn arena_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<Item>() + self.recs.len() * std::mem::size_of::<Rec>()
    }

    /// Appends a pattern; `items` must be non-empty and strictly ascending.
    pub fn push(&mut self, items: &[Item], support: u64) -> PatternRef {
        debug_assert!(!items.is_empty(), "empty pattern");
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "pattern items not strictly ascending"
        );
        let offset = u32::try_from(self.buf.len()).expect("pattern arena exceeds u32 items");
        let len = items.len() as u32;
        self.buf.extend_from_slice(items);
        let id = u32::try_from(self.recs.len()).expect("pattern count exceeds u32");
        self.recs.push(Rec { offset, len, support });
        PatternRef(id)
    }

    /// The items of a stored pattern, as a slice of the arena.
    #[inline]
    pub fn items(&self, r: PatternRef) -> &[Item] {
        let rec = &self.recs[r.index()];
        &self.buf[rec.offset as usize..(rec.offset + rec.len) as usize]
    }

    /// The support of a stored pattern.
    #[inline]
    pub fn support(&self, r: PatternRef) -> u64 {
        self.recs[r.index()].support
    }

    /// All pattern refs in record order.
    pub fn refs(&self) -> impl Iterator<Item = PatternRef> {
        (0..self.recs.len() as u32).map(PatternRef)
    }

    /// Iterates over `(items, support)` pairs in record order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Item], u64)> + '_ {
        self.recs.iter().map(move |rec| {
            let s = &self.buf[rec.offset as usize..(rec.offset + rec.len) as usize];
            (s, rec.support)
        })
    }

    /// Merges another store in by *rebase*: its arena is appended to ours and
    /// its record offsets shifted. Record order is ours-then-theirs. This is
    /// the parallel-join primitive — two bulk extends, no per-pattern work.
    pub fn absorb(&mut self, other: PatternStore) {
        if self.recs.is_empty() {
            *self = other;
            return;
        }
        let base = u32::try_from(self.buf.len()).expect("pattern arena exceeds u32 items");
        other
            .buf
            .len()
            .checked_add(self.buf.len())
            .and_then(|n| u32::try_from(n).ok())
            .expect("merged pattern arena exceeds u32 items");
        self.buf.extend_from_slice(&other.buf);
        self.recs.extend(other.recs.iter().map(|r| Rec { offset: r.offset + base, ..*r }));
    }

    /// Sorts the *records* (not the arena) by lexicographic item order — the
    /// canonical order differential tests and deterministic output rely on.
    /// O(n log n) record swaps; the arena is untouched.
    pub fn sort_by_items(&mut self) {
        let buf = &self.buf;
        self.recs.sort_unstable_by(|a, b| {
            let sa = &buf[a.offset as usize..(a.offset + a.len) as usize];
            let sb = &buf[b.offset as usize..(b.offset + b.len) as usize];
            sa.cmp(sb)
        });
    }

    /// Groups pattern refs by item count: `index[k]` holds every pattern of
    /// exactly `k` items. The closed-pattern pass walks lengths top-down
    /// instead of hashing owned sets.
    pub fn refs_by_len(&self) -> Vec<Vec<PatternRef>> {
        let max = self.recs.iter().map(|r| r.len as usize).max().unwrap_or(0);
        let mut index: Vec<Vec<PatternRef>> = vec![Vec::new(); max + 1];
        for (i, r) in self.recs.iter().enumerate() {
            index[r.len as usize].push(PatternRef(i as u32));
        }
        index
    }

    /// Materializes every pattern as an owned [`FrequentItemset`], in record
    /// order — the form Apriori returns, so the two miners compare directly.
    pub fn to_frequent_itemsets(&self) -> Vec<FrequentItemset> {
        self.iter()
            .map(|(items, support)| FrequentItemset {
                items: ItemSet::from_sorted_unchecked(items.to_vec()),
                support,
            })
            .collect()
    }
}

impl PatternSink for PatternStore {
    #[inline]
    fn emit(&mut self, items: &[Item], support: u64) {
        self.push(items, support);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(ids: &[u32]) -> Vec<Item> {
        ids.iter().map(|&i| Item(i)).collect()
    }

    #[test]
    fn push_and_read_back() {
        let mut s = PatternStore::new();
        let a = s.push(&items(&[1, 2, 3]), 5);
        let b = s.push(&items(&[2]), 9);
        assert_eq!(s.len(), 2);
        assert_eq!(s.items(a), items(&[1, 2, 3]).as_slice());
        assert_eq!(s.items(b), items(&[2]).as_slice());
        assert_eq!(s.support(a), 5);
        assert_eq!(s.support(b), 9);
        assert!(s.arena_bytes() > 0);
    }

    #[test]
    fn absorb_rebases_offsets() {
        let mut a = PatternStore::new();
        a.push(&items(&[1, 2]), 3);
        let mut b = PatternStore::new();
        b.push(&items(&[7]), 1);
        b.push(&items(&[8, 9]), 2);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        let got: Vec<(Vec<Item>, u64)> = a.iter().map(|(i, s)| (i.to_vec(), s)).collect();
        assert_eq!(got, vec![(items(&[1, 2]), 3), (items(&[7]), 1), (items(&[8, 9]), 2)]);
    }

    #[test]
    fn absorb_into_empty_is_move() {
        let mut a = PatternStore::new();
        let mut b = PatternStore::new();
        b.push(&items(&[4, 5]), 2);
        a.absorb(b);
        assert_eq!(a.len(), 1);
        assert_eq!(a.items(PatternRef(0)), items(&[4, 5]).as_slice());
    }

    #[test]
    fn sort_by_items_orders_records_lexicographically() {
        let mut s = PatternStore::new();
        s.push(&items(&[2, 3]), 1);
        s.push(&items(&[1]), 2);
        s.push(&items(&[1, 4]), 3);
        s.sort_by_items();
        let got: Vec<Vec<Item>> = s.iter().map(|(i, _)| i.to_vec()).collect();
        assert_eq!(got, vec![items(&[1]), items(&[1, 4]), items(&[2, 3])]);
    }

    #[test]
    fn refs_by_len_buckets() {
        let mut s = PatternStore::new();
        s.push(&items(&[1]), 1);
        s.push(&items(&[1, 2, 3]), 1);
        s.push(&items(&[4]), 1);
        let idx = s.refs_by_len();
        assert_eq!(idx.len(), 4);
        assert!(idx[0].is_empty() && idx[2].is_empty());
        assert_eq!(idx[1].len(), 2);
        assert_eq!(idx[3].len(), 1);
        assert_eq!(s.items(idx[3][0]), items(&[1, 2, 3]).as_slice());
    }

    #[test]
    fn fn_sink_forwards_every_pattern() {
        let mut total = 0u64;
        let mut f = FnSink(|_: &[Item], sup| total += sup);
        f.emit(&items(&[1]), 10);
        f.emit(&items(&[1, 2]), 4);
        assert_eq!(total, 14);
    }

    #[test]
    fn to_frequent_itemsets_roundtrips() {
        let mut s = PatternStore::new();
        s.push(&items(&[3, 5]), 2);
        let v = s.to_frequent_itemsets();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].items.items(), items(&[3, 5]).as_slice());
        assert_eq!(v[0].support, 2);
    }
}
