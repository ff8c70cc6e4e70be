//! Items and itemsets.
//!
//! An [`Item`] is a dense `u32` identifier for either a drug or an ADR term.
//! An [`ItemSet`] is a duplicate-free, ascending-sorted set of items — the
//! representation every miner and rule structure in the workspace shares.

use std::fmt;

/// A single item: a drug or an ADR preferred term, identified by a dense id.
///
/// The drug/ADR partition is *not* encoded here; `maras-rules` interprets the
/// id space via an [`ItemPartition`](https://docs.rs/maras-rules)-style
/// threshold. Keeping `Item` a bare newtype keeps the miners fully generic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item(pub u32);

impl Item {
    /// Raw id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u32> for Item {
    fn from(v: u32) -> Self {
        Item(v)
    }
}

/// A sorted, duplicate-free set of [`Item`]s.
///
/// Invariant: `items` is strictly ascending. All constructors enforce this;
/// the invariant is property-tested in this module and relied on by the
/// subset/merge routines (which are linear merges, not hash probes).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ItemSet {
    items: Vec<Item>,
}

impl ItemSet {
    /// The empty itemset.
    pub fn empty() -> Self {
        ItemSet { items: Vec::new() }
    }

    /// Builds an itemset from arbitrary items, sorting and de-duplicating.
    pub fn from_items(mut items: Vec<Item>) -> Self {
        items.sort_unstable();
        items.dedup();
        ItemSet { items }
    }

    /// Builds an itemset from raw ids, sorting and de-duplicating.
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::from_items(ids.into_iter().map(Item).collect())
    }

    /// Builds from a vector that is already strictly ascending.
    ///
    /// # Panics
    /// In debug builds, panics if the input is not strictly ascending.
    pub fn from_sorted_unchecked(items: Vec<Item>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items not strictly ascending");
        ItemSet { items }
    }

    /// A singleton itemset.
    pub fn singleton(item: Item) -> Self {
        ItemSet { items: vec![item] }
    }

    /// Number of items (the itemset's cardinality `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether this is the empty itemset.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items in ascending order.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Iterates over the items in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Item> + '_ {
        self.items.iter().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// `self ⊆ other`, by linear merge.
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        if self.items.len() > other.items.len() {
            return false;
        }
        let mut oi = other.items.iter();
        'outer: for s in &self.items {
            for o in oi.by_ref() {
                match o.cmp(s) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// `self ⊂ other` (proper subset).
    pub fn is_proper_subset_of(&self, other: &ItemSet) -> bool {
        self.items.len() < other.items.len() && self.is_subset_of(other)
    }

    /// Set union, preserving the sorted invariant.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::with_capacity(self.items.len() + other.items.len());
        let (mut a, mut b) = (self.items.iter().peekable(), other.items.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    use std::cmp::Ordering::*;
                    match x.cmp(&y) {
                        Less => {
                            out.push(x);
                            a.next();
                        }
                        Greater => {
                            out.push(y);
                            b.next();
                        }
                        Equal => {
                            out.push(x);
                            a.next();
                            b.next();
                        }
                    }
                }
                (Some(&&x), None) => {
                    out.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    out.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        ItemSet { items: out }
    }

    /// Set intersection, preserving the sorted invariant.
    pub fn intersection(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.items.len() && j < other.items.len() {
            use std::cmp::Ordering::*;
            match self.items[i].cmp(&other.items[j]) {
                Less => i += 1,
                Greater => j += 1,
                Equal => {
                    out.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ItemSet { items: out }
    }

    /// Set difference `self \ other`, preserving the sorted invariant.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        let mut out = Vec::new();
        let mut j = 0usize;
        for &x in &self.items {
            while j < other.items.len() && other.items[j] < x {
                j += 1;
            }
            if j >= other.items.len() || other.items[j] != x {
                out.push(x);
            }
        }
        ItemSet { items: out }
    }

    /// Returns a new itemset with `item` inserted.
    pub fn with(&self, item: Item) -> ItemSet {
        match self.items.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut items = self.items.clone();
                items.insert(pos, item);
                ItemSet { items }
            }
        }
    }

    /// Returns a new itemset with `item` removed (if present).
    pub fn without(&self, item: Item) -> ItemSet {
        match self.items.binary_search(&item) {
            Ok(pos) => {
                let mut items = self.items.clone();
                items.remove(pos);
                ItemSet { items }
            }
            Err(_) => self.clone(),
        }
    }

    /// Splits the itemset into (items < `pivot`, items ≥ `pivot`).
    ///
    /// Used by `maras-rules` to partition an itemset into its drug and ADR
    /// halves when the id space places all drugs below all ADRs.
    pub fn split_at_item(&self, pivot: Item) -> (ItemSet, ItemSet) {
        let pos = self.items.partition_point(|&i| i < pivot);
        (
            ItemSet { items: self.items[..pos].to_vec() },
            ItemSet { items: self.items[pos..].to_vec() },
        )
    }

    /// All non-empty proper subsets of this itemset.
    ///
    /// Exponential; intended for the small antecedents (≤ ~8 drugs) the MCAC
    /// context construction enumerates (thesis Def. 3.5.2).
    pub fn proper_nonempty_subsets(&self) -> Vec<ItemSet> {
        let n = self.items.len();
        assert!(n <= 24, "refusing to enumerate 2^{n} subsets");
        let full = (1u32 << n) - 1;
        let mut out = Vec::with_capacity(full.saturating_sub(1) as usize);
        for mask in 1..full {
            let items = (0..n).filter(|b| mask & (1 << b) != 0).map(|b| self.items[b]).collect();
            out.push(ItemSet { items });
        }
        out
    }
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Self::from_items(iter.into_iter().collect())
    }
}

impl fmt::Display for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn from_items_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.items(), &[Item(1), Item(3), Item(5)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_set_properties() {
        let e = ItemSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset_of(&set(&[1, 2])));
        assert!(!e.contains(Item(1)));
    }

    #[test]
    fn subset_relations() {
        let a = set(&[1, 3]);
        let b = set(&[1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(a.is_proper_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(b.is_subset_of(&b));
        assert!(!b.is_proper_subset_of(&b));
        assert!(!set(&[1, 4]).is_subset_of(&b));
    }

    #[test]
    fn union_intersection_difference() {
        let a = set(&[1, 2, 5]);
        let b = set(&[2, 3, 5, 7]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 5, 7]));
        assert_eq!(a.intersection(&b), set(&[2, 5]));
        assert_eq!(a.difference(&b), set(&[1]));
        assert_eq!(b.difference(&a), set(&[3, 7]));
    }

    #[test]
    fn with_and_without() {
        let a = set(&[1, 3]);
        assert_eq!(a.with(Item(2)), set(&[1, 2, 3]));
        assert_eq!(a.with(Item(3)), a);
        assert_eq!(a.without(Item(3)), set(&[1]));
        assert_eq!(a.without(Item(9)), a);
    }

    #[test]
    fn split_at_item_partitions() {
        let s = set(&[1, 2, 10, 11]);
        let (lo, hi) = s.split_at_item(Item(10));
        assert_eq!(lo, set(&[1, 2]));
        assert_eq!(hi, set(&[10, 11]));
        let (lo, hi) = s.split_at_item(Item(0));
        assert!(lo.is_empty());
        assert_eq!(hi, s);
    }

    #[test]
    fn proper_nonempty_subsets_of_three() {
        let s = set(&[1, 2, 3]);
        let subs = s.proper_nonempty_subsets();
        assert_eq!(subs.len(), 6); // 2^3 - 2
        assert!(subs.contains(&set(&[1])));
        assert!(subs.contains(&set(&[2, 3])));
        assert!(!subs.contains(&s));
        assert!(!subs.contains(&ItemSet::empty()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(set(&[1, 2]).to_string(), "{i1, i2}");
        assert_eq!(ItemSet::empty().to_string(), "{}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_itemset() -> impl Strategy<Value = ItemSet> {
            proptest::collection::vec(0u32..50, 0..12).prop_map(ItemSet::from_ids)
        }

        proptest! {
            #[test]
            fn sorted_invariant_holds(s in arb_itemset()) {
                prop_assert!(s.items().windows(2).all(|w| w[0] < w[1]));
            }

            #[test]
            fn union_is_commutative_and_superset(a in arb_itemset(), b in arb_itemset()) {
                let u = a.union(&b);
                prop_assert_eq!(u.clone(), b.union(&a));
                prop_assert!(a.is_subset_of(&u));
                prop_assert!(b.is_subset_of(&u));
                prop_assert!(u.items().windows(2).all(|w| w[0] < w[1]));
            }

            #[test]
            fn intersection_subset_of_both(a in arb_itemset(), b in arb_itemset()) {
                let i = a.intersection(&b);
                prop_assert!(i.is_subset_of(&a));
                prop_assert!(i.is_subset_of(&b));
            }

            #[test]
            fn difference_and_intersection_partition(a in arb_itemset(), b in arb_itemset()) {
                let d = a.difference(&b);
                let i = a.intersection(&b);
                prop_assert_eq!(d.union(&i), a.clone());
                prop_assert!(d.intersection(&b).is_empty());
            }

            #[test]
            fn subset_iff_union_equals_superset(a in arb_itemset(), b in arb_itemset()) {
                prop_assert_eq!(a.is_subset_of(&b), a.union(&b) == b);
            }

            #[test]
            fn contains_matches_linear_scan(s in arb_itemset(), id in 0u32..50) {
                prop_assert_eq!(s.contains(Item(id)), s.items().contains(&Item(id)));
            }
        }
    }
}
