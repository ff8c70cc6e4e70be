//! The drug/ADR partition of the item space (thesis §3.1).
//!
//! `I_drug` and `I_ade` are disjoint and together cover `I`. The workspace
//! encodes both vocabularies in one dense `u32` space with every drug id
//! strictly below every ADR id, so partitioning an itemset is a single
//! `partition_point`, and "antecedent ⊆ I_drug, consequent ⊆ I_ade" checks
//! are O(1) on the boundary items.

use maras_mining::{Item, ItemSet};

/// The boundary between the drug and ADR halves of the item id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemPartition {
    /// First item id that denotes an ADR; all lower ids are drugs.
    pub adr_start: u32,
}

impl ItemPartition {
    /// Creates a partition with ADR ids starting at `adr_start`.
    pub fn new(adr_start: u32) -> Self {
        ItemPartition { adr_start }
    }

    /// Whether the item is a drug.
    #[inline]
    pub fn is_drug(&self, item: Item) -> bool {
        item.0 < self.adr_start
    }

    /// Whether the item is an ADR.
    #[inline]
    pub fn is_adr(&self, item: Item) -> bool {
        item.0 >= self.adr_start
    }

    /// Item id for the `i`-th drug.
    #[inline]
    pub fn drug_item(&self, drug_index: u32) -> Item {
        debug_assert!(drug_index < self.adr_start);
        Item(drug_index)
    }

    /// Item id for the `i`-th ADR.
    #[inline]
    pub fn adr_item(&self, adr_index: u32) -> Item {
        Item(self.adr_start + adr_index)
    }

    /// Dense ADR index of an ADR item.
    #[inline]
    pub fn adr_index(&self, item: Item) -> u32 {
        debug_assert!(self.is_adr(item));
        item.0 - self.adr_start
    }

    /// Splits an itemset into its (drugs, ADRs) halves.
    pub fn split(&self, itemset: &ItemSet) -> (ItemSet, ItemSet) {
        itemset.split_at_item(Item(self.adr_start))
    }

    /// Splits a sorted item slice into its (drugs, ADRs) halves as borrowed
    /// sub-slices — the zero-copy view the arena-backed pattern store makes
    /// possible.
    pub fn split_items<'a>(&self, items: &'a [Item]) -> (&'a [Item], &'a [Item]) {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items not strictly ascending");
        items.split_at(items.partition_point(|&i| i.0 < self.adr_start))
    }

    /// Whether an itemset contains at least one drug and one ADR — the
    /// precondition for it to induce a drug-ADR association (§3.1).
    pub fn is_mixed(&self, itemset: &ItemSet) -> bool {
        self.is_mixed_items(itemset.items())
    }

    /// [`ItemPartition::is_mixed`] over a sorted item slice.
    pub fn is_mixed_items(&self, items: &[Item]) -> bool {
        match (items.first(), items.last()) {
            (Some(&first), Some(&last)) => self.is_drug(first) && self.is_adr(last),
            _ => false,
        }
    }

    /// Number of drug items in an itemset.
    pub fn drug_count(&self, itemset: &ItemSet) -> usize {
        self.drug_count_items(itemset.items())
    }

    /// [`ItemPartition::drug_count`] over a sorted item slice.
    pub fn drug_count_items(&self, items: &[Item]) -> usize {
        items.partition_point(|&i| i.0 < self.adr_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn classification() {
        let p = ItemPartition::new(100);
        assert!(p.is_drug(Item(0)));
        assert!(p.is_drug(Item(99)));
        assert!(p.is_adr(Item(100)));
        assert!(!p.is_adr(Item(99)));
        assert_eq!(p.adr_item(5), Item(105));
        assert_eq!(p.adr_index(Item(105)), 5);
        assert_eq!(p.drug_item(7), Item(7));
    }

    #[test]
    fn split_separates_halves() {
        let p = ItemPartition::new(10);
        let (drugs, adrs) = p.split(&set(&[1, 2, 10, 15]));
        assert_eq!(drugs, set(&[1, 2]));
        assert_eq!(adrs, set(&[10, 15]));
    }

    #[test]
    fn split_handles_pure_sets() {
        let p = ItemPartition::new(10);
        let (d, a) = p.split(&set(&[1, 2]));
        assert_eq!(d, set(&[1, 2]));
        assert!(a.is_empty());
        let (d, a) = p.split(&set(&[11, 12]));
        assert!(d.is_empty());
        assert_eq!(a, set(&[11, 12]));
    }

    #[test]
    fn mixed_detection() {
        let p = ItemPartition::new(10);
        assert!(p.is_mixed(&set(&[1, 10])));
        assert!(!p.is_mixed(&set(&[1, 2])));
        assert!(!p.is_mixed(&set(&[10, 11])));
        assert!(!p.is_mixed(&ItemSet::empty()));
    }

    #[test]
    fn drug_count_counts_prefix() {
        let p = ItemPartition::new(10);
        assert_eq!(p.drug_count(&set(&[1, 2, 3, 10, 11])), 3);
        assert_eq!(p.drug_count(&set(&[10])), 0);
        assert_eq!(p.drug_count(&set(&[1])), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn split_partitions_losslessly(ids in proptest::collection::vec(0u32..40, 0..10)) {
                let p = ItemPartition::new(20);
                let s = ItemSet::from_ids(ids);
                let (d, a) = p.split(&s);
                prop_assert_eq!(d.union(&a), s.clone());
                prop_assert!(d.intersection(&a).is_empty());
                prop_assert!(d.iter().all(|i| p.is_drug(i)));
                prop_assert!(a.iter().all(|i| p.is_adr(i)));
                prop_assert_eq!(p.drug_count(&s), d.len());
                prop_assert_eq!(p.is_mixed(&s), !d.is_empty() && !a.is_empty());
                // Slice views agree with the owned split.
                let (ds, adrs) = p.split_items(s.items());
                prop_assert_eq!(ds, d.items());
                prop_assert_eq!(adrs, a.items());
                prop_assert_eq!(p.is_mixed_items(s.items()), p.is_mixed(&s));
                prop_assert_eq!(p.drug_count_items(s.items()), p.drug_count(&s));
            }
        }
    }
}
