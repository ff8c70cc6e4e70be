//! Closed frequent-itemset mining (thesis §3.4).
//!
//! A closed itemset (Def. 3.4.1) has no proper superset with the same
//! support. The thesis mines *closed* itemsets so that every generated
//! drug-ADR rule is a **supported** association (Lemma 3.4.2) — i.e. either
//! explicitly stated by one report or implicitly corroborated by at least two
//! (Defs. 3.3.1/3.3.2) — rather than a spurious partial reading of a report.
//!
//! The production miner here exploits a simple completeness property: if a
//! frequent itemset `S` is non-closed, some one-item extension `S ∪ {i}` has
//! the same support, and — having the same support ≥ the threshold — is
//! itself frequent and therefore present in the FP-Growth output. So closed
//! sets fall out of one hash pass over the frequent sets, with no subsumption
//! scans. The pass runs entirely over [`PatternStore`] slices: the hash table
//! borrows the arena buffer, candidate parents are assembled in one reused
//! scratch vector, and lengths are walked top-down through the store's
//! per-length index — no per-pattern `ItemSet` is cloned. The tests check
//! the pass against a naive closure-operator oracle.

use crate::items::Item;
use crate::parallel::mine_patterns_parallel;
use crate::store::{PatternRef, PatternStore};
use crate::transactions::TransactionDb;
use rustc_hash::FxHashMap;

/// Identifies the closed patterns of a mined frequent-pattern store.
///
/// One hash pass over borrowed arena slices: every pattern of length ≥ 2
/// marks each of its length-1-smaller parents non-closed when the parent has
/// equal support. Lengths are walked top-down via [`PatternStore::refs_by_len`];
/// the returned refs are in store record order.
pub fn closed_refs(store: &PatternStore) -> Vec<PatternRef> {
    let mut by_items: FxHashMap<&[Item], (u64, u32)> = FxHashMap::default();
    by_items.reserve(store.len());
    for r in store.refs() {
        by_items.insert(store.items(r), (store.support(r), r.index() as u32));
    }
    let mut is_closed = vec![true; store.len()];
    let by_len = store.refs_by_len();
    let mut parent: Vec<Item> = Vec::new();
    for len in (2..by_len.len()).rev() {
        for &r in &by_len[len] {
            let items = store.items(r);
            let support = store.support(r);
            for drop in 0..items.len() {
                parent.clear();
                parent.extend_from_slice(&items[..drop]);
                parent.extend_from_slice(&items[drop + 1..]);
                if let Some(&(psup, pidx)) = by_items.get(parent.as_slice()) {
                    if psup == support {
                        is_closed[pidx as usize] = false;
                    }
                }
            }
        }
    }
    store.refs().filter(|r| is_closed[r.index()]).collect()
}

/// Mines the closed frequent patterns of `db` into a fresh [`PatternStore`],
/// using `n_threads` mining workers, ordered by descending support then
/// ascending itemset (the canonical presentation order). Returns the closed
/// store together with the total frequent-pattern count.
pub fn closed_patterns(
    db: &TransactionDb,
    min_support: u64,
    n_threads: usize,
) -> (PatternStore, u64) {
    let store = mine_patterns_parallel(db, min_support, n_threads);
    let mut refs = closed_refs(&store);
    refs.sort_unstable_by(|&a, &b| {
        store.support(b).cmp(&store.support(a)).then_with(|| store.items(a).cmp(store.items(b)))
    });
    let mut closed = PatternStore::with_capacity(refs.len(), 0);
    for r in refs {
        closed.push(store.items(r), store.support(r));
    }
    (closed, store.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::{mine_patterns, FrequentItemset};
    use crate::items::ItemSet;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn closed_itemsets(db: &TransactionDb, min_support: u64) -> Vec<FrequentItemset> {
        closed_patterns(db, min_support, 1).0.to_frequent_itemsets()
    }

    /// Oracle: every frequent itemset the database's Galois closure
    /// operator fixes, in the same presentation order.
    fn closed_itemsets_naive(db: &TransactionDb, min_support: u64) -> Vec<FrequentItemset> {
        let mut out: Vec<FrequentItemset> = mine_patterns(db, min_support)
            .to_frequent_itemsets()
            .into_iter()
            .filter(|f| db.is_closed(&f.items))
            .collect();
        out.sort_unstable_by(|a, b| b.support.cmp(&a.support).then(a.items.cmp(&b.items)));
        out
    }

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn single_report_yields_one_closed_set() {
        // Thesis §3.3: one report {d1,d2 ⇒ a1,a2} explodes into 9 rules under
        // plain mining, but the only closed itemset is the full report.
        let d = db(&[&[0, 1, 10, 11]]);
        let closed = closed_itemsets(&d, 1);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].items, set(&[0, 1, 10, 11]));
        assert_eq!(closed[0].support, 1);
    }

    #[test]
    fn implicit_overlap_becomes_closed() {
        // Two reports share {d0, a10}: the shared part is implicitly
        // supported (Def. 3.3.2) and must surface as a closed set.
        let d = db(&[&[0, 1, 10], &[0, 2, 10]]);
        let closed = closed_itemsets(&d, 1);
        let sets: Vec<&ItemSet> = closed.iter().map(|f| &f.items).collect();
        assert!(sets.contains(&&set(&[0, 10])), "shared overlap missing: {sets:?}");
        assert!(sets.contains(&&set(&[0, 1, 10])));
        assert!(sets.contains(&&set(&[0, 2, 10])));
        // {0} alone closes to {0,10}; must not appear.
        assert!(!sets.contains(&&set(&[0])));
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn respects_min_support() {
        let d = db(&[&[1, 2], &[1, 2], &[3]]);
        let closed = closed_itemsets(&d, 2);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].items, set(&[1, 2]));
        assert_eq!(closed[0].support, 2);
    }

    #[test]
    fn frequent_count_tracks_unfiltered_space() {
        let d = db(&[&[0, 1, 10, 11]]);
        let (closed, frequent_count) = closed_patterns(&d, 1, 1);
        assert_eq!(closed.len(), 1);
        assert_eq!(frequent_count, 15); // 2^4 - 1 subsets all frequent
    }

    #[test]
    fn matches_naive_on_fixed_example() {
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
        for ms in 1..=3 {
            assert_eq!(closed_itemsets(&d, ms), closed_itemsets_naive(&d, ms), "ms={ms}");
        }
    }

    #[test]
    fn every_closed_set_is_closed_in_db() {
        let d = db(&[&[1, 2, 3], &[1, 2], &[2, 3], &[1, 3], &[1, 2, 3]]);
        for f in closed_itemsets(&d, 1) {
            assert!(d.is_closed(&f.items), "{} not closed", f.items);
            assert_eq!(d.support(&f.items) as u64, f.support);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
            proptest::collection::vec(proptest::collection::vec(0u32..10, 0..6), 0..20)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn fast_matches_naive(rows in arb_rows(), ms in 1u64..4) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                prop_assert_eq!(closed_itemsets(&d, ms), closed_itemsets_naive(&d, ms));
            }

            #[test]
            fn closed_sets_cover_all_supports(rows in arb_rows()) {
                // Losslessness: every frequent itemset's support equals the
                // support of its closure, which must be among the closed sets.
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                let closed = closed_itemsets(&d, 1);
                for f in mine_patterns(&d, 1).to_frequent_itemsets() {
                    let c = d.closure(&f.items);
                    prop_assert!(closed.iter().any(|g| g.items == c && g.support == f.support));
                }
            }
        }
    }
}
