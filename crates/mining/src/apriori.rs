//! Level-wise Apriori mining — the "traditional association rule mining"
//! baseline (thesis Fig. 5.1 compares its raw rule space against MARAS's
//! filtered and closed spaces) and a second, independently-derived oracle for
//! differential-testing FP-Growth.

use crate::fpgrowth::FrequentItemset;
use crate::items::{Item, ItemSet};
use crate::transactions::TransactionDb;
use rustc_hash::FxHashSet;

/// Mines all frequent itemsets level-wise (Agrawal & Srikant's Apriori).
///
/// Candidate generation joins `L_{k-1}` with itself on a shared
/// `(k-2)`-prefix and prunes candidates with an infrequent `(k-1)`-subset;
/// supports are counted exactly against the database's tid-lists.
pub fn apriori(db: &TransactionDb, min_support: u64) -> Vec<FrequentItemset> {
    let min_support = min_support.max(1);
    let mut out: Vec<FrequentItemset> = Vec::new();

    // L1.
    let mut level: Vec<ItemSet> = {
        let mut singles: Vec<(Item, u64)> = db
            .item_supports()
            .filter(|&(_, s)| s as u64 >= min_support)
            .map(|(i, s)| (i, s as u64))
            .collect();
        singles.sort_unstable_by_key(|&(i, _)| i);
        for &(i, s) in &singles {
            out.push(FrequentItemset { items: ItemSet::singleton(i), support: s });
        }
        singles.into_iter().map(|(i, _)| ItemSet::singleton(i)).collect()
    };

    while !level.is_empty() {
        let prev: FxHashSet<&ItemSet> = level.iter().collect();
        let mut next: Vec<ItemSet> = Vec::new();

        // Join step: pairs sharing all but the last item.
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let a = level[i].items();
                let b = level[j].items();
                let k = a.len();
                if a[..k - 1] != b[..k - 1] {
                    // `level` is sorted lexicographically, so once prefixes
                    // diverge no later j matches either.
                    break;
                }
                let candidate = level[i].with(b[k - 1]);
                // Prune step: every (k)-subset must be frequent.
                let all_frequent =
                    candidate.items().iter().all(|&drop| prev.contains(&candidate.without(drop)));
                if !all_frequent {
                    continue;
                }
                let sup = db.support(&candidate) as u64;
                if sup >= min_support {
                    out.push(FrequentItemset { items: candidate.clone(), support: sup });
                    next.push(candidate);
                }
            }
        }
        next.sort_unstable();
        level = next;
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::mine_patterns;
    use rustc_hash::FxHashMap;

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn as_map(v: Vec<FrequentItemset>) -> FxHashMap<ItemSet, u64> {
        v.into_iter().map(|f| (f.items, f.support)).collect()
    }

    #[test]
    fn small_example() {
        let d = db(&[&[1, 2], &[1, 2, 3], &[1, 3], &[2, 3]]);
        let m = as_map(apriori(&d, 2));
        assert_eq!(m[&ItemSet::from_ids([1])], 3);
        assert_eq!(m[&ItemSet::from_ids([1, 2])], 2);
        assert_eq!(m[&ItemSet::from_ids([2, 3])], 2);
        assert!(!m.contains_key(&ItemSet::from_ids([1, 2, 3])));
    }

    #[test]
    fn empty_and_trivial_dbs() {
        assert!(apriori(&db(&[]), 1).is_empty());
        assert!(apriori(&db(&[&[]]), 1).is_empty());
        let one = apriori(&db(&[&[5]]), 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].support, 1);
    }

    #[test]
    fn three_level_candidate_generation() {
        let d = db(&[&[1, 2, 3, 4], &[1, 2, 3], &[1, 2, 4], &[1, 2, 3, 4]]);
        let m = as_map(apriori(&d, 3));
        assert_eq!(m[&ItemSet::from_ids([1, 2])], 4);
        assert_eq!(m[&ItemSet::from_ids([1, 2, 4])], 3);
        assert!(!m.contains_key(&ItemSet::from_ids([1, 2, 3, 4])));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
            proptest::collection::vec(proptest::collection::vec(0u32..12, 0..6), 0..25)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn apriori_matches_fpgrowth(rows in arb_rows(), ms in 1u64..4) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                prop_assert_eq!(
                    as_map(apriori(&d, ms)),
                    as_map(mine_patterns(&d, ms).to_frequent_itemsets())
                );
            }
        }
    }
}
