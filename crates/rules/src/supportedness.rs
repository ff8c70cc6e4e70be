//! Supportedness of drug-ADR associations (thesis §3.3, Defs 3.3.1–3.3.2,
//! Lemma 3.4.2).
//!
//! A drug-ADR association `R ≡ A ⇒ B` is:
//!
//! * **explicitly supported** if some report's complete item content equals
//!   `A ∪ B` (Def. 3.3.1);
//! * **implicitly supported** if `A ∪ B` is the exact shared content of
//!   several reports — the overlap corroborated by more than one report
//!   (Def. 3.3.2);
//! * **unsupported** (a *partial*, potentially misleading association)
//!   otherwise.
//!
//! ### A note on Lemma 3.4.2
//! The thesis states the lemma with the *pairwise* reading of Def. 3.3.2
//! ("two reports t₁, t₂ with `A∪B ≡ content(t₁) ∩ content(t₂)`"). Read
//! literally that lemma is false: for reports `{1,2,3}, {1,2,4}, {1,3,4}`
//! the itemset `{1}` is closed, yet every *pairwise* intersection strictly
//! contains it. The property the closedness filter actually guarantees —
//! and the one that matters for dismissing misleading rules — is the
//! *k-wise* generalization: a closed itemset is either a full report or the
//! exact intersection of **all** reports containing it (k ≥ 2 of them).
//! [`classify`] implements the k-wise reading; [`is_pairwise_implicit`]
//! implements the literal one so the distinction stays testable.

use maras_mining::{ItemSet, TransactionDb};
use maras_tidset::TidSet;

/// How (and whether) the report database supports an association.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Supportedness {
    /// Some report contains exactly these drugs and ADRs (Def. 3.3.1).
    Explicit,
    /// The itemset is the exact common content of the ≥ 2 reports containing
    /// it (k-wise Def. 3.3.2).
    Implicit,
    /// Neither: a partial association that may be misleading (§3.3 type 3).
    Unsupported,
}

/// Classifies an itemset's supportedness against the report database.
pub fn classify(itemset: &ItemSet, db: &TransactionDb) -> Supportedness {
    let cover = db.cover_tids(itemset);
    if cover.is_empty() {
        return Supportedness::Unsupported;
    }
    if cover.iter().any(|&tid| db.transaction(tid) == itemset) {
        return Supportedness::Explicit;
    }
    if cover.len() >= 2 && db.closure(itemset) == *itemset {
        return Supportedness::Implicit;
    }
    Supportedness::Unsupported
}

/// The literal (pairwise) Def. 3.3.2: some two distinct reports whose exact
/// common content is this itemset.
///
/// Every cover member contains the itemset, so for cover members `t1, t2`
/// the pairwise condition collapses to a cardinality check:
/// `content(t1) ∩ content(t2) == S  ⟺  |content(t1) ∩ content(t2)| == |S|`.
/// Each pair is answered by the capped popcount kernel, which bails out of
/// a pair the moment its running count exceeds `|S|` — no intersection is
/// ever materialized, and dense covers (where most pairs share far more
/// than `S`) exit after the first over-full word instead of finishing a
/// full merge per pair.
pub fn is_pairwise_implicit(itemset: &ItemSet, db: &TransactionDb) -> bool {
    let cover = db.cover_tids(itemset);
    let k = itemset.len() as u64;
    // Item ids are strictly ascending within a transaction, so each
    // report's content loads straight into a compressed set.
    let contents: Vec<TidSet> = cover
        .iter()
        .map(|&tid| {
            let mut s = TidSet::new();
            for item in db.transaction(tid).iter() {
                s.push_ascending(item.0);
            }
            s
        })
        .collect();
    for (i, t1) in contents.iter().enumerate() {
        for t2 in &contents[i + 1..] {
            if t1.intersect_count_capped(t2, k) == k {
                return true;
            }
        }
    }
    false
}

/// Whether the itemset is supported at all (explicitly or k-wise
/// implicitly) — the condition Lemma 3.4.2 ties to closedness.
pub fn is_supported(itemset: &ItemSet, db: &TransactionDb) -> bool {
    classify(itemset, db) != Supportedness::Unsupported
}

#[cfg(test)]
mod tests {
    use super::*;
    use maras_mining::{closed_patterns, mine_patterns, Item};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    fn set(ids: &[u32]) -> ItemSet {
        ItemSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn explicit_when_report_matches_exactly() {
        let d = db(&[&[0, 1, 10, 11], &[0, 2, 10]]);
        assert_eq!(classify(&set(&[0, 1, 10, 11]), &d), Supportedness::Explicit);
        assert_eq!(classify(&set(&[0, 2, 10]), &d), Supportedness::Explicit);
    }

    #[test]
    fn implicit_when_shared_by_two_reports() {
        // Thesis §3.3 example: {d1 ⇒ a2}-style partial rule becomes
        // legitimate once a second report shares exactly that content.
        let d = db(&[&[0, 1, 10, 11], &[0, 5, 6, 10]]);
        assert_eq!(classify(&set(&[0, 10]), &d), Supportedness::Implicit);
        assert!(is_pairwise_implicit(&set(&[0, 10]), &d));
    }

    #[test]
    fn partial_reading_is_unsupported() {
        // {1, 11} occurs only inside the single report {0,1,10,11}: partial.
        let d = db(&[&[0, 1, 10, 11]]);
        assert_eq!(classify(&set(&[1, 11]), &d), Supportedness::Unsupported);
        assert_eq!(classify(&set(&[0, 10]), &d), Supportedness::Unsupported);
    }

    #[test]
    fn absent_itemset_is_unsupported() {
        let d = db(&[&[0, 1]]);
        assert_eq!(classify(&set(&[7]), &d), Supportedness::Unsupported);
        assert_eq!(classify(&set(&[0, 7]), &d), Supportedness::Unsupported);
    }

    #[test]
    fn kwise_vs_pairwise_distinction() {
        // The Lemma 3.4.2 counterexample from the module docs: {1} is closed
        // and k-wise implicit, but not pairwise implicit.
        let d = db(&[&[1, 2, 3], &[1, 2, 4], &[1, 3, 4]]);
        assert!(d.is_closed(&set(&[1])));
        assert_eq!(classify(&set(&[1]), &d), Supportedness::Implicit);
        assert!(!is_pairwise_implicit(&set(&[1]), &d));
    }

    #[test]
    fn lemma_3_4_2_closed_implies_supported() {
        let d = db(&[
            &[0, 1, 10, 11],
            &[0, 2, 10],
            &[1, 2, 11, 12],
            &[0, 1, 2, 10],
            &[3, 13],
            &[0, 3, 10, 13],
        ]);
        for f in closed_patterns(&d, 1, 1).0.to_frequent_itemsets() {
            assert!(
                is_supported(&f.items, &d),
                "closed itemset {} classified unsupported",
                f.items
            );
        }
    }

    /// Regression for the old O(T²) full-merge pairwise scan: on a dense
    /// seeded quarter (hundreds of reports all covering the itemset) the
    /// capped-popcount rewrite must agree with the naive definition, in
    /// both polarities.
    #[test]
    fn pairwise_scan_on_dense_seeded_quarter_matches_naive() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2014);
        // 400 reports, every one containing {0, 10} plus scattered noise:
        // the cover of {0, 10} is all 400 reports, the regime where the
        // quadratic scan used to do ~80k full merges.
        let mut rows: Vec<Vec<u32>> = (0..400)
            .map(|_| {
                let mut t = vec![0u32, 10];
                for _ in 0..6 {
                    t.push(rng.gen_range(20..220));
                }
                t
            })
            .collect();
        let naive = |s: &ItemSet, d: &TransactionDb| {
            let cover = d.cover_tids(s);
            cover.iter().enumerate().any(|(i, &t1)| {
                cover[i + 1..]
                    .iter()
                    .any(|&t2| d.transaction(t1).intersection(d.transaction(t2)) == *s)
            })
        };
        let s = set(&[0, 10]);

        // With independent noise, some pair overlaps on exactly {0, 10}.
        let d = db(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
        assert_eq!(is_pairwise_implicit(&s, &d), naive(&s, &d));
        assert!(is_pairwise_implicit(&s, &d));

        // Force every pairwise overlap strictly larger than the itemset:
        // a shared third item makes {0, 10} pairwise-unsupported.
        for t in &mut rows {
            t.push(15);
        }
        let d = db(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
        assert_eq!(is_pairwise_implicit(&s, &d), naive(&s, &d));
        assert!(!is_pairwise_implicit(&s, &d));
        assert!(is_pairwise_implicit(&set(&[0, 10, 15]), &d));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
            proptest::collection::vec(proptest::collection::vec(0u32..10, 1..6), 1..20)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn closed_iff_supported(rows in arb_rows()) {
                // Lemma 3.4.2 and its converse, under the k-wise reading:
                // an itemset with non-zero support is closed exactly when it
                // is explicitly or implicitly supported.
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                for f in mine_patterns(&d, 1).to_frequent_itemsets() {
                    let closed = d.is_closed(&f.items);
                    let supported = is_supported(&f.items, &d);
                    prop_assert_eq!(closed, supported, "itemset {}", f.items);
                }
            }

            #[test]
            fn pairwise_implicit_implies_kwise(rows in arb_rows()) {
                let d = TransactionDb::new(
                    rows.into_iter().map(|t| t.into_iter().map(Item).collect()).collect(),
                );
                for f in mine_patterns(&d, 1).to_frequent_itemsets() {
                    if is_pairwise_implicit(&f.items, &d)
                        && classify(&f.items, &d) == Supportedness::Unsupported
                    {
                        // pairwise implicit must never be classified unsupported
                        prop_assert!(false, "pairwise implicit but unsupported: {}", f.items);
                    }
                }
            }
        }
    }
}
