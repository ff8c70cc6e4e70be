//! Property suite: every `TidSet` kernel must agree with the naive
//! `BTreeSet<u32>` model, across array/bitmap/mixed container regimes
//! and chunk boundaries, including the empty-set and single-chunk edges.

use maras_tidset::{TidSet, ARRAY_MAX};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Raw material for one set: a mix of dense runs (which cross the 4096
/// array→bitmap threshold and the 2^16 chunk boundary) and sparse
/// scatter, so generated sets exercise array, bitmap, and mixed layouts.
fn dense_run() -> impl Strategy<Value = Vec<u32>> {
    (0u32..200_000, 0usize..(ARRAY_MAX * 2 + 500))
        .prop_map(|(start, len)| (start..start.saturating_add(len as u32)).collect::<Vec<u32>>())
}

fn tid_pool() -> impl Strategy<Value = Vec<u32>> {
    let sparse = proptest::collection::vec(0u32..300_000, 0..60);
    let single_chunk = proptest::collection::vec(0u32..200, 0..40);
    prop_oneof![
        sparse.boxed(),
        dense_run().boxed(),
        (dense_run(), proptest::collection::vec(0u32..300_000, 0..40))
            .prop_map(|(mut run, scatter)| {
                run.extend(scatter);
                run
            })
            .boxed(),
        single_chunk.boxed(),
        Just(Vec::new()).boxed(),
    ]
}

fn build(tids: Vec<u32>) -> (TidSet, BTreeSet<u32>) {
    let model: BTreeSet<u32> = tids.into_iter().collect();
    let sorted: Vec<u32> = model.iter().copied().collect();
    (TidSet::from_sorted(&sorted), model)
}

proptest! {
    #[test]
    fn build_matches_model(tids in tid_pool()) {
        let (set, model) = build(tids);
        prop_assert_eq!(set.len(), model.len() as u64);
        prop_assert_eq!(set.is_empty(), model.is_empty());
        prop_assert_eq!(set.to_vec(), model.iter().copied().collect::<Vec<u32>>());
        prop_assert_eq!(set.iter().collect::<Vec<u32>>(), set.to_vec());
        prop_assert_eq!(set.last(), model.iter().next_back().copied());
        for probe in [0u32, 1, 4_095, 4_096, 65_535, 65_536, 131_071, 299_999] {
            prop_assert_eq!(set.contains(probe), model.contains(&probe));
        }
    }

    #[test]
    fn pairwise_kernels_match_model(a in tid_pool(), b in tid_pool()) {
        let (sa, ma) = build(a);
        let (sb, mb) = build(b);
        let inter: Vec<u32> = ma.intersection(&mb).copied().collect();
        let uni: Vec<u32> = ma.union(&mb).copied().collect();
        prop_assert_eq!(sa.intersect(&sb).to_vec(), inter.clone());
        prop_assert_eq!(sb.intersect(&sa).to_vec(), inter.clone());
        prop_assert_eq!(sa.intersect_count(&sb), inter.len() as u64);
        prop_assert_eq!(sa.union(&sb).to_vec(), uni.clone());
        prop_assert_eq!(sb.union(&sa).to_vec(), uni);
        // The capped count is exact at or under the cap and strictly
        // over the cap otherwise.
        for cap in [0u64, 1, 3, inter.len() as u64, u64::MAX] {
            let got = sa.intersect_count_capped(&sb, cap);
            if inter.len() as u64 <= cap {
                prop_assert_eq!(got, inter.len() as u64);
            } else {
                prop_assert!(got > cap);
                prop_assert!(got <= inter.len() as u64);
            }
        }
    }

    #[test]
    fn k_way_matches_model(a in tid_pool(), b in tid_pool(), c in tid_pool()) {
        let (sa, ma) = build(a);
        let (sb, mb) = build(b);
        let (sc, mc) = build(c);
        let expected: Vec<u32> =
            ma.iter().filter(|t| mb.contains(t) && mc.contains(t)).copied().collect();
        let sets = [&sa, &sb, &sc];
        prop_assert_eq!(TidSet::intersect_k(&sets).to_vec(), expected.clone());
        prop_assert_eq!(TidSet::intersect_count_k(&sets), expected.len() as u64);
        // Order must not matter.
        prop_assert_eq!(TidSet::intersect_k(&[&sc, &sa, &sb]).to_vec(), expected);
    }
}

#[test]
fn empty_set_edges() {
    let empty = TidSet::new();
    let one = TidSet::from_sorted(&[7]);
    assert!(empty.intersect(&one).is_empty());
    assert!(one.intersect(&empty).is_empty());
    assert_eq!(empty.intersect_count(&one), 0);
    assert_eq!(empty.union(&one).to_vec(), vec![7]);
    assert_eq!(empty.last(), None);
    assert!(TidSet::intersect_k(&[&empty, &empty]).is_empty());
}

#[test]
fn threshold_boundary_representations() {
    // Exactly at, one under, and one over the array→bitmap threshold.
    for n in [ARRAY_MAX as u32 - 1, ARRAY_MAX as u32, ARRAY_MAX as u32 + 1] {
        let tids: Vec<u32> = (0..n).collect();
        let set = TidSet::from_sorted(&tids);
        assert_eq!(set.to_vec(), tids);
        assert_eq!(set.intersect(&set).to_vec(), tids);
        assert_eq!(set.intersect_count(&set), n as u64);
        assert_eq!(set.union(&set).to_vec(), tids);
        let expect_bitmap = n as usize > ARRAY_MAX;
        let (arrays, bitmaps) = set.container_mix();
        assert_eq!((arrays, bitmaps), if expect_bitmap { (0, 1) } else { (1, 0) });
    }
}
