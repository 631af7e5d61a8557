//! Property-based tests: the bitset algebra must agree with a reference
//! model built on `std::collections::BTreeSet`.

use proptest::prelude::*;
use sc_bitset::{BitSet, HeapWords, SparseSet};
use std::collections::BTreeSet;

const UNIVERSE: usize = 300;

fn elem() -> impl Strategy<Value = u32> {
    0..UNIVERSE as u32
}

fn elem_vec() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(elem(), 0..64)
}

fn model(v: &[u32]) -> BTreeSet<u32> {
    v.iter().copied().collect()
}

proptest! {
    #[test]
    fn union_matches_model(a in elem_vec(), b in elem_vec()) {
        let mut x = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let y = BitSet::from_iter(UNIVERSE, b.iter().copied());
        x.union_with(&y);
        let want: Vec<u32> = model(&a).union(&model(&b)).copied().collect();
        prop_assert_eq!(x.to_vec(), want);
    }

    #[test]
    fn intersection_matches_model(a in elem_vec(), b in elem_vec()) {
        let mut x = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let y = BitSet::from_iter(UNIVERSE, b.iter().copied());
        let count = x.intersection_count(&y);
        x.intersect_with(&y);
        let want: Vec<u32> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(count, want.len());
        prop_assert_eq!(x.to_vec(), want);
    }

    #[test]
    fn difference_matches_model(a in elem_vec(), b in elem_vec()) {
        let mut x = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let y = BitSet::from_iter(UNIVERSE, b.iter().copied());
        let count = x.difference_count(&y);
        x.difference_with(&y);
        let want: Vec<u32> = model(&a).difference(&model(&b)).copied().collect();
        prop_assert_eq!(count, want.len());
        prop_assert_eq!(x.to_vec(), want);
    }

    #[test]
    fn disjoint_and_subset_match_model(a in elem_vec(), b in elem_vec()) {
        let x = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let y = BitSet::from_iter(UNIVERSE, b.iter().copied());
        let (ma, mb) = (model(&a), model(&b));
        prop_assert_eq!(x.is_disjoint(&y), ma.is_disjoint(&mb));
        prop_assert_eq!(x.is_subset(&y), ma.is_subset(&mb));
    }

    #[test]
    fn ones_sorted_and_complete(a in elem_vec()) {
        let x = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let got = x.to_vec();
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        let want: Vec<u32> = model(&a).into_iter().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(x.first(), x.ones().next());
    }

    #[test]
    fn sparse_dense_agree(a in elem_vec(), b in elem_vec()) {
        let dense = BitSet::from_iter(UNIVERSE, b.iter().copied());
        let sparse = SparseSet::from_unsorted(a.clone());

        let proj = sparse.intersect_dense(&dense);
        let want: Vec<u32> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(proj.as_slice(), &want[..]);
        prop_assert_eq!(sparse.intersection_count_dense(&dense), want.len());

        let mut sub = sparse.clone();
        sub.subtract_dense(&dense);
        let want_sub: Vec<u32> = model(&a).difference(&model(&b)).copied().collect();
        prop_assert_eq!(sub.as_slice(), &want_sub[..]);
    }

    #[test]
    fn sparse_subset_matches_model(a in elem_vec(), b in elem_vec()) {
        let x = SparseSet::from_unsorted(a.clone());
        let y = SparseSet::from_unsorted(b.clone());
        prop_assert_eq!(x.is_subset(&y), model(&a).is_subset(&model(&b)));
    }

    #[test]
    fn intersection_count_slice_matches_per_element_loop(a in elem_vec(), b in elem_vec()) {
        let s = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let mut sorted = b.clone();
        sorted.sort_unstable();
        // The counting kernel contract requires strictly ascending
        // (deduplicated) ids: the span path's per-word masks count a
        // duplicated bit once, the short-slice probe once per copy.
        sorted.dedup();
        let want = sorted.iter().filter(|&&e| s.contains(e)).count();
        prop_assert_eq!(s.intersection_count_slice(&sorted), want);
    }

    #[test]
    fn remove_sorted_slice_matches_per_element_loop(a in elem_vec(), b in elem_vec()) {
        let mut batch = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let mut loop_removed = batch.clone();
        let mut sorted = b.clone();
        sorted.sort_unstable();
        batch.remove_sorted_slice(&sorted);
        for &e in &sorted {
            loop_removed.remove(e);
        }
        prop_assert_eq!(batch.to_vec(), loop_removed.to_vec());
    }

    #[test]
    fn clear_and_set_from_sorted_matches_from_iter(a in elem_vec(), b in elem_vec()) {
        let mut reused = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let mut sorted = b.clone();
        sorted.sort_unstable();
        sorted.dedup();
        reused.clear_and_set_from_sorted(&sorted);
        let fresh = BitSet::from_iter(UNIVERSE, sorted.iter().copied());
        prop_assert_eq!(&reused, &fresh);
        prop_assert_eq!(reused.heap_words(), fresh.heap_words(), "reuse must not grow the footprint");
    }

    #[test]
    fn intersect_sorted_into_matches_filter_loop(a in elem_vec(), b in elem_vec(), stale in elem_vec()) {
        let s = BitSet::from_iter(UNIVERSE, a.iter().copied());
        let mut sorted = b.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // The output buffer starts with stale junk that must vanish.
        let mut out = stale.clone();
        s.intersect_sorted_into(&sorted, &mut out);
        let want: Vec<u32> = sorted.iter().copied().filter(|&e| s.contains(e)).collect();
        prop_assert_eq!(out, want);
    }

    #[test]
    fn insert_remove_maintain_count(ops in proptest::collection::vec((elem(), any::<bool>()), 0..128)) {
        let mut x = BitSet::new(UNIVERSE);
        let mut m: BTreeSet<u32> = BTreeSet::new();
        for (e, add) in ops {
            if add {
                prop_assert_eq!(x.insert(e), m.insert(e));
            } else {
                prop_assert_eq!(x.remove(e), m.remove(&e));
            }
            prop_assert_eq!(x.count(), m.len());
        }
    }
}
