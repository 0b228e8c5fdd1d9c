//! Property tests of the survivor arithmetic on
//! [`tempered_runtime::membership::View`].
//!
//! Ranks keep no survivor list: the live index, the live rank at an
//! index, the ring successor, the collective tree, the coordinator and
//! the live count are all derived from the sorted dead set. These
//! properties pin that arithmetic to the dense survivor vector — `(0..P)`
//! with the dead filtered out — for arbitrary rank counts and dead sets,
//! and check that the termination detector, which reads the same
//! helpers, agrees.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tempered_core::ids::RankId;
use tempered_runtime::collective::Tree;
use tempered_runtime::membership::View;
use tempered_runtime::termination::TerminationDetector;

/// SplitMix64 step: a cheap deterministic stream for picking dead ranks.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `num_ranks` in `1..=4096` and a dead set drawn at `percent` density
/// (0 = nobody dead, 100 = everybody dead).
fn view_strategy() -> impl Strategy<Value = (usize, BTreeSet<RankId>)> {
    (1usize..4097, any::<u64>(), 0u64..101).prop_map(|(num_ranks, seed, percent)| {
        let dead = (0..num_ranks)
            .filter(|&r| mix(seed ^ r as u64) % 100 < percent)
            .map(RankId::from)
            .collect();
        (num_ranks, dead)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn survivor_arithmetic_matches_the_dense_survivor_vector(case in view_strategy()) {
        let (num_ranks, dead) = case;
        let dense: Vec<RankId> = (0..num_ranks)
            .map(RankId::from)
            .filter(|r| !dead.contains(r))
            .collect();
        let mut view = View::new(num_ranks);
        view.merge(&dead);
        prop_assert_eq!(view.num_live(), dense.len());

        for r in (0..num_ranks).map(RankId::from) {
            let want = dense.binary_search(&r).ok().map(RankId::from);
            prop_assert_eq!(view.live_index(r), want);
        }
        for (i, &r) in dense.iter().enumerate() {
            prop_assert_eq!(view.live_rank(RankId::from(i)), r);
            prop_assert_eq!(view.ring_successor(r), dense[(i + 1) % dense.len()]);
            let tree = Tree::new(dense.len(), RankId::new(0));
            let i = RankId::from(i);
            prop_assert_eq!(
                view.tree_parent(r),
                tree.parent(i).map(|p| dense[p.as_usize()])
            );
            let children: Vec<RankId> =
                tree.children(i).iter().map(|c| dense[c.as_usize()]).collect();
            prop_assert_eq!(view.tree_children(r), children);
        }
        if let Some(&first) = dense.first() {
            prop_assert_eq!(view.coordinator(), first);
            // The detector derives its ring and coordinator from the
            // same arithmetic.
            let mut det = TerminationDetector::new(first, num_ranks);
            let _ = det.set_dead(&dead);
            prop_assert_eq!(det.coordinator(), first);
            prop_assert_eq!(det.num_live(), dense.len());
            for r in (0..num_ranks).map(RankId::from) {
                prop_assert_eq!(det.is_dead(r), dead.contains(&r));
            }
        }
    }
}

/// With nobody dead every mapping is the identity.
#[test]
fn fresh_view_arithmetic_is_the_identity() {
    let view = View::new(64);
    for r in (0..64u32).map(RankId::new) {
        assert_eq!(view.live_index(r), Some(r));
        assert_eq!(view.live_rank(r), r);
        assert_eq!(view.ring_successor(r), RankId::new((r.0 + 1) % 64));
        assert_eq!(
            view.tree_children(r),
            Tree::new(64, RankId::new(0)).children(r)
        );
    }
    assert_eq!(view.coordinator(), RankId::new(0));
}
