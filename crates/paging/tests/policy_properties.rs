//! Property-based tests applied uniformly to *every* paging policy: the
//! model invariants of fetch-on-fault paging must hold on arbitrary request
//! sequences, interleaved with arbitrary invalidations.

use dcn_paging::{Belady, Fifo, Lru, Marking, PageId, PagingPolicy};
use proptest::prelude::*;

fn policies(cap: usize, seq: &[PageId]) -> Vec<(&'static str, Box<dyn PagingPolicy>)> {
    vec![
        ("lru", Box::new(Lru::new(cap))),
        ("fifo", Box::new(Fifo::new(cap))),
        ("marking", Box::new(Marking::new(cap, 42))),
        ("belady", Box::new(Belady::new(cap, seq))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_policies_satisfy_model_invariants(
        seq in prop::collection::vec(0u64..20, 1..400),
        cap in 1usize..8,
    ) {
        for (name, mut policy) in policies(cap, &seq) {
            let mut faults = 0u64;
            for &p in &seq {
                let before = policy.contains(p);
                let acc = policy.access(p);
                // Fault iff the page was absent.
                prop_assert_eq!(acc.is_fault(), !before, "{}: fault/contains mismatch", name);
                // Fetch-on-fault: page present afterwards.
                prop_assert!(policy.contains(p), "{}: page absent after access", name);
                // Capacity.
                prop_assert!(policy.len() <= cap, "{}: capacity exceeded", name);
                // Evicted pages are gone and were distinct from the request.
                for &e in acc.evicted() {
                    prop_assert!(!policy.contains(e), "{}: evicted page still cached", name);
                    prop_assert!(e != p, "{}: evicted the requested page", name);
                }
                faults += acc.is_fault() as u64;
            }
            // Cold-start lower bound: at least min(distinct, cap) faults.
            let distinct = seq.iter().collect::<std::collections::HashSet<_>>().len();
            prop_assert!(
                faults as usize >= distinct.min(cap),
                "{}: too few faults", name
            );
            // cached_pages agrees with len.
            prop_assert_eq!(policy.cached_pages().len(), policy.len(), "{}", name);
        }
    }

    #[test]
    fn invalidate_keeps_policies_consistent(
        ops in prop::collection::vec((0u64..12, any::<bool>()), 1..300),
        cap in 1usize..6,
    ) {
        // Belady excluded: invalidation breaks its fixed-sequence contract.
        let seq: Vec<PageId> = ops.iter().map(|&(p, _)| p).collect();
        for (name, mut policy) in policies(cap, &seq).into_iter().filter(|(n, _)| *n != "belady") {
            for &(p, invalidate_after) in &ops {
                policy.access(p);
                if invalidate_after {
                    let was = policy.contains(p);
                    let removed = policy.invalidate(p);
                    prop_assert_eq!(removed, was, "{}: invalidate return value", name);
                    prop_assert!(!policy.contains(p), "{}: page alive after invalidate", name);
                }
                prop_assert!(policy.len() <= cap, "{}: capacity after invalidate", name);
            }
        }
    }

    #[test]
    fn belady_lower_bounds_every_policy(
        seq in prop::collection::vec(0u64..10, 10..300),
        cap in 1usize..6,
    ) {
        let opt = Belady::total_faults(cap, &seq);
        for (name, mut policy) in policies(cap, &seq).into_iter().filter(|(n, _)| *n != "belady") {
            let mut faults = 0u64;
            for &p in &seq {
                faults += policy.access(p).is_fault() as u64;
            }
            prop_assert!(
                faults >= opt,
                "{name}: {faults} faults below OPT {opt} — Belady not optimal?"
            );
        }
    }

    #[test]
    fn reset_restores_initial_behaviour(
        seq in prop::collection::vec(0u64..15, 1..200),
        cap in 1usize..6,
    ) {
        for (name, mut policy) in policies(cap, &seq) {
            let first: Vec<bool> = seq.iter().map(|&p| policy.access(p).is_fault()).collect();
            policy.reset();
            prop_assert_eq!(policy.len(), 0, "{}: reset left pages", name);
            let second: Vec<bool> = seq.iter().map(|&p| policy.access(p).is_fault()).collect();
            // Deterministic policies replay identically; randomized marking
            // may diverge after the first eviction, so only the
            // deterministic ones get the strong check.
            if name != "marking" {
                prop_assert_eq!(&first, &second, "{}: replay after reset differs", name);
            }
        }
    }
}
