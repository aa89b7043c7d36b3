//! `so_bma_series` fans its checkpoints out over worker threads. Its rows
//! must not depend on that: they must equal a plain sequential map of
//! `so_bma_matching` + `static_routing_cost` over the checkpoints, in the
//! caller's order, for any checkpoint list (unsorted, duplicated, past the
//! end of the trace, empty) and any `b`, and whatever else competes for
//! the cores while it runs.

use dcn_core::algorithms::static_offline::{so_bma_matching, so_bma_series, static_routing_cost};
use dcn_core::sweep::steal_map;
use dcn_topology::{builders, DistanceMatrix, Pair};
use proptest::prelude::*;

/// Deterministic skewed trace from an xorshift stream, so SO-BMA's
/// `count · (ℓ − 1)` weights tie often and blossoms form.
fn make_trace(n: u32, len: usize, seed: u64) -> Vec<Pair> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..len)
        .map(|_| {
            let a = ((next() % n as u64) * (next() % n as u64) / n as u64) as u32;
            let mut b = (next() % n as u64) as u32;
            if a == b {
                b = (b + 1) % n;
            }
            Pair::new(a, b)
        })
        .collect()
}

/// The specification: one checkpoint after another, on this thread.
fn sequential(
    dm: &DistanceMatrix,
    requests: &[Pair],
    b: usize,
    checkpoints: &[usize],
) -> Vec<(usize, u64)> {
    checkpoints
        .iter()
        .map(|&cp| {
            let prefix = &requests[..cp.min(requests.len())];
            let matching = so_bma_matching(dm, prefix, b);
            (cp, static_routing_cost(dm, prefix, &matching))
        })
        .collect()
}

fn fat_tree(racks: usize) -> DistanceMatrix {
    DistanceMatrix::between_racks(&builders::fat_tree_with_racks(racks))
}

#[test]
fn edge_cases_match_the_sequential_map() {
    let dm = fat_tree(16);
    let trace = make_trace(16, 3_000, 11);
    let cases: [(usize, Vec<usize>); 5] = [
        (1, vec![3_000, 500, 1_500, 500, 0]),
        (3, vec![]),
        (2, vec![10_000, 2_999, 3_000, 3_001]),
        (4, vec![1, 1, 1]),
        (
            1,
            vec![200, 400, 600, 800, 1_000, 1_200, 1_400, 1_600, 1_800],
        ),
    ];
    for (b, cps) in cases {
        let got = so_bma_series(&dm, &trace, b, &cps);
        assert_eq!(
            got,
            sequential(&dm, &trace, b, &cps),
            "b={b} checkpoints={cps:?}"
        );
    }
    assert!(so_bma_series(&dm, &[], 2, &[0, 5])
        .iter()
        .all(|&(_, c)| c == 0));
    // Not vacuous: the matchings do serve requests optically.
    let oblivious: u64 = trace.iter().map(|&r| dm.ell(r) as u64).sum();
    assert!(so_bma_series(&dm, &trace, 1, &[3_000])[0].1 < oblivious);
}

#[test]
fn concurrent_callers_see_identical_rows() {
    // Several series at once on more threads than cores: the checkpoint
    // jobs of each are claimed in scheduling-dependent order.
    let dm = fat_tree(16);
    let trace = make_trace(16, 4_000, 5);
    let cps = vec![4_000, 250, 3_000, 1_000, 2_000, 250];
    let expected = sequential(&dm, &trace, 3, &cps);
    for got in steal_map(6, 6, |_| so_bma_series(&dm, &trace, 3, &cps)) {
        assert_eq!(got, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_traces_match_the_sequential_map(
        seed in 0u64..1_000_000,
        len in 0usize..2_000,
        b in 1usize..5,
        cps in prop::collection::vec(0usize..2_500, 0..10),
    ) {
        let dm = fat_tree(16);
        let trace = make_trace(16, len, seed);
        let got = so_bma_series(&dm, &trace, b, &cps);
        prop_assert_eq!(got, sequential(&dm, &trace, b, &cps));
    }
}
