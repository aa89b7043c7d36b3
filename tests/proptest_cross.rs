//! Property-based integration tests across crates: random traces, random
//! parameters — the invariants must hold for *all* of them.

use proptest::prelude::*;
use rdcn::core::algorithms::AlgorithmKind;
use rdcn::core::{run, SimConfig};
use rdcn::matching::blossom::max_weight_matching_pairs;
use rdcn::matching::brute::brute_force_max_weight_b_matching;
use rdcn::matching::greedy::matching_weight;
use rdcn::matching::WeightedEdge;
use rdcn::topology::{builders, DistanceMatrix, Pair};
use rdcn::traces::Trace;
use std::sync::Arc;

/// Strategy: a random trace over `n` racks.
fn trace_strategy(n: u32, max_len: usize) -> impl Strategy<Value = Vec<Pair>> {
    prop::collection::vec((0..n, 0..n - 1), 1..max_len).prop_map(move |raw| {
        raw.into_iter()
            .map(|(a, b)| {
                let b = if b >= a { b + 1 } else { b };
                Pair::new(a, b)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_scheduler_respects_invariants_on_random_traces(
        requests in trace_strategy(12, 600),
        b in 1usize..5,
        alpha in 1u64..20,
        seed in 0u64..1000,
        lazy in any::<bool>(),
    ) {
        let net = builders::fat_tree_with_racks(12);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let trace = Trace::new(12, requests, "prop");
        for algorithm in [
            AlgorithmKind::Rbma { lazy },
            AlgorithmKind::Bma,
        ] {
            let mut s = algorithm.build_online(dm.clone(), b, alpha, seed);
            let config = SimConfig { verify_every: 97, ..Default::default() };
            let report = run(s.as_mut(), &dm, alpha, &trace.requests, &config);
            s.matching().assert_valid();
            // Degree bound.
            for v in 0..12u32 {
                prop_assert!(s.matching().degree(v) <= b);
            }
            // Cost decomposition: ℓ ∈ {2, 4} on a fat-tree, so routing cost
            // is bounded between the all-matched and all-remote extremes.
            let t = report.total;
            prop_assert!(t.routing_cost >= t.requests);
            prop_assert!(t.routing_cost <= 4 * t.requests);
            prop_assert_eq!(t.reconfig_cost, alpha * t.reconfigurations);
            // Matching size consistent with net reconfigurations: adds -
            // removes == |M| (every change was reported).
            prop_assert!(t.reconfigurations >= s.matching().len() as u64);
        }
    }

    #[test]
    fn blossom_equals_brute_force_on_random_weighted_graphs(
        edges in prop::collection::vec((0u32..7, 0u32..6, 1i64..50), 1..16),
    ) {
        let mut seen = std::collections::HashSet::new();
        let edges: Vec<WeightedEdge> = edges
            .into_iter()
            .map(|(a, b, w)| {
                let b = if b >= a { b + 1 } else { b };
                (a.min(b), a.max(b), w)
            })
            .filter(|&(a, b, _)| seen.insert((a, b)))
            .map(|(a, b, w)| WeightedEdge::new(a, b, w))
            .collect();
        prop_assume!(!edges.is_empty());
        let pairs = max_weight_matching_pairs(7, &edges);
        let got = matching_weight(&pairs, &edges);
        let (opt, _) = brute_force_max_weight_b_matching(7, &edges, 1);
        prop_assert_eq!(got, opt);
    }

    #[test]
    fn rotor_serves_every_pair_eventually(
        n in 4usize..10,
        period in 1u64..20,
    ) {
        let n = n - (n % 2); // even racks
        prop_assume!(n >= 4);
        let mut rotor = rdcn::core::algorithms::rotor::Rotor::new(n, 1, period);
        use rdcn::core::OnlineScheduler;
        // Request one fixed pair long enough to cover a full rotation.
        let pair = Pair::new(0, 1);
        let rounds = n - 1;
        let horizon = period as usize * rounds * 2 + 1;
        let mut hits = 0u64;
        for _ in 0..horizon {
            hits += rotor.serve(pair).was_matched as u64;
        }
        // The pair's round is active b/rounds of the time.
        prop_assert!(hits > 0, "pair never served over a full rotation");
    }
}
