//! Property tests for the matching substrate: the blossom matcher against
//! ground truth, structural invariants of every matcher, and the coloring
//! pipeline end to end.

use dcn_matching::blossom::max_weight_matching_pairs;
use dcn_matching::bmatching::{is_valid_b_matching, BMatching};
use dcn_matching::brute::brute_force_max_weight_b_matching;
use dcn_matching::coloring::{assign_switches, validate_coloring};
use dcn_matching::greedy::{greedy_b_matching, matching_weight};
use dcn_matching::repeated::repeated_mwm_b_matching;
use dcn_matching::WeightedEdge;
use dcn_topology::Pair;
use proptest::prelude::*;

/// Random simple weighted graph on up to `n` vertices.
fn weighted_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<WeightedEdge>> {
    prop::collection::vec((0..n, 0..n - 1, 1i64..100), 0..max_edges).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .map(|(a, b, w)| {
                let b = if b >= a { b + 1 } else { b };
                (a.min(b), a.max(b), w)
            })
            .filter(|&(a, b, _)| seen.insert((a, b)))
            .map(|(a, b, w)| WeightedEdge::new(a, b, w))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blossom_optimal_and_valid(edges in weighted_graph(8, 20)) {
        prop_assume!(!edges.is_empty());
        let pairs = max_weight_matching_pairs(8, &edges);
        prop_assert!(is_valid_b_matching(&pairs, 1), "blossom output is not a matching");
        let got = matching_weight(&pairs, &edges);
        let (opt, _) = brute_force_max_weight_b_matching(8, &edges, 1);
        prop_assert_eq!(got, opt, "blossom {} != brute force {}", got, opt);
    }

    #[test]
    fn greedy_half_approximation(edges in weighted_graph(9, 20), b in 1usize..4) {
        let m = greedy_b_matching(9, &edges, b);
        prop_assert!(is_valid_b_matching(&m, b));
        let got = matching_weight(&m, &edges);
        let (opt, _) = brute_force_max_weight_b_matching(9, &edges, b);
        prop_assert!(2 * got >= opt, "greedy {} below half of optimum {}", got, opt);
    }

    #[test]
    fn repeated_mwm_valid_and_bounded(edges in weighted_graph(9, 20), b in 1usize..4) {
        let m = repeated_mwm_b_matching(9, &edges, b);
        prop_assert!(is_valid_b_matching(&m, b));
        let got = matching_weight(&m, &edges);
        let (opt, _) = brute_force_max_weight_b_matching(9, &edges, b);
        prop_assert!(got <= opt);
        // Round 1 alone is an exact matching ≥ opt/b.
        prop_assert!((b as i64) * got >= opt, "{} rounds yielded {} < opt/b of {}", b, got, opt);
    }

    #[test]
    fn coloring_pipeline_on_scheduler_like_matchings(
        edges in prop::collection::vec((0u32..16, 0u32..15), 0..40),
        b in 1usize..5,
    ) {
        // Build a b-matching greedily from the raw pairs.
        let mut m = BMatching::new(16, b);
        for (a, raw_b) in edges {
            let v = if raw_b >= a { raw_b + 1 } else { raw_b };
            let _ = m.try_insert(Pair::new(a, v));
        }
        let pairs: Vec<Pair> = m.edges().collect();
        let switches = assign_switches(16, &pairs);
        prop_assert!(switches.len() <= b + 1, "Vizing bound violated");
        let colors: Vec<u32> = {
            // Rebuild the color list from the switch assignment.
            let mut map = std::collections::HashMap::new();
            for (c, sw) in switches.iter().enumerate() {
                for e in sw {
                    map.insert(*e, c as u32);
                }
            }
            pairs.iter().map(|e| map[e]).collect()
        };
        prop_assert!(validate_coloring(&pairs, &colors).is_ok());
        for sw in &switches {
            prop_assert!(is_valid_b_matching(sw, 1), "switch carries a non-matching");
        }
    }

    #[test]
    fn bmatching_model_based(ops in prop::collection::vec((0u32..10, 0u32..9, any::<bool>()), 1..200)) {
        // Model: a reference HashSet + degree map mirrors BMatching.
        let b = 2;
        let mut m = BMatching::new(10, b);
        let mut reference: std::collections::HashSet<Pair> = Default::default();
        let mut degree = [0usize; 10];
        for (a, raw, insert) in ops {
            let v = if raw >= a { raw + 1 } else { raw };
            let pair = Pair::new(a, v);
            if insert {
                let expect = !reference.contains(&pair)
                    && degree[pair.lo() as usize] < b
                    && degree[pair.hi() as usize] < b;
                prop_assert_eq!(m.try_insert(pair), expect);
                if expect {
                    reference.insert(pair);
                    degree[pair.lo() as usize] += 1;
                    degree[pair.hi() as usize] += 1;
                }
            } else {
                let expect = reference.remove(&pair);
                if expect {
                    degree[pair.lo() as usize] -= 1;
                    degree[pair.hi() as usize] -= 1;
                }
                prop_assert_eq!(m.remove(pair), expect);
            }
            prop_assert_eq!(m.len(), reference.len());
        }
        m.assert_valid();
        for v in 0..10u32 {
            prop_assert_eq!(m.degree(v), degree[v as usize]);
        }
    }

    #[test]
    fn remove_at_reported_positions_equals_remove(
        inserts in prop::collection::vec((0u32..10, 0u32..9), 1..120),
        removals in prop::collection::vec(any::<u32>(), 1..40),
        b in 1usize..5,
    ) {
        // Two copies of one matching: one removes by pair (`remove`), the
        // other at the positions `position()` reports (`remove_at`). Every
        // block must hold the same edges in the same order after each
        // removal — swap-remove order is what R-BMA's lazy prune scans.
        let mut by_pair = BMatching::new(10, b);
        for (a, raw) in inserts {
            let v = if raw >= a { raw + 1 } else { raw };
            let _ = by_pair.try_insert(Pair::new(a, v));
        }
        let mut by_pos = by_pair.clone();
        for pick in removals {
            let edges: Vec<Pair> = by_pair.edges().collect();
            if edges.is_empty() {
                break;
            }
            let e = edges[pick as usize % edges.len()];
            let pos_lo = by_pos.position(e.lo(), e).expect("edge in lo block");
            let pos_hi = by_pos.position(e.hi(), e).expect("edge in hi block");
            by_pos.remove_at(e, pos_lo, pos_hi);
            prop_assert!(by_pair.remove(e));
            prop_assert_eq!(by_pos.len(), by_pair.len());
            for v in 0..10u32 {
                prop_assert_eq!(by_pos.incident_edges(v), by_pair.incident_edges(v));
            }
        }
        by_pos.assert_valid();
    }
}
