//! **SO-BMA** — the static offline baseline of §3: a maximum-weight
//! matching computed on the *aggregated* demand of the whole (prefix of
//! the) trace, held fixed while the trace replays.
//!
//! The paper implements it with NetworkX's blossom `max_weight_matching`;
//! here the weight of pair `e` is its request count times the per-request
//! saving `ℓ_e − 1`, and a degree-`b` schedule is assembled as `b` rounds of
//! exact matching on the residual demand (see `dcn_matching::repeated` for
//! why that is the physically faithful construction). Being offline *and*
//! static, SO-BMA pays no reconfiguration cost but cannot adapt — which is
//! exactly the trade-off Figs. 1c–4c probe: it wins on temporally
//! structureless (i.i.d.) traffic and loses ground on bursty traffic.

use crate::sweep::steal_map;
use dcn_matching::{repeated::repeated_mwm_b_matching, WeightedEdge};
use dcn_topology::{DistanceMatrix, Pair};
use dcn_util::{FxHashMap, FxHashSet};

/// Aggregates demand and returns the weighted candidate edges
/// (`weight = count · (ℓ_e − 1)`, i.e. the total routing cost saved by
/// serving the pair optically).
pub fn demand_edges(dm: &DistanceMatrix, requests: &[Pair]) -> Vec<WeightedEdge> {
    let mut counts: FxHashMap<Pair, i64> = FxHashMap::default();
    for &r in requests {
        *counts.entry(r).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .filter_map(|(pair, cnt)| {
            let saving = (dm.ell(pair) as i64 - 1) * cnt;
            (saving > 0).then(|| WeightedEdge::new(pair.lo(), pair.hi(), saving))
        })
        .collect()
}

/// Computes SO-BMA's static b-matching for the given request prefix.
pub fn so_bma_matching(dm: &DistanceMatrix, requests: &[Pair], b: usize) -> Vec<Pair> {
    let edges = demand_edges(dm, requests);
    repeated_mwm_b_matching(dm.num_racks(), &edges, b)
}

/// Routing cost of replaying `requests` against a *static* matching.
pub fn static_routing_cost(dm: &DistanceMatrix, requests: &[Pair], matching: &[Pair]) -> u64 {
    let in_m: FxHashSet<Pair> = matching.iter().copied().collect();
    requests
        .iter()
        .map(|r| {
            if in_m.contains(r) {
                1
            } else {
                dm.ell(*r) as u64
            }
        })
        .sum()
}

/// SO-BMA evaluated at a sequence of checkpoints: for each prefix length,
/// the matching is recomputed on that prefix's demand (clairvoyant up to the
/// checkpoint, as in the paper's figures) and the prefix is replayed.
/// Returns `(checkpoint, routing_cost)` rows in `checkpoints` order.
///
/// Checkpoints are independent jobs, fanned out on [`steal_map`] over all
/// cores, longest prefix first so the heaviest solves never trail the
/// fan-out. Each job is deterministic, so the rows do not depend on the
/// thread count.
pub fn so_bma_series(
    dm: &DistanceMatrix,
    requests: &[Pair],
    b: usize,
    checkpoints: &[usize],
) -> Vec<(usize, u64)> {
    let prefix = |i: usize| &requests[..checkpoints[i].min(requests.len())];
    let mut order: Vec<usize> = (0..checkpoints.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(prefix(i).len()));
    let costs = steal_map(order.len(), 0, |k| {
        let requests = prefix(order[k]);
        static_routing_cost(dm, requests, &so_bma_matching(dm, requests, b))
    });
    let mut rows = vec![(0, 0); checkpoints.len()];
    for (&i, cost) in order.iter().zip(costs) {
        rows[i] = (checkpoints[i], cost);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_matching::bmatching::is_valid_b_matching;

    fn uniform_far(n: usize) -> DistanceMatrix {
        // Leaf-spine: all pairs at distance 2 -> every pair saves 1/request.
        let net = dcn_topology::builders::leaf_spine(n, 2);
        DistanceMatrix::between_racks(&net)
    }

    #[test]
    fn picks_heaviest_pairs() {
        let dm = uniform_far(4);
        let reqs: Vec<Pair> = [(0u32, 1u32); 10]
            .iter()
            .map(|&(a, b)| Pair::new(a, b))
            .chain(std::iter::once(Pair::new(2, 3)))
            .collect();
        let m = so_bma_matching(&dm, &reqs, 1);
        assert!(m.contains(&Pair::new(0, 1)));
        assert!(is_valid_b_matching(&m, 1));
    }

    #[test]
    fn static_cost_counts_matched_as_one() {
        let dm = uniform_far(4);
        let reqs = vec![Pair::new(0, 1), Pair::new(0, 1), Pair::new(2, 3)];
        let cost = static_routing_cost(&dm, &reqs, &[Pair::new(0, 1)]);
        // 1 + 1 + 2.
        assert_eq!(cost, 4);
    }

    #[test]
    fn series_monotone_in_prefix() {
        let dm = uniform_far(6);
        let reqs: Vec<Pair> = (0..300u32)
            .map(|i| Pair::new(i % 6, (i % 5 + 1 + i % 6) % 6))
            .filter(|p| p.lo() != p.hi())
            .collect();
        let series = so_bma_series(&dm, &reqs, 2, &[50, 100, 200]);
        assert_eq!(series.len(), 3);
        assert!(series[0].1 <= series[1].1 && series[1].1 <= series[2].1);
    }

    #[test]
    fn beats_oblivious_on_skewed_demand() {
        let dm = uniform_far(8);
        // 90% of traffic on 4 disjoint pairs.
        let mut reqs = Vec::new();
        for i in 0..1000u32 {
            let p = match i % 10 {
                0 => Pair::new(1, 6),
                _ => Pair::new((i % 4) * 2, (i % 4) * 2 + 1),
            };
            reqs.push(p);
        }
        let m = so_bma_matching(&dm, &reqs, 1);
        let so = static_routing_cost(&dm, &reqs, &m);
        let oblivious: u64 = reqs.iter().map(|r| dm.ell(*r) as u64).sum();
        assert!(
            so < oblivious * 6 / 10,
            "SO-BMA {so} should clearly beat oblivious {oblivious}"
        );
    }

    #[test]
    fn zero_saving_pairs_ignored() {
        // Complete graph: ℓ = 1 everywhere; no pair is worth matching.
        let net = dcn_topology::builders::complete(5);
        let dm = DistanceMatrix::between_racks(&net);
        let reqs = vec![Pair::new(0, 1); 50];
        assert!(demand_edges(&dm, &reqs).is_empty());
        assert!(so_bma_matching(&dm, &reqs, 2).is_empty());
    }
}
