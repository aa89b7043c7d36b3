//! Adversarial fitness: an online algorithm's total cost relative to the
//! static offline baseline (SO-BMA, §3) on the *same* trace.
//!
//! The ratio `total_cost(ALG) / routing_cost(SO-BMA)` is the natural
//! severity measure for adversarial trace search: SO-BMA pays no
//! reconfiguration cost and sees the whole trace in advance, so a high
//! ratio means the trace genuinely exploits the online algorithm's
//! weakness (forced reconfigurations, mispredicted recency) rather than
//! merely being expensive for everyone. The lower-bound construction of
//! §2.4 manifests exactly this way: on the star nemesis every
//! deterministic algorithm's ratio grows with `b`, which is what the
//! adversary search tries to rediscover — and beat — automatically.

use crate::algorithms::{static_offline, AlgorithmKind};
use crate::report::RunReport;
use crate::simulator::{run, SimConfig};
use dcn_topology::DistanceMatrix;
use dcn_traces::Trace;
use std::sync::Arc;

/// One fitness evaluation: the online run, the offline denominator, and
/// their ratio.
#[derive(Clone, Debug)]
pub struct RatioOutcome {
    /// Full report of the online run (checkpoints per [`SimConfig`]).
    pub online: RunReport,
    /// SO-BMA's routing cost on the same trace, clamped to ≥ 1 so the
    /// ratio is always finite (a zero-cost trace means every request was
    /// matched, which only happens on degenerate inputs).
    pub offline_cost: u64,
    /// `online.total.total_cost() / offline_cost`.
    pub ratio: f64,
}

/// Runs `kind` over `trace` and divides its total cost by SO-BMA's
/// routing cost on the same trace.
///
/// The trace must be materialized: the offline baseline aggregates the
/// whole sequence. `config.checkpoints` and friends pass through to the
/// online run unchanged.
pub fn cost_ratio_vs_static(
    kind: &AlgorithmKind,
    dm: &Arc<DistanceMatrix>,
    b: usize,
    alpha: u64,
    seed: u64,
    trace: &Trace,
    config: &SimConfig,
) -> RatioOutcome {
    let requests = trace.prefix(trace.len());
    let mut scheduler = kind.build_online(dm.clone(), b, alpha, seed);
    let online = run(&mut *scheduler, dm, alpha, trace, config);
    let matching = static_offline::so_bma_matching(dm, requests, b);
    let offline_cost = static_offline::static_routing_cost(dm, requests, &matching).max(1);
    let ratio = online.total.total_cost() as f64 / offline_cost as f64;
    RatioOutcome {
        online,
        offline_cost,
        ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{builders, Pair};
    use dcn_traces::{star_uniform_source, uniform_trace, RequestSource};

    fn setup(n: usize) -> Arc<DistanceMatrix> {
        Arc::new(DistanceMatrix::between_racks(&builders::leaf_spine(n, 2)))
    }

    #[test]
    fn ratio_is_total_over_offline() {
        let dm = setup(8);
        let trace = uniform_trace(8, 500, 11);
        let out = cost_ratio_vs_static(
            &AlgorithmKind::Bma,
            &dm,
            2,
            10,
            0,
            &trace,
            &SimConfig::default(),
        );
        assert!(out.offline_cost >= 1);
        let expect = out.online.total.total_cost() as f64 / out.offline_cost as f64;
        assert!((out.ratio - expect).abs() < 1e-12);
        assert!(out.ratio > 0.0);
    }

    #[test]
    fn ratio_is_deterministic_for_fixed_inputs() {
        let dm = setup(8);
        let trace = uniform_trace(8, 400, 7);
        let kind = AlgorithmKind::Rbma { lazy: true };
        let a = cost_ratio_vs_static(&kind, &dm, 2, 10, 3, &trace, &SimConfig::default());
        let b = cost_ratio_vs_static(&kind, &dm, 2, 10, 3, &trace, &SimConfig::default());
        assert_eq!(a.online.total.total_cost(), b.online.total.total_cost());
        assert_eq!(a.offline_cost, b.offline_cost);
        assert_eq!(a.ratio, b.ratio);
    }

    #[test]
    fn star_nemesis_ratio_exceeds_one_for_bma() {
        // On the §2.4 lower-bound construction the online algorithm pays
        // reconfigurations and mispredictions the clairvoyant static
        // baseline never does, so its ratio must be strictly above 1.
        let b = 2;
        let spokes = b + 1;
        let dm = setup(spokes + 1);
        let alpha = 10;
        let star = star_uniform_source(spokes, alpha as usize, 50, 21).materialize();
        let out = cost_ratio_vs_static(
            &AlgorithmKind::Bma,
            &dm,
            b,
            alpha,
            0,
            &star,
            &SimConfig::default(),
        );
        assert!(out.ratio > 1.0, "ratio {}", out.ratio);
    }

    #[test]
    fn offline_cost_clamps_to_one() {
        // A trace whose every request lands in the static matching gives
        // SO-BMA routing cost = len (all cost 1), never 0 — but a trivial
        // single-pair trace exercises the clamp path closest: offline cost
        // is len ≥ 1 and the ratio stays finite.
        let dm = setup(4);
        let reqs = vec![Pair::new(0, 1); 50];
        let trace = Trace::new(4, reqs, "const");
        let out = cost_ratio_vs_static(
            &AlgorithmKind::Oblivious,
            &dm,
            1,
            5,
            0,
            &trace,
            &SimConfig::default(),
        );
        assert!(out.offline_cost >= 1);
        assert!(out.ratio.is_finite());
    }
}
