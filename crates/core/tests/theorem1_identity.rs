//! Theorem 1's special cadence, checked against the trace itself rather
//! than against another serve path: in R-BMA every `k_e`-th request to a
//! pair `e` is special, with `k_e = ⌈α/ℓ_e⌉`, so after a run the
//! `rbma.specials` telemetry counter must equal `Σ_e ⌊c_e / k_e⌋`, where
//! `c_e` is the number of requests to `e` in the trace. The sum is computed
//! straight from the trace and the `DistanceMatrix`; the cadence does not
//! depend on the removal mode or on the batch size.

mod common;

use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
use dcn_core::{run, OnlineScheduler, RunReport, SimConfig};
use dcn_telemetry::Telemetry;
use dcn_topology::{builders, DistanceMatrix, NodeId, Pair};
use dcn_traces::RequestSource;
use std::collections::HashMap;
use std::sync::Arc;

/// `Σ_e ⌊c_e / ⌈α/ℓ_e⌉⌋` over the pairs of `trace`.
fn predicted_specials(trace: &[Pair], dm: &DistanceMatrix, alpha: u64) -> u64 {
    let mut counts: HashMap<Pair, u64> = HashMap::new();
    for &pair in trace {
        *counts.entry(pair).or_default() += 1;
    }
    counts
        .iter()
        .map(|(&pair, &c)| c / alpha.div_ceil(dm.ell(pair).max(1) as u64))
        .sum()
}

/// Runs R-BMA over `trace`; returns its report and `rbma.specials` count,
/// after checking the final matching's invariants.
fn run_counted(
    trace: &[Pair],
    dm: &Arc<DistanceMatrix>,
    alpha: u64,
    mode: RemovalMode,
    batch: usize,
) -> (RunReport, u64) {
    let sink = Telemetry::enabled();
    let config = SimConfig::default()
        .with_batch_size(batch)
        .with_telemetry(sink.clone());
    let mut rbma = Rbma::new(Arc::clone(dm), 4, alpha, mode, 11);
    let report = run(&mut rbma, dm, alpha, trace, &config);
    rbma.matching().assert_valid();
    let specials = sink
        .snapshot()
        .counters
        .get("rbma.specials")
        .copied()
        .unwrap_or(0);
    (report, specials)
}

#[test]
fn specials_equal_the_theorem_1_sum() {
    if !dcn_telemetry::compiled() {
        // `--cfg dcn_telemetry_off`: there is no counter to check.
        return;
    }
    // Fat tree: ℓ ∈ {2, 4}, so k_e differs between same-pod and cross-pod
    // pairs for every α > 2.
    let racks = 24;
    let dm = Arc::new(DistanceMatrix::between_racks(
        &builders::fat_tree_with_racks(racks),
    ));
    let n = dm.num_racks();
    let traces = [
        (
            "zipf",
            dcn_traces::zipf_pair_source(n, 30_000, 1.2, 3).materialize(),
        ),
        (
            "uniform",
            dcn_traces::uniform_source(n, 30_000, 5).materialize(),
        ),
    ];
    for (name, trace) in &traces {
        for alpha in [1u64, 4, 10, 160] {
            let want = predicted_specials(&trace.requests, &dm, alpha);
            assert!(want > 0, "{name} α={alpha}: vacuous case");
            for mode in [RemovalMode::Lazy, RemovalMode::Strict] {
                for batch in [1usize, 1024] {
                    let (_, got) = run_counted(&trace.requests, &dm, alpha, mode, batch);
                    assert_eq!(
                        got, want,
                        "{name} α={alpha} {mode:?} batch={batch}: rbma.specials vs Σ⌊c_e/k_e⌋"
                    );
                }
            }
        }
    }
}

#[test]
fn hash_stores_above_the_dense_rack_limit_stay_exact() {
    if !dcn_telemetry::compiled() {
        return;
    }
    // 1 030 racks is past the 1 024-rack limit of R-BMA's flat pair
    // stores, so its Theorem-1 counters and its matched/marked pair sets
    // all run on their hash fallbacks. A few thousand requests over a
    // handful of racks, ids up to n − 1, keep the case small.
    let n = 1030;
    let dm = Arc::new(DistanceMatrix::uniform(n));
    let racks: [NodeId; 7] = [0, 5, 511, 1023, 1024, 1026, 1029];
    let mut x = 0x5EED_u64;
    let mut trace = Vec::new();
    while trace.len() < 5_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = racks[(x % racks.len() as u64) as usize];
        let c = racks[((x >> 20) % racks.len() as u64) as usize];
        if a != c {
            trace.push(Pair::new(a, c));
        }
    }
    for alpha in [1u64, 3] {
        let want = predicted_specials(&trace, &dm, alpha);
        for mode in [RemovalMode::Lazy, RemovalMode::Strict] {
            let ctx = format!("α={alpha} {mode:?}");
            let (per_request, specials) = run_counted(&trace, &dm, alpha, mode, 1);
            assert!(
                per_request.total.reconfigurations > 0,
                "{ctx}: vacuous case"
            );
            assert_eq!(specials, want, "{ctx}: rbma.specials vs Σ⌊c_e/k_e⌋");
            let (batched, specials) = run_counted(&trace, &dm, alpha, mode, 1024);
            assert_eq!(specials, want, "{ctx} batched: rbma.specials vs Σ⌊c_e/k_e⌋");
            common::assert_reports_identical(&per_request, &batched, &ctx);
        }
    }
}
