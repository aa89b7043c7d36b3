//! Theorem 1's special cadence, checked against the trace itself rather
//! than against another serve path: in R-BMA every `k_e`-th request to a
//! pair `e` is special, with `k_e = ⌈α/ℓ_e⌉`, so after a run the
//! `rbma.specials` telemetry counter must equal `Σ_e ⌊c_e / k_e⌋`, where
//! `c_e` is the number of requests to `e` in the trace. The sum is computed
//! straight from the trace and the `DistanceMatrix`; the cadence does not
//! depend on the removal mode or on the batch size.

use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
use dcn_core::{run, SimConfig};
use dcn_telemetry::Telemetry;
use dcn_topology::{builders, DistanceMatrix, Pair};
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

fn specials_counted(
    trace: &[Pair],
    dm: &Arc<DistanceMatrix>,
    alpha: u64,
    mode: RemovalMode,
    batch: usize,
) -> u64 {
    let sink = Telemetry::enabled();
    let config = SimConfig::default()
        .with_batch_size(batch)
        .with_telemetry(sink.clone());
    let mut rbma = Rbma::new(Arc::clone(dm), 4, alpha, mode, 11);
    run(&mut rbma, dm, alpha, trace, &config);
    sink.snapshot()
        .counters
        .get("rbma.specials")
        .copied()
        .unwrap_or(0)
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
                    let got = specials_counted(&trace.requests, &dm, alpha, mode, batch);
                    assert_eq!(
                        got, want,
                        "{name} α={alpha} {mode:?} batch={batch}: rbma.specials vs Σ⌊c_e/k_e⌋"
                    );
                }
            }
        }
    }
}
