//! The bandwidth-tax view: how much fixed-network link load does each
//! scheduler's matching remove? Replays a workload with ECMP routing and
//! reports per-link load profiles — the physical quantity behind the
//! paper's hop-count cost model (§1.1).
//!
//! ```text
//! cargo run --release --example link_load
//! ```

use rdcn::core::algorithms::static_offline::so_bma_matching;
use rdcn::core::algorithms::AlgorithmKind;
use rdcn::core::analysis::link_load_comparison;
use rdcn::core::{run, SimConfig};
use rdcn::topology::{builders, DistanceMatrix, Pair};
use rdcn::traces::{facebook_cluster_trace, FacebookCluster};
use std::sync::Arc;

fn main() {
    let racks = 32;
    let b = 6;
    let alpha = 10;
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let trace = facebook_cluster_trace(FacebookCluster::Database, racks, 60_000, 3);
    println!(
        "workload: {} requests on {} | b={b}, α={alpha}\n",
        trace.len(),
        net.name
    );
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "matching from", "|M|", "max load", "mean load", "hop traffic", "Δ max"
    );

    // Online schedulers: replay their *final* matching statically to get a
    // comparable link-load snapshot.
    for algorithm in [
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Bma,
        AlgorithmKind::Periodic { period: 5000 },
    ] {
        let mut s = algorithm.build_online(dm.clone(), b, alpha, 1);
        run(
            s.as_mut(),
            &dm,
            alpha,
            &trace.requests,
            &SimConfig::default(),
        );
        let matching: Vec<Pair> = s.matching().edges().collect();
        report(&net, &trace.requests, &matching, &algorithm.label());
    }

    // Offline SO-BMA matching.
    let matching = so_bma_matching(&dm, &trace.requests, b);
    report(&net, &trace.requests, &matching, "SO-BMA");

    // Oblivious reference.
    report(&net, &trace.requests, &[], "(none)");
}

fn report(net: &rdcn::topology::Network, requests: &[Pair], matching: &[Pair], label: &str) {
    let cmp = link_load_comparison(net, requests, matching);
    println!(
        "{:<18} {:>10} {:>12.1} {:>12.2} {:>12.0} {:>9.1}%",
        label,
        matching.len(),
        cmp.with_matching.max_fixed_load,
        cmp.with_matching.mean_fixed_load,
        cmp.with_matching.fixed_hop_traffic,
        100.0 * cmp.max_load_reduction(),
    );
}
