//! Cross-crate integration tests: every scheduler on every workload must
//! respect the model invariants of §1.1.

use rdcn::core::algorithms::AlgorithmKind;
use rdcn::core::sweep::{run_jobs_sequential, Job};
use rdcn::core::{run, SimConfig};
use rdcn::topology::{builders, DistanceMatrix};
use rdcn::traces::{
    facebook_cluster_trace, microsoft_trace, uniform_trace, FacebookCluster, MicrosoftParams,
    Trace, TraceSpec,
};
use std::sync::Arc;

fn all_algorithms() -> Vec<AlgorithmKind> {
    vec![
        AlgorithmKind::Oblivious,
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Rbma { lazy: false },
        AlgorithmKind::Bma,
        AlgorithmKind::Rotor { period: 50 },
        AlgorithmKind::Periodic { period: 500 },
    ]
}

fn workloads(n: usize, len: usize) -> Vec<Trace> {
    vec![
        facebook_cluster_trace(FacebookCluster::Database, n, len, 1),
        facebook_cluster_trace(FacebookCluster::Hadoop, n, len, 2),
        microsoft_trace(n, len, MicrosoftParams::default(), 3),
        uniform_trace(n, len, 4),
    ]
}

#[test]
fn degree_bounds_hold_for_every_algorithm_and_workload() {
    let n = 24;
    let net = builders::fat_tree_with_racks(n);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    for trace in workloads(n, 6000) {
        for algorithm in all_algorithms() {
            for b in [1usize, 2, 5] {
                let mut s = algorithm.build_online(dm.clone(), b, 10, 7);
                let config = SimConfig {
                    verify_every: 500,
                    ..Default::default()
                };
                let report = run(s.as_mut(), &dm, 10, &trace.requests, &config);
                s.matching().assert_valid();
                assert_eq!(report.total.requests, trace.len() as u64);
                for v in 0..n as u32 {
                    assert!(
                        s.matching().degree(v) <= b,
                        "{} b={b} on {}: degree violated at {v}",
                        algorithm.label(),
                        trace.name
                    );
                }
            }
        }
    }
}

#[test]
fn cost_accounting_is_internally_consistent() {
    // Replaying deterministically must give identical cost totals, and the
    // decomposition routing = matched·1 + unmatched·ℓ must hold.
    let n = 20;
    let net = builders::leaf_spine(n, 4); // ℓ ≡ 2: easy arithmetic
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let spec = TraceSpec::Facebook {
        cluster: FacebookCluster::Database,
        num_racks: n,
        len: 8000,
        seed: 9,
    };
    for algorithm in all_algorithms() {
        let job = Job {
            algorithm: algorithm.clone(),
            b: 3,
            alpha: 8,
            seed: 5,
            checkpoints: vec![4000],
            trace: spec.clone(),
        };
        let a = run_jobs_sequential(&dm, std::slice::from_ref(&job));
        let b = run_jobs_sequential(&dm, std::slice::from_ref(&job));
        assert_eq!(
            a[0].total.routing_cost,
            b[0].total.routing_cost,
            "{}",
            algorithm.label()
        );
        assert_eq!(a[0].total.reconfigurations, b[0].total.reconfigurations);

        let t = &a[0].total;
        let unmatched = t.requests - t.matched_requests;
        assert_eq!(
            t.routing_cost,
            t.matched_requests + 2 * unmatched,
            "{}: routing decomposition broken",
            algorithm.label()
        );
        assert_eq!(t.reconfig_cost, 8 * t.reconfigurations);
    }
}

#[test]
fn demand_aware_algorithms_beat_oblivious_on_skewed_traffic() {
    let n = 50;
    let net = builders::fat_tree_with_racks(n);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let spec = TraceSpec::Facebook {
        cluster: FacebookCluster::Database,
        num_racks: n,
        len: 40_000,
        seed: 12,
    };
    let jobs: Vec<Job> = [
        AlgorithmKind::Oblivious,
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Bma,
    ]
    .into_iter()
    .map(|algorithm| Job {
        algorithm,
        b: 12,
        alpha: 10,
        seed: 3,
        checkpoints: vec![],
        trace: spec.clone(),
    })
    .collect();
    let reports = run_jobs_sequential(&dm, &jobs);
    let oblivious = reports[0].total.routing_cost;
    for r in &reports[1..] {
        assert!(
            r.total.routing_cost < oblivious * 9 / 10,
            "{} ({}) should save >10% vs oblivious ({oblivious})",
            r.algorithm,
            r.total.routing_cost
        );
    }
}

#[test]
fn rbma_and_bma_have_comparable_routing_cost() {
    // The paper's headline empirical claim (Figs. 1a-4a): R-BMA ≈ BMA.
    let n = 50;
    let net = builders::fat_tree_with_racks(n);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let spec = TraceSpec::Facebook {
        cluster: FacebookCluster::WebService,
        num_racks: n,
        len: 40_000,
        seed: 21,
    };
    let jobs: Vec<Job> = (0..3u64)
        .map(|seed| Job {
            algorithm: AlgorithmKind::Rbma { lazy: true },
            b: 12,
            alpha: 10,
            seed,
            checkpoints: vec![],
            trace: spec.clone(),
        })
        .chain(std::iter::once(Job {
            algorithm: AlgorithmKind::Bma,
            b: 12,
            alpha: 10,
            seed: 0,
            checkpoints: vec![],
            trace: spec.clone(),
        }))
        .collect();
    let reports = run_jobs_sequential(&dm, &jobs);
    let rbma_avg: f64 = reports[..3]
        .iter()
        .map(|r| r.total.routing_cost as f64)
        .sum::<f64>()
        / 3.0;
    let bma = reports[3].total.routing_cost as f64;
    let rel = (rbma_avg - bma).abs() / bma;
    assert!(
        rel < 0.15,
        "R-BMA ({rbma_avg}) and BMA ({bma}) should be within 15% (got {:.1}%)",
        rel * 100.0
    );
}

#[test]
fn more_switches_monotonically_help() {
    let n = 40;
    let net = builders::fat_tree_with_racks(n);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    let spec = TraceSpec::Facebook {
        cluster: FacebookCluster::Database,
        num_racks: n,
        len: 30_000,
        seed: 8,
    };
    let mut last = u64::MAX;
    for b in [2usize, 6, 12, 18] {
        let job = Job {
            algorithm: AlgorithmKind::Rbma { lazy: true },
            b,
            alpha: 10,
            seed: 2,
            checkpoints: vec![],
            trace: spec.clone(),
        };
        let r = run_jobs_sequential(&dm, &[job]);
        let cost = r[0].total.routing_cost;
        assert!(
            cost <= last.saturating_add(last / 50),
            "routing cost should not grow with b: b={b} cost={cost} prev={last}"
        );
        last = cost;
    }
}
