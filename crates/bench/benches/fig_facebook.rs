//! Criterion companion to Figures 1b/2b/3b: serve-loop throughput of R-BMA
//! vs BMA on the three Facebook-like workloads, across the paper's b sweep.
//! The paper's claims — R-BMA faster, BMA degrading as b grows — show up
//! here as per-request throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcn_bench::{FigureSpec, Workload};
use dcn_core::algorithms::AlgorithmKind;
use std::hint::black_box;
use std::time::Duration;

fn bench_cluster(c: &mut Criterion, id: &str, workload: Workload) {
    let spec = FigureSpec {
        id: "bench",
        title: "bench",
        workload,
        racks: 100,
        bs: vec![6, 12, 18],
        total_requests: 50_000,
        num_checkpoints: 1,
        alpha: 10,
        repetitions: 1,
    };
    let dm = spec.distances();
    let trace = spec.trace(0);
    let mut group = c.benchmark_group(id);
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(trace.len() as u64));
    for algorithm in [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma] {
        for &b in &spec.bs {
            group.bench_with_input(BenchmarkId::new(algorithm.label(), b), &b, |bencher, &b| {
                bencher.iter(|| {
                    let mut s = algorithm.build_online(dm.clone(), b, spec.alpha, 7);
                    let mut cost = 0u64;
                    for &r in &trace.requests {
                        let o = s.serve(r);
                        cost += if o.was_matched { 1 } else { 2 };
                    }
                    black_box(cost)
                });
            });
        }
    }
    group.finish();
}

fn fig1b(c: &mut Criterion) {
    bench_cluster(c, "fig1b_facebook_database", Workload::FacebookDb);
}

fn fig2b(c: &mut Criterion) {
    bench_cluster(c, "fig2b_facebook_web", Workload::FacebookWeb);
}

fn fig3b(c: &mut Criterion) {
    bench_cluster(c, "fig3b_facebook_hadoop", Workload::FacebookHadoop);
}

criterion_group!(benches, fig1b, fig2b, fig3b);
criterion_main!(benches);
