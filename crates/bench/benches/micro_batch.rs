//! Batched vs unbatched hot path: the serve loop (system level via
//! `simulator::run` at different `SimConfig::batch_size`, and scheduler
//! level via direct `serve`/`serve_batch` calls) and trace generation
//! (`RequestSource::fill` vs `next_request`), across batch sizes.
//!
//! The headline number backing the batching refactor: R-BMA at degree
//! b = 12 on the Zipf workload, batched run vs the `batch_size = 1`
//! baseline (which is exactly the historical per-request loop: one virtual
//! serve call, one accounting fold and one stopwatch start/pause per
//! request). CI gates this bench against the shared criterion baseline.
//!
//! Every group above runs Zipf traffic, where most requests hit. The
//! `batch_churn_b12_uniform` group is the fault-path point: uniform
//! traffic at α = 4, where few requests hit and BMA buys and evicts on
//! most of the rest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::scheduler::BatchOutcome;
use dcn_core::{run, SimConfig};
use dcn_topology::{builders, DistanceMatrix, Pair};
use dcn_traces::{zipf_pair_source, RequestSource};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const RACKS: usize = 100;
const DEGREE: usize = 12;
const ALPHA: u64 = 10;
const LEN: usize = 30_000;
const EXPONENT: f64 = 1.2;
const BATCH_SIZES: [usize; 4] = [12, 64, 256, 1024];

fn distances() -> Arc<DistanceMatrix> {
    Arc::new(DistanceMatrix::between_racks(
        &builders::fat_tree_with_racks(RACKS),
    ))
}

fn zipf_requests() -> Vec<Pair> {
    zipf_pair_source(RACKS, LEN, EXPONENT, 5)
        .materialize()
        .requests
}

/// Full `simulator::run` throughput across batch sizes (`1` = the
/// unbatched baseline). This is the number the `scaling` target reports.
fn serve_run_batch_sizes(c: &mut Criterion) {
    let dm = distances();
    let mut group = c.benchmark_group("batch_run_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(LEN as u64));
    let algorithm = AlgorithmKind::Rbma { lazy: true };
    for batch in std::iter::once(1usize).chain(BATCH_SIZES) {
        group.bench_with_input(BenchmarkId::new("run", batch), &batch, |bench, &batch| {
            let config = SimConfig::default().with_batch_size(batch);
            let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
            bench.iter(|| {
                source.reset();
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                black_box(run(s.as_mut(), &dm, ALPHA, &mut source, &config))
            });
        });
    }
    group.finish();
}

/// Scheduler-level inner loop: per-request `serve` + accounting fold
/// (through the trait object, as the unbatched simulator dispatched) vs one
/// `serve_batch` call per chunk — for both online algorithms and the two
/// oblivious baselines (a rotor rotating every 10 000 requests, so some
/// chunks straddle a rotation).
fn serve_inner_batched_vs_unbatched(c: &mut Criterion) {
    let dm = distances();
    let requests = zipf_requests();
    for algorithm in [
        AlgorithmKind::Rbma { lazy: true },
        AlgorithmKind::Bma,
        AlgorithmKind::Oblivious,
        AlgorithmKind::Rotor { period: 10_000 },
    ] {
        let mut group = c.benchmark_group(format!("batch_serve_{}_b12_zipf", algorithm.label()));
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(2))
            .throughput(Throughput::Elements(requests.len() as u64));
        group.bench_function("unbatched", |bench| {
            bench.iter(|| {
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                let mut acc = BatchOutcome::default();
                for &r in &requests {
                    let o = s.serve(r);
                    acc.record(r, o, &dm);
                }
                black_box(acc)
            });
        });
        for batch in BATCH_SIZES {
            group.bench_with_input(
                BenchmarkId::new("batched", batch),
                &batch,
                |bench, &batch| {
                    bench.iter(|| {
                        let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                        let mut acc = BatchOutcome::default();
                        for chunk in requests.chunks(batch) {
                            s.serve_batch(chunk, &dm, &mut acc);
                        }
                        black_box(acc)
                    });
                },
            );
        }
        group.finish();
    }
}

/// The fault path under the same gate: uniform traffic at α = 4 (the
/// `perfbench` churn mix — few matched requests, a buy or Theorem-1
/// special on most of the rest, constant eviction), R-BMA and BMA
/// `serve_batch` at batch 1024.
fn serve_churn_uniform(c: &mut Criterion) {
    const CHURN_ALPHA: u64 = 4;
    let dm = distances();
    let requests = dcn_traces::uniform_source(RACKS, LEN, 5)
        .materialize()
        .requests;
    let mut group = c.benchmark_group("batch_churn_b12_uniform");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(requests.len() as u64));
    for algorithm in [AlgorithmKind::Rbma { lazy: true }, AlgorithmKind::Bma] {
        group.bench_function(algorithm.label(), |bench| {
            bench.iter(|| {
                let mut s = algorithm.build_online(dm.clone(), DEGREE, CHURN_ALPHA, 5);
                let mut acc = BatchOutcome::default();
                for chunk in requests.chunks(1024) {
                    s.serve_batch(chunk, &dm, &mut acc);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// Trace generation as the pipeline consumes it — through the
/// `Box<dyn RequestSource>` a `TraceSpec` yields: one virtual `fill` per
/// batch (alias-table sampling with hoisted table/pair borrows) vs one
/// virtual `next_request` per request. A statically-dispatched
/// `next_request` loop is included as the dispatch-free floor.
fn fill_batched_vs_unbatched(c: &mut Criterion) {
    let spec = dcn_traces::TraceSpec::Zipf {
        num_racks: RACKS,
        len: LEN,
        exponent: EXPONENT,
        seed: 5,
    };
    let mut group = c.benchmark_group("batch_fill_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(LEN as u64));
    group.bench_function("next_request_static", |bench| {
        let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
        bench.iter(|| {
            source.reset();
            let mut acc = 0u64;
            while let Some(p) = source.next_request() {
                acc += p.lo() as u64;
            }
            black_box(acc)
        });
    });
    group.bench_function("next_request_dyn", |bench| {
        let mut source = spec.source();
        bench.iter(|| {
            source.reset();
            let mut acc = 0u64;
            while let Some(p) = source.next_request() {
                acc += p.lo() as u64;
            }
            black_box(acc)
        });
    });
    for batch in BATCH_SIZES {
        group.bench_with_input(
            BenchmarkId::new("fill_dyn", batch),
            &batch,
            |bench, &batch| {
                let mut source = spec.source();
                let mut buf = vec![Pair::new(0, 1); batch];
                bench.iter(|| {
                    source.reset();
                    let mut acc = 0u64;
                    loop {
                        let n = source.fill(&mut buf);
                        for p in &buf[..n] {
                            acc += p.lo() as u64;
                        }
                        if n < buf.len() {
                            break;
                        }
                    }
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

/// Specials-density axis: the standard point at α ∈ {4, 10, 40, 160}. The
/// Theorem-1 period `k_e = ⌈α/ℓ_e⌉` makes α the direct dial on how many
/// requests take the Theorem-2 specials path (at α = 4 and fat-tree
/// ℓ ∈ {2, 4}, k_e ∈ {1, 2}: most requests are special), so this group
/// gates the specials fast path against the criterion baseline exactly
/// like every other hot-path change: a regression hiding in the rare
/// path shows up here before it shows up in the α = 10 headline. At
/// α = 160 specials are rare and nearly every request is an ordinary
/// counter bump.
fn serve_specials_density(c: &mut Criterion) {
    let dm = distances();
    let requests = zipf_requests();
    let mut group = c.benchmark_group("batch_alpha_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(requests.len() as u64));
    for alpha in [4u64, 10, 40, 160] {
        group.bench_with_input(
            BenchmarkId::new("batched", alpha),
            &alpha,
            |bench, &alpha| {
                bench.iter(|| {
                    let mut s = AlgorithmKind::Rbma { lazy: true }.build_online(
                        dm.clone(),
                        DEGREE,
                        alpha,
                        5,
                    );
                    let mut acc = BatchOutcome::default();
                    for chunk in requests.chunks(1024) {
                        s.serve_batch(chunk, &dm, &mut acc);
                    }
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

/// The telemetry tax at the standard point: the same R-BMA run with a live
/// enabled sink (chunk stopwatch + end-of-run flush), with the default
/// disabled handle (one branch per flush site), and — when the workspace is
/// built with `--cfg dcn_telemetry_off` — with the layer compiled out
/// entirely. CI gates `enabled` against the shared baseline; the
/// acceptance bar is enabled ≤ 2% over disabled.
fn telemetry_overhead(c: &mut Criterion) {
    let dm = distances();
    let mut group = c.benchmark_group("batch_telemetry_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(LEN as u64));
    let algorithm = AlgorithmKind::Rbma { lazy: true };
    let points: &[&str] = if dcn_telemetry::compiled() {
        &["disabled", "enabled"]
    } else {
        &["compiled_off"]
    };
    for &point in points {
        group.bench_function(point, |bench| {
            let config = SimConfig::default().with_batch_size(1024);
            let config = if point == "enabled" {
                config.with_telemetry(dcn_telemetry::Telemetry::enabled())
            } else {
                config
            };
            let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
            bench.iter(|| {
                source.reset();
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                black_box(run(s.as_mut(), &dm, ALPHA, &mut source, &config))
            });
        });
    }
    group.finish();
}

/// The failpoint tax at the standard point: the serve loop passes
/// `sim.chunk` once per chunk. `disarmed` is the production configuration
/// (one relaxed atomic load per hit site — the ISSUE's zero-overhead
/// acceptance point); `armed_other` arms an *unrelated* name, paying the
/// registry lookup on every hit without firing, the worst non-firing case;
/// `compiled_off` (under `--cfg dcn_failpoints_off`) is the hard floor
/// with the module compiled to nothing. CI gates `disarmed` against the
/// shared criterion baseline like every other hot-path change.
fn failpoint_overhead(c: &mut Criterion) {
    let dm = distances();
    let mut group = c.benchmark_group("batch_failpoint_rbma_b12_zipf");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(LEN as u64));
    let algorithm = AlgorithmKind::Rbma { lazy: true };
    let points: &[&str] = if dcn_util::failpoint::compiled() {
        &["disarmed", "armed_other"]
    } else {
        &["compiled_off"]
    };
    for &point in points {
        group.bench_function(point, |bench| {
            if point == "armed_other" {
                dcn_util::failpoint::arm(
                    "bench.unrelated",
                    dcn_util::failpoint::Action::Delay(Duration::ZERO),
                    dcn_util::failpoint::Trigger::Nth(u64::MAX),
                );
            }
            let config = SimConfig::default().with_batch_size(1024);
            let mut source = zipf_pair_source(RACKS, LEN, EXPONENT, 5);
            bench.iter(|| {
                source.reset();
                let mut s = algorithm.build_online(dm.clone(), DEGREE, ALPHA, 5);
                black_box(run(s.as_mut(), &dm, ALPHA, &mut source, &config))
            });
            if point == "armed_other" {
                dcn_util::failpoint::disarm("bench.unrelated");
            }
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    serve_run_batch_sizes,
    serve_inner_batched_vs_unbatched,
    serve_specials_density,
    serve_churn_uniform,
    fill_batched_vs_unbatched,
    telemetry_overhead,
    failpoint_overhead
);
criterion_main!(benches);
