//! The serve workloads: one streamed R-BMA run, then one streamed BMA run,
//! over the same seeded stream on a 100-rack fat-tree with b = 12. Each
//! pass repeats that pair from scratch (topology, source and scheduler
//! construction included), so every pass's reports must be identical.

use crate::adapter::{
    evenly_spaced, fat_tree_distances, Algo, Counters, Finished, JobSpec, Prepared, Stream,
    Tracing, Traffic,
};
use crate::check::{check_pinned, cost_problems, fnv1a, SameEachTime, Tally};
use crate::spans::{timed, Open, Span};
use crate::{derive, end_to_end, per_layer, LayerInputs, Opts, Outcome, DEFAULT_SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const RACKS: usize = 100;
const B: usize = 12;
const CHECKPOINTS: usize = 10;
const SMOKE_LEN: usize = 20_000;
/// Passes a run makes at least (and exactly, in smoke mode).
const MIN_PASSES: usize = 3;
/// Set-ups timed per pass.
const SETUPS: usize = 5;

/// A serve workload's traffic, α and request count.
pub struct ServeSpec {
    pub name: &'static str,
    pub traffic: Traffic,
    pub alpha: u64,
    pub len: usize,
}

pub const STANDARD_POINT: ServeSpec = ServeSpec {
    name: "standard-point",
    traffic: Traffic::Zipf(1.2),
    alpha: 10,
    len: 2_000_000,
};

pub const CHURN: ServeSpec = ServeSpec {
    name: "churn",
    traffic: Traffic::Uniform,
    alpha: 4,
    len: 500_000,
};

const ALGOS: [Algo; 2] = [Algo::Rbma, Algo::Bma];

/// What one pass measured.
struct Pass {
    dm_build_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// Wall time of each `run`, in `ALGOS` order.
    run_s: [f64; 2],
    finished: Vec<Finished>,
}

/// One pass. With `trace`, every step is a span under a root pass span.
fn pass(jobs: &[JobSpec], mut trace: Option<(&mut Vec<Span>, &Counters)>) -> Pass {
    let root = Open::root("perfbench.pass");
    let (mut dm_build_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let t0 = Instant::now();
        let dm = match trace.as_mut() {
            Some((log, _)) => timed(log, &root, "topology.dm_build", || {
                fat_tree_distances(RACKS)
            }),
            None => fat_tree_distances(RACKS),
        };
        dm_build_s.push(t0.elapsed().as_secs_f64());
        let prepared: Vec<Prepared> = jobs
            .iter()
            .map(|job| job.prepare(&dm, trace.as_mut().map(|(log, _)| (&mut **log, &root))))
            .collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        (dm, prepared)
    };
    // Set-up is timed several times; the last one is run.
    for _ in 1..SETUPS {
        drop(set_up());
    }
    let (dm, prepared) = set_up();
    let mut run_s = [0.0; 2];
    let mut finished = Vec::new();
    for (i, prepared) in prepared.into_iter().enumerate() {
        let t = Instant::now();
        let done = match trace.as_mut() {
            None => prepared.run(&dm, None),
            Some((log, counters)) => {
                let run = root.child_run("simulator.run");
                let tracing = Tracing { log, counters };
                let done = prepared.run(&dm, Some((tracing, &run)));
                log.push(run.close());
                done
            }
        };
        run_s[i] = t.elapsed().as_secs_f64();
        finished.push(done);
    }
    if let Some((log, _)) = trace {
        log.push(root.close());
    }
    Pass {
        dm_build_s,
        setup_s,
        run_s,
        finished,
    }
}

pub fn run(spec: &ServeSpec, opts: &Opts) -> Outcome {
    let len = if opts.smoke { SMOKE_LEN } else { spec.len };
    let stream = Stream {
        traffic: spec.traffic,
        racks: RACKS,
        len,
        seed: derive(opts.seed, 1),
    };
    let jobs = ALGOS.map(|algo| JobSpec {
        algo,
        b: B,
        alpha: spec.alpha,
        seed: derive(opts.seed, 2),
        stream,
        checkpoints: evenly_spaced(len, CHECKPOINTS),
    });
    let mut tally = Tally::default();
    let mut same = SameEachTime::default();
    let mut spans = Vec::new();
    let counters = Counters::enabled();
    let mut layer = LayerInputs::default();
    let (mut rbma, mut bma, mut pair_s, mut setup_s) = (vec![], vec![], vec![], vec![]);
    let mut canonical = Vec::new();

    let started = Instant::now();
    let mut passes = 0;
    while opts.more_passes(passes, MIN_PASSES, started) {
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured within the run.
        let traced = opts.trace && passes % 2 == 1;
        passes += 1;
        let mut pass_spans = Vec::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pass(&jobs, traced.then_some((&mut pass_spans, &counters)))
        }));
        let p = match result {
            Ok(p) => p,
            Err(e) => {
                tally.panicked(
                    "pass",
                    ALGOS.len() as u64,
                    crate::adapter::panic_message(&e),
                );
                continue;
            }
        };
        layer.dm_build_s.extend(p.dm_build_s);
        setup_s.extend(p.setup_s);
        let pair: f64 = p.run_s.iter().sum();
        if traced {
            layer.traced_passes += 1;
            layer.traced_wall_s.push(pair);
            spans.append(&mut pass_spans);
        } else {
            rbma.push(len as f64 / p.run_s[0] / 1e6);
            bma.push(len as f64 / p.run_s[1] / 1e6);
            pair_s.push(pair);
            layer.untraced_wall_s.push(pair);
        }
        canonical.clear();
        for (i, (algo, done)) in ALGOS.iter().zip(&p.finished).enumerate() {
            let json = done.report.canonical_json();
            let mut problems = cost_problems(&done.report, len as u64);
            if let Err(e) = &done.matching {
                problems.push(format!("final matching invalid: {e}"));
            }
            if !same.check(i, json.clone()) {
                problems.push("report differs from the first pass's".into());
            }
            tally.run(&format!("{algo:?} pass {passes}"), problems);
            if traced {
                let totals = if *algo == Algo::Rbma {
                    &mut layer.rbma
                } else {
                    &mut layer.bma
                };
                totals.add(done.report.total());
            }
            canonical.push(json);
        }
    }

    // Oblivious routes every request over its shortest path: its cost must
    // equal Σ ℓ_e read straight from the distance matrix.
    let dm = fat_tree_distances(RACKS);
    let oblivious = JobSpec {
        algo: Algo::Oblivious,
        checkpoints: Vec::new(),
        ..jobs[0].clone()
    }
    .prepare(&dm, None)
    .run(&dm, None);
    let expected = stream.distance_sum(&dm);
    let got = oblivious.report.total();
    tally.check(
        "Oblivious vs Σ ℓ_e",
        got.routing_cost == expected && got.matched == 0 && got.reconfigurations == 0,
        || {
            format!(
                "Oblivious routing cost {} (matched {}), Σ ℓ_e = {expected}",
                got.routing_cost, got.matched
            )
        },
    );
    canonical.push(oblivious.report.canonical_json());

    let output_digest = fnv1a(canonical.concat().as_bytes());
    if opts.seed == DEFAULT_SEED {
        check_pinned(&mut tally, spec.name, opts, output_digest);
    }
    let input_digest = fnv1a(format!("{:?}", stream.head(4096)).as_bytes());

    layer.counters = counters.get();
    let metrics = if opts.trace {
        per_layer(&spans, &layer)
    } else {
        end_to_end(rbma, bma, pair_s, setup_s, &tally)
    };
    Outcome {
        metrics,
        tally,
        output_digest,
        input_digest,
        requests_per_run: len as u64,
        passes,
        spans,
    }
}
