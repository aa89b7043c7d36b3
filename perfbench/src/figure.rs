//! The `fig1-paper` workload: all three panels of Fig. 1 at paper scale,
//! assembled from the program's public pieces the way the figure harness
//! assembles them, with the repetition seeds taken from the benchmark seed.
//!
//! * Panel a: R-BMA and BMA for every b, plus Oblivious, on 2 workers.
//! * Panel b: the same runs one at a time (execution time).
//! * Panel c: R-BMA and BMA at the largest b on 2 workers, then SO-BMA on
//!   each repetition's materialized trace, on one thread.
//! * The committed adversary corpus replay (the worst-case panel).
//!
//! At the default seed the series must equal the figure harness's own.

use crate::adapter::{
    fat_tree_distances, materialize, render_panel, run_figure_jobs, run_figure_jobs_traced,
    so_bma_costs, so_bma_costs_traced, worst_case_panel, Algo, Counters, Distances, FigParams,
    JobSpec, Metric as Field, Report, Series, Stream, Traffic,
};
use crate::check::{check_pinned, cost_problems, fnv1a, SameEachTime, Tally};
use crate::spans::{timed, Open, Span};
use crate::{end_to_end, per_layer, LayerInputs, Opts, Outcome, DEFAULT_SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const WORKERS: usize = 2;
/// Figures a run makes at least (and exactly, in smoke mode).
const MIN_FIGURES: usize = 3;
/// Set-ups timed per figure.
const SETUPS: usize = 5;
const SMOKE_DIVISOR: usize = 100;
const ONLINE: [Algo; 2] = [Algo::Rbma, Algo::Bma];

fn grid(params: &FigParams, seed: u64, algo: Algo, b: usize) -> Vec<JobSpec> {
    (0..params.reps)
        .map(|rep| {
            let (trace_seed, algo_seed) = params.rep_seeds(seed, rep);
            JobSpec {
                algo,
                b,
                alpha: params.alpha,
                seed: algo_seed,
                stream: Stream {
                    traffic: Traffic::FacebookDatabase,
                    racks: params.racks,
                    len: params.len,
                    seed: trace_seed,
                },
                checkpoints: params.checkpoints(),
            }
        })
        .collect()
}

/// Where a traced figure records its spans and counts.
struct Tracer<'a> {
    log: &'a mut Vec<Span>,
    root: Open,
    counters: &'a Counters,
    layer: &'a mut LayerInputs,
    matching_errors: Vec<String>,
}

/// Runs `f`, inside a child span of the figure when tracing.
fn step<T>(tr: &mut Option<Tracer<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => timed(t.log, &t.root, name, f),
        None => f(),
    }
}

fn run_grid(
    dm: &Distances,
    jobs: &[JobSpec],
    workers: usize,
    tr: &mut Option<Tracer<'_>>,
) -> Vec<Report> {
    let Some(t) = tr else {
        return run_figure_jobs(dm, jobs, workers);
    };
    let span = t.root.child("sweep.run_jobs");
    let mut reports = Vec::new();
    for (job, (finished, mut spans)) in jobs
        .iter()
        .zip(run_figure_jobs_traced(dm, jobs, workers, &span, t.counters))
    {
        t.log.append(&mut spans);
        if let Err(e) = finished.matching {
            t.matching_errors
                .push(format!("{} b={}: {e}", job.algo.label(), job.b));
        }
        let totals = match job.algo {
            Algo::Rbma => &mut t.layer.rbma,
            Algo::Bma => &mut t.layer.bma,
            Algo::Oblivious => &mut t.layer.oblivious,
        };
        totals.add(finished.report.total());
        reports.push(finished.report);
    }
    t.log.push(span.close());
    reports
}

/// Averages one grid's reports into a series, keeping the reports.
fn average(
    tr: &mut Option<Tracer<'_>>,
    reports: &mut Vec<Report>,
    label: String,
    r: Vec<Report>,
    field: Field,
) -> Series {
    let s = step(tr, "bench.assemble", || Series::average(label, &r, field));
    reports.extend(r);
    s
}

/// One figure's outputs.
struct FigureOut {
    panels: [Vec<Series>; 3],
    /// Every job's report, in run order.
    reports: Vec<Report>,
    /// Panel a's Oblivious reports, one per repetition.
    oblivious: Vec<Report>,
    /// SO-BMA's cost series, one per repetition.
    so_bma: Vec<Vec<u64>>,
    /// Serve rate (Mreq/s) of every R-BMA and BMA run.
    rates: [Vec<f64>; 2],
    worst_case: String,
    rendered_len: usize,
    /// Final matchings that failed `assert_valid` (traced figures only).
    matching_errors: Vec<String>,
}

fn figure(dm: &Distances, params: &FigParams, seed: u64, mut tr: Option<Tracer<'_>>) -> FigureOut {
    let label = |algo: Algo, b: usize| format!("{} (b: {b})", algo.label());
    let mut reports = Vec::new();

    let mut rates = [Vec::new(), Vec::new()];
    let mut online_grid = |tr: &mut Option<Tracer<'_>>, i: usize, b: usize, workers: usize| {
        let r = run_grid(dm, &grid(params, seed, ONLINE[i], b), workers, tr);
        rates[i].extend(r.iter().map(|rep| {
            let total = rep.total();
            total.requests as f64 / total.elapsed_s / 1e6
        }));
        r
    };

    let mut a = Vec::new();
    for (i, algo) in ONLINE.into_iter().enumerate() {
        for &b in &params.bs {
            let r = online_grid(&mut tr, i, b, WORKERS);
            a.push(average(
                &mut tr,
                &mut reports,
                label(algo, b),
                r,
                Field::RoutingCost,
            ));
        }
    }
    let oblivious = run_grid(
        dm,
        &grid(params, seed, Algo::Oblivious, params.bs[0]),
        WORKERS,
        &mut tr,
    );
    a.push(average(
        &mut tr,
        &mut reports,
        "Oblivious".into(),
        oblivious.clone(),
        Field::RoutingCost,
    ));

    let mut b_panel = Vec::new();
    for (i, algo) in ONLINE.into_iter().enumerate() {
        for &b in &params.bs {
            let r = online_grid(&mut tr, i, b, 1);
            b_panel.push(average(
                &mut tr,
                &mut reports,
                label(algo, b),
                r,
                Field::ElapsedSecs,
            ));
        }
    }

    let b = *params.bs.last().expect("Fig. 1 sweeps b");
    let mut c = Vec::new();
    for (i, algo) in ONLINE.into_iter().enumerate() {
        let r = online_grid(&mut tr, i, b, WORKERS);
        c.push(average(
            &mut tr,
            &mut reports,
            label(algo, b),
            r,
            Field::RoutingCost,
        ));
    }
    let cps = params.checkpoints();
    let mut so_bma = Vec::new();
    for job in grid(params, seed, Algo::Rbma, b) {
        let requests = step(&mut tr, "traces.materialize", || materialize(&job.stream));
        let costs = match &mut tr {
            None => so_bma_costs(dm, &requests, b, &cps),
            Some(t) => {
                let span = t.root.child_run("so_bma.series");
                let costs =
                    so_bma_costs_traced(dm, &requests, b, &cps, t.log, &span, &mut t.layer.so_bma);
                t.log.push(span.close());
                costs
            }
        };
        so_bma.push(costs);
    }
    c.push(step(&mut tr, "bench.assemble", || {
        Series::from_samples(format!("SO-BMA (b: {b})"), &cps, &so_bma)
    }));

    let panels = [a, b_panel, c];
    let rendered_len = step(&mut tr, "bench.assemble", || {
        let titles = [
            "fig1a: Routing cost",
            "fig1b: Execution time [s]",
            "fig1c: Best-of comparison (routing cost)",
        ];
        let mut out: String = titles
            .iter()
            .zip(&panels)
            .map(|(title, series)| render_panel(title, series))
            .collect();
        for r in &reports {
            out += &r.to_json();
        }
        out.len()
    });
    let worst_case = step(&mut tr, "adversary.replay", worst_case_panel);
    FigureOut {
        matching_errors: tr.map(|t| t.matching_errors).unwrap_or_default(),
        panels,
        reports,
        oblivious,
        so_bma,
        rates,
        worst_case,
        rendered_len,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let params = FigParams::fig1(opts.smoke.then_some(SMOKE_DIVISOR));
    let mut tally = Tally::default();
    let mut same = SameEachTime::default();
    let mut spans = Vec::new();
    let counters = Counters::enabled();
    let mut layer = LayerInputs {
        sweep_workers: WORKERS as f64,
        ..LayerInputs::default()
    };
    let (mut rbma, mut bma, mut figure_s, mut setup_s) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<FigureOut> = None;
    let configs: Vec<(Algo, usize)> = ONLINE
        .iter()
        .flat_map(|&algo| params.bs.iter().map(move |&b| (algo, b)))
        .chain([(Algo::Oblivious, params.bs[0])])
        .collect();
    let runs_per_figure =
        (configs.len() + ONLINE.len() * params.bs.len() + ONLINE.len() + 1) as u64 * params.reps;

    let started = Instant::now();
    let mut figures = 0;
    while opts.more_passes(figures, MIN_FIGURES, started) {
        let traced = opts.trace && figures % 2 == 1;
        figures += 1;
        let mut fig_spans = Vec::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let root = Open::root("perfbench.pass");
            let mut setups = Vec::new();
            let mut dm = None;
            for _ in 0..SETUPS {
                let t0 = Instant::now();
                let d = if traced {
                    timed(&mut fig_spans, &root, "topology.dm_build", || {
                        fat_tree_distances(params.racks)
                    })
                } else {
                    fat_tree_distances(params.racks)
                };
                layer.dm_build_s.push(t0.elapsed().as_secs_f64());
                for &(algo, b) in &configs {
                    let span = traced.then_some((&mut fig_spans, &root));
                    drop(grid(&params, opts.seed, algo, b)[0].prepare(&d, span));
                }
                setups.push(t0.elapsed().as_secs_f64());
                dm = Some(d);
            }
            let dm = dm.expect("at least one set-up");
            let tracer = traced.then(|| Tracer {
                log: &mut fig_spans,
                root,
                counters: &counters,
                layer: &mut layer,
                matching_errors: Vec::new(),
            });
            let t = Instant::now();
            let out = figure(&dm, &params, opts.seed, tracer);
            let wall = t.elapsed().as_secs_f64();
            if traced {
                fig_spans.push(root.close());
            }
            (setups, wall, out)
        }));
        let (setups, wall, out) = match result {
            Ok(r) => r,
            Err(e) => {
                tally.panicked("figure", runs_per_figure, crate::adapter::panic_message(&e));
                continue;
            }
        };
        setup_s.extend(setups);
        if traced {
            layer.traced_passes += 1;
            layer.traced_wall_s.push(wall);
            spans.append(&mut fig_spans);
        } else {
            figure_s.push(wall);
            layer.untraced_wall_s.push(wall);
            rbma.extend(&out.rates[0]);
            bma.extend(&out.rates[1]);
        }
        check_figure(&mut tally, &mut same, &params, &out, figures);
        std::hint::black_box(out.rendered_len);
        first.get_or_insert(out);
    }

    let mut output_digest = 0;
    let mut input_digest = 0;
    if let Some(out) = &first {
        let jobs = grid(&params, opts.seed, Algo::Oblivious, params.bs[0]);
        let dm = fat_tree_distances(params.racks);
        for (job, report) in jobs.iter().zip(&out.oblivious) {
            let expected = job.stream.distance_sum(&dm);
            let got = report.total();
            tally.check(
                "Oblivious vs Σ ℓ_e",
                got.routing_cost == expected && got.matched == 0,
                || {
                    format!(
                        "Oblivious routing cost {}, Σ ℓ_e = {expected}",
                        got.routing_cost
                    )
                },
            );
        }
        let mut canonical: Vec<String> = out.reports.iter().map(Report::canonical_json).collect();
        canonical.push(format!("{:?}", out.so_bma));
        canonical.push(out.worst_case.clone());
        output_digest = fnv1a(canonical.concat().as_bytes());
        input_digest = fnv1a(format!("{:?}", jobs[0].stream.head(4096)).as_bytes());
        if opts.seed == DEFAULT_SEED {
            check_pinned(&mut tally, "fig1-paper", opts, output_digest);
            let reference = params.reference_panels();
            let matches = |i: usize, exact: bool| {
                reference[i].len() == out.panels[i].len()
                    && reference[i].iter().zip(&out.panels[i]).all(|(r, o)| {
                        if exact {
                            r.same_values(o)
                        } else {
                            r.same_axes(o)
                        }
                    })
            };
            tally.check(
                "Fig. 1 vs the figure harness",
                matches(0, true) && matches(1, false) && matches(2, true),
                || "series differ from run_panel's".into(),
            );
        }
    }

    layer.counters = counters.get();
    let metrics = if opts.trace {
        per_layer(&spans, &layer)
    } else {
        end_to_end(rbma, bma, figure_s, setup_s, &tally)
    };
    Outcome {
        metrics,
        tally,
        output_digest,
        input_digest,
        requests_per_run: params.len as u64,
        passes: figures,
        spans,
    }
}

/// Checks one figure's reports and SO-BMA series.
fn check_figure(
    tally: &mut Tally,
    same: &mut SameEachTime,
    params: &FigParams,
    out: &FigureOut,
    n: usize,
) {
    for (i, report) in out.reports.iter().enumerate() {
        let mut problems = cost_problems(report, params.len as u64);
        if !same.check(i, report.canonical_json()) {
            problems.push("report differs from the first figure's".into());
        }
        tally.run(&format!("figure {n} job {i}"), problems);
    }
    for (rep, (costs, oblivious)) in out.so_bma.iter().zip(&out.oblivious).enumerate() {
        let mut problems = Vec::new();
        if !same.check(out.reports.len() + rep, format!("{costs:?}")) {
            problems.push("SO-BMA series differs from the first figure's".into());
        }
        // A static matching never routes a prefix above its shortest paths.
        let bound = oblivious.checkpoints();
        if costs.len() != bound.len() || costs.iter().zip(&bound).any(|(c, o)| *c > o.routing_cost)
        {
            problems.push("SO-BMA costs exceed the Oblivious costs".into());
        }
        tally.run(&format!("figure {n} SO-BMA rep {rep}"), problems);
    }
    if !out.matching_errors.is_empty() {
        tally.run(
            &format!("figure {n} final matchings"),
            out.matching_errors.clone(),
        );
    }
}
