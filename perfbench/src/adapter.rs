//! Every call the benchmark makes into the program lives in this file.
//!
//! The rest of the benchmark sees only the plain types defined here, so a
//! change to the program's interfaces is absorbed in one place. The file
//! uses the program's public entry points only, and none of the serve
//! variants and executor entry points slated for removal (serve modes,
//! intra-run sharding, the sequential and sharded job runners, the ledger's
//! standard-point measurement): deleting them leaves this file untouched.

use crate::spans::{timed, Open, Span};
use dcn_bench::{FigureSpec, Panel};
use dcn_core::algorithms::static_offline::{demand_edges, so_bma_series, static_routing_cost};
use dcn_core::algorithms::AlgorithmKind;
use dcn_core::scheduler::{BatchOutcome, OnlineScheduler, ServeOutcome};
use dcn_core::sweep::{run_jobs, steal_map, Job};
use dcn_core::{AveragedSeries, Checkpoint, RunReport, SimConfig};
use dcn_matching::{repeated_mwm_b_matching, BMatching};
use dcn_telemetry::Telemetry;
use dcn_topology::{builders, DistanceMatrix, Pair};
use dcn_traces::{FacebookCluster, RequestSource, TraceSpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Rack-to-rack distances of a fat-tree (opaque to the benchmark).
pub type Distances = Arc<DistanceMatrix>;

/// Builds a fat-tree with at least `racks` racks and its distance matrix,
/// the way the figure harness does.
pub fn fat_tree_distances(racks: usize) -> Distances {
    let net = builders::fat_tree_with_racks(racks);
    Arc::new(DistanceMatrix::between_racks_parallel(&net, 4))
}

/// Up to `count` evenly spaced checkpoints over `len` requests.
pub fn evenly_spaced(len: usize, count: usize) -> Vec<usize> {
    SimConfig::evenly_spaced(len, count)
}

/// The online algorithms the benchmark drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Rbma,
    Bma,
    Oblivious,
}

impl Algo {
    /// The figure legend's name.
    pub fn label(self) -> String {
        self.kind().label()
    }

    fn kind(self) -> AlgorithmKind {
        match self {
            Algo::Rbma => AlgorithmKind::Rbma { lazy: true },
            Algo::Bma => AlgorithmKind::Bma,
            Algo::Oblivious => AlgorithmKind::Oblivious,
        }
    }

    /// Span names: scheduler construction and one `serve_batch` call.
    fn span_names(self) -> (&'static str, &'static str) {
        match self {
            Algo::Rbma => ("rbma.build", "rbma.serve_batch"),
            Algo::Bma => ("bma.build", "bma.serve_batch"),
            Algo::Oblivious => ("oblivious.build", "oblivious.serve_batch"),
        }
    }
}

/// Traffic generators used by the workloads.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    Zipf(f64),
    Uniform,
    FacebookDatabase,
}

/// A seeded request stream description.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    pub traffic: Traffic,
    pub racks: usize,
    pub len: usize,
    pub seed: u64,
}

impl Stream {
    fn spec(&self) -> TraceSpec {
        let (num_racks, len, seed) = (self.racks, self.len, self.seed);
        match self.traffic {
            Traffic::Zipf(exponent) => TraceSpec::Zipf {
                num_racks,
                len,
                exponent,
                seed,
            },
            Traffic::Uniform => TraceSpec::Uniform {
                num_racks,
                len,
                seed,
            },
            Traffic::FacebookDatabase => TraceSpec::Facebook {
                cluster: FacebookCluster::Database,
                num_racks,
                len,
                seed,
            },
        }
    }

    /// The first `n` requests as `(lo, hi)` rack pairs, for input digests.
    pub fn head(&self, n: usize) -> Vec<(u32, u32)> {
        let mut source = self.spec().source();
        let mut buf = vec![Pair::new(0, 1); n.min(self.len)];
        let got = source.fill(&mut buf);
        buf[..got].iter().map(|p| (p.lo(), p.hi())).collect()
    }

    /// Σ ℓ_e over the stream, read straight from the distance matrix: the
    /// Oblivious routing cost, computed without any scheduler.
    pub fn distance_sum(&self, dm: &Distances) -> u64 {
        let mut source = self.spec().source();
        let mut buf = vec![Pair::new(0, 1); 4096];
        let mut sum = 0u64;
        loop {
            let n = source.fill(&mut buf);
            if n == 0 {
                return sum;
            }
            sum += buf[..n].iter().map(|&p| dm.ell(p) as u64).sum::<u64>();
        }
    }
}

/// Cumulative costs at one checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Costs {
    pub requests: u64,
    pub matched: u64,
    pub routing_cost: u64,
    pub reconfigurations: u64,
    pub reconfig_cost: u64,
    pub elapsed_s: f64,
}

impl From<&Checkpoint> for Costs {
    fn from(c: &Checkpoint) -> Self {
        Costs {
            requests: c.requests,
            matched: c.matched_requests,
            routing_cost: c.routing_cost,
            reconfigurations: c.reconfigurations,
            reconfig_cost: c.reconfig_cost,
            elapsed_s: c.elapsed_secs,
        }
    }
}

/// A finished run's report.
#[derive(Clone, Debug)]
pub struct Report(RunReport);

impl Report {
    pub fn alpha(&self) -> u64 {
        self.0.alpha
    }

    pub fn total(&self) -> Costs {
        (&self.0.total).into()
    }

    pub fn checkpoints(&self) -> Vec<Costs> {
        self.0.checkpoints.iter().map(Costs::from).collect()
    }

    /// The report's JSON with every wall-clock field zeroed: identical for
    /// identical runs.
    pub fn canonical_json(&self) -> String {
        let mut r = self.0.clone();
        r.total.elapsed_secs = 0.0;
        for c in &mut r.checkpoints {
            c.elapsed_secs = 0.0;
        }
        r.to_json()
    }

    /// The report as the program serializes it.
    pub fn to_json(&self) -> String {
        self.0.to_json()
    }
}

/// Telemetry counters collected from traced runs.
#[derive(Clone, Default)]
pub struct Counters(Telemetry);

impl Counters {
    pub fn enabled() -> Self {
        Counters(Telemetry::enabled())
    }

    pub fn get(&self) -> BTreeMap<String, u64> {
        self.0.snapshot().counters
    }
}

/// A source and a scheduler, constructed and ready to run.
pub struct Prepared {
    algo: Algo,
    alpha: u64,
    seed: u64,
    checkpoints: Vec<usize>,
    source: Box<dyn RequestSource + Send>,
    scheduler: Box<dyn OnlineScheduler>,
}

/// The outcome of one run: its report, and whether the final matching
/// passed `assert_valid`.
pub struct Finished {
    pub report: Report,
    pub matching: Result<(), String>,
}

/// Spans and counters of one traced run.
pub struct Tracing<'a> {
    pub log: &'a mut Vec<Span>,
    pub counters: &'a Counters,
}

impl Prepared {
    /// Runs the streamed simulation, then checks the final matching under
    /// `catch_unwind`. With `trace`, every `fill` and `serve_batch` call is
    /// a child span of `run_span`, and scheduler counters are flushed into
    /// the trace's counters.
    pub fn run(self, dm: &Distances, trace: Option<(Tracing<'_>, &Open)>) -> Finished {
        let Prepared {
            algo,
            alpha,
            seed,
            checkpoints,
            mut source,
            mut scheduler,
        } = self;
        let mut config = SimConfig {
            checkpoints,
            seed,
            trace_name: source.name().to_string(),
            ..SimConfig::default()
        };
        let mut report = match trace {
            None => dcn_core::run(scheduler.as_mut(), dm, alpha, source.as_mut(), &config),
            Some((tracing, run_span)) => {
                config = config.with_telemetry(tracing.counters.0.clone());
                let mut src = TracedSource {
                    inner: source.as_mut(),
                    parent: *run_span,
                    spans: Vec::new(),
                };
                let mut sched = TracedScheduler {
                    inner: scheduler.as_mut(),
                    parent: *run_span,
                    name: algo.span_names().1,
                    spans: Vec::new(),
                };
                let report = dcn_core::run(&mut sched, dm, alpha, &mut src, &config);
                tracing.log.append(&mut src.spans);
                tracing.log.append(&mut sched.spans);
                report
            }
        };
        report.algorithm = algo.kind().label();
        let matching = catch_unwind(AssertUnwindSafe(|| scheduler.matching().assert_valid()))
            .map_err(|e| panic_message(&e));
        Finished {
            report: Report(report),
            matching,
        }
    }
}

pub fn panic_message(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Forwards to a source, recording one span per `fill`.
struct TracedSource<'a> {
    inner: &'a mut (dyn RequestSource + Send),
    parent: Open,
    spans: Vec<Span>,
}

impl RequestSource for TracedSource<'_> {
    fn num_racks(&self) -> usize {
        self.inner.num_racks()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<Pair> {
        self.inner.next_request()
    }

    fn fill(&mut self, buf: &mut [Pair]) -> usize {
        let open = self.parent.child("traces.fill");
        let n = self.inner.fill(buf);
        self.spans.push(open.close());
        n
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// Forwards to a scheduler, recording one span per `serve_batch`.
struct TracedScheduler<'a> {
    inner: &'a mut dyn OnlineScheduler,
    parent: Open,
    name: &'static str,
    spans: Vec<Span>,
}

impl OnlineScheduler for TracedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cap(&self) -> usize {
        self.inner.cap()
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        self.inner.serve(pair)
    }

    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        let open = self.parent.child(self.name);
        self.inner.serve_batch(batch, dm, acc);
        self.spans.push(open.close());
    }

    fn matching(&self) -> &BMatching {
        self.inner.matching()
    }

    fn telemetry_flush(&mut self, sink: &Telemetry) {
        self.inner.telemetry_flush(sink)
    }
}

// ---------------------------------------------------------------------------
// Fig. 1
// ---------------------------------------------------------------------------

/// Fig. 1's parameters, at paper scale or divided by `smoke_divisor`.
#[derive(Clone, Debug)]
pub struct FigParams {
    pub racks: usize,
    pub bs: Vec<usize>,
    pub len: usize,
    pub num_checkpoints: usize,
    pub alpha: u64,
    pub reps: u64,
    spec: FigureSpec,
}

impl FigParams {
    pub fn fig1(smoke_divisor: Option<usize>) -> FigParams {
        let spec = FigureSpec::by_id("fig1").expect("Fig. 1 is a paper figure");
        let spec = match smoke_divisor {
            Some(d) => spec.scaled(d),
            None => spec,
        };
        FigParams {
            racks: spec.racks,
            bs: spec.bs.clone(),
            len: spec.total_requests,
            num_checkpoints: spec.num_checkpoints,
            alpha: spec.alpha,
            reps: spec.repetitions,
            spec,
        }
    }

    pub fn checkpoints(&self) -> Vec<usize> {
        evenly_spaced(self.len, self.num_checkpoints)
    }

    /// The trace seed and algorithm seed the figure harness gives
    /// repetition `rep`; they are the figure's own at `seed == 0`.
    pub fn rep_seeds(&self, seed: u64, rep: u64) -> (u64, u64) {
        use dcn_util::rngx::derive_seed;
        (
            derive_seed(0xF16 ^ seed, rep),
            derive_seed(0xA1 ^ seed, rep),
        )
    }

    /// The figure harness's own panels (fixed seeds), for comparison.
    pub fn reference_panels(&self) -> [Vec<Series>; 3] {
        [Panel::RoutingCost, Panel::ExecutionTime, Panel::BestOf].map(|panel| {
            let threads = if panel == Panel::ExecutionTime { 1 } else { 2 };
            dcn_bench::run_panel(&self.spec, panel, threads)
                .into_iter()
                .map(Series)
                .collect()
        })
    }
}

/// One figure job: an algorithm run over a stream.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub algo: Algo,
    pub b: usize,
    pub alpha: u64,
    pub seed: u64,
    pub stream: Stream,
    pub checkpoints: Vec<usize>,
}

impl JobSpec {
    fn job(&self) -> Job {
        Job {
            algorithm: self.algo.kind(),
            b: self.b,
            alpha: self.alpha,
            seed: self.seed,
            checkpoints: self.checkpoints.clone(),
            trace: self.stream.spec(),
        }
    }

    /// Constructs the job's source and scheduler. With `trace`, each
    /// construction is a child span of `parent`.
    pub fn prepare(&self, dm: &Distances, trace: Option<(&mut Vec<Span>, &Open)>) -> Prepared {
        let spec = self.stream.spec();
        let build = || {
            let kind = self.algo.kind();
            kind.build_online(Arc::clone(dm), self.b, self.alpha, self.seed)
        };
        let (source, scheduler) = match trace {
            None => (spec.source(), build()),
            Some((log, parent)) => (
                timed(log, parent, "traces.source_new", || spec.source()),
                timed(log, parent, self.algo.span_names().0, build),
            ),
        };
        Prepared {
            algo: self.algo,
            alpha: self.alpha,
            seed: self.seed,
            checkpoints: self.checkpoints.clone(),
            source,
            scheduler,
        }
    }
}

/// Runs the jobs on the program's work-stealing executor.
pub fn run_figure_jobs(dm: &Distances, jobs: &[JobSpec], workers: usize) -> Vec<Report> {
    let jobs: Vec<Job> = jobs.iter().map(JobSpec::job).collect();
    run_jobs(dm, &jobs, workers)
        .into_iter()
        .map(Report)
        .collect()
}

/// The traced twin of [`run_figure_jobs`]: the same jobs on the same
/// work-stealing primitive, each job run through the traced source and
/// scheduler as a `simulator.run` span (a run of its own) under `parent`.
pub fn run_figure_jobs_traced(
    dm: &Distances,
    jobs: &[JobSpec],
    workers: usize,
    parent: &Open,
    counters: &Counters,
) -> Vec<(Finished, Vec<Span>)> {
    steal_map(jobs.len(), workers, |k| {
        let mut log = Vec::new();
        let run = parent.child_run("simulator.run");
        let prepared = jobs[k].prepare(dm, Some((&mut log, &run)));
        let tracing = Tracing {
            log: &mut log,
            counters,
        };
        let finished = prepared.run(dm, Some((tracing, &run)));
        log.push(run.close());
        (finished, log)
    })
}

/// The whole stream, materialized (the offline baseline needs it).
pub fn materialize(stream: &Stream) -> Requests {
    Requests(stream.spec().as_trace().into_owned().requests)
}

/// A materialized request sequence (opaque to the benchmark).
pub struct Requests(Vec<Pair>);

/// Work counts of traced SO-BMA series.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoBmaCounts {
    pub matchings: u64,
    pub edges: u64,
}

/// SO-BMA's routing cost at each checkpoint, as the figure computes it.
pub fn so_bma_costs(dm: &Distances, requests: &Requests, b: usize, cps: &[usize]) -> Vec<u64> {
    so_bma_series(dm, &requests.0, b, cps)
        .into_iter()
        .map(|(_, cost)| cost)
        .collect()
}

/// [`so_bma_costs`] split into its pieces, each a child span of `parent`:
/// demand aggregation, the repeated max-weight matching, and the replay.
pub fn so_bma_costs_traced(
    dm: &Distances,
    requests: &Requests,
    b: usize,
    cps: &[usize],
    log: &mut Vec<Span>,
    parent: &Open,
    counts: &mut SoBmaCounts,
) -> Vec<u64> {
    cps.iter()
        .map(|&cp| {
            let prefix = &requests.0[..cp.min(requests.0.len())];
            let edges = timed(log, parent, "so_bma.aggregate", || demand_edges(dm, prefix));
            let matching = timed(log, parent, "so_bma.match", || {
                repeated_mwm_b_matching(dm.num_racks(), &edges, b)
            });
            counts.matchings += 1;
            counts.edges += edges.len() as u64;
            timed(log, parent, "so_bma.replay", || {
                static_routing_cost(dm, prefix, &matching)
            })
        })
        .collect()
}

/// One averaged series of a figure panel.
#[derive(Clone, Debug)]
pub struct Series(AveragedSeries);

/// Which checkpoint field a series averages.
#[derive(Clone, Copy, Debug)]
pub enum Metric {
    RoutingCost,
    ElapsedSecs,
}

impl Series {
    pub fn average(label: String, reports: &[Report], metric: Metric) -> Series {
        let reports: Vec<RunReport> = reports.iter().map(|r| r.0.clone()).collect();
        Series(AveragedSeries::from_reports(
            label,
            &reports,
            |c: &Checkpoint| match metric {
                Metric::RoutingCost => c.routing_cost as f64,
                Metric::ElapsedSecs => c.elapsed_secs,
            },
        ))
    }

    /// Mean and standard deviation over repetitions, point by point.
    pub fn from_samples(label: String, x: &[usize], per_rep: &[Vec<u64>]) -> Series {
        let (mut y_mean, mut y_std) = (Vec::new(), Vec::new());
        for i in 0..x.len() {
            let samples: Vec<f64> = per_rep.iter().map(|r| r[i] as f64).collect();
            let s = dcn_util::summarize(&samples);
            y_mean.push(s.mean);
            y_std.push(s.stddev);
        }
        Series(AveragedSeries {
            label,
            x: x.iter().map(|&c| c as u64).collect(),
            y_mean,
            y_std,
        })
    }

    /// Same label and x values.
    pub fn same_axes(&self, other: &Series) -> bool {
        self.0.label == other.0.label && self.0.x == other.0.x
    }

    /// Same label, x values, and bit-identical means and deviations.
    pub fn same_values(&self, other: &Series) -> bool {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        self.same_axes(other)
            && bits(&self.0.y_mean) == bits(&other.0.y_mean)
            && bits(&self.0.y_std) == bits(&other.0.y_std)
    }
}

/// A panel rendered the way the figure harness prints and writes it.
pub fn render_panel(title: &str, series: &[Series]) -> String {
    let series: Vec<AveragedSeries> = series.iter().map(|s| s.0.clone()).collect();
    dcn_bench::series_to_markdown(title, &series) + &dcn_bench::series_to_csv(&series)
}

/// The committed adversary corpus, replay-gated, as a markdown table.
pub fn worst_case_panel() -> String {
    dcn_bench::worst_case_panel().to_markdown()
}
