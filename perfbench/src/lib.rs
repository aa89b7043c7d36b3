//! The repository benchmark.
//!
//! One command runs one of three named workloads for a given number of
//! seconds, checks every output, and prints each metric with its unit. A
//! plain run (`trace = false`) reports the end-to-end metrics; a traced run
//! records spans around every call into the program and reports the
//! per-layer metrics. See `BENCHMARK.json` at the repository root for the
//! metric list, the workloads, and why each was chosen.

pub mod adapter;
pub mod check;
mod figure;
mod serve;
pub mod spans;

use check::Tally;
use spans::{Attribution, Span};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StandardPoint,
    Churn,
    Fig1Paper,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StandardPoint,
        Workload::Churn,
        Workload::Fig1Paper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StandardPoint => "standard-point",
            Workload::Churn => "churn",
            Workload::Fig1Paper => "fig1-paper",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// How long to keep starting measured passes.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Tiny request counts and a fixed number of passes, for tests.
    pub smoke: bool,
    /// Expect a wrong digest, so the digest check must fail.
    pub tamper_digest: bool,
}

/// The seed at which outputs are compared with pinned digests and with the
/// figure harness's own Fig. 1.
pub const DEFAULT_SEED: u64 = 0;

impl Opts {
    /// Passes to run: at least `min`, then more while under `seconds`
    /// (exactly `min` in smoke mode).
    fn more_passes(&self, done: usize, min: usize, started: std::time::Instant) -> bool {
        done < min || (!self.smoke && started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// A metric's samples (one per measured pass, run or set-up) and unit; its
/// value is the median of the samples.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            samples,
        }
    }

    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Self::new(name, unit, vec![value])
    }

    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        let m = self.value();
        match quartiles(&self.samples) {
            Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
            _ => 0.0,
        }
    }
}

/// What one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Digest of the canonical outputs of one pass.
    pub output_digest: u64,
    /// Digest of the head of the generated input.
    pub input_digest: u64,
    pub requests_per_run: u64,
    pub passes: usize,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Outcome {
    match opts.workload {
        Workload::StandardPoint => serve::run(&serve::STANDARD_POINT, opts),
        Workload::Churn => serve::run(&serve::CHURN, opts),
        Workload::Fig1Paper => figure::run(opts),
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics shared by every workload.
fn end_to_end(
    rbma_mreq_s: Vec<f64>,
    bma_mreq_s: Vec<f64>,
    figure_s: Vec<f64>,
    setup_s: Vec<f64>,
    tally: &Tally,
) -> Vec<Metric> {
    let ok_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    vec![
        Metric::new("rbma_mreq_s", "Mreq/s", rbma_mreq_s),
        Metric::new("bma_mreq_s", "Mreq/s", bma_mreq_s),
        Metric::new("figure_s", "s", figure_s),
        Metric::new("setup_s", "s", setup_s),
        Metric::one("peak_rss_mib", "MiB", peak_rss_mib()),
        Metric::one("run_ok_share", "share", ok_share),
    ]
}

/// Layers whose self-time share every traced run reports.
const LAYERS: [(&str, &str); 10] = [
    ("topology", "topology.self_share"),
    ("traces", "traces.self_share"),
    ("simulator", "simulator.self_share"),
    ("rbma", "rbma.self_share"),
    ("bma", "bma.self_share"),
    ("oblivious", "oblivious.self_share"),
    ("sweep", "sweep.self_share"),
    ("so_bma", "so_bma.self_share"),
    ("bench", "bench.self_share"),
    ("adversary", "adversary.self_share"),
];

/// Per-layer measurements gathered by a traced run, beyond the spans.
#[derive(Debug, Default)]
struct LayerInputs {
    traced_passes: usize,
    dm_build_s: Vec<f64>,
    /// Totals over the traced R-BMA / BMA runs.
    rbma: RunTotals,
    bma: RunTotals,
    oblivious: RunTotals,
    counters: std::collections::BTreeMap<String, u64>,
    /// Traced and untraced pass wall times.
    traced_wall_s: Vec<f64>,
    untraced_wall_s: Vec<f64>,
    so_bma: adapter::SoBmaCounts,
    sweep_workers: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct RunTotals {
    requests: u64,
    matched: u64,
    reconfigurations: u64,
}

impl RunTotals {
    fn add(&mut self, c: adapter::Costs) {
        self.requests += c.requests;
        self.matched += c.matched;
        self.reconfigurations += c.reconfigurations;
    }

    fn per_req(&self, n: u64) -> f64 {
        ratio(n as f64, self.requests as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(spans: &[Span], inp: &LayerInputs) -> Vec<Metric> {
    let a: Attribution = spans::attribute(spans);
    let passes = inp.traced_passes.max(1) as f64;
    let per_pass = |name: &str| a.total(name).1 as f64 / passes;
    let secs_per_pass = |name: &str| a.total(name).0 / passes;
    let counter = |name: &str| inp.counters.get(name).copied().unwrap_or(0);
    let chunk_us = |name: &str, p: f64| {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        percentile(&us, p)
    };
    let serve_ns = |name: &str, t: &RunTotals| ratio(a.total(name).0 * 1e9, t.requests as f64);
    let all_requests = (inp.rbma.requests + inp.bma.requests + inp.oblivious.requests) as f64;
    let jobs = a.total("simulator.run");
    let (sweep_jobs, sweep_busy_s) = if inp.sweep_workers > 0.0 {
        (jobs.1 as f64 / passes, jobs.0 / passes)
    } else {
        (0.0, 0.0)
    };
    let traced_wall = median(&inp.traced_wall_s);
    let capacity = inp.sweep_workers * traced_wall;
    let rbma_chunks = a.total("rbma.serve_batch").1;
    let mut m = vec![
        Metric::new("topology.dm_build_s", "s", inp.dm_build_s.clone()),
        Metric::one(
            "traces.fill_ns_per_req",
            "ns/req",
            ratio(a.total("traces.fill").0 * 1e9, all_requests),
        ),
        Metric::one("traces.fill_calls", "count", per_pass("traces.fill")),
        Metric::one(
            "traces.materialize_s",
            "s",
            secs_per_pass("traces.materialize"),
        ),
        Metric::one(
            "simulator.loop_ns_per_req",
            "ns/req",
            ratio(a.layer_self_s("simulator") * 1e9, all_requests),
        ),
        Metric::one(
            "simulator.chunks",
            "count",
            per_pass("rbma.serve_batch")
                + per_pass("bma.serve_batch")
                + per_pass("oblivious.serve_batch"),
        ),
        Metric::one(
            "rbma.serve_ns_per_req",
            "ns/req",
            serve_ns("rbma.serve_batch", &inp.rbma),
        ),
        Metric::one("rbma.chunk_us_p50", "us", chunk_us("rbma.serve_batch", 0.5)),
        Metric::one(
            "rbma.chunk_us_p99",
            "us",
            chunk_us("rbma.serve_batch", 0.99),
        ),
        Metric::one(
            "rbma.matched_share",
            "share",
            inp.rbma.per_req(inp.rbma.matched),
        ),
        Metric::one(
            "rbma.reconfig_per_req",
            "1/req",
            inp.rbma.per_req(inp.rbma.reconfigurations),
        ),
        Metric::one(
            "rbma.specials_share",
            "share",
            inp.rbma.per_req(counter("rbma.specials")),
        ),
        Metric::one(
            "rbma.fast_specials_share",
            "share",
            inp.rbma.per_req(counter("rbma.fast_specials")),
        ),
        Metric::one(
            "rbma.slab_chunk_share",
            "share",
            ratio(
                rbma_chunks.saturating_sub(counter("rbma.unsorted_diverts")) as f64,
                rbma_chunks as f64,
            ),
        ),
        Metric::one(
            "rbma.marking_phases",
            "count",
            counter("rbma.marking_phases") as f64 / passes,
        ),
        Metric::one(
            "bma.serve_ns_per_req",
            "ns/req",
            serve_ns("bma.serve_batch", &inp.bma),
        ),
        Metric::one("bma.chunk_us_p50", "us", chunk_us("bma.serve_batch", 0.5)),
        Metric::one("bma.chunk_us_p99", "us", chunk_us("bma.serve_batch", 0.99)),
        Metric::one(
            "bma.matched_share",
            "share",
            inp.bma.per_req(inp.bma.matched),
        ),
        Metric::one(
            "bma.buys_per_req",
            "1/req",
            inp.bma.per_req(counter("bma.buys")),
        ),
        Metric::one(
            "bma.evictions_per_req",
            "1/req",
            inp.bma.per_req(counter("bma.evictions")),
        ),
        Metric::one(
            "bma.lru_splices_per_req",
            "1/req",
            inp.bma.per_req(counter("bma.lru_splices")),
        ),
        Metric::one("sweep.jobs", "count", sweep_jobs),
        Metric::one("sweep.busy_s", "s", sweep_busy_s),
        Metric::one("sweep.idle_s", "s", (capacity - sweep_busy_s).max(0.0)),
        Metric::one("sweep.efficiency", "share", ratio(sweep_busy_s, capacity)),
        Metric::one("so_bma.s", "s", secs_per_pass("so_bma.series")),
        Metric::one("so_bma.aggregate_s", "s", secs_per_pass("so_bma.aggregate")),
        Metric::one("so_bma.match_s", "s", secs_per_pass("so_bma.match")),
        Metric::one("so_bma.replay_s", "s", secs_per_pass("so_bma.replay")),
        Metric::one(
            "so_bma.matchings",
            "count",
            inp.so_bma.matchings as f64 / passes,
        ),
        Metric::one("so_bma.edges", "count", inp.so_bma.edges as f64 / passes),
        Metric::one("bench.assemble_s", "s", secs_per_pass("bench.assemble")),
        Metric::one("adversary.replay_s", "s", secs_per_pass("adversary.replay")),
        Metric::one(
            "trace.overhead_pct",
            "%",
            100.0 * (ratio(traced_wall, median(&inp.untraced_wall_s)) - 1.0),
        ),
        Metric::one("trace.unattributed_share", "share", a.unattributed_share()),
    ];
    for (layer, name) in LAYERS {
        m.push(Metric::one(
            name,
            "share",
            ratio(a.layer_self_s(layer), a.lane_ns as f64 * 1e-9),
        ));
    }
    m
}

/// The median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Linear-interpolated percentile `p ∈ [0, 1]`; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default); `None` for fewer than two
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v: Vec<f64> = samples.to_vec();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// A well-spread 64-bit value derived from a seed and a stream index
/// (splitmix64).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
