//! Output checks. Every check is independent of the program's own
//! accounting paths: cost identities are recomputed from the reported
//! components, and digests are taken over the canonical report JSON.

use crate::adapter::Report;
use crate::Opts;

/// Problems with a report's cost identities: at every checkpoint
/// `reconfig_cost = α·reconfigurations` and `matched ≤ requests ≤
/// routing cost`, and the run served `expected_requests` requests.
pub fn cost_problems(report: &Report, expected_requests: u64) -> Vec<String> {
    let alpha = report.alpha();
    let total = report.total();
    let mut problems = Vec::new();
    if total.requests != expected_requests {
        problems.push(format!(
            "served {} requests, expected {expected_requests}",
            total.requests
        ));
    }
    for c in report.checkpoints().iter().chain([&total]) {
        if c.reconfig_cost != alpha * c.reconfigurations {
            problems.push(format!(
                "at {} requests: reconfig cost {} != α·{} reconfigurations",
                c.requests, c.reconfig_cost, c.reconfigurations
            ));
        }
        if !(c.matched <= c.requests && c.requests <= c.routing_cost) {
            problems.push(format!(
                "at {} requests: matched {} / routing cost {} out of order",
                c.requests, c.matched, c.routing_cost
            ));
        }
    }
    problems
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests of the outputs at the default seed, per workload and mode
/// (`false` = full size, `true` = smoke size).
const PINNED: &[(&str, bool, u64)] = &[
    ("standard-point", false, 0x778c_d745_d5a9_d006),
    ("standard-point", true, 0x8158_e044_d5bd_0c80),
    ("churn", false, 0x7517_9ae6_ea73_f736),
    ("churn", true, 0xffd4_11e9_f823_aa70),
    ("fig1-paper", false, 0x2ad7_ba88_19ed_4025),
    ("fig1-paper", true, 0x9013_48dc_7e00_780b),
];

/// Compares the output digest with the pinned one (deliberately wrong
/// under `tamper_digest`).
pub fn check_pinned(tally: &mut Tally, workload: &str, opts: &Opts, digest: u64) {
    let pinned = PINNED
        .iter()
        .find(|&&(w, smoke, _)| w == workload && smoke == opts.smoke)
        .map(|&(_, _, d)| d ^ u64::from(opts.tamper_digest));
    tally.check("pinned digest", pinned == Some(digest), || {
        format!("output digest {digest:016x}, pinned {pinned:x?}")
    });
}

/// Counts runs attempted and runs that failed a check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one run and the problems found with it.
    pub fn run(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures.push(format!("{what}: {p}"));
            }
        }
    }

    /// Records one check run that passed when `ok`.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        let problems = if ok { Vec::new() } else { vec![detail()] };
        self.run(what, problems);
    }

    /// Records `n` runs lost to a panic.
    pub fn panicked(&mut self, what: &str, n: u64, message: String) {
        self.attempted += n;
        self.failed += n;
        self.failures.push(format!("{what}: panicked: {message}"));
    }
}

/// Remembers the first value seen per slot and reports later mismatches.
#[derive(Debug, Default)]
pub struct SameEachTime {
    first: Vec<String>,
}

impl SameEachTime {
    /// Whether `value` equals the first value recorded for slot `i`.
    pub fn check(&mut self, i: usize, value: String) -> bool {
        if i == self.first.len() {
            self.first.push(value);
            true
        } else {
            self.first[i] == value
        }
    }
}
