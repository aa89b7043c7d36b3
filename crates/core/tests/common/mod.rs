//! Shared batched ≡ per-request harness for `sorted_equivalence.rs`
//! and `specials_sharded_equivalence.rs`: for every scheduler (R-BMA lazy
//! and strict, BMA, Oblivious, Rotor with rotations inside and outside
//! chunks, and PeriodicRebuild on the default `serve_batch` loop), serving
//! a trace through `serve_batch` at batch sizes 2, 7, 97, 1024 and 70 000
//! must produce exactly the `RunReport` of `batch_size = 1` — every
//! checkpoint field, not just totals. Checkpoints land inside batches.
//! Each caller picks the verification interval: a nonzero one (coprime to
//! the batch sizes) puts verify boundaries inside batches too, but since
//! the simulator cuts every chunk at those boundaries it also caps the
//! chunk length, so long-chunk cases pass 0 (checkpoints only).

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use dcn_core::algorithms::bma::Bma;
use dcn_core::algorithms::oblivious::Oblivious;
use dcn_core::algorithms::periodic::PeriodicRebuild;
use dcn_core::algorithms::rbma::{Rbma, RemovalMode};
use dcn_core::algorithms::rotor::Rotor;
use dcn_core::scheduler::{BatchOutcome, ServeOutcome};
use dcn_core::{run, OnlineScheduler, RunReport, SimConfig};
use dcn_matching::BMatching;
use dcn_topology::{builders, DistanceMatrix, Pair};
use std::sync::Arc;

/// Batch sizes every case is served at; 70 000 is above any u16 chunk
/// length, so a long enough trace gets one chunk past 65 535 requests.
pub const BATCH_SIZES: [usize; 5] = [2, 7, 97, 1024, 70_000];

/// The trace shapes the batched loops must stay exact on.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Long runs of a few identical pairs.
    DuplicateHeavy,
    /// All-distinct pairs: every chunk is a stride walk over the pairs.
    Permutation,
    /// Everything hits one hub rack: maximal eviction pressure there.
    Star,
    /// Alternating permutation and star segments — at small α nearly
    /// every request is a Theorem-1 special, with fault/eviction churn.
    SpecialsHeavy,
}

/// Deterministic trace synthesis from an xorshift stream — no RNG state
/// shared with the schedulers under test.
pub fn make_trace(shape: Shape, n: u32, len: usize, seed: u64) -> Vec<Pair> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let pair = |a: u64, b: u64| {
        let a = (a % n as u64) as u32;
        let mut b = (b % n as u64) as u32;
        if a == b {
            b = (b + 1) % n;
        }
        Pair::new(a, b)
    };
    let all: Vec<Pair> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| Pair::new(a, b)))
        .collect();
    let mut out = Vec::with_capacity(len);
    match shape {
        Shape::DuplicateHeavy => {
            // A hot pool of 3 pairs, emitted in runs of 1..=8.
            let pool: Vec<Pair> = (0..3).map(|_| pair(next(), next())).collect();
            while out.len() < len {
                let p = pool[(next() % pool.len() as u64) as usize];
                for _ in 0..=(next() % 8) {
                    out.push(p);
                }
            }
        }
        Shape::Permutation => {
            // A stride coprime to the pair count: within each lap every
            // pair occurs exactly once, so chunks carry no duplicates.
            let mut stride = 1 + (next() % all.len() as u64) as usize;
            while stride > 1 && all.len().is_multiple_of(stride) {
                stride -= 1;
            }
            let mut i = (next() % all.len() as u64) as usize;
            for _ in 0..len {
                out.push(all[i]);
                i = (i + stride) % all.len();
            }
        }
        Shape::Star => {
            let hub = next() % n as u64;
            for _ in 0..len {
                out.push(pair(hub, next()));
            }
        }
        Shape::SpecialsHeavy => {
            let mut perm_i = (next() % all.len() as u64) as usize;
            while out.len() < len {
                let seg = 20 + (next() % 60) as usize;
                let stride = 1 + (next() % (all.len() as u64 - 1)) as usize;
                for _ in 0..seg {
                    out.push(all[perm_i]);
                    perm_i = (perm_i + stride) % all.len();
                }
                let hub = next();
                let seg = 20 + (next() % 60) as usize;
                for _ in 0..seg {
                    out.push(pair(hub, next()));
                }
            }
        }
    }
    out.truncate(len);
    out
}

/// Reports must agree on every field except wall-clock time.
pub fn assert_reports_identical(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.total.requests, b.total.requests, "{ctx}");
    assert_eq!(a.total.routing_cost, b.total.routing_cost, "{ctx}");
    assert_eq!(a.total.reconfig_cost, b.total.reconfig_cost, "{ctx}");
    assert_eq!(a.total.reconfigurations, b.total.reconfigurations, "{ctx}");
    assert_eq!(a.total.matched_requests, b.total.matched_requests, "{ctx}");
    assert_eq!(a.checkpoints.len(), b.checkpoints.len(), "{ctx}");
    for (x, y) in a.checkpoints.iter().zip(&b.checkpoints) {
        assert_eq!(x.requests, y.requests, "{ctx}");
        assert_eq!(x.routing_cost, y.routing_cost, "{ctx}");
        assert_eq!(x.reconfig_cost, y.reconfig_cost, "{ctx}");
        assert_eq!(x.reconfigurations, y.reconfigurations, "{ctx}");
        assert_eq!(x.matched_requests, y.matched_requests, "{ctx}");
    }
}

type Factory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

/// Forwards to the wrapped scheduler and records the longest chunk the
/// simulator handed to `serve_batch`, so callers can assert which chunk
/// lengths a case really exercised.
struct ChunkProbe {
    inner: Box<dyn OnlineScheduler>,
    longest: usize,
}

impl OnlineScheduler for ChunkProbe {
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
        self.longest = self.longest.max(batch.len());
        self.inner.serve_batch(batch, dm, acc);
    }
    fn matching(&self) -> &BMatching {
        self.inner.matching()
    }
}

/// Every scheduler the equivalence must hold for: the fused overrides
/// (R-BMA in both removal modes, BMA, Oblivious), a short-period rotor
/// whose rotation boundaries fall *inside* chunks, a long-period one, and
/// a default-loop scheduler (PeriodicRebuild).
pub fn factories(dm: &Arc<DistanceMatrix>, alpha: u64, b: usize) -> Vec<(&'static str, Factory)> {
    let n = dm.num_racks();
    let d = |f: fn(Arc<DistanceMatrix>, u64, usize) -> Box<dyn OnlineScheduler>| {
        let dm = Arc::clone(dm);
        Box::new(move || f(dm.clone(), alpha, b)) as Factory
    };
    vec![
        (
            "rbma-lazy",
            d(|dm, a, b| Box::new(Rbma::new(dm, b, a, RemovalMode::Lazy, 7))),
        ),
        (
            "rbma-strict",
            d(|dm, a, b| Box::new(Rbma::new(dm, b, a, RemovalMode::Strict, 7))),
        ),
        ("bma", d(|dm, a, b| Box::new(Bma::new(dm, b, a)))),
        (
            "oblivious",
            Box::new(move || Box::new(Oblivious::new(n, b))),
        ),
        (
            "rotor-short",
            Box::new(move || Box::new(Rotor::new(n, 2, 5))),
        ),
        (
            "rotor-long",
            Box::new(move || Box::new(Rotor::new(n, 2, 1_000_000))),
        ),
        (
            "periodic-default-loop",
            d(|dm, _, b| Box::new(PeriodicRebuild::new(dm, b, 50))),
        ),
    ]
}

/// Checkpoints deliberately off the batch grid.
pub fn mid_checkpoints(len: usize) -> Vec<usize> {
    vec![len / 3 + 1, len / 2, len.saturating_sub(1)]
}

/// Serves the case at every batch size and asserts each report equals the
/// per-request one. `verify_every` is the simulator's verification
/// interval (0 = checkpoints only). Returns, per entry of `BATCH_SIZES`,
/// the longest chunk any scheduler was handed at that batch size.
#[allow(clippy::too_many_arguments)]
pub fn check(
    shape: Shape,
    racks: usize,
    len: usize,
    seed: u64,
    alpha: u64,
    b: usize,
    cps: Vec<usize>,
    verify_every: usize,
) -> [usize; BATCH_SIZES.len()] {
    let net = builders::fat_tree_with_racks(racks);
    let dm = Arc::new(DistanceMatrix::between_racks(&net));
    // fat_tree_with_racks may round the rack count up — draw pairs from
    // the actual universe.
    let n = dm.num_racks();
    let trace = make_trace(shape, n as u32, len, seed);
    let base = SimConfig {
        checkpoints: cps,
        verify_every,
        ..Default::default()
    };
    let mut longest = [0usize; BATCH_SIZES.len()];
    for (name, make) in factories(&dm, alpha, b) {
        let per_request = run(
            make().as_mut(),
            &dm,
            alpha,
            &trace,
            &base.clone().with_batch_size(1),
        );
        if let (Shape::SpecialsHeavy, "rbma-lazy" | "rbma-strict") = (shape, name) {
            // Non-vacuity: every R-BMA matching insertion happens inside a
            // special request, so reconfigurations > 0 proves the slow
            // path ran.
            assert!(
                per_request.total.reconfigurations > 0,
                "{name}: no specials fired (α={alpha}, len={len}, seed={seed})"
            );
        }
        for (i, batch) in BATCH_SIZES.into_iter().enumerate() {
            let mut probe = ChunkProbe {
                inner: make(),
                longest: 0,
            };
            let batched = run(
                &mut probe,
                &dm,
                alpha,
                &trace,
                &base.clone().with_batch_size(batch),
            );
            assert_reports_identical(
                &batched,
                &per_request,
                &format!("{name} {shape:?} α={alpha} b={b} batch={batch} verify={verify_every}"),
            );
            assert!(probe.longest <= batch, "{name}: chunk longer than batch");
            longest[i] = longest[i].max(probe.longest);
        }
    }
    longest
}
