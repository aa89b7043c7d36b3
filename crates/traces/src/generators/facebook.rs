//! Facebook-like cluster workloads (substitute for the Roy et al. \[63\]
//! traces used in the paper's Figs. 1–3).
//!
//! The generator layers temporal structure on top of a skewed spatial base:
//!
//! * **Spatial base**: rack popularity follows a Zipf law over a random
//!   (seeded) permutation; each source has its own Zipf-permuted partner
//!   ranking. This mirrors the heavy-tailed traffic matrices measured in
//!   \[63\] and gives the stable "heavy pairs" that b-matchings exploit.
//! * **Temporal structure**: a drifting working set. Each request is, with
//!   probability `p_burst`, a repetition of a recent pair (uniform over an
//!   LRU working set of size `working_set`); otherwise a fresh sample from
//!   the spatial base. This produces the bursty arrivals and temporal
//!   locality that online algorithms exploit and i.i.d. traffic lacks.
//! * **Hadoop preset** additionally runs *shuffle phases*: periodically a
//!   small set of pairs becomes hot for a phase (map→reduce traffic),
//!   modeling the batch nature of that cluster.
//!
//! Presets roughly order the clusters by temporal structure, matching the
//! paper's qualitative description: Database (strongest locality, highest
//! skew) > WebService > Hadoop (phase-driven, flatter base skew).
//!
//! The workload is a lazy [`RequestSource`] whose per-request state is the
//! bounded working set plus the current phase pairs — O(1) in the stream
//! length — so arbitrarily long Facebook-like streams fit in constant
//! memory. The `*_trace` functions materialize it for eager callers.

use crate::sampler::{zipf_weights, AliasTable};
use crate::source::{RequestSource, SeededSource, SourceKernel};
use crate::trace::Trace;
use dcn_topology::Pair;
use dcn_util::rngx::{derive_seed, shuffle, Coin, UniformBelow};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Which Facebook cluster to emulate (Fig. 1 / 2 / 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FacebookCluster {
    /// SQL-serving database cluster: high skew, strong temporal locality.
    Database,
    /// Web-service cluster: moderate skew and locality.
    WebService,
    /// Hadoop batch cluster: shuffle phases, flatter base skew.
    Hadoop,
}

/// Tunable generator parameters (see [`FacebookParams::preset`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FacebookParams {
    /// Zipf exponent of source-rack popularity.
    pub src_skew: f64,
    /// Zipf exponent of per-source partner ranking.
    pub dst_skew: f64,
    /// Probability that a request repeats a working-set pair.
    pub p_burst: f64,
    /// Number of recent distinct pairs kept in the working set.
    pub working_set: usize,
    /// Shuffle phases: 0 disables; otherwise the phase length in requests.
    pub phase_len: usize,
    /// Number of hot pairs per shuffle phase.
    pub phase_pairs: usize,
    /// Probability that an in-phase request uses a hot phase pair.
    pub p_phase: f64,
}

impl FacebookParams {
    /// Cluster presets calibrated so that the top-b partners of a rack
    /// capture the traffic shares the paper's cost reductions imply
    /// (roughly 30-50% for b ≈ 18 on 100 racks).
    pub fn preset(cluster: FacebookCluster) -> Self {
        match cluster {
            FacebookCluster::Database => Self {
                src_skew: 1.0,
                dst_skew: 1.1,
                p_burst: 0.45,
                working_set: 320,
                phase_len: 0,
                phase_pairs: 0,
                p_phase: 0.0,
            },
            FacebookCluster::WebService => Self {
                src_skew: 0.9,
                dst_skew: 1.0,
                p_burst: 0.35,
                working_set: 512,
                phase_len: 0,
                phase_pairs: 0,
                p_phase: 0.0,
            },
            FacebookCluster::Hadoop => Self {
                src_skew: 0.6,
                dst_skew: 0.8,
                p_burst: 0.25,
                working_set: 256,
                phase_len: 12_000,
                phase_pairs: 90,
                p_phase: 0.5,
            },
        }
    }
}

/// Bounded FIFO window of recent pairs with O(1) push and uniform
/// sampling; duplicates stay, so a recurring pair is sampled more often.
struct WorkingSet {
    ring: std::collections::VecDeque<Pair>,
    /// The index draw over a full ring.
    full: UniformBelow,
}

impl WorkingSet {
    fn new(cap: usize) -> Self {
        Self {
            ring: std::collections::VecDeque::with_capacity(cap + 1),
            full: UniformBelow::new(cap as u64),
        }
    }

    #[inline]
    fn push(&mut self, p: Pair) {
        self.ring.push_back(p);
        if self.ring.len() as u64 > self.full.span() {
            self.ring.pop_front();
        }
    }

    /// A uniform pair of the window, drawn as `random_range(0..len)`.
    #[inline(always)]
    fn sample(&self, rng: &mut SmallRng) -> Option<Pair> {
        let len = self.ring.len() as u64;
        if len == self.full.span() {
            Some(self.ring[self.full.sample(rng) as usize])
        } else {
            self.sample_filling(rng)
        }
    }

    /// [`sample`](Self::sample) before the ring is full.
    #[cold]
    fn sample_filling(&self, rng: &mut SmallRng) -> Option<Pair> {
        let len = self.ring.len() as u64;
        (len > 0).then(|| self.ring[UniformBelow::new(len).sample(rng) as usize])
    }
}

/// Kernel of [`facebook_source`]: the Zipf spatial base is frozen at setup,
/// the working set and phase pairs evolve per request.
pub struct FacebookKernel {
    phase_len: usize,
    phase_pairs: usize,
    p_phase: Coin,
    p_burst: Coin,
    /// Source-rack table whose labels are the racks themselves.
    src: AliasTable,
    /// One row per source rack, labeled with that source's partners.
    dst: AliasTable,
    working: WorkingSet,
    phase_hot: Vec<Pair>,
    /// The index draw over `phase_hot` (which always holds `phase_pairs`).
    phase_pick: UniformBelow,
}

impl FacebookKernel {
    #[inline]
    fn sample_fresh(&self, rng: &mut SmallRng) -> Pair {
        let src = self.src.sample(rng);
        let dst = self.dst.sample_row(src as usize, rng);
        Pair::new(src, dst)
    }

    /// Hadoop-style shuffle phases: draws the new hot set at a phase border.
    fn enter_phase(&mut self, rng: &mut SmallRng) {
        self.phase_hot.clear();
        for _ in 0..self.phase_pairs {
            let fresh = self.sample_fresh(rng);
            self.phase_hot.push(fresh);
        }
    }

    /// One request, after the phase border (if any) at its position.
    #[inline(always)]
    fn step(&mut self, rng: &mut SmallRng) -> Pair {
        let pair = if !self.phase_hot.is_empty() && self.p_phase.flip(rng) {
            self.phase_hot[self.phase_pick.sample(rng) as usize]
        } else if self.p_burst.flip(rng) {
            match self.working.sample(rng) {
                Some(p) => p,
                None => self.sample_fresh(rng),
            }
        } else {
            self.sample_fresh(rng)
        };
        self.working.push(pair);
        pair
    }
}

impl SourceKernel for FacebookKernel {
    fn emit(&mut self, t: usize, rng: &mut SmallRng) -> Pair {
        if self.phase_len > 0 && t.is_multiple_of(self.phase_len) {
            self.enter_phase(rng);
        }
        self.step(rng)
    }

    fn emit_batch(&mut self, t0: usize, out: &mut [Pair], rng: &mut SmallRng) {
        // One inner loop per stretch between phase borders.
        let mut t = t0;
        let mut written = 0;
        while written < out.len() {
            let mut take = out.len() - written;
            if self.phase_len > 0 {
                let into_phase = t % self.phase_len;
                if into_phase == 0 {
                    self.enter_phase(rng);
                }
                take = take.min(self.phase_len - into_phase);
            }
            for slot in &mut out[written..written + take] {
                *slot = self.step(rng);
            }
            written += take;
            t += take;
        }
    }

    fn reset_state(&mut self) {
        self.working.ring.clear();
        self.phase_hot.clear();
    }
}

/// A Facebook-like request stream over `num_racks` racks.
pub fn facebook_source(
    num_racks: usize,
    len: usize,
    params: FacebookParams,
    seed: u64,
) -> SeededSource<FacebookKernel> {
    assert!(num_racks >= 3, "need at least 3 racks");
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0xFB));

    // Spatial base: Zipf-over-permutation source popularity...
    let mut src_perm: Vec<u32> = (0..num_racks as u32).collect();
    shuffle(&mut src_perm, &mut rng);
    // ...and an independent partner ranking per source.
    let partners: Vec<Vec<u32>> = (0..num_racks as u32)
        .map(|s| {
            let mut partners: Vec<u32> = (0..num_racks as u32).filter(|&v| v != s).collect();
            shuffle(&mut partners, &mut rng);
            partners
        })
        .collect();

    let kernel = FacebookKernel {
        phase_len: params.phase_len,
        phase_pairs: params.phase_pairs,
        p_phase: Coin::new(params.p_phase),
        p_burst: Coin::new(params.p_burst),
        src: AliasTable::relabeled_rows(
            &zipf_weights(num_racks, params.src_skew),
            [src_perm.as_slice()],
        ),
        dst: AliasTable::relabeled_rows(
            &zipf_weights(num_racks - 1, params.dst_skew),
            partners.iter().map(Vec::as_slice),
        ),
        working: WorkingSet::new(params.working_set.max(1)),
        phase_hot: Vec::new(),
        phase_pick: UniformBelow::new(params.phase_pairs.max(1) as u64),
    };
    SeededSource::new(kernel, rng, len, num_racks, format!("facebook({params:?})"))
}

/// Generates a Facebook-like trace over `num_racks` racks (materialized
/// [`facebook_source`]).
pub fn facebook_trace(num_racks: usize, len: usize, params: FacebookParams, seed: u64) -> Trace {
    facebook_source(num_racks, len, params, seed).materialize()
}

/// Convenience: preset stream for a named cluster.
pub fn facebook_cluster_source(
    cluster: FacebookCluster,
    num_racks: usize,
    len: usize,
    seed: u64,
) -> SeededSource<FacebookKernel> {
    facebook_source(num_racks, len, FacebookParams::preset(cluster), seed)
        .with_name(format!("facebook-{cluster:?}(n={num_racks})"))
}

/// Convenience: preset trace for a named cluster.
pub fn facebook_cluster_trace(
    cluster: FacebookCluster,
    num_racks: usize,
    len: usize,
    seed: u64,
) -> Trace {
    facebook_cluster_source(cluster, num_racks, len, seed).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn deterministic_per_seed() {
        let a = facebook_cluster_trace(FacebookCluster::Database, 20, 5000, 7);
        let b = facebook_cluster_trace(FacebookCluster::Database, 20, 5000, 7);
        assert_eq!(a.requests, b.requests);
        let c = facebook_cluster_trace(FacebookCluster::Database, 20, 5000, 8);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn endpoints_in_range_and_distinct() {
        let t = facebook_cluster_trace(FacebookCluster::Hadoop, 30, 20_000, 3);
        assert_eq!(t.len(), 20_000);
        for r in &t.requests {
            assert!((r.hi() as usize) < 30);
            assert!(r.lo() != r.hi());
        }
    }

    #[test]
    fn database_is_more_skewed_than_hadoop() {
        let db = facebook_cluster_trace(FacebookCluster::Database, 50, 60_000, 1);
        let hd = facebook_cluster_trace(FacebookCluster::Hadoop, 50, 60_000, 1);
        let g_db = TraceStats::compute(&db).pair_gini;
        let g_hd = TraceStats::compute(&hd).pair_gini;
        assert!(
            g_db > g_hd,
            "database gini {g_db} should exceed hadoop gini {g_hd}"
        );
        assert!(
            g_db > 0.5,
            "database traffic should be clearly skewed, gini {g_db}"
        );
    }

    #[test]
    fn bursts_create_temporal_locality() {
        // With bursts, the median reuse distance must be far below what an
        // i.i.d. shuffle of the same multiset would give.
        let t = facebook_cluster_trace(FacebookCluster::Database, 50, 40_000, 5);
        let stats = TraceStats::compute(&t);
        assert!(
            stats.median_reuse_distance < 1_500.0,
            "expected bursty reuse, median {}",
            stats.median_reuse_distance
        );
    }

    #[test]
    fn top_partner_coverage_supports_b_matching() {
        // The top 18 partners of each rack must capture a large share of its
        // traffic — the regime in which the paper reports ~35% cost savings.
        let t = facebook_cluster_trace(FacebookCluster::Database, 100, 100_000, 11);
        let cov = TraceStats::compute(&t).topk_partner_coverage(&t, 18);
        assert!(
            cov > 0.45,
            "top-18 coverage {cov} too small for the paper's regime"
        );
    }
}
