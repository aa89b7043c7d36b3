//! Microsoft-like workload (substitute for the ProjecToR \[32\] rack-to-rack
//! probability matrix used in the paper's Fig. 4).
//!
//! The paper itself *generates* its Microsoft trace by sampling i.i.d. from
//! a probability matrix: “In order to generate a trace, we sample from this
//! distribution i.i.d. Hence, this trace does not contain any temporal
//! structure by design. However, it is known that it contains significant
//! spatial structure (i.e., is skewed).” We reproduce exactly that recipe
//! with a synthetic matrix of the same character: heavy-tailed pair weights
//! (product of Zipf rack popularities with log-normal-style noise), i.i.d.
//! sampling, no temporal correlation.
//!
//! The matrix construction itself lives in `dcn-demand`
//! ([`dcn_demand::microsoft_pair_weights`] /
//! [`dcn_demand::DemandMatrix::microsoft`]); this module is the thin trace
//! preset over it. The kernel is the generic [`MatrixKernel`], fed the
//! historical `(pairs, weights)` construction order so seeded streams are
//! byte-identical to what this generator produced before the demand layer
//! existed (pinned by `tests/stream_digests.rs`).

use crate::generators::demand::MatrixKernel;
use crate::source::{RequestSource, SeededSource};
use crate::trace::Trace;
use dcn_topology::Pair;
use dcn_util::rngx::derive_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use dcn_demand::{microsoft_pair_weights, MicrosoftParams};

/// Kernel of [`microsoft_source`]: i.i.d. alias-table sampling from the
/// frozen traffic matrix (the generic matrix kernel over the historical
/// weight ordering).
pub type MicrosoftKernel = MatrixKernel;

/// Builds the synthetic rack-to-rack weight matrix (upper triangle, indexed
/// by pair) and returns `(pairs, weights)` — kept as an adapter over
/// [`dcn_demand::microsoft_pair_weights`] for callers of the historical
/// API; [`dcn_demand::DemandMatrix::microsoft`] is the dense-matrix view of
/// the same construction.
pub fn microsoft_matrix(
    num_racks: usize,
    params: MicrosoftParams,
    seed: u64,
) -> (Vec<Pair>, Vec<f64>) {
    microsoft_pair_weights(num_racks, params, seed)
}

/// An i.i.d. stream of `len` requests over `num_racks` racks. Setup builds
/// the O(num_racks²) matrix once; the stream is O(1) per request and O(1)
/// memory in `len`.
pub fn microsoft_source(
    num_racks: usize,
    len: usize,
    params: MicrosoftParams,
    seed: u64,
) -> SeededSource<MicrosoftKernel> {
    let (pairs, weights) = microsoft_pair_weights(num_racks, params, seed);
    let kernel = MatrixKernel::from_weighted_pairs(pairs, &weights);
    let rng = SmallRng::seed_from_u64(derive_seed(seed, 0x7154));
    SeededSource::new(
        kernel,
        rng,
        len,
        num_racks,
        format!("microsoft(n={num_racks})"),
    )
}

/// Generates an i.i.d. trace of `len` requests over `num_racks` racks
/// (materialized [`microsoft_source`]).
pub fn microsoft_trace(num_racks: usize, len: usize, params: MicrosoftParams, seed: u64) -> Trace {
    microsoft_source(num_racks, len, params, seed).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn deterministic_and_in_range() {
        let a = microsoft_trace(20, 10_000, MicrosoftParams::default(), 4);
        let b = microsoft_trace(20, 10_000, MicrosoftParams::default(), 4);
        assert_eq!(a.requests, b.requests);
        for r in &a.requests {
            assert!((r.hi() as usize) < 20);
        }
    }

    #[test]
    fn spatially_skewed() {
        let t = microsoft_trace(50, 100_000, MicrosoftParams::default(), 9);
        let gini = TraceStats::compute(&t).pair_gini;
        assert!(gini > 0.5, "traffic matrix should be skewed, gini {gini}");
    }

    #[test]
    fn no_temporal_structure() {
        // The canonical test: randomly permuting an i.i.d. trace leaves its
        // reuse-distance profile unchanged (there is no temporal structure
        // to destroy), whereas permuting a bursty trace inflates it.
        fn shuffled_ratio(trace: &crate::trace::Trace, seed: u64) -> f64 {
            use rand::rngs::SmallRng;
            use rand::{RngExt, SeedableRng};
            let before = TraceStats::compute(trace).median_reuse_distance;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut shuffled = trace.clone();
            for i in (1..shuffled.requests.len()).rev() {
                let j = rng.random_range(0..=i);
                shuffled.requests.swap(i, j);
            }
            TraceStats::compute(&shuffled).median_reuse_distance / before
        }
        let iid = microsoft_trace(50, 50_000, MicrosoftParams::default(), 2);
        let iid_ratio = shuffled_ratio(&iid, 1);
        assert!(
            (0.6..=1.6).contains(&iid_ratio),
            "shuffling an i.i.d. trace should not change reuse (ratio {iid_ratio})"
        );
        let bursty = crate::generators::facebook::facebook_cluster_trace(
            crate::generators::facebook::FacebookCluster::Database,
            50,
            50_000,
            2,
        );
        let bursty_ratio = shuffled_ratio(&bursty, 1);
        assert!(
            bursty_ratio > 1.5,
            "shuffling a bursty trace should inflate reuse distances (ratio {bursty_ratio})"
        );
    }

    #[test]
    fn matrix_covers_all_pairs() {
        let (pairs, weights) = microsoft_matrix(10, MicrosoftParams::default(), 1);
        assert_eq!(pairs.len(), 45);
        assert_eq!(weights.len(), 45);
        assert!(weights.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn dense_matrix_view_agrees_with_sampling_arrays() {
        // The DemandMatrix built for demand-aware baselines and the arrays
        // the sampler consumes describe the same distribution.
        let params = MicrosoftParams::default();
        let (pairs, weights) = microsoft_matrix(12, params, 6);
        let dense = dcn_demand::DemandMatrix::microsoft(12, params, 6);
        for (&pair, &w) in pairs.iter().zip(&weights) {
            assert_eq!(dense.get(pair), w);
        }
    }
}
