//! Batched ≡ per-request on the general trace shapes: duplicate-heavy
//! runs, all-distinct permutation laps and hub-concentrated star churn,
//! for every scheduler at every batch size of the shared harness
//! (`common/mod.rs`), with verification boundaries every 53 requests
//! falling inside batches. The specials-heavy mix at small α lives in
//! `specials_sharded_equivalence.rs` on the same harness.

mod common;

use common::{check, mid_checkpoints, Shape, BATCH_SIZES};
use proptest::prelude::*;

/// Verification interval coprime to the batch sizes. It also cuts every
/// chunk to at most this many requests, which is why the long-chunk case
/// below runs without it.
const VERIFY_EVERY: usize = 53;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_serve_path_reports_identically(
        shape_sel in 0usize..3,
        racks in 6usize..20,
        len in 60usize..1_200,
        seed in 0u64..10_000,
        alpha in 1u64..15,
        b in 2usize..5,
    ) {
        let shape = [Shape::DuplicateHeavy, Shape::Permutation, Shape::Star][shape_sel];
        check(shape, racks, len, seed, alpha, b, mid_checkpoints(len), VERIFY_EVERY);
    }
}

/// Pinned worst-case corners the proptest might not draw every run.
#[test]
fn pinned_corner_cases() {
    // Batch size 2 with runs of duplicates; α = 1 (every request special
    // for uniform-distance R-BMA, instant buys for BMA).
    check(
        Shape::DuplicateHeavy,
        8,
        200,
        42,
        1,
        3,
        mid_checkpoints(200),
        VERIFY_EVERY,
    );
    // Star hub churn with batches larger than the trace.
    check(
        Shape::Star,
        16,
        150,
        7,
        10,
        3,
        mid_checkpoints(150),
        VERIFY_EVERY,
    );
    // Permutation sweep where every pair in a chunk is distinct.
    check(
        Shape::Permutation,
        12,
        300,
        3,
        8,
        3,
        mid_checkpoints(300),
        VERIFY_EVERY,
    );
}

/// One chunk longer than 65 535 requests: no verification interval and
/// the only checkpoint near the end, so the 70 000-request batch is
/// served in one call (asserted, not assumed).
#[test]
fn chunks_past_u16_lengths_stay_exact() {
    for (shape, seed, alpha) in [(Shape::SpecialsHeavy, 5, 4), (Shape::DuplicateHeavy, 9, 10)] {
        let longest = check(shape, 12, 75_000, seed, alpha, 3, vec![74_999], 0);
        assert_eq!(
            longest, BATCH_SIZES,
            "{shape:?}: a batch was not served whole"
        );
    }
}
