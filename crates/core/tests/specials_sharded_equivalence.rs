//! Batched ≡ per-request on specials-heavy traces: alternating
//! permutation and star segments at small α, where nearly every R-BMA
//! request is a Theorem-1 special and takes the slow path with its
//! fault/eviction churn. Served on the shared harness (`common/mod.rs`),
//! which also asserts the runs are non-vacuous: every R-BMA matching
//! insertion happens inside a special request, so reconfigurations > 0
//! proves specials fired. These cases run without a verification
//! interval, so chunks are cut only at the two checkpoints: the 1024
//! batch serves whole 1024-request chunks on the longer traces, and the
//! 70 000 batch serves each stretch between checkpoints in one call. (The file keeps the
//! name it had when it also covered intra-run sharding, which is gone.)

mod common;

use common::{check, Shape, BATCH_SIZES};
use proptest::prelude::*;

/// Checkpoints off the batch grid; no verification interval, so chunk
/// length is bounded only by the batch size and these two boundaries.
fn check_specials_heavy(racks: usize, len: usize, seed: u64, alpha: u64, b: usize) {
    let longest = check(
        Shape::SpecialsHeavy,
        racks,
        len,
        seed,
        alpha,
        b,
        vec![len / 3 + 1, len.saturating_sub(1)],
        0,
    );
    // Every trace here is at least 400 long, so its first segment holds a
    // whole 97-request chunk.
    assert_eq!(
        longest[2], BATCH_SIZES[2],
        "97-request chunks were cut short"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_serve_is_exact_on_specials_heavy_traces(
        racks in 6usize..16,
        len in 400usize..2_000,
        seed in 0u64..10_000,
        alpha in 1u64..5,
        b in 2usize..5,
    ) {
        check_specials_heavy(racks, len, seed, alpha, b);
    }
}

/// Pinned specials-heavy corners the proptest might not draw every run.
#[test]
fn pinned_specials_heavy_corners() {
    // Everything special, small caches: maximal fault/eviction churn.
    check_specials_heavy(8, 1_500, 42, 1, 2);
    // α = 4 on a fat tree (ℓ ∈ {2, 4} ⇒ k_e ∈ {1, 2}) over a long run.
    check_specials_heavy(10, 4_000, 7, 4, 3);
    check_specials_heavy(6, 450, 3, 2, 2);
}
