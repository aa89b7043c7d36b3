//! Adversarial request sequences for paging — the engines of the
//! lower-bound experiment (Abl. D in DESIGN.md).
//!
//! Two classical nemeses over a universe of `k + 1` pages:
//!
//! * [`uniform_sequence`] — i.i.d. uniform requests. Against *any* algorithm
//!   with cache size `k`, each request misses with probability ≥ 1/(k+1),
//!   while OPT faults only ~once per k-phase (phase length ≈ (k+1)·H_k);
//!   randomized marking matches the resulting Θ(log k) ratio.
//! * [`Chaser`] — queries the concrete *deterministic* policy for its cache
//!   contents and always requests the one uncached page, forcing a fault on
//!   every request; OPT still faults only ~once per phase, giving the Θ(k)
//!   ratio that separates deterministic from randomized algorithms — the
//!   paper's headline gap.

use crate::policy::{PageId, PagingPolicy};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// I.i.d. uniform sequence over pages `0..=k` (`k+1` pages).
pub fn uniform_sequence(k: usize, len: usize, seed: u64) -> Vec<PageId> {
    assert!(k >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.random_range(0..=(k as u64))).collect()
}

/// Adaptive adversary that defeats deterministic policies: it always
/// requests the unique page (from a `k+1` universe) missing from the cache.
pub struct Chaser {
    universe: Vec<PageId>,
}

impl Chaser {
    /// Universe `0..=k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self {
            universe: (0..=(k as u64)).collect(),
        }
    }

    /// Next request: a page not cached by `policy` (the smallest, for
    /// determinism). Falls back to page 0 if everything is cached (cannot
    /// happen when `policy.capacity() == k`).
    pub fn next_request<P: PagingPolicy + ?Sized>(&self, policy: &P) -> PageId {
        self.universe
            .iter()
            .copied()
            .find(|&p| !policy.contains(p))
            .unwrap_or(0)
    }

    /// Generates a length-`len` adaptive sequence against `policy`, feeding
    /// each request immediately, and returns (sequence, faults).
    pub fn drive<P: PagingPolicy + ?Sized>(
        &self,
        policy: &mut P,
        len: usize,
    ) -> (Vec<PageId>, u64) {
        let mut seq = Vec::with_capacity(len);
        let mut faults = 0;
        for _ in 0..len {
            let p = self.next_request(policy);
            if policy.access(p).is_fault() {
                faults += 1;
            }
            seq.push(p);
        }
        (seq, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belady::Belady;
    use crate::lru::Lru;
    use crate::marking::Marking;
    use crate::sim::run_policy;

    #[test]
    fn chaser_forces_fault_every_request() {
        let k = 5;
        let mut lru = Lru::new(k);
        let (seq, faults) = Chaser::new(k).drive(&mut lru, 400);
        assert_eq!(faults, 400);
        assert_eq!(seq.len(), 400);
    }

    #[test]
    fn deterministic_ratio_scales_linearly_but_marking_logarithmically() {
        // The separation the paper is named after, in miniature.
        let k = 16;
        let len = 20_000;
        let mut lru = Lru::new(k);
        let (seq, lru_faults) = Chaser::new(k).drive(&mut lru, len);
        let opt = Belady::total_faults(k, &seq);
        let det_ratio = lru_faults as f64 / opt as f64;
        // On the chaser sequence LRU pays ~k per phase while OPT pays ~1.
        assert!(
            det_ratio > k as f64 * 0.5,
            "deterministic ratio {det_ratio} too small"
        );

        // Randomized marking on the oblivious uniform nemesis: ratio ~2 H_k.
        let useq = uniform_sequence(k, len, 7);
        let mark_faults: u64 = (0..5)
            .map(|s| run_policy(&mut Marking::new(k, s), &useq).faults)
            .sum::<u64>()
            / 5;
        let uopt = Belady::total_faults(k, &useq);
        let rand_ratio = mark_faults as f64 / uopt as f64;
        let h_k: f64 = (1..=k).map(|i| 1.0 / i as f64).sum();
        assert!(
            rand_ratio < 2.0 * h_k + 1.0,
            "marking ratio {rand_ratio} exceeds 2 H_k + 1 = {}",
            2.0 * h_k + 1.0
        );
        assert!(
            rand_ratio < det_ratio,
            "randomized {rand_ratio} should beat deterministic {det_ratio}"
        );
    }

    /// Mean over `seeds` runs of randomized marking's faults with cache `b`,
    /// divided by Belady's with the smaller cache `a` — the (b,a)-paging
    /// ratio of Young \[75\] that Corollary 3 plugs into Theorem 2.
    fn marking_ratio(b: usize, a: usize, seq: &[PageId], seeds: u64) -> f64 {
        let opt = Belady::total_faults(a, seq) as f64;
        let total: f64 = (0..seeds)
            .map(|s| run_policy(&mut Marking::new(b, s), seq).faults as f64 / opt)
            .sum();
        total / seeds as f64
    }

    #[test]
    fn marking_meets_youngs_ba_bound_on_uniform_nemesis() {
        for (b, a) in [(8usize, 8usize), (16, 16), (16, 8)] {
            let seq = uniform_sequence(b, 50_000, 7);
            let measured = marking_ratio(b, a, &seq, 5);
            // 2·ln(b/(b−a+1)), plus slack for the O(1) term and
            // finite-length effects.
            let bound = 2.0 * (b as f64 / (b - a + 1) as f64).ln() + 2.5;
            assert!(
                measured <= bound,
                "(b={b}, a={a}): measured {measured} > bound {bound}"
            );
        }
    }

    #[test]
    fn augmentation_reduces_marking_ratio() {
        // Same online cache b; OPT restricted to a < b gets weaker, so the
        // measured ratio must drop as a decreases.
        let b = 12;
        let seq = uniform_sequence(b, 40_000, 5);
        let full = marking_ratio(b, b, &seq, 3);
        let augmented = marking_ratio(b, b / 2, &seq, 3);
        assert!(
            augmented < full,
            "(b, b/2) ratio {augmented} should be below (b,b) ratio {full}"
        );
    }

    #[test]
    fn uniform_sequence_uses_whole_universe() {
        let seq = uniform_sequence(4, 10_000, 3);
        let distinct: std::collections::HashSet<_> = seq.iter().collect();
        assert_eq!(distinct.len(), 5);
        assert!(seq.iter().all(|&p| p <= 4));
    }

    #[test]
    fn chaser_is_deterministic() {
        let k = 4;
        let mut a = Lru::new(k);
        let mut b = Lru::new(k);
        let (sa, _) = Chaser::new(k).drive(&mut a, 100);
        let (sb, _) = Chaser::new(k).drive(&mut b, 100);
        assert_eq!(sa, sb);
    }
}
