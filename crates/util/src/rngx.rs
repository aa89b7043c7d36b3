//! Seed derivation for reproducible experiment sweeps.
//!
//! Every run in a sweep needs an independent RNG stream that is nevertheless
//! a pure function of `(base_seed, run_index)` so that re-running a sweep —
//! sequentially or in parallel, in any order — reproduces identical results.
//! SplitMix64 is the standard generator for this purpose.
//!
//! The module also holds the two exact, division-free draw primitives the
//! trace generators sample with: [`UniformBelow`] (the bounded draw
//! `random_range(0..span)`) and [`Coin`] (the Bernoulli coin
//! `random_range(0.0..1.0) < p`). Both consume exactly the words their
//! vendored-`rand` counterparts consume and return exactly the same values,
//! so seeded streams stay byte-identical.

/// One step of the SplitMix64 generator; advances `state` and returns the output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle: `len - 1` draws of `random_range(0..=i)`
/// for `i = len-1, …, 1`, swapping as it goes.
///
/// Every seeded generator in the workspace permutes with exactly this draw
/// order, and seeded streams are pinned byte-identical across refactors —
/// so there is one definition, here, instead of per-crate copies that
/// could silently diverge.
pub fn shuffle<T>(v: &mut [T], rng: &mut rand::rngs::SmallRng) {
    use rand::RngExt;
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// Exact, division-free `rng.random_range(0..span)` for a fixed `span`.
///
/// The vendored `random_range` rejects words above
/// `zone = u64::MAX - 2⁶⁴ mod span` (so that every residue is equally
/// likely) and returns `word % span`: two 64-bit divisions per call. This
/// sampler computes `zone` once and replaces the remaining `%` by division
/// by an invariant integer (Granlund and Montgomery, "Division by Invariant
/// Integers using Multiplication", 1994, Fig. 4.1): with
/// `l = ⌈log₂ span⌉` and `magic = ⌊2⁶⁴(2ˡ − span)/span⌋ + 1`, the quotient
/// is `(t + ((word − t) >> 1)) >> (l − 1)` where `t = high64(magic · word)`,
/// exact for every 64-bit `word` and every `span ≥ 2`; the remainder is
/// `word − quotient · span`. One widening and one plain multiply replace
/// the division. The draw consumes the same words as `random_range` (none
/// for `span == 1`, rejections included) and returns the same values.
///
/// ```
/// use dcn_util::rngx::UniformBelow;
/// use rand::rngs::SmallRng;
/// use rand::{RngExt, SeedableRng};
///
/// let below = UniformBelow::new(7);
/// let (mut a, mut b) = (SmallRng::seed_from_u64(3), SmallRng::seed_from_u64(3));
/// for _ in 0..100 {
///     assert_eq!(below.sample(&mut a), b.random_range(0..7u64));
/// }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct UniformBelow {
    span: u64,
    zone: u64,
    /// `⌊2⁶⁴(2ˡ − span)/span⌋ + 1` (unused for `span == 1`).
    magic: u64,
    /// `l − 1`.
    shift: u32,
}

impl UniformBelow {
    /// Sampler over `0..span`; panics if `span == 0`.
    pub fn new(span: u64) -> Self {
        assert!(span > 0, "cannot sample empty range");
        let l = 64 - (span - 1).leading_zeros();
        let magic = if span == 1 {
            0
        } else {
            // < 2⁶⁴ because 2ˡ⁻¹ < span ≤ 2ˡ.
            ((((1u128 << l) - span as u128) << 64) / span as u128 + 1) as u64
        };
        Self {
            span,
            zone: u64::MAX - (u64::MAX - span + 1) % span,
            magic,
            shift: l.saturating_sub(1),
        }
    }

    /// The exclusive upper bound.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Largest accepted word: `u64::MAX - 2⁶⁴ mod span`.
    pub fn zone(&self) -> u64 {
        self.zone
    }

    /// `word % span`, without a division.
    #[inline(always)]
    pub fn reduce(&self, word: u64) -> u64 {
        if self.span == 1 {
            return 0;
        }
        let t = ((self.magic as u128 * word as u128) >> 64) as u64;
        let quotient = (t + ((word - t) >> 1)) >> self.shift;
        word - quotient * self.span
    }

    /// Draws uniformly from `0..span`, word for word as `random_range`.
    #[inline(always)]
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.span == 1 {
            return 0;
        }
        loop {
            let word = rng.next_u64();
            if word <= self.zone {
                return self.reduce(word);
            }
        }
    }
}

/// The coin `rng.random_range(0.0..1.0) < p` in integers.
///
/// The vendored `rand` maps a word `w` to the unit float `(w >> 11) · 2⁻⁵³`.
/// Scaling by a power of two is exact, so `(w >> 11) · 2⁻⁵³ < p` holds
/// exactly when `w >> 11 < p · 2⁵³`, i.e. when `w >> 11 < ⌈p · 2⁵³⌉` (an
/// integer is below a real exactly when it is below its ceiling). The
/// threshold saturates: `p ≥ 1` always hits, `p ≤ 0` and NaN never do —
/// as the float compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coin(u64);

impl Coin {
    /// The coin that hits with probability `p`.
    pub fn new(p: f64) -> Self {
        Coin((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// `⌈p · 2⁵³⌉`, saturated to `u64`.
    pub fn threshold(self) -> u64 {
        self.0
    }

    /// Whether the coin hits on `word` (one raw 64-bit draw).
    #[inline(always)]
    pub fn hits(self, word: u64) -> bool {
        (word >> 11) < self.0
    }

    /// Draws one word and flips the coin on it.
    #[inline(always)]
    pub fn flip<R: rand::Rng + ?Sized>(self, rng: &mut R) -> bool {
        self.hits(rng.next_u64())
    }
}

/// Derives an independent sub-seed from a base seed and a stream index.
///
/// Distinct `(base, stream)` pairs give (with overwhelming probability)
/// distinct, decorrelated seeds; identical pairs always give the same seed.
#[inline]
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut state = base ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    // A couple of mixing rounds so that low-entropy (base, stream) pairs
    // (e.g. 0, 1, 2, ...) still produce well-spread seeds.
    let a = splitmix64(&mut state);
    let b = splitmix64(&mut state);
    a ^ b.rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngExt, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        let mut s1 = 9u64;
        let mut s2 = 9u64;
        assert_eq!(splitmix64(&mut s1), splitmix64(&mut s2));
    }

    #[test]
    fn streams_distinct() {
        let mut seen = HashSet::new();
        for base in 0..20u64 {
            for stream in 0..200u64 {
                assert!(
                    seen.insert(derive_seed(base, stream)),
                    "collision at {base}/{stream}"
                );
            }
        }
    }

    /// Replays a fixed word list as an RNG.
    struct Words<'a>(std::slice::Iter<'a, u64>);

    impl rand::Rng for Words<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("ran out of scripted words")
        }
    }

    fn words(w: &[u64]) -> Words<'_> {
        Words(w.iter())
    }

    /// The numerators a multiply-shift remainder is most likely to get
    /// wrong for `d`.
    fn edge_numerators(d: u64) -> Vec<u64> {
        let zone = UniformBelow::new(d).zone();
        vec![
            0,
            d - 1,
            d,
            d.wrapping_add(1),
            zone,
            zone.wrapping_add(1),
            u64::MAX,
        ]
    }

    #[test]
    fn reduce_equals_remainder_for_every_small_span() {
        let mut rng = SmallRng::seed_from_u64(11);
        for d in 1..=20_000u64 {
            let below = UniformBelow::new(d);
            for n in edge_numerators(d) {
                assert_eq!(below.reduce(n), n % d, "{n} % {d}");
            }
            for _ in 0..20 {
                let n = rng.next_u64();
                assert_eq!(below.reduce(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    fn reduce_equals_remainder_for_random_wide_spans() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut spans = vec![u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) + 1, 1 << 32];
        for _ in 0..20_000 {
            // Random widths, so every magnitude up to 2⁶⁴ − 1 is hit.
            let bits = rng.random_range(1..=64u32);
            spans.push((rng.next_u64() >> (64 - bits)).max(1));
        }
        for d in spans {
            let below = UniformBelow::new(d);
            assert_eq!(below.zone(), u64::MAX - ((1u128 << 64) % d as u128) as u64);
            for n in edge_numerators(d) {
                assert_eq!(below.reduce(n), n % d, "{n} % {d}");
            }
            for _ in 0..8 {
                let n = rng.next_u64();
                assert_eq!(below.reduce(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    fn sample_matches_random_range_word_for_word() {
        // Wide spans reject up to half of all words, so rejections are
        // exercised as much as acceptances.
        let spans = [1u64, 2, 3, 7, 99, 4_950, 1 << 40, (1 << 63) + 1, u64::MAX];
        for (k, &span) in spans.iter().enumerate() {
            let below = UniformBelow::new(span);
            let mut a = SmallRng::seed_from_u64(k as u64);
            let mut b = a.clone();
            for _ in 0..20_000 {
                assert_eq!(below.sample(&mut a), b.random_range(0..span), "span {span}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "span {span}: streams drifted");
        }
    }

    #[test]
    fn sample_rejects_exactly_the_words_random_range_rejects() {
        let span = (1u64 << 63) + 1;
        let zone = UniformBelow::new(span).zone();
        let script = [u64::MAX, zone + 1, zone, 5];
        let mut scripted = words(&script);
        let mut vendored = words(&script);
        for _ in 0..2 {
            assert_eq!(
                UniformBelow::new(span).sample(&mut scripted),
                vendored.random_range(0..span)
            );
        }
        assert_eq!(scripted.0.len(), 0, "both draws consumed all four words");
        assert_eq!(vendored.0.len(), 0);
    }

    #[test]
    fn coin_equals_float_compare_on_boundary_words() {
        let probs = [
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::MIN_POSITIVE,
            5e-324,
            1e-300,
            0.25,
            0.3,
            0.45,
            1.0 / 3.0,
            0.5,
            1.0f64.next_down(),
            1.0,
            1.5,
            f64::INFINITY,
        ];
        for p in probs {
            let t = Coin::new(p).threshold();
            for k in [
                0,
                1,
                t.saturating_sub(1),
                t,
                t.saturating_add(1),
                (1 << 53) - 1,
            ] {
                let k = k.min((1 << 53) - 1);
                for low in [0, 0x7FF] {
                    let w = (k << 11) | low;
                    let float = words(&[w]).random_range(0.0..1.0f64) < p;
                    assert_eq!(Coin::new(p).hits(w), float, "p = {p}, word {w:#x}");
                }
            }
        }
    }

    #[test]
    fn coin_flip_matches_random_bool_stream() {
        let mut a = SmallRng::seed_from_u64(21);
        let mut b = a.clone();
        for p in [0.0, 0.1, 0.25, 0.45, 0.8, 1.0] {
            let coin = Coin::new(p);
            for _ in 0..10_000 {
                assert_eq!(coin.flip(&mut a), b.random_bool(p));
            }
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_known_sequence_is_nontrivial() {
        let mut state = 0u64;
        let first = splitmix64(&mut state);
        let second = splitmix64(&mut state);
        assert_ne!(first, second);
        assert_ne!(first, 0);
    }
}
