//! Weighted sampling: Walker's alias method, uniform distinct pairs and
//! Zipf weight vectors.
//!
//! Trace generation samples millions of requests from skewed categorical
//! distributions; the alias method gives O(1) per sample after O(n) setup.

use dcn_topology::Pair;
use dcn_util::rngx::{Coin, UniformBelow};
use rand::rngs::SmallRng;
use rand::Rng;

/// Walker alias table over categories `0..n` with the given non-negative
/// weights (not all zero).
///
/// Each slot interleaves the coin threshold with both of its outcomes, so
/// a draw is one bounded index draw, one coin word, one slot load and a
/// branch-free select. The coin is the integer form of the historical
/// float compare `random_range(0.0..1.0) < prob[i]` (see [`Coin`]), so
/// the sampled sequence is byte-identical to the `prob`/`alias` layout it
/// replaces.
///
/// The outcomes are *labels*: category `i` itself for [`AliasTable::new`],
/// or any `Copy` value per category — a rack pair, a partner rack — for
/// [`AliasTable::relabeled_rows`], which saves the caller a dependent
/// lookup. Rows stack several labelings of the same weights;
/// [`AliasTable::sample_row`] draws from one of them.
///
/// ```
/// use dcn_traces::AliasTable;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let table = AliasTable::new(&[0.0, 3.0, 1.0]);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let draw = table.sample(&mut rng);
/// assert!(draw == 1 || draw == 2, "zero-weight category is never drawn");
/// ```
#[derive(Clone, Debug)]
pub struct AliasTable<L = u32> {
    index: UniformBelow,
    slots: Vec<Slot<L>>,
}

/// One alias slot: keep this slot's label if the coin hits, else take the
/// alias's label.
#[derive(Clone, Copy, Debug)]
struct Slot<L> {
    coin: Coin,
    keep: L,
    alias: L,
}

impl AliasTable {
    /// Builds the table in O(n); category `i` is labeled `i`.
    pub fn new(weights: &[f64]) -> Self {
        let identity: Vec<u32> = (0..weights.len() as u32).collect();
        Self::relabeled_rows(weights, [identity.as_slice()])
    }
}

impl<L: Copy> AliasTable<L> {
    /// Builds one row per entry of `rows`, all over `weights`; row `r`
    /// labels category `i` as `rows[r][i]`. O(n) per row.
    pub fn relabeled_rows<'a>(weights: &[f64], rows: impl IntoIterator<Item = &'a [L]>) -> Self
    where
        L: 'a,
    {
        let (prob, alias) = walker(weights);
        let n = prob.len();
        let mut slots = Vec::with_capacity(n);
        for labels in rows {
            assert_eq!(labels.len(), n, "one label per category");
            slots.extend(
                prob.iter()
                    .zip(&alias)
                    .enumerate()
                    .map(|(i, (&p, &a))| Slot {
                        coin: Coin::new(p),
                        keep: labels[i],
                        alias: labels[a as usize],
                    }),
            );
        }
        assert!(!slots.is_empty(), "alias table needs at least one row");
        Self {
            index: UniformBelow::new(n as u64),
            slots,
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.index.span() as usize
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Draws one label of row 0 in O(1).
    #[inline(always)]
    pub fn sample(&self, rng: &mut SmallRng) -> L {
        self.sample_row(0, rng)
    }

    /// Draws one label of row `row` in O(1): an index draw, then a coin
    /// word (the historical draw order).
    #[inline(always)]
    pub fn sample_row(&self, row: usize, rng: &mut SmallRng) -> L {
        let i = row * self.len() + self.index.sample(rng) as usize;
        let slot = self.slots[i];
        if slot.coin.hits(rng.next_u64()) {
            slot.keep
        } else {
            slot.alias
        }
    }
}

/// Walker's construction: per-category keep probabilities and aliases.
fn walker(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
    let n = weights.len();
    assert!(n > 0, "alias table needs at least one category");
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && weights.iter().all(|&w| w >= 0.0),
        "weights must be non-negative, not all zero"
    );
    let scale = n as f64 / total;
    let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
    let mut alias = vec![0u32; n];
    let mut small: Vec<u32> = Vec::with_capacity(n);
    let mut large: Vec<u32> = Vec::with_capacity(n);
    for (i, &p) in prob.iter().enumerate() {
        if p < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        alias[s as usize] = l;
        prob[l as usize] -= 1.0 - prob[s as usize];
        if prob[l as usize] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Numerical leftovers: everything remaining gets probability 1.
    for &i in small.iter().chain(large.iter()) {
        prob[i as usize] = 1.0;
    }
    (prob, alias)
}

/// Uniform distinct pairs over `0..n`: `a` from `0..n`, then `b` from
/// `0..n-1` shifted past `a` — two bounded draws, the scheme every
/// uniform and hotspot generator has always used.
#[derive(Clone, Copy, Debug)]
pub struct UniformPairs {
    first: UniformBelow,
    second: UniformBelow,
}

impl UniformPairs {
    /// Pairs over `n >= 2` racks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "uniform pairs need at least 2 racks");
        Self {
            first: UniformBelow::new(n as u64),
            second: UniformBelow::new(n as u64 - 1),
        }
    }

    /// Draws one pair.
    #[inline(always)]
    pub fn sample(&self, rng: &mut SmallRng) -> Pair {
        let a = self.first.sample(rng) as u32;
        let mut b = self.second.sample(rng) as u32;
        if b >= a {
            b += 1;
        }
        Pair::new(a, b)
    }
}

// The single definition lives in dcn-util, shared with dcn-demand's matrix
// constructors; re-exported here to keep the historical path.
pub use dcn_util::zipf_weights;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matches_expected_frequencies() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        const N: usize = 200_000;
        for _ in 0..N {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let total_w: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = N as f64 * w / total_w;
            let sd = (expected * (1.0 - w / total_w)).sqrt();
            assert!(
                (counts[i] as f64 - expected).abs() < 6.0 * sd,
                "category {i}: {} vs expected {expected}",
                counts[i]
            );
        }
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert_eq!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_category() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(table.sample(&mut rng), 0);
        assert_eq!(table.len(), 1);
    }

    /// Weight vectors whose Walker construction leaves `p = 1.0` leftovers
    /// (uniform weights leave every slot at exactly 1.0; Zipf leaves
    /// numerical stragglers) next to ordinary fractional slots.
    fn leftover_heavy_weights() -> Vec<Vec<f64>> {
        vec![
            vec![1.0; 7],
            zipf_weights(4950, 1.2),
            zipf_weights(99, 1.1),
            vec![0.0, 3.0, 1.0, 0.0, 2.5],
            vec![1e-300, 1.0, 1e300],
        ]
    }

    #[test]
    fn thresholds_equal_float_compare_on_boundary_coins() {
        use rand::{Rng, RngExt};
        /// Replays one fixed word.
        struct Word(u64);
        impl Rng for Word {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let mut leftovers = 0;
        for weights in leftover_heavy_weights() {
            let (prob, _) = walker(&weights);
            let table = AliasTable::new(&weights);
            for (slot, &p) in table.slots.iter().zip(&prob) {
                leftovers += (p == 1.0) as usize;
                let t = slot.coin.threshold();
                for k in [t.saturating_sub(1), t, t + 1, (1 << 53) - 1] {
                    let k = k.min((1 << 53) - 1);
                    for w in [k << 11, (k << 11) | 0x7FF] {
                        let float = Word(w).random_range(0.0..1.0f64) < p;
                        assert_eq!(slot.coin.hits(w), float, "p = {p}, word {w:#x}");
                    }
                }
            }
        }
        assert!(leftovers > 7, "the weights must exercise p = 1.0 slots");
    }

    #[test]
    fn samples_equal_the_float_alias_draw_for_draw() {
        use rand::{Rng, RngExt};
        for (k, weights) in leftover_heavy_weights().into_iter().enumerate() {
            let (prob, alias) = walker(&weights);
            let table = AliasTable::new(&weights);
            let mut a = SmallRng::seed_from_u64(k as u64);
            let mut b = a.clone();
            for _ in 0..50_000 {
                // The historical sampler: f64 coin over separate arrays.
                let i = b.random_range(0..prob.len());
                let expected = if b.random_range(0.0..1.0f64) < prob[i] {
                    i as u32
                } else {
                    alias[i]
                };
                assert_eq!(table.sample(&mut a), expected);
            }
            assert_eq!(a.next_u64(), b.next_u64(), "streams drifted");
        }
    }

    #[test]
    fn relabeled_rows_return_their_labels() {
        let weights = zipf_weights(5, 1.0);
        let rows: Vec<Vec<u32>> = vec![vec![10, 11, 12, 13, 14], vec![4, 3, 2, 1, 0]];
        let plain = AliasTable::new(&weights);
        let stacked = AliasTable::relabeled_rows(&weights, rows.iter().map(Vec::as_slice));
        assert_eq!(stacked.len(), 5);
        for (r, labels) in rows.iter().enumerate() {
            let mut a = SmallRng::seed_from_u64(r as u64);
            let mut b = a.clone();
            for _ in 0..5_000 {
                let i = plain.sample(&mut b) as usize;
                assert_eq!(stacked.sample_row(r, &mut a), labels[i]);
            }
        }
    }

    #[test]
    fn zipf_shapes() {
        let u = zipf_weights(4, 0.0);
        assert!(u.iter().all(|&w| (w - 1.0).abs() < 1e-12));
        let z = zipf_weights(4, 1.0);
        assert!((z[0] - 1.0).abs() < 1e-12);
        assert!((z[3] - 0.25).abs() < 1e-12);
        // Monotone decreasing.
        assert!(z.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }
}
