//! Per-pair state stores shared by R-BMA and BMA, addressed by the dense
//! pair id `lo·n + hi` up to [`DENSE_RACK_LIMIT`] racks and hashed above
//! it. On the flat side a lookup is one indexed load: no hashing, no
//! probing, no insert or remove traffic as pairs come and go.

use dcn_topology::Pair;
use dcn_util::{FxHashMap, FxHashSet};

/// Largest rack count whose pair sets and pair tables use flat
/// pair-id-indexed storage (n² slots: ≤ 8 MiB of 8-byte values at the
/// limit); above it both fall back to hash containers.
pub(crate) const DENSE_RACK_LIMIT: usize = 1024;

/// A per-pair value with an implicit default: every pair reads as
/// `T::default()` until first written. Up to [`DENSE_RACK_LIMIT`] racks it
/// is a flat pair-id-indexed array, allocated on the first write (so a
/// scheduler that is built but never served pays nothing); beyond the
/// limit it is a hash map.
pub(crate) struct PairTable<T> {
    /// Rack count of the dense id space; 0 = hash representation.
    n: usize,
    /// Flat pair-id-indexed slots (empty until the first write).
    slots: Vec<T>,
    /// Fallback representation above [`DENSE_RACK_LIMIT`].
    hash: FxHashMap<Pair, T>,
}

impl<T: Copy + Default> PairTable<T> {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n: if n > 0 && n <= DENSE_RACK_LIMIT { n } else { 0 },
            slots: Vec::new(),
            hash: FxHashMap::default(),
        }
    }

    #[inline]
    fn id(&self, pair: Pair) -> usize {
        pair.lo() as usize * self.n + pair.hi() as usize
    }

    /// `pair`'s current value (`T::default()` if never written).
    #[inline]
    pub(crate) fn get(&self, pair: Pair) -> T {
        if self.n != 0 {
            // `get` handles the not-yet-allocated (empty) array too.
            self.slots.get(self.id(pair)).copied().unwrap_or_default()
        } else {
            self.hash.get(&pair).copied().unwrap_or_default()
        }
    }

    /// `pair`'s slot if it exists yet — always, once the flat array is
    /// allocated — without creating it. Hot loops probe with this and
    /// leave creation to [`PairTable::slot_mut`].
    #[inline]
    pub(crate) fn get_mut(&mut self, pair: Pair) -> Option<&mut T> {
        if self.n != 0 {
            let id = self.id(pair);
            self.slots.get_mut(id)
        } else {
            self.hash.get_mut(&pair)
        }
    }

    /// `pair`'s slot, created at `T::default()` if it does not exist yet.
    #[inline]
    pub(crate) fn slot_mut(&mut self, pair: Pair) -> &mut T {
        let id = self.id(pair);
        if id < self.slots.len() {
            return &mut self.slots[id];
        }
        self.create_slot(pair)
    }

    /// [`PairTable::slot_mut`]'s rare path: the flat array's first write
    /// allocates it; above the limit the slot is a hash entry. Out of line
    /// so callers' hot loops carry only the flat index.
    #[cold]
    #[inline(never)]
    fn create_slot(&mut self, pair: Pair) -> &mut T {
        if self.n != 0 {
            self.slots = vec![T::default(); self.n * self.n];
            let id = self.id(pair);
            &mut self.slots[id]
        } else {
            self.hash.entry(pair).or_default()
        }
    }
}

/// A pair set probed in one bit test. Up to [`DENSE_RACK_LIMIT`] racks it
/// is a flat pair-id bitmap — L1-resident at paper scale — and only beyond
/// that a hash set. R-BMA uses it for the lazy-removal `marked` set (hit on
/// every eviction, every prune scan — up to `b` membership probes per
/// freed slot — and every matched re-request) and as a mirror of the
/// matching's edge set (so the per-eviction "is the victim edge matched?"
/// test and the per-request entry probe skip [`dcn_matching::BMatching`]'s
/// bounded adjacency scan). `len` is tracked so `len()` stays O(1).
pub(crate) struct DensePairSet {
    /// Rack count of the dense id space; 0 = hash representation.
    n: usize,
    len: usize,
    /// Dense representation: bit `lo·n + hi` ⇔ pair marked.
    bits: Vec<u64>,
    /// Sparse fallback for rack counts above the dense gate.
    hash: FxHashSet<Pair>,
}

impl DensePairSet {
    pub(crate) fn new(n: usize) -> Self {
        let dense = n > 0 && n <= DENSE_RACK_LIMIT;
        Self {
            n: if dense { n } else { 0 },
            len: 0,
            bits: if dense {
                vec![0; (n * n).div_ceil(64)]
            } else {
                Vec::new()
            },
            hash: FxHashSet::default(),
        }
    }

    #[inline]
    fn id(&self, pair: Pair) -> usize {
        pair.lo() as usize * self.n + pair.hi() as usize
    }

    #[inline]
    pub(crate) fn contains(&self, pair: Pair) -> bool {
        if self.n != 0 {
            let i = self.id(pair);
            self.bits[i >> 6] >> (i & 63) & 1 != 0
        } else {
            self.hash.contains(&pair)
        }
    }

    /// Inserts `pair`; returns whether it was newly marked.
    #[inline]
    pub(crate) fn insert(&mut self, pair: Pair) -> bool {
        if self.n != 0 {
            let i = self.id(pair);
            let word = &mut self.bits[i >> 6];
            let bit = 1u64 << (i & 63);
            let fresh = *word & bit == 0;
            *word |= bit;
            self.len += fresh as usize;
            fresh
        } else {
            let fresh = self.hash.insert(pair);
            self.len += fresh as usize;
            fresh
        }
    }

    /// Removes `pair`; returns whether it was marked.
    #[inline]
    pub(crate) fn remove(&mut self, pair: Pair) -> bool {
        if self.n != 0 {
            let i = self.id(pair);
            let word = &mut self.bits[i >> 6];
            let bit = 1u64 << (i & 63);
            let was = *word & bit != 0;
            *word &= !bit;
            self.len -= was as usize;
            was
        } else {
            let was = self.hash.remove(&pair);
            self.len -= was as usize;
            was
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reads_default_until_written_on_both_representations() {
        for n in [8, DENSE_RACK_LIMIT + 6] {
            let mut t: PairTable<u64> = PairTable::new(n);
            let far = Pair::new(1, n as u32 - 1);
            assert_eq!(t.get(far), 0);
            assert!(t.get_mut(far).is_none(), "nothing exists before a write");
            *t.slot_mut(far) += 5;
            *t.get_mut(far).expect("written") += 1;
            *t.slot_mut(Pair::new(0, 1)) = 2;
            assert_eq!(t.get(far), 6);
            assert_eq!(t.get(Pair::new(0, 1)), 2);
            assert_eq!(t.get(Pair::new(0, 2)), 0);
        }
    }

    #[test]
    fn set_counts_on_both_representations() {
        for n in [8, DENSE_RACK_LIMIT + 6] {
            let mut s = DensePairSet::new(n);
            let far = Pair::new(2, n as u32 - 1);
            assert!(s.insert(far));
            assert!(!s.insert(far));
            assert!(s.contains(far));
            assert_eq!(s.len(), 1);
            assert!(s.remove(far));
            assert!(!s.remove(far));
            assert_eq!(s.len(), 0);
        }
    }
}
