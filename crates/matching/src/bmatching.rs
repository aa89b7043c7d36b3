//! The dynamic b-matching `M` that online algorithms reconfigure.
//!
//! Invariant (§1.1): every node has at most `b` incident matching edges.
//! The structure is a **flat, index-addressed layout**: one degree counter
//! per node plus a fixed-stride adjacency array (node `v`'s incident edges
//! live in the contiguous block `v·b .. v·b + degree[v]`). Membership is a
//! linear scan of one node's block — at most `b` packed-`u64` compares over
//! a single cache line or two for paper-scale `b`, with no hashing and no
//! pointer chasing — and insert/remove are O(b) writes into the same block,
//! so the batched serve loops stay branch-light and allocation-free.
//!
//! Removal uses swap-remove within a node's block, so the per-node incident
//! *order evolution* (append on insert, swap-with-last on remove) is
//! exactly what the previous `IndexedSet`-backed layout produced — callers
//! that scan `incident_edges` for a victim (R-BMA's lazy prune) pick the
//! same victims as before the flattening. There is one swap-remove body,
//! addressed by the edge's positions in its two blocks:
//! [`BMatching::remove`] reaches it after two position scans, and
//! [`BMatching::remove_at`] after checking positions its caller already
//! holds (BMA's LRU eviction, whose list head is one, skips the scan on
//! that side).
//!
//! The surface covers both R-BMA's lazy-removal mode (callers pick which
//! incident edge to prune) and BMA's counter-driven evictions.

use dcn_topology::{NodeId, Pair};

/// Filler for adjacency slots beyond a node's degree; never read.
#[inline]
fn slot_filler() -> Pair {
    Pair::new(0, 1)
}

/// A degree-capped dynamic edge set over racks `0..n`.
///
/// ```
/// use dcn_matching::BMatching;
/// use dcn_topology::Pair;
///
/// let mut m = BMatching::new(4, 1); // 4 racks, one circuit each
/// assert!(m.try_insert(Pair::new(0, 1)));
/// assert!(!m.try_insert(Pair::new(1, 2)), "rack 1 is at capacity");
/// assert!(m.remove(Pair::new(0, 1)));
/// assert!(m.try_insert(Pair::new(1, 2)));
/// m.assert_valid();
/// ```
#[derive(Clone, Debug)]
pub struct BMatching {
    cap: usize,
    len: usize,
    /// Incident-edge count per node (index-addressed by rack id).
    degree: Vec<u32>,
    /// Fixed-stride adjacency: node `v`'s incident edges occupy
    /// `incident[v * cap .. v * cap + degree[v]]`.
    incident: Vec<Pair>,
}

impl BMatching {
    /// Empty matching over `n` racks with degree cap `b ≥ 1`.
    pub fn new(n: usize, b: usize) -> Self {
        assert!(b >= 1, "degree cap must be positive");
        Self {
            cap: b,
            len: 0,
            degree: vec![0; n],
            incident: vec![slot_filler(); n * b],
        }
    }

    /// Degree cap `b`.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.degree.len()
    }

    /// Number of matching edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node `v`'s adjacency block (valid prefix only).
    #[inline]
    fn block(&self, v: NodeId) -> &[Pair] {
        let v = v as usize;
        &self.incident[v * self.cap..v * self.cap + self.degree[v] as usize]
    }

    /// Whether `pair` is a matching edge: one bounded scan of the `lo`
    /// endpoint's block (≤ `b` packed-`u64` compares, no hashing).
    #[inline]
    pub fn contains(&self, pair: Pair) -> bool {
        self.block(pair.lo()).contains(&pair)
    }

    /// Position of `pair` inside `v`'s adjacency block, if present — the
    /// same bounded scan as [`BMatching::contains`], but returning the slot
    /// index so overlays aligned to the fixed-stride layout (the intrusive
    /// recency lists of [`crate::recency::LruBMatching`]) can address their
    /// per-slot state without a second lookup structure.
    #[inline]
    pub fn position(&self, v: NodeId, pair: Pair) -> Option<usize> {
        self.block(v).iter().position(|&e| e == pair)
    }

    /// Current number of matching edges incident to `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree[v as usize] as usize
    }

    /// Whether `pair` could be inserted without violating the degree cap.
    pub fn can_insert(&self, pair: Pair) -> bool {
        !self.contains(pair)
            && self.degree(pair.lo()) < self.cap
            && self.degree(pair.hi()) < self.cap
    }

    /// Appends `pair` to `v`'s block (caller checked cap and absence).
    #[inline]
    fn push_incident(&mut self, v: NodeId, pair: Pair) {
        let v = v as usize;
        self.incident[v * self.cap + self.degree[v] as usize] = pair;
        self.degree[v] += 1;
    }

    /// Inserts `pair` if absent and within the cap; returns whether inserted.
    pub fn try_insert(&mut self, pair: Pair) -> bool {
        if !self.can_insert(pair) {
            return false;
        }
        self.push_incident(pair.lo(), pair);
        self.push_incident(pair.hi(), pair);
        self.len += 1;
        true
    }

    /// Inserts `pair`; panics if present or over the cap (use when the caller
    /// has already made room — a violated cap is an algorithm bug).
    pub fn insert(&mut self, pair: Pair) {
        assert!(
            self.try_insert(pair),
            "insert of {pair} violates b-matching invariant"
        );
    }

    /// Removes `pair`, which sits at position `pos_lo` of its `lo`
    /// endpoint's block and `pos_hi` of its `hi` endpoint's (as
    /// [`BMatching::position`] reports them) — a swap-remove in each block
    /// with no scan. Callers that already know the positions (the recency
    /// overlay, whose list head is a block position) skip the lookups
    /// [`BMatching::remove`] pays. Panics if either slot does not hold
    /// `pair`.
    #[inline]
    pub fn remove_at(&mut self, pair: Pair, pos_lo: usize, pos_hi: usize) {
        assert!(
            self.block(pair.lo()).get(pos_lo) == Some(&pair)
                && self.block(pair.hi()).get(pos_hi) == Some(&pair),
            "remove_at: {pair} is not at positions ({pos_lo}, {pos_hi})"
        );
        self.swap_remove(pair, pos_lo, pos_hi);
    }

    /// Removes `pair`; returns whether it was present.
    pub fn remove(&mut self, pair: Pair) -> bool {
        let Some(pos_lo) = self.position(pair.lo(), pair) else {
            return false;
        };
        let pos_hi = self
            .position(pair.hi(), pair)
            .expect("adjacency blocks out of sync");
        self.swap_remove(pair, pos_lo, pos_hi);
        true
    }

    /// The one removal body: in each endpoint's block, the last edge fills
    /// the hole at the given position (callers vouch for the positions).
    #[inline]
    fn swap_remove(&mut self, pair: Pair, pos_lo: usize, pos_hi: usize) {
        for (v, pos) in [(pair.lo(), pos_lo), (pair.hi(), pos_hi)] {
            let v = v as usize;
            let last = v * self.cap + self.degree[v] as usize - 1;
            self.incident[v * self.cap + pos] = self.incident[last];
            self.degree[v] -= 1;
        }
        self.len -= 1;
    }

    /// The matching edges incident to `v` (unspecified order).
    pub fn incident_edges(&self, v: NodeId) -> &[Pair] {
        self.block(v)
    }

    /// Iterates over all matching edges (unspecified order). Each edge sits
    /// in two blocks; it is yielded from its `lo` endpoint's block only.
    pub fn edges(&self) -> impl Iterator<Item = Pair> + '_ {
        (0..self.degree.len() as NodeId)
            .flat_map(move |v| self.block(v).iter().copied().filter(move |p| p.lo() == v))
    }

    /// Removes all edges.
    pub fn clear(&mut self) {
        self.degree.fill(0);
        self.len = 0;
    }

    /// Exhaustive invariant check (O(n·b)); used by tests and debug builds.
    pub fn assert_valid(&self) {
        let mut counted = 0usize;
        for v in 0..self.degree.len() as NodeId {
            let block = self.block(v);
            assert!(block.len() <= self.cap, "degree cap violated at {v}");
            for (i, &e) in block.iter().enumerate() {
                assert!(e.contains(v), "foreign edge {e} in block of {v}");
                assert!(
                    !block[..i].contains(&e),
                    "duplicate incident edge {e} at {v}"
                );
                let other = e.other(v);
                assert!(
                    self.block(other).contains(&e),
                    "edge {e} missing from partner block at {other}"
                );
                counted += 1;
            }
        }
        assert_eq!(counted, 2 * self.len, "edge count out of sync");
    }
}

/// Checks that `edges` forms a valid b-matching (no duplicates, degrees ≤ b).
pub fn is_valid_b_matching(edges: &[Pair], b: usize) -> bool {
    let mut degree: std::collections::HashMap<NodeId, usize> = std::collections::HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for &e in edges {
        if !seen.insert(e) {
            return false;
        }
        for v in [e.lo(), e.hi()] {
            let d = degree.entry(v).or_insert(0);
            *d += 1;
            if *d > b {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn insert_respects_cap() {
        let mut m = BMatching::new(4, 1);
        assert!(m.try_insert(p(0, 1)));
        assert!(!m.try_insert(p(1, 2)), "degree of 1 would exceed cap");
        assert!(m.try_insert(p(2, 3)));
        assert_eq!(m.len(), 2);
        m.assert_valid();
    }

    #[test]
    fn b_two_allows_two_edges_per_node() {
        let mut m = BMatching::new(4, 2);
        assert!(m.try_insert(p(0, 1)));
        assert!(m.try_insert(p(0, 2)));
        assert!(!m.try_insert(p(0, 3)));
        assert_eq!(m.degree(0), 2);
        m.assert_valid();
    }

    #[test]
    fn remove_frees_capacity() {
        let mut m = BMatching::new(3, 1);
        m.insert(p(0, 1));
        assert!(m.remove(p(0, 1)));
        assert!(!m.remove(p(0, 1)));
        assert!(m.try_insert(p(0, 2)));
        m.assert_valid();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut m = BMatching::new(3, 2);
        assert!(m.try_insert(p(0, 1)));
        assert!(!m.try_insert(p(1, 0)), "same unordered pair");
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "violates b-matching invariant")]
    fn hard_insert_panics_over_cap() {
        let mut m = BMatching::new(3, 1);
        m.insert(p(0, 1));
        m.insert(p(1, 2));
    }

    #[test]
    fn incident_edges_tracked() {
        let mut m = BMatching::new(5, 3);
        m.insert(p(0, 1));
        m.insert(p(0, 2));
        m.insert(p(0, 3));
        let mut inc: Vec<Pair> = m.incident_edges(0).to_vec();
        inc.sort();
        assert_eq!(inc, vec![p(0, 1), p(0, 2), p(0, 3)]);
        assert_eq!(m.incident_edges(4), &[]);
    }

    #[test]
    fn clear_resets() {
        let mut m = BMatching::new(3, 1);
        m.insert(p(0, 1));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.degree(0), 0);
        assert!(m.try_insert(p(0, 2)));
    }

    #[test]
    fn incident_order_is_append_and_swap_remove() {
        // R-BMA's lazy prune scans incident_edges in order and removes the
        // first marked hit, so the block's order evolution (append on
        // insert, swap-with-last on remove) is load-bearing: pin it.
        let mut m = BMatching::new(6, 4);
        for v in [1u32, 2, 3, 4] {
            m.insert(p(0, v));
        }
        assert_eq!(m.incident_edges(0), &[p(0, 1), p(0, 2), p(0, 3), p(0, 4)]);
        m.remove(p(0, 2)); // swap-remove: last edge fills the hole
        assert_eq!(m.incident_edges(0), &[p(0, 1), p(0, 4), p(0, 3)]);
        m.insert(p(0, 5)); // append at the tail
        assert_eq!(m.incident_edges(0), &[p(0, 1), p(0, 4), p(0, 3), p(0, 5)]);
        m.assert_valid();
    }

    #[test]
    fn edges_iterates_each_edge_once_after_churn() {
        let mut m = BMatching::new(8, 3);
        for i in 0..200u32 {
            let a = i % 8;
            let b = (a + 1 + i % 7) % 8;
            if a == b {
                continue;
            }
            let pair = p(a, b);
            if m.contains(pair) {
                m.remove(pair);
            } else {
                let _ = m.try_insert(pair);
            }
        }
        let listed: Vec<Pair> = m.edges().collect();
        assert_eq!(listed.len(), m.len());
        let distinct: std::collections::HashSet<Pair> = listed.iter().copied().collect();
        assert_eq!(distinct.len(), listed.len(), "edges() must not duplicate");
        for e in &distinct {
            assert!(m.contains(*e));
        }
        m.assert_valid();
    }

    #[test]
    fn validity_checker() {
        assert!(is_valid_b_matching(&[p(0, 1), p(2, 3)], 1));
        assert!(!is_valid_b_matching(&[p(0, 1), p(1, 2)], 1));
        assert!(is_valid_b_matching(&[p(0, 1), p(1, 2)], 2));
        assert!(
            !is_valid_b_matching(&[p(0, 1), p(0, 1)], 5),
            "duplicate edge"
        );
    }
}
