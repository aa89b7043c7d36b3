//! Per-endpoint **recency indexes** over a [`BMatching`] — the substrate of
//! deterministic LRU eviction (BMA's rent-or-buy baseline evicts the
//! least-recently-used incident edge at a full endpoint).
//!
//! [`LruBMatching`] is a **flat intrusive LRU**: a slab of list nodes with
//! `prev`/`next` slot indices is threaded per-endpoint through the *same
//! fixed-stride adjacency layout* [`BMatching`] already owns (edge at
//! position `i` of rack `v`'s block occupies slot `v·b + i`), so finding an
//! edge's list node is the same bounded block scan that membership already
//! pays — no hashing, no allocation, no tree. A hit is two O(1) list
//! splices. Eviction ([`LruBMatching::evict_lru`]) is addressed by
//! position: the head slot of the full rack's list *is* the victim's
//! position in that rack's block, so only the partner's block is scanned
//! before one swap-remove ([`BMatching::remove_at`]) at both known
//! positions.
//!
//! The intrusive list orders a rack's incident edges by last-touch
//! *sequence* (touch moves a node to the MRU tail, insertion enters at the
//! MRU tail), so the LRU head is the edge whose last touch is oldest. The
//! list needs no stamps, hence has no clock to overflow. The equivalence
//! proptests (`tests/lru_equivalence.rs`) replay it against a test-local
//! reference that orders edges by last-touch stamps in per-rack
//! `BTreeMap`s, and require identical victims at every step.
//!
//! Adoption survey (rest of the workspace): `periodic.rs` keeps a demand
//! *count* window (no recency ordering), so it does not gain from this
//! slab; R-BMA's marking caches sample uniformly
//! ([`dcn_util::IndexedSet`] / `DenseMarking`), which is already O(1). BMA
//! is the only recency consumer, and it rides [`LruBMatching`].

use crate::BMatching;
use dcn_topology::{NodeId, Pair};

/// Sentinel for "no slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Flat intrusive LRU over [`BMatching`]'s fixed-stride adjacency.
///
/// Layout: edge at position `i` of rack `v`'s adjacency block owns list
/// slot `v·b + i` in the `prev`/`next` slabs; `head[v]`/`tail[v]` bound
/// rack `v`'s list (head = LRU victim, tail = MRU). [`BMatching`]'s
/// swap-remove (last block entry fills the hole) is mirrored by relabeling
/// the moved edge's list node, so slots always track block positions.
///
/// ```
/// use dcn_matching::recency::LruBMatching;
/// use dcn_topology::Pair;
///
/// let mut m = LruBMatching::new(4, 2);
/// m.insert_mru(Pair::new(0, 1));
/// m.insert_mru(Pair::new(0, 2));
/// assert!(m.touch_hit(Pair::new(0, 1))); // {0,1} becomes MRU at rack 0
/// assert_eq!(m.lru_edge(0), Some(Pair::new(0, 2)));
/// assert!(!m.touch_hit(Pair::new(0, 3)), "not a matching edge");
/// assert_eq!(m.evict_lru(0), Some(Pair::new(0, 2)));
/// assert_eq!(m.recency_order(0), vec![Pair::new(0, 1)]);
/// ```
#[derive(Clone, Debug)]
pub struct LruBMatching {
    matching: BMatching,
    /// Intrusive list slabs, indexed by adjacency slot `v·cap + position`.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Oldest (LRU) slot per rack; `NIL` when the rack has no edges.
    head: Vec<u32>,
    /// Newest (MRU) slot per rack.
    tail: Vec<u32>,
}

impl LruBMatching {
    #[inline]
    fn slot(&self, v: NodeId, pos: usize) -> u32 {
        (v as usize * self.matching.cap() + pos) as u32
    }

    /// Unlinks `slot` from rack `v`'s list (must be linked).
    #[inline]
    fn unlink(&mut self, v: NodeId, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head[v as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail[v as usize] = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Links `slot` at rack `v`'s MRU end.
    #[inline]
    fn push_mru(&mut self, v: NodeId, slot: u32) {
        let t = self.tail[v as usize];
        self.prev[slot as usize] = t;
        self.next[slot as usize] = NIL;
        if t == NIL {
            self.head[v as usize] = slot;
        } else {
            self.next[t as usize] = slot;
        }
        self.tail[v as usize] = slot;
    }

    /// Moves the list node at `from` to `to` (the swap-remove mirror):
    /// neighbors and head/tail that pointed at `from` now point at `to`.
    #[inline]
    fn relabel(&mut self, v: NodeId, from: u32, to: u32) {
        let (p, n) = (self.prev[from as usize], self.next[from as usize]);
        self.prev[to as usize] = p;
        self.next[to as usize] = n;
        if p == NIL {
            self.head[v as usize] = to;
        } else {
            self.next[p as usize] = to;
        }
        if n == NIL {
            self.tail[v as usize] = to;
        } else {
            self.prev[n as usize] = to;
        }
    }

    /// Exhaustive consistency check (tests/debug): list membership equals
    /// block membership, orders are walkable from both ends, and the
    /// underlying matching invariant holds.
    pub fn assert_valid(&self) {
        self.matching.assert_valid();
        for v in 0..self.matching.num_racks() as NodeId {
            let d = self.matching.degree(v);
            let base = v as usize * self.matching.cap();
            let mut seen = vec![false; d];
            let mut slot = self.head[v as usize];
            let mut prev = NIL;
            let mut walked = 0usize;
            while slot != NIL {
                let pos = slot as usize - base;
                assert!(pos < d, "slot {slot} outside the valid prefix at {v}");
                assert!(!seen[pos], "slot {slot} linked twice at {v}");
                seen[pos] = true;
                assert_eq!(self.prev[slot as usize], prev, "broken prev at {v}");
                prev = slot;
                slot = self.next[slot as usize];
                walked += 1;
                assert!(walked <= d, "cycle in recency list at {v}");
            }
            assert_eq!(walked, d, "list length != degree at {v}");
            assert_eq!(self.tail[v as usize], prev, "tail out of sync at {v}");
        }
    }

    /// Empty structure over `n` racks with degree cap `b`.
    pub fn new(n: usize, b: usize) -> Self {
        // Slot ids (and the NIL sentinel) live in u32: guard the capacity
        // instead of silently aliasing list nodes past 2^32 slots.
        assert!(
            (n as u128) * (b as u128) < NIL as u128,
            "n*b = {n}*{b} exceeds the u32 slot space of the intrusive LRU"
        );
        Self {
            matching: BMatching::new(n, b),
            prev: vec![NIL; n * b],
            next: vec![NIL; n * b],
            head: vec![NIL; n],
            tail: vec![NIL; n],
        }
    }

    /// The underlying matching.
    #[inline]
    pub fn matching(&self) -> &BMatching {
        &self.matching
    }

    /// If `pair` is a matching edge, refresh its recency at both endpoints
    /// and return `true`; otherwise return `false` and change nothing.
    #[inline]
    pub fn touch_hit(&mut self, pair: Pair) -> bool {
        let (u, w) = pair.endpoints();
        // The membership scan *is* the list-node lookup: position in the
        // block addresses the intrusive slot directly.
        let Some(pu) = self.matching.position(u, pair) else {
            return false;
        };
        let pw = self
            .matching
            .position(w, pair)
            .expect("adjacency blocks out of sync");
        for (v, pos) in [(u, pu), (w, pw)] {
            let slot = self.slot(v, pos);
            if self.tail[v as usize] != slot {
                self.unlink(v, slot);
                self.push_mru(v, slot);
            }
        }
        true
    }

    /// Inserts `pair` as the most-recently-used edge at both endpoints.
    /// Panics if present or over the cap (callers make room first).
    pub fn insert_mru(&mut self, pair: Pair) {
        let (u, w) = pair.endpoints();
        // BMatching appends at the degree index; record both before insert.
        let (pu, pw) = (self.matching.degree(u), self.matching.degree(w));
        self.matching.insert(pair);
        let (su, sw) = (self.slot(u, pu), self.slot(w, pw));
        self.push_mru(u, su);
        self.push_mru(w, sw);
    }

    /// Removes `pair`, found at block positions `pu` (at `u = pair.lo()`)
    /// and `pw` (at `w = pair.hi()`), with its recency state.
    #[inline]
    fn remove_at(&mut self, pair: Pair, pu: usize, pw: usize) {
        let (u, w) = pair.endpoints();
        for (v, pos) in [(u, pu), (w, pw)] {
            let last = self.matching.degree(v) - 1;
            self.unlink(v, self.slot(v, pos));
            if pos != last {
                // Mirror the swap-remove: the block's last edge moves into
                // the hole, so its list node moves to the hole's slot.
                self.relabel(v, self.slot(v, last), self.slot(v, pos));
            }
        }
        self.matching.remove_at(pair, pu, pw);
    }

    /// Removes `pair` and its recency state; returns whether it was present.
    pub fn remove(&mut self, pair: Pair) -> bool {
        let (u, w) = pair.endpoints();
        let Some(pu) = self.matching.position(u, pair) else {
            return false;
        };
        let pw = self
            .matching
            .position(w, pair)
            .expect("adjacency blocks out of sync");
        self.remove_at(pair, pu, pw);
        true
    }

    /// Removes and returns the least-recently-used matching edge incident
    /// to `v` (`None` if `v` has none) — the deterministic eviction. The
    /// list head *is* the victim's slot, so its position at `v` is
    /// `head[v] − v·b` and only the partner's block is scanned.
    #[inline]
    pub fn evict_lru(&mut self, v: NodeId) -> Option<Pair> {
        let slot = self.head[v as usize];
        if slot == NIL {
            return None;
        }
        let pos = slot as usize - v as usize * self.matching.cap();
        let victim = self.matching.incident_edges(v)[pos];
        let (lo, hi) = victim.endpoints();
        let partner_pos = |partner| {
            self.matching
                .position(partner, victim)
                .expect("adjacency blocks out of sync")
        };
        let (pu, pw) = if v == lo {
            (pos, partner_pos(hi))
        } else {
            (partner_pos(lo), pos)
        };
        self.remove_at(victim, pu, pw);
        Some(victim)
    }

    /// The least-recently-used matching edge incident to `v`, if any — the
    /// deterministic eviction victim, left in place ([`Self::evict_lru`]
    /// removes it). For tests and diagnostics.
    #[inline]
    pub fn lru_edge(&self, v: NodeId) -> Option<Pair> {
        let slot = self.head[v as usize];
        (slot != NIL).then(|| {
            let pos = slot as usize - v as usize * self.matching.cap();
            self.matching.incident_edges(v)[pos]
        })
    }

    /// `v`'s incident edges in recency order (LRU first). O(degree); for
    /// tests and diagnostics, not the hot path.
    pub fn recency_order(&self, v: NodeId) -> Vec<Pair> {
        let base = v as usize * self.matching.cap();
        let mut out = Vec::with_capacity(self.matching.degree(v));
        let mut slot = self.head[v as usize];
        while slot != NIL {
            out.push(self.matching.incident_edges(v)[slot as usize - base]);
            slot = self.next[slot as usize];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u32, b: u32) -> Pair {
        Pair::new(a, b)
    }

    #[test]
    fn lru_victim_is_oldest_touch() {
        let mut m = LruBMatching::new(6, 3);
        m.insert_mru(p(0, 1));
        m.insert_mru(p(0, 2));
        m.insert_mru(p(0, 3));
        assert_eq!(m.lru_edge(0), Some(p(0, 1)));
        assert!(m.touch_hit(p(0, 1)));
        assert_eq!(m.lru_edge(0), Some(p(0, 2)));
        assert_eq!(m.recency_order(0), vec![p(0, 2), p(0, 3), p(0, 1)]);
        m.assert_valid();
    }

    #[test]
    fn touch_misses_leave_state_unchanged() {
        let mut m = LruBMatching::new(4, 2);
        m.insert_mru(p(0, 1));
        let before = m.recency_order(0);
        assert!(!m.touch_hit(p(0, 2)));
        assert_eq!(m.recency_order(0), before);
        assert!(!m.remove(p(0, 2)));
        m.assert_valid();
    }

    #[test]
    fn remove_mirrors_swap_remove_relabeling() {
        // Removing a middle edge makes BMatching move its last block entry
        // into the hole; the list node must follow, preserving order.
        let mut m = LruBMatching::new(6, 4);
        for v in [1u32, 2, 3, 4] {
            m.insert_mru(p(0, v));
        }
        assert!(m.remove(p(0, 2)));
        // Recency order drops {0,2} but otherwise keeps touch order.
        assert_eq!(m.recency_order(0), vec![p(0, 1), p(0, 3), p(0, 4)]);
        assert_eq!(m.lru_edge(0), Some(p(0, 1)));
        m.assert_valid();
        // The other endpoints' single-entry lists survive too.
        assert_eq!(m.recency_order(3), vec![p(0, 3)]);
    }

    #[test]
    fn empty_rack_has_no_victim() {
        let mut m = LruBMatching::new(3, 2);
        assert_eq!(m.lru_edge(1), None);
        assert_eq!(m.evict_lru(1), None);
        assert!(m.recency_order(1).is_empty());
    }

    #[test]
    fn evict_lru_removes_the_head_at_either_endpoint() {
        // Rack 3 is the `hi` endpoint of its edges: the head position is
        // on the `hi` side and the partner scan on the `lo` side.
        let mut m = LruBMatching::new(6, 3);
        for e in [p(0, 3), p(1, 3), p(2, 3), p(0, 4)] {
            m.insert_mru(e);
        }
        assert!(m.touch_hit(p(0, 3)));
        assert_eq!(m.evict_lru(3), Some(p(1, 3)));
        assert_eq!(m.recency_order(3), vec![p(2, 3), p(0, 3)]);
        assert!(m.recency_order(1).is_empty());
        m.assert_valid();
        // Rack 0 is the `lo` endpoint. After touching {0,4} its head is
        // {0,3}, at block position 0, so the swap-remove moves {0,4} into
        // that slot and relabels its list node.
        assert!(m.touch_hit(p(0, 4)));
        assert_eq!(m.evict_lru(0), Some(p(0, 3)));
        assert_eq!(m.matching().incident_edges(0), &[p(0, 4)]);
        assert_eq!(m.recency_order(3), vec![p(2, 3)]);
        m.assert_valid();
        assert_eq!(m.evict_lru(0), Some(p(0, 4)));
        assert_eq!(m.evict_lru(0), None);
        m.assert_valid();
    }

    #[test]
    fn churn_keeps_lists_and_blocks_in_sync() {
        let n = 10u32;
        let mut m = LruBMatching::new(n as usize, 3);
        for i in 0..4000u32 {
            let a = i % n;
            let b = (a + 1 + i.wrapping_mul(2654435761) % (n - 1)) % n;
            if a == b {
                continue;
            }
            let e = p(a, b);
            if m.touch_hit(e) {
                if i % 7 == 0 {
                    m.remove(e);
                }
            } else if m.matching().can_insert(e) {
                m.insert_mru(e);
            } else if let Some(victim) = m.lru_edge(e.lo()) {
                m.remove(victim);
            }
            if i % 97 == 0 {
                m.assert_valid();
            }
        }
        m.assert_valid();
    }
}
