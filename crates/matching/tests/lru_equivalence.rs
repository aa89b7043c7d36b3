//! Side-by-side equivalence of the flat intrusive LRU
//! ([`LruBMatching`]) against a test-local reference that keeps recency
//! the historical way ([`BTreeRecency`]: last-touch stamps from a global
//! clock, ordered per rack in a `BTreeMap`): random
//! hit/miss/insert/evict/remove sequences must produce identical evicted
//! victims (the position-addressed `evict_lru` against the reference's
//! minimum-stamp edge), identical recency
//! orders at **both** endpoints of every edge, identical LRU victims at
//! every rack, and identical matchings — including when the reference's
//! stamp clock starts near the top of the `u64` range (where a stamp-based
//! design is one overflow away from reordering, and the stamp-free list by
//! construction is not).
//!
//! Victim equivalence argument: the B-tree orders a rack's incident edges
//! by their last-touch stamp, drawn from a strictly increasing clock; the
//! intrusive list orders them by last-touch sequence. Both orders are the
//! order of last touches, so the minimum-stamp edge and the LRU head
//! coincide — decision for decision.

use dcn_matching::{BMatching, LruBMatching};
use dcn_topology::{NodeId, Pair};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// The reference recency index: the matching plus one stamp-ordered
/// `BTreeMap` per rack (the first entry is the LRU victim).
struct BTreeRecency {
    matching: BMatching,
    /// Last-use stamp of each matching edge.
    stamp_of: HashMap<Pair, u64>,
    recency: Vec<BTreeMap<u64, Pair>>,
    clock: u64,
}

impl BTreeRecency {
    /// Empty index whose stamp clock starts at `clock` — lets tests probe
    /// behaviour at very large stamps, where a stamp-based design would
    /// wrap (and corrupt its ordering) while the intrusive list, having no
    /// stamps, cannot.
    fn with_start_clock(n: usize, b: usize, clock: u64) -> Self {
        Self {
            matching: BMatching::new(n, b),
            stamp_of: HashMap::new(),
            recency: vec![BTreeMap::new(); n],
            clock,
        }
    }

    fn touch(&mut self, pair: Pair) {
        self.clock = self
            .clock
            .checked_add(1)
            .expect("BTreeRecency stamp clock overflow: stamps would wrap and reorder");
        if let Some(old) = self.stamp_of.insert(pair, self.clock) {
            self.recency[pair.lo() as usize].remove(&old);
            self.recency[pair.hi() as usize].remove(&old);
        }
        self.recency[pair.lo() as usize].insert(self.clock, pair);
        self.recency[pair.hi() as usize].insert(self.clock, pair);
    }
}

/// The recency contract BMA relies on, implemented by the production
/// structure and the reference alike, so one `apply` runs both.
trait Recency {
    fn matching(&self) -> &BMatching;
    fn touch_hit(&mut self, pair: Pair) -> bool;
    fn insert_mru(&mut self, pair: Pair);
    fn remove(&mut self, pair: Pair) -> bool;
    fn lru_edge(&self, v: NodeId) -> Option<Pair>;
    /// Removes and returns the LRU edge at `v`.
    fn evict_lru(&mut self, v: NodeId) -> Option<Pair>;
    fn recency_order(&self, v: NodeId) -> Vec<Pair>;
}

impl Recency for LruBMatching {
    fn matching(&self) -> &BMatching {
        LruBMatching::matching(self)
    }
    fn touch_hit(&mut self, pair: Pair) -> bool {
        LruBMatching::touch_hit(self, pair)
    }
    fn insert_mru(&mut self, pair: Pair) {
        LruBMatching::insert_mru(self, pair)
    }
    fn remove(&mut self, pair: Pair) -> bool {
        LruBMatching::remove(self, pair)
    }
    fn lru_edge(&self, v: NodeId) -> Option<Pair> {
        LruBMatching::lru_edge(self, v)
    }
    fn evict_lru(&mut self, v: NodeId) -> Option<Pair> {
        LruBMatching::evict_lru(self, v)
    }
    fn recency_order(&self, v: NodeId) -> Vec<Pair> {
        LruBMatching::recency_order(self, v)
    }
}

impl Recency for BTreeRecency {
    fn matching(&self) -> &BMatching {
        &self.matching
    }

    fn touch_hit(&mut self, pair: Pair) -> bool {
        if !self.matching.contains(pair) {
            return false;
        }
        self.touch(pair);
        true
    }

    fn insert_mru(&mut self, pair: Pair) {
        self.matching.insert(pair);
        self.touch(pair);
    }

    fn remove(&mut self, pair: Pair) -> bool {
        if !self.matching.remove(pair) {
            return false;
        }
        let stamp = self
            .stamp_of
            .remove(&pair)
            .expect("matched edge missing from recency index");
        self.recency[pair.lo() as usize].remove(&stamp);
        self.recency[pair.hi() as usize].remove(&stamp);
        true
    }

    fn lru_edge(&self, v: NodeId) -> Option<Pair> {
        self.recency[v as usize].values().next().copied()
    }

    fn evict_lru(&mut self, v: NodeId) -> Option<Pair> {
        let victim = self.lru_edge(v)?;
        assert!(self.remove(victim));
        Some(victim)
    }

    fn recency_order(&self, v: NodeId) -> Vec<Pair> {
        self.recency[v as usize].values().copied().collect()
    }
}

/// One step of the replayed workload.
#[derive(Clone, Debug)]
enum Op {
    /// Touch the pair if matched; otherwise insert it, evicting the LRU
    /// incident edge at any full endpoint first (BMA's buy path, through
    /// `evict_lru`).
    Request(Pair),
    /// Remove the pair if present (BMA's counter-driven removal).
    Remove(Pair),
    /// Remove the LRU victim at a rack, if any, found by `lru_edge` and
    /// removed by pair (a bare eviction).
    EvictAt(NodeId),
    /// Remove the LRU victim at a rack, if any, by position (`evict_lru`).
    EvictLru(NodeId),
}

fn pair_strategy(n: u32) -> impl Strategy<Value = Pair> {
    (0..n, 0..n - 1).prop_map(move |(a, b)| {
        let b = if b >= a { b + 1 } else { b };
        Pair::new(a, b)
    })
}

fn op_strategy(n: u32) -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! chooses uniformly (no weight syntax);
    // repeating the Request arm biases the mix toward the hot path.
    prop_oneof![
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Request),
        pair_strategy(n).prop_map(Op::Remove),
        (0..n).prop_map(Op::EvictAt),
        (0..n).prop_map(Op::EvictLru),
    ]
}

/// Applies `op` identically to one structure, using only the [`Recency`]
/// contract (so both implementations run the exact same decision
/// sequence). Returns the edges it evicted, in order.
fn apply<M: Recency>(m: &mut M, op: &Op) -> Vec<Pair> {
    let mut evicted = Vec::new();
    match *op {
        Op::Request(pair) => {
            if m.touch_hit(pair) {
                return evicted;
            }
            for node in [pair.lo(), pair.hi()] {
                if m.matching().degree(node) >= m.matching().cap() {
                    evicted.push(m.evict_lru(node).expect("full node has a victim"));
                }
            }
            m.insert_mru(pair);
        }
        Op::Remove(pair) => {
            m.remove(pair);
        }
        Op::EvictAt(v) => {
            if let Some(victim) = m.lru_edge(v) {
                assert!(m.remove(victim));
                evicted.push(victim);
            }
        }
        Op::EvictLru(v) => evicted.extend(m.evict_lru(v)),
    }
    evicted
}

fn assert_equivalent(flat: &LruBMatching, tree: &BTreeRecency, n: u32, step: usize) {
    assert_eq!(
        flat.matching().len(),
        tree.matching().len(),
        "matching size diverged at step {step}"
    );
    for v in 0..n {
        assert_eq!(
            flat.lru_edge(v),
            tree.lru_edge(v),
            "LRU victim diverged at rack {v}, step {step}"
        );
        assert_eq!(
            flat.recency_order(v),
            tree.recency_order(v),
            "recency order diverged at rack {v}, step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_lru_replays_btree_recency_exactly(
        ops in prop::collection::vec(op_strategy(9), 1..400),
        b in 1usize..4,
    ) {
        let n = 9u32;
        let mut flat = LruBMatching::new(n as usize, b);
        let mut tree = BTreeRecency::with_start_clock(n as usize, b, 0);
        for (step, op) in ops.iter().enumerate() {
            let evicted = apply(&mut flat, op);
            assert_eq!(evicted, apply(&mut tree, op), "victims diverged at step {step}");
            assert_equivalent(&flat, &tree, n, step);
        }
        flat.assert_valid();
    }

    #[test]
    fn equivalence_holds_at_large_stamp_clocks(
        ops in prop::collection::vec(op_strategy(6), 1..200),
        // Start the reference's clock close to (but safely below) the
        // overflow bound: stamps land in [2^63, u64::MAX), the regime where
        // any accidental narrowing or wrap in stamp handling would reorder.
        clock_offset in 0u64..1_000_000,
    ) {
        let n = 6u32;
        let start = (1u64 << 63) + clock_offset;
        let mut flat = LruBMatching::new(n as usize, 2);
        let mut tree = BTreeRecency::with_start_clock(n as usize, 2, start);
        for (step, op) in ops.iter().enumerate() {
            let evicted = apply(&mut flat, op);
            assert_eq!(evicted, apply(&mut tree, op), "victims diverged at step {step}");
            assert_equivalent(&flat, &tree, n, step);
        }
    }
}

fn p(a: u32, b: u32) -> Pair {
    Pair::new(a, b)
}

#[test]
fn btree_reference_matches_flat_on_a_scripted_sequence() {
    let mut flat = LruBMatching::new(8, 2);
    let mut tree = BTreeRecency::with_start_clock(8, 2, 0);
    let script = [p(0, 1), p(0, 2), p(1, 2), p(3, 4), p(0, 1), p(1, 2)];
    for e in script {
        if !flat.touch_hit(e) {
            assert!(!tree.touch_hit(e));
            if flat.matching().can_insert(e) {
                flat.insert_mru(e);
                tree.insert_mru(e);
            }
        } else {
            assert!(tree.touch_hit(e));
        }
        for v in 0..8 {
            assert_eq!(flat.recency_order(v), tree.recency_order(v));
            assert_eq!(flat.lru_edge(v), tree.lru_edge(v));
        }
    }
    flat.assert_valid();
}

#[test]
fn large_start_clock_does_not_perturb_the_reference() {
    // Stamps near the top of the u64 range order exactly like small
    // ones (no wrap occurs); the flat structure has no stamps at all.
    let mut tree = BTreeRecency::with_start_clock(4, 2, u64::MAX - 16);
    let mut flat = LruBMatching::new(4, 2);
    for e in [p(0, 1), p(0, 2), p(0, 1), p(2, 3)] {
        if !tree.touch_hit(e) {
            tree.insert_mru(e);
            flat.insert_mru(e);
        } else {
            assert!(flat.touch_hit(e));
        }
    }
    for v in 0..4 {
        assert_eq!(tree.recency_order(v), flat.recency_order(v));
    }
}

#[test]
#[should_panic(expected = "stamp clock overflow")]
fn btree_clock_overflow_is_detected_not_silent() {
    let mut tree = BTreeRecency::with_start_clock(4, 2, u64::MAX - 1);
    tree.insert_mru(p(0, 1)); // stamp u64::MAX
    tree.touch_hit(p(0, 1)); // would wrap to 0 and reorder: abort
}
