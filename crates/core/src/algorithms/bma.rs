//! **BMA** — the deterministic online b-matching baseline (Bienkowski,
//! Fuchssteiner, Marcinkowski, Schmid \[11\]; PERFORMANCE 2020), which the
//! paper benchmarks R-BMA against in §3.
//!
//! Reconstruction (the reproduced paper states the algorithm's properties —
//! deterministic, Θ(b)-competitive, rent-or-buy — but not its pseudocode;
//! DESIGN.md documents this substitution): a per-pair counter accumulates
//! the routing cost paid on the fixed network. When a pair's counter
//! reaches the reconfiguration cost α, the pair has "paid for" an optical
//! link and is bought into the matching; if an endpoint is at capacity the
//! incident matching edge with the oldest last use is evicted
//! deterministically. Counters reset on insertion and eviction. Any
//! deterministic rent-or-buy scheme of this shape is O(b)-competitive and
//! Ω(b) on the §2.4 star nemesis, which is the property the comparison
//! exercises.
//!
//! Implementation note (execution-time fidelity, Figs. 1b–4b): evicting the
//! least-recently-used *incident* edge deterministically requires a
//! per-node recency index, so every request to a matched pair updates the
//! indexes at both endpoints, while R-BMA's ordinary-request path is a
//! single counter bump. This per-hit upkeep — inherent to deterministic
//! recency-based eviction — is what makes BMA slower per request and more
//! sensitive to `b` than R-BMA, the effect §3.2 reports. The upkeep itself
//! is O(1): the recency index is a flat intrusive LRU threaded through the
//! matching's fixed-stride adjacency
//! ([`dcn_matching::recency::LruBMatching`] — a hit is two list splices).
//! The unit tests replay it against a test-local reference that keeps
//! recency in per-rack `BTreeMap`s of last-use stamps: same victims, same
//! reports.
//!
//! The miss/buy/evict path is as flat as R-BMA's hot path, so BMA's serve
//! time is its recency upkeep and nothing incidental:
//! - Rent lives in a pair-id-indexed table (the `PairTable` R-BMA's
//!   Theorem-1 counters use): a miss is one indexed add, and a buy writes
//!   0 back. There is no hash insert or remove as pairs come and go.
//! - A victim needs no rent reset. A buy zeroes the pair's rent, and a
//!   matched pair's requests are hits, which never rent, so every matched
//!   pair's rent is 0 (a unit test checks it after every request).
//! - Eviction is addressed by position ([`LruBMatching::evict_lru`]): the
//!   LRU head slot at the full endpoint is the victim's block position, so
//!   only the partner's block is scanned before one swap-remove.

use crate::scheduler::{BatchOutcome, OnlineScheduler, ServeOutcome};
use dcn_matching::{BMatching, LruBMatching};
use dcn_telemetry::{Counter, Telemetry};
use dcn_topology::{DistanceMatrix, NodeId, Pair};
use std::sync::Arc;

use super::pair_table::PairTable;

/// Deterministic rent-or-buy online b-matching with LRU eviction.
pub struct Bma {
    dm: Arc<DistanceMatrix>,
    alpha: u64,
    /// Accumulated fixed-network cost per pair (0 = no rent accrued; a
    /// matched pair's rent is always 0, since a buy resets it and hits
    /// never rent).
    rent: PairTable<u64>,
    /// Matching + per-endpoint recency (LRU victim selection).
    index: LruBMatching,
    /// Local event recorders, drained by `telemetry_flush` (hits are bulk
    /// adds at loop ends; only buy/evict events pay a per-event bump —
    /// both off the per-request fast path).
    stats: BmaStats,
}

/// BMA's telemetry recorders (ZSTs under `--cfg dcn_telemetry_off`).
#[derive(Default)]
struct BmaStats {
    /// Requests that arrived on a matching edge.
    hits: Counter,
    /// LRU list-splice operations (one touch per hit — the §3.2 upkeep).
    splices: Counter,
    /// Rent-or-buy threshold crossings (edge insertions).
    buys: Counter,
    /// Deterministic LRU evictions.
    evictions: Counter,
}

impl Bma {
    /// Creates BMA with degree cap `b` and reconfiguration cost `alpha`.
    pub fn new(dm: Arc<DistanceMatrix>, b: usize, alpha: u64) -> Self {
        assert!(alpha >= 1, "alpha must be at least 1");
        let n = dm.num_racks();
        Self {
            dm,
            alpha,
            rent: PairTable::new(n),
            index: LruBMatching::new(n, b),
            stats: BmaStats::default(),
        }
    }

    /// The rent-or-buy miss path: pay `ℓ_e`, accumulate, buy at α.
    /// Returns `(added, removed)`.
    #[inline]
    fn serve_miss(&mut self, pair: Pair, ell: u64) -> (u32, u32) {
        let rent = self.rent.slot_mut(pair);
        *rent += ell;
        if *rent < self.alpha {
            return (0, 0);
        }
        *rent = 0;
        self.stats.buys.bump();

        // Buy the edge; make room deterministically.
        let mut removed = 0;
        for node in [pair.lo(), pair.hi()] {
            if self.index.matching().degree(node) >= self.index.matching().cap() {
                self.evict_lru_at(node);
                removed += 1;
            }
        }
        self.index.insert_mru(pair);
        (1, removed)
    }

    /// Evicts the least-recently-used matching edge at `node`. The victim
    /// leaves with no rent to reset: it was zeroed when the edge was bought,
    /// and a matched pair's requests are hits, which never rent.
    fn evict_lru_at(&mut self, node: NodeId) {
        let victim = self
            .index
            .evict_lru(node)
            .expect("eviction requested at a node with no matching edges");
        debug_assert_eq!(self.rent.get(victim), 0, "matched {victim} accrued rent");
        self.stats.evictions.bump();
    }
}

impl OnlineScheduler for Bma {
    fn name(&self) -> &str {
        "BMA"
    }

    fn cap(&self) -> usize {
        self.index.matching().cap()
    }

    fn serve(&mut self, pair: Pair) -> ServeOutcome {
        // The membership check and the recency refresh are one fused
        // operation (on the flat index, the membership scan already locates
        // the intrusive list node).
        if self.index.touch_hit(pair) {
            self.stats.hits.bump();
            self.stats.splices.bump();
            return ServeOutcome {
                was_matched: true,
                added: 0,
                removed: 0,
            };
        }
        // Pay ℓ_e on the fixed network; accumulate toward the buy threshold.
        let ell = self.dm.ell(pair) as u64;
        let (added, removed) = self.serve_miss(pair, ell);
        ServeOutcome {
            was_matched: false,
            added,
            removed,
        }
    }

    /// The fused batch loop: hits stay on the immediate recency-upkeep
    /// path — two O(1) splices per hit — while batching shrinks the
    /// dispatch/accounting overhead around it. Routing is charged from the
    /// simulator's `dm`, renting from the scheduler's own (the same matrix
    /// in every sweep, so the second read hits the just-warmed line).
    fn serve_batch(&mut self, batch: &[Pair], dm: &DistanceMatrix, acc: &mut BatchOutcome) {
        let mut matched = 0u64;
        let mut routing = 0u64;
        for &pair in batch {
            if self.index.touch_hit(pair) {
                matched += 1;
                routing += 1;
            } else {
                let ell = dm.ell(pair) as u64;
                routing += ell;
                let (added, removed) = self.serve_miss(pair, self.dm.ell(pair) as u64);
                acc.added += added as u64;
                acc.removed += removed as u64;
            }
        }
        self.stats.hits.add(matched);
        self.stats.splices.add(matched);
        acc.matched += matched;
        acc.routing_cost += routing;
    }

    fn matching(&self) -> &BMatching {
        self.index.matching()
    }

    fn telemetry_flush(&mut self, sink: &Telemetry) {
        sink.add_counter("bma.hits", self.stats.hits.take());
        sink.add_counter("bma.lru_splices", self.stats.splices.take());
        sink.add_counter("bma.buys", self.stats.buys.take());
        sink.add_counter("bma.evictions", self.stats.evictions.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    /// Test-local reference BMA: the same rent-or-buy rule written
    /// plainly, with recency kept the historical way — one `BTreeMap` of
    /// last-use stamps per rack, drawn from a global clock, whose minimum
    /// is the LRU victim. It shares no recency code with [`Bma`].
    struct BTreeBma {
        dm: Arc<DistanceMatrix>,
        alpha: u64,
        counters: HashMap<Pair, u64>,
        matching: BMatching,
        stamp_of: HashMap<Pair, u64>,
        recency: Vec<BTreeMap<u64, Pair>>,
        clock: u64,
    }

    impl BTreeBma {
        fn new(dm: Arc<DistanceMatrix>, b: usize, alpha: u64) -> Self {
            let n = dm.num_racks();
            Self {
                dm,
                alpha,
                counters: HashMap::new(),
                matching: BMatching::new(n, b),
                stamp_of: HashMap::new(),
                recency: vec![BTreeMap::new(); n],
                clock: 0,
            }
        }

        fn touch(&mut self, pair: Pair) {
            self.clock += 1;
            self.untrack(pair);
            self.stamp_of.insert(pair, self.clock);
            self.recency[pair.lo() as usize].insert(self.clock, pair);
            self.recency[pair.hi() as usize].insert(self.clock, pair);
        }

        fn untrack(&mut self, pair: Pair) {
            if let Some(old) = self.stamp_of.remove(&pair) {
                self.recency[pair.lo() as usize].remove(&old);
                self.recency[pair.hi() as usize].remove(&old);
            }
        }

        fn recency_order(&self, v: NodeId) -> Vec<Pair> {
            self.recency[v as usize].values().copied().collect()
        }
    }

    impl OnlineScheduler for BTreeBma {
        fn name(&self) -> &str {
            "BMA"
        }

        fn cap(&self) -> usize {
            self.matching.cap()
        }

        fn serve(&mut self, pair: Pair) -> ServeOutcome {
            if self.matching.contains(pair) {
                self.touch(pair);
                return ServeOutcome {
                    was_matched: true,
                    ..Default::default()
                };
            }
            let counter = self.counters.entry(pair).or_insert(0);
            *counter += self.dm.ell(pair) as u64;
            if *counter < self.alpha {
                return ServeOutcome::default();
            }
            self.counters.remove(&pair);
            let mut removed = 0;
            for node in [pair.lo(), pair.hi()] {
                if self.matching.degree(node) >= self.matching.cap() {
                    let victim = *self.recency[node as usize].values().next().unwrap();
                    self.matching.remove(victim);
                    self.untrack(victim);
                    self.counters.remove(&victim);
                    removed += 1;
                }
            }
            self.matching.insert(pair);
            self.touch(pair);
            ServeOutcome {
                was_matched: false,
                added: 1,
                removed,
            }
        }

        fn matching(&self) -> &BMatching {
            &self.matching
        }
    }

    fn uniform(n: usize) -> Arc<DistanceMatrix> {
        Arc::new(DistanceMatrix::uniform(n))
    }

    #[test]
    fn buys_after_alpha_worth_of_cost() {
        // Uniform distances (ℓ = 1), α = 3: third miss triggers the buy.
        let mut bma = Bma::new(uniform(4), 1, 3);
        let p = Pair::new(0, 1);
        assert_eq!(bma.serve(p).added, 0);
        assert_eq!(bma.serve(p).added, 0);
        let out = bma.serve(p);
        assert_eq!(out.added, 1);
        assert!(!out.was_matched, "the buying request itself still paid ℓ");
        assert!(bma.serve(p).was_matched);
    }

    #[test]
    fn longer_paths_buy_faster() {
        // ℓ = 4, α = 8: two misses suffice (2·4 ≥ 8).
        let net = dcn_topology::builders::fat_tree(4);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let cross_pod = Pair::new(0, 7);
        assert_eq!(dm.ell(cross_pod), 4);
        let mut bma = Bma::new(dm, 1, 8);
        assert_eq!(bma.serve(cross_pod).added, 0);
        assert_eq!(bma.serve(cross_pod).added, 1);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let mut bma = Bma::new(uniform(5), 1, 1);
        // α=1: every first miss buys. Edge {0,1}, then {0,2} evicts {0,1}.
        assert_eq!(bma.serve(Pair::new(0, 1)).added, 1);
        let out = bma.serve(Pair::new(0, 2));
        assert_eq!((out.added, out.removed), (1, 1));
        assert!(bma.matching().contains(Pair::new(0, 2)));
        assert!(!bma.matching().contains(Pair::new(0, 1)));
    }

    #[test]
    fn recency_protects_hot_edges() {
        let mut bma = Bma::new(uniform(6), 2, 1);
        bma.serve(Pair::new(0, 1));
        bma.serve(Pair::new(0, 2));
        // Refresh {0,1} via a hit, then insert {0,3}: LRU victim is {0,2}.
        bma.serve(Pair::new(0, 1));
        bma.serve(Pair::new(0, 3));
        assert!(bma.matching().contains(Pair::new(0, 1)));
        assert!(!bma.matching().contains(Pair::new(0, 2)));
        assert!(bma.matching().contains(Pair::new(0, 3)));
    }

    #[test]
    fn degree_bound_holds_under_stress() {
        let n = 10;
        let b = 3;
        let mut bma = Bma::new(uniform(n), b, 2);
        for i in 0..5000u32 {
            let a = i % n as u32;
            let c = (i.wrapping_mul(2654435761) % (n as u32 - 1) + a + 1) % n as u32;
            if a == c {
                continue;
            }
            bma.serve(Pair::new(a, c));
        }
        bma.matching().assert_valid();
        bma.index.assert_valid();
    }

    #[test]
    fn counter_resets_on_eviction() {
        let mut bma = Bma::new(uniform(4), 1, 2);
        let p01 = Pair::new(0, 1);
        let p02 = Pair::new(0, 2);
        // Buy {0,1} (2 misses), then buy {0,2} (2 misses) evicting {0,1}.
        bma.serve(p01);
        bma.serve(p01);
        bma.serve(p02);
        bma.serve(p02);
        assert!(bma.matching().contains(p02));
        // {0,1} must need the full 2 misses again.
        assert_eq!(bma.serve(p01).added, 0);
        assert_eq!(bma.serve(p01).added, 1);
    }

    /// Drives `Bma` and the B-tree reference in lock step and requires
    /// identical outcomes, matchings, and recency orders at every step —
    /// the decision-for-decision equivalence the flat LRU must preserve.
    /// Recency is compared at every rack the requests touch (the others
    /// stay empty in both).
    fn assert_lockstep_equivalent(
        requests: &[Pair],
        dm: &Arc<DistanceMatrix>,
        b: usize,
        alpha: u64,
    ) {
        let mut flat = Bma::new(dm.clone(), b, alpha);
        let mut tree = BTreeBma::new(dm.clone(), b, alpha);
        let mut racks: Vec<NodeId> = requests.iter().flat_map(|p| [p.lo(), p.hi()]).collect();
        racks.sort_unstable();
        racks.dedup();
        let mut evictions = 0;
        for (i, &r) in requests.iter().enumerate() {
            let a = flat.serve(r);
            let c = tree.serve(r);
            assert_eq!(a, c, "outcome diverged at request {i} ({r})");
            evictions += a.removed;
            for &v in &racks {
                assert_eq!(
                    flat.index.recency_order(v),
                    tree.recency_order(v),
                    "recency order diverged at request {i}, rack {v}"
                );
            }
        }
        assert_eq!(flat.matching().len(), tree.matching().len());
        assert!(evictions > 0, "no evictions: vacuous case");
        flat.index.assert_valid();
    }

    #[test]
    fn flat_and_btree_instantiations_are_decision_identical() {
        let n = 12u32;
        let requests: Vec<Pair> = (0..6000u32)
            .filter_map(|i| {
                let a = i % n;
                let c = (a + 1 + i.wrapping_mul(40503) % (n - 1)) % n;
                (a != c).then(|| Pair::new(a, c))
            })
            .collect();
        let dm = uniform(n as usize);
        assert_lockstep_equivalent(&requests, &dm, 2, 3);
        assert_lockstep_equivalent(&requests, &dm, 4, 1);
    }

    /// A few thousand requests over a handful of racks, ids spread up to
    /// `n − 1` (so any pair-id arithmetic past the dense limit would land
    /// out of range), drawn from an xorshift stream.
    fn sparse_rack_trace(racks: &[NodeId], len: usize, seed: u64) -> Vec<Pair> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = racks[(x % racks.len() as u64) as usize];
            let c = racks[((x >> 20) % racks.len() as u64) as usize];
            if a != c {
                out.push(Pair::new(a, c));
            }
        }
        out
    }

    #[test]
    fn hash_rent_table_above_the_dense_limit_is_decision_identical() {
        // 1 030 racks is past `DENSE_RACK_LIMIT`: the rent table runs on
        // its hash fallback, which no paper-scale run reaches.
        let n = 1030;
        assert!(n > super::super::pair_table::DENSE_RACK_LIMIT);
        let dm = uniform(n);
        let racks = [0, 1, 2, 517, 1023, 1024, 1025, 1029];
        let requests = sparse_rack_trace(&racks, 4000, 0xD1CE);
        assert_lockstep_equivalent(&requests, &dm, 2, 3);
        assert_lockstep_equivalent(&requests, &dm, 3, 1);
    }

    #[test]
    fn matched_pairs_never_accrue_rent() {
        // The fact behind `evict_lru_at`'s missing rent reset: on a
        // churn-like uniform trace (α = 4, few pairs matched, constant
        // buying and evicting), every matched pair's rent is 0 after every
        // request — in the flat table and in its hash fallback.
        for n in [40usize, 1030] {
            let dm = uniform(n);
            let requests: Vec<Pair> = if n <= 40 {
                use dcn_traces::RequestSource;
                dcn_traces::uniform_source(n, 20_000, 9)
                    .materialize()
                    .requests
            } else {
                sparse_rack_trace(&[3, 500, 1022, 1024, 1026, 1027, 1028, 1029], 20_000, 9)
            };
            let mut bma = Bma::new(dm, 3, 4);
            let mut evictions = 0;
            for (i, &r) in requests.iter().enumerate() {
                evictions += bma.serve(r).removed;
                for e in bma.matching().edges() {
                    assert_eq!(bma.rent.get(e), 0, "matched {e} has rent after request {i}");
                }
            }
            assert!(evictions > 0, "n={n}: no evictions");
        }
    }

    #[test]
    fn flat_and_btree_reports_are_identical_across_batch_sizes() {
        // End-to-end: the full simulator pipeline must produce the same
        // report from `Bma`'s fused batch loop and from the reference
        // served request by request, at every batch size.
        use crate::simulator::{run, SimConfig};
        use dcn_traces::RequestSource;
        let net = dcn_topology::builders::fat_tree_with_racks(20);
        let dm = Arc::new(DistanceMatrix::between_racks(&net));
        let mut source = dcn_traces::zipf_pair_source(20, 8_000, 1.2, 3);
        let trace = source.materialize();
        let base = SimConfig {
            checkpoints: vec![1_000, 4_321, 8_000],
            ..Default::default()
        };
        for batch_size in [1usize, 7, 1024] {
            let config = base.clone().with_batch_size(batch_size);
            let mut flat = Bma::new(dm.clone(), 4, 10);
            let a = run(&mut flat, &dm, 10, &trace.requests, &config);
            let mut tree = BTreeBma::new(dm.clone(), 4, 10);
            let b = run(&mut tree, &dm, 10, &trace.requests, &config);
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.total.routing_cost, b.total.routing_cost);
            assert_eq!(a.total.reconfigurations, b.total.reconfigurations);
            assert_eq!(a.total.matched_requests, b.total.matched_requests);
            assert_eq!(a.checkpoints.len(), b.checkpoints.len());
            for (x, y) in a.checkpoints.iter().zip(&b.checkpoints) {
                assert_eq!(x.requests, y.requests);
                assert_eq!(x.routing_cost, y.routing_cost);
                assert_eq!(x.reconfig_cost, y.reconfig_cost);
                assert_eq!(x.matched_requests, y.matched_requests);
            }
        }
    }

    #[test]
    fn batched_lru_upkeep_matches_btree_per_request() {
        // The fused batch loop must leave the LRU in exactly the state
        // per-request serving leaves it: drive `Bma::serve_batch` against
        // the B-tree reference served request by request, and require
        // identical outcomes AND identical recency orders on every rack
        // after every chunk — duplicate runs included.
        let n = 10usize;
        let dm = uniform(n);
        // Duplicate-heavy stream: hot pairs repeat in runs so a single
        // flush stands in for many touches.
        let mut requests = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        while requests.len() < 5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % n as u64) as u32;
            let b = ((x >> 16) % n as u64) as u32;
            if a == b {
                continue;
            }
            let p = Pair::new(a, b);
            for _ in 0..=(x >> 32) % 6 {
                requests.push(p);
            }
        }
        for chunk_len in [1usize, 3, 64, 997] {
            let mut flat = Bma::new(dm.clone(), 2, 4);
            let mut tree = BTreeBma::new(dm.clone(), 2, 4);
            let mut flat_acc = BatchOutcome::default();
            let mut tree_acc = BatchOutcome::default();
            for (ci, chunk) in requests.chunks(chunk_len).enumerate() {
                flat.serve_batch(chunk, &dm, &mut flat_acc);
                for &r in chunk {
                    let o = tree.serve(r);
                    tree_acc.record(r, o, &dm);
                }
                assert_eq!(flat_acc, tree_acc, "accounting diverged at chunk {ci}");
                for v in 0..n as NodeId {
                    assert_eq!(
                        flat.index.recency_order(v),
                        tree.recency_order(v),
                        "recency order diverged after chunk {ci} (len {chunk_len}), rack {v}"
                    );
                }
            }
            flat.index.assert_valid();
            assert_eq!(flat.matching().len(), tree.matching().len());
        }
    }

    #[test]
    fn recency_indexes_stay_consistent() {
        let n = 12;
        let mut bma = Bma::new(uniform(n), 2, 1);
        for i in 0..4000u32 {
            let a = i % n as u32;
            let c = (a + 1 + i.wrapping_mul(40503) % (n as u32 - 1)) % n as u32;
            if a == c {
                continue;
            }
            bma.serve(Pair::new(a, c));
        }
        // Every matched edge appears in both endpoints' recency lists, and
        // the intrusive slab is internally consistent.
        bma.index.assert_valid();
        let mut listed = 0;
        for v in 0..n as NodeId {
            for pair in bma.index.recency_order(v) {
                assert!(bma.matching().contains(pair));
                listed += 1;
            }
        }
        assert_eq!(listed, 2 * bma.matching().len());
    }
}
