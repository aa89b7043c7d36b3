//! Pins the blossom matcher's exact output, not only its optimal weight.
//!
//! SO-BMA's edge weights are `count · (ℓ − 1)`, which tie constantly, so a
//! max-weight matching is rarely unique. Which optimum the matcher returns
//! is decided by its edge order and tie-breaks, and SO-BMA's later rounds
//! (and through them every Fig. 1–4 panel (c)) depend on that choice. The
//! other blossom tests accept any optimum; these digests fail on any
//! change of trajectory. They were recorded with the original
//! `Vec<Vec<usize>>` adjacency implementation of `mwmatching`.

use dcn_core::algorithms::static_offline::demand_edges;
use dcn_matching::blossom::max_weight_matching;
use dcn_matching::repeated::repeated_mwm_rounds;
use dcn_matching::WeightedEdge;
use dcn_topology::{builders, DistanceMatrix};
use dcn_traces::{facebook_cluster_trace, FacebookCluster};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mate(&mut self, mate: &[Option<u32>]) {
        self.word(mate.len() as u64);
        for m in mate {
            self.word(m.map_or(u64::MAX, u64::from));
        }
    }
}

/// Random simple graph on `n` vertices with weights in `1..=4`: the
/// tie-heavy `count · (ℓ − 1)` regime (ℓ ∈ {2, 4, 6} and small counts).
fn tie_heavy_graph(rng: &mut SmallRng, n: usize, density: f64) -> Vec<WeightedEdge> {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.random_bool(density) {
                edges.push(WeightedEdge::new(u, v, rng.random_range(1..=4)));
            }
        }
    }
    // Shuffle so the edge order is not the lexicographic one.
    for i in (1..edges.len()).rev() {
        let j = rng.random_range(0..=i);
        edges.swap(i, j);
    }
    edges
}

fn random_digest(n: usize, graphs: usize, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    for g in 0..graphs {
        let density = [0.15, 0.4, 0.8][g % 3];
        let edges = tie_heavy_graph(&mut rng, n, density);
        h.mate(&max_weight_matching(n, &edges));
    }
    h.0
}

#[test]
fn tie_heavy_random_graphs_keep_their_mates() {
    let got = [
        random_digest(10, 300, 0xB1_0010),
        random_digest(40, 60, 0xB1_0040),
        random_digest(100, 12, 0xB1_0100),
    ];
    assert_eq!(
        got,
        [
            0x147b_ed57_455a_ff66,
            0x3a3d_4e57_8cf9_1a1c,
            0x1cca_26dc_36ae_11a5
        ],
        "blossom trajectory changed: {got:016x?}"
    );
}

#[test]
fn facebook_db_demand_keeps_its_mates_and_rounds() {
    let trace = facebook_cluster_trace(FacebookCluster::Database, 100, 20_000, 7);
    let dm = DistanceMatrix::between_racks(&builders::fat_tree_with_racks(100));
    let edges = demand_edges(&dm, &trace.requests);
    assert!(
        edges.len() > 1_000,
        "prefix too sparse: {} edges",
        edges.len()
    );

    let mut single = Fnv::new();
    single.mate(&max_weight_matching(100, &edges));

    let mut rounds = Fnv::new();
    for round in repeated_mwm_rounds(100, &edges, 18) {
        rounds.word(round.len() as u64);
        for p in round {
            rounds.word(((p.lo() as u64) << 32) | p.hi() as u64);
        }
    }
    let got = [single.0, rounds.0];
    assert_eq!(
        got,
        [0x7c5e_5850_2551_0746, 0xe342_6f69_8629_4d58],
        "blossom trajectory changed: {got:016x?}"
    );
}
