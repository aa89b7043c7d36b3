//! Pins the historical bytes of every generator.
//!
//! `stream_equivalence.rs` compares each stream with a trace materialized by
//! the same code, so a rewrite that changes both sides still passes there.
//! This file does not: it holds FNV-1a digests of the first 100 000 requests
//! of every generator at two seeds, recorded before the division-free
//! bounded draw and the integer-threshold alias table replaced
//! `random_range` and the f64 coin compare. Any change to a seeded stream,
//! through `next_request` or through `fill`, fails here.

use dcn_topology::Pair;
use dcn_traces::source::RequestSource;
use dcn_traces::{
    facebook_cluster_source, facebook_source, hotspot_source, matrix_source, microsoft_source,
    permutation_source, sequence_source, star_round_robin_source, star_uniform_source,
    uniform_source, zipf_pair_source, DemandMatrix, FacebookCluster, FacebookParams, Genome,
    MatrixSequence, MicrosoftParams, Segment,
};

const LEN: usize = 100_000;
const SEEDS: [u64; 2] = [0, 0xDEAD_BEEF];

/// 64-bit FNV-1a over each request's `(lo, hi)` as little-endian `u32`s.
fn digest(requests: &[Pair]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in requests {
        for byte in p.lo().to_le_bytes().into_iter().chain(p.hi().to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of the whole stream, checked to be the same through
/// `next_request` and through `fill` with a batch size (777) that puts
/// phase and segment borders mid-batch.
fn stream_digest(mut source: Box<dyn RequestSource>) -> u64 {
    assert_eq!(source.len(), LEN);
    let streamed: Vec<Pair> = std::iter::from_fn(|| source.next_request()).collect();
    source.reset();
    let mut filled = vec![Pair::new(0, 1); LEN];
    let mut at = 0;
    while at < LEN {
        let end = (at + 777).min(LEN);
        assert_eq!(source.fill(&mut filled[at..end]), end - at);
        at = end;
    }
    assert_eq!(streamed, filled, "fill diverged from next_request");
    digest(&streamed)
}

fn genome(segment: Segment) -> Box<dyn RequestSource> {
    Box::new(Genome::new(100, vec![segment]).source())
}

/// Every generator at `seed`, 100 000 requests each, by name.
fn sources(seed: u64) -> Vec<(&'static str, Box<dyn RequestSource>)> {
    let custom = FacebookParams {
        src_skew: 0.7,
        dst_skew: 1.3,
        p_burst: 0.5,
        working_set: 64,
        phase_len: 500,
        phase_pairs: 10,
        p_phase: 0.4,
    };
    // The round-robin nemesis is seedless; vary its block length instead.
    let rr_alpha = if seed == 0 { 10 } else { 16 };
    let fb = |cluster| Box::new(facebook_cluster_source(cluster, 100, LEN, seed));
    vec![
        ("uniform", Box::new(uniform_source(100, LEN, seed))),
        ("permutation", Box::new(permutation_source(100, LEN, seed))),
        ("hotspot", Box::new(hotspot_source(100, LEN, 8, 0.8, seed))),
        ("zipf", Box::new(zipf_pair_source(100, LEN, 1.2, seed))),
        ("facebook-db", fb(FacebookCluster::Database)),
        ("facebook-web", fb(FacebookCluster::WebService)),
        ("facebook-hadoop", fb(FacebookCluster::Hadoop)),
        (
            "facebook-custom",
            Box::new(facebook_source(25, LEN, custom, seed)),
        ),
        (
            "microsoft",
            Box::new(microsoft_source(50, LEN, MicrosoftParams::default(), seed)),
        ),
        (
            "star-uniform",
            Box::new(star_uniform_source(13, 10, LEN / 10, seed)),
        ),
        (
            "star-round-robin",
            Box::new(star_round_robin_source(13, rr_alpha, LEN / rr_alpha)),
        ),
        (
            "matrix",
            Box::new(matrix_source(
                &DemandMatrix::zipf_pairs(30, 1.3, seed),
                LEN,
                seed,
            )),
        ),
        (
            "sequence",
            Box::new(sequence_source(
                &MatrixSequence::zipf_switching(30, 4, LEN / 4, 1.2, seed),
                seed,
            )),
        ),
        (
            "genome-uniform",
            genome(Segment::Uniform { len: LEN, seed }),
        ),
        (
            "genome-hotspot",
            genome(Segment::Hotspot {
                len: LEN,
                num_hot: 6,
                p_hot: 0.7,
                offset: 97,
                seed,
            }),
        ),
        (
            "genome-permutation",
            genome(Segment::Permutation { len: LEN, seed }),
        ),
        (
            "genome-star-blocks",
            genome(Segment::StarBlocks {
                spokes: 11,
                block_len: 8,
                blocks: LEN / 8,
                seed,
            }),
        ),
        (
            "genome-zipf-ramp",
            genome(Segment::ZipfRamp {
                len: LEN,
                s_start: 0.4,
                s_end: 1.8,
                seed,
            }),
        ),
    ]
}

/// `(generator, seed, digest)`, recorded on the pre-rewrite generators.
const PINNED: &[(&str, u64, u64)] = &[
    ("uniform", 0x0, 0x299c787b66f36ec6),
    ("permutation", 0x0, 0xd0680bef2bfbb225),
    ("hotspot", 0x0, 0x462dd4db114aeb19),
    ("zipf", 0x0, 0x08f8eec64e6bcdca),
    ("facebook-db", 0x0, 0xddd7a078dfcd0b7c),
    ("facebook-web", 0x0, 0xfc0d7a2943b8dbaa),
    ("facebook-hadoop", 0x0, 0xc240e00ac2d14dea),
    ("facebook-custom", 0x0, 0x16327b5c42adc170),
    ("microsoft", 0x0, 0x2e6c540725e5bd7c),
    ("star-uniform", 0x0, 0x2aa083e8735d2dc5),
    ("star-round-robin", 0x0, 0x63b3d69a7f35f685),
    ("matrix", 0x0, 0x06898b4fc1009ae2),
    ("sequence", 0x0, 0x6e853b368c7a516b),
    ("genome-uniform", 0x0, 0xd9358f2d8aa3a7e5),
    ("genome-hotspot", 0x0, 0xa4143a71a94eca25),
    ("genome-permutation", 0x0, 0xef7514527b6bbb25),
    ("genome-star-blocks", 0x0, 0xdb2c7274f19cd325),
    ("genome-zipf-ramp", 0x0, 0xd64e5c6401b0106d),
    ("uniform", 0xdeadbeef, 0x6b3f33cd7d466e4f),
    ("permutation", 0xdeadbeef, 0x40d56185121eaa25),
    ("hotspot", 0xdeadbeef, 0x2c72572ee746fbcf),
    ("zipf", 0xdeadbeef, 0x643243592c7c6c91),
    ("facebook-db", 0xdeadbeef, 0xa72e965f0edca7db),
    ("facebook-web", 0xdeadbeef, 0xba106e5920939eec),
    ("facebook-hadoop", 0xdeadbeef, 0x80219595026dd2ab),
    ("facebook-custom", 0xdeadbeef, 0x9f47b5f012ae4708),
    ("microsoft", 0xdeadbeef, 0xe7d436f7d8c01b32),
    ("star-uniform", 0xdeadbeef, 0x7338ef91b8da16a5),
    ("star-round-robin", 0xdeadbeef, 0x1b8282081dd7f425),
    ("matrix", 0xdeadbeef, 0x7a15c66b3d84b03b),
    ("sequence", 0xdeadbeef, 0x977f88634f2e28c1),
    ("genome-uniform", 0xdeadbeef, 0xab0e178cf08b8003),
    ("genome-hotspot", 0xdeadbeef, 0x95c686bf33959f5f),
    ("genome-permutation", 0xdeadbeef, 0x89028edb5fa85225),
    ("genome-star-blocks", 0xdeadbeef, 0xf73273272f2682a5),
    ("genome-zipf-ramp", 0xdeadbeef, 0xf62b91860b3686c5),
];

#[test]
fn every_generator_matches_its_pinned_digest() {
    let mut got = Vec::new();
    for seed in SEEDS {
        for (name, source) in sources(seed) {
            got.push((name, seed, stream_digest(source)));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, seed, d)| format!("    ({name:?}, {seed:#x}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "digest table:\n{table}");
    let mismatched: Vec<_> = got
        .iter()
        .zip(PINNED)
        .filter(|(g, p)| (g.0, g.1, g.2) != **p)
        .map(|(g, _)| g.0)
        .collect();
    assert!(
        mismatched.is_empty(),
        "streams changed: {mismatched:?}\ndigest table:\n{table}"
    );
}
