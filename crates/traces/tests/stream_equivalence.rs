//! Stream/materialized equivalence: for every generator the lazy
//! [`RequestSource`] must yield exactly the sequence its `*_trace`
//! counterpart materializes (element for element, for several seeds), and
//! `reset()` must replay identically. This pins down the refactor's hard
//! requirement that the seeded xoshiro256++ draws are byte-identical
//! between the eager and the streaming path.

use dcn_topology::Pair;
use dcn_traces::source::{RequestSource, TraceSpec};
use dcn_traces::{
    facebook_cluster_source, facebook_cluster_trace, facebook_source, facebook_trace,
    hotspot_source, hotspot_trace, matrix_source, matrix_trace, microsoft_source, microsoft_trace,
    permutation_source, permutation_trace, sequence_source, sequence_trace,
    star_round_robin_blocks, star_round_robin_source, star_uniform_blocks, star_uniform_source,
    uniform_source, uniform_trace, zipf_pair_source, zipf_pair_trace, DemandMatrix,
    FacebookCluster, FacebookParams, Genome, MatrixSequence, MicrosoftParams, Segment, Trace,
};
use proptest::prelude::*;

const SEEDS: [u64; 4] = [0, 1, 7, 0xDEAD_BEEF];

/// Streams `source` and checks it equals `trace` element-for-element, with
/// consistent bookkeeping (`len`, `remaining`, `name`, `num_racks`).
fn assert_stream_equals_trace<S: RequestSource>(mut source: S, trace: &Trace) {
    assert_eq!(source.len(), trace.len());
    assert_eq!(source.num_racks(), trace.num_racks);
    assert_eq!(source.name(), trace.name);
    for (i, &expected) in trace.requests.iter().enumerate() {
        assert_eq!(source.remaining(), trace.len() - i);
        let got = source.next_request().expect("stream ends early");
        assert_eq!(got, expected, "divergence at position {i}");
    }
    assert_eq!(source.remaining(), 0);
    assert!(source.next_request().is_none(), "stream runs long");
    // And materialize() reproduces the trace wholesale.
    assert_eq!(&source.materialize(), trace);
}

#[test]
fn uniform_stream_equals_trace() {
    for seed in SEEDS {
        assert_stream_equals_trace(
            uniform_source(13, 2_000, seed),
            &uniform_trace(13, 2_000, seed),
        );
    }
}

#[test]
fn permutation_stream_equals_trace() {
    for seed in SEEDS {
        assert_stream_equals_trace(
            permutation_source(12, 1_000, seed),
            &permutation_trace(12, 1_000, seed),
        );
    }
}

#[test]
fn hotspot_stream_equals_trace() {
    for seed in SEEDS {
        assert_stream_equals_trace(
            hotspot_source(20, 2_000, 4, 0.8, seed),
            &hotspot_trace(20, 2_000, 4, 0.8, seed),
        );
    }
}

#[test]
fn zipf_stream_equals_trace() {
    for seed in SEEDS {
        assert_stream_equals_trace(
            zipf_pair_source(15, 2_000, 1.2, seed),
            &zipf_pair_trace(15, 2_000, 1.2, seed),
        );
    }
}

#[test]
fn facebook_presets_stream_equals_trace() {
    // Hadoop exercises the phase machinery (phase_len < trace length).
    for cluster in [
        FacebookCluster::Database,
        FacebookCluster::WebService,
        FacebookCluster::Hadoop,
    ] {
        for seed in SEEDS {
            assert_stream_equals_trace(
                facebook_cluster_source(cluster, 30, 25_000, seed),
                &facebook_cluster_trace(cluster, 30, 25_000, seed),
            );
        }
    }
}

#[test]
fn facebook_custom_params_stream_equals_trace() {
    let params = FacebookParams {
        src_skew: 0.7,
        dst_skew: 1.3,
        p_burst: 0.5,
        working_set: 64,
        phase_len: 500,
        phase_pairs: 10,
        p_phase: 0.4,
    };
    for seed in SEEDS {
        assert_stream_equals_trace(
            facebook_source(25, 5_000, params, seed),
            &facebook_trace(25, 5_000, params, seed),
        );
    }
}

#[test]
fn microsoft_stream_equals_trace() {
    for seed in SEEDS {
        assert_stream_equals_trace(
            microsoft_source(20, 5_000, MicrosoftParams::default(), seed),
            &microsoft_trace(20, 5_000, MicrosoftParams::default(), seed),
        );
    }
}

#[test]
fn matrix_stream_equals_trace() {
    let matrices = [
        DemandMatrix::uniform(14),
        DemandMatrix::zipf_pairs(14, 1.3, 2),
        DemandMatrix::hotspot(14, 4, 0.8),
        DemandMatrix::microsoft(14, MicrosoftParams::default(), 2),
    ];
    for matrix in &matrices {
        for seed in SEEDS {
            assert_stream_equals_trace(
                matrix_source(matrix, 2_000, seed),
                &matrix_trace(matrix, 2_000, seed),
            );
        }
    }
}

#[test]
fn sequence_stream_equals_trace() {
    let sequences = [
        MatrixSequence::zipf_switching(12, 3, 700, 1.2, 1),
        MatrixSequence::drifting(
            &DemandMatrix::uniform(12).normalized(),
            &DemandMatrix::zipf_pairs(12, 1.5, 3).normalized(),
            2_100,
            4,
        ),
    ];
    for sequence in &sequences {
        for seed in SEEDS {
            assert_stream_equals_trace(
                sequence_source(sequence, seed),
                &sequence_trace(sequence, seed),
            );
        }
    }
}

#[test]
fn star_nemeses_stream_equals_trace() {
    for seed in SEEDS {
        assert_stream_equals_trace(
            star_uniform_source(6, 5, 400, seed),
            &star_uniform_blocks(6, 5, 400, seed),
        );
    }
    assert_stream_equals_trace(
        star_round_robin_source(5, 3, 200),
        &star_round_robin_blocks(5, 3, 200),
    );
}

#[test]
fn trace_spec_source_equals_trace_spec_as_trace() {
    let specs = [
        TraceSpec::Uniform {
            num_racks: 11,
            len: 700,
            seed: 3,
        },
        TraceSpec::Permutation {
            num_racks: 10,
            len: 500,
            seed: 4,
        },
        TraceSpec::Hotspot {
            num_racks: 16,
            len: 600,
            num_hot: 4,
            p_hot: 0.75,
            seed: 5,
        },
        TraceSpec::Zipf {
            num_racks: 9,
            len: 800,
            exponent: 1.4,
            seed: 6,
        },
        TraceSpec::Facebook {
            cluster: FacebookCluster::Hadoop,
            num_racks: 12,
            len: 900,
            seed: 7,
        },
        TraceSpec::Microsoft {
            num_racks: 8,
            len: 400,
            params: MicrosoftParams::default(),
            seed: 8,
        },
        TraceSpec::StarUniform {
            spokes: 5,
            alpha: 4,
            num_blocks: 50,
            seed: 9,
        },
        TraceSpec::StarRoundRobin {
            spokes: 4,
            alpha: 2,
            num_blocks: 30,
        },
        TraceSpec::matrix(DemandMatrix::zipf_pairs(10, 1.2, 10), 600, 10),
        TraceSpec::sequence(MatrixSequence::zipf_switching(9, 2, 300, 1.1, 11), 11),
    ];
    for spec in specs {
        let trace = spec.as_trace().into_owned();
        let mut source = spec.source();
        assert_eq!(source.len(), trace.len(), "{spec:?}");
        let streamed: Vec<_> = std::iter::from_fn(|| source.next_request()).collect();
        assert_eq!(streamed, trace.requests, "{spec:?}");
    }
}

/// One boxed source per kernel family (synthetic, alias-table, working-set,
/// block, matrix, sequence), so batch-path tests sweep every `emit_batch`
/// override plus the default loop. Facebook appears once per preset: Hadoop
/// drives the phase-border split of its `emit_batch`, Database and
/// WebService the phase-free loop.
fn all_kernel_sources(len: usize, seed: u64) -> Vec<Box<dyn RequestSource>> {
    let facebook = |cluster| Box::new(facebook_cluster_source(cluster, 10, len, seed));
    vec![
        Box::new(uniform_source(8, len, seed)),
        Box::new(permutation_source(8, len, seed)),
        Box::new(hotspot_source(8, len, 3, 0.7, seed)),
        Box::new(zipf_pair_source(8, len, 1.1, seed)),
        facebook(FacebookCluster::Hadoop),
        facebook(FacebookCluster::Database),
        facebook(FacebookCluster::WebService),
        Box::new(microsoft_source(8, len, MicrosoftParams::default(), seed)),
        Box::new(star_uniform_source(4, 3, len.div_ceil(3), seed)),
        Box::new(star_round_robin_source(4, 3, len.div_ceil(3))),
        Box::new(matrix_source(
            &DemandMatrix::zipf_pairs(8, 1.2, seed),
            len,
            seed,
        )),
        Box::new(sequence_source(
            &MatrixSequence::zipf_switching(8, 3, len.div_ceil(3).max(1), 1.1, seed),
            seed,
        )),
    ]
}

/// Drains `source` via `fill`, chunk sizes cycling through `schedule`.
fn drain_with_schedule(source: &mut dyn RequestSource, schedule: &[usize]) -> Vec<Pair> {
    let max = schedule.iter().copied().max().unwrap_or(1).max(1);
    let mut buf = vec![Pair::new(0, 1); max];
    let mut out = Vec::with_capacity(source.len());
    let mut k = 0;
    while source.remaining() > 0 {
        let want = schedule[k % schedule.len()].max(1);
        k += 1;
        let n = source.fill(&mut buf[..want]);
        out.extend_from_slice(&buf[..n]);
        if n == 0 {
            break;
        }
    }
    out
}

/// Proptest strategy over valid [`Segment`]s for an 8-rack genome,
/// covering all five segment families with their full parameter ranges.
/// Lives here (not in `dcn-adversary`) so the trace crate's stream
/// contract is pinned without a dependency on the search crate.
fn segment_strategy() -> impl Strategy<Value = Segment> {
    const N: usize = 8;
    prop_oneof![
        (1usize..120, any::<u64>()).prop_map(|(len, seed)| Segment::Uniform { len, seed }),
        (
            1usize..120,
            2usize..=N,
            0.0..1.0f64,
            0usize..N,
            any::<u64>()
        )
            .prop_map(|(len, num_hot, p_hot, offset, seed)| Segment::Hotspot {
                len,
                num_hot,
                p_hot,
                offset,
                seed,
            }),
        (1usize..120, any::<u64>()).prop_map(|(len, seed)| Segment::Permutation { len, seed }),
        (2usize..N, 1usize..12, 1usize..12, any::<u64>()).prop_map(
            |(spokes, block_len, blocks, seed)| Segment::StarBlocks {
                spokes,
                block_len,
                blocks,
                seed,
            }
        ),
        (1usize..120, 0.0..4.0f64, 0.0..4.0f64, any::<u64>()).prop_map(
            |(len, s_start, s_end, seed)| Segment::ZipfRamp {
                len,
                s_start,
                s_end,
                seed,
            }
        ),
    ]
}

/// Arbitrary valid genomes: 1–5 segments over 8 racks.
fn genome_strategy() -> impl Strategy<Value = Genome> {
    proptest::collection::vec(segment_strategy(), 1..6)
        .prop_map(|segments| Genome::new(8, segments))
}

#[test]
fn genome_stream_equals_trace() {
    // A genome exercising every segment family (and hence every segment
    // kernel's emit path) against the materialized counterpart, with the
    // usual bookkeeping checks.
    for seed in SEEDS {
        let g = Genome::new(
            8,
            vec![
                Segment::Uniform { len: 40, seed },
                Segment::Hotspot {
                    len: 50,
                    num_hot: 3,
                    p_hot: 0.85,
                    offset: 6,
                    seed,
                },
                Segment::Permutation { len: 24, seed },
                Segment::StarBlocks {
                    spokes: 4,
                    block_len: 6,
                    blocks: 8,
                    seed,
                },
                Segment::ZipfRamp {
                    len: 30,
                    s_start: 0.3,
                    s_end: 2.2,
                    seed,
                },
            ],
        );
        assert_stream_equals_trace(g.source(), &g.as_trace());
    }
}

proptest! {
    /// `fill` with an arbitrary batch-size schedule replays the exact
    /// `next_request` sequence for every kernel — the draw-for-draw batch
    /// contract the simulator's chunked loop relies on — and the replay
    /// still holds after a mid-stream `reset()`.
    #[test]
    fn fill_schedules_replay_next_request(
        seed in any::<u64>(),
        len in 1usize..500,
        schedule in proptest::collection::vec(1usize..97, 1..8),
        cut in 0usize..500,
    ) {
        for mut source in all_kernel_sources(len, seed) {
            let expected: Vec<Pair> = std::iter::from_fn(|| source.next_request()).collect();
            // Batched drain from a fresh start.
            source.reset();
            let batched = drain_with_schedule(source.as_mut(), &schedule);
            prop_assert_eq!(&batched, &expected, "schedule {:?}", &schedule);
            // Interrupt a batched replay with reset(): the next batched
            // drain must still reproduce the full sequence.
            source.reset();
            let mut buf = vec![Pair::new(0, 1); 97];
            let mut taken = 0;
            while taken < cut.min(source.len()) {
                let want = (cut - taken).min(buf.len()).max(1);
                let n = source.fill(&mut buf[..want]);
                taken += n;
                if n == 0 { break; }
            }
            source.reset();
            let after_reset = drain_with_schedule(source.as_mut(), &schedule);
            prop_assert_eq!(&after_reset, &expected, "reset mid-batch");
            // And mixing APIs mid-stream stays on the same sequence.
            source.reset();
            let mut mixed = Vec::with_capacity(source.len());
            while source.remaining() > 0 {
                let n = source.fill(&mut buf[..schedule[mixed.len() % schedule.len()]]);
                mixed.extend_from_slice(&buf[..n]);
                if let Some(p) = source.next_request() {
                    mixed.push(p);
                }
            }
            prop_assert_eq!(&mixed, &expected, "fill/next_request interleave");
        }
    }

    /// Genome-lowered sources obey the same contract as every built-in
    /// kernel: `fill` under an arbitrary batch schedule replays the exact
    /// `next_request` sequence, `reset()` replays identically from any
    /// interrupt position, and the source emits exactly `len()` requests —
    /// for arbitrary valid genomes, not just the hand-picked sample.
    #[test]
    fn genome_sources_replay_under_arbitrary_batch_schedules(
        genome in genome_strategy(),
        schedule in proptest::collection::vec(1usize..97, 1..8),
        cut in 0usize..700,
    ) {
        let mut source = genome.source();
        prop_assert_eq!(source.len(), genome.len());
        prop_assert_eq!(source.num_racks(), genome.num_racks);
        let expected: Vec<Pair> = std::iter::from_fn(|| source.next_request()).collect();
        prop_assert_eq!(
            expected.len(),
            genome.len(),
            "emitted count diverged for {}",
            genome.to_json()
        );
        prop_assert!(
            expected.iter().all(|p| (p.hi() as usize) < genome.num_racks),
            "rack out of range for {}",
            genome.to_json()
        );
        // Batched drain from a fresh start replays the streamed sequence,
        // including across segment boundaries mid-chunk.
        source.reset();
        let batched = drain_with_schedule(&mut source, &schedule);
        prop_assert_eq!(&batched, &expected, "schedule {:?} on {}", &schedule, genome.to_json());
        // reset() from an arbitrary interrupt position replays identically.
        source.reset();
        for _ in 0..cut.min(genome.len()) {
            source.next_request();
        }
        source.reset();
        let after_cut = drain_with_schedule(&mut source, &schedule);
        prop_assert_eq!(&after_cut, &expected, "reset mid-stream on {}", genome.to_json());
    }

    /// reset() replays the identical sequence, from any interrupt position,
    /// for the stateful generators (working set, phases, blocks).
    #[test]
    fn reset_replays_identically(seed in any::<u64>(), cut in 0usize..600, len in 1usize..600) {
        let sources: Vec<Box<dyn RequestSource>> = vec![
            Box::new(uniform_source(8, len, seed)),
            Box::new(zipf_pair_source(8, len, 1.1, seed)),
            Box::new(facebook_cluster_source(FacebookCluster::Hadoop, 10, len, seed)),
            Box::new(star_uniform_source(4, 3, len.div_ceil(3), seed)),
            Box::new(matrix_source(&DemandMatrix::zipf_pairs(8, 1.2, seed), len, seed)),
            Box::new(sequence_source(
                // Phase length scales with len so cuts land in different
                // phases (the stateful part of SequenceKernel).
                &MatrixSequence::zipf_switching(8, 3, len.div_ceil(3).max(1), 1.1, seed),
                seed,
            )),
        ];
        for mut source in sources {
            let full: Vec<_> = std::iter::from_fn(|| source.next_request()).collect();
            prop_assert_eq!(full.len(), source.len());
            // Replay after exhaustion.
            source.reset();
            let replay: Vec<_> = std::iter::from_fn(|| source.next_request()).collect();
            prop_assert_eq!(&full, &replay);
            // Replay after an arbitrary partial read.
            source.reset();
            for _ in 0..cut.min(source.len()) {
                source.next_request();
            }
            source.reset();
            let after_cut: Vec<_> = std::iter::from_fn(|| source.next_request()).collect();
            prop_assert_eq!(&full, &after_cut);
        }
    }
}
