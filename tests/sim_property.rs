//! Deterministic-seed ports of the `tests/property.rs` properties.
//!
//! The proptest versions explore a fresh random corner each run; these
//! ports pin **256 fixed seeds** and run under the simulation clock, so
//! a failure names its seed and replays bit-identically forever. The
//! engine-in-the-loop property additionally swaps the threaded cluster
//! for the deterministic simulator and the BFS oracle for the sequential
//! PSTM oracle.

use rand::rngs::SmallRng;
use rand::Rng;

use graphdance::common::time::sim as vclock;
use graphdance::common::{rng, QueryId, Value, VertexId, WorkerId};
use graphdance::engine::messages::{CoordMsg, WorkerMsg};
use graphdance::engine::net::WireMsg;
use graphdance::engine::wire;
use graphdance::pstm::{HandOff, Weight, WeightAccumulator};
use graphdance_sim::{check, GraphSpec, QuerySpec, Repro, SimFailure, Verdict};

const FIXED_SEEDS: u64 = 256;

/// Number of simulator-in-the-loop seeds: these run a whole cluster each,
/// so the default stays small; nightly sweeps raise `SIM_SEEDS`.
fn sim_seeds() -> u64 {
    std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// A seeded stand-in for proptest's `arb_value`: arbitrary value trees up
/// to depth 2, including every leaf kind the codec handles.
fn arb_value(rng: &mut SmallRng, depth: u8) -> Value {
    match rng.gen_range(0..7u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen::<u32>() & 1 == 1),
        2 => Value::Int(rng.gen::<u64>() as i64),
        // Finite floats only (NaN is not equal to itself).
        3 => Value::Float(rng.gen::<u32>() as i32 as f64 / 8.0),
        4 => {
            let len = rng.gen_range(0..12usize);
            let s: String = (0..len)
                .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
                .collect();
            Value::str(&s)
        }
        5 => Value::Vertex(VertexId(rng.gen())),
        _ if depth > 0 => {
            let len = rng.gen_range(0..4usize);
            Value::list((0..len).map(|_| arb_value(rng, depth - 1)).collect())
        }
        _ => Value::Int(rng.gen::<u64>() as i64),
    }
}

/// One packet through `wire::encode_packet` → `wire::decode_packet`: the
/// body is exactly the `u32` count plus each message's `encoded_len`, and
/// every message comes back with exactly its own bytes.
fn packet_roundtrip(msgs: &[WireMsg], seed: u64) -> Vec<WireMsg> {
    let mut body = Vec::new();
    wire::encode_packet(&mut body, msgs).expect("encodes");
    let lens: Vec<usize> = msgs.iter().map(wire::encoded_len).collect();
    assert_eq!(
        body.len(),
        4 + lens.iter().sum::<usize>(),
        "encoded_len drifted at seed {seed}"
    );
    let back = wire::decode_packet(&body).expect("decodes");
    let spans: Vec<usize> = back.iter().map(|(_, b)| b.len()).collect();
    assert_eq!(spans, lens, "message spans at seed {seed}");
    back.into_iter().map(|(m, _)| m).collect()
}

/// Codec round-trips must hold under the frozen simulation clock too
/// (encoding takes no time-dependent path), for each of 256 fixed seeds.
#[test]
fn codec_roundtrips_256_fixed_seeds_under_sim_clock() {
    let clock = vclock::freeze_clock();
    for seed in 0..FIXED_SEEDS {
        let mut r = rng::seeded(seed);
        let row: Vec<Value> = (0..8).map(|_| arb_value(&mut r, 2)).collect();
        let msg = WireMsg::Coord(CoordMsg::Rows {
            query: QueryId(seed),
            rows: vec![row.clone()],
        });
        match &packet_roundtrip(&[msg], seed)[..] {
            [WireMsg::Coord(CoordMsg::Rows { rows, .. })] => {
                assert_eq!(rows, &vec![row], "seed {seed}")
            }
            other => panic!("seed {seed}: unexpected {other:?}"),
        }
        vclock::advance(std::time::Duration::from_micros(1));
    }
    drop(clock);
}

/// Weight arithmetic (the Z/2^64 progression-weight group) for 256 fixed
/// seeds: splits conserve, accumulators complete exactly at the root.
#[test]
fn weight_splits_conserve_256_fixed_seeds() {
    for seed in 0..FIXED_SEEDS {
        let mut r = rng::seeded(seed ^ 0x5EED);
        // split(n) partitions exactly.
        let n = r.gen_range(1..=17usize);
        let w = Weight(r.gen::<u64>());
        let parts = w.split(n, &mut r);
        assert_eq!(parts.len(), n);
        let sum = parts.iter().fold(Weight::ZERO, |acc, p| acc.add(*p));
        assert_eq!(sum, w, "split({n}) must conserve at seed {seed}");
        // split_one leaves the residual that completes the original.
        let mut rest = w;
        let child = rest.split_one(&mut r);
        assert_eq!(child.add(rest), w, "split_one conserves at seed {seed}");
        // An accumulator fed a full partition of ROOT completes; any
        // strict subset does not.
        let shares = Weight::ROOT.split(5, &mut r);
        let mut acc = WeightAccumulator::new();
        for (i, s) in shares.iter().enumerate() {
            assert!(
                !acc.is_complete() || i == 0,
                "complete before all shares at seed {seed}"
            );
            acc.add(*s);
        }
        assert!(acc.is_complete(), "all shares in at seed {seed}");
    }
}

/// The distributed k-hop property, simulator edition: random G(n,m)
/// graphs, the deterministic cluster, and the sequential oracle must
/// agree for every fixed seed (graph shape varies with the seed too).
#[test]
fn sim_khop_matches_oracle_on_random_graphs() {
    for seed in 0..sim_seeds() {
        let r = Repro::clean(
            GraphSpec::Gnm {
                n: 18,
                m: 34,
                seed, // a new graph shape per seed
            },
            QuerySpec::Khop {
                hops: 2,
                start: seed % 18,
            },
            2,
            2,
            seed,
        );
        let verdict = check(&r);
        assert_eq!(
            verdict,
            Verdict::Match,
            "{}",
            SimFailure {
                repro: r,
                verdict: verdict.clone()
            }
        );
    }
}

/// A seeded stand-in for the proptest traverser strategy.
fn arb_traverser(r: &mut SmallRng) -> graphdance::pstm::Traverser {
    use graphdance::pstm::{Traverser, Weight};
    let locals = (0..r.gen_range(0..4usize))
        .map(|_| arb_value(r, 1))
        .collect();
    let aux_key = if r.gen_range(0..3u32) == 0 {
        Some(arb_value(r, 1))
    } else {
        None
    };
    Traverser {
        query: QueryId(r.gen()),
        pipeline: r.gen::<u32>() as u16,
        pc: r.gen::<u32>() as u16,
        vertex: VertexId(r.gen()),
        locals,
        weight: Weight(r.gen()),
        depth: r.gen::<u32>(),
        aux_key,
    }
}

/// Traverser batches through the packet codec, for 256 fixed seeds under
/// the simulation clock: every batch and the progress reports behind it
/// come back exactly, with exact per-message byte counts.
#[test]
fn batch_packet_roundtrips_256_fixed_seeds() {
    let clock = vclock::freeze_clock();
    for seed in 0..FIXED_SEEDS {
        let mut r = rng::seeded(seed ^ 0xBA7C);
        let batches: Vec<Vec<_>> = (0..r.gen_range(1..4usize))
            .map(|_| {
                (0..r.gen_range(0..6usize))
                    .map(|_| arb_traverser(&mut r))
                    .collect()
            })
            .collect();
        let mut msgs: Vec<WireMsg> = batches
            .iter()
            .enumerate()
            .map(|(i, ts)| {
                let mut run = HandOff::default();
                ts.iter().for_each(|t| run.push(t.clone()));
                WireMsg::Worker {
                    dest: WorkerId(i as u32),
                    msg: WorkerMsg::HandOff(run),
                }
            })
            .collect();
        let progress: Vec<(u64, u64, u64)> = (0..r.gen_range(0..4usize))
            .map(|_| (r.gen(), r.gen(), r.gen()))
            .collect();
        msgs.extend(progress.iter().map(|&(q, w, steps)| {
            WireMsg::Coord(CoordMsg::Progress {
                query: QueryId(q),
                weight: Weight(w),
                steps,
            })
        }));
        let mut back = packet_roundtrip(&msgs, seed).into_iter();
        assert_eq!(back.len(), msgs.len(), "seed {seed}");
        for (i, ts) in batches.iter().enumerate() {
            match back.next() {
                Some(WireMsg::Worker {
                    dest,
                    msg: WorkerMsg::HandOff(got),
                }) => assert_eq!(
                    (dest.0, &got.into_traversers()),
                    (i as u32, ts),
                    "seed {seed}"
                ),
                other => panic!("seed {seed}: unexpected {other:?}"),
            }
        }
        for (m, &(q, w, steps)) in back.zip(&progress) {
            match m {
                WireMsg::Coord(CoordMsg::Progress {
                    query,
                    weight,
                    steps: s,
                }) => assert_eq!((query.0, weight.0, s), (q, w, steps), "seed {seed}"),
                other => panic!("seed {seed}: unexpected {other:?}"),
            }
        }
        vclock::advance(std::time::Duration::from_micros(1));
    }
    drop(clock);
}
