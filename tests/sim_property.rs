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
use graphdance::common::{rng, Value, VertexId};
use graphdance::engine::codec;
use graphdance::pstm::{Weight, WeightAccumulator};
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

/// Codec round-trips must hold under the frozen simulation clock too
/// (encoding takes no time-dependent path), for each of 256 fixed seeds.
#[test]
fn codec_roundtrips_256_fixed_seeds_under_sim_clock() {
    let clock = vclock::freeze_clock();
    for seed in 0..FIXED_SEEDS {
        let mut r = rng::seeded(seed);
        for _ in 0..8 {
            let v = arb_value(&mut r, 2);
            let mut buf = bytes::BytesMut::new();
            codec::encode_value(&mut buf, &v);
            let mut wire = buf.freeze();
            let decoded = codec::decode_value(&mut wire).expect("decodes");
            assert_eq!(decoded, v, "seed {seed}");
            assert!(wire.is_empty(), "trailing bytes at seed {seed}");
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
        query: graphdance::common::QueryId(r.gen()),
        pipeline: r.gen::<u32>() as u16,
        pc: r.gen::<u32>() as u16,
        vertex: VertexId(r.gen()),
        locals,
        weight: Weight(r.gen()),
        depth: r.gen::<u32>(),
        aux_key,
    }
}

/// Zero-copy batch codec vs. the legacy path, for 256 fixed seeds under
/// the simulation clock: identical bytes, identical decodes, exact
/// trailer accounting.
#[test]
fn zero_copy_batch_equals_legacy_256_fixed_seeds() {
    use graphdance::engine::codec::ProgressEntry;
    use graphdance::pstm::Weight;
    let clock = vclock::freeze_clock();
    for seed in 0..FIXED_SEEDS {
        let mut r = rng::seeded(seed ^ 0xBA7C);
        let ts: Vec<_> = (0..r.gen_range(0..6usize))
            .map(|_| arb_traverser(&mut r))
            .collect();
        let legacy = codec::encode_batch(&ts);
        let mut frame = Vec::new();
        codec::encode_batch_into(&mut frame, &ts, &[]);
        assert_eq!(&frame[..], &legacy[..], "encoders diverged at seed {seed}");
        let (got, progress) = codec::decode_batch_borrowed(&frame).expect("decodes");
        assert_eq!(got, ts, "seed {seed}");
        assert!(progress.is_empty(), "seed {seed}");
        // With a trailer, both decode paths agree.
        let ps: Vec<ProgressEntry> = (0..r.gen_range(1..4usize))
            .map(|_| ProgressEntry {
                query: graphdance::common::QueryId(r.gen()),
                weight: Weight(r.gen()),
                steps: r.gen(),
            })
            .collect();
        frame.clear();
        codec::encode_batch_into(&mut frame, &ts, &ps);
        let (bt, bp) = codec::decode_batch_borrowed(&frame).expect("decodes");
        let (ft, fp) =
            codec::decode_batch_full(bytes::Bytes::from(frame.clone())).expect("decodes");
        assert_eq!(
            (bt, bp),
            (ft.clone(), fp.clone()),
            "decode paths split at seed {seed}"
        );
        assert_eq!((ft, fp), (ts, ps), "round-trip at seed {seed}");
        vclock::advance(std::time::Duration::from_micros(1));
    }
    drop(clock);
}

/// Pooled frames never alias a live lease: for 256 fixed seeds, frames
/// checked out together are distinct allocations, a recycled frame only
/// reappears after its `put`, and the stats stay conserved.
#[test]
fn pooled_buffers_never_alias_live_frames_256_fixed_seeds() {
    use graphdance::engine::BytesPool;
    for seed in 0..FIXED_SEEDS {
        let mut r = rng::seeded(seed ^ 0x9001);
        let pool = BytesPool::new();
        let mut live: Vec<Vec<u8>> = Vec::new();
        for step in 0..64u64 {
            if live.is_empty() || r.gen_range(0..2u32) == 0 {
                let mut f = pool.get();
                assert!(f.is_empty(), "leased frame carries stale bytes");
                f.extend_from_slice(&step.to_le_bytes());
                // No two live leases share an allocation.
                let p = f.as_ptr();
                assert!(
                    live.iter().all(|l| l.as_ptr() != p),
                    "aliased live frame at seed {seed} step {step}"
                );
                live.push(f);
            } else {
                let i = r.gen_range(0..live.len());
                pool.put(live.swap_remove(i));
            }
        }
        let stats = pool.stats();
        assert_eq!(
            stats.outstanding,
            live.len(),
            "lease accounting at seed {seed}"
        );
        assert!(
            stats.high_water as u64 <= stats.allocated,
            "high-water above allocations at seed {seed}: {stats:?}"
        );
        for f in live.drain(..) {
            pool.put(f);
        }
        assert_eq!(pool.stats().outstanding, 0, "all returned at seed {seed}");
    }
}

/// The pool's high-water mark stays bounded across a sim seed sweep: the
/// simulated cluster is 2×2, so in-flight frames are bounded by lanes ×
/// packets-in-flight, not by traffic volume.
#[test]
fn pool_high_water_is_bounded_under_sim_sweep() {
    use graphdance::engine::{EngineConfig, SimCluster};
    for seed in 0..sim_seeds() {
        let spec = GraphSpec::Ring { n: 24 };
        let graph = spec.build(2, 2);
        let (plan, params) = QuerySpec::Khop { hops: 4, start: 0 }.build(&graph);
        let config = EngineConfig::new(2, 2).with_seed(seed);
        let mut sim = SimCluster::new(graph, config);
        sim.query(&plan, params).expect("clean run");
        let ps = sim.fabric().pool_stats();
        assert_eq!(ps.outstanding, 0, "frames leaked at seed {seed}: {ps:?}");
        assert!(
            ps.high_water <= 32,
            "pool high-water unbounded at seed {seed}: {ps:?}"
        );
    }
}
