//! Property-based integration tests across crates: the wire packet codec
//! over arbitrary value trees and traverser batches, TEL visibility against
//! a naive multi-version oracle, and distributed k-hop answers against a
//! BFS oracle on random graphs.

use proptest::prelude::*;

use graphdance::common::{Partitioner, QueryId, Value, VertexId, WorkerId};
use graphdance::engine::codec::{self, ProgressEntry};
use graphdance::engine::messages::{CoordMsg, WorkerMsg};
use graphdance::engine::net::WireMsg;
use graphdance::engine::wire::{self, Wire};
use graphdance::engine::{EngineConfig, GraphDance};
use graphdance::pstm::{Traverser, Weight};
use graphdance::query::expr::Expr;
use graphdance::query::QueryBuilder;
use graphdance::storage::{Direction, GraphBuilder, TelList, TS_LIVE};
use graphdance_common::{EdgeId, Label};

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("finite floats", |f| f.is_finite())
            .prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(|s| Value::str(&s)),
        any::<u64>().prop_map(|v| Value::Vertex(VertexId(v))),
    ];
    leaf.prop_recursive(2, 12, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::list)
    })
}

fn arb_traverser() -> impl Strategy<Value = Traverser> {
    (
        any::<u64>(),
        any::<u16>(),
        any::<u16>(),
        any::<u64>(),
        prop::collection::vec(arb_value(), 0..4),
        any::<u64>(),
        any::<u32>(),
        prop::option::of(arb_value()),
    )
        .prop_map(
            |(query, pipeline, pc, vertex, locals, weight, depth, aux_key)| Traverser {
                query: QueryId(query),
                pipeline,
                pc,
                vertex: VertexId(vertex),
                locals,
                weight: Weight(weight),
                depth,
                aux_key,
            },
        )
}

fn arb_progress() -> impl Strategy<Value = ProgressEntry> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(q, w, s)| ProgressEntry {
        query: QueryId(q),
        weight: Weight(w),
        steps: s,
    })
}

/// One packet through `wire::encode_packet` → `wire::decode_packet`: the
/// body is exactly the `u32` count plus each message's `encoded_len`, and
/// every message comes back with exactly its own bytes.
fn packet_roundtrip(msgs: &[WireMsg]) -> Vec<WireMsg> {
    let mut body = Vec::new();
    wire::encode_packet(&mut body, msgs).expect("encodes");
    let lens: Vec<usize> = msgs.iter().map(wire::encoded_len).collect();
    assert_eq!(
        body.len(),
        4 + lens.iter().sum::<usize>(),
        "encoded_len drifted"
    );
    let back = wire::decode_packet(&body).expect("decodes");
    assert_eq!(back.iter().map(|(_, b)| b.len()).collect::<Vec<_>>(), lens);
    back.into_iter().map(|(m, _)| m).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Anything the engine can put in a traverser round-trips the wire.
    #[test]
    fn codec_roundtrips_arbitrary_values(v in arb_value()) {
        let msg = WireMsg::Coord(CoordMsg::Rows { query: QueryId(1), rows: vec![vec![v.clone()]] });
        match &packet_roundtrip(&[msg])[..] {
            [WireMsg::Coord(CoordMsg::Rows { rows, .. })] => prop_assert_eq!(rows, &vec![vec![v]]),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// Any traverser batch crosses a packet exactly, and its size is the
    /// message header plus each traverser's `encoded_len` — the figure the
    /// tier-1 buffer sizes it by.
    #[test]
    fn batch_packet_roundtrips_exactly(ts in prop::collection::vec(arb_traverser(), 0..8)) {
        let msg = WireMsg::Worker { dest: WorkerId(3), msg: WorkerMsg::Batch(ts.clone()) };
        let body: usize = ts.iter().map(wire::encoded_len).sum();
        prop_assert_eq!(wire::encoded_len(&msg), 1 + 4 + 1 + 4 + body);
        match &packet_roundtrip(&[msg])[..] {
            [WireMsg::Worker { dest: WorkerId(3), msg: WorkerMsg::Batch(got) }] => {
                prop_assert_eq!(got, &ts)
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// A piggybacked progress trailer rides any benchmark batch frame and
    /// comes back exactly; the traverser wire-size accounting stays exact
    /// (header + per-traverser sizes + trailer), and so does the size the
    /// I/O scheduler takes for a rows message.
    #[test]
    fn piggybacked_progress_roundtrips(
        ts in prop::collection::vec(arb_traverser(), 0..6),
        ps in prop::collection::vec(arb_progress(), 0..5),
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 0..4), 0..5),
    ) {
        let msg = WireMsg::Coord(CoordMsg::Rows { query: QueryId(7), rows });
        let mut encoded = Vec::new();
        msg.put(&mut encoded);
        prop_assert_eq!(wire::encoded_len(&msg), encoded.len());

        let mut frame = Vec::new();
        codec::encode_batch_into(&mut frame, &ts, &ps);
        let body: usize = ts.iter().map(wire::encoded_len).sum();
        prop_assert_eq!(
            frame.len(),
            4 + body + 2 + codec::PROGRESS_ENTRY_BYTES * ps.len(),
            "traverser sizes drifted from the batch frame"
        );
        let (got_ts, got_ps) = codec::decode_batch_borrowed(&frame).expect("decodes");
        prop_assert_eq!(got_ts, ts);
        prop_assert_eq!(got_ps, ps);
    }

    /// Truncating an encoded packet at any point never panics the decoder
    /// — it reports a `GdError` (the fabric routes it to the
    /// `net.decode_errors` counter).
    #[test]
    fn truncated_frames_error_instead_of_panicking(
        ts in prop::collection::vec(arb_traverser(), 1..4),
        ps in prop::collection::vec(arb_progress(), 0..3),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut msgs = vec![WireMsg::Worker { dest: WorkerId(0), msg: WorkerMsg::Batch(ts) }];
        msgs.extend(ps.iter().map(|p| {
            WireMsg::Coord(CoordMsg::Progress { query: p.query, weight: p.weight, steps: p.steps })
        }));
        let mut body = Vec::new();
        wire::encode_packet(&mut body, &msgs).expect("encodes");
        let cut = cut.index(body.len());
        prop_assert!(wire::decode_packet(&body[..cut]).is_err());
    }

    /// TEL single-scan visibility equals a naive per-version filter.
    #[test]
    fn tel_visibility_matches_naive_oracle(
        ops in prop::collection::vec((0u64..8, 1u64..50, any::<bool>()), 1..40),
        read_ts in 0u64..60,
    ) {
        let mut tel = TelList::new();
        // Naive oracle: (other, create, delete) triples.
        let mut oracle: Vec<(u64, u64, u64)> = Vec::new();
        let mut ts = 0u64;
        for (other, ts_step, is_delete) in ops {
            ts += ts_step;
            if is_delete {
                let deleted = tel.delete(Label(0), VertexId(other), ts);
                if let Some(e) = oracle
                    .iter_mut()
                    .find(|(o, _, d)| *o == other && *d == TS_LIVE)
                {
                    e.2 = ts;
                    prop_assert!(deleted);
                } else {
                    prop_assert!(!deleted);
                }
            } else {
                tel.insert(Label(0), VertexId(other), EdgeId(0), ts, vec![]);
                oracle.push((other, ts, TS_LIVE));
            }
        }
        let mut got: Vec<u64> =
            tel.scan_visible(Label(0), read_ts).map(|e| e.other.0).collect();
        let mut want: Vec<u64> = oracle
            .iter()
            .filter(|(_, c, d)| *c <= read_ts && read_ts < *d)
            .map(|(o, _, _)| *o)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    // Engine-in-the-loop cases are expensive (threads); keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Distributed 2-hop answers on random graphs match a sequential BFS.
    #[test]
    fn khop_matches_bfs_on_random_graphs(
        edges in prop::collection::vec((0u64..30, 0u64..30), 10..80),
        start in 0u64..30,
    ) {
        let mut b = GraphBuilder::new(Partitioner::new(2, 2));
        let node = b.schema_mut().register_vertex_label("N");
        let link = b.schema_mut().register_edge_label("link");
        for i in 0..30u64 {
            b.add_vertex(VertexId(i), node, vec![]).expect("fresh");
        }
        for (s, d) in &edges {
            if s != d {
                b.add_edge(VertexId(*s), link, VertexId(*d), vec![]).expect("exists");
            }
        }
        let g = b.finish();

        // Sequential oracle.
        let mut level: Vec<VertexId> = vec![VertexId(start)];
        let mut seen: std::collections::HashSet<VertexId> =
            level.iter().copied().collect();
        let mut reach = std::collections::HashSet::new();
        for _ in 0..2 {
            let mut next = Vec::new();
            for v in level {
                g.for_each_neighbor(v, Direction::Out, link, 1, |n| {
                    if seen.insert(n) {
                        reach.insert(n);
                        next.push(n);
                    }
                })
                .expect("exists");
            }
            level = next;
        }
        reach.remove(&VertexId(start));

        let mut qb = QueryBuilder::new(g.schema());
        qb.v_param(0);
        let c = qb.alloc_slot();
        let d = qb.alloc_slot();
        qb.repeat(1, 2, c, |r| {
            r.compute(d, Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))));
            r.out("link");
            r.min_dist(d);
        });
        qb.dedup();
        let plan = qb.compile().expect("compiles");
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let rows = engine.query(&plan, vec![Value::Vertex(VertexId(start))]).expect("runs");
        engine.shutdown();
        let mut got: std::collections::HashSet<VertexId> =
            rows.iter().map(|r| r[0].as_vertex().expect("vertex")).collect();
        got.remove(&VertexId(start));
        prop_assert_eq!(got, reach);
    }
}
