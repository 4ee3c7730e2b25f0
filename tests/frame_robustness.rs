//! Frame-codec robustness: the socket transport's length-prefixed framing
//! must tolerate an adversarial byte stream without ever panicking.
//!
//! Deterministic fuzz over **256 fixed seeds** (`graphdance_common::rng`),
//! so every CI run explores the identical corpus:
//!
//! * **chopper** — a valid multi-frame stream delivered in random-size
//!   chunks (1-byte reads, frames coalesced, frames split anywhere) must
//!   reassemble to exactly the original frame sequence;
//! * **truncation** — any strict prefix of a valid stream yields a prefix
//!   of the frame sequence and then `Ok(None)`, never an error or panic
//!   (a prefix of valid bytes cannot manufacture a corrupt length);
//! * **corruption** — a single flipped byte may produce a decode error or
//!   a (differently-framed) frame sequence, but never a panic and never
//!   an allocation beyond [`MAX_FRAME_BYTES`];
//! * **hostile prefixes** — zero/oversized lengths, unknown kinds, and
//!   malformed HELLO/GOODBYE bodies are typed `GdError`s;
//! * **hand-off runs** — a seeded traverser run, siblings sharing records,
//!   crosses a chopped stream exactly; a record index past its records,
//!   or a record named by two queries' traversers, is a typed error; a
//!   flipped byte in it never panics the decoder.
//!
//! The end-to-end half feeds a real `TcpTransport` reader garbage over a
//! live socket and asserts the fabric counts it in `net.decode_errors`
//! (and keeps the typed error for diagnostics) instead of crashing — the
//! garbage includes a packet nested too deep to decode, which must leave
//! the stream delivering the packet after it — and
//! a well-formed frame whose traversers carry hostile *depths*
//! (`u32::MAX`, just past the run queue's dense bound), which a worker
//! must queue and run like any other — and well-framed runs with a record
//! index out of range, a record shared by two queries or a register file
//! nested too deep, each one counted decode error that delivers nothing.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use graphdance::common::rng::seeded;
use graphdance::common::NodeId;
use graphdance::engine::transport::{
    encode_frame, Frame, Reassembler, FRAME_GOODBYE, FRAME_HELLO, FRAME_PACKET, MAX_FRAME_BYTES,
};
use graphdance::engine::{
    EngineConfig, Fabric, PeerAddr, SocketFamily, TcpTransport, TcpTransportConfig,
};
use rand::Rng;

/// Build a valid stream: HELLO, `n` PACKET frames with seeded bodies,
/// GOODBYE. Returns the bytes and the expected frame sequence.
fn valid_stream(rng: &mut impl Rng, packets: usize) -> (Vec<u8>, Vec<Frame>) {
    let mut bytes = Vec::new();
    let mut frames = Vec::new();
    let node = rng.gen_range(0..4u32);
    encode_frame(&mut bytes, FRAME_HELLO, &node.to_le_bytes());
    frames.push(Frame::Hello { node: NodeId(node) });
    for _ in 0..packets {
        let len = rng.gen_range(0..200usize);
        let body: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        encode_frame(&mut bytes, FRAME_PACKET, &body);
        frames.push(Frame::Packet(body));
    }
    encode_frame(&mut bytes, FRAME_GOODBYE, &[]);
    frames.push(Frame::Goodbye);
    (bytes, frames)
}

/// Drain every complete frame currently reassemblable.
fn drain(asm: &mut Reassembler) -> Result<Vec<Frame>, graphdance::common::GdError> {
    let mut out = Vec::new();
    while let Some(f) = asm.pop()? {
        out.push(f);
    }
    Ok(out)
}

#[test]
fn chopper_reassembles_any_byte_split_256_seeds() {
    for seed in 0..256u64 {
        let mut rng = seeded(seed);
        let packets = rng.gen_range(1..8);
        let (bytes, want) = valid_stream(&mut rng, packets);
        let mut asm = Reassembler::new();
        let mut got = Vec::new();
        let mut off = 0;
        while off < bytes.len() {
            let chunk = rng.gen_range(1..=16usize).min(bytes.len() - off);
            asm.push(&bytes[off..off + chunk]);
            off += chunk;
            got.extend(drain(&mut asm).unwrap_or_else(|e| panic!("seed {seed}: {e:?}")));
        }
        assert_eq!(got, want, "seed {seed}: chopped stream must reassemble");
        assert_eq!(asm.pending(), 0, "seed {seed}: no stray bytes");
    }
}

#[test]
fn truncation_yields_clean_prefix_256_seeds() {
    for seed in 0..256u64 {
        let mut rng = seeded(seed);
        let packets = rng.gen_range(1..6);
        let (bytes, want) = valid_stream(&mut rng, packets);
        let cut = rng.gen_range(0..bytes.len());
        let mut asm = Reassembler::new();
        asm.push(&bytes[..cut]);
        let got = drain(&mut asm)
            .unwrap_or_else(|e| panic!("seed {seed}: truncation produced error {e:?}"));
        assert!(
            got.len() <= want.len() && got == want[..got.len()],
            "seed {seed}: truncated stream must yield a frame-sequence prefix"
        );
    }
}

#[test]
fn single_byte_corruption_never_panics_256_seeds() {
    for seed in 0..256u64 {
        let mut rng = seeded(seed);
        let packets = rng.gen_range(1..6);
        let (mut bytes, _) = valid_stream(&mut rng, packets);
        let victim = rng.gen_range(0..bytes.len());
        let flip = rng.gen_range(1..=255u8);
        bytes[victim] ^= flip;
        let mut asm = Reassembler::new();
        // Feed in chunks so mid-frame corruption also crosses read calls.
        for chunk in bytes.chunks(rng.gen_range(1..64)) {
            asm.push(chunk);
            match drain(&mut asm) {
                Ok(frames) => {
                    for f in &frames {
                        if let Frame::Packet(b) = f {
                            assert!(b.len() <= MAX_FRAME_BYTES, "seed {seed}: oversized body");
                        }
                    }
                }
                Err(_) => break, // typed error: the stream is dead, as designed
            }
        }
    }
}

#[test]
fn hostile_length_prefixes_are_typed_errors() {
    // Zero length: the kind byte cannot exist.
    let mut asm = Reassembler::new();
    asm.push(&0u32.to_le_bytes());
    assert!(asm.pop().is_err(), "zero length must be rejected");

    // Oversized length: reject before allocating.
    let mut asm = Reassembler::new();
    asm.push(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes());
    assert!(asm.pop().is_err(), "oversized length must be rejected");

    // Unknown kind.
    let mut asm = Reassembler::new();
    asm.push(&2u32.to_le_bytes());
    asm.push(&[99, 0]);
    assert!(asm.pop().is_err(), "unknown kind must be rejected");

    // HELLO with a short body.
    let mut asm = Reassembler::new();
    let mut bytes = Vec::new();
    encode_frame(&mut bytes, FRAME_HELLO, &[1, 2]);
    asm.push(&bytes);
    assert!(asm.pop().is_err(), "malformed HELLO must be rejected");

    // GOODBYE with a payload.
    let mut asm = Reassembler::new();
    let mut bytes = Vec::new();
    encode_frame(&mut bytes, FRAME_GOODBYE, &[7]);
    asm.push(&bytes);
    assert!(asm.pop().is_err(), "malformed GOODBYE must be rejected");
}

/// End-to-end: a live `TcpTransport` reader fed garbage over a real socket
/// surfaces `net.decode_errors` on the fabric — no panic, no crash, and
/// the typed error is retained for diagnostics. The first garbage is a
/// ~100 KB packet whose one row value is a list nested 20 000 deep — far
/// under [`MAX_FRAME_BYTES`] — which once overflowed the reader thread's
/// 2 MiB stack and aborted the node: the decoder's nesting budget makes it
/// one counted error, and the packet after it on the same stream is still
/// delivered.
#[test]
fn garbage_over_live_socket_counts_decode_errors() {
    use graphdance::common::{QueryId, WorkerId};
    use graphdance::engine::messages::WorkerMsg;
    use graphdance::engine::net::WireMsg;
    use graphdance::engine::wire;

    // Fake node 1: a plain listener that accepts node 0's outbound dial
    // but never speaks the protocol.
    let fake_peer = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = fake_peer.local_addr().expect("fake peer addr");

    let t0 = TcpTransport::bind(TcpTransportConfig::new(
        NodeId(0),
        vec![
            PeerAddr::Tcp("127.0.0.1:0".into()),
            PeerAddr::Tcp(fake_addr.to_string()),
        ],
    ))
    .expect("bind transport");
    let t0_addr = match t0.local_addr() {
        PeerAddr::Tcp(a) => a.clone(),
        other => panic!("expected tcp addr, got {other}"),
    };

    let config = EngineConfig::new(2, 2);
    let (wtx, wrx) = (0..4).map(|_| unbounded()).unzip::<_, _, Vec<_>, Vec<_>>();
    let (ctx, _crx) = unbounded();
    let (fabric, threads) =
        Fabric::new_with_transport(&config, NodeId(0), wtx, ctx, Arc::clone(&t0) as Arc<_>);

    // One `CoordMsg::Rows` packet, written byte by byte: its single value
    // is 20 000 nested one-element lists around a `Null`.
    let mut deep = Vec::new();
    deep.extend_from_slice(&1u32.to_le_bytes()); // one message
    deep.extend_from_slice(&[1, 3]); // for the coordinator: Rows
    deep.extend_from_slice(&7u64.to_le_bytes()); // query
    deep.extend_from_slice(&1u32.to_le_bytes()); // one row
    deep.extend_from_slice(&1u32.to_le_bytes()); // of one value
    for _ in 0..20_000 {
        deep.push(7); // List
        deep.extend_from_slice(&1u32.to_le_bytes());
    }
    deep.push(0); // Null
    assert_eq!(deep.len(), 100_023);
    let mut valid = Vec::new();
    let cancel = WorkerMsg::CancelQuery { query: QueryId(5) };
    let msg = WireMsg::Worker {
        dest: WorkerId(0),
        msg: cancel,
    };
    wire::encode_packet(&mut valid, &[msg]).expect("encodes");

    // Impersonate node 1: introduce ourselves properly, send the deep
    // packet and a valid one behind it, then a well-framed PACKET whose
    // body is not a decodable wire packet, followed by a corrupt length
    // prefix.
    let mut sock = std::net::TcpStream::connect(&t0_addr).expect("connect to node 0");
    let mut bytes = Vec::new();
    encode_frame(&mut bytes, FRAME_HELLO, &1u32.to_le_bytes());
    encode_frame(&mut bytes, FRAME_PACKET, &deep);
    encode_frame(&mut bytes, FRAME_PACKET, &valid);
    sock.write_all(&bytes).expect("write the deep packet");
    match wrx[0].recv_timeout(Duration::from_secs(5)) {
        Ok(WorkerMsg::CancelQuery { query }) => assert_eq!(query, QueryId(5)),
        other => panic!("the packet after the deep one never arrived: {other:?}"),
    }
    assert_eq!(fabric.stats().snapshot().decode_errors, 1);
    let err = fabric
        .take_decode_error()
        .expect("typed decode error retained");
    assert!(err.to_string().contains("nesting"), "{err}");

    bytes.clear();
    encode_frame(&mut bytes, FRAME_PACKET, &[0xFF; 48]); // undecodable body
    bytes.extend_from_slice(&0u32.to_le_bytes()); // corrupt frame length
    sock.write_all(&bytes).expect("write garbage");
    sock.flush().expect("flush garbage");

    // Every error must be counted: two packet-decode, one framing.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = fabric.stats().snapshot().decode_errors;
        if n >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "decode errors never surfaced (saw {n})"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        fabric.take_decode_error().is_some(),
        "typed decode error retained"
    );

    drop(sock);
    fabric.shutdown();
    for h in threads {
        h.join()
            .expect("transport threads exit despite garbage peer");
    }
    drop(fake_peer);
}

/// End-to-end: a frame is well-formed yet hostile when a traverser in it
/// carries an absurd depth — the codec passes any `u32` through. Such a
/// frame crosses a live socket, and the worker on the far side queues the
/// traversers and runs them to idle. Its run queue is indexed by depth:
/// sizing anything by `u32::MAX` (a 64 GiB bucket vector) would abort this
/// process. (The queue's own unit tests bound the storage exactly.)
#[test]
fn hostile_depths_over_live_socket_are_queued_and_run() {
    use graphdance::common::{Partitioner, QueryId, Value, VertexId, WorkerId};
    use graphdance::engine::messages::{QueryCtx, WorkerMsg};
    use graphdance::engine::worker::Worker;
    use graphdance::engine::PumpStatus;
    use graphdance::pstm::{Traverser, Weight};
    use graphdance::query::QueryBuilder;
    use graphdance::storage::GraphBuilder;

    let config = EngineConfig::new(2, 1);
    let mut b = GraphBuilder::new(Partitioner::new(2, 1));
    let n = b.schema_mut().register_vertex_label("N");
    let e = b.schema_mut().register_edge_label("e");
    for v in 0..4 {
        b.add_vertex(VertexId(v), n, vec![]).expect("vertex");
    }
    for v in 0..4 {
        b.add_edge(VertexId(v), e, VertexId((v + 1) % 4), vec![])
            .expect("edge");
    }
    let graph = b.finish();
    let owner = graph.partitioner().worker_of(VertexId(0));
    let sender = NodeId(1 - owner.0);

    // Two fabrics meshed over loopback TCP, no worker threads: the test
    // holds the inboxes.
    let transports = TcpTransport::loopback_mesh(2, SocketFamily::Tcp).expect("bind");
    let mut fabrics = Vec::new();
    let mut inboxes = Vec::new();
    let mut threads = Vec::new();
    let mut coord_rx = Vec::new();
    for (i, t) in transports.into_iter().enumerate() {
        let (wtx, wrx) = (0..2).map(|_| unbounded()).unzip::<_, _, Vec<_>, Vec<_>>();
        let (ctx, crx) = unbounded();
        let (fabric, mut handles) =
            Fabric::new_with_transport(&config, NodeId(i as u32), wtx, ctx, t);
        fabrics.push(fabric);
        inboxes.push(wrx);
        coord_rx.push(crx);
        threads.append(&mut handles);
    }

    let deep = |depth: u32| Traverser {
        depth,
        ..Traverser::root(QueryId(9), 0, VertexId(0), 0, Weight(depth as u64))
    };
    let depths = [u32::MAX, 65, 1 << 20, 2];
    let mut outbox = fabrics[sender.0 as usize].outbox(sender);
    for d in depths {
        outbox.send_traverser(owner, deep(d));
    }
    outbox.flush_all();
    let arrived = inboxes[owner.0 as usize][owner.0 as usize]
        .recv_timeout(Duration::from_secs(5))
        .expect("the frame crosses the socket");
    match &arrived {
        WorkerMsg::HandOff(run) => assert_eq!(
            run.traversers.iter().map(|t| t.depth).collect::<Vec<_>>(),
            depths,
            "the codec carries any depth through"
        ),
        other => panic!("expected the traverser batch, got {other:?}"),
    }

    // Hand the decoded batch to a real worker for that partition.
    let (tx, rx) = unbounded();
    let fabric = &fabrics[owner.0 as usize];
    let mut worker = Worker::new(WorkerId(owner.0), graph.clone(), fabric, rx, &config);
    let mut qb = QueryBuilder::new(graph.schema());
    qb.v_param(0).out("e");
    let ctx = Arc::new(QueryCtx {
        query: QueryId(9),
        plan: qb.compile().expect("plan"),
        params: vec![Value::Vertex(VertexId(0))],
        read_ts: 1,
    });
    tx.send(WorkerMsg::QueryBegin {
        ctx,
        stage: 0,
        from: None,
    })
    .expect("inbox");
    tx.send(arrived).expect("inbox");
    let mut quanta = 0;
    while worker.pump() != PumpStatus::Idle {
        quanta += 1;
        assert!(quanta < 1_000, "the worker never went idle");
    }
    assert!(quanta >= 1, "the worker ran the traversers");
    for f in &fabrics {
        assert_eq!(f.stats().snapshot().decode_errors, 0);
    }

    drop(worker);
    for f in &fabrics {
        f.shutdown();
    }
    for h in threads {
        h.join().expect("transport threads exit");
    }
}

/// Deterministic fuzz over 256 seeded traverser runs whose siblings share
/// records: each crosses a chopped frame stream and decodes back exactly;
/// the same body with its last record index pointed past the run's
/// records fails with a typed error, and pointed at the first record it
/// fails too unless both traversers are of one query; and a single flipped
/// byte anywhere in it decodes or fails typed, never panicking.
#[test]
fn hand_off_bodies_decode_or_fail_typed_256_seeds() {
    use graphdance::common::{QueryId, Value, VertexId, WorkerId};
    use graphdance::engine::messages::WorkerMsg;
    use graphdance::engine::net::WireMsg;
    use graphdance::engine::wire;
    use graphdance::pstm::{ArenaTraverser, HandOff, Traverser, Weight};

    for seed in 0..256u64 {
        let mut rng = seeded(seed ^ 0x4A4D);
        let (mut run, mut want) = (HandOff::default(), Vec::new());
        for _ in 0..rng.gen_range(1..6) {
            let mut t = Traverser::root(QueryId(rng.gen()), 0, VertexId(rng.gen()), 2, Weight(1));
            t.locals = (0..rng.gen_range(0..4))
                .map(|_| Value::Int(rng.gen::<u32>() as i64))
                .collect();
            want.push(t.clone());
            run.push(t);
            let record = run.records.len() as u32 - 1;
            for _ in 0..rng.gen_range(0..3) {
                let vertex = VertexId(rng.gen());
                let sibling = ArenaTraverser {
                    vertex,
                    aux_key: None,
                    ..run.traversers[run.len() - 1]
                };
                run.push_indexed(sibling, record);
                want.push(Traverser {
                    vertex,
                    ..want[want.len() - 1].clone()
                });
            }
        }
        let records = run.records.len() as u32;
        let msg = WireMsg::Worker {
            dest: WorkerId(1),
            msg: WorkerMsg::HandOff(run),
        };
        let mut body = Vec::new();
        wire::encode_packet(&mut body, &[msg]).expect("encodes");

        let mut bytes = Vec::new();
        encode_frame(&mut bytes, FRAME_PACKET, &body);
        let mut asm = Reassembler::new();
        let mut framed = Vec::new();
        for chunk in bytes.chunks(rng.gen_range(1..32)) {
            asm.push(chunk);
            framed.extend(drain(&mut asm).expect("valid frames"));
        }
        let [Frame::Packet(got)] = &framed[..] else {
            panic!("seed {seed}: one packet frame, got {framed:?}");
        };
        match wire::decode_packet(got).expect("decodes").pop() {
            Some((
                WireMsg::Worker {
                    msg: WorkerMsg::HandOff(back),
                    ..
                },
                _,
            )) => assert_eq!(back.into_traversers(), want, "seed {seed}"),
            other => panic!("seed {seed}: unexpected {other:?}"),
        }

        let mut past = body.clone();
        let at = past.len() - 4;
        past[at..].copy_from_slice(&records.to_le_bytes());
        let err = wire::decode_packet(&past).expect_err("an index past the records");
        assert!(
            err.to_string().contains("hand-off record"),
            "seed {seed}: {err}"
        );

        // The last traverser pointed at the first record: another query's
        // register file unless both are the same query's.
        let mut shared = body.clone();
        shared[at..].copy_from_slice(&0u32.to_le_bytes());
        if want[want.len() - 1].query == want[0].query {
            wire::decode_packet(&shared).expect("one query's records are its own to share");
        } else {
            let err = wire::decode_packet(&shared).expect_err("a record of two queries");
            assert!(
                err.to_string().contains("shared by queries"),
                "seed {seed}: {err}"
            );
        }

        let mut flipped = body;
        let victim = rng.gen_range(0..flipped.len());
        flipped[victim] ^= rng.gen_range(1..=255u8);
        let _ = wire::decode_packet(&flipped);
    }
}

/// End-to-end: traverser runs that are well framed yet hostile — a record
/// index past the run's records, a record named by two queries'
/// traversers, a register file nested past the decoder's budget — cross a
/// live socket, and each fails its packet with a typed error counted in
/// `net.decode_errors`: nothing of it is delivered, so no importer ever
/// indexes a record out of range or interns one query's record into
/// another's table, and the packet behind it on the same stream still
/// arrives.
#[test]
fn hostile_hand_off_runs_over_live_socket_are_counted_not_delivered() {
    use graphdance::common::{QueryId, Value, VertexId, WorkerId};
    use graphdance::engine::messages::WorkerMsg;
    use graphdance::engine::net::WireMsg;
    use graphdance::engine::transport::Transport;
    use graphdance::engine::wire::{self, MAX_NESTING};
    use graphdance::pstm::{ArenaTraverser, HandOff, Traverser, Weight};

    let config = EngineConfig::new(2, 1);
    let transports = TcpTransport::loopback_mesh(2, SocketFamily::Tcp).expect("bind");
    let (mut fabrics, mut inboxes, mut threads) = (Vec::new(), Vec::new(), Vec::new());
    for (i, t) in transports.iter().enumerate() {
        let (wtx, wrx) = (0..2).map(|_| unbounded()).unzip::<_, _, Vec<_>, Vec<_>>();
        let (ctx, _crx) = unbounded();
        let (fabric, mut handles) =
            Fabric::new_with_transport(&config, NodeId(i as u32), wtx, ctx, Arc::clone(t) as _);
        fabrics.push(fabric);
        inboxes.push(wrx);
        threads.append(&mut handles);
    }
    let run_packet = |t: &Traverser| {
        let mut run = HandOff::default();
        run.push(t.clone());
        let msg = WireMsg::Worker {
            dest: WorkerId(0),
            msg: WorkerMsg::HandOff(run),
        };
        let mut body = Vec::new();
        wire::encode_packet(&mut body, &[msg]).expect("encodes");
        body
    };
    let t = Traverser::root(QueryId(3), 0, VertexId(0), 0, Weight(1));
    // The run carries one record: index 1 is past it.
    let mut past_records = run_packet(&t);
    let at = past_records.len() - 4;
    past_records[at..].copy_from_slice(&1u32.to_le_bytes());
    // Two queries' traversers naming one record: interned into the first
    // query's table, the second would refcount an unrelated file.
    let cross_query = {
        let mut run = HandOff::default();
        run.push(t.clone());
        let other = ArenaTraverser {
            query: QueryId(4),
            aux_key: None,
            ..run.traversers[0]
        };
        run.push_indexed(other, 0);
        let msg = WireMsg::Worker {
            dest: WorkerId(0),
            msg: WorkerMsg::HandOff(run),
        };
        let mut body = Vec::new();
        wire::encode_packet(&mut body, &[msg]).expect("encodes");
        body
    };
    let mut deep = Value::Null;
    for _ in 0..=MAX_NESTING {
        deep = Value::list(vec![deep]);
    }
    let too_deep = run_packet(&Traverser {
        locals: vec![deep],
        ..t.clone()
    });

    for (hostile, why, errors) in [
        (past_records, "hand-off record 1 of 1", 1),
        (too_deep, "nesting", 2),
        (cross_query, "hand-off record 0 shared by queries", 3),
    ] {
        transports[1].ship(NodeId(0), hostile);
        transports[1].ship(NodeId(0), run_packet(&t));
        match inboxes[0][0].recv_timeout(Duration::from_secs(5)) {
            Ok(WorkerMsg::HandOff(run)) => assert_eq!(run.into_traversers(), vec![t.clone()]),
            other => panic!("the packet after the hostile one never arrived: {other:?}"),
        }
        assert_eq!(fabrics[0].stats().snapshot().decode_errors, errors);
        let err = fabrics[0]
            .take_decode_error()
            .expect("typed error retained");
        assert!(err.to_string().contains(why), "{err}");
        assert!(
            inboxes.iter().flatten().all(|rx| rx.is_empty()),
            "nothing of the hostile run was delivered"
        );
    }

    for f in &fabrics {
        f.shutdown();
    }
    for h in threads {
        h.join().expect("transport threads exit");
    }
}
