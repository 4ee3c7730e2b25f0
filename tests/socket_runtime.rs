//! The query lifecycle on the socket path: `NodeRuntime` is the one
//! threaded runtime, so a 2-node × 2-worker loopback mesh — two runtimes in
//! this process, over TCP and over Unix sockets — cancels, times out,
//! completes into a sink and unwinds exactly as the in-process cluster
//! does.
//!
//! After each scenario the same mesh must still be a healthy cluster: a
//! follow-up k-hop returns the oracle's rows, the scenario's traversers are
//! conserved (`MsgLedger` sent == delivered, summed across the two
//! processes' fabrics; debug builds), and once stopped no worker of either
//! process holds anything for the scenario's query or the follow-up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use graphdance::common::time::now;
use graphdance::common::{GdError, NodeId, Partitioner, QueryId, Value, VertexId};
use graphdance::engine::{
    EngineConfig, MsgLedger, NodeRuntime, ReplySink, SocketFamily, TcpTransport,
};
use graphdance::query::plan::Plan;
use graphdance::query::QueryBuilder;
use graphdance::sim::oracle_rows;
use graphdance::storage::{Graph, GraphBuilder};

const FAMILIES: [SocketFamily; 2] = [SocketFamily::Tcp, SocketFamily::Unix];
const WAIT: Duration = Duration::from_secs(30);
/// The static graph's snapshot.
const READ_TS: u64 = 1;

/// 64 vertices, each knowing the next 8 around the ring, hashed over 2 × 2
/// partitions: `hog_plan`'s fan-out is 8^8 paths — work that outlives any
/// test unless it is cancelled — while a deduplicated k-hop stays small.
fn chord_graph() -> Graph {
    let mut b = GraphBuilder::new(Partitioner::new(2, 2));
    let person = b.schema_mut().register_vertex_label("Person");
    let knows = b.schema_mut().register_edge_label("knows");
    for i in 0..64 {
        b.add_vertex(VertexId(i), person, vec![]).expect("fresh id");
    }
    for i in 0..64 {
        for d in 1..=8 {
            b.add_edge(VertexId(i), knows, VertexId((i + d) % 64), vec![])
                .expect("valid endpoints");
        }
    }
    b.finish()
}

fn khop(graph: &Graph, hops: i64, count: bool) -> Plan {
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0);
    let c = b.alloc_slot();
    b.repeat(1, hops, c, |r| {
        r.out("knows");
    });
    if count {
        b.count();
    } else {
        b.dedup();
    }
    b.compile().expect("khop compiles")
}

/// Counts all 8^8 paths from `$0`, through every partition.
fn hog_plan(graph: &Graph) -> Plan {
    khop(graph, 8, true)
}

fn start() -> Vec<Value> {
    vec![Value::Vertex(VertexId(0))]
}

fn normalized(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = now() + WAIT;
    while !cond() {
        assert!(now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Two `NodeRuntime`s in this process, meshed over loopback sockets.
struct Mesh {
    graph: Graph,
    head: NodeRuntime,
    follower: NodeRuntime,
    transports: Vec<Arc<TcpTransport>>,
}

impl Mesh {
    fn start(family: SocketFamily) -> Mesh {
        let graph = chord_graph();
        let transports = TcpTransport::loopback_mesh(2, family).expect("bind mesh");
        // The head dials node 1 inside start(); bring node 1 up on its own
        // thread so both sides of the mesh come up at once.
        let (g1, t1) = (graph.clone(), Arc::clone(&transports[1]));
        let follower = std::thread::spawn(move || {
            NodeRuntime::start(g1, EngineConfig::new(2, 2), NodeId(1), t1)
        });
        let head = NodeRuntime::start(
            graph.clone(),
            EngineConfig::new(2, 2),
            NodeId(0),
            Arc::clone(&transports[0]) as _,
        );
        let follower = follower.join().expect("follower starts");
        assert!(head.is_head() && !follower.is_head());
        Mesh {
            graph,
            head,
            follower,
            transports,
        }
    }

    /// Frames the head has read off its sockets so far.
    fn frames_in(&self) -> u64 {
        self.transports[0].stats().frames_recv
    }

    /// The health check every scenario ends with, `scenario` being the
    /// query it ran: see the module docs.
    fn settle_and_stop(self, scenario: QueryId) {
        // A deduplicated 3-hop reaches 24 vertices across all four
        // partitions: the mesh still computes.
        let plan = khop(&self.graph, 3, false);
        let follow_up = self.head.submit_at(&plan, start(), READ_TS);
        let follow_up_id = follow_up.id();
        let got = follow_up.wait_timeout(WAIT).expect("follow-up query").rows;
        let want = oracle_rows(&self.graph, &plan, &start(), READ_TS, 7).expect("oracle");
        assert_eq!(normalized(&got), normalized(&want), "follow-up rows");
        assert_eq!(got.len(), 24);

        // Barriers: a scan count reaches every worker, and a worker reports
        // it only with everything it buffered before on its way (the
        // coordinator's lane is flushed last; lanes are FIFO). A query's
        // `QueryEnd` spreads along its introductions, at least one hop per
        // barrier, and no chain of introductions is longer than the
        // topology has workers: one barrier more than that, and every
        // worker has handled the `QueryEnd`s of the two queries before,
        // and the stragglers those queries still had on the wire were
        // delivered.
        let mut b = QueryBuilder::new(self.graph.schema());
        b.v().has_label("Person").count();
        let scan = b.compile().expect("scan");
        for _ in 0..=self.graph.partitioner().num_parts() {
            let barrier = self.head.submit_at(&scan, vec![], READ_TS);
            let rows = barrier.wait_timeout(WAIT).expect("barrier query").rows;
            assert_eq!(rows, vec![vec![Value::Int(64)]]);
        }

        if MsgLedger::ENABLED {
            for q in [scenario, follow_up_id] {
                let (mut sent, mut delivered) = (0, 0);
                for rt in [&self.head, &self.follower] {
                    let c = rt.fabric().invariants().counts(q);
                    sent += c.sent;
                    delivered += c.delivered;
                }
                assert_eq!(sent, delivered, "{q:?}: summed ledgers must balance");
                assert!(sent > 0 || q == scenario, "the follow-up crossed workers");
            }
        }
        for rt in [&self.head, &self.follower] {
            assert_eq!(rt.net_stats().decode_errors, 0);
        }

        // Both sides must stop for the mesh to unwind: signal both, then
        // join both.
        let mut workers = self.head.retire_workers();
        workers.extend(self.follower.retire_workers());
        assert_eq!(workers.len(), 4, "two workers a process");
        for w in &workers {
            for q in [scenario, follow_up_id] {
                assert!(!w.holds(q), "worker {:?} still holds {q:?}", w.id());
            }
        }
        let f = std::thread::spawn(move || self.follower.shutdown());
        self.head.shutdown();
        f.join().expect("follower shutdown");
    }
}

#[test]
fn cancel_mid_flight_resolves_cancelled_and_drains_both_processes() {
    for family in FAMILIES {
        let mesh = Mesh::start(family);
        let before = mesh.frames_in();
        let hog = mesh
            .head
            .submit_at(&hog_plan(&mesh.graph), start(), READ_TS);
        let id = hog.id();
        wait_until(
            || mesh.frames_in() > before,
            "the hog's traffic to come back over the socket",
        );
        mesh.head.cancel(id);
        match hog.wait_timeout(WAIT) {
            Err(GdError::QueryCancelled(q)) => assert_eq!(q, id),
            other => panic!("[{family:?}] expected QueryCancelled, got {other:?}"),
        }
        mesh.head.cancel(id); // idempotent, and a no-op once resolved
        mesh.settle_and_stop(id);
    }
}

#[test]
fn deadlines_resolve_query_timeout_and_drain_both_processes() {
    for family in FAMILIES {
        let mesh = Mesh::start(family);
        let plan = hog_plan(&mesh.graph);
        // Already expired at submission: rejected without running.
        let expired = now().checked_sub(Duration::from_millis(1));
        assert!(expired.is_some(), "the process is older than a millisecond");
        let doomed = mesh
            .head
            .submit_with_deadline(&plan, start(), READ_TS, expired);
        match doomed.wait_timeout(WAIT) {
            Err(GdError::QueryTimeout(_)) => {}
            other => panic!("[{family:?}] expired deadline: got {other:?}"),
        }
        // 1 ms: expires mid-flight, with traversers on both processes.
        let soon = Some(now() + Duration::from_millis(1));
        let hog = mesh
            .head
            .submit_with_deadline(&plan, start(), READ_TS, soon);
        let id = hog.id();
        match hog.wait_timeout(WAIT) {
            Err(GdError::QueryTimeout(q)) => assert_eq!(q, id),
            other => panic!("[{family:?}] 1 ms deadline: got {other:?}"),
        }
        mesh.settle_and_stop(id);
    }
}

/// The sink runs exactly once, on a thread of the head: one of its
/// workers, its socket reader, its coordinator timer, or this thread
/// driving the coordinator after the submit — never a follower's.
#[test]
fn submit_sink_runs_its_sink_exactly_once_in_the_head_process() {
    let here = std::thread::current().name().map(str::to_owned);
    let on_head = |thread: &Option<String>| {
        thread == &here
            || matches!(
                thread.as_deref(),
                Some("gd-worker-0" | "gd-worker-1" | "gd-tcp-read-0" | "gd-coord-timer")
            )
    };
    for family in FAMILIES {
        let mesh = Mesh::start(family);
        let plan = khop(&mesh.graph, 2, false);
        let runs = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let sink = {
            let runs = Arc::clone(&runs);
            ReplySink::new(move |result| {
                runs.fetch_add(1, Ordering::SeqCst);
                let thread = std::thread::current().name().map(str::to_owned);
                let _ = tx.send((thread, result));
            })
        };
        let id = mesh
            .head
            .submit_sink(plan.clone(), start(), READ_TS, None, sink)
            .unwrap_or_else(|_| panic!("[{family:?}] a live head takes the sink"));
        // `submit_sink` only enqueues; its caller runs the coordinator.
        mesh.head.fabric().drive_coordinator();
        let (thread, result) = rx.recv_timeout(WAIT).expect("sink ran");
        assert!(on_head(&thread), "[{family:?}] sink ran on {thread:?}");
        let result = result.expect("2-hop completes");
        assert_eq!(result.query, id);
        let want = oracle_rows(&mesh.graph, &plan, &start(), READ_TS, 7).expect("oracle");
        assert_eq!(normalized(&result.rows), normalized(&want));
        let before = mesh.transports[0].stats();
        assert!(before.frames_sent > 0 && before.frames_recv > 0);
        assert!(
            before.write_syscalls >= before.frames_sent,
            "one write_all per combined packet"
        );
        mesh.settle_and_stop(id);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly once");
    }
}

/// Follower processes refuse submissions instead of wedging, whichever
/// door they come through: the handle resolves, and the sink is run, at
/// once and with the same `InvalidProgram`.
#[test]
fn follower_submission_fails_fast() {
    let mesh = Mesh::start(SocketFamily::Tcp);
    let plan = khop(&mesh.graph, 1, false);
    let refused = |r: Result<_, GdError>| match r {
        Err(GdError::InvalidProgram(_)) => {}
        other => panic!("expected InvalidProgram, got {:?}", other.map(|_| ())),
    };
    refused(mesh.follower.submit_at(&plan, start(), READ_TS).wait());
    let soon = Some(now() + Duration::from_secs(1));
    refused(
        mesh.follower
            .submit_with_deadline(&plan, start(), READ_TS, soon)
            .wait(),
    );
    let seen = Arc::new(Mutex::new(None));
    let sink = {
        let seen = Arc::clone(&seen);
        ReplySink::new(move |result| *seen.lock().unwrap() = Some(result))
    };
    let accepted = mesh
        .follower
        .submit_sink(plan.clone(), start(), READ_TS, None, sink);
    assert!(accepted.is_ok(), "the sink was run, not handed back");
    let result = seen.lock().unwrap().take().expect("run before returning");
    refused(result);
    // A cancel aimed at a follower goes nowhere, quietly.
    mesh.follower.cancel(QueryId(1));
    // The head is untouched by any of it.
    let id = mesh.head.submit_at(&plan, start(), READ_TS);
    let scenario = id.id();
    assert_eq!(id.wait_timeout(WAIT).expect("1-hop").rows.len(), 8);
    mesh.settle_and_stop(scenario);
}

/// A head dropped without `shutdown()` — any panicking test — must not
/// hold its peer's shutdown up: `Drop` sends the stop signals, so the
/// head's pump still writes GOODBYE. (At the parent commit the head's
/// workers stayed parked on their inboxes, kept alive by the fabric they
/// themselves held, and the follower's `shutdown()` blocked for good.)
#[test]
fn dropping_the_head_without_shutdown_lets_the_follower_stop() {
    for family in FAMILIES {
        let Mesh {
            graph,
            head,
            follower,
            ..
        } = Mesh::start(family);
        let rows = head
            .submit_at(&khop(&graph, 2, false), start(), READ_TS)
            .wait_timeout(WAIT)
            .expect("2-hop")
            .rows;
        assert_eq!(rows.len(), 16);
        drop(head);
        // On a helper thread, so a regression fails typed instead of
        // hanging the suite.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            follower.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5)).unwrap_or_else(|_| {
            panic!("[{family:?}] follower shutdown hung behind a dropped head")
        });
    }
}
