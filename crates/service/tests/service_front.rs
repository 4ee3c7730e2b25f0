//! Threaded front-end integration: admission backpressure, weighted
//! dispatch, per-query deadlines, cancellation of queued and in-flight
//! work, and the admission-conservation identity
//! (`admitted == completed + cancelled + deadline_expired + in_flight`)
//! at every observable cut.
//!
//! The strict determinism story for cancellation (bit-identical replay,
//! ledger quiesce under faults) lives in the DST suite
//! (`tests/sim_service.rs` at the workspace root); these tests exercise
//! the real threaded stack with loose timing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdance_common::{GdError, Partitioner, QueryId, Value, VertexId};
use graphdance_engine::{EngineConfig, GraphDance};
use graphdance_query::plan::Plan;
use graphdance_query::QueryBuilder;
use graphdance_service::{AdmissionQueue, Priority, Service, ServiceConfig};
use graphdance_storage::{Graph, GraphBuilder};

/// `n` vertices; vertex `i` knows the next `deg` vertices around the
/// ring, so `khop-count` fan-out is `deg^hops` — an arbitrarily slow,
/// cancellable workload at small graph sizes.
fn chord_graph(n: u64, deg: u64, nodes: u32, workers: u32) -> Graph {
    let mut b = GraphBuilder::new(Partitioner::new(nodes, workers));
    let person = b.schema_mut().register_vertex_label("Person");
    let knows = b.schema_mut().register_edge_label("knows");
    for i in 0..n {
        b.add_vertex(VertexId(i), person, vec![]).expect("fresh id");
    }
    for i in 0..n {
        for d in 1..=deg {
            b.add_edge(VertexId(i), knows, VertexId((i + d) % n), vec![])
                .expect("valid endpoints");
        }
    }
    b.finish()
}

fn khop_plan(graph: &Graph, hops: i64) -> Plan {
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0);
    let c = b.alloc_slot();
    b.repeat(1, hops, c, |r| {
        r.out("knows");
    });
    b.dedup();
    b.compile().expect("khop compiles")
}

fn khopcount_plan(graph: &Graph, hops: i64) -> Plan {
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0);
    let c = b.alloc_slot();
    b.repeat(1, hops, c, |r| {
        r.out("knows");
    });
    b.count();
    b.compile().expect("khop-count compiles")
}

fn start(graph: &Graph, config: ServiceConfig) -> Service {
    let engine = GraphDance::start(graph.clone(), EngineConfig::new(1, 2));
    Service::start(engine, config)
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..5000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for: {what}");
}

const WAIT: Duration = Duration::from_secs(60);

#[test]
fn all_three_classes_complete_and_reconcile() {
    let graph = chord_graph(32, 1, 1, 2);
    let svc = start(&graph, ServiceConfig::default());
    let plan = khop_plan(&graph, 3);
    let mut tickets = Vec::new();
    for class in Priority::ALL {
        tickets.push(
            svc.submit(class, &plan, vec![Value::Vertex(VertexId(0))])
                .expect("queue has room"),
        );
    }
    for t in tickets {
        let r = t.wait_timeout(WAIT).expect("query completes");
        assert_eq!(r.rows.len(), 3, "3-hop on a plain ring reaches 3 vertices");
    }
    let s = svc.stats();
    assert_eq!((s.admitted, s.completed, s.in_flight), (3, 3, 0));
    assert!(s.reconciles(), "{s:?}");
    svc.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded() {
    let graph = chord_graph(64, 8, 1, 2);
    let svc = start(
        &graph,
        ServiceConfig::default()
            .with_capacity(2)
            .with_concurrency(1),
    );
    // Occupy the single concurrency slot with a deep fan-out count.
    let hog = svc
        .submit(
            Priority::Background,
            &khopcount_plan(&graph, 8),
            vec![Value::Vertex(VertexId(0))],
        )
        .expect("empty queue admits");
    wait_until(
        || {
            let s = svc.stats();
            s.queued == 0 && s.in_flight == 1
        },
        "hog dispatched",
    );
    // Fill the queue, then the door must shed synchronously.
    let quick = khop_plan(&graph, 1);
    let q1 = svc
        .submit(
            Priority::Interactive,
            &quick,
            vec![Value::Vertex(VertexId(1))],
        )
        .expect("slot 1");
    let q2 = svc
        .submit(Priority::Heavy, &quick, vec![Value::Vertex(VertexId(2))])
        .expect("slot 2");
    let shed = svc.submit(
        Priority::Interactive,
        &quick,
        vec![Value::Vertex(VertexId(3))],
    );
    match shed {
        Err(GdError::Overloaded) => {}
        Err(e) => panic!("expected Overloaded, got {e}"),
        Ok(_) => panic!("expected Overloaded, got an admission"),
    }
    let s = svc.stats();
    assert_eq!((s.rejected, s.queued), (1, 2));
    assert!(s.reconciles(), "{s:?}");
    // Cancel the hog; the queued pair must then complete normally.
    svc.cancel(hog.token());
    let hog_result = hog.wait_timeout(WAIT);
    assert!(
        matches!(hog_result, Err(GdError::QueryCancelled(_)) | Ok(_)),
        "hog must resolve via the drain protocol (or win the race): {hog_result:?}"
    );
    assert_eq!(q1.wait_timeout(WAIT).expect("q1 completes").rows.len(), 8);
    assert_eq!(q2.wait_timeout(WAIT).expect("q2 completes").rows.len(), 8);
    let s = svc.stats();
    assert_eq!(s.admitted, 3);
    assert_eq!(s.in_flight, 0);
    assert!(s.reconciles(), "{s:?}");
    svc.shutdown();
}

#[test]
fn queued_cancellation_resolves_without_dispatch() {
    let graph = chord_graph(64, 8, 1, 2);
    let svc = start(&graph, ServiceConfig::default().with_concurrency(1));
    let hog = svc
        .submit(
            Priority::Background,
            &khopcount_plan(&graph, 8),
            vec![Value::Vertex(VertexId(0))],
        )
        .expect("admit hog");
    wait_until(|| svc.stats().queued == 0, "hog dispatched");
    let queued = svc
        .submit(
            Priority::Interactive,
            &khop_plan(&graph, 1),
            vec![Value::Vertex(VertexId(1))],
        )
        .expect("admit queued");
    svc.cancel(queued.token());
    let token = queued.token();
    match queued.wait_timeout(WAIT) {
        Err(GdError::QueryCancelled(q)) => {
            assert_eq!(q.0, token, "queued teardown echoes the admission token")
        }
        other => panic!("expected QueryCancelled, got {other:?}"),
    }
    svc.cancel(hog.token());
    let _ = hog.wait_timeout(WAIT);
    let s = svc.stats();
    assert!(s.cancelled >= 1, "{s:?}");
    assert_eq!(s.in_flight, 0);
    assert!(s.reconciles(), "{s:?}");
    svc.shutdown();
}

#[test]
fn queued_deadline_expires_before_dispatch() {
    let graph = chord_graph(64, 8, 1, 2);
    let svc = start(&graph, ServiceConfig::default().with_concurrency(1));
    let hog = svc
        .submit(
            Priority::Background,
            &khopcount_plan(&graph, 8),
            vec![Value::Vertex(VertexId(0))],
        )
        .expect("admit hog");
    wait_until(|| svc.stats().queued == 0, "hog dispatched");
    let doomed = svc
        .submit_with_deadline(
            Priority::Interactive,
            &khop_plan(&graph, 1),
            vec![Value::Vertex(VertexId(1))],
            Some(Duration::from_millis(1)),
        )
        .expect("admit doomed");
    match doomed.wait_timeout(WAIT) {
        Err(GdError::QueryTimeout(_)) => {}
        other => panic!("expected queued-deadline QueryTimeout, got {other:?}"),
    }
    let s = svc.stats();
    assert_eq!(s.deadline_expired, 1, "{s:?}");
    assert!(s.reconciles(), "{s:?}");
    svc.cancel(hog.token());
    let _ = hog.wait_timeout(WAIT);
    svc.shutdown();
}

/// The conservation identity holds at *every* polled cut while a mixed
/// workload (completions, cancellations, rejections) is in flight — not
/// just at quiesce.
#[test]
fn stats_reconcile_at_every_cut() {
    let graph = chord_graph(48, 3, 1, 2);
    let svc = start(
        &graph,
        ServiceConfig::default()
            .with_capacity(8)
            .with_concurrency(2),
    );
    let quick = khop_plan(&graph, 2);
    let slow = khopcount_plan(&graph, 7);
    let mut tickets = Vec::new();
    for i in 0..24u64 {
        let class = Priority::from_index(i as usize);
        let plan = if i % 5 == 0 { &slow } else { &quick };
        match svc.submit(class, plan, vec![Value::Vertex(VertexId(i % 48))]) {
            Ok(t) => {
                if i % 7 == 0 {
                    svc.cancel(t.token());
                }
                tickets.push(t);
            }
            Err(GdError::Overloaded) => {}
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        let s = svc.stats();
        assert!(s.reconciles(), "mid-flight cut diverged: {s:?}");
    }
    for t in tickets {
        let _ = t.wait_timeout(WAIT);
        let s = svc.stats();
        assert!(s.reconciles(), "drain cut diverged: {s:?}");
    }
    wait_until(|| svc.stats().in_flight == 0, "service drains");
    let s = svc.stats();
    assert_eq!(
        s.admitted,
        s.completed + s.cancelled + s.deadline_expired,
        "{s:?}"
    );
    svc.shutdown();
}

/// Submit the 8^8-traverser count that holds a concurrency slot until it
/// is cancelled, and wait until it has been dispatched.
fn hold_slot(svc: &Service, graph: &Graph) -> graphdance_service::Ticket {
    let hog = svc
        .submit(
            Priority::Background,
            &khopcount_plan(graph, 8),
            vec![Value::Vertex(VertexId(0))],
        )
        .expect("admit hog");
    wait_until(|| svc.stats().queued == 0, "hog dispatched");
    hog
}

/// A concurrency slot is freed by the engine's completion, not by the
/// client reading its ticket: with two slots and three submissions, the
/// third resolves while the first two tickets are never touched.
#[test]
fn slots_free_without_ticket_polling() {
    let graph = chord_graph(64, 8, 1, 2);
    let svc = start(&graph, ServiceConfig::default().with_concurrency(2));
    let medium = khopcount_plan(&graph, 4);
    let untouched: Vec<_> = (0..2)
        .map(|i| {
            svc.submit(Priority::Heavy, &medium, vec![Value::Vertex(VertexId(i))])
                .expect("admit")
        })
        .collect();
    let third = svc
        .submit(
            Priority::Heavy,
            &khop_plan(&graph, 1),
            vec![Value::Vertex(VertexId(2))],
        )
        .expect("admit third");
    assert_eq!(
        third.wait_timeout(WAIT).expect("third resolves").rows.len(),
        8
    );
    wait_until(
        || svc.stats().in_flight == 0,
        "first two complete unobserved",
    );
    let s = svc.stats();
    assert_eq!((s.admitted, s.completed), (3, 3), "{s:?}");
    drop(untouched);
    svc.shutdown();
}

/// The sink accounts before it resolves the ticket: the moment `wait()`
/// returns, the slot is free and the counters have moved — every round,
/// not eventually.
#[test]
fn accounting_precedes_ticket_resolution() {
    let graph = chord_graph(32, 1, 1, 2);
    let svc = start(&graph, ServiceConfig::default());
    let plan = khop_plan(&graph, 1);
    for i in 0..10_000u64 {
        let t = svc
            .submit(
                Priority::Interactive,
                &plan,
                vec![Value::Vertex(VertexId(i % 32))],
            )
            .expect("admit");
        t.wait().expect("query completes");
        let s = svc.stats();
        assert_eq!(
            (s.in_flight, s.completed),
            (0, i + 1),
            "round {i}: resolved before accounted: {s:?}"
        );
        assert!(s.reconciles(), "round {i}: {s:?}");
    }
    svc.shutdown();
}

/// Uncontended traffic and idleness never wake the service thread: its
/// loop count is O(1) — not O(queries), not O(elapsed / tick).
#[test]
fn service_thread_sleeps_through_uncontended_traffic_and_idleness() {
    let graph = chord_graph(32, 1, 1, 2);
    let svc = start(&graph, ServiceConfig::default());
    let plan = khop_plan(&graph, 1);
    for i in 0..1_000u64 {
        svc.submit(
            Priority::Interactive,
            &plan,
            vec![Value::Vertex(VertexId(i % 32))],
        )
        .expect("admit")
        .wait()
        .expect("query completes");
    }
    std::thread::sleep(Duration::from_millis(200));
    let wakeups = svc.timer_wakeups();
    assert!(
        wakeups <= 2,
        "timer thread looped {wakeups} times over 1000 queries + 200 ms idle"
    );
    svc.shutdown();
}

/// The timer fires on its own: with the only slot held and no other
/// submission or cancel to nudge anything, a queued entry's 50 ms deadline
/// still resolves it with `QueryTimeout`, promptly.
#[test]
fn queued_deadline_fires_with_no_traffic() {
    let graph = chord_graph(64, 8, 1, 2);
    let svc = start(&graph, ServiceConfig::default().with_concurrency(1));
    let hog = hold_slot(&svc, &graph);
    let deadline = Duration::from_millis(50);
    let t0 = Instant::now();
    let doomed = svc
        .submit_with_deadline(
            Priority::Interactive,
            &khop_plan(&graph, 1),
            vec![Value::Vertex(VertexId(1))],
            Some(deadline),
        )
        .expect("admit doomed");
    let token = doomed.token();
    match doomed.wait() {
        Err(GdError::QueryTimeout(q)) => assert_eq!(q, QueryId(token)),
        other => panic!("expected queued-deadline QueryTimeout, got {other:?}"),
    }
    let took = t0.elapsed();
    // Recorded bound: expiry within one second of the deadline, on a box
    // whose two cores the hog is saturating.
    assert!(
        took >= deadline && took < deadline + Duration::from_secs(1),
        "50 ms queued deadline resolved after {took:?}"
    );
    let s = svc.stats();
    assert_eq!((s.deadline_expired, s.in_flight), (1, 1), "{s:?}");
    svc.cancel(hog.token());
    let _ = hog.wait_timeout(WAIT);
    svc.shutdown();
}

/// A backlog drained one slot at a time *through the completion sink*
/// leaves in exactly `AdmissionQueue::pop_next` order (DRR 8:3:1). The
/// engine assigns query ids at dispatch, so sorting results by id recovers
/// the dispatch order.
#[test]
fn sink_dispatch_order_is_pop_next_order() {
    let graph = chord_graph(64, 8, 1, 2);
    let config = ServiceConfig::default().with_concurrency(1);
    let mut model: AdmissionQueue<()> = AdmissionQueue::new(config.queue_capacity, config.weights);
    let svc = start(&graph, config);
    let hog = hold_slot(&svc, &graph);
    let at = Instant::now();
    model
        .try_admit(Priority::Background, at, at, ())
        .expect("model admits hog");
    model.pop_next().expect("model dispatches hog");

    let quick = khop_plan(&graph, 1);
    let mut tickets = Vec::new();
    // 24 interactive, 8 heavy, 4 background, interleaved.
    use Priority::{Background as B, Heavy as H, Interactive as I};
    for i in 0..36u64 {
        let class = [I, I, H, I, I, H, I, B, I][i as usize % 9];
        model.try_admit(class, at, at, ()).expect("model admits");
        tickets.push(
            svc.submit_with_deadline(class, &quick, vec![Value::Vertex(VertexId(i))], Some(WAIT))
                .expect("backlog admitted"),
        );
    }
    assert_eq!(
        svc.stats().queued,
        36,
        "whole backlog queued behind the hog"
    );
    svc.cancel(hog.token());
    let _ = hog.wait_timeout(WAIT);

    let mut dispatched: Vec<(QueryId, u64)> = tickets
        .into_iter()
        .map(|t| {
            let token = t.token();
            (
                t.wait_timeout(WAIT).expect("backlog completes").query,
                token,
            )
        })
        .collect();
    dispatched.sort_unstable();
    let got: Vec<u64> = dispatched.into_iter().map(|(_, token)| token).collect();
    let want: Vec<u64> = std::iter::from_fn(|| model.pop_next().map(|a| a.token)).collect();
    assert_eq!(
        got, want,
        "sink-driven dispatch diverged from pop_next order"
    );
    svc.shutdown();
}

/// `shutdown()` with work running and queued resolves every ticket with a
/// typed error — no hang — and joins the engine: once it returns, no
/// engine thread is left holding the fabric.
#[test]
fn shutdown_in_flight_resolves_every_ticket_and_joins_the_engine() {
    let graph = chord_graph(64, 8, 1, 2);
    let svc = start(&graph, ServiceConfig::default().with_concurrency(2));
    let fabric = Arc::clone(svc.engine().fabric());
    let slow = khopcount_plan(&graph, 8);
    let tickets: Vec<_> = (0..6u64)
        .map(|i| {
            svc.submit(Priority::Heavy, &slow, vec![Value::Vertex(VertexId(i))])
                .expect("admit")
        })
        .collect();
    let s = svc.stats();
    assert_eq!((s.in_flight, s.queued), (6, 4), "{s:?}");
    svc.shutdown();
    assert_eq!(
        Arc::strong_count(&fabric),
        1,
        "an engine thread outlived shutdown()"
    );
    for t in tickets {
        match t.wait() {
            Err(GdError::EngineClosed) => {}
            other => panic!("expected EngineClosed, got {other:?}"),
        }
    }
}

/// A wait that times out says so — `QueryTimeout` — and is distinguishable
/// from the engine going away (`EngineClosed`), on tickets and on engine
/// handles alike.
#[test]
fn wait_timeout_distinguishes_still_running_from_closed() {
    let graph = chord_graph(64, 8, 1, 2);
    let svc = start(&graph, ServiceConfig::default());
    let slow = khopcount_plan(&graph, 8);
    let start_v = vec![Value::Vertex(VertexId(0))];

    let ticket = svc
        .submit(Priority::Background, &slow, start_v.clone())
        .expect("admit");
    let token = ticket.token();
    match ticket.wait_timeout(Duration::from_millis(10)) {
        Err(GdError::QueryTimeout(q)) => assert_eq!(q, QueryId(token)),
        other => panic!("expected QueryTimeout for a running ticket, got {other:?}"),
    }
    svc.cancel(token);

    let handle = svc.engine().submit(&slow, start_v.clone());
    let id = handle.id();
    match handle.wait_timeout(Duration::from_millis(10)) {
        Err(GdError::QueryTimeout(q)) => assert_eq!(q, id),
        other => panic!("expected QueryTimeout for a running handle, got {other:?}"),
    }

    // Still running when the engine goes away: that is EngineClosed.
    let orphan = svc.engine().submit(&slow, start_v);
    svc.shutdown();
    match orphan.wait_timeout(WAIT) {
        Err(GdError::EngineClosed) => {}
        other => panic!("expected EngineClosed after shutdown, got {other:?}"),
    }
}
