//! The four workloads: set-up (dataset, graph, plans, oracle-digested
//! pools, engine / mesh / service start), the front each one drives, and
//! tear-down. Everything is reached through public functions of the
//! crates under `../crates`, built with the `obs` feature off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdance_common::{GdError, GdResult, NodeId, Partitioner, Value};
use graphdance_datagen::{KhopDataset, KhopParams, SnbDataset, SnbParams};
use graphdance_engine::{
    EngineConfig, GraphDance, NetStatsSnapshot, NodeRuntime, PeerAddr, QueryHandle, QueryResult,
    TcpStatsSnapshot, TcpTransport, TcpTransportConfig,
};
use graphdance_ldbc::updates::UpdateStream;
use graphdance_ldbc::{build_ic_plans, build_is_plans};
use graphdance_query::expr::Expr;
use graphdance_query::plan::{Order, Plan};
use graphdance_query::QueryBuilder;
use graphdance_service::{Priority, Service, ServiceConfig, SvcStats, Ticket};
use graphdance_sim::oracle_rows;
use graphdance_storage::{Graph, Timestamp};

use crate::digest::rows_digest;
use crate::pool::{ic_inputs, is_inputs, khop_inputs, Input};
use crate::trace::Recorder;

pub const KHOP_VERTICES: u64 = 16_000;
pub const KHOP_HOPS: i64 = 3;
/// Worker threads in every topology (1 node × 2, or 2 nodes × 1).
pub const WORKERS: u32 = 2;
/// The snapshot every read of a bulk-loaded graph runs at. `TS_LIVE`/`MAX`
/// would make the oracle see nothing (`visible_at` needs `ts < delete_ts`).
const BULK_READ_TS: Timestamp = 1;
/// Both TCP runtimes must unwind within this long.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    KhopLocal,
    KhopTcp,
    SnbSessions,
    SnbRw,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::KhopLocal,
        Kind::KhopTcp,
        Kind::SnbSessions,
        Kind::SnbRw,
    ];

    /// The workloads `BENCHMARK.json` declares, which the driver runs and
    /// gates on. `khop-tcp` is left out: run to run on this box it is the
    /// least steady of the four (see README, "Steadiness"), so it is run by
    /// `all` and by name, and judged by people, not by the gate.
    pub const GATED: [Kind; 3] = [Kind::KhopLocal, Kind::SnbSessions, Kind::SnbRw];

    pub fn name(self) -> &'static str {
        match self {
            Kind::KhopLocal => "khop-local",
            Kind::KhopTcp => "khop-tcp",
            Kind::SnbSessions => "snb-sessions",
            Kind::SnbRw => "snb-rw",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_snb(self) -> bool {
        matches!(self, Kind::SnbSessions | Kind::SnbRw)
    }
}

/// Generated inputs of one class with the reference answer of each.
pub struct Pool {
    pub plans: Vec<Plan>,
    pub inputs: Vec<Input>,
    /// Row-multiset digest of the oracle's answer, per input.
    pub digests: Vec<u64>,
    /// Result-row width per plan (0 = unknown: no pool entry returned a row).
    pub widths: Vec<usize>,
    /// Oracle totals over the pool: the interpreter driven sequentially.
    pub seq_ns: u64,
    pub seq_rows: u64,
}

impl Pool {
    /// Digest every input with the sequential oracle at `read_ts`.
    fn build(
        graph: &Graph,
        plans: Vec<Plan>,
        inputs: Vec<Input>,
        read_ts: Timestamp,
        seed: u64,
        rec: &mut Recorder,
    ) -> Pool {
        let mut pool = Pool {
            widths: vec![0; plans.len()],
            plans,
            inputs,
            digests: Vec::new(),
            seq_ns: 0,
            seq_rows: 0,
        };
        for i in 0..pool.inputs.len() {
            let start = Instant::now();
            let rows = pool.oracle(graph, i, read_ts, seed);
            let end = Instant::now();
            rec.span("pstm.seq_query", 0, 0, start, end);
            pool.seq_ns += (end - start).as_nanos() as u64;
            pool.seq_rows += rows.len() as u64;
            if let Some(row) = rows.first() {
                pool.widths[pool.inputs[i].plan] = row.len();
            }
            pool.digests.push(rows_digest(&rows));
        }
        pool
    }

    pub fn oracle(
        &self,
        graph: &Graph,
        i: usize,
        read_ts: Timestamp,
        seed: u64,
    ) -> Vec<Vec<Value>> {
        let input = &self.inputs[i];
        oracle_rows(graph, &self.plans[input.plan], &input.params, read_ts, seed)
            .expect("workloads are chosen so that the oracle answers every input")
    }
}

/// The `net` and `transport` counters the per-layer metrics use.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub traverser_msgs: u64,
    pub same_node_msgs: u64,
    pub progress_msgs: u64,
    pub wire_packets: u64,
    pub wire_bytes: u64,
    pub decode_errors: u64,
    pub frames_sent: u64,
    pub socket_bytes_sent: u64,
    pub write_syscalls: u64,
    pub read_syscalls: u64,
    pub send_errors: u64,
}

impl Counters {
    fn add_net(&mut self, s: &NetStatsSnapshot) {
        self.traverser_msgs += s.traverser_msgs;
        self.same_node_msgs += s.same_node_msgs;
        self.progress_msgs += s.progress_msgs;
        self.wire_packets += s.wire_packets;
        self.wire_bytes += s.wire_bytes;
        self.decode_errors += s.decode_errors;
    }

    fn add_tcp(&mut self, s: &TcpStatsSnapshot) {
        self.frames_sent += s.frames_sent;
        self.socket_bytes_sent += s.bytes_sent;
        self.write_syscalls += s.write_syscalls;
        self.read_syscalls += s.read_syscalls;
        self.send_errors += s.send_errors;
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            traverser_msgs: self.traverser_msgs - earlier.traverser_msgs,
            same_node_msgs: self.same_node_msgs - earlier.same_node_msgs,
            progress_msgs: self.progress_msgs - earlier.progress_msgs,
            wire_packets: self.wire_packets - earlier.wire_packets,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            decode_errors: self.decode_errors - earlier.decode_errors,
            frames_sent: self.frames_sent - earlier.frames_sent,
            socket_bytes_sent: self.socket_bytes_sent - earlier.socket_bytes_sent,
            write_syscalls: self.write_syscalls - earlier.write_syscalls,
            read_syscalls: self.read_syscalls - earlier.read_syscalls,
            send_errors: self.send_errors - earlier.send_errors,
        }
    }
}

enum Pending {
    Handle(QueryHandle),
    Ticket(Ticket),
}

/// What the load threads submit to. One per run, so variant size is moot.
#[allow(clippy::large_enum_variant)]
pub enum Front {
    Engine(GraphDance),
    Mesh {
        head: NodeRuntime,
        follower: NodeRuntime,
        transports: [Arc<TcpTransport>; 2],
    },
    Service(Service),
}

impl Front {
    /// The in-process engine, where there is one (not the TCP mesh).
    pub fn engine(&self) -> Option<&GraphDance> {
        match self {
            Front::Engine(e) => Some(e),
            Front::Service(s) => Some(s.engine()),
            Front::Mesh { .. } => None,
        }
    }

    /// The snapshot a read submitted now runs at.
    pub fn read_ts(&self) -> Timestamp {
        self.engine()
            .map_or(BULK_READ_TS, |e| e.txn().read_ts().max(BULK_READ_TS))
    }

    /// One query, submit to result, with a span around each call made.
    /// Returns the result and the instant it was in hand.
    pub fn exec(
        &self,
        class: Priority,
        plan: &Plan,
        params: Vec<Value>,
        rec: &mut Recorder,
        (op, request, start): (u64, u64, Instant),
    ) -> (GdResult<QueryResult>, Instant) {
        let (submit, wait) = match self {
            Front::Service(_) => ("service.submit", "service.ticket_wait"),
            _ => ("engine.submit", "engine.wait"),
        };
        let pending = match self {
            Front::Engine(e) => Ok(Pending::Handle(e.submit(plan, params))),
            Front::Mesh { head, .. } => {
                Ok(Pending::Handle(head.submit_at(plan, params, BULK_READ_TS)))
            }
            Front::Service(s) => s.submit(class, plan, params).map(Pending::Ticket),
        };
        let submitted = Instant::now();
        rec.span(submit, op, request, start, submitted);
        let result = pending.and_then(|p| match p {
            Pending::Handle(h) => h.wait(),
            Pending::Ticket(t) => t.wait(),
        });
        let done = Instant::now();
        let waited = rec.span(wait, op, request, submitted, done);
        if let Ok(r) = &result {
            let began = done.checked_sub(r.latency).unwrap_or(submitted);
            rec.span("engine.query", waited, request, began, done);
        }
        (result, done)
    }

    /// Fabric and socket counters, summed over the nodes of a mesh.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        match self {
            Front::Mesh {
                head,
                follower,
                transports,
            } => {
                c.add_net(&head.fabric().stats().snapshot());
                c.add_net(&follower.fabric().stats().snapshot());
                for t in transports {
                    c.add_tcp(&t.stats());
                }
            }
            Front::Engine(e) => c.add_net(&e.net_stats()),
            Front::Service(s) => c.add_net(&s.engine().net_stats()),
        }
        c
    }

    pub fn svc_stats(&self) -> Option<SvcStats> {
        match self {
            Front::Service(s) => Some(s.stats()),
            _ => None,
        }
    }

    /// Stop everything this front started and wait for it. Returns how
    /// long that took, or an error if a TCP runtime outlived the limit.
    pub fn shutdown(self) -> Result<Duration, String> {
        let start = Instant::now();
        match self {
            Front::Engine(e) => e.shutdown(),
            Front::Service(s) => s.shutdown(),
            Front::Mesh { head, follower, .. } => {
                // Both sides must shut down for the mesh to unwind, each
                // on its own thread.
                let (tx, rx) = std::sync::mpsc::channel();
                for node in [head, follower] {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        node.shutdown();
                        let _ = tx.send(());
                    });
                }
                for _ in 0..2 {
                    let left = SHUTDOWN_LIMIT.saturating_sub(start.elapsed());
                    rx.recv_timeout(left).map_err(|_| {
                        format!("a TCP runtime did not shut down within {SHUTDOWN_LIMIT:?}")
                    })?;
                }
            }
        }
        Ok(start.elapsed())
    }
}

/// One workload, set up and ready to serve.
pub struct Env {
    pub kind: Kind,
    pub graph: Graph,
    pub front: Front,
    /// Pool 0 is the primary class (k-hop / IS); pool 1, where present,
    /// the heavy IC session's.
    pub pools: Vec<Pool>,
    /// Kept for the writer (`snb-rw`) and its arrival check.
    pub snb: Option<(SnbDataset, UpdateStream)>,
}

/// The Fig. 1 / Fig. 9 k-hop query: all vertices within `k` hops of `$0`,
/// deduplicated, top 10 by vertex weight (ties by id).
fn khop_topk_plan(graph: &Graph, k: i64) -> Plan {
    let w = graph
        .schema()
        .prop("weight")
        .expect("khop graphs carry weights");
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0);
    let c = b.alloc_slot();
    let d = b.alloc_slot();
    b.repeat(1, k, c, |r| {
        r.compute(
            d,
            Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
        );
        r.out("link");
        r.min_dist(d);
    });
    b.dedup();
    b.top_k(
        10,
        vec![(Expr::Prop(w), Order::Desc), (Expr::VertexId, Order::Asc)],
        vec![Expr::VertexId, Expr::Prop(w)],
    );
    b.compile().expect("khop plan compiles")
}

/// Two `NodeRuntime`s × 1 worker in this process, meshed over loopback
/// TCP: bind both listeners on ephemeral ports, exchange the resolved
/// addresses, start the follower on its own thread (the head dials it
/// inside `start`).
fn start_mesh(graph: &Graph) -> GdResult<Front> {
    let cfg = EngineConfig::new(2, 1);
    let bind = |node: u32| {
        let any = || PeerAddr::parse("127.0.0.1:0");
        TcpTransport::bind(TcpTransportConfig::new(NodeId(node), vec![any()?, any()?]))
    };
    let (t0, t1) = (bind(0)?, bind(1)?);
    let peers = vec![t0.local_addr().clone(), t1.local_addr().clone()];
    t0.set_peers(peers.clone());
    t1.set_peers(peers);
    let (g1, cfg1, tr1) = (graph.clone(), cfg.clone(), Arc::clone(&t1));
    let follower = std::thread::spawn(move || NodeRuntime::start(g1, cfg1, NodeId(1), tr1));
    let head = NodeRuntime::start(graph.clone(), cfg, NodeId(0), Arc::clone(&t0) as _);
    let follower = follower
        .join()
        .map_err(|_| GdError::Internal("follower start panicked".into()))?;
    Ok(Front::Mesh {
        head,
        follower,
        transports: [t0, t1],
    })
}

/// Everything `setup_s` covers. Spans go to `rec` (off except for the
/// last repetition of a traced run).
pub fn setup(kind: Kind, seed: u64, rec: &mut Recorder) -> Env {
    let topology = match kind {
        Kind::KhopTcp => Partitioner::new(2, 1),
        _ => Partitioner::new(1, WORKERS),
    };
    if kind.is_snb() {
        let data = SnbDataset::generate(SnbParams::sf300_sim());
        let graph = rec.time("storage.build", || {
            data.build(topology).expect("SNB dataset builds")
        });
        let schema = Arc::clone(graph.schema());
        let is_plans = rec.time("query.plan_build", || {
            build_is_plans(&schema).expect("IS plans compile")
        });
        let ic_plans = rec.time("query.plan_build", || {
            build_ic_plans(&schema).expect("IC plans compile")
        });
        let engine = GraphDance::start(graph.clone(), EngineConfig::new(1, WORKERS));
        let front = Front::Service(Service::start(engine, ServiceConfig::default()));
        let ts = front.read_ts();
        let mut pools = vec![Pool::build(
            &graph,
            is_plans,
            is_inputs(seed, &data),
            ts,
            seed,
            rec,
        )];
        if kind == Kind::SnbSessions {
            pools.push(Pool::build(
                &graph,
                ic_plans,
                ic_inputs(seed, &data),
                ts,
                seed,
                rec,
            ));
        }
        let stream = UpdateStream::new(&data);
        Env {
            kind,
            graph,
            front,
            pools,
            snb: Some((data, stream)),
        }
    } else {
        let data = KhopDataset::generate(KhopParams::fs_sim(KHOP_VERTICES));
        let graph = rec.time("storage.build", || {
            data.build(topology).expect("khop dataset builds")
        });
        let plan = rec.time("query.plan_build", || khop_topk_plan(&graph, KHOP_HOPS));
        let front = if kind == Kind::KhopTcp {
            rec.time("transport.mesh_setup", || {
                start_mesh(&graph).expect("loopback mesh comes up")
            })
        } else {
            Front::Engine(GraphDance::start(
                graph.clone(),
                EngineConfig::new(1, WORKERS),
            ))
        };
        let pool = Pool::build(
            &graph,
            vec![plan],
            khop_inputs(seed, &graph, KHOP_VERTICES),
            front.read_ts(),
            seed,
            rec,
        );
        Env {
            kind,
            graph,
            front,
            pools: vec![pool],
            snb: None,
        }
    }
}
