//! # graphdance-engine
//!
//! The GraphDance asynchronous distributed query engine (paper §IV).
//!
//! A [`GraphDance`] instance simulates a cluster of
//! `nodes × workers_per_node` single-threaded, shared-nothing workers — one
//! graph partition per worker — plus one network thread per node and one
//! coordinator:
//!
//! * Workers interpret traversers with the PSTM `Interpreter`
//!   (`graphdance-pstm`), accessing only their local partition and memo.
//! * Inter-worker traffic flows through the **two-tier I/O scheduler**
//!   (§IV-B, [`net`]): tier 1 batches messages per worker per destination
//!   node (flushed at 8 KB or on idle), tier 2 combines packets from all
//!   local workers per destination node. A traverser travels in its
//!   destination worker's run ([`messages::WorkerMsg::HandOff`]) on every
//!   lane. Same-node messages take the shared-memory shortcut; every remote
//!   message is serialized once, at its tier-1 flush ([`wire`]), decoded
//!   once, and charged against a configurable network cost model.
//! * Query completion is detected with **progression weights** and
//!   **weight coalescing** (§IV-A, [`coordinator`]): workers locally sum the
//!   weights of finished traversers and send one coalesced report per
//!   flush.
//!
//! The [`net::Fabric`] is public so that the baseline engines
//! (`graphdance-baselines`) run on the identical simulated cluster;
//! [`codec`] holds only the benchmark's standalone batch frame.

//! Runtime invariants (weight conservation, message conservation, the
//! liveness watchdog) are checked in debug builds by [`invariants`] and
//! `graphdance-pstm`'s `WeightLedger`; see `cargo xtask check` for the
//! static half of the same contract.

pub mod codec;
pub mod config;
pub mod coordinator;
pub mod engine;
pub mod invariants;
pub mod messages;
pub mod net;
pub mod obs;
mod run_queue;
pub mod sim;
pub mod transport;
pub mod wire;
pub mod worker;

pub use codec::ProgressEntry;
pub use config::{EngineConfig, FaultInjection, IoMode, NetConfig, SimFaults};
pub use engine::{GraphDance, NodeRuntime, QueryHandle, QueryResult};
pub use invariants::{MsgCounts, MsgLedger};
pub use messages::ReplySink;
pub use net::{Fabric, FlushEvent, FlushTrigger, MsgClass, NetStats, NetStatsSnapshot};
pub use sim::{
    FaultCounts, SimActor, SimCluster, SimEvent, SimEventKind, SimHandle, SimStep, SimTrace,
};
pub use transport::{
    PeerAddr, SocketFamily, TcpStatsSnapshot, TcpTransport, TcpTransportConfig, Transport,
};
pub use worker::PumpStatus;

#[cfg(feature = "obs")]
pub use obs::{CoordObs, EngineObs, NetShard, WorkerObs};

/// Re-export of the observability crate (types appearing in the public
/// API: `NodeRuntime::metrics`, `GraphDance::query_traced`), so dependents
/// don't need their own `graphdance-obs` dependency.
#[cfg(feature = "obs")]
pub use graphdance_obs;

/// Graph and plan fixtures shared by this crate's unit tests.
#[cfg(test)]
mod fixtures {
    use graphdance_common::{Partitioner, Value, VertexId};
    use graphdance_query::plan::Plan;
    use graphdance_query::QueryBuilder;
    use graphdance_storage::{Graph, GraphBuilder};

    /// A ring of `n` vertices: i -> (i + 1) % n, weights = i.
    pub(crate) fn ring(n: u64, parts: Partitioner) -> Graph {
        let mut b = GraphBuilder::new(parts);
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        let weight = b.schema_mut().register_prop("weight");
        for i in 0..n {
            b.add_vertex(VertexId(i), person, vec![(weight, Value::Int(i as i64))])
                .unwrap();
        }
        for i in 0..n {
            b.add_edge(VertexId(i), knows, VertexId((i + 1) % n), vec![])
                .unwrap();
        }
        b.finish()
    }

    /// Everything within `k` "knows" hops of `$0`, deduplicated.
    pub(crate) fn khop_plan(graph: &Graph, k: i64) -> Plan {
        let mut b = QueryBuilder::new(graph.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, k, c, |r| {
            r.out("knows");
        });
        b.dedup();
        b.compile().unwrap()
    }
}
