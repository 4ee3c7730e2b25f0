//! # graphdance-storage
//!
//! The distributed in-memory property-graph store underlying GraphDance.
//!
//! The property graph model follows §II-B of the PSTM paper: a triplet
//! `(V, E, λ)` of vertices, directed edges, and a property assignment, hash
//! partitioned by [`graphdance_common::Partitioner`] (`H : V -> PartId`,
//! §II-C). Each partition owns:
//!
//! * its vertices' labels and property rows,
//! * **both** out- and in-adjacency of its vertices, stored as
//!   [Transactional Edge Logs](tel) (TEL, §IV-C / LiveGraph): multi-version
//!   adjacency lists embedding creation/deletion timestamps so that the
//!   visible edge set at any read timestamp is found in one sequential scan,
//! * secondary property indexes for `IndexLookUp` traversal strategies.
//!
//! Partitions are wrapped in `parking_lot::RwLock`s; the PSTM engine's
//! shared-nothing workers take uncontended locks on their own partition,
//! while the non-partitioned baseline (§V-A2) deliberately shares them.

pub mod fennel;
pub mod graph;
pub mod partition_store;
pub mod routing;
pub mod schema;
pub mod stats;
pub mod tel;

pub use fennel::{adjacency, edge_cut, partition_stream, FennelConfig, PartitionMode};
pub use graph::{Graph, GraphBuilder};
#[cfg(feature = "obs")]
pub use partition_store::ScanStats;
pub use partition_store::{Direction, EdgeRef, GraphPartition, VertexRecord};
pub use routing::RoutingTable;
pub use schema::Schema;
pub use stats::GraphStats;
pub use tel::{TelEntry, TelList, Timestamp, TS_BULK, TS_LIVE};
