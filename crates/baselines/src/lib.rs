//! # graphdance-baselines
//!
//! The comparison systems of the paper's evaluation (§V), each built on the
//! *same* storage, plan interpreter, and simulated cluster network as
//! GraphDance, so that measured differences isolate the execution model:
//!
//! * [`bsp`] — a **BSP engine** with global superstep barriers (stands in
//!   for TigerGraph-class systems, §II-C1/Fig. 2b).
//! * [`non_partitioned`] — GraphDance with the **non-partitioned graph
//!   model**: threads of a node share one work queue and one latched memo
//!   (§V-A2 ablation).
//! * [`hybrid`] — the paper's future-work extension (§VI-c): PowerSwitch-
//!   style per-query Sync/Async selection from a frontier-size estimate.
//!
//! A baseline owns its workers and, for BSP, the superstep driver. The
//! cluster's assembly, the plan check and where a stage's sources start
//! are the engine's ([`graphdance_engine::engine::assemble`],
//! [`graphdance_query::plan::Plan::check_call`],
//! [`graphdance_pstm::Interpreter::start_sources`]).
//!
//! All engines implement [`QueryEngine`], so the LDBC driver and the
//! benchmark harnesses treat them uniformly.

pub mod bsp;
pub mod hybrid;
pub mod non_partitioned;
pub mod traits;

pub use bsp::BspEngine;
pub use hybrid::HybridEngine;
pub use non_partitioned::NonPartitionedEngine;
pub use traits::QueryEngine;
