//! # graphdance-service
//!
//! Multi-tenant query service fronting the GraphDance engine: bounded
//! admission with backpressure, three priority classes (Table I's
//! interactive / heavy / background workload mix) under deficit-round-
//! robin weighted scheduling, per-query deadlines on `common::time::now()`
//! (so the DST virtual clock exercises the same enforcement path), and
//! prompt cooperative cancellation through the engine's `CancelQuery`
//! drain protocol — teardown is verified against the WeightLedger
//! conservation and MsgLedger quiesce invariants (DESIGN.md §13).
//!
//! Layering:
//!
//! * [`queue`] — the pure, deterministic admission/priority queue
//!   (property-tested in isolation in `tests/queue_props.rs`).
//! * [`Service`] — the threaded front-end: submitters dispatch
//!   queue→engine on their own thread, the engine's completion sink
//!   accounts and dispatches the successor, one timer thread expires
//!   queued deadlines.
//! * [`obs`] — `svc.*` metrics behind the `obs` feature (zero-sized
//!   stubs otherwise), merged into the engine's Prometheus/JSON export.

pub mod config;
pub mod obs;
pub mod queue;
pub mod service;

pub use config::{Priority, ServiceConfig, NUM_CLASSES};
pub use queue::{AdmissionQueue, Admitted};
pub use service::{Service, SvcStats, Ticket};
