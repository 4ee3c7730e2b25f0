//! # graphdance-obs
//!
//! Unified observability for the simulated cluster: a sharded metrics
//! registry plus per-query span tracing. Dependency-free by design so every
//! crate in the workspace can embed it without cycles.
//!
//! ## Metrics core
//!
//! A [`Registry`] names counters, gauges and log-2-bucketed histograms up
//! front; each worker / network thread then takes its own [`ShardHandle`]
//! and records into thread-local slots with plain single-writer stores
//! (relaxed `load + store`, which compiles to ordinary `mov`s — no
//! lock-prefixed read-modify-write on the hot path). A scraper merges all
//! shards on demand into a [`MetricsSnapshot`], exportable as JSON
//! ([`MetricsSnapshot::to_json`]) or Prometheus text format
//! ([`MetricsSnapshot::to_prometheus`]).
//!
//! ## Query-span tracing
//!
//! Workers accumulate one [`SpanRecord`] per `(query, stage)` — traverser
//! counts, memo hits/misses, messages and bytes by lane, queue-wait vs.
//! execute time, cross-worker hop edges — and push them into the shared
//! [`TraceSink`]. The coordinator stamps stage begin/end times and the
//! final ledger counts; once every participant has sealed, the sink
//! reassembles everything into a per-stage [`QueryTrace`] timeline.
//!
//! This crate never reads a clock: all timestamps and durations are
//! supplied by callers (the engine uses its one sanctioned clock,
//! `graphdance_common::time::now`), which keeps obs itself free of
//! nondeterminism and trivially testable.

pub mod hist;
pub mod registry;
pub mod shared;
pub mod snapshot;
pub mod trace;

pub(crate) mod json;

pub use hist::{bucket_hi, bucket_lo, bucket_of, BUCKETS};
pub use registry::{MetricId, MetricKind, Registry, ShardHandle};
pub use shared::SharedHistogram;
pub use snapshot::{HistData, Metric, MetricValue, MetricsSnapshot};
pub use trace::{
    QueryTrace, SpanRecord, StageTrace, TraceSink, COORD_WORKER, LANES, LANE_NAMES, LANE_TRAVERSER,
};
