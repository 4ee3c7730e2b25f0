//! The engine abstraction used by the LDBC driver and benchmark harnesses.

use graphdance_common::{GdResult, Value};
use graphdance_engine::{GraphDance, NetStatsSnapshot, NodeRuntime, QueryResult};
use graphdance_pstm::Row;
use graphdance_query::plan::Plan;

/// A query engine under test.
pub trait QueryEngine: Send + Sync {
    /// Human-readable engine name (used in benchmark output).
    fn name(&self) -> &str;

    /// Execute a query and measure its latency.
    fn query_timed(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult>;

    /// Execute a query, returning only the rows.
    fn query(&self, plan: &Plan, params: Vec<Value>) -> GdResult<Vec<Row>> {
        Ok(self.query_timed(plan, params)?.rows)
    }

    /// Network counters, if the engine runs on the simulated fabric.
    fn net_stats(&self) -> NetStatsSnapshot {
        NetStatsSnapshot::default()
    }

    /// Execute a query and return the reassembled per-stage trace, when
    /// the engine supports span tracing (only GraphDance does; baselines
    /// fall back to an untraced run).
    #[cfg(feature = "obs")]
    fn query_traced(
        &self,
        plan: &Plan,
        params: Vec<Value>,
    ) -> GdResult<(
        QueryResult,
        Option<graphdance_engine::graphdance_obs::QueryTrace>,
    )> {
        Ok((self.query_timed(plan, params)?, None))
    }

    /// Prometheus text exposition of the engine's metrics registry, when
    /// the engine is instrumented.
    #[cfg(feature = "obs")]
    fn metrics_prometheus(&self) -> Option<String> {
        None
    }

    /// Stop all engine threads.
    fn stop(self: Box<Self>);
}

impl QueryEngine for GraphDance {
    fn name(&self) -> &str {
        "GraphDance"
    }

    fn query_timed(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        GraphDance::query_timed(self, plan, params)
    }

    fn net_stats(&self) -> NetStatsSnapshot {
        NodeRuntime::net_stats(self)
    }

    #[cfg(feature = "obs")]
    fn query_traced(
        &self,
        plan: &Plan,
        params: Vec<Value>,
    ) -> GdResult<(
        QueryResult,
        Option<graphdance_engine::graphdance_obs::QueryTrace>,
    )> {
        GraphDance::query_traced(self, plan, params)
    }

    #[cfg(feature = "obs")]
    fn metrics_prometheus(&self) -> Option<String> {
        Some(self.metrics().to_prometheus())
    }

    fn stop(self: Box<Self>) {
        self.shutdown();
    }
}
