//! Engine configuration: cluster topology, I/O scheduler mode, progress
//! tracking options, and the simulated network cost model.

use std::time::Duration;

/// Max traversers a worker executes between inbox polls.
pub const WORKER_BATCH: usize = 64;

/// Which tiers of the I/O scheduler are active (§IV-B / Fig. 12 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoMode {
    /// Baseline: every message is synchronously serialized and sent as its
    /// own wire packet.
    Sync,
    /// Tier 1 only (thread-level combining, "TLC"): workers batch messages
    /// per destination node, but the network thread forwards each worker
    /// packet separately.
    ThreadCombining,
    /// Both tiers ("TLC + NLC"): the node's network thread additionally
    /// combines queued packets per destination into one wire message.
    TwoTier,
}

/// Simulated network cost model.
///
/// Each wire operation to a remote node costs
/// `per_message_overhead + bytes / bandwidth` of sender CPU/NIC time (the
/// message-rate limit of §II-C), plus `propagation_delay` before delivery.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Link bandwidth in gigabits per second (the paper's cluster: 200).
    pub bandwidth_gbps: f64,
    /// Fixed cost per wire message (syscalls, doorbells, packet rate).
    pub per_message_overhead: Duration,
    /// One-way propagation delay.
    pub propagation_delay: Duration,
}

impl NetConfig {
    /// The paper's modern cluster: 200 Gbps, ~1.5 µs/message, 10 µs RTT/2.
    pub fn modern() -> Self {
        NetConfig {
            bandwidth_gbps: 200.0,
            per_message_overhead: Duration::from_nanos(1_500),
            propagation_delay: Duration::from_micros(5),
        }
    }

    /// A legacy configuration for the Fig. 13 hardware study.
    pub fn legacy(bandwidth_gbps: f64) -> Self {
        NetConfig {
            bandwidth_gbps,
            per_message_overhead: Duration::from_micros(4),
            propagation_delay: Duration::from_micros(20),
        }
    }

    /// Sender-side cost of transmitting `bytes`.
    pub fn send_cost(&self, bytes: usize) -> Duration {
        let bytes_per_sec = self.bandwidth_gbps * 1e9 / 8.0;
        let tx = Duration::from_secs_f64(bytes as f64 / bytes_per_sec);
        self.per_message_overhead + tx
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::modern()
    }
}

/// Debug-build fault injection, used by the invariant-checker tests to
/// prove that an injected bug is caught with a diagnostic instead of a
/// hang. All knobs are inert in release builds (the checkers they feed are
/// compiled out) and default to off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Drop the nth (1-based) remote traverser batch at ingress instead of
    /// delivering it — simulates a lost network message.
    pub drop_batch_nth: Option<u64>,
    /// Corrupt the finished weight of the nth (1-based) interpreter outcome
    /// on each worker — simulates a weight-conservation bug in a traversal
    /// step.
    pub leak_weight_nth: Option<u64>,
    /// Seed-derived probabilistic fault schedule for the deterministic
    /// simulator (see [`SimFaults`]).
    pub sim: SimFaults,
}

/// Seed-derived fault schedule for the deterministic simulator
/// (`crate::sim`). Every probability is expressed in **per mille**
/// (0..=1000) and rolled from an RNG derived from the engine seed, so one
/// `(seed, SimFaults)` pair names the exact same fault sequence on every
/// replay. Outside the simulator these knobs are inert, except
/// [`SimFaults::progress_side_channel`], which workers consult directly
/// (it re-creates a fixed ordering bug for regression tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimFaults {
    /// Chance a remote traverser batch is dropped at ingress.
    pub drop_permille: u16,
    /// Chance a remote traverser batch is delivered twice at ingress.
    pub dup_permille: u16,
    /// Chance a set of simultaneously-due packets is delivered in reverse
    /// arrival order.
    pub reorder_permille: u16,
    /// Chance an arriving packet is held for an extra per-link delay spike.
    pub delay_permille: u16,
    /// Magnitude of a delay spike.
    pub delay_spike: Duration,
    /// Chance a scheduled worker quantum stalls instead of running.
    pub stall_permille: u16,
    /// How long a stalled worker stays off the runnable set (virtual time).
    pub stall: Duration,
    /// Re-introduce the pre-fix `shared_state_khop` drain order: coalesced
    /// progress reports bypass the row FIFO and can overtake result rows
    /// still buffered in the sender's outbox. For regression tests only.
    pub progress_side_channel: bool,
}

impl SimFaults {
    /// A moderate lossy schedule (drops + duplicates + delays) for fault
    /// sweeps.
    pub fn lossy() -> Self {
        SimFaults {
            drop_permille: 40,
            dup_permille: 40,
            reorder_permille: 100,
            delay_permille: 100,
            delay_spike: Duration::from_micros(200),
            stall_permille: 20,
            stall: Duration::from_micros(500),
            progress_side_channel: false,
        }
    }

    /// Does this schedule inject anything at all?
    pub fn is_quiet(&self) -> bool {
        *self == SimFaults::default()
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Simulated cluster nodes.
    pub nodes: u32,
    /// Workers (= partitions) per node.
    pub workers_per_node: u32,
    /// Tier-1 flush threshold in bytes (8 KB in the paper's experiments).
    pub flush_threshold: usize,
    /// Weight coalescing (§IV-A). When disabled, every finished traverser
    /// weight is reported to the tracker as its own message — the "simple
    /// progress tracking" that costs up to 4.46× latency (§I).
    pub weight_coalescing: bool,
    /// I/O scheduler mode (Fig. 12).
    pub io_mode: IoMode,
    /// Network cost model (Fig. 13).
    pub net: NetConfig,
    /// Master RNG seed (worker streams are derived from it).
    pub seed: u64,
    /// Per-query deadline; queries exceeding it fail with `QueryTimeout`.
    pub query_timeout: Duration,
    /// Liveness watchdog window (debug builds): a query that reports no
    /// progress for this long *and* whose message ledger shows undelivered
    /// traversers is aborted immediately with a diagnostic dump instead of
    /// idling out `query_timeout`.
    pub watchdog_stall: Duration,
    /// Debug-build fault injection (see [`FaultInjection`]).
    pub fault: FaultInjection,
}

impl EngineConfig {
    /// The default experimental setup: `nodes × workers` with all paper
    /// optimizations enabled.
    pub fn new(nodes: u32, workers_per_node: u32) -> Self {
        EngineConfig {
            nodes,
            workers_per_node,
            flush_threshold: 8 * 1024,
            weight_coalescing: true,
            io_mode: IoMode::TwoTier,
            net: NetConfig::modern(),
            seed: 0xDA7A_BA5E,
            query_timeout: Duration::from_secs(60),
            watchdog_stall: Duration::from_secs(10),
            fault: FaultInjection::default(),
        }
    }

    /// Total partitions.
    pub fn num_parts(&self) -> u32 {
        self.nodes * self.workers_per_node
    }

    /// Builder-style: disable weight coalescing.
    pub fn without_weight_coalescing(mut self) -> Self {
        self.weight_coalescing = false;
        self
    }

    /// Builder-style: set the I/O mode.
    pub fn with_io_mode(mut self, mode: IoMode) -> Self {
        self.io_mode = mode;
        self
    }

    /// Builder-style: set the network cost model.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Builder-style: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_cost_scales_with_bytes_and_bandwidth() {
        let fast = NetConfig::modern();
        let slow = NetConfig::legacy(10.0);
        assert!(fast.send_cost(1 << 20) < slow.send_cost(1 << 20));
        assert!(fast.send_cost(100) < fast.send_cost(1 << 20));
        // Small messages are dominated by per-message overhead.
        let small = fast.send_cost(64);
        assert!(small >= fast.per_message_overhead);
        assert!(small < fast.per_message_overhead * 2);
    }

    #[test]
    fn config_builders() {
        let c = EngineConfig::new(2, 4)
            .without_weight_coalescing()
            .with_io_mode(IoMode::Sync)
            .with_seed(7);
        assert_eq!(c.num_parts(), 8);
        assert!(!c.weight_coalescing);
        assert_eq!(c.io_mode, IoMode::Sync);
        assert_eq!(c.seed, 7);
    }
}
