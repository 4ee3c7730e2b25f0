//! The metric names this benchmark reports, with units — the same lists
//! `BENCHMARK.json` declares (a unit test holds the two together).
//! Direction and bound live in `BENCHMARK.json` only.

/// What a user of the system sees; measured with tracing off. The read
/// metrics are of each workload's primary class: the k-hop query on
/// `khop-*`, the interactive IS session on `snb-*`. The latency is the
/// mean, not the median: on `snb-sessions` the median sits on the cliff
/// between the reads that found the workers free (0.35 ms) and those that
/// queued behind a heavy query (5-25 ms), and moved 1.3-1.9 ms between
/// runs of one commit. `client.p50_ms` and `client.p99_ms` stay per-layer.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("mean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Single layers, from the traced run and from public counters. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("client.samples", "count"),
    ("client.qps", "1/s"),
    ("client.p50_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.ic_samples", "count"),
    ("client.ic_qps", "1/s"),
    ("client.ic_p50_ms", "ms"),
    ("client.ic_p90_ms", "ms"),
    ("client.write_p50_us", "us"),
    ("client.write_p99_us", "us"),
    ("query.plan_build_us", "us"),
    ("query.plan_clone_ns", "ns"),
    ("storage.build_s", "s"),
    ("storage.scan_ns_per_edge", "ns"),
    ("storage.scan_ns_per_edge_after", "ns"),
    ("txn.update_us_mean", "us"),
    ("txn.aborts", "count"),
    ("pstm.seq_us_per_query", "us"),
    ("pstm.ic_seq_us_per_query", "us"),
    ("pstm.steps_per_query", "count"),
    ("pstm.seq_ns_per_step", "ns"),
    ("pstm.rows_per_query", "count"),
    ("engine.steps_per_s", "1/s"),
    ("engine.useful_share", "share"),
    ("engine.fixed_cost_us", "us"),
    ("engine.submit_call_us", "us"),
    ("engine.wait_us", "us"),
    ("engine.latency_p50_ms", "ms"),
    ("engine.latency_p99_ms", "ms"),
    ("net.traverser_msgs_per_query", "count"),
    ("net.same_node_msgs_per_query", "count"),
    ("net.progress_msgs_per_query", "count"),
    ("net.wire_packets_per_query", "count"),
    ("net.wire_bytes_per_query", "bytes"),
    ("net.decode_errors", "count"),
    ("codec.encode_ns_per_traverser", "ns"),
    ("codec.decode_ns_per_traverser", "ns"),
    ("codec.bytes_per_traverser", "bytes"),
    ("transport.frames_per_query", "count"),
    ("transport.bytes_per_query", "bytes"),
    ("transport.write_syscalls_per_query", "count"),
    ("transport.read_syscalls_per_query", "count"),
    ("transport.send_errors", "count"),
    ("transport.mesh_setup_ms", "ms"),
    ("transport.shutdown_ms", "ms"),
    ("service.submit_call_us", "us"),
    ("service.overhead_us_p50", "us"),
    ("service.overhead_us_p99", "us"),
    ("service.admitted", "count"),
    ("service.completed", "count"),
    ("service.rejected", "count"),
    ("service.deadline_expired", "count"),
    ("bench.verify_share", "share"),
    ("bench.writer_late_ms_max", "ms"),
    ("bench.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Kind;

    fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Kind::GATED.map(Kind::name));
    }
}
