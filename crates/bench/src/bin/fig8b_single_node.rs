//! §V-A3 — distributed GraphDance (2 × 4) against the same engine on one
//! node (1 × 8), the stand-in for a single-node system such as GraphScope.
//!
//! Both sides run the same plans over the same data with the same number
//! of workers; the single-node side has no cross-node hop, so what this
//! figure shows is the price of distribution at each scale. The paper's
//! other SF1000 finding — the single-node system failing ICs once the
//! graph outgrows its DRAM — is not reproduced: every dataset here fits
//! in this process's memory, so no query swaps (EXPERIMENTS §V-A3).

use graphdance_bench::*;
use graphdance_common::Partitioner;
use graphdance_engine::{EngineConfig, GraphDance};
use graphdance_ldbc::ic::build_ic_plans;
use graphdance_ldbc::params::ic_params;
use graphdance_ldbc::IC_NAMES;
use std::time::Duration;

fn main() {
    let quick = quick_mode();
    let trials = if quick { 2 } else { 5 };
    let mut schema = graphdance_storage::Schema::new();
    graphdance_datagen::SnbDataset::register_schema(&mut schema);
    let plans = build_ic_plans(&schema).expect("IC plans");

    for data in &[sf300_dataset(quick), sf1000_dataset(quick)] {
        let sn_graph = data.build(Partitioner::new(1, 8)).expect("builds");
        println!(
            "\n=== {} ({:.1} MB): GraphDance 2x4 (distributed) vs 1x8 (single node) ===",
            data.params().name,
            sn_graph.approx_bytes() as f64 / 1e6
        );
        header(&[
            "query",
            "2x4 lat (ms)",
            "1x8 lat (ms)",
            "2x4 q/s",
            "1x8 q/s",
        ]);
        let gd_graph = data.build(Partitioner::new(2, 4)).expect("builds");
        let gd = GraphDance::start(gd_graph, EngineConfig::new(2, 4));
        let sn = GraphDance::start(sn_graph, EngineConfig::new(1, 8));
        let subset: Vec<usize> = if quick {
            vec![0, 1, 6, 12]
        } else {
            (0..14).collect()
        };
        for qi in subset {
            let mut rng = graphdance_common::rng::seeded(99 + qi as u64);
            let mut mk = || ic_params(qi, data, &mut rng);
            let (gd_lat, _) = run_latency_avg(&gd, &plans[qi], &mut mk, trials);
            let mut rng2 = graphdance_common::rng::seeded(99 + qi as u64);
            let mut mk2 = || ic_params(qi, data, &mut rng2);
            let (sn_lat, _) = run_latency_avg(&sn, &plans[qi], &mut mk2, trials);
            let tp = |engine: &GraphDance| {
                run_throughput(
                    engine,
                    &plans[qi],
                    &|r| ic_params(qi, data, r),
                    16,
                    Duration::from_millis(300),
                )
            };
            println!(
                "{:5} | {}     | {}     | {:7.1} | {:7.1}",
                IC_NAMES[qi],
                ms(gd_lat),
                ms(sn_lat),
                tp(&gd),
                tp(&sn)
            );
        }
        gd.shutdown();
        sn.shutdown();
    }
    println!("\n(Paper: GraphScope 58.1% lower latency on SF300 but 2.16x lower throughput;");
    println!(" on SF1000 it failed 9/14 ICs due to memory swapping — not modelled here.)");
}
