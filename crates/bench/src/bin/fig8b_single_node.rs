//! §V-A3 — distributed GraphDance vs the single-node engine
//! (GraphScope-sim).
//!
//! Expected shape: when the dataset fits in one node's (simulated) DRAM,
//! the single-node engine wins on latency (no network) while the
//! distributed engine wins on throughput; when the dataset exceeds node
//! memory (SF1000-sim), the single-node engine starts timing out.

use graphdance_baselines::{QueryEngine, SingleNodeEngine};
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
    let sf300 = sf300_dataset(quick);
    let sf1000 = sf1000_dataset(quick);

    // Simulated node DRAM: comfortably above SF300-sim, below SF1000-sim.
    let sf300_bytes = sf300
        .build(Partitioner::new(1, 8))
        .expect("builds")
        .approx_bytes();
    let sf1000_bytes = sf1000
        .build(Partitioner::new(1, 8))
        .expect("builds")
        .approx_bytes();
    let capacity = sf300_bytes + (sf1000_bytes - sf300_bytes) / 4;
    println!(
        "node DRAM capacity: {:.1} MB (SF300-sim = {:.1} MB, SF1000-sim = {:.1} MB)",
        capacity as f64 / 1e6,
        sf300_bytes as f64 / 1e6,
        sf1000_bytes as f64 / 1e6
    );

    for data in [&sf300, &sf1000] {
        println!(
            "\n=== {}: GraphDance (2x4 distributed) vs Single-Node (1x8) ===",
            data.params().name
        );
        header(&["query", "GD lat (ms)", "SN lat (ms)", "GD q/s", "SN q/s"]);
        let gd_graph = data.build(Partitioner::new(2, 4)).expect("builds");
        let gd = GraphDance::start(gd_graph, EngineConfig::new(2, 4));
        let sn_graph = data.build(Partitioner::new(1, 8)).expect("builds");
        let sn = SingleNodeEngine::start(sn_graph, 8, capacity)
            .with_time_limit(Duration::from_millis(if quick { 500 } else { 2000 }));
        let mut schema = graphdance_storage::Schema::new();
        graphdance_datagen::SnbDataset::register_schema(&mut schema);
        let plans = build_ic_plans(&schema).expect("IC plans");
        let subset: Vec<usize> = if quick {
            vec![0, 1, 6, 12]
        } else {
            (0..14).collect()
        };
        let mut sn_timeouts = 0;
        for qi in subset {
            let mut rng = graphdance_common::rng::seeded(99 + qi as u64);
            let mut mk = || ic_params(qi, data, &mut rng);
            let (gd_lat, _) = run_latency_avg(&gd, plans.get(qi).expect("plan"), &mut mk, trials);
            let mut rng2 = graphdance_common::rng::seeded(99 + qi as u64);
            let mut mk2 = || ic_params(qi, data, &mut rng2);
            let (sn_lat, _) = run_latency_avg(&sn, &plans[qi], &mut mk2, trials);
            if sn_lat == Duration::MAX {
                sn_timeouts += 1;
            }
            let gd_tp = run_throughput(
                &gd,
                &plans[qi],
                &|r| ic_params(qi, data, r),
                16,
                Duration::from_millis(300),
            );
            let sn_tp = run_throughput(
                &sn,
                &plans[qi],
                &|r| ic_params(qi, data, r),
                16,
                Duration::from_millis(300),
            );
            println!(
                "{:5} | {}   | {}   | {:7.1} | {:7.1}",
                IC_NAMES[qi],
                ms(gd_lat),
                ms(sn_lat),
                gd_tp,
                sn_tp
            );
        }
        println!(
            "single-node timeouts on {}: {}",
            data.params().name,
            sn_timeouts
        );
        gd.shutdown();
        Box::new(sn).stop();
    }
    println!("\n(Paper: GraphScope 58.1% lower latency on SF300 but 2.16x lower throughput;");
    println!(" on SF1000 it failed 9/14 ICs due to memory swapping.)");
}
