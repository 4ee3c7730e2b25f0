//! Fig. 9 — vertical and horizontal scalability of the k-hop query.
//!
//! Vertical: 1 node, 1..=8 workers. Horizontal: 1..=8 nodes × 2 workers.
//! Engines: GraphDance and BSP, on lj-sim and fs-sim.
//!
//! Expected shape (paper): GraphDance scales near-linearly for medium and
//! large queries; BSP is slowest at low hop counts but competitive on the
//! largest queries (amortized barriers). The paper's dataflow comparators,
//! GAIA and Banyan, are not reproduced: their flattening comes from every
//! worker hosting every operator, and no dataflow engine exists here.

use graphdance_bench::*;
use graphdance_engine::EngineConfig;

fn main() {
    let quick = quick_mode();
    let trials = if quick { 2 } else { 5 };
    let hops: &[i64] = if quick { &[2, 3] } else { &[2, 3, 4] };
    let engines = [EngineKind::GraphDance, EngineKind::Bsp];
    let datasets = if quick {
        vec![("lj-sim", lj_dataset(true))]
    } else {
        vec![("lj-sim", lj_dataset(false)), ("fs-sim", fs_dataset(false))]
    };

    for (dname, data) in &datasets {
        let n = data.params().vertices;
        println!("\n=== Fig. 9 (vertical): {dname}, 1 node, varying workers ===");
        header(&[
            "engine    ",
            "hops",
            "w=1 (ms)",
            "w=2 (ms)",
            "w=4 (ms)",
            "w=8 (ms)",
        ]);
        for &k in hops {
            for kind in engines {
                let mut cells = Vec::new();
                for wpn in [1u32, 2, 4, 8] {
                    let g = build_khop_graph(data, 1, wpn);
                    let plan = khop_topk_plan(&g, k);
                    let engine = kind.start(g, EngineConfig::new(1, wpn));
                    let avg = run_khop_avg(engine.as_ref(), &plan, n, trials, 42);
                    cells.push(ms(avg));
                    engine.stop();
                }
                println!(
                    "{:10} | {:4} | {} | {} | {} | {}",
                    kind.name(),
                    k,
                    cells[0],
                    cells[1],
                    cells[2],
                    cells[3]
                );
            }
        }

        println!("\n=== Fig. 9 (horizontal): {dname}, varying nodes × 2 workers ===");
        header(&[
            "engine    ",
            "hops",
            "n=1 (ms)",
            "n=2 (ms)",
            "n=4 (ms)",
            "n=8 (ms)",
        ]);
        for &k in hops {
            for kind in engines {
                let mut cells = Vec::new();
                for nodes in [1u32, 2, 4, 8] {
                    let g = build_khop_graph(data, nodes, 2);
                    let plan = khop_topk_plan(&g, k);
                    let engine = kind.start(g, EngineConfig::new(nodes, 2));
                    let avg = run_khop_avg(engine.as_ref(), &plan, n, trials, 42);
                    cells.push(ms(avg));
                    engine.stop();
                }
                println!(
                    "{:10} | {:4} | {} | {} | {} | {}",
                    kind.name(),
                    k,
                    cells[0],
                    cells[1],
                    cells[2],
                    cells[3]
                );
            }
        }
    }
}
