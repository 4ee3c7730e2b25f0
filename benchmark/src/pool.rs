//! Seed → inputs. `--seed` picks each 256-entry parameter pool and each
//! load thread's visiting order; the datasets are fixed. The program under
//! test only ever sees the generated `(plan, params)` pairs.

use rand::Rng;

use graphdance_common::rng::derive;
use graphdance_common::{Value, VertexId};
use graphdance_datagen::SnbDataset;
use graphdance_ldbc::params::{ic_params, is_params};
use graphdance_storage::{Direction, Graph};

pub const POOL_SIZE: usize = 256;

/// IC plans (0-based) the heavy session runs: IC1, 2, 4, 7, 8, 12, 13, 14.
/// IC3, 5, 6, 9, 10, 11 are left out because their answers depend on the
/// schedule of the threaded engine: `friends_prefix(2)` prunes with
/// `min_dist` and no dedup follows, so a vertex first reached by the
/// longer path is admitted twice (ISSUE 13 measured 1–9 oracle mismatches
/// per 200 runs for each of them, 0/200 for the eight kept and for IS1–7).
pub const IC_CHECKABLE: [usize; 8] = [0, 1, 3, 6, 7, 11, 12, 13];

const STREAM_KHOP: u64 = 0x6B68;
const STREAM_IS: u64 = 0x6973;
const STREAM_IC: u64 = 0x6963;
const STREAM_ORDER: u64 = 0x6F72;
pub const STREAM_WRITER: u64 = 0x7772;

/// One generated input: which plan (index into the workload's plan list)
/// and its parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    pub plan: usize,
    pub params: Vec<Value>,
}

/// A k-hop start's work, estimated without running the query: the edges
/// out of the distinct vertices within two hops of it, which is what the
/// third hop scans (0.99 correlated with the engine's step count).
fn khop_work(graph: &Graph, num_vertices: u64) -> Vec<u64> {
    let label = graph.schema().edge_label("link").expect("khop schema");
    let out: Vec<Vec<u32>> = (0..num_vertices)
        .map(|v| {
            let mut ns = Vec::new();
            let _ = graph.for_each_neighbor(VertexId(v), Direction::Out, label, 1, |n| {
                ns.push(n.0 as u32)
            });
            ns
        })
        .collect();
    let mut stamp = vec![u32::MAX; out.len()];
    (0..out.len() as u32)
        .map(|v| {
            let mut work = 0;
            let mut visit = |u: u32| {
                if std::mem::replace(&mut stamp[u as usize], v) != v {
                    work += out[u as usize].len() as u64;
                }
            };
            visit(v);
            for &a in &out[v as usize] {
                visit(a);
                out[a as usize].iter().copied().for_each(&mut visit);
            }
            work
        })
        .collect()
}

/// 256 k-hop start vertices: one drawn from each of 256 equal-count strata
/// of the vertices ordered by [`khop_work`]. Per-start work is heavy-tailed
/// (mean 4.1 k steps, deviation 9.7 k), so 256 uniform draws would move the
/// pool's mean work — and with it every timing — by ±18 % from seed to
/// seed; one draw per stratum holds it to ±1.3 % while every seed still
/// gets its own starts.
pub fn khop_inputs(seed: u64, graph: &Graph, num_vertices: u64) -> Vec<Input> {
    let work = khop_work(graph, num_vertices);
    let mut by_work: Vec<u64> = (0..num_vertices).collect();
    by_work.sort_by_key(|&v| (work[v as usize], v));
    let mut rng = derive(seed, STREAM_KHOP);
    (0..POOL_SIZE)
        .map(|i| {
            let stratum = i * by_work.len() / POOL_SIZE..(i + 1) * by_work.len() / POOL_SIZE;
            Input {
                plan: 0,
                params: vec![Value::Vertex(VertexId(by_work[rng.gen_range(stratum)]))],
            }
        })
        .collect()
}

/// 256 short reads cycling IS1–IS7 (plan index = IS number − 1).
pub fn is_inputs(seed: u64, data: &SnbDataset) -> Vec<Input> {
    let mut rng = derive(seed, STREAM_IS);
    (0..POOL_SIZE)
        .map(|i| Input {
            plan: i % 7,
            params: is_params(i % 7, data, &mut rng),
        })
        .collect()
}

/// 256 complex reads cycling [`IC_CHECKABLE`] (plan index = IC number − 1).
pub fn ic_inputs(seed: u64, data: &SnbDataset) -> Vec<Input> {
    let mut rng = derive(seed, STREAM_IC);
    (0..POOL_SIZE)
        .map(|i| {
            let plan = IC_CHECKABLE[i % IC_CHECKABLE.len()];
            Input {
                plan,
                params: ic_params(plan, data, &mut rng),
            }
        })
        .collect()
}

/// The order load thread `thread` walks a pool in, cyclically: a seeded
/// permutation, so every entry is visited equally often.
pub fn visiting_order(seed: u64, thread: u64) -> Vec<u32> {
    let mut rng = derive(seed ^ (thread << 32), STREAM_ORDER);
    let mut order: Vec<u32> = (0..POOL_SIZE as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::Partitioner;
    use graphdance_datagen::{KhopDataset, KhopParams, SnbParams};

    fn khop_graph() -> Graph {
        KhopDataset::generate(KhopParams::fs_sim(2_000))
            .build(Partitioner::new(1, 2))
            .unwrap()
    }

    #[test]
    fn same_seed_same_inputs_and_order() {
        let data = SnbDataset::generate(SnbParams::tiny());
        let graph = khop_graph();
        for seed in [1u64, 2, 0xDEAD_BEEF] {
            assert_eq!(
                khop_inputs(seed, &graph, 2_000),
                khop_inputs(seed, &graph, 2_000)
            );
            assert_eq!(is_inputs(seed, &data), is_inputs(seed, &data));
            assert_eq!(ic_inputs(seed, &data), ic_inputs(seed, &data));
            assert_eq!(visiting_order(seed, 0), visiting_order(seed, 0));
        }
    }

    #[test]
    fn seeds_and_threads_differ() {
        let graph = khop_graph();
        assert_ne!(khop_inputs(1, &graph, 2_000), khop_inputs(2, &graph, 2_000));
        assert_ne!(visiting_order(1, 0), visiting_order(2, 0));
        assert_ne!(visiting_order(1, 0), visiting_order(1, 1));
    }

    #[test]
    fn pools_are_full_and_orders_are_permutations() {
        let data = SnbDataset::generate(SnbParams::tiny());
        let khop = khop_inputs(7, &khop_graph(), 2_000);
        let starts: std::collections::BTreeSet<u64> = khop
            .iter()
            .map(|i| i.params[0].as_vertex().unwrap().0)
            .collect();
        assert_eq!(starts.len(), POOL_SIZE);
        assert!(is_inputs(7, &data).iter().all(|i| i.plan < 7));
        assert!(ic_inputs(7, &data)
            .iter()
            .all(|i| IC_CHECKABLE.contains(&i.plan)));
        let mut order = visiting_order(7, 1);
        order.sort_unstable();
        assert_eq!(order, (0..POOL_SIZE as u32).collect::<Vec<_>>());
    }
}
