//! Self-contained, replayable repro descriptions.
//!
//! A simulation failure is fully named by `(graph, query, topology, seed,
//! fault schedule)` — nothing else feeds the deterministic scheduler. A
//! [`Repro`] captures that tuple and round-trips through a single text
//! line, so a failing run can print one line, a human can paste it into a
//! test (or a `sim-repro/*.repro` corpus file), and CI replays the exact
//! execution forever:
//!
//! ```text
//! graph=ring:32 query=khop:3:4 nodes=2 workers=2 seed=0x2a \
//!   faults=drop:0,dup:0,reorder:0,delay:0:0,stall:0:0,sidechannel:0
//! ```
//!
//! (`delay` is `permille:spike_us`, `stall` is `permille:stall_us`.)

use graphdance_common::{FxHashMap, FxHashSet};
use std::fmt;
use std::time::Duration;

use rand::Rng;

use graphdance_common::{Partitioner, Value, VertexId};
use graphdance_engine::{IoMode, SimFaults};
use graphdance_query::expr::Expr;
use graphdance_query::plan::Plan;
use graphdance_query::QueryBuilder;
use graphdance_storage::{adjacency, partition_stream, FennelConfig, Graph, GraphBuilder};

pub use graphdance_storage::PartitionMode;

/// A procedurally-generated test graph, named compactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// A directed ring: `i -knows-> (i+1) mod n`. Every k-hop answer is
    /// computable by hand, which makes wrong-answer triage trivial.
    Ring { n: u64 },
    /// A random directed graph with `n` vertices and `m` distinct non-loop
    /// edges drawn from a seeded RNG (independent of the simulation seed).
    Gnm { n: u64, m: u64, seed: u64 },
}

impl GraphSpec {
    /// The deterministic edge list — the single source of truth for both
    /// [`GraphSpec::build_with_mode`] and the Fennel placement stream, so
    /// the partitioner sees exactly the graph that gets built.
    pub fn edge_list(&self) -> Vec<(VertexId, VertexId)> {
        match *self {
            GraphSpec::Ring { n } => (0..n)
                .map(|i| (VertexId(i), VertexId((i + 1) % n)))
                .collect(),
            GraphSpec::Gnm { n, m, seed } => {
                let mut rng = graphdance_common::rng::seeded(seed);
                let mut seen = FxHashSet::default();
                let mut edges = Vec::new();
                // n*(n-1) distinct non-loop pairs bound the loop.
                while (edges.len() as u64) < m.min(n.saturating_mul(n - 1)) {
                    let s = rng.gen_range(0..n);
                    let d = (s + 1 + rng.gen_range(0..n - 1)) % n;
                    if seen.insert((s, d)) {
                        edges.push((VertexId(s), VertexId(d)));
                    }
                }
                edges
            }
        }
    }

    /// Materialize the graph for a `nodes × workers` topology with hash
    /// placement (the seed behaviour).
    pub fn build(&self, nodes: u32, workers: u32) -> Graph {
        self.build_with_mode(nodes, workers, PartitionMode::Hash)
    }

    /// Materialize the graph under an explicit placement mode:
    /// [`PartitionMode::Fennel`] streams the vertices (in id order)
    /// through [`partition_stream`] and loads each vertex at its
    /// graph-aware home instead of its hash home.
    pub fn build_with_mode(&self, nodes: u32, workers: u32, mode: PartitionMode) -> Graph {
        let partitioner = Partitioner::new(nodes, workers);
        let n = self.num_vertices();
        let edges = self.edge_list();
        let assignments = match mode {
            PartitionMode::Hash => FxHashMap::default(),
            PartitionMode::Fennel => {
                let order: Vec<VertexId> = (0..n).map(VertexId).collect();
                partition_stream(
                    partitioner.num_parts(),
                    &order,
                    &adjacency(&edges),
                    &FennelConfig::default(),
                )
            }
        };
        let mut b = GraphBuilder::with_assignments(partitioner, assignments);
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        for i in 0..n {
            b.add_vertex(VertexId(i), person, vec![]).expect("fresh id");
        }
        for (s, d) in edges {
            b.add_edge(s, knows, d, vec![]).expect("valid endpoints");
        }
        b.finish()
    }

    /// Vertex count (for shrinking heuristics).
    pub fn num_vertices(&self) -> u64 {
        match *self {
            GraphSpec::Ring { n } | GraphSpec::Gnm { n, .. } => n,
        }
    }
}

/// A query shape whose result multiset is order-independent, so the
/// sequential oracle is a sound reference for any execution schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuerySpec {
    /// Vertices within 1..=hops of `start`, deduplicated.
    Khop { hops: i64, start: u64 },
    /// Number of distinct paths of length 1..=hops from `start`.
    KhopCount { hops: i64, start: u64 },
    /// [`QuerySpec::Khop`]'s answer by the benchmark's chain: a hop
    /// counter `d` pruned by `min_dist` right after each `out`, so the
    /// arena step runs that guard fused into the `Expand`.
    KhopMin { hops: i64, start: u64 },
    /// Count of all `Person` vertices (touches every partition).
    ScanCount,
}

impl QuerySpec {
    /// Compile the plan and its parameters against `graph`'s schema.
    pub fn build(&self, graph: &Graph) -> (Plan, Vec<Value>) {
        let mut b = QueryBuilder::new(graph.schema());
        match *self {
            QuerySpec::Khop { hops, start } => {
                b.v_param(0);
                let c = b.alloc_slot();
                b.repeat(1, hops, c, |r| {
                    r.out("knows");
                });
                b.dedup();
                let plan = b.compile().expect("khop compiles");
                (plan, vec![Value::Vertex(VertexId(start))])
            }
            QuerySpec::KhopCount { hops, start } => {
                b.v_param(0);
                let c = b.alloc_slot();
                b.repeat(1, hops, c, |r| {
                    r.out("knows");
                });
                b.count();
                let plan = b.compile().expect("khop-count compiles");
                (plan, vec![Value::Vertex(VertexId(start))])
            }
            QuerySpec::KhopMin { hops, start } => {
                b.v_param(0);
                let c = b.alloc_slot();
                let d = b.alloc_slot();
                b.repeat(1, hops, c, |r| {
                    r.compute(
                        d,
                        Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
                    );
                    r.out("knows");
                    r.min_dist(d);
                });
                b.dedup();
                b.output(vec![Expr::VertexId]);
                let plan = b.compile().expect("khop-min compiles");
                (plan, vec![Value::Vertex(VertexId(start))])
            }
            QuerySpec::ScanCount => {
                b.v().has_label("Person").count();
                let plan = b.compile().expect("scan-count compiles");
                (plan, vec![])
            }
        }
    }
}

/// A multi-query service workload layered over a base [`Repro`]
/// (`svc=` key): seeded open-loop arrivals across the three priority
/// classes plus a cancellation schedule. When present, the run goes
/// through the service path ([`crate::check_service_detailed`]) instead
/// of the single-query differential check — the base `query=` key then
/// only names the *interactive-class* shape; heavy and background
/// classes use fixed per-class shapes (see [`crate::service`]).
///
/// Spelled `svc=<arrival_seed>:<queries>:<mix>:<cancel_mask>:<cancel_after>`:
///
/// * `arrival_seed` — RNG stream for arrival steps, class draws, and
///   start vertices (independent of the scheduler seed).
/// * `queries` — how many queries arrive (≤ 32, the cancel-mask width).
/// * `mix` — class-mix code: `0` all-interactive, `1` round-robin over
///   the three classes, `2` seeded-uniform over the three classes.
/// * `cancel_mask` — bit `i` set ⇒ query `i` is cancelled mid-flight.
/// * `cancel_after` — scheduling quanta between a masked query's
///   submission and its cancel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SvcSpec {
    pub arrival_seed: u64,
    pub queries: u8,
    pub mix: u8,
    pub cancel_mask: u32,
    pub cancel_after: u16,
}

/// One fully-specified simulation run: everything the deterministic
/// scheduler consumes, in one copyable value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Repro {
    pub graph: GraphSpec,
    pub query: QuerySpec,
    /// Simulated nodes.
    pub nodes: u32,
    /// Workers per node.
    pub workers: u32,
    /// Master seed: scheduling, fault schedule, and weight splitting all
    /// derive from it through fixed streams.
    pub seed: u64,
    /// The I/O scheduler the engine runs under (`io=` key; absent lines
    /// default to the engine default, [`IoMode::TwoTier`]).
    pub io: IoMode,
    /// Fault-injection knobs (all-zero = fault-free).
    pub faults: SimFaults,
    /// Optional service-workload layer (`svc=` key; absent lines run the
    /// classic single-query differential check).
    pub svc: Option<SvcSpec>,
    /// Vertex placement the graph is built with (`part=` key; absent
    /// lines are hash-placed).
    pub part: PartitionMode,
}

impl Repro {
    /// A fault-free baseline run.
    pub fn clean(graph: GraphSpec, query: QuerySpec, nodes: u32, workers: u32, seed: u64) -> Self {
        Repro {
            graph,
            query,
            nodes,
            workers,
            seed,
            io: IoMode::TwoTier,
            faults: SimFaults::default(),
            svc: None,
            part: PartitionMode::Hash,
        }
    }

    /// The same run under a different I/O scheduler.
    pub fn with_io(mut self, io: IoMode) -> Self {
        self.io = io;
        self
    }

    /// The same run with a service workload layered on top.
    pub fn with_svc(mut self, svc: SvcSpec) -> Self {
        self.svc = Some(svc);
        self
    }

    /// The same run over a graph placed by `part`.
    pub fn with_part(mut self, part: PartitionMode) -> Self {
        self.part = part;
        self
    }

    /// The one-line replayable form (inverse of [`Repro::parse`]).
    pub fn to_line(&self) -> String {
        self.to_string()
    }

    /// Parse a line produced by [`Repro::to_line`]. Unknown keys are an
    /// error so corpus-file typos fail loudly.
    pub fn parse(line: &str) -> Result<Repro, String> {
        let mut graph = None;
        let mut query = None;
        let mut nodes = None;
        let mut workers = None;
        let mut seed = None;
        let mut io = None;
        let mut faults = None;
        let mut svc = None;
        let mut part = None;
        for field in line.split_whitespace() {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| format!("field {field:?} is not key=value"))?;
            match key {
                "graph" => graph = Some(parse_graph(val)?),
                "query" => query = Some(parse_query(val)?),
                "nodes" => nodes = Some(parse_u32(val)?),
                "workers" => workers = Some(parse_u32(val)?),
                "seed" => seed = Some(parse_u64(val)?),
                "io" => io = Some(parse_io(val)?),
                "faults" => faults = Some(parse_faults(val)?),
                "svc" => svc = Some(parse_svc(val)?),
                "part" => part = Some(parse_part(val)?),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(Repro {
            graph: graph.ok_or("missing graph=")?,
            query: query.ok_or("missing query=")?,
            nodes: nodes.ok_or("missing nodes=")?,
            workers: workers.ok_or("missing workers=")?,
            seed: seed.ok_or("missing seed=")?,
            io: io.unwrap_or(IoMode::TwoTier),
            faults: faults.unwrap_or_default(),
            svc,
            part: part.unwrap_or_default(),
        })
    }
}

impl fmt::Display for Repro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.graph {
            GraphSpec::Ring { n } => write!(f, "graph=ring:{n}")?,
            GraphSpec::Gnm { n, m, seed } => write!(f, "graph=gnm:{n}:{m}:{seed}")?,
        }
        match self.query {
            QuerySpec::Khop { hops, start } => write!(f, " query=khop:{hops}:{start}")?,
            QuerySpec::KhopCount { hops, start } => write!(f, " query=khopcount:{hops}:{start}")?,
            QuerySpec::KhopMin { hops, start } => write!(f, " query=khopmin:{hops}:{start}")?,
            QuerySpec::ScanCount => write!(f, " query=scancount")?,
        }
        let s = &self.faults;
        write!(
            f,
            " nodes={} workers={} io={} seed={:#x} faults=drop:{},dup:{},reorder:{},delay:{}:{},stall:{}:{},sidechannel:{}",
            self.nodes,
            self.workers,
            io_name(self.io),
            self.seed,
            s.drop_permille,
            s.dup_permille,
            s.reorder_permille,
            s.delay_permille,
            s.delay_spike.as_micros(),
            s.stall_permille,
            s.stall.as_micros(),
            u8::from(s.progress_side_channel),
        )?;
        if let Some(svc) = self.svc {
            write!(
                f,
                " svc={:#x}:{}:{}:{:#x}:{}",
                svc.arrival_seed, svc.queries, svc.mix, svc.cancel_mask, svc.cancel_after
            )?;
        }
        if self.part != PartitionMode::Hash {
            write!(f, " part={}", self.part)?;
        }
        Ok(())
    }
}

fn parse_u32(s: &str) -> Result<u32, String> {
    s.parse().map_err(|e| format!("bad u32 {s:?}: {e}"))
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex {s:?}: {e}")),
        None => s.parse().map_err(|e| format!("bad u64 {s:?}: {e}")),
    }
}

fn parse_graph(s: &str) -> Result<GraphSpec, String> {
    let mut it = s.split(':');
    match it.next() {
        Some("ring") => Ok(GraphSpec::Ring {
            n: parse_u64(it.next().ok_or("ring needs :n")?)?,
        }),
        Some("gnm") => Ok(GraphSpec::Gnm {
            n: parse_u64(it.next().ok_or("gnm needs :n")?)?,
            m: parse_u64(it.next().ok_or("gnm needs :m")?)?,
            seed: parse_u64(it.next().ok_or("gnm needs :seed")?)?,
        }),
        other => Err(format!("unknown graph kind {other:?}")),
    }
}

fn parse_query(s: &str) -> Result<QuerySpec, String> {
    let mut it = s.split(':');
    match it.next() {
        Some("khop") => Ok(QuerySpec::Khop {
            hops: parse_u64(it.next().ok_or("khop needs :hops")?)? as i64,
            start: parse_u64(it.next().ok_or("khop needs :start")?)?,
        }),
        Some("khopcount") => Ok(QuerySpec::KhopCount {
            hops: parse_u64(it.next().ok_or("khopcount needs :hops")?)? as i64,
            start: parse_u64(it.next().ok_or("khopcount needs :start")?)?,
        }),
        Some("khopmin") => Ok(QuerySpec::KhopMin {
            hops: parse_u64(it.next().ok_or("khopmin needs :hops")?)? as i64,
            start: parse_u64(it.next().ok_or("khopmin needs :start")?)?,
        }),
        Some("scancount") => Ok(QuerySpec::ScanCount),
        other => Err(format!("unknown query kind {other:?}")),
    }
}

/// The `io=` spelling of each scheduler mode (inverse of [`parse_io`]).
fn io_name(io: IoMode) -> &'static str {
    match io {
        IoMode::Sync => "sync",
        IoMode::ThreadCombining => "threadcombining",
        IoMode::TwoTier => "twotier",
    }
}

fn parse_io(s: &str) -> Result<IoMode, String> {
    match s {
        "sync" => Ok(IoMode::Sync),
        "threadcombining" => Ok(IoMode::ThreadCombining),
        "twotier" => Ok(IoMode::TwoTier),
        other => Err(format!(
            "unknown io mode {other:?} (expected sync, threadcombining or twotier)"
        )),
    }
}

fn parse_svc(s: &str) -> Result<SvcSpec, String> {
    let mut it = s.split(':');
    let mut next = |what: &str| {
        it.next()
            .ok_or_else(|| format!("svc needs :{what}"))
            .and_then(parse_u64)
    };
    let spec = SvcSpec {
        arrival_seed: next("arrival_seed")?,
        queries: next("queries")? as u8,
        mix: next("mix")? as u8,
        cancel_mask: next("cancel_mask")? as u32,
        cancel_after: next("cancel_after")? as u16,
    };
    if it.next().is_some() {
        return Err(format!("svc has trailing fields in {s:?}"));
    }
    Ok(spec)
}

fn parse_part(s: &str) -> Result<PartitionMode, String> {
    PartitionMode::parse(s).ok_or_else(|| {
        format!(
            "bad part={s:?}: expected part=<hash|fennel> (placement only; \
             the migration fields after the mode were removed)"
        )
    })
}

fn parse_faults(s: &str) -> Result<SimFaults, String> {
    let mut out = SimFaults::default();
    for knob in s.split(',') {
        let mut it = knob.split(':');
        let name = it.next().unwrap_or_default();
        let mut next = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs :{what}"))
                .and_then(parse_u64)
        };
        match name {
            "drop" => out.drop_permille = next("permille")? as u16,
            "dup" => out.dup_permille = next("permille")? as u16,
            "reorder" => out.reorder_permille = next("permille")? as u16,
            "delay" => {
                out.delay_permille = next("permille")? as u16;
                out.delay_spike = Duration::from_micros(next("spike_us")?);
            }
            "stall" => {
                out.stall_permille = next("permille")? as u16;
                out.stall = Duration::from_micros(next("stall_us")?);
            }
            "sidechannel" => out.progress_side_channel = next("flag")? != 0,
            other => return Err(format!("unknown fault knob {other:?}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_roundtrips_exactly() {
        let r = Repro {
            graph: GraphSpec::Gnm {
                n: 40,
                m: 90,
                seed: 5,
            },
            query: QuerySpec::Khop { hops: 3, start: 4 },
            nodes: 2,
            workers: 2,
            seed: 0x2a,
            io: IoMode::ThreadCombining,
            faults: SimFaults {
                drop_permille: 40,
                dup_permille: 7,
                reorder_permille: 100,
                delay_permille: 9,
                delay_spike: Duration::from_micros(200),
                stall_permille: 3,
                stall: Duration::from_micros(500),
                progress_side_channel: true,
            },
            svc: None,
            part: PartitionMode::Fennel,
        };
        let line = r.to_line();
        assert_eq!(Repro::parse(&line), Ok(r), "line was: {line}");
    }

    #[test]
    fn part_key_roundtrips() {
        let r = Repro::clean(
            GraphSpec::Ring { n: 16 },
            QuerySpec::Khop { hops: 3, start: 0 },
            2,
            2,
            5,
        )
        .with_part(PartitionMode::Fennel);
        let line = r.to_line();
        assert!(line.ends_with(" part=fennel"), "line was: {line}");
        assert_eq!(Repro::parse(&line), Ok(r), "line was: {line}");
        let line = "graph=ring:8 query=khop:1:0 nodes=1 workers=1 seed=1";
        let hash = Repro::parse(&format!("{line} part=hash")).unwrap();
        assert_eq!(hash, Repro::parse(line).unwrap(), "hash is the default");
        assert!(
            !hash.to_line().contains("part="),
            "the default is not written"
        );
        assert!(
            Repro::parse(&format!("{line} part=warp")).is_err(),
            "unknown placement mode fails loudly"
        );
        // Lines recorded while `part=` also scheduled live migrations.
        let err = Repro::parse(&format!("{line} part=fennel:0x11:3:10"))
            .expect_err("the migration fields are gone");
        assert!(
            err.contains("part=<hash|fennel>"),
            "error names the form: {err}"
        );
    }

    #[test]
    fn fennel_mode_builds_the_same_logical_graph() {
        let spec = GraphSpec::Ring { n: 16 };
        let hash = spec.build_with_mode(2, 2, PartitionMode::Hash);
        let fennel = spec.build_with_mode(2, 2, PartitionMode::Fennel);
        // Same logical content, different physical placement.
        let count = |g: &Graph| -> usize {
            g.partitioner()
                .parts()
                .map(|p| g.read(p).num_vertices())
                .sum()
        };
        assert_eq!(count(&hash), 16);
        assert_eq!(count(&fennel), 16);
        // Fennel on a ring must co-locate runs of consecutive vertices:
        // strictly fewer cut edges than hash placement.
        let edges = spec.edge_list();
        let cut = |g: &Graph| graphdance_storage::edge_cut(&edges, |v| g.part_of(v));
        assert!(
            cut(&fennel) < cut(&hash),
            "fennel {} vs hash {}",
            cut(&fennel),
            cut(&hash)
        );
    }

    #[test]
    fn svc_key_roundtrips() {
        let r = Repro::clean(
            GraphSpec::Ring { n: 24 },
            QuerySpec::Khop { hops: 2, start: 0 },
            2,
            2,
            7,
        )
        .with_svc(SvcSpec {
            arrival_seed: 0xbeef,
            queries: 6,
            mix: 1,
            cancel_mask: 0b10010,
            cancel_after: 40,
        });
        let line = r.to_line();
        assert!(line.contains("svc=0xbeef:6:1:0x12:40"), "line was: {line}");
        assert_eq!(Repro::parse(&line), Ok(r), "line was: {line}");
        assert!(
            Repro::parse("graph=ring:8 query=khop:1:0 nodes=1 workers=1 seed=1 svc=1:2").is_err(),
            "truncated svc key fails loudly"
        );
        assert!(
            Repro::parse("graph=ring:8 query=khop:1:0 nodes=1 workers=1 seed=1 svc=1:2:0:0:5:9")
                .is_err(),
            "over-long svc key fails loudly"
        );
    }

    #[test]
    fn documented_example_parses() {
        let r = Repro::parse(
            "graph=ring:32 query=khop:3:4 nodes=2 workers=2 seed=0x2a \
             faults=drop:0,dup:0,reorder:0,delay:0:0,stall:0:0,sidechannel:0",
        )
        .unwrap();
        assert_eq!(r.graph, GraphSpec::Ring { n: 32 });
        assert_eq!(r.query, QuerySpec::Khop { hops: 3, start: 4 });
        assert_eq!(r.seed, 0x2a);
        assert_eq!(r.io, IoMode::TwoTier, "io-less lines take the default");
        assert!(r.faults.is_quiet());
    }

    #[test]
    fn io_key_roundtrips_every_mode() {
        for io in [IoMode::Sync, IoMode::ThreadCombining, IoMode::TwoTier] {
            let r =
                Repro::clean(GraphSpec::Ring { n: 8 }, QuerySpec::ScanCount, 1, 1, 3).with_io(io);
            let line = r.to_line();
            assert_eq!(Repro::parse(&line), Ok(r), "line was: {line}");
        }
        assert!(
            Repro::parse("graph=ring:8 query=khop:1:0 nodes=1 workers=1 io=warp seed=1").is_err(),
            "typoed io mode fails loudly"
        );
        // Lines recorded while the removed adaptive scheduler existed.
        let err = Repro::parse("graph=ring:8 query=khop:1:0 nodes=1 workers=1 io=adaptive seed=1")
            .expect_err("io=adaptive is no longer a mode");
        for valid in ["sync", "threadcombining", "twotier"] {
            assert!(err.contains(valid), "error names {valid}: {err}");
        }
    }

    #[test]
    fn typos_fail_loudly() {
        assert!(Repro::parse("graph=ring:8 query=warp:1:0 nodes=1 workers=1 seed=1").is_err());
        assert!(Repro::parse("graph=ring:8 quary=khop:1:0 nodes=1 workers=1 seed=1").is_err());
        assert!(Repro::parse("graph=ring:8 query=khop:1:0 workers=1 seed=1").is_err());
    }

    #[test]
    fn gnm_builds_requested_edge_count() {
        let g = GraphSpec::Gnm {
            n: 20,
            m: 35,
            seed: 11,
        }
        .build(2, 2);
        assert_eq!(g.partitioner().num_parts(), 4);
        // Same spec, same graph: the builder RNG is its own stream.
        let g2 = GraphSpec::Gnm {
            n: 20,
            m: 35,
            seed: 11,
        }
        .build(2, 2);
        assert_eq!(
            g.schema().vertex_label("Person"),
            g2.schema().vertex_label("Person")
        );
    }

    #[test]
    fn khopmin_roundtrips_and_answers_like_khop() {
        let graph = GraphSpec::Gnm {
            n: 24,
            m: 60,
            seed: 9,
        };
        let r = Repro::clean(graph, QuerySpec::KhopMin { hops: 3, start: 2 }, 1, 2, 1);
        let line = r.to_line();
        assert!(line.contains(" query=khopmin:3:2 "), "line was: {line}");
        assert_eq!(Repro::parse(&line), Ok(r), "line was: {line}");
        let g = graph.build(1, 2);
        let rows = |q: QuerySpec| {
            let (plan, params) = q.build(&g);
            crate::normalize(&crate::oracle_rows(&g, &plan, &params, 1, 5).unwrap())
        };
        let want = rows(QuerySpec::Khop { hops: 3, start: 2 });
        assert!(want.len() > 3, "a thin ball checks little: {want:?}");
        assert_eq!(rows(QuerySpec::KhopMin { hops: 3, start: 2 }), want);
    }
}
