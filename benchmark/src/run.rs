//! One measured run of one workload: repeated set-up, warm-up, the timed
//! closed-loop window with every read verified, the post-window checks,
//! tear-down, and the metrics computed from all of it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use graphdance_common::rng::derive;
use graphdance_common::{QueryId, Value, VertexId};
use graphdance_datagen::snb::{vid, Kind as Entity};
use graphdance_engine::codec::{decode_batch_borrowed, encode_batch_into};
use graphdance_engine::GraphDance;
use graphdance_ldbc::updates::{UpdateKind, UpdateStream};
use graphdance_pstm::{Traverser, Weight};
use graphdance_service::Priority;
use graphdance_storage::{Direction, Graph, Timestamp};

use crate::digest::rows_digest;
use crate::pool::{visiting_order, POOL_SIZE, STREAM_WRITER};
use crate::stats::{enough_beyond, median_f64, percentile};
use crate::trace::{self, Recorder, Span};
use crate::workload::{setup, Counters, Env, Front, Kind, Pool, WORKERS};

/// Set-up is repeated and its median reported — one set-up is a few
/// hundred milliseconds of allocation-heavy work and varies run to run.
/// How many times, per workload — a fixed count, not "until a time budget
/// is spent": how often the heap was built and torn down before the window
/// moves `peak_rss_mb`.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        // ≈0.3 s each.
        Kind::KhopLocal | Kind::KhopTcp => 7,
        // ≈2–4 s each.
        Kind::SnbSessions => 3,
        // ≈0.1 s each.
        Kind::SnbRw => 9,
    }
}

/// Untimed closed-loop warm-up before the window.
const WARMUP: Duration = Duration::from_secs(2);
/// The `snb-rw` writer: 2 000 updates/s as bursts of 32 every 16 ms.
const WRITE_BURST: usize = 32;
const WRITE_PERIOD: Duration = Duration::from_millis(16);
/// Newest acknowledged `AddPerson` ids read back after the window.
const ARRIVALS_CHECKED: usize = 64;

/// Closed-loop sessions of the primary class. `snb-rw` runs four: with one,
/// every hand-off between the service's threads wakes an idle vCPU, and the
/// reads measure the VM's wake-up latency — bimodal, 0.30 or 0.39 ms for a
/// whole run — not the system's cost per query. Four keep both cores busy;
/// run to run `qps` then moves ±5 % where it moved ±20 %.
fn primary_sessions(kind: Kind) -> usize {
    match kind {
        Kind::KhopLocal | Kind::KhopTcp => 2,
        Kind::SnbSessions => 1,
        Kind::SnbRw => 4,
    }
}

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Test-only: corrupt one expected digest and one expected row width,
    /// so the checks must fire on every workload.
    pub inject_wrong_expectation: bool,
}

/// What one run hands back: metric name → value, and the verdict.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Invariants that did not hold (empty on a correct run).
    pub violations: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

#[derive(Clone, Copy)]
enum Check {
    /// The row multiset must equal the oracle's.
    Digest,
    /// Writes move the answer; rows must still have the plan's arity.
    Width,
}

#[derive(Default)]
struct ReadStats {
    /// Client-observed latency of verified reads, op start → verified.
    lat_ns: Vec<u64>,
    /// `QueryResult::latency` of the same reads.
    engine_ns: Vec<u64>,
    /// Submit → result in hand, minus `QueryResult::latency`.
    overhead_ns: Vec<u64>,
    steps: u64,
    failed: u64,
    elapsed: Duration,
}

impl ReadStats {
    fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64 + self.failed
    }

    fn qps(&self) -> f64 {
        self.lat_ns.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// A closed-loop session: walk `pool` in `order`, one read at a time, from
/// now until `until`; reads that start at or after `from` are measured.
#[allow(clippy::too_many_arguments)]
fn read_session(
    front: &Front,
    pool: &Pool,
    order: &[u32],
    class: Priority,
    check: Check,
    (from, until): (Instant, Instant),
    rec: &mut Recorder,
    thread: u64,
) -> ReadStats {
    let mut stats = ReadStats::default();
    let mut first_measured = None;
    let mut finished = Instant::now();
    for &slot in order.iter().cycle() {
        let input = &pool.inputs[slot as usize];
        let plan = &pool.plans[input.plan];
        let params = input.params.clone();
        let start = Instant::now();
        if start >= until {
            break;
        }
        let measured = start >= from;
        let mut quiet = Recorder::new(false, start, 0);
        let rec = if measured { &mut *rec } else { &mut quiet };
        // Numbered from the window's first read.
        let request = trace::request_id(thread, stats.attempted() + 1);
        let op = rec.open("client.op", 0, request, start);
        let (result, done) = front.exec(class, plan, params, rec, (op, request, start));
        let ok = result.as_ref().is_ok_and(|r| match check {
            Check::Digest => rows_digest(&r.rows) == pool.digests[slot as usize],
            Check::Width => {
                let width = pool.widths[input.plan];
                r.rows.iter().all(|row| width == 0 || row.len() == width)
            }
        });
        finished = Instant::now();
        rec.span("bench.verify", op, request, done, finished);
        rec.close(op, finished);
        if !measured {
            continue;
        }
        first_measured.get_or_insert(start);
        match result {
            Ok(r) if ok => {
                stats.lat_ns.push((finished - start).as_nanos() as u64);
                let engine = r.latency.as_nanos() as u64;
                stats.engine_ns.push(engine);
                stats
                    .overhead_ns
                    .push(((done - start).as_nanos() as u64).saturating_sub(engine));
                stats.steps += r.steps_executed;
            }
            _ => stats.failed += 1,
        }
    }
    stats.elapsed = first_measured.map_or(Duration::ZERO, |t| finished - t);
    stats
}

#[derive(Default)]
struct WriteStats {
    lat_ns: Vec<u64>,
    failed: u64,
    late_ns_max: u64,
    /// `AddPerson` updates acknowledged since set-up, measured or not:
    /// the stream hands out person ids in this order.
    persons_added: usize,
}

/// The open-loop writer: a burst is due every [`WRITE_PERIOD`] whether or
/// not the last one is done; how late each burst started is reported.
fn writer_session(
    engine: &GraphDance,
    stream: &UpdateStream,
    seed: u64,
    (from, until): (Instant, Instant),
    rec: &mut Recorder,
    thread: u64,
) -> WriteStats {
    let mut stats = WriteStats::default();
    let mut rng = derive(seed, STREAM_WRITER);
    let schema = std::sync::Arc::clone(engine.graph().schema());
    let begin = Instant::now();
    for burst in 0u32.. {
        let due = begin + WRITE_PERIOD * burst;
        if due >= until {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let measured = due >= from;
        if measured {
            let late = Instant::now().saturating_duration_since(due);
            stats.late_ns_max = stats.late_ns_max.max(late.as_nanos() as u64);
        }
        for _ in 0..WRITE_BURST {
            let start = Instant::now();
            let applied = stream.apply_random(engine.txn(), &schema, &mut rng);
            let end = Instant::now();
            if applied.as_ref().is_ok_and(|k| *k == UpdateKind::AddPerson) {
                stats.persons_added += 1;
            }
            match applied {
                // A refused write counts whenever it happens.
                Err(_) => stats.failed += 1,
                Ok(_) if measured => {
                    stats.lat_ns.push((end - start).as_nanos() as u64);
                    let request = trace::request_id(thread, stats.lat_ns.len() as u64);
                    rec.span("txn.update", 0, request, start, end);
                }
                Ok(_) => {}
            }
        }
    }
    stats
}

/// `Graph::for_each_neighbor` over the 2-hop neighbourhood of each start,
/// one thread: ns per edge visited, the fastest of three passes (one pass is
/// a few milliseconds, and a single hiccup of the box would own it).
fn scan_ns_per_edge(
    graph: &Graph,
    starts: &[VertexId],
    (label, dir): (&str, Direction),
    ts: Timestamp,
    rec: &mut Recorder,
) -> f64 {
    let label = graph
        .schema()
        .edge_label(label)
        .expect("scan label is in the schema");
    let mut hop1 = Vec::new();
    let mut pass = || {
        let (mut edges, mut total) = (0u64, Duration::ZERO);
        for &v in starts {
            let start = Instant::now();
            hop1.clear();
            let _ = graph.for_each_neighbor(v, dir, label, ts, |n| hop1.push(n));
            edges += hop1.len() as u64;
            for &n in &hop1 {
                let _ = graph.for_each_neighbor(n, dir, label, ts, |m| {
                    black_box(m);
                    edges += 1;
                });
            }
            let end = Instant::now();
            rec.span("storage.scan", 0, 0, start, end);
            total += end - start;
        }
        total.as_nanos() as f64 / edges.max(1) as f64
    };
    (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// The vertices the storage scan starts from: the primary pool's vertex
/// parameters (k-hop starts; persons of IS1–3).
fn scan_starts(env: &Env) -> Vec<VertexId> {
    env.pools[0]
        .inputs
        .iter()
        .filter(|i| !env.kind.is_snb() || i.plan < 3)
        .filter_map(|i| i.params[0].as_vertex())
        .collect()
}

fn scan(env: &Env, rec: &mut Recorder) -> f64 {
    let edge = if env.kind.is_snb() {
        ("knows", Direction::Both)
    } else {
        ("link", Direction::Out)
    };
    scan_ns_per_edge(
        &env.graph,
        &scan_starts(env),
        edge,
        env.front.read_ts(),
        rec,
    )
}

/// `encode_batch_into` / `decode_batch_borrowed` on a 32-traverser batch:
/// (encode ns, decode ns, bytes) per traverser.
fn codec_drive(rec: &mut Recorder) -> (f64, f64, f64) {
    const BATCH: u64 = 32;
    const REPS: u32 = 2_000;
    let batch: Vec<Traverser> = (0..BATCH)
        .map(|i| {
            let mut t = Traverser::root(QueryId(1), 0, VertexId(i * 7919), 2, Weight(1 << 20));
            t.set_slot(0, Value::Int(i as i64));
            t
        })
        .collect();
    let mut frame = Vec::new();
    let (mut enc, mut dec) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..REPS {
        frame.clear();
        let t0 = Instant::now();
        encode_batch_into(&mut frame, black_box(&batch), &[]);
        let t1 = Instant::now();
        let decoded = decode_batch_borrowed(black_box(&frame));
        let t2 = Instant::now();
        assert_eq!(decoded.map(|(ts, _)| ts.len()).ok(), Some(batch.len()));
        rec.span("codec.encode", 0, 0, t0, t1);
        rec.span("codec.decode", 0, 0, t1, t2);
        enc += t1 - t0;
        dec += t2 - t1;
    }
    let per = f64::from(REPS) * BATCH as f64;
    (
        enc.as_nanos() as f64 / per,
        dec.as_nanos() as f64 / per,
        frame.len() as f64 / BATCH as f64,
    )
}

/// Mean ns to clone one plan of the primary pool (the service clones the
/// plan on every submit).
fn plan_clone_ns(pool: &Pool) -> f64 {
    const REPS: u32 = 2_000;
    let start = Instant::now();
    for _ in 0..REPS {
        for plan in &pool.plans {
            black_box(black_box(plan).clone());
        }
    }
    start.elapsed().as_nanos() as f64 / (f64::from(REPS) * pool.plans.len() as f64)
}

/// IS4 (a two-property point lookup) alone, straight on the engine: the
/// fixed cost of one query with nothing else running, in µs.
fn fixed_cost_us(env: &Env, rec: &mut Recorder) -> f64 {
    let (Some(engine), true) = (env.front.engine(), env.kind.is_snb()) else {
        return 0.0;
    };
    let pool = &env.pools[0];
    let lookups: Vec<_> = pool.inputs.iter().filter(|i| i.plan == 3).collect();
    const ROUNDS: usize = 5;
    let mut total = Duration::ZERO;
    // One more round first, unmeasured, warms the path.
    for round in 0..=ROUNDS {
        for input in &lookups {
            let start = Instant::now();
            let _ = black_box(engine.query_timed(&pool.plans[3], input.params.clone()));
            let end = Instant::now();
            if round > 0 {
                rec.span("engine.fixed_cost", 0, 0, start, end);
                total += end - start;
            }
        }
    }
    total.as_secs_f64() * 1e6 / (ROUNDS * lookups.len()) as f64
}

/// After the `snb-rw` window, with the writer stopped: every pool entry
/// against the oracle at the final snapshot, and IS1 on the newest
/// acknowledged arrivals. Returns (attempted, failed).
fn verify_after_writes(env: &Env, seed: u64, persons_added: usize) -> (u64, u64) {
    let pool = &env.pools[0];
    let ts = env.front.read_ts();
    let mut quiet = Recorder::new(false, Instant::now(), 0);
    let mut ask = |plan: usize, params: Vec<Value>| {
        let at = (0, 0, Instant::now());
        env.front
            .exec(
                Priority::Interactive,
                &pool.plans[plan],
                params,
                &mut quiet,
                at,
            )
            .0
    };
    let (mut attempted, mut failed) = (0, 0);
    for i in 0..pool.inputs.len() {
        let input = &pool.inputs[i];
        let want = rows_digest(&pool.oracle(&env.graph, i, ts, seed));
        let got = ask(input.plan, input.params.clone());
        attempted += 1;
        failed += u64::from(!got.is_ok_and(|r| rows_digest(&r.rows) == want));
    }
    let (data, _) = env.snb.as_ref().expect("snb-rw keeps its dataset");
    let first_new = data.next_ids().0;
    for k in persons_added.saturating_sub(ARRIVALS_CHECKED)..persons_added {
        let id = first_new + k;
        let got = ask(0, vec![Value::Vertex(vid(Entity::Person, id))]);
        let arrived = Value::str(format!("Arrival{id}"));
        attempted += 1;
        // IS1's second column is lastName.
        failed +=
            u64::from(!got.is_ok_and(|r| r.rows.len() == 1 && r.rows[0].get(1) == Some(&arrived)));
    }
    (attempted, failed)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// `p` of `sorted` scaled by `unit_ns`; 0 for a class with no samples.
fn pct(sorted: &[u64], p: f64, unit_ns: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, p) as f64 / unit_ns
    }
}

/// What the load threads brought back from the window.
struct Window {
    /// One per closed-loop session of the primary class.
    reads: Vec<ReadStats>,
    /// The IC session (`snb-sessions`).
    heavy: Option<ReadStats>,
    /// The writer (`snb-rw`).
    writes: Option<WriteStats>,
    /// `net` / `transport` counter deltas over the window.
    counters: Counters,
}

impl Window {
    fn read_sessions(&self) -> impl Iterator<Item = &ReadStats> + Clone {
        self.reads.iter().chain(self.heavy.as_ref())
    }
}

/// Set up [`setup_reps`] times, shutting each discarded set-up down; returns
/// the last one (its spans in `rec`) and every set-up's duration in seconds.
fn set_up(args: &RunArgs, rec: &mut Recorder, violations: &mut Vec<String>) -> (Env, Vec<f64>) {
    let mut quiet = Recorder::new(false, Instant::now(), 0);
    let mut took_s = Vec::new();
    loop {
        let last = took_s.len() + 1 >= setup_reps(args.kind);
        let start = Instant::now();
        let env = setup(
            args.kind,
            args.seed,
            if last { &mut *rec } else { &mut quiet },
        );
        took_s.push(start.elapsed().as_secs_f64());
        if last {
            return (env, took_s);
        }
        if let Err(e) = env.front.shutdown() {
            violations.push(e);
        }
    }
}

/// Warm up, then run the timed window: the primary sessions plus the heavy
/// session or the writer, one thread and one recorder each.
fn measure(args: &RunArgs, env: &Env, recs: &mut [Recorder]) -> Window {
    let from = Instant::now() + WARMUP;
    let window = (from, from + Duration::from_secs(args.seconds));
    let front = &env.front;
    let check = if args.kind == Kind::SnbRw {
        Check::Width
    } else {
        Check::Digest
    };
    let orders: Vec<Vec<u32>> = (0..recs.len() as u64)
        .map(|t| visiting_order(args.seed, t))
        .collect();
    let (rec_other, rec_readers) = recs.split_last_mut().expect("one recorder per thread");
    let (order_other, thread_other) = (&orders[rec_readers.len()], orders.len() as u64);
    std::thread::scope(|s| {
        let sessions: Vec<_> = rec_readers
            .iter_mut()
            .zip(&orders)
            .enumerate()
            .map(|(t, (rec, order))| {
                let (pool, class) = (&env.pools[0], Priority::Interactive);
                let thread = t as u64 + 1;
                s.spawn(move || read_session(front, pool, order, class, check, window, rec, thread))
            })
            .collect();
        let other = s.spawn(|| match args.kind {
            Kind::SnbSessions => {
                let (pool, class) = (&env.pools[1], Priority::Heavy);
                let heavy = read_session(
                    front,
                    pool,
                    order_other,
                    class,
                    check,
                    window,
                    rec_other,
                    thread_other,
                );
                (Some(heavy), None)
            }
            Kind::SnbRw => {
                let engine = front.engine().expect("snb-rw runs in process");
                let (_, stream) = env.snb.as_ref().expect("snb-rw keeps its stream");
                let writes =
                    writer_session(engine, stream, args.seed, window, rec_other, thread_other);
                (None, Some(writes))
            }
            Kind::KhopLocal | Kind::KhopTcp => (None, None),
        });
        std::thread::sleep(from.saturating_duration_since(Instant::now()));
        let before = front.counters();
        let reads = sessions
            .into_iter()
            .map(|h| h.join().expect("read session"))
            .collect();
        let (heavy, writes) = other.join().expect("heavy session or writer");
        Window {
            reads,
            heavy,
            writes,
            counters: front.counters().since(&before),
        }
    })
}

pub fn run(args: &RunArgs) -> Outcome {
    let epoch = Instant::now();
    let mut violations = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let mut rec = Recorder::new(args.traced, epoch, 0);
    let (mut env, setup_s) = set_up(args, &mut rec, &mut violations);
    if args.inject_wrong_expectation {
        env.pools[0].digests[0] ^= 1;
        env.pools[0].widths[0] += 1;
    }
    m.insert("setup_s", median_f64(&setup_s));

    // Single-threaded drives of single layers (traced run only).
    if args.traced {
        let (enc, dec, bytes) = codec_drive(&mut rec);
        m.insert("codec.encode_ns_per_traverser", enc);
        m.insert("codec.decode_ns_per_traverser", dec);
        m.insert("codec.bytes_per_traverser", bytes);
        m.insert("query.plan_clone_ns", plan_clone_ns(&env.pools[0]));
        m.insert("storage.scan_ns_per_edge", scan(&env, &mut rec));
        m.insert("engine.fixed_cost_us", fixed_cost_us(&env, &mut rec));
    }

    let mut recs: Vec<Recorder> = (0..=primary_sessions(args.kind))
        .map(|i| Recorder::new(args.traced, epoch, i as u32 + 1))
        .collect();
    let w = measure(args, &env, &mut recs);

    // Post-window checks.
    let mut attempted: u64 = w.read_sessions().map(ReadStats::attempted).sum();
    let mut failed: u64 = w.read_sessions().map(|r| r.failed).sum();
    if let Some(writes) = &w.writes {
        let (more, bad) = verify_after_writes(&env, args.seed, writes.persons_added);
        attempted += writes.lat_ns.len() as u64 + writes.failed + more;
        failed += writes.failed + bad;
    }
    if args.traced {
        m.insert("storage.scan_ns_per_edge_after", scan(&env, &mut rec));
    }
    let totals = env.front.counters();
    if totals.send_errors != 0 || totals.decode_errors != 0 {
        violations.push(format!(
            "send_errors={} decode_errors={}",
            totals.send_errors, totals.decode_errors
        ));
    }
    if args.kind != Kind::KhopTcp && totals.wire_packets != 0 {
        violations.push(format!(
            "{} wire packets in a one-node topology",
            totals.wire_packets
        ));
    }
    let svc = env.front.svc_stats();
    if let Some(s) = svc {
        if !s.reconciles() || s.in_flight != 0 || s.rejected != 0 || s.deadline_expired != 0 {
            violations.push(format!("service counters do not reconcile cleanly: {s:?}"));
        }
    }
    let rss = peak_rss_mb();

    // Tear-down.
    let Env { front, pools, .. } = env;
    let shutdown = front.shutdown().unwrap_or_else(|e| {
        violations.push(e);
        Duration::ZERO
    });

    // End-to-end metrics: the primary class (k-hop / IS reads).
    let lat = sorted(
        w.reads
            .iter()
            .flat_map(|r| r.lat_ns.iter().copied())
            .collect(),
    );
    let qps: f64 = w.reads.iter().map(ReadStats::qps).sum();
    if lat.is_empty() {
        violations.push("no verified read in the window".into());
    }
    m.insert("qps", qps);
    let mean_ns = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64;
    m.insert("mean_ms", mean_ns / 1e6);
    m.insert("peak_rss_mb", rss);

    let mut spans = rec.into_spans();
    for r in recs {
        spans.extend(r.into_spans());
    }
    if args.traced {
        let by_name = trace::summarize(&spans, &trace::self_times(&spans));
        let mean_us = |name: &str| by_name.get(name).map_or(0.0, |t| t.mean_us());
        let total_s = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        let session_s = w.read_sessions().map(|r| r.elapsed.as_secs_f64());
        let window_s = session_s.clone().fold(0.0, f64::max);

        m.insert("bench.spans", spans.len() as f64);
        m.insert(
            "bench.verify_share",
            total_s("bench.verify") / session_s.sum::<f64>().max(1e-9),
        );
        m.insert("client.samples", lat.len() as f64);
        m.insert("client.qps", qps);
        m.insert("client.p50_ms", pct(&lat, 0.50, 1e6));
        m.insert("client.p99_ms", pct(&lat, 0.99, 1e6));
        if !enough_beyond(lat.len(), 0.99) {
            eprintln!(
                "note: {} samples, fewer than 10 beyond p99 — client.p99_ms is a hiccup, not a tail",
                lat.len()
            );
        }
        m.insert("query.plan_build_us", total_s("query.plan_build") * 1e6);
        m.insert("storage.build_s", total_s("storage.build"));

        let seq_us = |p: &Pool| p.seq_ns as f64 / 1e3 / POOL_SIZE as f64;
        let primary_steps: u64 = w.reads.iter().map(|r| r.steps).sum();
        let steps_per_query = primary_steps as f64 / lat.len().max(1) as f64;
        m.insert("pstm.seq_us_per_query", seq_us(&pools[0]));
        m.insert(
            "pstm.rows_per_query",
            pools[0].seq_rows as f64 / POOL_SIZE as f64,
        );
        m.insert("pstm.steps_per_query", steps_per_query);
        m.insert(
            "pstm.seq_ns_per_step",
            seq_us(&pools[0]) * 1e3 / steps_per_query.max(1.0),
        );
        let all_steps: u64 = w.read_sessions().map(|r| r.steps).sum();
        m.insert("engine.steps_per_s", all_steps as f64 / window_s.max(1e-9));
        let mut useful = qps * seq_us(&pools[0]);
        if let Some(h) = &w.heavy {
            let ic = sorted(h.lat_ns.clone());
            m.insert("pstm.ic_seq_us_per_query", seq_us(&pools[1]));
            m.insert("client.ic_samples", ic.len() as f64);
            m.insert("client.ic_qps", h.qps());
            m.insert("client.ic_p50_ms", pct(&ic, 0.50, 1e6));
            m.insert("client.ic_p90_ms", pct(&ic, 0.90, 1e6));
            useful += h.qps() * seq_us(&pools[1]);
        }
        m.insert("engine.useful_share", useful / (f64::from(WORKERS) * 1e6));
        m.insert("engine.submit_call_us", mean_us("engine.submit"));
        m.insert("engine.wait_us", mean_us("engine.wait"));
        let per_read = |f: fn(&ReadStats) -> &Vec<u64>| {
            sorted(w.reads.iter().flat_map(|r| f(r).iter().copied()).collect())
        };
        let engine_lat = per_read(|r| &r.engine_ns);
        m.insert("engine.latency_p50_ms", pct(&engine_lat, 0.50, 1e6));
        m.insert("engine.latency_p99_ms", pct(&engine_lat, 0.99, 1e6));

        let queries = w.read_sessions().map(|r| r.lat_ns.len()).sum::<usize>();
        let c = &w.counters;
        for (name, count) in [
            ("net.traverser_msgs_per_query", c.traverser_msgs),
            ("net.same_node_msgs_per_query", c.same_node_msgs),
            ("net.progress_msgs_per_query", c.progress_msgs),
            ("net.wire_packets_per_query", c.wire_packets),
            ("net.wire_bytes_per_query", c.wire_bytes),
            ("transport.frames_per_query", c.frames_sent),
            ("transport.bytes_per_query", c.socket_bytes_sent),
            ("transport.write_syscalls_per_query", c.write_syscalls),
            ("transport.read_syscalls_per_query", c.read_syscalls),
        ] {
            m.insert(name, count as f64 / queries.max(1) as f64);
        }
        m.insert("net.decode_errors", totals.decode_errors as f64);
        m.insert("transport.send_errors", totals.send_errors as f64);
        m.insert(
            "transport.mesh_setup_ms",
            total_s("transport.mesh_setup") * 1e3,
        );
        m.insert("transport.shutdown_ms", shutdown.as_secs_f64() * 1e3);

        if let Some(s) = svc {
            let overhead = per_read(|r| &r.overhead_ns);
            m.insert("service.submit_call_us", mean_us("service.submit"));
            m.insert("service.overhead_us_p50", pct(&overhead, 0.50, 1e3));
            m.insert("service.overhead_us_p99", pct(&overhead, 0.99, 1e3));
            m.insert("service.admitted", s.admitted as f64);
            m.insert("service.completed", s.completed as f64);
            m.insert("service.rejected", s.rejected as f64);
            m.insert("service.deadline_expired", s.deadline_expired as f64);
        }
        if let Some(writes) = &w.writes {
            let wl = sorted(writes.lat_ns.clone());
            m.insert("txn.update_us_mean", mean_us("txn.update"));
            m.insert("txn.aborts", writes.failed as f64);
            m.insert("client.write_p50_us", pct(&wl, 0.50, 1e3));
            m.insert("client.write_p99_us", pct(&wl, 0.99, 1e3));
            m.insert("bench.writer_late_ms_max", writes.late_ns_max as f64 / 1e6);
        }
    }

    Outcome {
        metrics: m,
        attempted,
        failed,
        violations,
        spans,
    }
}
