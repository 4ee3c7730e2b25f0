//! Deterministic simulation mode (DST): the whole cluster on one thread.
//!
//! [`SimCluster`] builds the same workers, coordinator, and network fabric
//! as [`crate::engine::GraphDance`], but spawns **no threads**. Every
//! component becomes a cooperatively-scheduled actor driven through its
//! non-blocking `pump` quantum, a seeded RNG picks which runnable actor
//! goes next, and the thread's clock is frozen
//! ([`graphdance_common::time::sim`]) so propagation delays, query
//! deadlines, and the liveness watchdog are pure functions of the
//! simulation schedule. Consequences:
//!
//! * **Reproducibility** — the same `(graph, config, query, seed)` tuple
//!   produces a bit-identical event trace and result, run after run. Any
//!   interleaving bug a seed finds replays forever.
//! * **Schedule exploration** — sweeping seeds sweeps actor interleavings,
//!   covering orderings a wall-clock run would need luck to hit.
//! * **Fault schedules** — [`SimFaults`](crate::config::SimFaults) rolls
//!   batch drops, duplicates, packet reorderings, delay spikes, and worker
//!   stalls from a second seed-derived stream, so a fault scenario is named
//!   by `(seed, SimFaults)` alone. Reorderings and delay spikes keep every
//!   `(source node → destination node)` path FIFO, as every real backend
//!   does (a channel, the egress/ingress pair, one stream per direction):
//!   they reorder packets of *different* source nodes only.
//!
//! The harness crate (`graphdance-sim`) layers oracle differential
//! checking and repro minimization on top.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};
use rand::rngs::SmallRng;
use rand::Rng;

use graphdance_common::time::{now, sim as vclock};
use graphdance_common::{fxhash, GdError, GdResult, NodeId, PartId, QueryId, Value};
use graphdance_pstm::Row;
use graphdance_query::plan::Plan;
use graphdance_storage::{Graph, Timestamp};

use crate::config::{EngineConfig, SimFaults};
use crate::coordinator::Coordinator;
use crate::engine::{assemble, send_submit, Assembly, QueryResult};
use crate::messages::{worker_migration_qid, CoordMsg, WorkerMsg};
use crate::net::{EgressPump, Fabric, Fate, IngressEvent, NetChannels, WireMsg};
use crate::worker::{PumpStatus, Worker};

/// RNG stream ids for the simulator's own streams, far away from the
/// worker streams (`0..num_parts`) and the coordinator stream (`u64::MAX`).
/// `FAULT_STREAM` is `pub(crate)` because the network fabric derives its
/// `drop_batch_nth` sequencing RNG from the same stream id, so net-level
/// fault ordering is named by the seed alone (no ad-hoc atomics).
const SCHED_STREAM: u64 = u64::MAX - 1;
pub(crate) const FAULT_STREAM: u64 = u64::MAX - 2;

/// Hard cap on stored trace events; the fingerprint and total keep
/// covering every event past the cap, so trace comparison stays exact
/// while memory stays bounded.
const TRACE_CAP: usize = 1 << 17;

/// An actor the scheduler can run for one quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimActor {
    /// Worker `i` (one graph partition).
    Worker(u32),
    /// The coordinator / progress tracker.
    Coordinator,
    /// Node `n`'s tier-2 egress pump.
    Egress(u32),
    /// Node `n`'s ingress (delivery) pump.
    Ingress(u32),
}

/// One entry in the deterministic event trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEventKind {
    /// An actor ran one quantum.
    Run(SimActor),
    /// A worker's quantum was stolen by an injected stall.
    Stall(u32),
    /// Nothing was runnable; the virtual clock jumped to the next timer.
    AdvanceClock,
    /// An injected fault fired.
    DropBatch,
    DupBatch,
    Reorder,
    DelaySpike,
    /// A migration control message was dropped / duplicated (the lossy
    /// faults also cover the migration protocol's control plane).
    DropMigCtrl,
    DupMigCtrl,
}

impl SimEventKind {
    /// Stable integer encoding, mixed into the trace fingerprint.
    fn code(self) -> u64 {
        match self {
            SimEventKind::Run(SimActor::Worker(i)) => (1 << 32) | i as u64,
            SimEventKind::Run(SimActor::Coordinator) => 2 << 32,
            SimEventKind::Run(SimActor::Egress(i)) => (3 << 32) | i as u64,
            SimEventKind::Run(SimActor::Ingress(i)) => (4 << 32) | i as u64,
            SimEventKind::Stall(i) => (5 << 32) | i as u64,
            SimEventKind::AdvanceClock => 6 << 32,
            SimEventKind::DropBatch => 7 << 32,
            SimEventKind::DupBatch => 8 << 32,
            SimEventKind::Reorder => 9 << 32,
            SimEventKind::DelaySpike => 10 << 32,
            SimEventKind::DropMigCtrl => 11 << 32,
            SimEventKind::DupMigCtrl => 12 << 32,
        }
    }
}

/// A trace event: what happened, at which virtual nanosecond.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimEvent {
    /// Virtual time of the event (nanoseconds since the freeze).
    pub at_ns: u64,
    /// What happened.
    pub kind: SimEventKind,
}

/// The deterministic event trace of one simulation: the scheduling
/// decisions and injected faults in order, plus a running fingerprint.
/// Two runs are the same execution iff their traces are `==` (the
/// fingerprint covers events beyond the storage cap).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimTrace {
    events: Vec<SimEvent>,
    total: u64,
    fingerprint: u64,
}

impl SimTrace {
    fn record(&mut self, kind: SimEventKind) {
        let at_ns = vclock::now_nanos();
        self.fingerprint = fxhash::hash_u64(self.fingerprint ^ kind.code() ^ at_ns.rotate_left(17));
        self.total += 1;
        if self.events.len() < TRACE_CAP {
            self.events.push(SimEvent { at_ns, kind });
        }
    }

    /// Stored events (capped at an internal limit; see [`SimTrace::total`]).
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Total events recorded, including any beyond the storage cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Order-sensitive hash over every event (including capped ones).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// How many of each injected fault actually fired during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub drops: u64,
    pub dups: u64,
    pub reorders: u64,
    pub delay_spikes: u64,
    pub stalls: u64,
}

impl FaultCounts {
    /// Did any lossy fault (drop or duplicate) fire?
    pub fn lossy(&self) -> bool {
        self.drops > 0 || self.dups > 0
    }
}

/// What one [`SimCluster::step`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimStep {
    /// An actor ran (or stalled).
    Ran,
    /// Nothing was runnable; the clock advanced to the next timer.
    AdvancedClock,
    /// Nothing is runnable and no timer is pending: the cluster is fully
    /// quiescent.
    Quiescent,
}

/// A pending query inside the simulation. The result is pulled by
/// [`SimCluster::run`]; there is no blocking `wait` because nothing makes
/// progress unless the simulation is stepped.
pub struct SimHandle {
    id: QueryId,
    rx: Receiver<GdResult<QueryResult>>,
}

impl SimHandle {
    /// The pre-assigned query id (pass to [`SimCluster::cancel`]).
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// The result, if the simulation has produced it.
    pub fn try_result(&self) -> Option<GdResult<QueryResult>> {
        self.rx.try_recv().ok()
    }
}

/// A packet sitting in a simulated ingress queue until its virtual
/// delivery time.
struct PendingPacket {
    at: Instant,
    /// Arrival order, for stable FIFO among same-instant packets.
    seq: u64,
    /// The sending node.
    src: NodeId,
    /// The encoded body, decoded at delivery.
    body: Vec<u8>,
}

impl PartialEq for PendingPacket {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingPacket {}
impl PartialOrd for PendingPacket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingPacket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// One node's ingress, simulated: buffered packets ordered by virtual
/// delivery time.
struct IngressSim {
    rx: Receiver<IngressEvent>,
    pending: BinaryHeap<Reverse<PendingPacket>>,
    seq: u64,
    /// Per source node, the latest delivery instant scheduled so far: a
    /// delay spike holds back the packets behind it on its path too.
    path_due: Vec<Instant>,
}

impl IngressSim {
    /// Is there anything to pull in or deliver right now?
    fn runnable(&self, now: Instant) -> bool {
        !self.rx.is_empty() || self.pending.peek().is_some_and(|p| p.0.at <= now)
    }

    /// Earliest future delivery instant, if any.
    fn next_due(&self) -> Option<Instant> {
        self.pending.peek().map(|p| p.0.at)
    }
}

/// The deterministically-simulated cluster. See the module docs.
pub struct SimCluster {
    fabric: Arc<Fabric>,
    coord_tx: Sender<CoordMsg>,
    workers: Vec<Worker>,
    coordinator: Coordinator,
    egress: Vec<EgressPump>,
    ingress: Vec<IngressSim>,
    /// Scheduling decisions (which runnable actor goes next).
    sched_rng: SmallRng,
    /// Fault-schedule decisions (drop/dup/reorder/delay/stall rolls).
    fault_rng: SmallRng,
    faults: SimFaults,
    counts: FaultCounts,
    /// Per-worker injected-stall expiry (virtual time).
    stalled_until: Vec<Option<Instant>>,
    trace: SimTrace,
    steps: u64,
    max_steps: u64,
    /// Pre-assigned query ids (single-threaded, so a plain counter).
    next_qid: u64,
    /// Unfreezes the thread's clock when the cluster drops. Declared last:
    /// the actors above read `now()` during their own teardown.
    _clock: vclock::ClockGuard,
}

impl SimCluster {
    /// Build a simulated cluster. Freezes the calling thread's clock for
    /// the cluster's lifetime (panics if it is already frozen — one
    /// simulation per thread at a time).
    ///
    /// # Panics
    /// Panics if the graph was built for a different topology than
    /// `config` describes.
    pub fn new(graph: Graph, config: EngineConfig) -> SimCluster {
        let clock = vclock::freeze_clock();
        let Assembly {
            fabric,
            net:
                NetChannels {
                    egress_rx,
                    ingress_tx,
                    ingress_rx,
                },
            coord_tx,
            workers,
            coordinator,
            ..
        } = assemble(&graph, &config, 0..config.nodes, Fabric::new_sim);
        // Node 0 is among the hosted nodes, so `assemble` built one.
        let coordinator = coordinator.expect("sim hosts the coordinator"); // lint: allow(hot-path-panics)
        let egress: Vec<EgressPump> = egress_rx
            .into_iter()
            .enumerate()
            .map(|(n, rx)| {
                let src = NodeId(n as u32);
                EgressPump::new(Arc::clone(&fabric), src, rx, ingress_tx.clone())
            })
            .collect();
        let ingress: Vec<IngressSim> = ingress_rx
            .into_iter()
            .map(|rx| IngressSim {
                rx,
                pending: BinaryHeap::new(),
                seq: 0,
                path_due: vec![now(); config.nodes as usize],
            })
            .collect();
        SimCluster {
            fabric,
            coord_tx,
            stalled_until: vec![None; workers.len()],
            workers,
            coordinator,
            egress,
            ingress,
            sched_rng: graphdance_common::rng::derive(config.seed, SCHED_STREAM),
            fault_rng: graphdance_common::rng::derive(config.seed, FAULT_STREAM),
            faults: config.fault.sim,
            counts: FaultCounts::default(),
            trace: SimTrace::default(),
            steps: 0,
            max_steps: 20_000_000,
            next_qid: 1,
            _clock: clock,
        }
    }

    /// The network fabric (counters, conservation ledger).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The deterministic event trace so far.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// How many injected faults actually fired so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.counts
    }

    /// Scheduling quanta executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Submit a query at snapshot `read_ts` (defaults to 1 — the
    /// simulated cluster takes a static graph, so the initial snapshot
    /// sees everything). Nothing runs until [`SimCluster::step`] or
    /// [`SimCluster::run`] is called.
    pub fn submit_at(&mut self, plan: &Plan, params: Vec<Value>, read_ts: Timestamp) -> SimHandle {
        self.submit_with_deadline(plan, params, read_ts, None)
    }

    /// Submit with a per-query deadline override on the virtual clock
    /// (`None` = the engine-wide `query_timeout` default).
    pub fn submit_with_deadline(
        &mut self,
        plan: &Plan,
        params: Vec<Value>,
        read_ts: Timestamp,
        deadline: Option<Instant>,
    ) -> SimHandle {
        let id = QueryId(self.next_qid);
        self.next_qid += 1;
        let (reply, rx) = bounded(1);
        let (plan, reply) = (plan.clone(), reply.into());
        let undelivered = send_submit(&self.coord_tx, id, plan, params, read_ts, deadline, reply);
        // The coordinator owns the receiver for the cluster's lifetime.
        debug_assert!(undelivered.is_none(), "sim coordinator inbox open");
        SimHandle { id, rx }
    }

    /// Request cancellation of an in-flight query. Takes effect as the
    /// simulation steps; the handle resolves to `QueryCancelled` once the
    /// drain protocol completes (or to the actual result if the query
    /// beat the cancel to the finish line).
    pub fn cancel(&mut self, query: QueryId) {
        self.coord_tx
            .send(CoordMsg::Cancel { query })
            .expect("sim coordinator inbox open"); // lint: allow(hot-path-panics)
    }

    /// Submit at the initial snapshot.
    pub fn submit(&mut self, plan: &Plan, params: Vec<Value>) -> SimHandle {
        self.submit_at(plan, params, 1)
    }

    /// Step the simulation until `handle` resolves. Errors out (with the
    /// step count) if the cluster quiesces without replying or the step
    /// budget runs dry — both mean a lost completion, which the
    /// conservation checkers should have flagged first.
    pub fn run(&mut self, handle: &SimHandle) -> GdResult<QueryResult> {
        loop {
            if let Some(r) = handle.try_result() {
                return r;
            }
            if self.steps >= self.max_steps {
                return Err(GdError::Internal(format!(
                    "simulation step budget exhausted after {} quanta",
                    self.steps
                )));
            }
            match self.step() {
                SimStep::Ran | SimStep::AdvancedClock => {}
                SimStep::Quiescent => {
                    return handle.try_result().unwrap_or_else(|| {
                        Err(GdError::Internal(format!(
                            "simulation quiesced without a query reply after {} quanta",
                            self.steps
                        )))
                    });
                }
            }
        }
    }

    /// Submit + run + settle: the synchronous convenience used by tests.
    pub fn query(&mut self, plan: &Plan, params: Vec<Value>) -> GdResult<Vec<Row>> {
        Ok(self.query_timed(plan, params)?.rows)
    }

    /// Like [`SimCluster::query`] but returns the full (virtual-latency)
    /// result.
    pub fn query_timed(&mut self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        let handle = self.submit(plan, params);
        let result = self.run(&handle);
        self.settle();
        result
    }

    /// Step until the cluster is fully quiescent (drains post-completion
    /// traffic such as the `QueryEnd`s spreading along a query's
    /// introductions, so back-to-back queries start from identical cluster
    /// state).
    pub fn settle(&mut self) {
        while self.steps < self.max_steps {
            if self.step() == SimStep::Quiescent {
                return;
            }
        }
    }

    /// One scheduling quantum: pick a runnable actor with the seeded RNG
    /// and run it, or advance the virtual clock to the next timer when
    /// nothing is runnable.
    pub fn step(&mut self) -> SimStep {
        self.steps += 1;
        let now = now();
        // Expired stalls come back onto the runnable set. Clearing them
        // here (rather than lazily) keeps the quiescence check exact: an
        // expired timer must never be re-advanced to.
        for s in &mut self.stalled_until {
            if s.is_some_and(|t| t <= now) {
                *s = None;
            }
        }
        let mut runnable: Vec<SimActor> = Vec::new();
        for (i, w) in self.workers.iter().enumerate() {
            if self.stalled_until[i].is_none() && w.has_work() {
                runnable.push(SimActor::Worker(i as u32));
            }
        }
        if self.coordinator.has_work() {
            runnable.push(SimActor::Coordinator);
        }
        for (i, e) in self.egress.iter().enumerate() {
            if e.has_pending() {
                runnable.push(SimActor::Egress(i as u32));
            }
        }
        for (i, ing) in self.ingress.iter().enumerate() {
            if ing.runnable(now) {
                runnable.push(SimActor::Ingress(i as u32));
            }
        }
        if runnable.is_empty() {
            return match self.next_timer() {
                Some(t) => {
                    vclock::advance_to(t);
                    self.trace.record(SimEventKind::AdvanceClock);
                    SimStep::AdvancedClock
                }
                None => SimStep::Quiescent,
            };
        }
        let actor = runnable[self.sched_rng.gen_range(0..runnable.len())];
        if let SimActor::Worker(i) = actor {
            if self.faults.stall_permille > 0
                && roll(&mut self.fault_rng, self.faults.stall_permille)
            {
                self.stalled_until[i as usize] = Some(now + self.faults.stall);
                self.counts.stalls += 1;
                self.trace.record(SimEventKind::Stall(i));
                return SimStep::Ran;
            }
        }
        match actor {
            SimActor::Worker(i) => {
                // `Stopped` cannot happen: the simulator never sends
                // `Shutdown`; teardown is by drop.
                let _ = self.workers[i as usize].pump();
            }
            SimActor::Coordinator => {
                let _: PumpStatus = self.coordinator.pump();
            }
            SimActor::Egress(i) => {
                let _ = self.egress[i as usize].pump();
            }
            SimActor::Ingress(i) => self.pump_ingress(i as usize),
        }
        self.trace.record(SimEventKind::Run(actor));
        SimStep::Ran
    }

    /// The earliest future instant at which anything becomes runnable:
    /// a buffered packet's delivery time, a stall expiry, a query deadline,
    /// or the liveness watchdog.
    fn next_timer(&self) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut fold = |t: Instant| match next {
            Some(cur) if cur <= t => {}
            _ => next = Some(t),
        };
        for ing in &self.ingress {
            if let Some(t) = ing.next_due() {
                fold(t);
            }
        }
        for s in self.stalled_until.iter().flatten() {
            fold(*s);
        }
        match (next, self.coordinator.next_timer()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// One ingress quantum: pull newly-transmitted packets into the
    /// time-ordered buffer (applying delay-spike faults), then deliver
    /// everything due, applying reorder/drop/duplicate faults. Both
    /// reorderings keep each source node's packets in the order it sent
    /// them.
    fn pump_ingress(&mut self, i: usize) {
        let now = now();
        // Intake: packets the egress pump transmitted.
        while let Ok(ev) = self.ingress[i].rx.try_recv() {
            match ev {
                IngressEvent::Packet {
                    src,
                    mut deliver_at,
                    body,
                } => {
                    if self.faults.delay_permille > 0
                        && roll(&mut self.fault_rng, self.faults.delay_permille)
                    {
                        deliver_at += self.faults.delay_spike;
                        self.counts.delay_spikes += 1;
                        self.trace.record(SimEventKind::DelaySpike);
                    }
                    let ing = &mut self.ingress[i];
                    let path_due = &mut ing.path_due[src.as_usize()];
                    *path_due = deliver_at.max(*path_due);
                    ing.seq += 1;
                    ing.pending.push(Reverse(PendingPacket {
                        at: *path_due,
                        seq: ing.seq,
                        src,
                        body,
                    }));
                }
                // The simulator tears down by drop, not by Shutdown.
                IngressEvent::Shutdown => {}
            }
        }
        // Delivery: everything due under the current virtual clock.
        let mut due: Vec<PendingPacket> = Vec::new();
        while self.ingress[i]
            .pending
            .peek()
            .is_some_and(|p| p.0.at <= now)
        {
            // The heap is non-empty by the check above.
            due.push(self.ingress[i].pending.pop().expect("peeked").0); // lint: allow(hot-path-panics)
        }
        if due.iter().any(|p| p.src != due[0].src)
            && self.faults.reorder_permille > 0
            && roll(&mut self.fault_rng, self.faults.reorder_permille)
        {
            // Reverse the order in which the source nodes' packets come,
            // each source's own packets staying in sending order.
            let mut srcs: Vec<NodeId> = Vec::new();
            for p in &due {
                if !srcs.contains(&p.src) {
                    srcs.push(p.src);
                }
            }
            due.sort_by_key(|p| Reverse(srcs.iter().position(|s| *s == p.src)));
            self.counts.reorders += 1;
            self.trace.record(SimEventKind::Reorder);
        }
        let fabric = Arc::clone(&self.fabric);
        for packet in due {
            fabric.deliver_packet(&packet.body, |msg| self.fault_fate(msg));
        }
    }

    /// Roll the drop / duplicate faults for one decoded message. They apply
    /// to traverser batches (the payloads the conservation ledger tracks)
    /// and to the migration protocol's control messages, so the DST battery
    /// can prove the state machine never hangs the cluster or corrupts
    /// routing under a lost or repeated freeze/install/commit/retire/ack. A
    /// dropped message leaves `delivered` short of `sent`, which quiesce
    /// checking / the watchdog must turn into a diagnostic rather than a
    /// silent wrong answer; a duplicate is its bytes decoded again.
    /// Other control traffic stays reliable and consumes no fault
    /// randomness, so existing repro schedules replay unchanged.
    fn fault_fate(&mut self, msg: &WireMsg) -> Fate {
        let (drop, dup) = match msg {
            WireMsg::Worker {
                msg: WorkerMsg::Batch(_),
                ..
            } => (SimEventKind::DropBatch, SimEventKind::DupBatch),
            WireMsg::Worker { msg, .. } if worker_migration_qid(msg).is_some() => {
                (SimEventKind::DropMigCtrl, SimEventKind::DupMigCtrl)
            }
            WireMsg::Coord(CoordMsg::MigrateAck { .. }) => {
                (SimEventKind::DropMigCtrl, SimEventKind::DupMigCtrl)
            }
            _ => return Fate::Deliver,
        };
        if self.faults.drop_permille > 0 && roll(&mut self.fault_rng, self.faults.drop_permille) {
            self.counts.drops += 1;
            self.trace.record(drop);
            return Fate::Drop;
        }
        if self.faults.dup_permille > 0 && roll(&mut self.fault_rng, self.faults.dup_permille) {
            self.counts.dups += 1;
            self.trace.record(dup);
            return Fate::Duplicate;
        }
        Fate::Deliver
    }

    /// Ask the coordinator to migrate the given vertices (an empty list
    /// requests a plan from the hot-vertex sketch). Takes effect as the
    /// simulation steps.
    pub fn rebalance(&mut self, moves: Vec<(graphdance_common::VertexId, PartId)>) {
        self.coord_tx
            .send(CoordMsg::Rebalance { moves })
            .expect("sim coordinator inbox open"); // lint: allow(hot-path-panics)
    }

    /// Migrations the coordinator has started but not fully retired. Under
    /// lossy faults a dropped control message leaves a migration parked
    /// here forever — visible, never a hang.
    pub fn pending_migrations(&self) -> usize {
        self.coordinator.pending_migrations()
    }

    /// Migrations fully retired since the cluster was built.
    pub fn migrations_done(&self) -> u64 {
        self.coordinator.migrations_done()
    }

    /// Total traversers redirected by source-side forwarding stubs.
    pub fn forwarded(&self) -> u64 {
        self.workers.iter().map(Worker::forwarded).sum()
    }

    /// The workers (by index) that hold anything of `query` right now.
    pub fn holders(&self, query: QueryId) -> Vec<u32> {
        (self.workers.iter().enumerate())
            .filter(|(_, w)| w.holds(query))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// A `(worker, query)` where a worker still holds a query this cluster
    /// was submitted. Called on a quiescent cluster whose queries have all
    /// resolved, `Some` means a teardown missed a worker: with no broadcast
    /// left, `QueryEnd` reaches a worker only along the introductions.
    pub fn leaked_query(&self) -> Option<(u32, QueryId)> {
        (1..self.next_qid).map(QueryId).find_map(|q| {
            let w = *self.holders(q).first()?;
            Some((w, q))
        })
    }
}

/// One per-mille Bernoulli roll. Callers gate on `permille > 0` first so
/// disabled faults consume no randomness (keeping fault streams identical
/// across configs that differ only in unrelated knobs).
fn roll(rng: &mut SmallRng, permille: u16) -> bool {
    rng.gen_range(0..1000u32) < permille as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{khop_plan, ring};
    use graphdance_common::{Partitioner, VertexId};

    #[test]
    fn sim_khop_matches_threaded_answer() {
        let g = ring(16, Partitioner::new(2, 2));
        let plan = khop_plan(&g, 3);
        let mut sim = SimCluster::new(g, EngineConfig::new(2, 2));
        let mut rows = sim.query(&plan, vec![Value::Vertex(VertexId(0))]).unwrap();
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        let got: Vec<u64> = rows.iter().map(|r| r[0].as_vertex().unwrap().0).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(sim.trace().total() > 0, "scheduling decisions were traced");
    }

    #[test]
    fn sim_virtual_latency_is_positive_and_deterministic() {
        let lat = |seed: u64| {
            let g = ring(24, Partitioner::new(2, 2));
            let plan = khop_plan(&g, 4);
            let mut sim = SimCluster::new(g, EngineConfig::new(2, 2).with_seed(seed));
            sim.query_timed(&plan, vec![Value::Vertex(VertexId(0))])
                .unwrap()
                .latency
        };
        let a = lat(1);
        let b = lat(1);
        assert!(a > std::time::Duration::ZERO, "virtual latency accrued");
        assert_eq!(a, b, "same seed, same virtual latency, bit for bit");
    }

    #[test]
    fn back_to_back_queries_reuse_a_settled_cluster() {
        let g = ring(12, Partitioner::new(1, 2));
        let plan = khop_plan(&g, 2);
        let mut sim = SimCluster::new(g, EngineConfig::new(1, 2));
        for start in 0..4u64 {
            let rows = sim
                .query(&plan, vec![Value::Vertex(VertexId(start))])
                .unwrap();
            assert_eq!(rows.len(), 2, "2-hop from {start} on a ring");
        }
    }

    #[test]
    fn sim_migration_retires_and_preserves_answers() {
        let g = ring(16, Partitioner::new(2, 2));
        let plan = khop_plan(&g, 3);
        let mut sim = SimCluster::new(g, EngineConfig::new(2, 2));
        let sorted = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
            rows
        };
        let before = sorted(sim.query(&plan, vec![Value::Vertex(VertexId(0))]).unwrap());
        // Move two vertices off their hash homes while the cluster idles;
        // with no active queries the retire gate opens immediately.
        let p = sim.fabric().partitioner();
        let moves: Vec<_> = [VertexId(1), VertexId(2)]
            .into_iter()
            .map(|v| (v, PartId((p.part_of(v).0 + 1) % p.num_parts())))
            .collect();
        sim.rebalance(moves);
        sim.settle();
        assert_eq!(sim.migrations_done(), 2, "both migrations fully retired");
        assert_eq!(sim.pending_migrations(), 0);
        // New queries pin the bumped routing version and must see the
        // identical answer through the migrated placement.
        let after = sorted(sim.query(&plan, vec![Value::Vertex(VertexId(0))]).unwrap());
        assert_eq!(before, after, "rows survive live migration");
    }

    /// A single-owner lookup on 1 × 2 costs three control messages — the
    /// owner's `QueryBegin`, `StartSource` and `QueryEnd` (a begin and an
    /// end for every worker made it five) — and the other worker is sent
    /// nothing at all.
    #[test]
    fn single_owner_lookup_sends_three_control_messages() {
        let g = ring(8, Partitioner::new(1, 2));
        let mut b = graphdance_query::QueryBuilder::new(g.schema());
        b.v_param(0).has_label("Person");
        let plan = b.compile().unwrap();
        let v = VertexId(3);
        let other = (1 - g.partitioner().worker_of(v).0) as usize;
        let mut sim = SimCluster::new(g, EngineConfig::new(1, 2));
        let handle = sim.submit(&plan, vec![Value::Vertex(v)]);
        let mut result = None;
        loop {
            result = result.or_else(|| handle.try_result());
            let step = sim.step();
            assert!(!sim.workers[other].has_work(), "the other worker got mail");
            if result.is_some() && step == SimStep::Quiescent {
                break;
            }
        }
        let rows = result.expect("resolved").expect("answered").rows;
        assert_eq!(rows, vec![vec![Value::Vertex(v)]]);
        assert_eq!(sim.fabric().stats().snapshot().control_msgs, 3);
    }

    #[test]
    fn clock_unfreezes_when_cluster_drops() {
        {
            let g = ring(4, Partitioner::new(1, 1));
            let _sim = SimCluster::new(g, EngineConfig::new(1, 1));
            assert!(vclock::is_frozen());
        }
        assert!(!vclock::is_frozen());
    }
}
