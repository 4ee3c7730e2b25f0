//! The multi-tenant service front-end over a running [`GraphDance`]
//! cluster.
//!
//! Clients submit `(priority class, plan, params)`; the service applies
//! **admission control** (bounded queue, [`GdError::Overloaded`] shed),
//! **weighted scheduling** (deficit round robin across the three classes,
//! capped at `max_concurrent` engine-side queries — the engine itself
//! interleaves the active set per worker quantum), **per-query deadlines**
//! (queued entries expire in the queue; dispatched entries carry the
//! deadline into the coordinator, which enforces it on
//! `common::time::now()`), and **cooperative cancellation** (queued
//! entries are dequeued; in-flight queries go through the engine's
//! `CancelQuery` drain protocol — see DESIGN.md §13).
//!
//! The path is completion-driven (DESIGN.md §13): a submitter admits and
//! dispatches on its own thread under the state mutex, so backpressure is
//! synchronous, then — the mutex released — runs the engine's coordinator
//! itself, so an uncontended query goes client → coordinator → worker with
//! no intermediate wake. The engine's completion sink runs on whichever
//! thread is running the coordinator (a worker, a network thread, a
//! submitter or the engine's timer): it accounts the result, frees the
//! slot, dispatches what the queue now allows, and only then resolves the
//! ticket. The one service thread is a timer for *queued* deadlines.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use graphdance_common::time::now;
use graphdance_common::{GdError, GdResult, QueryId, Value};
use graphdance_engine::{GraphDance, QueryResult, ReplySink};
use graphdance_query::plan::Plan;

use crate::config::{Priority, ServiceConfig};
use crate::obs::SvcObs;
use crate::queue::AdmissionQueue;

/// A submission waiting in the admission queue.
struct Pending {
    plan: Plan,
    params: Vec<Value>,
    reply: Sender<GdResult<QueryResult>>,
}

/// A dispatched query occupying a concurrency slot until its sink runs.
struct Running {
    token: u64,
    /// Pre-assigned by the engine before the `Submit` is sent, so
    /// [`Service::cancel`] can name the query before the sink can fire.
    query: QueryId,
}

/// Mutable service state, all under one mutex (admission decisions,
/// dispatch, completion accounting, and the counters the reconciliation
/// invariant is stated over are serialized against each other, so
/// [`Service::stats`] is always an exact cut).
struct SvcState {
    queue: AdmissionQueue<Pending>,
    running: Vec<Running>,
    admitted: u64,
    rejected: u64,
    completed: u64,
    cancelled: u64,
    deadline_expired: u64,
    /// Set once by `Drop`: nothing is admitted or dispatched any more.
    stopped: bool,
    /// The instant the timer thread will next wake unprompted (`None`:
    /// parked until nudged). A submitter nudges only to move it earlier.
    timer_armed: Option<Instant>,
    /// Timer-loop iterations (tests assert it does not scale with traffic).
    timer_wakeups: u64,
}

struct Shared {
    engine: GraphDance,
    config: ServiceConfig,
    state: Mutex<SvcState>,
    /// Nudges the timer thread out of its park.
    wake: Sender<()>,
    obs: SvcObs,
}

/// A point-in-time cut of the service counters. Taken under the state
/// mutex, so the conservation identity holds exactly at every cut:
///
/// `admitted == completed + cancelled + deadline_expired + in_flight`
///
/// (`rejected` submissions were never admitted and appear in no other
/// column.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SvcStats {
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub deadline_expired: u64,
    /// Admitted but unresolved: still queued or running in the engine.
    pub in_flight: u64,
    /// Of `in_flight`, still in the admission queue.
    pub queued: u64,
}

impl SvcStats {
    /// Does the admission conservation identity hold for this cut?
    pub fn reconciles(&self) -> bool {
        self.admitted == self.completed + self.cancelled + self.deadline_expired + self.in_flight
    }
}

/// A pending service submission; resolves to the query's result, or to
/// `QueryCancelled` / `QueryTimeout` / `Overloaded`-class errors when the
/// service tore it down first.
pub struct Ticket {
    token: u64,
    class: Priority,
    rx: Receiver<GdResult<QueryResult>>,
}

impl Ticket {
    /// The admission token (pass to [`Service::cancel`]). For a query
    /// torn down before dispatch, error payloads echo this token as the
    /// `QueryId`.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The class the submission was admitted under.
    pub fn class(&self) -> Priority {
        self.class
    }

    /// Non-blocking poll: `Some(result)` once resolved.
    pub fn try_result(&self) -> Option<GdResult<QueryResult>> {
        self.rx.try_recv().ok()
    }

    /// Block until the submission resolves.
    pub fn wait(self) -> GdResult<QueryResult> {
        self.rx.recv().unwrap_or(Err(GdError::EngineClosed))
    }

    /// Block up to `timeout`: `QueryTimeout(token)` if the submission is
    /// still unresolved when it elapses, `EngineClosed` if the service
    /// went away.
    pub fn wait_timeout(self, timeout: Duration) -> GdResult<QueryResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(GdError::QueryTimeout(QueryId(self.token))),
            Err(RecvTimeoutError::Disconnected) => Err(GdError::EngineClosed),
        }
    }
}

/// The service front-end; see the module docs.
pub struct Service {
    shared: Arc<Shared>,
    timer: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Front a running engine with an admission-controlled service.
    pub fn start(engine: GraphDance, config: ServiceConfig) -> Service {
        let (wake, wake_rx) = unbounded();
        let shared = Arc::new(Shared {
            engine,
            state: Mutex::new(SvcState {
                queue: AdmissionQueue::new(config.queue_capacity, config.weights),
                running: Vec::with_capacity(config.max_concurrent),
                admitted: 0,
                rejected: 0,
                completed: 0,
                cancelled: 0,
                deadline_expired: 0,
                stopped: false,
                timer_armed: None,
                timer_wakeups: 0,
            }),
            config,
            wake,
            obs: SvcObs::fresh(),
        });
        let for_timer = Arc::clone(&shared);
        let timer = std::thread::Builder::new()
            .name("gd-service".into())
            .spawn(move || timer_loop(&for_timer, &wake_rx))
            // Service startup, before any submission: a failed spawn is an
            // unusable service, not a wedged query.
            .expect("spawn service timer"); // lint: allow(hot-path-panics)
        Service {
            shared,
            timer: Some(timer),
        }
    }

    /// Submit under `class` with the class's default deadline.
    pub fn submit(&self, class: Priority, plan: &Plan, params: Vec<Value>) -> GdResult<Ticket> {
        self.submit_with_deadline(class, plan, params, None)
    }

    /// Submit under `class`, overriding the admission-to-completion
    /// deadline. Rejects **synchronously** with [`GdError::Overloaded`]
    /// when the admission queue is full — backpressure at the door, no
    /// unbounded buildup.
    pub fn submit_with_deadline(
        &self,
        class: Priority,
        plan: &Plan,
        params: Vec<Value>,
        deadline: Option<Duration>,
    ) -> GdResult<Ticket> {
        let submitted_at = now();
        let deadline = submitted_at + deadline.unwrap_or(self.shared.config.deadline_for(class));
        let (reply, rx) = bounded(1);
        let mut st = self.shared.state.lock();
        if st.stopped {
            return Err(GdError::EngineClosed);
        }
        match st.queue.try_admit(
            class,
            submitted_at,
            deadline,
            Pending {
                plan: plan.clone(),
                params,
                reply,
            },
        ) {
            Ok(token) => {
                st.admitted += 1;
                self.shared.obs.admitted();
                self.shared.dispatch(&mut st);
                // Left queued behind a full engine with a deadline ahead of
                // the timer's: bring the timer forward.
                let nudge =
                    !st.queue.is_empty() && st.timer_armed.is_none_or(|armed| deadline < armed);
                if nudge {
                    st.timer_armed = Some(deadline);
                }
                drop(st);
                if nudge {
                    let _ = self.shared.wake.send(());
                }
                // Sinks take the state mutex: run what `dispatch` enqueued
                // only now that it is released.
                self.shared.engine.fabric().drive_coordinator();
                Ok(Ticket { token, class, rx })
            }
            Err(e) => {
                st.rejected += 1;
                self.shared.obs.rejected();
                Err(e)
            }
        }
    }

    /// Request prompt cancellation of a ticket. Idempotent and
    /// asynchronous: a still-queued submission is dequeued immediately
    /// (its ticket resolves to `QueryCancelled`); an in-flight query goes
    /// through the engine's drain protocol and resolves when its weight
    /// has been returned to the ledger. A ticket that already resolved is
    /// left untouched.
    pub fn cancel(&self, token: u64) {
        let mut st = self.shared.state.lock();
        if let Some(a) = st.queue.remove(token) {
            st.cancelled += 1;
            self.shared.obs.cancelled();
            self.shared.obs.queue_depth(st.queue.len() as u64);
            self.shared
                .obs
                .queue_wait(a.class, micros_between(a.enqueued_at, now()));
            let _ = a
                .item
                .reply
                .send(Err(GdError::QueryCancelled(QueryId(a.token))));
            return;
        }
        let running = st
            .running
            .iter()
            .find(|r| r.token == token)
            .map(|r| r.query);
        drop(st);
        if let Some(query) = running {
            // Counted when the drain completes and the sink runs. Outside
            // the mutex: the cancel runs the coordinator on this thread,
            // and a sink it finishes takes the mutex.
            self.shared.engine.cancel(query);
        }
    }

    /// An exact cut of the service counters (see [`SvcStats`]).
    pub fn stats(&self) -> SvcStats {
        let st = self.shared.state.lock();
        SvcStats {
            admitted: st.admitted,
            rejected: st.rejected,
            completed: st.completed,
            cancelled: st.cancelled,
            deadline_expired: st.deadline_expired,
            in_flight: (st.queue.len() + st.running.len()) as u64,
            queued: st.queue.len() as u64,
        }
    }

    /// Iterations of the timer thread's loop so far (test hook).
    #[doc(hidden)]
    pub fn timer_wakeups(&self) -> u64 {
        self.shared.state.lock().timer_wakeups
    }

    /// The engine configuration knobs the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// The fronted engine (e.g. for transactional updates).
    pub fn engine(&self) -> &GraphDance {
        &self.shared.engine
    }

    /// Merged metrics export: every engine metric plus the `svc.*` series
    /// (admission counters, queue-depth gauge, per-class queue-wait
    /// histograms). Export with
    /// [`graphdance_obs::MetricsSnapshot::to_json`] or `to_prometheus`.
    #[cfg(feature = "obs")]
    pub fn metrics(&self) -> graphdance_obs::MetricsSnapshot {
        let mut snap = self.shared.engine.metrics();
        snap.metrics
            .extend(self.shared.obs.registry().snapshot().metrics);
        snap
    }

    /// Stop the service and shut the engine down, joining every thread.
    /// Unresolved tickets fail with `EngineClosed`. (Dropping the service
    /// does the same.)
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.state.lock().stopped = true;
        let _ = self.shared.wake.send(());
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
        // Through `&self`, not by value: a sink on an engine thread may be
        // borrowing `Shared` right now. The shutdown joins every engine
        // thread that runs sinks, so none is once we release it.
        self.shared.engine.shutdown();
    }
}

impl Shared {
    /// Move queued entries into the engine in deficit-round-robin order up
    /// to the concurrency cap. Runs under the state mutex on whichever
    /// thread just changed what is dispatchable: a submitter, or one
    /// running the coordinator inside a completion sink. Every engine
    /// submit only enqueues into the coordinator's unbounded inbox, never
    /// a wait: a submitter drives it once the mutex is released, and a
    /// sink's thread re-checks the inbox when it unlocks the coordinator.
    /// The deadline travels into the coordinator, which enforces it on
    /// `common::time::now()`.
    fn dispatch(self: &Arc<Self>, st: &mut SvcState) {
        if st.stopped || st.queue.is_empty() {
            return;
        }
        let t = now();
        while st.running.len() < self.config.max_concurrent {
            let Some(a) = st.queue.pop_next() else { break };
            self.obs
                .queue_wait(a.class, micros_between(a.enqueued_at, t));
            let (token, reply) = (a.token, a.item.reply);
            let weak = Arc::downgrade(self);
            let sink = ReplySink::new(move |result| {
                if let Some(shared) = weak.upgrade() {
                    shared.account(token, &result);
                }
                // Accounting precedes resolution: a client that saw its
                // ticket resolve sees the slot freed and the counters moved.
                let _ = reply.send(result);
            });
            let read_ts = self.engine.txn().read_ts().max(1);
            match self.engine.submit_sink(
                a.item.plan,
                a.item.params,
                read_ts,
                Some(a.deadline),
                sink,
            ) {
                Ok(query) => st.running.push(Running { token, query }),
                // Engine closed under the service: dropping the unrun sink
                // resolves the ticket with `EngineClosed`.
                Err(_unrun) => st.completed += 1,
            }
        }
        self.obs.queue_depth(st.queue.len() as u64);
    }

    /// The completion sink's bookkeeping, on the thread running the
    /// coordinator: classify the result into the conservation columns,
    /// free the slot, dispatch what the queue now allows.
    fn account(self: &Arc<Self>, token: u64, result: &GdResult<QueryResult>) {
        // sync: the thread running the coordinator takes the service mutex
        // here.
        // lint: allow(hot-path-blocking) reached from Coordinator::pump
        // through the ReplySink. Bounded: every holder does non-blocking
        // work (counter bumps, one `swap_remove`, at most `max_concurrent`
        // unbounded-channel sends, or the timer's O(queue) expiry sweep)
        // and none waits on the coordinator while holding it.
        let mut st = self.state.lock();
        if let Some(i) = st.running.iter().position(|r| r.token == token) {
            st.running.swap_remove(i);
        }
        match result {
            Err(GdError::QueryCancelled(_)) => {
                st.cancelled += 1;
                self.obs.cancelled();
            }
            Err(GdError::QueryTimeout(_)) => {
                st.deadline_expired += 1;
                self.obs.deadline_expired();
            }
            // Successes and hard errors both count as completed: the
            // engine resolved them.
            _ => st.completed += 1,
        }
        self.dispatch(&mut st);
    }
}

fn micros_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// The service thread: a timer for *queued* deadlines (dispatched entries
/// carry theirs into the coordinator) and the shutdown drain. Parks until
/// the earliest queued deadline — indefinitely on an empty queue — or a
/// nudge from a submitter that queued an earlier one.
fn timer_loop(shared: &Shared, wake_rx: &Receiver<()>) {
    loop {
        let armed = {
            let mut st = shared.state.lock();
            st.timer_wakeups += 1;
            if st.stopped {
                // Drain: fail everything still queued. Running entries
                // resolve when the engine is shut down next.
                while let Some(a) = st.queue.pop_next() {
                    let _ = a.item.reply.send(Err(GdError::EngineClosed));
                }
                shared.obs.queue_depth(0);
                return;
            }
            // Queued entries whose deadline passed never reach the engine;
            // their tickets fail with QueryTimeout.
            let t = now();
            for a in st.queue.expire(t) {
                st.deadline_expired += 1;
                shared.obs.deadline_expired();
                shared
                    .obs
                    .queue_wait(a.class, micros_between(a.enqueued_at, t));
                let _ = a
                    .item
                    .reply
                    .send(Err(GdError::QueryTimeout(QueryId(a.token))));
            }
            shared.obs.queue_depth(st.queue.len() as u64);
            st.timer_armed = st.queue.next_deadline();
            st.timer_armed
        };
        match armed {
            Some(deadline) => {
                let _ = wake_rx.recv_timeout(deadline.saturating_duration_since(now()));
            }
            None => {
                let _ = wake_rx.recv();
            }
        }
    }
}
