//! Per-query, per-stage span tracing.
//!
//! Each worker accumulates one [`SpanRecord`] per `(query, stage)` it
//! participates in and pushes it to the shared [`TraceSink`] when the stage
//! advances (or at query end). The coordinator stamps stage begin/end
//! times, its own seeding spans, and the final message-ledger counts. A
//! worker **joins** a query when the query reaches it and **seals** it
//! when it has nothing more to contribute (workers join on their first
//! `QueryBegin` and seal on `QueryEnd`); once every joined participant has
//! sealed *and* the coordinator marked the query done, the sink
//! reassembles the spans into a per-stage [`QueryTrace`] timeline and
//! parks it in a bounded ring for pickup. (Every worker a query reaches
//! joins before its work runs, so before the query can be done.)
//!
//! All timestamps are nanoseconds since an epoch chosen by the embedding
//! engine (obs never reads a clock — see the crate docs).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json;

/// Number of message lanes, mirroring the engine's `MsgClass` order.
pub const LANES: usize = 4;

/// Lane names, in `MsgClass` order: traverser / progress / rows / ctrl.
pub const LANE_NAMES: [&str; LANES] = ["traverser", "progress", "rows", "ctrl"];

/// Lane index for traverser batches (reconciles against the `MsgLedger`).
pub const LANE_TRAVERSER: usize = 0;

/// Sentinel worker id for coordinator-originated spans (stage seeding).
pub const COORD_WORKER: u32 = u32::MAX;

/// One participant's activity within one `(query, stage)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Query id.
    pub query: u64,
    /// Stage index.
    pub stage: u32,
    /// Worker id, or [`COORD_WORKER`] for the coordinator.
    pub worker: u32,
    /// Traversers executed by this worker in this stage.
    pub executed: u64,
    /// Traversers spawned into the local queue (same-partition hops).
    pub spawned_local: u64,
    /// Traversers handed to the outbox for another partition.
    pub sent_remote: u64,
    /// Memo lookups that hit existing state (dedup/min-dist/join).
    pub memo_hits: u64,
    /// Memo lookups that created fresh state.
    pub memo_misses: u64,
    /// Messages sent, by lane (see [`LANE_NAMES`]).
    pub msgs: [u64; LANES],
    /// Bytes sent, by lane.
    pub bytes: [u64; LANES],
    /// Time the query waited in this worker's ring before its turns began
    /// (ns, summed over turns). A worker's turns of one query are disjoint,
    /// so with `exec_ns` it sums to at most the query's latency.
    pub queue_wait_ns: u64,
    /// Time this worker spent in the query's turns (ns, summed over turns).
    pub exec_ns: u64,
    /// Cross-worker hop edges: `(destination worker, traversers sent)`.
    pub hops: Vec<(u32, u64)>,
}

impl SpanRecord {
    /// Is there anything worth reporting in this span?
    pub fn is_empty(&self) -> bool {
        self.executed == 0
            && self.spawned_local == 0
            && self.sent_remote == 0
            && self.msgs.iter().all(|&m| m == 0)
    }
}

/// One stage of a reassembled [`QueryTrace`].
#[derive(Debug, Clone, Default)]
pub struct StageTrace {
    /// Stage index.
    pub stage: u32,
    /// Coordinator timestamp when the stage was started (ns since epoch).
    pub begin_ns: u64,
    /// Coordinator timestamp when the stage completed (ns since epoch).
    pub end_ns: u64,
    /// Participant spans, sorted by worker id (coordinator last).
    pub spans: Vec<SpanRecord>,
}

impl StageTrace {
    /// Wall-clock span of the stage (ns).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }

    /// Total messages by lane across all participants.
    pub fn msgs_by_lane(&self) -> [u64; LANES] {
        let mut out = [0u64; LANES];
        for s in &self.spans {
            for (o, m) in out.iter_mut().zip(s.msgs.iter()) {
                *o += m;
            }
        }
        out
    }

    /// Total bytes by lane across all participants.
    pub fn bytes_by_lane(&self) -> [u64; LANES] {
        let mut out = [0u64; LANES];
        for s in &self.spans {
            for (o, b) in out.iter_mut().zip(s.bytes.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Total traversers executed in this stage.
    pub fn executed(&self) -> u64 {
        self.spans.iter().map(|s| s.executed).sum()
    }

    /// Total memo (hits, misses) in this stage.
    pub fn memo(&self) -> (u64, u64) {
        (
            self.spans.iter().map(|s| s.memo_hits).sum(),
            self.spans.iter().map(|s| s.memo_misses).sum(),
        )
    }
}

/// The reassembled per-stage timeline of one query.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Query id.
    pub query: u64,
    /// End-to-end latency as measured by the coordinator (ns).
    pub total_ns: u64,
    /// Traverser batches sent, per the engine's `MsgLedger` (0 when the
    /// ledger is disabled, i.e. release builds).
    pub ledger_sent: u64,
    /// Traverser batches delivered, per the `MsgLedger`.
    pub ledger_delivered: u64,
    /// Stages in execution order.
    pub stages: Vec<StageTrace>,
}

impl QueryTrace {
    /// Total traverser-lane messages across all stages — the figure that
    /// must reconcile with [`QueryTrace::ledger_sent`].
    pub fn traverser_msgs(&self) -> u64 {
        self.stages
            .iter()
            .map(|st| st.msgs_by_lane()[LANE_TRAVERSER])
            .sum()
    }

    /// Total messages across all lanes and stages.
    pub fn total_msgs(&self) -> u64 {
        self.stages
            .iter()
            .map(|st| st.msgs_by_lane().iter().sum::<u64>())
            .sum()
    }

    /// Total bytes across all lanes and stages.
    pub fn total_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|st| st.bytes_by_lane().iter().sum::<u64>())
            .sum()
    }

    /// Human-readable per-stage timeline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "QueryTrace q={} total={:.3}ms stages={} msgs={} bytes={}\n",
            self.query,
            self.total_ns as f64 / 1e6,
            self.stages.len(),
            self.total_msgs(),
            self.total_bytes(),
        ));
        if self.ledger_sent != 0 || self.ledger_delivered != 0 {
            out.push_str(&format!(
                "  ledger: sent={} delivered={} trace traverser msgs={}\n",
                self.ledger_sent,
                self.ledger_delivered,
                self.traverser_msgs(),
            ));
        }
        for st in &self.stages {
            let msgs = st.msgs_by_lane();
            let bytes = st.bytes_by_lane();
            let (hits, misses) = st.memo();
            out.push_str(&format!(
                "  stage {} [{:.3}ms..{:.3}ms] exec={} memo={}h/{}m",
                st.stage,
                st.begin_ns as f64 / 1e6,
                st.end_ns as f64 / 1e6,
                st.executed(),
                hits,
                misses,
            ));
            for (lane, name) in LANE_NAMES.iter().enumerate() {
                if msgs[lane] > 0 {
                    out.push_str(&format!(" {}={}msg/{}B", name, msgs[lane], bytes[lane]));
                }
            }
            out.push('\n');
            for s in &st.spans {
                let who = if s.worker == COORD_WORKER {
                    "coord".to_string()
                } else {
                    format!("w{}", s.worker)
                };
                out.push_str(&format!(
                    "    {:>6}: exec={} local={} remote={} wait={:.3}ms run={:.3}ms",
                    who,
                    s.executed,
                    s.spawned_local,
                    s.sent_remote,
                    s.queue_wait_ns as f64 / 1e6,
                    s.exec_ns as f64 / 1e6,
                ));
                if !s.hops.is_empty() {
                    out.push_str(" hops=");
                    for (i, (w, n)) in s.hops.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("w{w}:{n}"));
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// JSON dump of the full trace.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"query\":{},\"total_ns\":{},\"ledger_sent\":{},\"ledger_delivered\":{},\"stages\":[",
            self.query, self.total_ns, self.ledger_sent, self.ledger_delivered
        ));
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let msgs = st.msgs_by_lane();
            let bytes = st.bytes_by_lane();
            out.push_str(&format!(
                "{{\"stage\":{},\"begin_ns\":{},\"end_ns\":{},\"msgs\":",
                st.stage, st.begin_ns, st.end_ns
            ));
            push_lanes(&mut out, &msgs);
            out.push_str(",\"bytes\":");
            push_lanes(&mut out, &bytes);
            out.push_str(",\"spans\":[");
            for (j, s) in st.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"worker\":{},\"executed\":{},\"spawned_local\":{},\"sent_remote\":{},\
                     \"memo_hits\":{},\"memo_misses\":{},\"queue_wait_ns\":{},\"exec_ns\":{},\"msgs\":",
                    s.worker as i64,
                    s.executed,
                    s.spawned_local,
                    s.sent_remote,
                    s.memo_hits,
                    s.memo_misses,
                    s.queue_wait_ns,
                    s.exec_ns,
                ));
                push_lanes(&mut out, &s.msgs);
                out.push_str(",\"bytes\":");
                push_lanes(&mut out, &s.bytes);
                out.push_str(",\"hops\":[");
                for (k, (w, n)) in s.hops.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{w},{n}]"));
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn push_lanes(out: &mut String, lanes: &[u64; LANES]) {
    out.push('{');
    for (i, name) in LANE_NAMES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str_lit(out, name);
        out.push(':');
        out.push_str(&lanes[i].to_string());
    }
    out.push('}');
}

#[derive(Debug, Default)]
struct StageBuild {
    begin_ns: u64,
    end_ns: u64,
    spans: Vec<SpanRecord>,
}

#[derive(Debug, Default)]
struct QueryBuild {
    stages: BTreeMap<u32, StageBuild>,
    joins: u32,
    seals: u32,
    done: bool,
    total_ns: u64,
    ledger_sent: u64,
    ledger_delivered: u64,
}

#[derive(Debug, Default)]
struct SinkInner {
    active: BTreeMap<u64, QueryBuild>,
    ready: VecDeque<QueryTrace>,
}

/// Upper bound on in-flight query builds. Participants that never complete
/// a query (failed queries, engines that share the fabric but bypass the
/// coordinator) must not grow the sink without bound, so the oldest build
/// is evicted once the map is full.
const MAX_ACTIVE: usize = 1024;

impl SinkInner {
    fn build(&mut self, query: u64) -> &mut QueryBuild {
        if !self.active.contains_key(&query) && self.active.len() >= MAX_ACTIVE {
            self.active.pop_first();
        }
        self.active.entry(query).or_default()
    }
}

/// Shared collection point for span records (see module docs).
#[derive(Debug)]
pub struct TraceSink {
    inner: Mutex<SinkInner>,
    cap: usize,
}

impl TraceSink {
    /// A sink retaining at most `cap` reassembled traces.
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(SinkInner::default()),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkInner> {
        self.inner.lock().expect("trace sink poisoned")
    }

    /// Record one participant span.
    pub fn record(&self, span: SpanRecord) {
        if span.is_empty() {
            return;
        }
        // lint: allow(hot-path-blocking) trace sink: bounded map insert at
        // a span boundary, held for no other work
        let mut inner = self.lock();
        let q = inner.build(span.query);
        q.stages.entry(span.stage).or_default().spans.push(span);
    }

    /// Coordinator: stage `stage` of `query` started at `now_ns`.
    pub fn stage_begin(&self, query: u64, stage: u32, now_ns: u64) {
        let mut inner = self.lock();
        let q = inner.build(query);
        q.stages.entry(stage).or_default().begin_ns = now_ns;
    }

    /// Coordinator: stage `stage` of `query` completed at `now_ns`.
    pub fn stage_end(&self, query: u64, stage: u32, now_ns: u64) {
        let mut inner = self.lock();
        let q = inner.build(query);
        q.stages.entry(stage).or_default().end_ns = now_ns;
    }

    /// Coordinator: the query finished with the given end-to-end latency
    /// and message-ledger totals (0/0 when the ledger is disabled).
    pub fn query_done(&self, query: u64, total_ns: u64, ledger_sent: u64, ledger_delivered: u64) {
        // lint: allow(hot-path-blocking) trace sink: once per query, trace
        // reassembly is bounded by the span count
        let mut inner = self.lock();
        let q = inner.build(query);
        q.done = true;
        q.total_ns = total_ns;
        q.ledger_sent = ledger_sent;
        q.ledger_delivered = ledger_delivered;
        self.maybe_finish(&mut inner, query);
    }

    /// A participant will contribute to `query` and seal it later.
    pub fn join(&self, query: u64) {
        self.lock().build(query).joins += 1;
    }

    /// A participant has nothing more to contribute for `query`.
    pub fn seal(&self, query: u64) {
        let mut inner = self.lock();
        inner.build(query).seals += 1;
        self.maybe_finish(&mut inner, query);
    }

    fn maybe_finish(&self, inner: &mut SinkInner, query: u64) {
        let complete = inner
            .active
            .get(&query)
            .is_some_and(|q| q.done && q.seals >= q.joins);
        if !complete {
            return;
        }
        // lint: allow(hot-path-blocking) impossible: `complete` above
        // proved the entry exists, the lock is held across both
        let build = inner.active.remove(&query).expect("checked above");
        let stages = build
            .stages
            .into_iter()
            .map(|(stage, sb)| {
                let mut spans = sb.spans;
                spans.sort_by_key(|s| s.worker);
                StageTrace {
                    stage,
                    begin_ns: sb.begin_ns,
                    end_ns: sb.end_ns,
                    spans,
                }
            })
            .collect();
        inner.ready.push_back(QueryTrace {
            query,
            total_ns: build.total_ns,
            ledger_sent: build.ledger_sent,
            ledger_delivered: build.ledger_delivered,
            stages,
        });
        while inner.ready.len() > self.cap {
            inner.ready.pop_front();
        }
    }

    /// Take the reassembled trace of `query`, if it is ready.
    pub fn take(&self, query: u64) -> Option<QueryTrace> {
        // lint: allow(hot-path-blocking) trace sink: ready-deque scan is
        // bounded by `cap`, no blocking while held
        let mut inner = self.lock();
        let pos = inner.ready.iter().position(|t| t.query == query)?;
        inner.ready.remove(pos)
    }

    /// Is the trace of `query` ready for [`TraceSink::take`]?
    pub fn is_ready(&self, query: u64) -> bool {
        self.lock().ready.iter().any(|t| t.query == query)
    }

    /// Drop any buffered state for `query` (queries that were never traced
    /// to completion, e.g. failures).
    pub fn forget(&self, query: u64) {
        // lint: allow(hot-path-blocking) trace sink: query teardown, two
        // bounded removals while held
        let mut inner = self.lock();
        inner.active.remove(&query);
        if let Some(pos) = inner.ready.iter().position(|t| t.query == query) {
            inner.ready.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(query: u64, stage: u32, worker: u32, executed: u64) -> SpanRecord {
        SpanRecord {
            query,
            stage,
            worker,
            executed,
            msgs: [executed, 1, 0, 0],
            bytes: [executed * 100, 32, 0, 0],
            ..Default::default()
        }
    }

    /// Satellite: span reassembly must produce a complete per-stage
    /// timeline for a 3-stage query on a 2-node simulated cluster
    /// (2 nodes × 2 workers = 4 workers here).
    #[test]
    fn reassembles_three_stage_timeline() {
        let workers = 4u32;
        let sink = TraceSink::new(8);
        let q = 7u64;
        for _ in 0..workers {
            sink.join(q);
        }
        // Coordinator drives stages 0..3; workers report spans in arbitrary
        // interleaved order, as they would under real scheduling.
        for stage in 0..3u32 {
            sink.stage_begin(q, stage, (stage as u64) * 1000);
            for w in [2u32, 0, 3, 1] {
                sink.record(span(q, stage, w, (w as u64) + 1));
            }
            sink.record(SpanRecord {
                query: q,
                stage,
                worker: COORD_WORKER,
                sent_remote: 2,
                msgs: [2, 0, 0, 1],
                bytes: [200, 0, 0, 8],
                ..Default::default()
            });
            sink.stage_end(q, stage, (stage as u64) * 1000 + 900);
        }
        sink.query_done(q, 2900, 18, 18);
        assert!(!sink.is_ready(q), "not ready until every worker seals");
        for _ in 0..workers {
            sink.seal(q);
        }
        assert!(sink.is_ready(q));
        let t = sink.take(q).expect("trace ready");
        assert!(sink.take(q).is_none(), "taken once");

        assert_eq!(t.query, q);
        assert_eq!(t.total_ns, 2900);
        assert_eq!(t.stages.len(), 3, "complete timeline: all 3 stages");
        for (i, st) in t.stages.iter().enumerate() {
            assert_eq!(st.stage, i as u32);
            assert_eq!(st.begin_ns, (i as u64) * 1000);
            assert_eq!(st.end_ns, (i as u64) * 1000 + 900);
            assert_eq!(st.duration_ns(), 900);
            assert_eq!(
                st.spans.len(),
                5,
                "4 workers + coordinator present in stage {i}"
            );
            // Sorted by worker id, coordinator (u32::MAX) last.
            let ids: Vec<u32> = st.spans.iter().map(|s| s.worker).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, COORD_WORKER]);
            assert_eq!(st.executed(), 1 + 2 + 3 + 4);
            assert_eq!(st.msgs_by_lane(), [1 + 2 + 3 + 4 + 2, 4, 0, 1]);
        }
        // Reconciliation hook: traverser-lane totals match the ledger.
        assert_eq!(t.traverser_msgs(), 3 * (1 + 2 + 3 + 4 + 2));
        assert_eq!(t.ledger_sent, 18);

        // Export does not panic and carries the key figures.
        let pretty = t.pretty();
        assert!(pretty.contains("stage 2"), "{pretty}");
        let j = t.to_json();
        assert!(j.contains("\"query\":7"), "{j}");
        assert!(j.contains("\"stage\":1"), "{j}");
    }

    #[test]
    fn empty_spans_are_dropped_and_ring_is_bounded() {
        let sink = TraceSink::new(2);
        sink.record(SpanRecord {
            query: 1,
            ..Default::default()
        });
        sink.query_done(1, 5, 0, 0);
        sink.seal(1);
        let t = sink.take(1).expect("ready");
        assert!(t.stages.is_empty(), "empty span contributed nothing");

        for q in 10..15u64 {
            sink.join(q);
            sink.query_done(q, 1, 0, 0);
            sink.seal(q);
        }
        // cap = 2: only the two most recent remain.
        assert!(sink.take(10).is_none());
        assert!(sink.take(11).is_none());
        assert!(sink.take(12).is_none());
        assert!(sink.take(13).is_some());
        assert!(sink.take(14).is_some());
    }

    #[test]
    fn forget_discards_partial_state() {
        let sink = TraceSink::new(4);
        sink.record(span(3, 0, 0, 1));
        sink.forget(3);
        sink.query_done(3, 1, 0, 0);
        sink.seal(3);
        let t = sink.take(3).expect("ready");
        assert!(t.stages.is_empty(), "forgotten spans are gone");
    }
}
