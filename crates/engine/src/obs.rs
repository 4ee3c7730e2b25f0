//! Engine-side observability glue: the bridge between the hot paths
//! (worker step loop, coordinator stage transitions, outbox flushing) and
//! the dependency-free `graphdance-obs` crate.
//!
//! With the `obs` cargo feature **enabled**, this module provides:
//!
//! * [`EngineObs`] — the cluster-wide metrics [`Registry`], the metric ids
//!   registered at fabric construction, the shared [`TraceSink`] for query
//!   spans, and the single monotonic epoch all timestamps are relative to.
//! * [`NetShard`] — a per-outbox / per-egress-thread single-writer metrics
//!   shard for the flush and packet-size distributions (the network
//!   *counters* are `net::NetStats`, the same on every build).
//! * [`WorkerObs`] / [`CoordObs`] — per-thread span accumulators that batch
//!   `(query, stage)` activity locally and push one [`SpanRecord`] per
//!   stage into the sink (so the sink mutex is touched once per stage, not
//!   once per traverser). A worker accounts per *turn* — one pop of a query
//!   from its ring until the query is requeued or drained: two clock reads
//!   and one span update per turn, with counts tallied exactly in between.
//!
//! With the feature **disabled**, the same names exist as zero-sized stubs
//! so type-level references stay valid, and every call site in the engine
//! is `#[cfg(feature = "obs")]`-gated — the instrumentation compiles to
//! nothing (verified by `zero_cost_tests` below; the run queue's one stamp
//! field is gated the same way).

#[cfg(feature = "obs")]
pub use real::*;

#[cfg(feature = "obs")]
mod real {
    use std::sync::Arc;
    use std::time::Instant;

    use graphdance_common::time::now;
    use graphdance_common::{FxHashMap, QueryId, WorkerId};
    use graphdance_obs::{
        MetricId, Registry, ShardHandle, SpanRecord, TraceSink, COORD_WORKER, LANES,
    };
    use graphdance_pstm::{MemoStats, Weight};

    use crate::messages::CoordMsg;
    use crate::net::{Fabric, MsgClass, WireMsg};
    use crate::wire;

    /// How many reassembled traces the sink retains for pickup.
    const TRACE_RING: usize = 32;

    /// Every metric id the engine records, registered once at fabric
    /// construction (before any shard exists).
    #[derive(Debug, Clone, Copy)]
    pub struct EngineIds {
        /// Distribution of wire packet sizes.
        pub wire_packet_bytes: MetricId,
        /// Tier-1 flushes triggered by the byte threshold (vs. idle/ctrl).
        pub flush_threshold: MetricId,
        /// Distribution of tier-1 buffer sizes at flush time.
        pub flush_buf_bytes: MetricId,
        /// Traversers executed by workers.
        pub executed: MetricId,
        /// Traversers spawned into the executing worker's own queue.
        pub spawned_local: MetricId,
        /// Traversers handed to an outbox for another partition.
        pub sent_remote: MetricId,
        /// Per turn: time from the query entering the worker's ring to the
        /// turn's start (ns).
        pub queue_wait_ns: MetricId,
        /// Per turn: time from its start to its end (ns).
        pub exec_ns: MetricId,
        /// Memo lookups that hit existing state (dedup/min-dist/join).
        pub memo_hits: MetricId,
        /// Memo lookups that created fresh state.
        pub memo_misses: MetricId,
        /// Double-pipelined join probes.
        pub join_probes: MetricId,
        /// Aggregation partial updates.
        pub agg_updates: MetricId,
    }

    /// Cluster-wide observability state, owned by the [`Fabric`].
    #[derive(Debug)]
    pub struct EngineObs {
        registry: Registry,
        ids: EngineIds,
        sink: TraceSink,
        epoch: Instant,
    }

    impl EngineObs {
        /// Register the engine's metric namespace and create the trace
        /// sink.
        pub(crate) fn new() -> Self {
            let r = Registry::new();
            let ids = EngineIds {
                wire_packet_bytes: r.histogram("net.wire_packet_bytes"),
                flush_threshold: r.counter("net.flush_threshold"),
                flush_buf_bytes: r.histogram("net.flush_buf_bytes"),
                executed: r.counter("worker.executed"),
                spawned_local: r.counter("worker.spawned_local"),
                sent_remote: r.counter("worker.sent_remote"),
                queue_wait_ns: r.histogram("worker.queue_wait_ns"),
                exec_ns: r.histogram("worker.exec_ns"),
                memo_hits: r.counter("memo.hits"),
                memo_misses: r.counter("memo.misses"),
                join_probes: r.counter("memo.join_probes"),
                agg_updates: r.counter("memo.agg_updates"),
            };
            EngineObs {
                registry: r,
                ids,
                sink: TraceSink::new(TRACE_RING),
                epoch: now(),
            }
        }

        /// The metrics registry (scrape with `registry().snapshot()`).
        pub fn registry(&self) -> &Registry {
            &self.registry
        }

        /// The registered metric ids.
        pub fn ids(&self) -> EngineIds {
            self.ids
        }

        /// The shared span sink.
        pub fn sink(&self) -> &TraceSink {
            &self.sink
        }

        /// Nanoseconds since the engine epoch.
        #[inline]
        pub fn now_ns(&self) -> u64 {
            now().saturating_duration_since(self.epoch).as_nanos() as u64
        }

        /// A fresh single-writer shard for one network-sending thread.
        pub fn net_shard(&self) -> NetShard {
            NetShard {
                shard: self.registry.shard(),
                ids: self.ids,
            }
        }
    }

    /// One sending thread's network-metrics shard (outbox or egress).
    #[derive(Debug)]
    pub struct NetShard {
        shard: ShardHandle,
        ids: EngineIds,
    }

    impl NetShard {
        /// Record the size of one wire packet (egress threads).
        #[inline]
        pub fn wire_packet(&self, wire: usize) {
            self.shard.observe(self.ids.wire_packet_bytes, wire as u64);
        }

        /// Count one threshold-triggered tier-1 flush.
        #[inline]
        pub fn flush_threshold(&self) {
            self.shard.inc(self.ids.flush_threshold);
        }

        /// Record the buffered byte count of one (non-empty) tier-1 flush.
        #[inline]
        pub fn flush_buf_bytes(&self, bytes: usize) {
            self.shard.observe(self.ids.flush_buf_bytes, bytes as u64);
        }
    }

    /// Encoded size of one standalone progress report (fixed: three `u64`s
    /// behind a tag), from the encoder like every other span byte figure.
    fn progress_len() -> u64 {
        wire::encoded_len(&WireMsg::Coord(CoordMsg::Progress {
            query: QueryId(0),
            weight: Weight(0),
            steps: 0,
        })) as u64
    }

    /// Span accumulator for one `(query, stage)`; hops are folded into a
    /// map until flush.
    #[derive(Debug, Default)]
    struct SpanAcc {
        rec: SpanRecord,
        hops: FxHashMap<u32, u64>,
    }

    impl SpanAcc {
        fn into_record(mut self) -> SpanRecord {
            let mut hops: Vec<(u32, u64)> = self.hops.into_iter().collect();
            hops.sort_unstable();
            self.rec.hops = hops;
            self.rec
        }
    }

    fn span_entry(
        spans: &mut FxHashMap<(QueryId, u16), SpanAcc>,
        query: QueryId,
        stage: u16,
        worker: u32,
    ) -> &mut SpanAcc {
        spans.entry((query, stage)).or_insert_with(|| SpanAcc {
            rec: SpanRecord {
                query: query.0,
                stage: stage as u32,
                worker,
                ..Default::default()
            },
            hops: FxHashMap::default(),
        })
    }

    /// What the outcomes routed in one turn (or from one source) sent,
    /// folded into the shard and the `(query, stage)` span once, at its
    /// end.
    #[derive(Debug, Default)]
    struct Tally {
        spawned_local: u64,
        /// Traversers sent, by destination worker id.
        hops: Vec<u64>,
        msgs: [u64; LANES],
        bytes: [u64; LANES],
    }

    /// One turn in progress: a query popped from the ring, served until it
    /// is requeued or drained (see [`WorkerObs::turn_begin`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Turn {
        start: Instant,
        wait_ns: u64,
        /// Traversers the quantum had executed when the turn began.
        executed: usize,
    }

    /// Nanoseconds from `from` to `to` (0 if `to` is earlier).
    fn nanos(to: Instant, from: Instant) -> u64 {
        to.saturating_duration_since(from).as_nanos() as u64
    }

    /// One worker thread's instrumentation state.
    #[derive(Debug)]
    pub struct WorkerObs {
        eng: Arc<EngineObs>,
        shard: ShardHandle,
        worker: u32,
        spans: FxHashMap<(QueryId, u16), SpanAcc>,
        tally: Tally,
    }

    impl WorkerObs {
        /// Instrumentation for worker `id` on `fabric`'s cluster.
        pub fn new(fabric: &Arc<Fabric>, id: WorkerId) -> Self {
            let eng = Arc::clone(fabric.obs());
            WorkerObs {
                shard: eng.registry().shard(),
                worker: id.0,
                spans: FxHashMap::default(),
                tally: Tally::default(),
                eng,
            }
        }

        /// A turn begins: the query entered the ring at `ringed_at`, and
        /// the quantum has executed `executed` traversers so far. One clock
        /// read; the turn's queue wait runs from `ringed_at` to here.
        pub fn turn_begin(&self, ringed_at: Option<Instant>, executed: usize) -> Turn {
            let start = now();
            Turn {
                start,
                wait_ns: ringed_at.map_or(0, |at| nanos(start, at)),
                executed,
            }
        }

        /// `turn` of `(query, stage)` ends with `executed` traversers run in
        /// the quantum and `m` drained from the query's memo: one clock
        /// read, one observe of its wait and of its exec time, and its
        /// counts folded into the shard and the span. Returns the end
        /// stamp, which is the ring entry of a requeued query.
        pub fn turn_end(
            &mut self,
            turn: Turn,
            query: QueryId,
            stage: u16,
            executed: usize,
            m: MemoStats,
        ) -> Instant {
            let end = now();
            let exec_ns = nanos(end, turn.start);
            let ran = (executed - turn.executed) as u64;
            let ids = self.eng.ids();
            self.shard.add(ids.executed, ran);
            self.shard.observe(ids.exec_ns, exec_ns);
            self.shard.observe(ids.queue_wait_ns, turn.wait_ns);
            let (hits, misses) = (m.hits(), m.misses());
            self.shard.add(ids.memo_hits, hits);
            self.shard.add(ids.memo_misses, misses);
            self.shard.add(ids.join_probes, m.join_probes);
            self.shard.add(ids.agg_updates, m.agg_updates);
            let rec = self.fold(query, stage);
            rec.executed += ran;
            rec.exec_ns += exec_ns;
            rec.queue_wait_ns += turn.wait_ns;
            rec.memo_hits += hits;
            rec.memo_misses += misses;
            end
        }

        /// A routed outcome queued a child on this worker.
        #[inline]
        pub fn spawned_local(&mut self) {
            self.tally.spawned_local += 1;
        }

        /// A routed outcome sent a child of `bytes` to worker `dest`.
        #[inline]
        pub fn sent_remote(&mut self, dest: WorkerId, bytes: usize) {
            let hops = &mut self.tally.hops;
            if dest.as_usize() >= hops.len() {
                hops.resize(dest.as_usize() + 1, 0);
            }
            hops[dest.as_usize()] += 1;
            self.sent(MsgClass::Traverser, bytes);
        }

        /// A routed outcome sent a message of `class` and `bytes`.
        #[inline]
        pub fn sent(&mut self, class: MsgClass, bytes: usize) {
            self.tally.msgs[class as usize] += 1;
            self.tally.bytes[class as usize] += bytes as u64;
        }

        /// Fold what was routed since the last fold into the shard and the
        /// `(query, stage)` span, leaving the tally zeroed: at each turn's
        /// end, and after a source, which is routed outside any turn.
        /// Returns the span's record.
        pub fn fold(&mut self, query: QueryId, stage: u16) -> &mut SpanRecord {
            let t = &mut self.tally;
            let ids = self.eng.ids();
            let remote = t.msgs[MsgClass::Traverser as usize];
            self.shard.add(ids.spawned_local, t.spawned_local);
            self.shard.add(ids.sent_remote, remote);
            let sp = span_entry(&mut self.spans, query, stage, self.worker);
            sp.rec.spawned_local += std::mem::take(&mut t.spawned_local);
            sp.rec.sent_remote += remote;
            for lane in 0..LANES {
                sp.rec.msgs[lane] += std::mem::take(&mut t.msgs[lane]);
                sp.rec.bytes[lane] += std::mem::take(&mut t.bytes[lane]);
            }
            for (dest, n) in t.hops.iter_mut().enumerate() {
                if *n > 0 {
                    *sp.hops.entry(dest as u32).or_insert(0) += std::mem::take(n);
                }
            }
            &mut sp.rec
        }

        /// A coalesced progress report went out for `(query, stage)`.
        pub fn note_progress(&mut self, query: QueryId, stage: u16) {
            let sp = span_entry(&mut self.spans, query, stage, self.worker);
            sp.rec.msgs[1] += 1;
            sp.rec.bytes[1] += progress_len();
        }

        /// `msg` — control plane or aggregation partial — is going out for
        /// `(query, stage)`: counted on its class's lane.
        pub fn note_msg(&mut self, query: QueryId, stage: u16, msg: &WireMsg) {
            let lane = msg.class() as usize;
            let sp = span_entry(&mut self.spans, query, stage, self.worker);
            sp.rec.msgs[lane] += 1;
            sp.rec.bytes[lane] += wire::encoded_len(msg) as u64;
        }

        /// The stage advanced: push the finished stage's span to the sink.
        pub fn flush_stage(&mut self, query: QueryId, stage: u16) {
            if let Some(acc) = self.spans.remove(&(query, stage)) {
                self.eng.sink().record(acc.into_record());
            }
        }

        /// The query reached this worker: it will seal the trace at the end.
        pub fn begin_query(&self, query: QueryId) {
            self.eng.sink().join(query.0);
        }

        /// The query ended: flush every remaining span and seal.
        pub fn end_query(&mut self, query: QueryId) {
            let keys: Vec<(QueryId, u16)> = self
                .spans
                .keys()
                .filter(|k| k.0 == query)
                .copied()
                .collect();
            for k in keys {
                if let Some(acc) = self.spans.remove(&k) {
                    self.eng.sink().record(acc.into_record());
                }
            }
            self.eng.sink().seal(query.0);
        }
    }

    /// The coordinator's instrumentation state: stage timestamps plus its
    /// own seeding spans (reported as worker [`COORD_WORKER`]).
    #[derive(Debug)]
    pub struct CoordObs {
        eng: Arc<EngineObs>,
        spans: FxHashMap<(QueryId, u16), SpanAcc>,
    }

    impl CoordObs {
        /// Instrumentation for the coordinator on `fabric`'s cluster.
        pub fn new(fabric: &Arc<Fabric>) -> Self {
            let eng = Arc::clone(fabric.obs());
            CoordObs {
                spans: FxHashMap::default(),
                eng,
            }
        }

        /// Stamp the begin time of `(query, stage)`.
        pub fn stage_begin(&self, query: QueryId, stage: u16) {
            self.eng
                .sink()
                .stage_begin(query.0, stage as u32, self.eng.now_ns());
        }

        /// Stamp the end time of `(query, stage)`.
        pub fn stage_end(&self, query: QueryId, stage: u16) {
            self.eng
                .sink()
                .stage_end(query.0, stage as u32, self.eng.now_ns());
        }

        /// The coordinator seeded one traverser to `dest` (inter-stage
        /// `PrevRows` sources).
        pub fn seed_sent(&mut self, query: QueryId, stage: u16, dest: u32, bytes: u64) {
            let sp = span_entry(&mut self.spans, query, stage, COORD_WORKER);
            sp.rec.sent_remote += 1;
            sp.rec.msgs[0] += 1;
            sp.rec.bytes[0] += bytes;
            *sp.hops.entry(dest).or_insert(0) += 1;
        }

        /// The coordinator is sending the control message `msg` for
        /// `(query, stage)`.
        pub fn ctrl_sent(&mut self, query: QueryId, stage: u16, msg: &WireMsg) {
            let sp = span_entry(&mut self.spans, query, stage, COORD_WORKER);
            sp.rec.msgs[3] += 1;
            sp.rec.bytes[3] += wire::encoded_len(msg) as u64;
        }

        /// The query finished: flush the coordinator's spans and hand the
        /// sink the final latency and ledger counts. Must be called before
        /// the ledger forgets the query.
        pub fn query_done(&mut self, query: QueryId, total_ns: u64, sent: u64, delivered: u64) {
            let keys: Vec<(QueryId, u16)> = self
                .spans
                .keys()
                .filter(|k| k.0 == query)
                .copied()
                .collect();
            for k in keys {
                if let Some(acc) = self.spans.remove(&k) {
                    self.eng.sink().record(acc.into_record());
                }
            }
            self.eng
                .sink()
                .query_done(query.0, total_ns, sent, delivered);
        }

        /// Discard all trace state of a query that will never complete.
        pub fn forget(&mut self, query: QueryId) {
            self.spans.retain(|k, _| k.0 != query);
            self.eng.sink().forget(query.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Feature-off stubs: the names exist (so docs and type-level references
// stay valid) but carry no data and no methods — every call site in the
// engine is feature-gated, so nothing references them at runtime.
// ---------------------------------------------------------------------------

/// Zero-sized stub (the `obs` feature is disabled).
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineObs;

/// Zero-sized stub (the `obs` feature is disabled).
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default, Clone, Copy)]
pub struct NetShard;

/// Zero-sized stub (the `obs` feature is disabled).
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkerObs;

/// Zero-sized stub (the `obs` feature is disabled).
#[cfg(not(feature = "obs"))]
#[derive(Debug, Default, Clone, Copy)]
pub struct CoordObs;

/// Compile-time proof that the disabled-feature build carries no
/// instrumentation state: every obs type is zero-sized, so no engine
/// struct grows and no hot-path code can touch observability data.
#[cfg(all(test, not(feature = "obs")))]
mod zero_cost_tests {
    #[test]
    fn stubs_are_zero_sized() {
        assert_eq!(size_of::<super::EngineObs>(), 0);
        assert_eq!(size_of::<super::NetShard>(), 0);
        assert_eq!(size_of::<super::WorkerObs>(), 0);
        assert_eq!(size_of::<super::CoordObs>(), 0);
    }
}
