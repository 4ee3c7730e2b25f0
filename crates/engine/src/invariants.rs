//! Debug-build message-conservation ledger and liveness diagnostics (the
//! dynamic half of `cargo xtask check`, engine side).
//!
//! For every query the fabric counts traversers handed to an outbox
//! (`sent`) and traversers handed to a destination inbox (`delivered`).
//! The conservation law:
//!
//! * while a query runs, `sent − delivered` equals the traversers in
//!   flight inside the network layer;
//! * at quiesce (stage/scope completion), every sent traverser must have
//!   been delivered — `sent == delivered`.
//!
//! A message lost between outbox and inbox breaks weight conservation too,
//! but the *symptom* there is a stage that never completes: the tracker
//! waits forever for weight that sank with the message. The coordinator's
//! liveness watchdog uses this ledger to turn that silent hang into a
//! fast, diagnosable failure: a query that has made no progress for the
//! stall window *and* shows a sent/delivered imbalance is aborted with the
//! ledger dump instead of idling out its full deadline.
//!
//! The ledger is active in debug builds only ([`MsgLedger::ENABLED`]); in
//! release builds every method is a no-op and the hot-path cost vanishes.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use graphdance_common::{FxHashMap, QueryId};

/// Per-query sent/delivered counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MsgCounts {
    /// Traversers handed to an outbox (local or remote destination).
    pub sent: u64,
    /// Traversers handed to a destination worker's inbox.
    pub delivered: u64,
}

impl MsgCounts {
    /// Traversers currently inside the network layer.
    pub fn in_flight(&self) -> u64 {
        self.sent.saturating_sub(self.delivered)
    }

    /// Traversers delivered more than once (a duplication fault): the
    /// excess of `delivered` over `sent`. Invisible to [`Self::in_flight`],
    /// which saturates at zero.
    pub fn surplus(&self) -> u64 {
        self.delivered.saturating_sub(self.sent)
    }
}

/// Fabric-wide message-conservation ledger. Shared by all outboxes and the
/// delivery paths of one [`crate::net::Fabric`].
#[derive(Debug, Default)]
pub struct MsgLedger {
    counts: Mutex<FxHashMap<QueryId, MsgCounts>>,
    /// Per-process ledger mode (multi-process clusters, see
    /// [`crate::net::Fabric::new_with_transport`]): a delivery may
    /// legitimately arrive for a query this process never sent for, so
    /// [`MsgLedger::record_delivered`] must create the entry instead of
    /// dropping the count — conservation only holds **summed across** the
    /// processes' ledgers, and an uncounted delivery would skew the sum.
    local: AtomicBool,
}

impl MsgLedger {
    /// Whether the ledger records anything (debug builds only).
    pub const ENABLED: bool = cfg!(debug_assertions);

    /// Fresh ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record traversers handed to an outbox for `query`.
    #[inline]
    pub fn record_sent(&self, query: QueryId, n: u64) {
        if !Self::ENABLED || n == 0 {
            return;
        }
        // lint: allow(hot-path-blocking) debug-build ledger: bounded O(1)
        // map update, compiled out of release via Self::ENABLED
        self.counts.lock().entry(query).or_default().sent += n;
    }

    /// Record traversers delivered to a worker inbox for `query`. In the
    /// default (global-ledger) mode only queries with a live `sent` entry
    /// are updated, so late deliveries for forgotten queries do not
    /// repopulate the map; in per-process mode ([`MsgLedger::set_local`])
    /// the entry is created, because the matching `sent` lives in another
    /// process's ledger.
    #[inline]
    pub fn record_delivered(&self, query: QueryId, n: u64) {
        if !Self::ENABLED || n == 0 {
            return;
        }
        // sync: mode flag, set once at fabric construction
        if self.local.load(Ordering::Relaxed) {
            // lint: allow(hot-path-blocking) debug-build ledger: bounded
            // O(1) map update, compiled out of release via Self::ENABLED
            self.counts.lock().entry(query).or_default().delivered += n;
            return;
        }
        // lint: allow(hot-path-blocking) debug-build ledger: bounded O(1)
        // map update, compiled out of release via Self::ENABLED
        if let Some(c) = self.counts.lock().get_mut(&query) {
            c.delivered += n;
        }
    }

    /// Switch to per-process mode: deliveries are counted even when this
    /// process never sent for the query (the send happened in a peer
    /// process). Set once, before any traffic, by
    /// [`crate::net::Fabric::new_with_transport`].
    pub fn set_local(&self, on: bool) {
        // sync: mode flag, set once at fabric construction
        self.local.store(on, Ordering::Relaxed);
    }

    /// Is this one process's ledger of a multi-process cluster? Then
    /// `sent == delivered` holds only summed across the processes (as the
    /// transport conformance suite checks), so the coordinator's watchdog
    /// and quiesce check stand down here.
    pub fn is_local(&self) -> bool {
        // sync: mode flag, set once at fabric construction
        self.local.load(Ordering::Relaxed)
    }

    /// Current counters for `query` (zeroes when untracked).
    pub fn counts(&self, query: QueryId) -> MsgCounts {
        // lint: allow(hot-path-blocking) debug-build ledger: bounded O(1)
        // map read, no blocking while held
        self.counts.lock().get(&query).copied().unwrap_or_default()
    }

    /// Does `query` show a sent/delivered mismatch right now — either
    /// undelivered traversers (drop) or excess deliveries (duplicate)?
    pub fn has_imbalance(&self, query: QueryId) -> bool {
        let c = self.counts(query);
        c.sent != c.delivered
    }

    /// Drop `query`'s counters (call when the query finishes).
    pub fn forget(&self, query: QueryId) {
        if !Self::ENABLED {
            return;
        }
        // lint: allow(hot-path-blocking) debug-build ledger: bounded O(1)
        // map remove at query teardown
        self.counts.lock().remove(&query);
    }

    /// Quiesce check: at scope completion every sent traverser must have
    /// been delivered exactly once. Returns the diagnostic dump on
    /// violation (deficit *or* surplus).
    pub fn check_quiesced(&self, query: QueryId) -> Result<(), String> {
        if !Self::ENABLED {
            return Ok(());
        }
        let c = self.counts(query);
        if c.sent == c.delivered {
            Ok(())
        } else {
            Err(self.dump(query, "message conservation violated at quiesce"))
        }
    }

    /// Diagnostic dump for `query`: headline, counters, and the direction
    /// of the imbalance. Used by the watchdog and the quiesce check.
    pub fn dump(&self, query: QueryId, headline: &str) -> String {
        let c = self.counts(query);
        if c.delivered > c.sent {
            format!(
                "{headline} for query {query:?}: sent {} traverser message(s), \
                 delivered {}, {} delivered in excess of sent — a message was \
                 duplicated in the delivery path",
                c.sent,
                c.delivered,
                c.surplus(),
            )
        } else {
            format!(
                "{headline} for query {query:?}: sent {} traverser message(s), \
                 delivered {}, {} still marked in flight — a message was dropped \
                 or a delivery path is not counting",
                c.sent,
                c.delivered,
                c.in_flight(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_query_quiesces_clean() {
        let ledger = MsgLedger::new();
        let q = QueryId(1);
        ledger.record_sent(q, 3);
        ledger.record_delivered(q, 2);
        assert_eq!(
            ledger.counts(q),
            MsgCounts {
                sent: 3,
                delivered: 2
            }
        );
        assert!(ledger.has_imbalance(q));
        ledger.record_delivered(q, 1);
        assert!(!ledger.has_imbalance(q));
        assert_eq!(ledger.check_quiesced(q), Ok(()));
    }

    #[test]
    fn dropped_message_is_reported_with_diagnostic() {
        let ledger = MsgLedger::new();
        let q = QueryId(7);
        ledger.record_sent(q, 5);
        ledger.record_delivered(q, 4); // one message sank
        let err = ledger
            .check_quiesced(q)
            .expect_err("imbalance must be flagged");
        assert!(err.contains("q7"), "diagnostic names the query: {err}");
        assert!(err.contains("sent 5"), "got: {err}");
        assert!(err.contains("delivered 4"), "got: {err}");
        assert!(err.contains("1 still marked in flight"), "got: {err}");
    }

    #[test]
    fn duplicated_message_is_reported_with_diagnostic() {
        let ledger = MsgLedger::new();
        let q = QueryId(8);
        ledger.record_sent(q, 3);
        ledger.record_delivered(q, 4); // one message delivered twice
        assert_eq!(ledger.counts(q).surplus(), 1);
        assert_eq!(ledger.counts(q).in_flight(), 0, "in_flight saturates");
        assert!(ledger.has_imbalance(q), "surplus counts as imbalance");
        let err = ledger
            .check_quiesced(q)
            .expect_err("surplus must be flagged");
        assert!(err.contains("duplicated"), "got: {err}");
        assert!(err.contains("sent 3"), "got: {err}");
        assert!(err.contains("delivered 4"), "got: {err}");
    }

    #[test]
    fn forget_clears_and_blocks_late_deliveries() {
        let ledger = MsgLedger::new();
        let q = QueryId(2);
        ledger.record_sent(q, 1);
        ledger.forget(q);
        assert_eq!(ledger.counts(q), MsgCounts::default());
        // A straggler delivered after the query ended must not repopulate.
        ledger.record_delivered(q, 1);
        assert_eq!(ledger.counts(q), MsgCounts::default());
    }

    #[test]
    fn untracked_queries_are_balanced() {
        let ledger = MsgLedger::new();
        assert!(!ledger.has_imbalance(QueryId(99)));
        assert_eq!(ledger.check_quiesced(QueryId(99)), Ok(()));
    }
}
