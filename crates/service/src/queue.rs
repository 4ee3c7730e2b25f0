//! The bounded, class-aware admission queue.
//!
//! Pure data structure — no threads, no clock reads — so the scheduling
//! policy is deterministic and property-testable in isolation (see
//! `tests/queue_props.rs`). The service front-end drives it under a mutex;
//! the DST service runner exercises the same admission order through the
//! virtual clock.
//!
//! Policy:
//!
//! * **Bounded admission** — a global capacity across all classes; a full
//!   queue sheds with [`GdError::Overloaded`] instead of growing.
//! * **FIFO within a class** — each class is one lane, served in arrival
//!   order.
//! * **Deficit round robin across classes** — the dispatcher visits lanes
//!   in a fixed rotation; on arrival at a backlogged lane it grants the
//!   lane its configured quantum and serves up to that many queries before
//!   moving on. Every backlogged lane is served at least once per
//!   rotation, so no class starves; over a backlogged interval, class `c`
//!   receives `weights[c] / Σ weights` of the dispatch slots.
//! * **Deadline expiry** — queued entries whose deadline passed are
//!   removed in deterministic `(deadline, token)` order, so incremental
//!   expiry sweeps observe the same order as one final sweep.

use std::collections::VecDeque;
use std::time::Instant;

use graphdance_common::GdError;

use crate::config::{Priority, NUM_CLASSES};

/// One admitted-but-not-yet-dispatched submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admitted<T> {
    /// Admission sequence number — unique per queue, monotonically
    /// increasing, so it doubles as an arrival-order witness.
    pub token: u64,
    pub class: Priority,
    /// When the submission was admitted (queue-wait histograms).
    pub enqueued_at: Instant,
    /// Hard deadline: if still queued past this instant the entry is
    /// swept by [`AdmissionQueue::expire`] without ever dispatching.
    pub deadline: Instant,
    pub item: T,
}

/// Bounded multi-class FIFO with deficit-round-robin dispatch.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    capacity: usize,
    weights: [u64; NUM_CLASSES],
    lanes: [VecDeque<Admitted<T>>; NUM_CLASSES],
    /// Remaining quantum of the lane the rotation is currently serving.
    deficit: [u64; NUM_CLASSES],
    /// The lane the rotation is positioned at.
    cursor: usize,
    len: usize,
    next_token: u64,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue. `weights` must all be non-zero (a zero-weight lane
    /// would never be granted a quantum — starvation by configuration).
    pub fn new(capacity: usize, weights: [u32; NUM_CLASSES]) -> Self {
        assert!(
            weights.iter().all(|&w| w > 0),
            "class weights must be non-zero"
        );
        AdmissionQueue {
            capacity,
            weights: weights.map(u64::from),
            lanes: Default::default(),
            deficit: [0; NUM_CLASSES],
            cursor: 0,
            len: 0,
            next_token: 0,
        }
    }

    /// Total queued entries across all classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued entries in one class's lane.
    pub fn class_len(&self, class: Priority) -> usize {
        self.lanes[class.index()].len()
    }

    /// Admit a submission, or shed it with [`GdError::Overloaded`] when
    /// the queue is at capacity. Returns the admission token.
    pub fn try_admit(
        &mut self,
        class: Priority,
        enqueued_at: Instant,
        deadline: Instant,
        item: T,
    ) -> Result<u64, GdError> {
        if self.len >= self.capacity {
            return Err(GdError::Overloaded);
        }
        let token = self.next_token;
        self.next_token += 1;
        self.lanes[class.index()].push_back(Admitted {
            token,
            class,
            enqueued_at,
            deadline,
            item,
        });
        self.len += 1;
        Ok(token)
    }

    /// Dispatch the next entry under deficit round robin, or `None` when
    /// the queue is empty.
    pub fn pop_next(&mut self) -> Option<Admitted<T>> {
        if self.len == 0 {
            return None;
        }
        // Bounded: each iteration either serves the cursor lane or moves
        // the cursor; a full rotation reaches some non-empty lane and
        // grants it a quantum ≥ 1.
        loop {
            let c = self.cursor;
            if self.lanes[c].is_empty() {
                // Idle lanes bank no credit across their idle period.
                self.deficit[c] = 0;
                self.cursor = (c + 1) % NUM_CLASSES;
                continue;
            }
            if self.deficit[c] == 0 {
                // Rotation just arrived at a backlogged lane: grant its
                // quantum.
                self.deficit[c] = self.weights[c];
            }
            self.deficit[c] -= 1;
            self.len -= 1;
            let out = self.lanes[c].pop_front();
            if self.deficit[c] == 0 {
                self.cursor = (c + 1) % NUM_CLASSES;
            }
            return out;
        }
    }

    /// Remove a queued entry by token (client cancellation before
    /// dispatch). `None` if the token is not queued (already dispatched,
    /// expired, or never admitted).
    pub fn remove(&mut self, token: u64) -> Option<Admitted<T>> {
        for lane in &mut self.lanes {
            if let Some(pos) = lane.iter().position(|a| a.token == token) {
                self.len -= 1;
                return lane.remove(pos);
            }
        }
        None
    }

    /// Sweep out every queued entry whose deadline is at or before `now`,
    /// in `(deadline, token)` order. Incremental sweeps at increasing
    /// instants observe the same cumulative order as a single final sweep
    /// (asserted by a property test), so expiry accounting is
    /// snapshot-stable.
    pub fn expire(&mut self, now: Instant) -> Vec<Admitted<T>> {
        let mut out = Vec::new();
        for lane in &mut self.lanes {
            let mut keep = VecDeque::with_capacity(lane.len());
            for a in lane.drain(..) {
                if a.deadline <= now {
                    out.push(a);
                } else {
                    keep.push_back(a);
                }
            }
            *lane = keep;
        }
        self.len -= out.len();
        out.sort_by_key(|a| (a.deadline, a.token));
        out
    }

    /// The earliest queued deadline (the service timer's next wake).
    pub fn next_deadline(&self) -> Option<Instant> {
        self.lanes
            .iter()
            .flat_map(|l| l.iter().map(|a| a.deadline))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn t0() -> Instant {
        graphdance_common::time::now()
    }

    fn far() -> Instant {
        t0() + Duration::from_secs(3600)
    }

    #[test]
    fn sheds_with_overloaded_at_capacity() {
        let mut q = AdmissionQueue::new(2, [1, 1, 1]);
        q.try_admit(Priority::Interactive, t0(), far(), 'a')
            .unwrap();
        q.try_admit(Priority::Background, t0(), far(), 'b').unwrap();
        assert!(matches!(
            q.try_admit(Priority::Interactive, t0(), far(), 'c'),
            Err(GdError::Overloaded)
        ));
        assert_eq!(q.len(), 2);
        // Draining one slot re-opens admission.
        q.pop_next().unwrap();
        q.try_admit(Priority::Heavy, t0(), far(), 'd').unwrap();
    }

    #[test]
    fn fifo_within_a_class() {
        let mut q = AdmissionQueue::new(16, [1, 1, 1]);
        for i in 0..5 {
            q.try_admit(Priority::Heavy, t0(), far(), i).unwrap();
        }
        let mut got = Vec::new();
        while let Some(a) = q.pop_next() {
            got.push(a.item);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drr_shares_follow_weights_under_backlog() {
        // Keep every lane backlogged and count dispatches per class over
        // many rotations: shares must match the 4:2:1 quanta.
        let mut q = AdmissionQueue::new(1024, [4, 2, 1]);
        let mut counts = [0u32; NUM_CLASSES];
        for _ in 0..70 {
            for c in Priority::ALL {
                while q.class_len(c) < 4 {
                    q.try_admit(c, t0(), far(), ()).unwrap();
                }
            }
            let a = q.pop_next().unwrap();
            counts[a.class.index()] += 1;
        }
        // 70 dispatches = 10 full rotations of 7 quanta.
        assert_eq!(counts, [40, 20, 10], "weighted shares off: {counts:?}");
    }

    #[test]
    fn background_is_served_every_rotation() {
        let mut q = AdmissionQueue::new(1024, [8, 3, 1]);
        q.try_admit(Priority::Background, t0(), far(), ()).unwrap();
        // A full interactive backlog may delay background by at most one
        // rotation's worth of higher-class quanta (8 + 3).
        for _ in 0..100 {
            q.try_admit(Priority::Interactive, t0(), far(), ()).unwrap();
        }
        let mut pops = 0;
        loop {
            pops += 1;
            if q.pop_next().unwrap().class == Priority::Background {
                break;
            }
        }
        assert!(pops <= 12, "background starved for {pops} dispatches");
    }

    #[test]
    fn expire_sweeps_in_deadline_order() {
        let mut q = AdmissionQueue::new(16, [1, 1, 1]);
        let base = t0();
        let d = |ms| base + Duration::from_millis(ms);
        q.try_admit(Priority::Interactive, base, d(30), 'a')
            .unwrap();
        q.try_admit(Priority::Background, base, d(10), 'b').unwrap();
        q.try_admit(Priority::Heavy, base, d(20), 'c').unwrap();
        q.try_admit(Priority::Heavy, base, d(99), 'd').unwrap();
        let swept: Vec<char> = q.expire(d(40)).into_iter().map(|a| a.item).collect();
        assert_eq!(swept, vec!['b', 'c', 'a']);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_deadline(), Some(d(99)));
    }

    #[test]
    fn remove_targets_one_token() {
        let mut q = AdmissionQueue::new(16, [1, 1, 1]);
        let a = q.try_admit(Priority::Heavy, t0(), far(), 'a').unwrap();
        let b = q.try_admit(Priority::Heavy, t0(), far(), 'b').unwrap();
        assert_eq!(q.remove(a).unwrap().item, 'a');
        assert!(q.remove(a).is_none(), "remove is not idempotent-by-echo");
        assert_eq!(q.len(), 1);
        assert_eq!(q.remove(b).unwrap().item, 'b');
        assert!(q.is_empty());
    }
}
