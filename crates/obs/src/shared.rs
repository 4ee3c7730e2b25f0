//! Shared (multi-writer) histograms.
//!
//! The sharded registry is the hot-path tool; this type covers the places
//! that *cannot* own a per-thread shard — e.g. storage structures behind an
//! `Arc` that several workers read. It pays for that with relaxed
//! `fetch_add` RMWs, so it belongs on amortized paths only (one update per
//! scan, not per entry). Its snapshots are merged into a
//! [`crate::MetricsSnapshot`] by whoever owns them.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{bucket_of, BUCKETS};
use crate::snapshot::HistData;

/// A shared log-2 histogram (relaxed `fetch_add` per sample).
#[derive(Debug)]
pub struct SharedHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for SharedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot into plain data (mergeable into a [`crate::MetricsSnapshot`]).
    pub fn data(&self) -> HistData {
        HistData {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_histogram() {
        let h = SharedHistogram::new();
        for v in [0u64, 1, 2, 3, 1024] {
            h.observe(v);
        }
        let d = h.data();
        assert_eq!(d.count(), 5);
        assert_eq!(d.sum, 1030);
        assert_eq!(d.buckets[0], 1);
        assert_eq!(d.buckets[1], 1);
        assert_eq!(d.buckets[2], 2);
        assert_eq!(d.buckets[11], 1); // 1024 = 2^10 → bucket 11
    }
}
