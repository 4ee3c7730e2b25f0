//! Service-side observability glue: `svc.*` metrics behind the `obs`
//! cargo feature, zero-sized no-op stubs without it (same pattern as
//! `graphdance_engine::obs`; the stub's zero cost is verified by the
//! `size_of` test below).
//!
//! All recording happens under the service-state mutex, so one metrics
//! shard satisfies the registry's single-writer discipline (the mutex is
//! the ordering edge between successive writers).

#[cfg(feature = "obs")]
pub use real::SvcObs;

#[cfg(feature = "obs")]
mod real {
    use graphdance_obs::{MetricId, Registry, ShardHandle};

    use crate::config::{Priority, NUM_CLASSES};

    /// Registered `svc.*` metric ids plus the (mutex-guarded) shard that
    /// records them.
    #[derive(Debug)]
    pub struct SvcObs {
        registry: std::sync::Arc<Registry>,
        shard: ShardHandle,
        admitted: MetricId,
        rejected: MetricId,
        cancelled: MetricId,
        deadline_expired: MetricId,
        queue_depth: MetricId,
        /// Queue-wait (admission → dispatch/expiry) in µs, one histogram
        /// per class, [`Priority`] lane order.
        queue_wait_us: [MetricId; NUM_CLASSES],
    }

    impl SvcObs {
        /// Register every service metric against `registry` and take the
        /// service's single recording shard.
        pub fn new(registry: std::sync::Arc<Registry>) -> SvcObs {
            let admitted = registry.counter("svc.admitted");
            let rejected = registry.counter("svc.rejected");
            let cancelled = registry.counter("svc.cancelled");
            let deadline_expired = registry.counter("svc.deadline_expired");
            let queue_depth = registry.gauge("svc.queue_depth");
            let queue_wait_us = Priority::ALL
                .map(|c| registry.histogram(&format!("svc.queue_wait_us.{}", c.name())));
            let shard = registry.shard();
            SvcObs {
                registry,
                shard,
                admitted,
                rejected,
                cancelled,
                deadline_expired,
                queue_depth,
                queue_wait_us,
            }
        }

        /// A `SvcObs` over its own fresh registry (the common case: the
        /// service merges this into the engine snapshot at scrape time).
        pub fn fresh() -> SvcObs {
            SvcObs::new(std::sync::Arc::new(Registry::new()))
        }

        /// The registry the `svc.*` metrics live in (scrape via
        /// [`Registry::snapshot`]).
        pub fn registry(&self) -> &std::sync::Arc<Registry> {
            &self.registry
        }

        pub fn admitted(&self) {
            self.shard.inc(self.admitted);
        }

        pub fn rejected(&self) {
            self.shard.inc(self.rejected);
        }

        pub fn cancelled(&self) {
            self.shard.inc(self.cancelled);
        }

        pub fn deadline_expired(&self) {
            self.shard.inc(self.deadline_expired);
        }

        pub fn queue_depth(&self, depth: u64) {
            self.shard.set(self.queue_depth, depth);
        }

        pub fn queue_wait(&self, class: Priority, wait_us: u64) {
            self.shard
                .observe(self.queue_wait_us[class.index()], wait_us);
        }
    }
}

#[cfg(not(feature = "obs"))]
pub use stub::SvcObs;

#[cfg(not(feature = "obs"))]
mod stub {
    use crate::config::Priority;

    /// Zero-sized no-op stand-in for the instrumented `SvcObs`.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct SvcObs;

    impl SvcObs {
        pub fn fresh() -> SvcObs {
            SvcObs
        }

        pub fn admitted(&self) {}
        pub fn rejected(&self) {}
        pub fn cancelled(&self) {}
        pub fn deadline_expired(&self) {}
        pub fn queue_depth(&self, _depth: u64) {}
        pub fn queue_wait(&self, _class: Priority, _wait_us: u64) {}
    }
}

#[cfg(all(test, not(feature = "obs")))]
mod zero_cost_tests {
    use super::SvcObs;

    #[test]
    fn stub_is_zero_sized() {
        assert_eq!(size_of::<SvcObs>(), 0);
    }
}
