//! Telemetry handles for the serving layer: publish/epoch instruments on the
//! engine plane and per-[`QueryMode`](crate::QueryMode) latency instruments
//! on the query plane.
//!
//! [`StoreTelemetry`] follows the same detached/registered pattern as the
//! ingest plane: handles are always present so the store records
//! unconditionally (a relaxed atomic op per event), and only the registered
//! variant makes the numbers observable in a [`MetricsRegistry`] snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use uninet_metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Pre-resolved instrument handles for an [`EmbeddingStore`](crate::EmbeddingStore).
#[derive(Debug, Clone)]
pub struct StoreTelemetry {
    /// End-to-end publish latency, snapshot build through pointer swap
    /// (`engine.publish.total_ns`).
    pub publish_total_ns: Arc<Histogram>,
    /// The `O(n·d)` norms precomputation pass (`engine.publish.norms_ns`).
    pub publish_norms_ns: Arc<Histogram>,
    /// HNSW index construction, zero-cost when ANN is off
    /// (`engine.publish.ann_build_ns`).
    pub publish_ann_build_ns: Arc<Histogram>,
    /// Publishes that kept the previous snapshot's index instead of building
    /// one (`engine.publish.ann_deferred`).
    pub publish_ann_deferred: Arc<Counter>,
    /// Publishes the serving snapshot's index lags its vectors by, 0 when
    /// the index is current (`engine.publish.index_lag_batches`).
    pub index_lag_batches: Arc<Gauge>,
    /// Which distance-kernel backend the query plane dispatched to, as
    /// [`kernels::KernelBackend`](crate::kernels::KernelBackend) `as i64`
    /// (`query.kernel_backend`). Set once at construction — dispatch is
    /// process-wide and never changes after first use.
    pub kernel_backend: Arc<Gauge>,
    /// Epoch of the most recently published snapshot (`engine.epoch`).
    pub epoch: Arc<Gauge>,
    /// Live (non-retired) nodes in the current snapshot's universe
    /// (`engine.live_nodes`) — diverges from the row count under open-world
    /// churn, where retired ids keep their rows but stop being served.
    pub live_nodes: Arc<Gauge>,
    /// Milliseconds since the last publish, refreshed by
    /// [`refresh_epoch_age`](Self::refresh_epoch_age) (`engine.epoch_age_ms`).
    pub epoch_age_ms: Arc<Gauge>,
    /// Exact top-k latency through the store (`query.top_k.exact_ns`).
    pub query_exact_ns: Arc<Histogram>,
    /// ANN top-k latency through the store (`query.top_k.ann_ns`).
    pub query_ann_ns: Arc<Histogram>,
    /// Rows per batch query (`query.batch.size`).
    pub batch_size: Arc<Histogram>,
    /// Whole-batch latency (`query.batch.total_ns`).
    pub batch_total_ns: Arc<Histogram>,
    /// ANN queries that fell back to the exact scan (`query.ann_fallbacks`).
    pub ann_fallbacks: Arc<Counter>,
    /// Publish timestamps as milliseconds since `origin`; gauges cannot
    /// observe the clock on their own, so the age is derived on refresh.
    last_publish_ms: Arc<AtomicU64>,
    origin: Instant,
}

impl StoreTelemetry {
    fn build(registry: Option<&MetricsRegistry>) -> Self {
        let counter = |name: &str| match registry {
            Some(r) => r.counter(name),
            None => Arc::new(Counter::new()),
        };
        let gauge = |name: &str| match registry {
            Some(r) => r.gauge(name),
            None => Arc::new(Gauge::new()),
        };
        let histogram = |name: &str| match registry {
            Some(r) => r.histogram(name),
            None => Arc::new(Histogram::new()),
        };
        let kernel_backend = gauge("query.kernel_backend");
        kernel_backend.set(crate::kernels::backend() as i64);
        StoreTelemetry {
            publish_total_ns: histogram("engine.publish.total_ns"),
            publish_norms_ns: histogram("engine.publish.norms_ns"),
            publish_ann_build_ns: histogram("engine.publish.ann_build_ns"),
            publish_ann_deferred: counter("engine.publish.ann_deferred"),
            index_lag_batches: gauge("engine.publish.index_lag_batches"),
            kernel_backend,
            epoch: gauge("engine.epoch"),
            live_nodes: gauge("engine.live_nodes"),
            epoch_age_ms: gauge("engine.epoch_age_ms"),
            query_exact_ns: histogram("query.top_k.exact_ns"),
            query_ann_ns: histogram("query.top_k.ann_ns"),
            batch_size: histogram("query.batch.size"),
            batch_total_ns: histogram("query.batch.total_ns"),
            ann_fallbacks: counter("query.ann_fallbacks"),
            last_publish_ms: Arc::new(AtomicU64::new(0)),
            origin: Instant::now(),
        }
    }

    /// Handles not registered anywhere (the no-telemetry default).
    pub fn detached() -> Self {
        Self::build(None)
    }

    /// Handles registered under `engine.*` / `query.*` in `registry`.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        Self::build(Some(registry))
    }

    /// Records a publish at epoch `epoch`, resetting the epoch-age clock.
    pub(crate) fn note_publish(&self, epoch: u64) {
        self.epoch.set(epoch as i64);
        self.last_publish_ms
            .store(self.origin.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Recomputes `engine.epoch_age_ms` from the wall clock. Call right
    /// before snapshotting the registry; gauges are passive between calls.
    pub fn refresh_epoch_age(&self) {
        let now = self.origin.elapsed().as_millis() as u64;
        let last = self.last_publish_ms.load(Ordering::Relaxed);
        self.epoch_age_ms.set(now.saturating_sub(last) as i64);
    }
}

impl Default for StoreTelemetry {
    fn default() -> Self {
        Self::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_handles_appear_under_engine_and_query() {
        let registry = MetricsRegistry::new();
        let t = StoreTelemetry::registered(&registry);
        t.note_publish(3);
        t.refresh_epoch_age();
        t.query_exact_ns.record(500);
        t.ann_fallbacks.inc();
        t.publish_ann_deferred.inc();
        t.publish_ann_build_ns.record(12);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("engine.epoch"), Some(3));
        assert!(snap.gauge("engine.epoch_age_ms").is_some());
        assert_eq!(snap.counter("engine.publish.ann_deferred"), Some(1));
        assert_eq!(
            snap.histogram("engine.publish.ann_build_ns")
                .unwrap()
                .count(),
            1
        );
        // The kernel-backend gauge is stamped at construction.
        assert!(snap.gauge("query.kernel_backend").is_some());
        assert_eq!(snap.histogram("query.top_k.exact_ns").unwrap().count(), 1);
        assert_eq!(snap.counter("query.ann_fallbacks"), Some(1));
        assert!(!snap.section("engine").is_empty());
        assert!(!snap.section("query").is_empty());
    }

    #[test]
    fn epoch_age_resets_on_publish() {
        let t = StoreTelemetry::detached();
        t.note_publish(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.refresh_epoch_age();
        let aged = t.epoch_age_ms.get();
        assert!(aged >= 4, "age {aged}ms after 5ms sleep");
        t.note_publish(2);
        t.refresh_epoch_age();
        assert!(t.epoch_age_ms.get() <= aged);
    }
}
