//! The ingest plane's telemetry handles.
//!
//! [`IngestMetrics`] bundles every instrument the ingestion pipeline records
//! into — queue depth/stalls, apply, sampler maintenance, walk refresh,
//! compaction — as pre-resolved `Arc` handles, so hot paths record
//! with a single relaxed atomic op and never consult a registry. Construct it
//! either [`registered`](IngestMetrics::registered) in a
//! [`MetricsRegistry`] (the instruments show up in snapshots under
//! `ingest.*`) or [`detached`](IngestMetrics::detached) (recording works the
//! same but nothing observes it — the no-telemetry default, which keeps every
//! call site branch-free).

use std::sync::Arc;

use uninet_metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Pre-resolved instrument handles for the ingestion pipeline.
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// Live number of batches in the intake queue (`ingest.queue.depth`).
    pub queue_depth: Arc<Gauge>,
    /// Batches pushed through the queue (`ingest.queue.enqueued`).
    pub queue_enqueued: Arc<Counter>,
    /// Producer sends that hit a full queue (`ingest.queue.stalls`).
    pub queue_stalls: Arc<Counter>,
    /// Time the producer spent blocked per stall (`ingest.queue.stall_ns`).
    pub queue_stall_ns: Arc<Histogram>,
    /// End-to-end overlay application per batch (`ingest.apply.batch_ns`).
    pub apply_batch_ns: Arc<Histogram>,
    /// Sampler-maintenance time per batch (`ingest.maintain.sampler_ns`).
    pub maintain_sampler_ns: Arc<Histogram>,
    /// Walk-refresh time per batch (`ingest.refresh.round_ns`).
    pub refresh_round_ns: Arc<Histogram>,
    /// Walks invalidated and regenerated (`ingest.refresh.dirty_walks`).
    pub refresh_dirty_walks: Arc<Counter>,
    /// Wall-clock time of each compaction, sampler re-alignment included
    /// (`ingest.compaction.duration_ns`; one sample per compaction).
    pub compaction_ns: Arc<Histogram>,
    /// Compactions performed (`ingest.compaction.count`).
    pub compactions: Arc<Counter>,
    /// Nodes that arrived (incl. rejoins) via churn (`ingest.churn.arrivals`).
    pub node_arrivals: Arc<Counter>,
    /// Nodes retired from the universe (`ingest.churn.retirements`).
    pub node_retirements: Arc<Counter>,
}

impl IngestMetrics {
    /// Handles not registered anywhere: recording is identical (and equally
    /// cheap) but no snapshot will ever include them.
    pub fn detached() -> Self {
        IngestMetrics {
            queue_depth: Arc::new(Gauge::new()),
            queue_enqueued: Arc::new(Counter::new()),
            queue_stalls: Arc::new(Counter::new()),
            queue_stall_ns: Arc::new(Histogram::new()),
            apply_batch_ns: Arc::new(Histogram::new()),
            maintain_sampler_ns: Arc::new(Histogram::new()),
            refresh_round_ns: Arc::new(Histogram::new()),
            refresh_dirty_walks: Arc::new(Counter::new()),
            compaction_ns: Arc::new(Histogram::new()),
            compactions: Arc::new(Counter::new()),
            node_arrivals: Arc::new(Counter::new()),
            node_retirements: Arc::new(Counter::new()),
        }
    }

    /// Handles registered under `ingest.*` in `registry`, so they appear in
    /// its [`MetricsSnapshot`](uninet_metrics::MetricsSnapshot)s.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        IngestMetrics {
            queue_depth: registry.gauge("ingest.queue.depth"),
            queue_enqueued: registry.counter("ingest.queue.enqueued"),
            queue_stalls: registry.counter("ingest.queue.stalls"),
            queue_stall_ns: registry.histogram("ingest.queue.stall_ns"),
            apply_batch_ns: registry.histogram("ingest.apply.batch_ns"),
            maintain_sampler_ns: registry.histogram("ingest.maintain.sampler_ns"),
            refresh_round_ns: registry.histogram("ingest.refresh.round_ns"),
            refresh_dirty_walks: registry.counter("ingest.refresh.dirty_walks"),
            compaction_ns: registry.histogram("ingest.compaction.duration_ns"),
            compactions: registry.counter("ingest.compaction.count"),
            node_arrivals: registry.counter("ingest.churn.arrivals"),
            node_retirements: registry.counter("ingest.churn.retirements"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_handles_show_up_in_snapshots() {
        let registry = MetricsRegistry::new();
        let m = IngestMetrics::registered(&registry);
        m.queue_depth.set(3);
        m.queue_enqueued.add(5);
        m.apply_batch_ns.record(1_000);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("ingest.queue.depth"), Some(3));
        assert_eq!(snap.counter("ingest.queue.enqueued"), Some(5));
        assert_eq!(snap.histogram("ingest.apply.batch_ns").unwrap().count(), 1);
        assert_eq!(snap.section("ingest").len(), snap.len());
    }

    #[test]
    fn registered_twice_shares_instruments() {
        let registry = MetricsRegistry::new();
        let a = IngestMetrics::registered(&registry);
        let b = IngestMetrics::registered(&registry);
        a.compactions.inc();
        b.compactions.inc();
        assert_eq!(
            registry.snapshot().counter("ingest.compaction.count"),
            Some(2)
        );
    }

    #[test]
    fn detached_records_without_a_registry() {
        let m = IngestMetrics::detached();
        m.queue_stalls.inc();
        m.queue_stall_ns.record(42);
        assert_eq!(m.queue_stalls.get(), 1);
        assert_eq!(m.queue_stall_ns.count(), 1);
    }
}
