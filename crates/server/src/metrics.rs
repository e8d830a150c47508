//! Server-side telemetry, registered in the engine's own
//! [`MetricsRegistry`] so `Engine::metrics()` (and the CLI's
//! `--metrics-json`) show the serving plane next to walk/train/ingest
//! counters under a single `server.` prefix.

use std::sync::Arc;
use std::time::Duration;

use uninet_metrics::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::proto::Request;

/// Handles to every `server.*` metric. Cloning is cheap (all `Arc`s).
#[derive(Clone)]
pub struct ServerMetrics {
    /// Total requests decoded, including rejected ones.
    pub requests: Arc<Counter>,
    /// Connections accepted over the server's lifetime.
    pub connections: Arc<Counter>,
    /// Data-plane requests refused by admission control.
    pub rejected_overload: Arc<Counter>,
    /// Frames that failed to decode into a request.
    pub bad_requests: Arc<Counter>,
    /// Data-plane requests currently being answered.
    pub inflight: Arc<Gauge>,
    vector_ns: Arc<Histogram>,
    cosine_ns: Arc<Histogram>,
    top_k_ns: Arc<Histogram>,
    top_k_batch_ns: Arc<Histogram>,
    metrics_ns: Arc<Histogram>,
    epoch_ns: Arc<Histogram>,
}

impl ServerMetrics {
    /// Registers (or re-attaches to) the `server.*` metric family.
    pub fn register(registry: &MetricsRegistry) -> Self {
        ServerMetrics {
            requests: registry.counter("server.requests"),
            connections: registry.counter("server.connections"),
            rejected_overload: registry.counter("server.rejected_overload"),
            bad_requests: registry.counter("server.bad_requests"),
            inflight: registry.gauge("server.inflight"),
            vector_ns: registry.histogram("server.vector_ns"),
            cosine_ns: registry.histogram("server.cosine_ns"),
            top_k_ns: registry.histogram("server.top_k_ns"),
            top_k_batch_ns: registry.histogram("server.top_k_batch_ns"),
            metrics_ns: registry.histogram("server.metrics_ns"),
            epoch_ns: registry.histogram("server.epoch_ns"),
        }
    }

    /// Records one answered request's end-to-end latency into the
    /// per-endpoint histogram.
    pub fn record_latency(&self, request: &Request, elapsed: Duration) {
        let hist = match request {
            Request::Vector { .. } => &self.vector_ns,
            Request::Cosine { .. } => &self.cosine_ns,
            Request::TopK { .. } => &self.top_k_ns,
            Request::TopKBatch { .. } => &self.top_k_batch_ns,
            Request::Metrics => &self.metrics_ns,
            Request::Epoch => &self.epoch_ns,
        };
        hist.record_duration(elapsed);
    }
}
