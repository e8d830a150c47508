//! # uninet-ingest
//!
//! Ingestion pipeline for dynamic graphs: a reader thread keeps mutation
//! intake off the consumer's critical path, and the consumer runs
//! `apply → maintain → refresh → retrain` one batch at a time, in stream
//! order:
//!
//! 1. **Bounded intake** ([`queue`]) — a reader thread chunks the update
//!    stream into batches and feeds a bounded MPSC queue; a full queue blocks
//!    the reader (back-pressure), so memory stays bounded under load spikes.
//! 2. **Consumer-side apply** ([`pipeline`]) — the caller's thread drains
//!    the queue and applies each batch through
//!    `uninet_dyngraph::IncrementalMaintainer`: overlay application, then
//!    sampler maintenance over the touched nodes (a counter bump for the M-H
//!    backend, the paper's dynamic-workload claim; an O(deg) table rebuild
//!    per state for alias-family backends), then threshold compaction.
//! 3. **Downstream hooks** ([`pipeline`]) — after every batch the pipeline
//!    hands the report to a callback where `uninet-core` fans walk refresh
//!    out over the walk-engine thread pool and applies incremental
//!    (regenerated-walks-only) embedding updates.
//!
//! Each job has one function: [`run_durable_pipeline`] runs the pipeline and
//! [`batch_queue`] builds the queue. Both record into an [`IngestMetrics`];
//! pass [`IngestMetrics::detached`] when nothing observes it, and a `None`
//! WAL hook to run without a log.
//!
//! ```
//! use uninet_dyngraph::{DynamicGraph, GraphMutation};
//! use uninet_graph::GraphBuilder;
//! use uninet_ingest::{run_durable_pipeline, IngestConfig, IngestMetrics};
//! use uninet_sampler::{EdgeSamplerKind, InitStrategy};
//! use uninet_walker::models::DeepWalk;
//! use uninet_walker::SamplerManager;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 1.0);
//! let mut graph = DynamicGraph::new(b.symmetric(true).build(), true);
//! let model = DeepWalk::new();
//! let kind = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
//! let mut manager = SamplerManager::new(graph.base(), &model, kind, 0);
//!
//! // A reweight and an insert, one batch each: the reweight keeps every M-H
//! // chain, the insert lands in the overlay until the end-of-stream flush.
//! let stream = [
//!     GraphMutation::UpdateWeight { src: 0, dst: 1, weight: 4.0 },
//!     GraphMutation::AddEdge { src: 0, dst: 2, weight: 1.0 },
//! ];
//! let config = IngestConfig { batch_size: 1, ..IngestConfig::default() };
//! let report = run_durable_pipeline(
//!     &config,
//!     &IngestMetrics::detached(),
//!     &mut graph,
//!     &mut manager,
//!     &model,
//!     &stream,
//!     None,
//!     |_, _, _, _| {},
//! );
//! assert_eq!((report.batches, report.weight_mutations, report.topology_mutations), (2, 1, 1));
//! assert_eq!(report.maintenance.states_rebuilt, 0);
//! assert!(graph.base().has_edge(0, 2));
//! ```

pub mod metrics;
pub mod pipeline;
pub mod queue;

pub use metrics::IngestMetrics;
pub use pipeline::{run_durable_pipeline, IngestConfig, IngestReport};
pub use queue::{batch_queue, BatchReceiver, BatchSender, QueueStats, RateLimiter};
