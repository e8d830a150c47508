//! # uninet-ingest
//!
//! Concurrent ingestion subsystem for dynamic graphs: turns the serial
//! streaming-update path (`apply → maintain → refresh → retrain`, one
//! mutation batch at a time on one thread) into a pipeline that keeps
//! mutation intake, sampler maintenance and embedding refresh off each
//! other's critical paths:
//!
//! 1. **Bounded intake** ([`queue`]) — a reader thread chunks the update
//!    stream into batches and feeds a bounded MPSC queue; a full queue blocks
//!    the reader (back-pressure), so memory stays bounded under load spikes.
//! 2. **Vertex-range sharding** ([`shard`], [`apply`]) — each batch is
//!    partitioned by endpoint pair; shards own disjoint vertex ranges of the
//!    `DynamicGraph` overlay and apply their local mutations in parallel,
//!    with cross-shard events applied serially. The partition preserves
//!    per-edge mutation order, which makes the merged result *identical* to
//!    sequential application (property-tested in `tests/proptest_ingest.rs`).
//! 3. **Parallel maintenance** — alias/proposal rebuilds over touched
//!    sampler buckets fan out across the same worker pool
//!    (`SamplerManager::maintain_weights_parallel`); the M-H backend needs no
//!    rebuild at all, which is the paper's dynamic-workload claim.
//! 4. **Downstream hooks** ([`pipeline`]) — after every batch the pipeline
//!    hands the report to a callback where `uninet-core` fans walk refresh
//!    out over the walk-engine thread pool and applies incremental
//!    (regenerated-walks-only) embedding updates.
//!
//! Each job has one function: [`run_durable_pipeline`] runs the pipeline,
//! [`batch_queue`] builds the queue and [`ShardedMaintainer::new`] the
//! maintainer. All three record into an [`IngestMetrics`]; pass
//! [`IngestMetrics::detached`] when nothing observes it, and a `None` WAL
//! hook to run without a log.
//!
//! ```
//! use uninet_ingest::ShardPlan;
//!
//! // 100 vertices split across 4 disjoint contiguous ranges: every vertex
//! // belongs to exactly one shard, so shards apply mutations in parallel
//! // without ever touching the same adjacency row.
//! let plan = ShardPlan::new(100, 4);
//! assert_eq!(plan.num_shards(), 4);
//! assert_eq!(plan.shard_of(0), plan.shard_of(24));
//! assert_ne!(plan.shard_of(0), plan.shard_of(99));
//! ```

pub mod apply;
pub mod metrics;
pub mod pipeline;
pub mod queue;
pub mod shard;

pub use apply::ShardedMaintainer;
pub use metrics::IngestMetrics;
pub use pipeline::{run_durable_pipeline, IngestConfig, IngestReport};
pub use queue::{batch_queue, BatchReceiver, BatchSender, QueueStats, RateLimiter};
pub use shard::{PartitionedBatch, ShardPlan};
