//! # uninet-core
//!
//! UniNet: a unified, scalable framework for random-walk based network
//! representation learning (reproduction of the ICDE 2021 paper).
//!
//! The crate glues the substrates together into the two-step pipeline the
//! paper describes:
//!
//! ```text
//! Walks      = RandomWalkGeneration(G, N, L)   // uninet-walker + uninet-sampler
//! Embeddings = Word2Vec(Walks)                 // uninet-embedding
//! ```
//!
//! and wraps it in one long-lived facade:
//!
//! * [`Engine`] / [`EngineBuilder`] — the validated entry point: batch
//!   training ([`Engine::train`]), streaming ingestion ([`Engine::stream`])
//!   and a concurrent embedding query service ([`Engine::top_k`]) behind a
//!   single handle.
//! * [`ModelSpec`] — declarative description of which NRL model to run
//!   (DeepWalk, node2vec, metapath2vec, edge2vec, fairwalk) with its
//!   hyper-parameters.
//! * [`UniNetError`] — the workspace-wide typed error enum every fallible
//!   public entry point returns.
//! * [`baselines`] — sampler/parallelism configurations that emulate the
//!   original open-source implementations and "UniNet (Orig)".
//! * [`report`] — plain-text table rendering used by the benchmark harness.
//!
//! ## Quickstart
//!
//! ```
//! use uninet_core::{Engine, ModelSpec};
//! use uninet_graph::generators::{rmat, RmatConfig};
//!
//! let graph = rmat(&RmatConfig { num_nodes: 300, num_edges: 2000, ..Default::default() });
//! let engine = Engine::builder()
//!     .graph(graph)
//!     .model(ModelSpec::DeepWalk)
//!     .num_walks(2)
//!     .walk_length(20)
//!     .dim(32)
//!     .threads(2)
//!     .build()
//!     .expect("valid configuration");
//! let report = engine.train().expect("engine is idle");
//! assert_eq!(engine.snapshot().num_nodes(), engine.num_nodes());
//! assert!(report.corpus.num_walks() > 0);
//! ```

pub mod baselines;
pub mod config;
pub mod durability;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod streaming;

pub use baselines::{baseline_sampler_for, BaselineKind};
pub use config::{ModelSpec, UniNetConfig};
pub use durability::{DurabilityReport, PersistOptions, RecoverySummary};
pub use engine::{Engine, EngineBuilder, StreamHandle, StreamOutcome, TrainReport};
pub use error::UniNetError;
pub use metrics::EngineMetrics;
pub use pipeline::PipelineResult;
pub use report::{format_duration, format_speedup, Table};
pub use streaming::{StreamingConfig, StreamingReport};

pub use uninet_dyngraph::{
    DynamicGraph, GraphMutation, IncrementalMaintainer, ParseIssue, StreamError, UpdateBatch,
};
pub use uninet_embedding::kernels;
pub use uninet_embedding::{
    AnnConfig, EmbeddingSnapshot, EmbeddingStore, Embeddings, HnswIndex, IncrementalStats,
    KernelBackend, QueryMode, StoreTelemetry,
};
pub use uninet_graph::{Graph, GraphError};
pub use uninet_ingest::{IngestConfig, IngestMetrics, QueueStats};
pub use uninet_metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot,
    PhaseRecorder, PhaseTiming, StageTimer, Stopwatch,
};
pub use uninet_persist::{FsyncPolicy, PersistError, RecoveredState, SamplerState};
pub use uninet_sampler::{EdgeSamplerKind, InitStrategy};
pub use uninet_walker::{WalkCorpus, WalkEngineConfig};
