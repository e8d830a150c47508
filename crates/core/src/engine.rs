//! The long-lived engine facade: one builder-validated handle over batch
//! training, streaming ingestion and concurrent embedding queries.
//!
//! [`EngineBuilder`] collects the graph source, model spec and
//! hyper-parameters, validates everything once, and produces an [`Engine`].
//! The engine owns the graph and an [`EmbeddingStore`] serving layer:
//!
//! * [`Engine::train`] — the batch pipeline (walks + word2vec), publishing
//!   the learned embeddings to the store.
//! * [`Engine::stream`] — spawns the concurrent ingestion pipeline on a
//!   background thread and returns a [`StreamHandle`]; the engine stays
//!   queryable the whole time, and with
//!   [`StreamingConfig::incremental_train`](crate::StreamingConfig) every
//!   batch that trained publishes an updated snapshot.
//! * [`Engine::top_k`] / [`Engine::cosine`] / [`Engine::vector`] — embedding
//!   queries served lock-free from the latest published snapshot; with
//!   [`StreamingConfig::ann_index`](crate::StreamingConfig) top-k routes
//!   through a per-snapshot HNSW
//!   index ([`QueryMode`] selects the path per call), and
//!   [`Engine::top_k_batch`] / [`Engine::cosine_batch`] answer query slabs
//!   from one snapshot acquisition.
//!
//! ```
//! use uninet_core::{Engine, ModelSpec};
//! use uninet_graph::generators::barabasi_albert;
//!
//! let engine = Engine::builder()
//!     .graph(barabasi_albert(300, 4, true, 7))
//!     .model(ModelSpec::DeepWalk)
//!     .num_walks(2)
//!     .walk_length(15)
//!     .dim(32)
//!     .threads(2)
//!     .build()
//!     .expect("valid configuration");
//! let report = engine.train().expect("engine is idle");
//! assert!(report.corpus.num_walks() > 0);
//! let neighbours = engine.top_k(0, 5);
//! assert_eq!(neighbours.len(), 5);
//! ```

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use uninet_dyngraph::GraphMutation;
use uninet_embedding::{
    AnnConfig, EmbeddingSnapshot, EmbeddingStore, Embeddings, HnswIndex, QueryMode, StoreTelemetry,
    TrainStats,
};
use uninet_graph::io::{read_edge_list_file, EdgeListOptions};
use uninet_graph::Graph;
use uninet_ingest::IngestMetrics;
use uninet_metrics::{MetricsRegistry, MetricsSnapshot, PhaseTiming};
use uninet_persist::{FsyncPolicy, SamplerState};
use uninet_sampler::EdgeSamplerKind;
use uninet_walker::{WalkCorpus, WalkEngineConfig};

use crate::config::{ModelSpec, UniNetConfig};
use crate::durability::{PersistOptions, RecoverySummary, SessionPersist};
use crate::error::UniNetError;
use crate::metrics::EngineMetrics;
use crate::pipeline::{self, PipelineResult};
use crate::streaming::{run_streaming_session, StreamingConfig, StreamingReport};

/// Where the engine's graph comes from.
enum GraphSource {
    /// An already-constructed graph.
    InMemory(Graph),
    /// An edge-list file loaded at build time.
    EdgeList(PathBuf, EdgeListOptions),
}

/// Typed, validating builder for [`Engine`].
///
/// Every setter is chainable; [`EngineBuilder::build`] performs all
/// validation and returns [`UniNetError::InvalidConfig`] for the first
/// rejected field, so a misconfigured engine can never be constructed.
///
/// ```
/// use uninet_core::{Engine, ModelSpec, UniNetError};
/// use uninet_graph::generators::ring_with_chords;
///
/// // Zero walks per node is rejected at build time, not at run time.
/// let err = Engine::builder()
///     .graph(ring_with_chords(50, 2))
///     .num_walks(0)
///     .build()
///     .unwrap_err();
/// assert!(matches!(err, UniNetError::InvalidConfig { field: "walk.num_walks", .. }));
/// ```
pub struct EngineBuilder {
    source: Option<GraphSource>,
    spec: ModelSpec,
    config: UniNetConfig,
    streaming: StreamingConfig,
    wal_dir: Option<PathBuf>,
    snapshot_every: Option<usize>,
    wal_fsync: Option<FsyncPolicy>,
    recover_dir: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// Starts a builder with the paper-default configuration and DeepWalk.
    pub fn new() -> Self {
        EngineBuilder {
            source: None,
            spec: ModelSpec::DeepWalk,
            config: UniNetConfig::default(),
            streaming: StreamingConfig::default(),
            wal_dir: None,
            snapshot_every: None,
            wal_fsync: None,
            recover_dir: None,
        }
    }

    /// Uses an already-constructed graph.
    pub fn graph(mut self, graph: Graph) -> Self {
        self.source = Some(GraphSource::InMemory(graph));
        self
    }

    /// Loads the graph from an edge-list file at build time
    /// (`src dst [weight] [edge_type]` per line).
    pub fn graph_from_edge_list(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(GraphSource::EdgeList(
            path.into(),
            EdgeListOptions::default(),
        ));
        self
    }

    /// Loads the graph from an edge-list file with explicit parse options.
    pub fn graph_from_edge_list_with(
        mut self,
        path: impl Into<PathBuf>,
        options: EdgeListOptions,
    ) -> Self {
        self.source = Some(GraphSource::EdgeList(path.into(), options));
        self
    }

    /// Selects the NRL model to run (default: DeepWalk).
    pub fn model(mut self, spec: ModelSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the whole pipeline configuration (walk + embedding), e.g.
    /// one produced by [`crate::baselines::configure`].
    pub fn config(mut self, config: UniNetConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the walk-generation configuration wholesale.
    pub fn walk_config(mut self, walk: WalkEngineConfig) -> Self {
        self.config.walk = walk;
        self
    }

    /// Replaces the streaming configuration wholesale.
    pub fn streaming(mut self, streaming: StreamingConfig) -> Self {
        self.streaming = streaming;
        self
    }

    /// Walks started per node (`K`).
    pub fn num_walks(mut self, k: usize) -> Self {
        self.config.walk.num_walks = k;
        self
    }

    /// Nodes per walk (`L`).
    pub fn walk_length(mut self, l: usize) -> Self {
        self.config.walk.walk_length = l;
        self
    }

    /// Worker threads for walk generation and refresh, training and index
    /// builds.
    pub fn threads(mut self, t: usize) -> Self {
        self.config.walk.num_threads = t;
        self.config.embedding.num_threads = t;
        self
    }

    /// The edge-sampler backend.
    pub fn sampler(mut self, sampler: EdgeSamplerKind) -> Self {
        self.config.walk.sampler = sampler;
        self
    }

    /// Memory budget for the memory-aware sampler.
    pub fn memory_budget_bytes(mut self, bytes: usize) -> Self {
        self.config.walk.memory_budget_bytes = bytes;
        self
    }

    /// Seed for both walk generation and embedding training RNGs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.walk.seed = seed;
        self.config.embedding.seed = seed;
        self
    }

    /// Embedding dimensionality.
    pub fn dim(mut self, dim: usize) -> Self {
        self.config.embedding.dim = dim;
        self
    }

    /// Skip-gram context window.
    pub fn window(mut self, window: usize) -> Self {
        self.config.embedding.window = window;
        self
    }

    /// Word2vec epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.embedding.epochs = epochs;
        self
    }

    /// Enables the durability plane rooted at `dir`: every streaming batch
    /// is WAL-logged before it is applied, and snapshots of the full state
    /// (graph + embeddings + sampler config) are cut at session boundaries
    /// (plus every [`EngineBuilder::snapshot_every`] batches). The directory
    /// is created and probed for writability at build time.
    pub fn wal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Cut a durability snapshot every `batches` WAL-logged batches during
    /// streaming (0 = only at session boundaries). Requires
    /// [`EngineBuilder::wal`] or [`EngineBuilder::recover`].
    pub fn snapshot_every(mut self, batches: usize) -> Self {
        self.snapshot_every = Some(batches);
        self
    }

    /// When WAL appends reach the disk (default: [`FsyncPolicy::Always`]).
    /// Requires [`EngineBuilder::wal`] or [`EngineBuilder::recover`].
    pub fn wal_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.wal_fsync = Some(policy);
        self
    }

    /// Uses crash recovery from `dir` as the graph source: the newest valid
    /// snapshot is loaded, any torn WAL tail is truncated, and the WAL
    /// suffix is replayed to reconstruct the pre-crash graph; a snapshotted
    /// embedding matrix is restored into the serving store at its original
    /// epoch. The directory stays the engine's WAL directory, so subsequent
    /// streams keep appending where the crashed process stopped. Conflicts
    /// with [`EngineBuilder::graph`] / edge-list sources.
    pub fn recover(mut self, dir: impl Into<PathBuf>) -> Self {
        self.recover_dir = Some(dir.into());
        self
    }

    /// Validates the configuration, loads (or recovers) the graph, and
    /// constructs the engine.
    pub fn build(self) -> Result<Engine, UniNetError> {
        let EngineBuilder {
            source,
            spec,
            mut config,
            streaming,
            wal_dir,
            snapshot_every,
            wal_fsync,
            recover_dir,
        } = self;

        // Durability options resolve first: a WAL directory that cannot be
        // written is a build-time error, not a degraded session later.
        let persist = match wal_dir.clone().or_else(|| recover_dir.clone()) {
            Some(dir) => {
                std::fs::create_dir_all(&dir).map_err(|e| {
                    UniNetError::invalid_config(
                        "persist.wal_dir",
                        format!("cannot create {}: {e}", dir.display()),
                    )
                })?;
                let probe = dir.join(".uninet-write-probe");
                std::fs::write(&probe, b"probe").map_err(|e| {
                    UniNetError::invalid_config(
                        "persist.wal_dir",
                        format!("{} is not writable: {e}", dir.display()),
                    )
                })?;
                let _ = std::fs::remove_file(&probe);
                Some(PersistOptions {
                    wal_dir: dir,
                    snapshot_every: snapshot_every.unwrap_or(0),
                    fsync: wal_fsync.unwrap_or(FsyncPolicy::Always),
                })
            }
            None => {
                if snapshot_every.is_some() {
                    return Err(UniNetError::invalid_config(
                        "persist.snapshot_every",
                        "requires a WAL directory: call .wal(dir) or .recover(dir)",
                    ));
                }
                if wal_fsync.is_some() {
                    return Err(UniNetError::invalid_config(
                        "persist.wal_fsync",
                        "requires a WAL directory: call .wal(dir) or .recover(dir)",
                    ));
                }
                None
            }
        };

        // Crash recovery is a graph *source*; mixing it with an explicit one
        // would silently discard whichever lost the race.
        let mut recovery: Option<RecoverySummary> = None;
        let mut restored: Option<(Embeddings, u64, Option<Vec<u8>>)> = None;
        let mut live: Option<Vec<bool>> = None;
        let graph = if let Some(dir) = &recover_dir {
            if source.is_some() {
                return Err(UniNetError::invalid_config(
                    "graph",
                    ".recover(..) conflicts with an explicit graph source: \
                     pass one or the other",
                ));
            }
            let t = Instant::now();
            let state = uninet_persist::recover(dir)?;
            recovery = Some(RecoverySummary::from_state(&state, t.elapsed()));
            restored = state.embeddings.map(|e| (e, state.epoch, state.index));
            live = state.live;
            state.graph
        } else {
            match source.ok_or_else(|| {
                UniNetError::invalid_config(
                    "graph",
                    "no graph source: call .graph(..), .graph_from_edge_list(..) \
                     or .recover(..)",
                )
            })? {
                GraphSource::InMemory(g) => g,
                GraphSource::EdgeList(path, options) => read_edge_list_file(&path, options)?,
            }
        };

        if graph.num_nodes() == 0 {
            return Err(UniNetError::invalid_config("graph", "graph has no nodes"));
        }
        spec.validate()?;
        // Graph-dependent spec checks: a metapath naming a node type the
        // graph does not have can never transition and silently degenerates
        // every walk to its start node.
        if let ModelSpec::MetaPath2Vec { metapath } = &spec {
            let available = graph.num_node_types().max(1);
            if let Some(&bad) = metapath.iter().find(|&&t| t >= available) {
                return Err(UniNetError::invalid_config(
                    "model.metapath",
                    format!(
                        "metapath names node type {bad} but the graph only has types \
                         0..{available}"
                    ),
                ));
            }
        }

        // Thread counts are normalized, everything else must be explicit.
        config.walk.num_threads = config.walk.num_threads.max(1);
        config.embedding.num_threads = config.embedding.num_threads.max(1);

        // ANN parameters only matter while the index is on; int8 serving
        // needs the index to carry its codes.
        let ann = &streaming.ann;
        let ann_off = !streaming.ann_index;
        let checks: [(&'static str, bool, String); 14] = [
            (
                "walk.num_walks",
                config.walk.num_walks >= 1,
                "must start at least 1 walk per node (got 0)".into(),
            ),
            (
                "walk.walk_length",
                config.walk.walk_length >= 2,
                format!(
                    "a walk must visit at least 2 nodes (got {})",
                    config.walk.walk_length
                ),
            ),
            (
                "embedding.dim",
                config.embedding.dim >= 1,
                "embedding dimensionality must be positive (got 0)".into(),
            ),
            (
                "embedding.epochs",
                config.embedding.epochs >= 1,
                "training needs at least 1 epoch (got 0)".into(),
            ),
            (
                "embedding.window",
                config.embedding.window >= 1,
                "the context window must be positive (got 0)".into(),
            ),
            (
                "embedding.initial_alpha",
                config.embedding.initial_alpha.is_finite() && config.embedding.initial_alpha > 0.0,
                format!(
                    "the learning rate must be a positive finite number (got {})",
                    config.embedding.initial_alpha
                ),
            ),
            (
                "streaming.batch_size",
                streaming.batch_size >= 1,
                "streaming batches must hold at least 1 mutation (got 0)".into(),
            ),
            (
                "streaming.queue_capacity",
                streaming.queue_capacity >= 1,
                "the intake queue must buffer at least 1 batch (got 0)".into(),
            ),
            (
                "streaming.ann.m",
                ann_off || ann.m >= 2,
                format!("HNSW needs at least 2 links per node (got {})", ann.m),
            ),
            (
                "streaming.ann.ef_construction",
                ann_off || ann.ef_construction >= ann.m,
                format!(
                    "the construction beam must be at least m = {} (got {})",
                    ann.m, ann.ef_construction
                ),
            ),
            (
                "streaming.ann.ef_search",
                ann_off || ann.ef_search >= 1,
                "the query beam must be positive (got 0)".into(),
            ),
            (
                "streaming.ann.rerank",
                ann_off || ann.rerank >= 1,
                "the f32 re-rank budget must be at least 1 per result (got 0)".into(),
            ),
            (
                "streaming.ann.quantize",
                !(ann_off && ann.quantize),
                "int8 quantized serving requires ann_index".into(),
            ),
            (
                "streaming.cold_start_boost",
                streaming.cold_start_boost.is_finite() && streaming.cold_start_boost > 0.0,
                format!(
                    "the cold-start learning-rate boost must be finite and positive (got {})",
                    streaming.cold_start_boost
                ),
            ),
        ];
        for (field, ok, reason) in checks {
            if !ok {
                return Err(UniNetError::InvalidConfig { field, reason });
            }
        }

        // One registry spans all three telemetry planes: the store registers
        // its publish/epoch/query instruments, the ingest pipeline its
        // queue/apply/maintenance ones, and the engine its training rounds.
        let registry = MetricsRegistry::new();

        // The serving store; with ANN enabled, every published snapshot gets
        // an HNSW index whose level RNG derives from the engine seed, built
        // on the engine's threads (the graph is the same for any count).
        let store = if streaming.ann_index {
            EmbeddingStore::with_ann(AnnConfig {
                seed: config.walk.seed,
                threads: config.walk.num_threads,
                ..streaming.ann
            })
        } else {
            EmbeddingStore::new()
        };
        let store = store.instrumented(StoreTelemetry::registered(&registry));
        // A recovered embedding matrix is served immediately, at the epoch
        // the snapshot recorded — readers observe the same epoch sequence
        // (and the same open-world universe) they would have seen had the
        // process never died.
        if let Some((embeddings, epoch, graph_bytes)) = restored {
            // Arrivals replayed from the WAL suffix have graph rows but no
            // vectors yet; the serving universe is the part of the mask the
            // matrix covers.
            let serving_live = live.as_ref().map(|mask| {
                let mut mask = mask.clone();
                mask.resize(embeddings.num_nodes(), true);
                mask
            });
            let (index, verbatim) = recovered_index(
                store.ann_config(),
                graph_bytes.as_deref(),
                &embeddings,
                serving_live.as_deref(),
            );
            if let Some(summary) = recovery.as_mut() {
                summary.restored_index = verbatim;
            }
            store.restore(embeddings, epoch, serving_live, index);
        }

        let num_nodes = graph.num_nodes();
        Ok(Engine {
            inner: Arc::new(EngineInner {
                config,
                streaming,
                spec,
                num_nodes,
                store: Arc::new(store),
                ingest_metrics: IngestMetrics::registered(&registry),
                engine_metrics: EngineMetrics::registered(&registry),
                registry,
                persist,
                recovery,
                core: Mutex::new(CoreState::Idle(EngineCore { graph, live })),
            }),
        })
    }
}

/// The index a recovered matrix is served with, from the graph its snapshot
/// carried, and whether that graph is used exactly as it was written.
///
/// A graph the importer accepts is installed as it is when it holds exactly
/// the live ids — the restart then builds nothing. When the WAL suffix (or
/// the batch the snapshot was cut in) moved the universe, the graph is run
/// through [`HnswIndex::graft`] instead: the vectors are the ones it was
/// built on, so every surviving row keeps its links, dead ids are filtered
/// out of every list and new ids inserted. No graph, a refused one or an
/// engine without ANN yields `None`, and the store builds from scratch (or
/// not at all).
fn recovered_index(
    config: Option<&AnnConfig>,
    graph_bytes: Option<&[u8]>,
    embeddings: &Embeddings,
    live: Option<&[bool]>,
) -> (Option<HnswIndex>, bool) {
    let (Some(config), Some(bytes)) = (config, graph_bytes) else {
        return (None, false);
    };
    match HnswIndex::import_graph(bytes, embeddings, config) {
        Ok(index) if index.covers_universe(live) => (Some(index), true),
        Ok(index) => (
            Some(HnswIndex::graft(embeddings, config, &index, live)),
            false,
        ),
        Err(e) => {
            eprintln!("warning: the snapshot's index is not usable, rebuilding it: {e}");
            (None, false)
        }
    }
}

/// The engine state a streaming session borrows exclusively.
struct EngineCore {
    graph: Graph,
    /// Open-world universe mask over the graph's rows (`None` = fully live),
    /// carried across sessions so retired ids stay retired.
    live: Option<Vec<bool>>,
}

/// Whereabouts of the engine's exclusive state.
enum CoreState {
    /// Available for `train`/`generate_walks`/`stream`.
    Idle(EngineCore),
    /// A streaming session owns the core on its background thread.
    Streaming,
    /// A streaming session panicked and the core was lost with it.
    Poisoned,
}

struct EngineInner {
    config: UniNetConfig,
    streaming: StreamingConfig,
    spec: ModelSpec,
    num_nodes: usize,
    store: Arc<EmbeddingStore>,
    /// Ingest-plane instrument handles, shared with streaming sessions.
    ingest_metrics: IngestMetrics,
    /// Training-round instrument handles.
    engine_metrics: EngineMetrics,
    /// The registry all three planes register into; snapshotted by
    /// [`Engine::metrics`].
    registry: MetricsRegistry,
    /// Durability options; `Some` makes every streaming session durable.
    persist: Option<PersistOptions>,
    /// What [`EngineBuilder::recover`] rebuilt, when the engine was born
    /// from a crash recovery.
    recovery: Option<RecoverySummary>,
    core: Mutex<CoreState>,
}

impl EngineInner {
    /// Acquires the core for an exclusive operation. The returned guard is
    /// held for the operation's duration — a panic in the operation unwinds
    /// with the core still in place, so the engine survives.
    fn lock_core(
        &self,
        operation: &'static str,
    ) -> Result<std::sync::MutexGuard<'_, CoreState>, UniNetError> {
        let guard = match self.core.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                return Err(UniNetError::EngineBusy { operation })
            }
            Err(std::sync::TryLockError::Poisoned(e)) => {
                // An exclusive operation panicked while holding the lock.
                // Batch operations only read the graph, so the state is
                // intact — recover it.
                self.core.clear_poison();
                e.into_inner()
            }
        };
        match &*guard {
            CoreState::Idle(_) => Ok(guard),
            CoreState::Streaming => Err(UniNetError::EngineBusy { operation }),
            CoreState::Poisoned => Err(UniNetError::EnginePoisoned { operation }),
        }
    }
}

/// Summary of one [`Engine::train`] run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Wall-clock breakdown (`Ti`, `Tw`, `Tl`).
    pub timing: PhaseTiming,
    /// Word2vec training statistics.
    pub train_stats: TrainStats,
    /// The generated walk corpus.
    pub corpus: WalkCorpus,
    /// The store epoch under which the learned embeddings were published.
    pub epoch: u64,
}

/// Everything produced by a completed streaming session.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The pipeline outputs (final embeddings, refreshed corpus, timing).
    pub result: PipelineResult,
    /// Ingestion/maintenance/refresh accounting.
    pub report: StreamingReport,
    /// The store epoch after the final snapshot was published.
    pub epoch: u64,
}

/// A running streaming-ingestion session.
///
/// The session drives the ingest pipeline on a background thread; the engine
/// (and any clone of its [`EmbeddingStore`]) stays queryable the whole time.
/// Call [`StreamHandle::join`] to wait for completion and collect the
/// [`StreamOutcome`]; the engine's graph is updated to the post-stream
/// compacted graph and becomes available to `train`/`stream` again.
pub struct StreamHandle {
    thread: JoinHandle<(PipelineResult, StreamingReport, u64)>,
    store: Arc<EmbeddingStore>,
}

impl StreamHandle {
    /// The serving store the session publishes snapshots into — clone it
    /// into reader threads to query embeddings while ingestion runs.
    pub fn store(&self) -> Arc<EmbeddingStore> {
        Arc::clone(&self.store)
    }

    /// Whether the session thread has finished.
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Waits for the session to finish and returns its outcome.
    pub fn join(self) -> Result<StreamOutcome, UniNetError> {
        // The epoch comes from the session's own last publish, not from the
        // store, so a train() racing in right after the session cannot leak
        // its epoch into this outcome.
        let (result, report, epoch) = self
            .thread
            .join()
            .map_err(|_| UniNetError::StreamPanicked)?;
        Ok(StreamOutcome {
            result,
            report,
            epoch,
        })
    }
}

/// The long-lived UniNet engine: batch training, streaming ingestion and a
/// concurrent embedding query service behind one handle.
///
/// Constructed by [`EngineBuilder`] (see [`Engine::builder`]); cheap to
/// clone-share via its internal `Arc`s. See the [module docs](self) for a
/// quickstart.
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Clone for Engine {
    /// Clones the handle, not the state: both handles share the same graph,
    /// store and busy/idle state via the internal `Arc`.
    fn clone(&self) -> Self {
        Engine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.inner.core.try_lock() {
            Ok(guard) => match &*guard {
                CoreState::Idle(_) => "idle",
                CoreState::Streaming => "streaming",
                CoreState::Poisoned => "poisoned",
            },
            Err(_) => "busy",
        };
        f.debug_struct("Engine")
            .field("model", &self.inner.spec.name())
            .field("num_nodes", &self.inner.num_nodes)
            .field("epoch", &self.inner.store.epoch())
            .field("state", &state)
            .finish()
    }
}

impl Engine {
    /// Starts a new [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The active pipeline configuration.
    pub fn config(&self) -> &UniNetConfig {
        &self.inner.config
    }

    /// The active streaming configuration.
    pub fn streaming_config(&self) -> &StreamingConfig {
        &self.inner.streaming
    }

    /// The model spec the engine runs.
    pub fn spec(&self) -> &ModelSpec {
        &self.inner.spec
    }

    /// The durability options the engine was built with (`None` when the
    /// engine runs without a WAL).
    pub fn persist_options(&self) -> Option<&PersistOptions> {
        self.inner.persist.as_ref()
    }

    /// What [`EngineBuilder::recover`] rebuilt, when this engine was born
    /// from a crash recovery.
    pub fn recovery(&self) -> Option<&RecoverySummary> {
        self.inner.recovery.as_ref()
    }

    /// The persisted sampler identity (strategy + seed) snapshots record so
    /// recovery can rebuild chains deterministically.
    fn sampler_state(&self) -> SamplerState {
        SamplerState {
            kind: self.inner.config.walk.sampler,
            seed: self.inner.config.walk.seed,
        }
    }

    /// Number of nodes in the engine's graph.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    /// The concurrent embedding query service. Snapshots are published by
    /// [`Engine::train`] and by streaming sessions; clones can be handed to
    /// reader threads and outlive the engine.
    pub fn store(&self) -> Arc<EmbeddingStore> {
        Arc::clone(&self.inner.store)
    }

    /// The registry every engine instrument is registered in. Useful for
    /// registering additional application-level instruments next to the
    /// engine's own, so one [`Engine::metrics`] snapshot covers both.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.inner.registry.clone()
    }

    /// A point-in-time snapshot of every instrument across the three planes
    /// (`ingest.*`, `engine.*`, `query.*`). Derived gauges (epoch age) are
    /// refreshed first; the snapshot itself never blocks recording threads.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.store.telemetry().refresh_epoch_age();
        self.inner.registry.snapshot()
    }

    /// The current embedding snapshot (epoch 0 and empty until the first
    /// train or stream completes a training pass).
    pub fn snapshot(&self) -> Arc<EmbeddingSnapshot> {
        self.inner.store.snapshot()
    }

    /// The embedding vector of `node` in the latest snapshot.
    pub fn vector(&self, node: u32) -> Option<Vec<f32>> {
        self.inner.store.vector(node)
    }

    /// Cosine similarity between two nodes in the latest snapshot.
    pub fn cosine(&self, a: u32, b: u32) -> Option<f32> {
        self.inner.store.cosine(a, b)
    }

    /// The `k` most similar nodes to `node` in the latest snapshot.
    ///
    /// Routes through the snapshot's HNSW index when the engine was built
    /// with [`StreamingConfig::ann_index`] (falling back to the exact scan
    /// otherwise); use [`Engine::top_k_mode`] to pick the path explicitly.
    pub fn top_k(&self, node: u32, k: usize) -> Vec<(u32, f32)> {
        self.inner.store.top_k_mode(node, k, QueryMode::Ann)
    }

    /// The `k` most similar nodes to `node`, selected via an explicit
    /// [`QueryMode`]: [`QueryMode::Exact`] always scans every vector,
    /// [`QueryMode::Ann`] uses the snapshot's HNSW index when one exists.
    pub fn top_k_mode(&self, node: u32, k: usize, mode: QueryMode) -> Vec<(u32, f32)> {
        self.inner.store.top_k_mode(node, k, mode)
    }

    /// Answers a slab of top-k queries with one snapshot acquisition: the
    /// read lock is taken once and every row is served from the same epoch.
    pub fn top_k_batch(&self, nodes: &[u32], k: usize, mode: QueryMode) -> Vec<Vec<(u32, f32)>> {
        self.inner.store.top_k_batch(nodes, k, mode)
    }

    /// Answers a slab of cosine queries with one snapshot acquisition.
    pub fn cosine_batch(&self, pairs: &[(u32, u32)]) -> Vec<Option<f32>> {
        self.inner.store.cosine_batch(pairs)
    }

    /// Runs walk generation only and returns the corpus plus (`Ti`, `Tw`).
    ///
    /// Fails with [`UniNetError::EngineBusy`] while a streaming session (or
    /// another exclusive operation) is active.
    pub fn generate_walks(&self) -> Result<(WalkCorpus, PhaseTiming), UniNetError> {
        let guard = self.inner.lock_core("generate walks")?;
        let CoreState::Idle(core) = &*guard else {
            unreachable!("lock_core only returns idle guards");
        };
        let model = self
            .inner
            .spec
            .instantiate(&core.graph)
            .expect("spec validated at build time");
        Ok(pipeline::generate_walks(
            &self.inner.config,
            &core.graph,
            model.as_ref(),
        ))
    }

    /// Runs the batch pipeline (walks + embedding learning) and publishes
    /// the learned embeddings to the engine's store.
    ///
    /// Fails with [`UniNetError::EngineBusy`] while a streaming session (or
    /// another exclusive operation) is active.
    pub fn train(&self) -> Result<TrainReport, UniNetError> {
        let guard = self.inner.lock_core("train")?;
        let CoreState::Idle(core) = &*guard else {
            unreachable!("lock_core only returns idle guards");
        };
        let model = self
            .inner
            .spec
            .instantiate(&core.graph)
            .expect("spec validated at build time");
        let result = pipeline::run_batch(&self.inner.config, &core.graph, model.as_ref());
        self.inner.engine_metrics.record_round(&result.timing);
        // Publish before releasing the core, so a stream() racing in right
        // after us cannot have its fresher snapshots overwritten by these.
        let durable_copy = self
            .inner
            .persist
            .as_ref()
            .map(|_| result.embeddings.clone());
        let epoch = self
            .inner
            .store
            .publish_with_universe(result.embeddings, core.live.clone());
        // Batch training replaces the whole matrix, so a durable engine cuts
        // a snapshot right after publishing — a crash between trainings then
        // recovers to exactly what readers were being served.
        if let (Some(opts), Some(embeddings)) = (self.inner.persist.as_ref(), durable_copy) {
            match SessionPersist::begin(opts, self.inner.streaming.symmetric, self.sampler_state())
            {
                Ok(mut p) => p.write_state(
                    core.graph.clone(),
                    Some(embeddings),
                    epoch,
                    core.live.clone(),
                    Some(&self.inner.store),
                ),
                Err(e) => eprintln!("warning: post-train durability snapshot failed: {e}"),
            }
        }
        drop(guard);
        Ok(TrainReport {
            timing: result.timing,
            train_stats: result.train_stats,
            corpus: result.corpus,
            epoch,
        })
    }

    /// Spawns the streaming-ingestion session over `mutations` on a
    /// background thread and returns its [`StreamHandle`].
    ///
    /// The engine stays queryable while the session runs: reads are served
    /// from the latest published snapshot (with
    /// [`StreamingConfig::incremental_train`](crate::StreamingConfig) each
    /// batch that trained publishes one; otherwise the final embeddings are
    /// published at end-of-stream). A second `stream` or a `train` during the
    /// session fails with [`UniNetError::EngineBusy`].
    pub fn stream(&self, mutations: Vec<GraphMutation>) -> Result<StreamHandle, UniNetError> {
        // Closed-world engines reject node ops up front with a typed error,
        // instead of silently skipping them or mutating the universe behind
        // the caller's back.
        if !self.inner.streaming.allow_churn {
            if let Some(pos) = mutations.iter().position(|m| m.is_node_op()) {
                return Err(UniNetError::invalid_config(
                    "streaming.allow_churn",
                    format!(
                        "mutation #{pos} ({:?}) is an open-world node op but churn is \
                         disabled; enable allow_churn to stream arrivals/retirements",
                        mutations[pos]
                    ),
                ));
            }
        }
        // Open the WAL before taking the core: a durable session that cannot
        // log must fail synchronously, with the engine still idle.
        let persist = match self.inner.persist.as_ref() {
            Some(opts) => Some(
                SessionPersist::begin(opts, self.inner.streaming.symmetric, self.sampler_state())
                    .map_err(UniNetError::Persist)?,
            ),
            None => None,
        };
        let mut guard = self.inner.lock_core("stream")?;
        let CoreState::Idle(core) = std::mem::replace(&mut *guard, CoreState::Streaming) else {
            unreachable!("lock_core only returns idle guards");
        };
        drop(guard);
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::spawn(move || {
            // The session owns the graph, so a panic would otherwise lose the
            // core forever while the state still claims a session is active.
            // Catch the unwind, mark the engine poisoned (later exclusive
            // calls get `EnginePoisoned` instead of a misleading busy error),
            // and re-raise so `join` reports `StreamPanicked`.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_streaming_session(
                    &inner.config,
                    &inner.streaming,
                    &inner.spec,
                    core.graph,
                    core.live,
                    &mutations,
                    Some(&inner.store),
                    persist,
                    &inner.ingest_metrics,
                    &inner.engine_metrics,
                )
            }));
            let mut state = inner.core.lock().expect("engine core lock poisoned");
            match outcome {
                Ok((result, report, final_graph, final_live, epoch)) => {
                    *state = CoreState::Idle(EngineCore {
                        graph: final_graph,
                        live: final_live,
                    });
                    drop(state);
                    (result, report, epoch)
                }
                Err(payload) => {
                    *state = CoreState::Poisoned;
                    drop(state);
                    std::panic::resume_unwind(payload)
                }
            }
        });
        Ok(StreamHandle {
            thread,
            store: Arc::clone(&self.inner.store),
        })
    }

    /// Convenience wrapper: run a full streaming session synchronously.
    pub fn stream_blocking(
        &self,
        mutations: Vec<GraphMutation>,
    ) -> Result<StreamOutcome, UniNetError> {
        self.stream(mutations)?.join()
    }
}
