//! Streaming pipeline mode: concurrent ingestion of edge-update batches with
//! incremental sampler maintenance, parallel walk refresh and (optionally)
//! incremental embedding updates.
//!
//! This is the dynamic-workload counterpart of [`crate::Engine::train`]: the
//! graph lives in a [`DynamicGraph`] and the update stream flows through the
//! `uninet-ingest` pipeline (a reader thread feeding a bounded queue, then
//! overlay application and sampler maintenance on the session thread).
//! Embeddings are either retrained from scratch on the refreshed corpus at
//! the end or, with [`StreamingConfig::incremental_train`], updated online by
//! SGD passes over only the regenerated walks.
//!
//! A session is one `StreamSession` with a method per phase: `start`, then
//! per applied batch `persist_due`, `apply_churn`, `refresh`, `cold_start`
//! and `publish`, and `finish` once the stream is drained. Every trained
//! version is published to the engine's [`EmbeddingStore`], so readers are
//! served from a consistent epoch while ingestion continues.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use uninet_dyngraph::{
    BatchReport, DynamicGraph, GraphMutation, RefreshStats, UpdateBatch, WalkRefresher,
};
use uninet_embedding::{AnnConfig, EmbeddingStore, OnlineWord2Vec, TrainStats, Word2VecTrainer};
use uninet_graph::{Graph, NodeId};
use uninet_ingest::{run_durable_pipeline, IngestConfig, IngestMetrics, IngestReport, QueueStats};
use uninet_metrics::PhaseTiming;
use uninet_walker::{MaintenanceStats, RandomWalkModel, SamplerManager, WalkCorpus, WalkEngine};

use crate::config::{ModelSpec, UniNetConfig};
use crate::durability::{DurabilityReport, SessionPersist};
use crate::engine::StreamOutcome;
use crate::metrics::EngineMetrics;
use crate::pipeline::PipelineResult;

/// Configuration of the streaming mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Mutations applied per maintenance batch.
    pub batch_size: usize,
    /// Pending overlay entries that trigger compaction back into CSR.
    pub compaction_threshold: usize,
    /// Mirror each mutation onto the reverse edge (undirected graphs).
    pub symmetric: bool,
    /// Batches the intake queue buffers before back-pressure blocks intake.
    pub queue_capacity: usize,
    /// Train embeddings incrementally on regenerated walks instead of a full
    /// retrain at end-of-stream.
    pub incremental_train: bool,
    /// Serve an HNSW ANN index with the published snapshots, so
    /// `QueryMode::Ann` top-k queries run in `O(log n · d)`-ish time instead
    /// of a full scan. The build is paid per publish (outside the store's
    /// write lock), except by a batch with others queued behind it, which
    /// keeps the serving index ([`EmbeddingStore::publish_keeping_index`]).
    pub ann_index: bool,
    /// HNSW parameters, used when [`ann_index`](StreamingConfig::ann_index)
    /// is set. The engine overrides `seed` and `threads` with its own.
    pub ann: AnnConfig,
    /// Accept open-world node arrivals/retirements in the update stream.
    /// When off, [`Engine::stream`](crate::Engine::stream) rejects a stream
    /// containing node ops up front with a typed error.
    pub allow_churn: bool,
    /// Boosted SGD burn-in passes run over each arrival cohort's freshly
    /// seeded walks, pulling cold-start vectors toward their neighbourhood
    /// (incremental training only; 0 disables burn-in).
    pub cold_start_burn_in: usize,
    /// Learning-rate multiplier for cold-start burn-in passes (must be
    /// finite and > 0).
    pub cold_start_boost: f32,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            batch_size: 256,
            compaction_threshold: 1024,
            symmetric: true,
            queue_capacity: 8,
            incremental_train: false,
            ann_index: false,
            ann: AnnConfig::default(),
            allow_churn: false,
            cold_start_burn_in: 2,
            cold_start_boost: 2.0,
        }
    }
}

/// Aggregate statistics of one streaming run.
#[derive(Debug, Clone, Default)]
pub struct StreamingReport {
    /// Batches processed.
    pub batches: usize,
    /// Weight-only mutations applied.
    pub weight_mutations: usize,
    /// Topology mutations applied.
    pub topology_mutations: usize,
    /// Mutations rejected (missing edges, out-of-range nodes, self-loops).
    pub rejected_mutations: usize,
    /// Compactions performed.
    pub compactions: usize,
    /// Sampler maintenance cost accounting across all batches.
    pub maintenance: MaintenanceStats,
    /// Walk refresh accounting across all batches.
    pub refresh: RefreshStats,
    /// Time spent applying mutations to the dynamic graph.
    pub apply_time: Duration,
    /// Time spent repairing sampler state (incl. compactions).
    pub maintain_time: Duration,
    /// Time spent regenerating walks.
    pub refresh_time: Duration,
    /// Updates per second over apply + maintain time.
    pub update_throughput: f64,
    /// Intake queue accounting (back-pressure time, peak depth).
    pub queue: QueueStats,
    /// Walks fed to incremental training passes (0 for full retrain).
    pub incremental_walks_trained: usize,
    /// Incremental SGD passes run (0 for full retrain).
    pub incremental_passes: usize,
    /// Embedding snapshots published to the serving store during the stream.
    pub snapshots_published: usize,
    /// Durability accounting when the session ran with a WAL (`None` for
    /// non-durable sessions).
    pub durability: Option<DurabilityReport>,
    /// Node arrivals applied (open-world streams; includes rejoins).
    pub arrivals: usize,
    /// Node retirements applied (open-world streams).
    pub retirements: usize,
    /// Arrived nodes cold-started: walks seeded (and, with incremental
    /// training, burn-in passes run) once the node gained connectivity.
    pub cold_starts: usize,
}

impl StreamingReport {
    fn finalize(&mut self) {
        let total = self.apply_time + self.maintain_time;
        let applied = self.weight_mutations + self.topology_mutations;
        self.update_throughput = if applied > 0 && total.as_secs_f64() > 0.0 {
            applied as f64 / total.as_secs_f64()
        } else {
            0.0
        };
    }
}

/// The canonical open-world mask of a universe: `None` when every id is live
/// (closed world, the shape closed-world snapshots keep), the full mask
/// otherwise.
fn universe_mask(live: &[bool]) -> Option<Vec<bool>> {
    live.iter().any(|&l| !l).then(|| live.to_vec())
}

/// Merges incremental-pass stats into the session-level training stats.
/// `final_loss` is a mean over one sample per token, so tokens weight it.
fn merge_train_stats(total: &mut TrainStats, pass: &TrainStats) {
    let tokens = total.tokens_processed + pass.tokens_processed;
    if tokens > 0 {
        total.final_loss = (total.final_loss * total.tokens_processed as f64
            + pass.final_loss * pass.tokens_processed as f64)
            / tokens as f64;
    }
    total.tokens_processed = tokens;
    total.pairs_processed += pass.pairs_processed;
}

/// Copies the walks `ids` names out of the corpus, for a training pass.
fn walks_of(corpus: &WalkCorpus, ids: &[u32]) -> Vec<Vec<NodeId>> {
    ids.iter()
        .map(|&id| corpus.walk(id as usize).to_vec())
        .collect()
}

/// What a session reads and records into but does not own. The spec must
/// already have passed [`ModelSpec::validate`] (the engine builder's job).
#[derive(Clone, Copy)]
pub(crate) struct SessionEnv<'a> {
    pub(crate) cfg: &'a UniNetConfig,
    pub(crate) streaming: &'a StreamingConfig,
    pub(crate) spec: &'a ModelSpec,
    pub(crate) store: &'a EmbeddingStore,
    pub(crate) ingest_metrics: &'a IngestMetrics,
    pub(crate) engine_metrics: &'a EngineMetrics,
}

/// A finished session: its outcome, and the compacted post-stream graph and
/// universe mask the engine goes on with.
pub(crate) struct SessionEnd {
    pub(crate) outcome: StreamOutcome,
    pub(crate) graph: Graph,
    pub(crate) live: Option<Vec<bool>>,
}

/// The state one streaming session carries from batch to batch.
pub(crate) struct StreamSession<'a> {
    env: SessionEnv<'a>,
    model: &'a dyn RandomWalkModel,
    trainer: Word2VecTrainer,
    corpus: WalkCorpus,
    refresher: WalkRefresher,
    /// The online model; `None` when training waits for end-of-stream.
    online: Option<OnlineWord2Vec>,
    /// Arrivals waiting for connectivity before their walks are seeded.
    pending: Vec<NodeId>,
    report: StreamingReport,
    train_stats: TrainStats,
    /// `Ti`, `Tw` and `Tl`, the last summing every training pass.
    timing: PhaseTiming,
    /// The epoch of this session's last publish.
    last_epoch: u64,
}

impl<'a> StreamSession<'a> {
    /// Runs the dynamic pipeline: initial walk corpus over `graph`, ingestion
    /// of `mutations` (bounded intake queue, in-order application and
    /// maintenance, walk refresh), final compaction, then embedding training:
    /// online passes per batch with `streaming.incremental_train`, else one
    /// full retrain on the refreshed corpus. Every trained version is
    /// published to `env.store`; the outcome's epoch is this session's last.
    ///
    /// With `persist` set the session is durable: the pre-stream state is
    /// snapshotted at start, every batch is WAL-logged before its effects are
    /// observable, periodic snapshots follow the batch cadence and the final
    /// state is snapshotted at the end. Persistence errors degrade (see
    /// [`StreamingReport::durability`]); they never abort the session.
    pub(crate) fn run(
        env: SessionEnv<'_>,
        graph: Graph,
        live: Option<Vec<bool>>,
        mutations: &[GraphMutation],
        mut persist: Option<SessionPersist>,
    ) -> SessionEnd {
        let (streaming, ingest_metrics) = (env.streaming, env.ingest_metrics);
        let model = env
            .spec
            .instantiate(&graph)
            .expect("model spec is validated before a streaming session starts");
        let (mut session, mut manager) =
            StreamSession::start(env, model.as_ref(), &graph, live.clone(), persist.as_mut());
        let mut dyn_graph = match live {
            Some(mask) => DynamicGraph::with_universe(graph, streaming.symmetric, mask),
            None => DynamicGraph::new(graph, streaming.symmetric),
        };
        let ingest_cfg = IngestConfig {
            batch_size: streaming.batch_size,
            queue_capacity: streaming.queue_capacity,
            compaction_threshold: streaming.compaction_threshold,
            ..IngestConfig::default()
        };
        // Shared between the WAL hook and the batch callback, which both run
        // on the pipeline's consumer thread, never nested: no borrow panics.
        let persist = RefCell::new(persist);
        let mut wal_hook = |batch: &UpdateBatch| {
            if let Some(p) = persist.borrow_mut().as_mut() {
                p.log_batch(batch);
            }
        };
        let wal = persist
            .borrow()
            .is_some()
            .then_some(&mut wal_hook as &mut dyn FnMut(&UpdateBatch));
        let ingest = run_durable_pipeline(
            &ingest_cfg,
            ingest_metrics,
            &mut dyn_graph,
            &mut manager,
            model.as_ref(),
            mutations,
            wal,
            |dg, mgr, r, _| {
                if let Some(p) = persist.borrow_mut().as_mut() {
                    session.persist_due(p, dg);
                }
                let churned = session.apply_churn(dg, r);
                let refreshed = session.refresh(dg, mgr, r);
                let seeded = session.cold_start(dg, mgr);
                session.publish(dg, r, churned || refreshed || seeded);
            },
        );
        session.finish(ingest, dyn_graph, persist.into_inner())
    }

    /// Builds the initial corpus over a caller-owned manager, so sampler
    /// state (M-H chains in particular) survives into the update phase.
    /// Online training then trains and publishes the base model, so the
    /// store serves fresh vectors from the first batch. A durable session
    /// snapshots this state: a crash at any later point replays onto it.
    fn start(
        env: SessionEnv<'a>,
        model: &'a dyn RandomWalkModel,
        graph: &Graph,
        live: Option<Vec<bool>>,
        persist: Option<&mut SessionPersist>,
    ) -> (Self, SamplerManager) {
        let walk = env.cfg.walk;
        let t0 = Instant::now();
        let manager = SamplerManager::new(graph, model, walk.sampler, walk.memory_budget_bytes);
        let init = t0.elapsed();
        let start_nodes: Vec<NodeId> = graph.non_isolated_nodes().collect();
        let (corpus, walk_timing) =
            WalkEngine::new(walk).generate_with_manager(graph, model, &manager, &start_nodes);
        let num_nodes = graph.num_nodes();
        let mut session = StreamSession {
            trainer: Word2VecTrainer::new(env.cfg.embedding),
            refresher: WalkRefresher::new(&corpus, num_nodes, walk.walk_length, walk.seed),
            corpus,
            online: None,
            pending: Vec::new(),
            report: StreamingReport::default(),
            train_stats: TrainStats::default(),
            timing: PhaseTiming {
                init,
                walk: walk_timing.walk,
                learn: Duration::ZERO,
            },
            last_epoch: 0,
            env,
            model,
        };
        if env.streaming.incremental_train {
            let t = Instant::now();
            let (online, stats) = session
                .trainer
                .train_online(session.corpus.walks(), num_nodes);
            session.timing.learn += t.elapsed();
            session.train_stats = stats;
            session.last_epoch = env
                .store
                .publish_with_universe(online.embeddings(), live.clone());
            session.report.snapshots_published += 1;
            session.online = Some(online);
        }
        if let Some(p) = persist {
            session.snapshot(p, graph.clone(), live);
        }
        (session, manager)
    }

    /// Cuts a durable snapshot of `graph` under `live`, with the online
    /// model's vectors (none while training waits for end-of-stream).
    fn snapshot(&self, persist: &mut SessionPersist, graph: Graph, live: Option<Vec<bool>>) {
        let embeddings = self.online.as_ref().map(|s| s.embeddings());
        persist.write_state(graph, embeddings, self.last_epoch, live, self.env.store);
    }

    /// The periodic snapshot, counted in WAL-logged batches. It runs first,
    /// so durability does not depend on whether a batch touched any walks.
    fn persist_due(&self, persist: &mut SessionPersist, dg: &DynamicGraph) {
        if persist.snapshot_due() {
            self.snapshot(persist, dg.materialize(), universe_mask(dg.live_mask()));
        }
    }

    /// Open-world churn: grows every per-node plane to the new capacity,
    /// evicts retirees' walks (so no stale trajectory can resurrect them) and
    /// queues arrivals for a cold start. Returns whether the universe
    /// changed: a retiree must leave the store whether or not a walk passed
    /// through it.
    fn apply_churn(&mut self, dg: &DynamicGraph, r: &BatchReport) -> bool {
        if r.arrivals.is_empty() && r.retirements.is_empty() {
            return false;
        }
        let capacity = dg.num_nodes();
        self.report.arrivals += r.arrivals.len();
        self.report.retirements += r.retirements.len();
        self.refresher.grow(capacity);
        if !r.retirements.is_empty() {
            let evicted = self.refresher.evict_walks(&mut self.corpus, &r.retirements);
            let dirty = &self.env.ingest_metrics.refresh_dirty_walks;
            dirty.add(evicted.len() as u64);
            self.pending.retain(|v| !r.retirements.contains(v));
        }
        if let Some(online) = self.online.as_mut() {
            online.grow(capacity, self.env.cfg.walk.seed);
        }
        self.pending.extend(r.arrivals.iter().copied());
        true
    }

    /// Regenerates the walks through every node the batch (or the
    /// end-of-stream flush) touched, so the corpus tracks the graph, then
    /// runs one online pass over them. Returns whether the model moved.
    fn refresh(&mut self, dg: &DynamicGraph, mgr: &SamplerManager, r: &BatchReport) -> bool {
        let mut touched = [r.weight_touched.as_slice(), &r.topology_touched].concat();
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            return false;
        }
        let threads = self.env.cfg.walk.num_threads;
        let outcome = self.refresher.refresh_parallel(
            &mut self.corpus,
            dg.base(),
            self.model,
            mgr,
            &touched,
            threads,
        );
        let (ids, ingest) = (&outcome.refreshed_ids, self.env.ingest_metrics);
        ingest.refresh_round_ns.record_duration(outcome.elapsed);
        ingest.refresh_dirty_walks.add(ids.len() as u64);
        self.report.refresh.merge(&outcome.stats);
        self.report.refresh_time += outcome.elapsed;

        let Some(online) = self.online.as_mut().filter(|_| !ids.is_empty()) else {
            return false;
        };
        let regenerated = walks_of(&self.corpus, ids);
        let t = Instant::now();
        let stats = self.trainer.train_incremental(online, &regenerated);
        let (pass, engine) = (t.elapsed(), self.env.engine_metrics);
        engine.incremental_pass_ns.record_duration(pass);
        self.timing.learn += pass;
        merge_train_stats(&mut self.train_stats, &stats);
        self.report.incremental_walks_trained += regenerated.len();
        self.report.incremental_passes += 1;
        true
    }

    /// Seeds walks for each pending arrival the compacted base graph shows
    /// connectivity for (a node-op batch forces compaction, so an arrival
    /// wired up in its own batch is ready at once). Online, each starts at the
    /// centroid of its live neighbours, and boosted burn-in passes run over
    /// its fresh walks. Returns whether the model moved.
    fn cold_start(&mut self, dg: &DynamicGraph, mgr: &SamplerManager) -> bool {
        let base = dg.base();
        let ready: Vec<NodeId> = self
            .pending
            .iter()
            .copied()
            .filter(|&v| dg.is_live(v) && (v as usize) < base.num_nodes() && base.degree(v) > 0)
            .collect();
        if ready.is_empty() {
            return false;
        }
        self.pending.retain(|v| !ready.contains(v));
        self.report.cold_starts += ready.len();
        let (walk, streaming) = (self.env.cfg.walk, self.env.streaming);
        let new_ids = self.refresher.seed_walks(
            &mut self.corpus,
            base,
            self.model,
            mgr,
            &ready,
            walk.num_walks,
        );
        let Some(online) = self.online.as_mut() else {
            return false;
        };
        for &v in &ready {
            let mut avg = vec![0.0f32; online.dim()];
            let mut cnt = 0usize;
            for &u in base.neighbors(v) {
                if u != v && dg.is_live(u) {
                    avg.iter_mut()
                        .zip(online.input_row(u))
                        .for_each(|(a, b)| *a += b);
                    cnt += 1;
                }
            }
            if cnt > 0 {
                let inv = 1.0 / cnt as f32;
                avg.iter_mut().for_each(|a| *a *= inv);
                online.set_input_row(v, &avg);
            }
        }
        let (burn_in, boost) = (streaming.cold_start_burn_in, streaming.cold_start_boost);
        if new_ids.is_empty() || burn_in == 0 {
            return false;
        }
        let walks = walks_of(&self.corpus, &new_ids);
        let t = Instant::now();
        for _ in 0..burn_in {
            let stats = self.trainer.train_burn_in(online, &walks, boost);
            merge_train_stats(&mut self.train_stats, &stats);
        }
        let (burn, engine) = (t.elapsed(), self.env.engine_metrics);
        engine.cold_start_burn_in_ns.record_duration(burn);
        self.timing.learn += burn;
        self.report.incremental_passes += burn_in;
        self.report.incremental_walks_trained += walks.len() * burn_in;
        true
    }

    /// One publish per batch, after everything that trains, so a batch that
    /// both refreshed and cold-started costs one matrix copy, one index build
    /// and one epoch. While batches wait behind this one, it keeps the
    /// serving index (at most `queue_capacity` batches old); a batch that
    /// finds the queue empty builds a fresh index for its epoch even if it
    /// trained nothing, so the stream never ends behind.
    fn publish(&mut self, dg: &DynamicGraph, r: &BatchReport, stale: bool) {
        let Some(online) = self.online.as_ref() else {
            return;
        };
        let store = self.env.store;
        let served = store.snapshot();
        let lag = served.epoch() - served.index_epoch();
        if !stale && (lag == 0 || r.queued_behind > 0) {
            return;
        }
        let live = universe_mask(dg.live_mask());
        let defer = r.queued_behind > 0 && lag < self.env.streaming.queue_capacity as u64;
        self.last_epoch = if defer {
            store.publish_keeping_index(online.embeddings(), live)
        } else {
            store.publish_with_universe(online.embeddings(), live)
        };
        self.report.snapshots_published += 1;
    }

    /// Folds the ingest accounting into the report, trains and publishes the
    /// full retrain (online sessions published their last state per batch),
    /// cuts the final snapshot and records the session as one training round
    /// for the engine plane.
    fn finish(
        mut self,
        ingest: IngestReport,
        dyn_graph: DynamicGraph,
        persist: Option<SessionPersist>,
    ) -> SessionEnd {
        let report = &mut self.report;
        report.batches = ingest.batches;
        report.weight_mutations = ingest.weight_mutations;
        report.topology_mutations = ingest.topology_mutations;
        report.rejected_mutations = ingest.rejected_mutations;
        report.compactions = ingest.compactions;
        report.maintenance = ingest.maintenance;
        report.apply_time = ingest.apply_time;
        report.maintain_time = ingest.maintain_time;
        report.queue = ingest.queue;
        report.finalize();

        let (store, live) = (self.env.store, universe_mask(dyn_graph.live_mask()));
        let embeddings = match self.online {
            Some(online) => online.embeddings(),
            None => {
                let t = Instant::now();
                let (embeddings, stats) = self
                    .trainer
                    .train(self.corpus.walks(), dyn_graph.num_nodes());
                self.timing.learn += t.elapsed();
                self.train_stats = stats;
                self.last_epoch = store.publish_with_universe(embeddings.clone(), live.clone());
                self.report.snapshots_published += 1;
                embeddings
            }
        };
        let (graph, epoch) = (dyn_graph.into_base(), self.last_epoch);
        self.report.durability =
            persist.map(|p| p.finish(&graph, &embeddings, epoch, live.clone(), store));
        self.env.engine_metrics.record_round(&self.timing);
        let result = PipelineResult {
            embeddings,
            corpus: self.corpus,
            timing: self.timing,
            train_stats: self.train_stats,
        };
        let report = self.report;
        let outcome = StreamOutcome {
            result,
            report,
            epoch,
        };
        SessionEnd {
            outcome,
            graph,
            live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uninet_graph::generators::{rmat, RmatConfig};
    use uninet_sampler::{EdgeSamplerKind, InitStrategy};

    fn test_graph() -> Graph {
        rmat(&RmatConfig {
            num_nodes: 200,
            num_edges: 1600,
            weighted: true,
            seed: 23,
            ..Default::default()
        })
    }

    fn mixed_stream(graph: &Graph, count: usize, seed: u64) -> Vec<GraphMutation> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = graph.num_nodes() as NodeId;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let src = rng.gen_range(0..n);
            if graph.degree(src) == 0 {
                continue;
            }
            let k = rng.gen_range(0..graph.degree(src));
            let dst = graph.neighbor_at(src, k);
            out.push(match i % 4 {
                0 | 1 => GraphMutation::UpdateWeight {
                    src,
                    dst,
                    weight: rng.gen_range(0.5f32..4.0),
                },
                2 => GraphMutation::AddEdge {
                    src,
                    dst: (dst + 1) % n,
                    weight: rng.gen_range(0.5f32..2.0),
                },
                _ => GraphMutation::RemoveEdge { src, dst },
            });
        }
        out
    }

    fn run(
        cfg: &UniNetConfig,
        streaming: &StreamingConfig,
        spec: &ModelSpec,
        graph: Graph,
        mutations: &[GraphMutation],
        store: &EmbeddingStore,
    ) -> SessionEnd {
        let env = SessionEnv {
            cfg,
            streaming,
            spec,
            store,
            ingest_metrics: &IngestMetrics::detached(),
            engine_metrics: &EngineMetrics::detached(),
        };
        StreamSession::run(env, graph, None, mutations, None)
    }

    fn session(
        cfg: &UniNetConfig,
        streaming: &StreamingConfig,
        spec: &ModelSpec,
        graph: Graph,
        mutations: &[GraphMutation],
    ) -> (PipelineResult, StreamingReport) {
        let end = run(
            cfg,
            streaming,
            spec,
            graph,
            mutations,
            &EmbeddingStore::new(),
        );
        (end.outcome.result, end.outcome.report)
    }

    #[test]
    fn streaming_run_produces_refreshed_embeddings() {
        let graph = test_graph();
        let mutations = mixed_stream(&graph, 200, 3);
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 2;
        cfg.walk.walk_length = 10;
        cfg.walk.sampler = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        cfg.embedding.epochs = 1;
        let streaming = StreamingConfig {
            batch_size: 32,
            compaction_threshold: 64,
            ..Default::default()
        };
        let n = graph.num_nodes();
        let (result, report) = session(&cfg, &streaming, &ModelSpec::DeepWalk, graph, &mutations);
        assert_eq!(result.embeddings.num_nodes(), n);
        assert!(report.batches > 0);
        assert!(report.weight_mutations > 0);
        assert!(report.topology_mutations > 0);
        assert!(report.refresh.walks_refreshed > 0);
        assert!(report.update_throughput > 0.0);
        assert_eq!(report.queue.batches_enqueued, report.batches);
        // M-H backend: weight updates preserved chains, never rebuilt tables
        // on the weight path (topology compactions may rebuild chains).
        assert!(report.maintenance.chains_preserved > 0);
    }

    #[test]
    fn streaming_walks_stay_valid_paths() {
        let graph = test_graph();
        let mutations = mixed_stream(&graph, 120, 7);
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 1;
        cfg.walk.walk_length = 8;
        cfg.walk.sampler = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        cfg.embedding.epochs = 1;
        let streaming = StreamingConfig {
            batch_size: 16,
            compaction_threshold: 32,
            ..Default::default()
        };
        let (result, _) = session(
            &cfg,
            &streaming,
            &ModelSpec::Node2Vec { p: 0.5, q: 2.0 },
            graph,
            &mutations,
        );
        // After the final flush the corpus must be consistent with the final
        // compacted graph: every refreshed walk is a path in it. Walks that
        // were never refreshed may contain edges deleted mid-stream, so only
        // refreshed consistency is checked via regeneration above; here we
        // check the corpus shape.
        assert!(result.corpus.num_walks() > 0);
        for walk in result.corpus.iter() {
            assert!(!walk.is_empty());
            assert!(walk.len() <= 8);
        }
    }

    #[test]
    fn alias_streaming_pays_rebuild_cost() {
        let graph = test_graph();
        // Weight-only stream isolates the maintenance asymmetry.
        let mutations: Vec<GraphMutation> = mixed_stream(&graph, 150, 11)
            .into_iter()
            .filter(|m| m.is_weight_only())
            .collect();
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 1;
        cfg.walk.walk_length = 8;
        cfg.embedding.epochs = 1;

        cfg.walk.sampler = EdgeSamplerKind::Alias;
        let (_, alias_report) = session(
            &cfg,
            &StreamingConfig::default(),
            &ModelSpec::DeepWalk,
            graph.clone(),
            &mutations,
        );
        cfg.walk.sampler = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        let (_, mh_report) = session(
            &cfg,
            &StreamingConfig::default(),
            &ModelSpec::DeepWalk,
            graph,
            &mutations,
        );
        assert!(alias_report.maintenance.states_rebuilt > 0);
        assert_eq!(mh_report.maintenance.states_rebuilt, 0);
        assert_eq!(mh_report.maintenance.bytes_rebuilt, 0);
        assert!(mh_report.maintenance.chains_preserved > 0);
    }

    #[test]
    fn incremental_training_tracks_refreshed_walks() {
        let graph = test_graph();
        let mutations = mixed_stream(&graph, 200, 13);
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 2;
        cfg.walk.walk_length = 10;
        cfg.walk.sampler = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        cfg.embedding.epochs = 1;
        let streaming = StreamingConfig {
            batch_size: 32,
            compaction_threshold: 64,
            incremental_train: true,
            queue_capacity: 2,
            ..Default::default()
        };
        let n = graph.num_nodes();
        let (result, report) = session(&cfg, &streaming, &ModelSpec::DeepWalk, graph, &mutations);
        assert_eq!(result.embeddings.num_nodes(), n);
        assert!(report.incremental_passes > 0, "no incremental passes ran");
        assert_eq!(
            report.incremental_walks_trained, report.refresh.walks_refreshed,
            "every refreshed walk should feed incremental training"
        );
        assert!(result.train_stats.pairs_processed > 0);
    }

    #[test]
    fn churn_session_grows_universe_and_masks_retirees() {
        let graph = test_graph();
        let n = graph.num_nodes() as NodeId;
        let mut mutations = mixed_stream(&graph, 80, 29);
        // Two arrivals (one wired up immediately, one later), one retirement.
        mutations.push(GraphMutation::AddNode { node: n });
        mutations.push(GraphMutation::AddEdge {
            src: n,
            dst: 0,
            weight: 1.0,
        });
        mutations.push(GraphMutation::AddNode { node: n + 1 });
        mutations.push(GraphMutation::RemoveNode { node: 5 });
        mutations.extend(mixed_stream(&graph, 40, 31));
        mutations.push(GraphMutation::AddEdge {
            src: n + 1,
            dst: 2,
            weight: 2.0,
        });
        // A second node-op batch forces the compaction that surfaces the
        // late arrival's edge in the base graph, making it seedable.
        mutations.push(GraphMutation::AddNode { node: n + 2 });
        mutations.push(GraphMutation::AddEdge {
            src: n + 2,
            dst: 3,
            weight: 1.0,
        });

        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 2;
        cfg.walk.walk_length = 10;
        cfg.walk.sampler = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        cfg.embedding.epochs = 1;
        let streaming = StreamingConfig {
            batch_size: 16,
            compaction_threshold: 64,
            incremental_train: true,
            allow_churn: true,
            ..Default::default()
        };
        let store = EmbeddingStore::new();
        let end = run(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            &mutations,
            &store,
        );
        let (result, report) = (end.outcome.result, end.outcome.report);
        assert_eq!(report.arrivals, 3);
        assert_eq!(report.retirements, 1);
        assert_eq!(report.cold_starts, 3, "every wired arrival cold-started");
        assert_eq!(end.graph.num_nodes(), n as usize + 3);
        assert_eq!(result.embeddings.num_nodes(), n as usize + 3);
        let live = end.live.expect("churned session yields a mask");
        assert!(!live[5] && live[n as usize] && live[n as usize + 2]);

        // The serving plane reflects the final universe: retirees are
        // unreachable, arrivals are served.
        let snap = store.snapshot();
        assert!(store.vector(5).is_none(), "retired id must not be served");
        assert!(store.vector(n).is_some(), "arrival must be served");
        assert!(
            snap.top_k(0, 10).iter().all(|&(v, _)| v != 5),
            "retired id must never appear in top-k"
        );

        // No surviving walk trajectory mentions the retiree.
        for walk in result.corpus.iter() {
            assert!(walk.iter().all(|&v| v != 5), "stale trajectory survived");
        }
    }

    #[test]
    fn a_retirement_no_walk_passes_through_still_leaves_the_store() {
        // The arrival never gains an edge, so its retirement touches no walk
        // and trains nothing; the store must stop serving it all the same.
        let graph = test_graph();
        let n = graph.num_nodes() as NodeId;
        let mutations = [
            GraphMutation::AddNode { node: n },
            GraphMutation::RemoveNode { node: n },
        ];
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 1;
        cfg.walk.walk_length = 8;
        cfg.embedding.epochs = 1;
        let streaming = StreamingConfig {
            batch_size: 1,
            incremental_train: true,
            allow_churn: true,
            ..Default::default()
        };
        let store = EmbeddingStore::new();
        let end = run(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            &mutations,
            &store,
        );
        let (report, last_epoch) = (end.outcome.report, end.outcome.epoch);
        assert_eq!((report.arrivals, report.retirements), (1, 1));
        assert_eq!(report.incremental_passes, 0, "nothing trained");
        assert_eq!(
            report.snapshots_published, 3,
            "initial, arrival, retirement"
        );
        assert_eq!(last_epoch, store.epoch());
        let snap = store.snapshot();
        assert!(snap.in_range(n) && !snap.is_live(n));
        assert_eq!(store.vector(n), None, "retired id must not be served");
        assert_eq!(snap.live_mask(), end.live.as_deref());
    }

    #[test]
    fn session_publishes_snapshots_and_returns_final_graph() {
        let graph = test_graph();
        let n = graph.num_nodes();
        let mutations = mixed_stream(&graph, 150, 17);
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 1;
        cfg.walk.walk_length = 8;
        cfg.walk.sampler = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        cfg.embedding.epochs = 1;
        let streaming = StreamingConfig {
            batch_size: 32,
            incremental_train: true,
            ..Default::default()
        };
        let store = EmbeddingStore::new();
        let end = run(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            &mutations,
            &store,
        );
        let (report, last_epoch) = (end.outcome.report, end.outcome.epoch);
        assert_eq!(last_epoch, store.epoch());
        // The initial online model, then at most one version per batch and
        // one for the end-of-stream flush; the final state is identical to
        // the last of those, so no extra version is cut. Without churn every
        // pass is its own batch.
        assert!(
            report.incremental_passes > 0,
            "stream produced no refreshes"
        );
        assert_eq!(report.snapshots_published, 1 + report.incremental_passes);
        assert!(report.snapshots_published <= 2 + report.batches);
        assert_eq!(store.epoch(), report.snapshots_published as u64);
        assert_eq!(store.num_nodes(), n);
        assert_eq!(end.graph.num_nodes(), n);
    }

    #[test]
    fn a_batch_that_refreshes_and_cold_starts_publishes_once() {
        let graph = test_graph();
        let n = graph.num_nodes() as NodeId;
        // Every batch of 8 carries an arrival wired to a hub plus edge churn:
        // it trains in the refresh pass and again in the burn-in passes.
        let mut mutations = Vec::new();
        for (i, chunk) in mixed_stream(&graph, 48, 37).chunks(6).enumerate() {
            let node = n + i as NodeId;
            mutations.push(GraphMutation::AddNode { node });
            mutations.push(GraphMutation::AddEdge {
                src: node,
                dst: i as NodeId,
                weight: 1.0,
            });
            mutations.extend_from_slice(chunk);
        }
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 1;
        cfg.walk.walk_length = 8;
        cfg.walk.sampler = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        cfg.embedding.epochs = 1;
        let streaming = StreamingConfig {
            batch_size: 8,
            incremental_train: true,
            allow_churn: true,
            ..Default::default()
        };
        let store = EmbeddingStore::new();
        let end = run(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            &mutations,
            &store,
        );
        let (report, last_epoch) = (end.outcome.report, end.outcome.epoch);
        assert!(report.cold_starts > 0, "no arrival cold-started");
        assert!(
            report.incremental_passes > 1 + report.batches,
            "the stream should train more than once per batch ({} passes, {} batches)",
            report.incremental_passes,
            report.batches
        );
        assert!(
            report.snapshots_published <= 2 + report.batches,
            "{} versions for {} batches",
            report.snapshots_published,
            report.batches
        );
        assert_eq!(store.epoch(), report.snapshots_published as u64);
        assert_eq!(last_epoch, store.epoch());
    }

    #[test]
    fn under_backlog_the_index_lags_by_at_most_the_queue_and_never_at_the_end() {
        let graph = test_graph();
        let mutations = mixed_stream(&graph, 240, 41);
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 1;
        cfg.walk.walk_length = 8;
        cfg.walk.num_threads = 1;
        cfg.embedding.num_threads = 1;
        cfg.embedding.epochs = 1;
        let stream = |queue_capacity: usize, store: &EmbeddingStore| {
            let streaming = StreamingConfig {
                batch_size: 10,
                queue_capacity,
                incremental_train: true,
                ..Default::default()
            };
            run(
                &cfg,
                &streaming,
                &ModelSpec::DeepWalk,
                graph.clone(),
                &mutations,
                store,
            )
            .outcome
        };
        // A store without an index: no publish ever defers or builds.
        let unserved = stream(8, &EmbeddingStore::new()).result;
        for queue_capacity in [8, 2] {
            let store = EmbeddingStore::with_ann(AnnConfig {
                m: 6,
                ef_construction: 24,
                ..AnnConfig::default()
            });
            let done = std::sync::atomic::AtomicBool::new(false);
            let (outcome, max_lag) = std::thread::scope(|scope| {
                // Every snapshot a reader can see mid-stream.
                let watcher = scope.spawn(|| {
                    let mut max_lag = 0;
                    while !done.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = store.snapshot();
                        max_lag = max_lag.max(snap.epoch() - snap.index_epoch());
                        std::thread::yield_now();
                    }
                    max_lag
                });
                let outcome = stream(queue_capacity, &store);
                done.store(true, std::sync::atomic::Ordering::Relaxed);
                (outcome, watcher.join().unwrap())
            });
            let (result, report, last_epoch) = (outcome.result, outcome.report, outcome.epoch);
            assert!(
                report.batches > queue_capacity,
                "{} batches",
                report.batches
            );
            assert!(
                store.telemetry().publish_ann_deferred.get() > 0,
                "a stream queued up front must defer some builds"
            );
            assert!(
                max_lag <= queue_capacity as u64,
                "an index {max_lag} batches old served with queue capacity {queue_capacity}"
            );
            let snap = store.snapshot();
            assert_eq!(snap.epoch(), last_epoch);
            assert_eq!(snap.index_epoch(), snap.epoch(), "the session ended behind");
            assert_eq!(store.telemetry().index_lag_batches.get(), 0);
            // Publish scheduling never reaches what SGD sees.
            assert_eq!(result.embeddings.as_flat(), unserved.embeddings.as_flat());
            assert_eq!(snap.embeddings().as_flat(), unserved.embeddings.as_flat());
        }
    }
}
