//! Streaming pipeline mode: concurrent ingestion of edge-update batches with
//! incremental sampler maintenance, parallel walk refresh and (optionally)
//! incremental embedding updates.
//!
//! This is the dynamic-workload counterpart of [`crate::Engine::train`]: the
//! graph lives in a [`DynamicGraph`] and the update stream flows through the
//! `uninet-ingest` pipeline — a reader thread feeding a bounded queue
//! (back-pressure), overlay application and sampler maintenance on the
//! session thread, then per-batch walk refresh through the walk engine's
//! `walk_batch` on the session's threads. Embeddings are either retrained
//! from scratch on the refreshed corpus (the original behaviour) or, with
//! [`StreamingConfig::incremental_train`], updated online by SGD passes over
//! only the regenerated walks.
//!
//! When the session runs under an [`crate::Engine`], every trained embedding
//! version is published to the engine's [`EmbeddingStore`], so concurrent
//! readers serve `top_k`/`cosine` queries from a consistent epoch while
//! ingestion continues.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use uninet_dyngraph::{DynamicGraph, GraphMutation, RefreshStats, UpdateBatch, WalkRefresher};
use uninet_embedding::{AnnConfig, EmbeddingStore, OnlineWord2Vec, TrainStats, Word2VecTrainer};
use uninet_graph::{Graph, NodeId};
use uninet_ingest::{run_durable_pipeline, IngestConfig, IngestMetrics, QueueStats};
use uninet_metrics::PhaseTiming;
use uninet_walker::{MaintenanceStats, SamplerManager, WalkEngine};

use crate::config::{ModelSpec, UniNetConfig};
use crate::durability::{DurabilityReport, SessionPersist};
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

/// Runs the full dynamic pipeline: initial walk corpus over `graph`,
/// ingestion of `mutations` (bounded intake queue, in-order application and
/// maintenance, parallel walk refresh), final compaction, then embedding
/// training — full retrain on the refreshed corpus, or incremental updates
/// when `streaming.incremental_train` is set.
///
/// Consumes the graph (it becomes the mutable base of the [`DynamicGraph`])
/// and returns the post-stream compacted graph alongside the results, so a
/// long-lived engine can keep its graph current.
///
/// When `store` is set, trained embedding versions are published to it. With
/// incremental training that is the initial online model and then one version
/// per batch that trained or changed the universe, so the last batch's
/// publish already is the end-of-stream state; a full retrain publishes once,
/// at end-of-stream. The returned epoch is that of this session's last
/// publish (0 when `store` is `None`). The spec must already have passed
/// [`ModelSpec::validate`] — the engine builder guarantees this.
///
/// With ANN serving, a batch published while later batches wait in the
/// intake queue keeps the serving index instead of building one (at most
/// `streaming.queue_capacity` batches old); the batch that finds the queue
/// empty builds, so the session never returns with its index behind. What
/// that means for readers is the freshness contract in the
/// `uninet_embedding::store` module docs.
///
/// Queue/apply/maintenance/refresh telemetry records into `ingest_metrics`
/// and incremental-pass latency into `engine_metrics` — live, from the
/// session thread, so readers can watch back-pressure while it happens. Pass
/// detached handles when nothing observes them.
///
/// With `persist` set, the session is durable: a snapshot of the pre-stream
/// state is cut at session start, every applied batch is WAL-logged before
/// its effects become observable, periodic snapshots follow the configured
/// batch cadence, and the final compacted graph + embeddings are snapshotted
/// at end-of-stream. Persistence errors degrade (reported in
/// [`StreamingReport::durability`]) — they never abort the session.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_streaming_session(
    cfg: &UniNetConfig,
    streaming: &StreamingConfig,
    spec: &ModelSpec,
    graph: Graph,
    live: Option<Vec<bool>>,
    mutations: &[GraphMutation],
    store: Option<&EmbeddingStore>,
    persist: Option<SessionPersist>,
    ingest_metrics: &IngestMetrics,
    engine_metrics: &EngineMetrics,
) -> (
    PipelineResult,
    StreamingReport,
    Graph,
    Option<Vec<bool>>,
    u64,
) {
    let model = spec
        .instantiate(&graph)
        .expect("model spec is validated before a streaming session starts");
    let model = model.as_ref();

    // Initial corpus over a caller-owned manager so sampler state (M-H
    // chains in particular) survives into the update phase.
    let t0 = Instant::now();
    let mut manager = SamplerManager::new(
        &graph,
        model,
        cfg.walk.sampler,
        cfg.walk.memory_budget_bytes,
    );
    let init = t0.elapsed();
    let engine = WalkEngine::new(cfg.walk);
    let start_nodes: Vec<NodeId> = graph.non_isolated_nodes().collect();
    let (mut corpus, walk_timing) =
        engine.generate_with_manager(&graph, model, &manager, &start_nodes);

    let num_nodes = graph.num_nodes();
    let trainer = Word2VecTrainer::new(cfg.embedding);
    let mut learn = Duration::ZERO;
    let mut train_stats = TrainStats::default();
    let mut report = StreamingReport::default();
    let mut last_epoch = 0u64;

    // Incremental mode trains the base model up front so refresh rounds
    // can apply corrective passes as the stream is ingested — and so the
    // serving store has fresh vectors from the very first batch.
    let mut online: Option<OnlineWord2Vec> = if streaming.incremental_train {
        let t = Instant::now();
        let (session, stats) = trainer.train_online(corpus.walks(), num_nodes);
        learn += t.elapsed();
        train_stats = stats;
        if let Some(store) = store {
            last_epoch = store.publish_with_universe(session.embeddings(), live.clone());
            report.snapshots_published += 1;
        }
        Some(session)
    } else {
        None
    };

    // Durable sessions snapshot the pre-stream state first, so a crash at
    // any later point always has a base to replay the WAL onto. Shared
    // between the WAL hook and the on_batch callback below — both run on the
    // pipeline's consumer thread, never nested, so the RefCell cannot panic.
    let mut persist = persist;
    if let Some(p) = persist.as_mut() {
        let initial = online.as_ref().map(|s| s.embeddings());
        p.write_state(graph.clone(), initial, last_epoch, live.clone(), store);
    }
    let persist = RefCell::new(persist);

    let mut dyn_graph = match live {
        Some(mask) => DynamicGraph::with_universe(graph, streaming.symmetric, mask),
        None => DynamicGraph::new(graph, streaming.symmetric),
    };
    let mut refresher = WalkRefresher::new(&corpus, num_nodes, cfg.walk.walk_length, cfg.walk.seed);
    // Arrivals waiting for connectivity before their walks are seeded.
    let mut pending_seed: Vec<NodeId> = Vec::new();

    let ingest_cfg = IngestConfig {
        batch_size: streaming.batch_size,
        queue_capacity: streaming.queue_capacity,
        compaction_threshold: streaming.compaction_threshold,
        ..IngestConfig::default()
    };

    {
        let refresher = &mut refresher;
        let corpus = &mut corpus;
        let report = &mut report;
        let pending_seed = &mut pending_seed;
        let trainer = &trainer;
        let last_epoch = &mut last_epoch;
        let online = &mut online;
        let learn = &mut learn;
        let train_stats = &mut train_stats;
        let persist = &persist;
        let mut wal_hook = |batch: &UpdateBatch| {
            if let Some(p) = persist.borrow_mut().as_mut() {
                p.log_batch(batch);
            }
        };
        let wal: Option<&mut dyn FnMut(&UpdateBatch)> = if persist.borrow().is_some() {
            Some(&mut wal_hook)
        } else {
            None
        };
        let ingest_report = run_durable_pipeline(
            &ingest_cfg,
            ingest_metrics,
            &mut dyn_graph,
            &mut manager,
            model,
            mutations,
            wal,
            |dg, mgr, r, _| {
                // Periodic snapshot cadence, counted in WAL-logged batches.
                // Runs before the refresh early-outs: durability must not
                // depend on whether a batch touched any walks.
                {
                    let mut p = persist.borrow_mut();
                    if let Some(p) = p.as_mut() {
                        if p.snapshot_due() {
                            let emb = online.as_ref().map(|s| s.embeddings());
                            p.write_state(
                                dg.materialize(),
                                emb,
                                *last_epoch,
                                universe_mask(dg.live_mask()),
                                store,
                            );
                        }
                    }
                }
                // Whether this batch leaves the store serving something out of
                // date — the universe changed (a retiree must stop being
                // served whether or not any walk passed through it) or, set
                // below, a pass moved the model. Decides the one publish at
                // the end of the callback.
                let mut stale = !r.arrivals.is_empty() || !r.retirements.is_empty();
                // Open-world churn: grow every per-node plane to the new
                // capacity, evict retirees from the walk corpus (so no stale
                // trajectory can resurrect them), and queue arrivals for a
                // cold start once they gain connectivity.
                if !r.arrivals.is_empty() || !r.retirements.is_empty() {
                    let capacity = dg.num_nodes();
                    report.arrivals += r.arrivals.len();
                    report.retirements += r.retirements.len();
                    refresher.grow(capacity);
                    if !r.retirements.is_empty() {
                        let evicted = refresher.evict_walks(corpus, &r.retirements);
                        ingest_metrics.refresh_dirty_walks.add(evicted.len() as u64);
                        pending_seed.retain(|v| !r.retirements.contains(v));
                    }
                    if let Some(session) = online.as_mut() {
                        session.grow(capacity, cfg.walk.seed);
                    }
                    pending_seed.extend(r.arrivals.iter().copied());
                }

                // Every batch (and the end-of-stream flush) refreshes the
                // walks through what it touched, so the corpus tracks the graph.
                let mut touched = r.weight_touched.clone();
                touched.extend_from_slice(&r.topology_touched);
                touched.sort_unstable();
                touched.dedup();
                if !touched.is_empty() {
                    let outcome = refresher.refresh_parallel(
                        corpus,
                        dg.base(),
                        model,
                        mgr,
                        &touched,
                        cfg.walk.num_threads,
                    );
                    ingest_metrics
                        .refresh_round_ns
                        .record_duration(outcome.elapsed);
                    ingest_metrics
                        .refresh_dirty_walks
                        .add(outcome.refreshed_ids.len() as u64);
                    report.refresh.merge(&outcome.stats);
                    report.refresh_time += outcome.elapsed;

                    if let Some(session) = online.as_mut() {
                        if !outcome.refreshed_ids.is_empty() {
                            let regenerated: Vec<Vec<NodeId>> = outcome
                                .refreshed_ids
                                .iter()
                                .map(|&id| corpus.walk(id as usize).to_vec())
                                .collect();
                            let t = Instant::now();
                            let stats = trainer.train_incremental(session, &regenerated);
                            let pass = t.elapsed();
                            engine_metrics.incremental_pass_ns.record_duration(pass);
                            *learn += pass;
                            merge_train_stats(train_stats, &stats);
                            report.incremental_walks_trained += regenerated.len();
                            report.incremental_passes += 1;
                            stale = true;
                        }
                    }
                }

                // Cold start: an arrival is seeded once the compacted base
                // graph shows connectivity for it (a node-op batch forces
                // compaction, so an arrival wired up in the same batch is
                // ready immediately; one wired up later waits for the next
                // compaction to surface its edges in the base).
                if !pending_seed.is_empty() {
                    let ready: Vec<NodeId> = pending_seed
                        .iter()
                        .copied()
                        .filter(|&v| {
                            dg.is_live(v)
                                && (v as usize) < dg.base().num_nodes()
                                && dg.base().degree(v) > 0
                        })
                        .collect();
                    if !ready.is_empty() {
                        pending_seed.retain(|v| !ready.contains(v));
                        report.cold_starts += ready.len();
                        if let Some(session) = online.as_mut() {
                            // Neighbour-average initialization: start an
                            // arrival at the centroid of its live neighbours
                            // instead of random noise, so its first served
                            // vector is already in the right region.
                            for &v in &ready {
                                let mut avg = vec![0.0f32; session.dim()];
                                let mut cnt = 0usize;
                                for &u in dg.base().neighbors(v) {
                                    if !dg.is_live(u) || u == v {
                                        continue;
                                    }
                                    for (a, b) in avg.iter_mut().zip(session.input_row(u)) {
                                        *a += b;
                                    }
                                    cnt += 1;
                                }
                                if cnt > 0 {
                                    let inv = 1.0 / cnt as f32;
                                    for a in avg.iter_mut() {
                                        *a *= inv;
                                    }
                                    session.set_input_row(v, &avg);
                                }
                            }
                        }
                        let new_ids = refresher.seed_walks(
                            corpus,
                            dg.base(),
                            model,
                            mgr,
                            &ready,
                            cfg.walk.num_walks,
                        );
                        if let Some(session) = online.as_mut() {
                            if !new_ids.is_empty() && streaming.cold_start_burn_in > 0 {
                                let walks: Vec<Vec<NodeId>> = new_ids
                                    .iter()
                                    .map(|&id| corpus.walk(id as usize).to_vec())
                                    .collect();
                                let t = Instant::now();
                                for _ in 0..streaming.cold_start_burn_in {
                                    let stats = trainer.train_burn_in(
                                        session,
                                        &walks,
                                        streaming.cold_start_boost,
                                    );
                                    merge_train_stats(train_stats, &stats);
                                }
                                let burn = t.elapsed();
                                engine_metrics.cold_start_burn_in_ns.record_duration(burn);
                                *learn += burn;
                                report.incremental_passes += streaming.cold_start_burn_in;
                                report.incremental_walks_trained +=
                                    walks.len() * streaming.cold_start_burn_in;
                                stale = true;
                            }
                        }
                    }
                }

                // One publish per batch, after everything that trains: the
                // adapted vectors reach concurrent readers while the stream
                // is still being ingested, and a batch that both refreshed
                // and cold-started costs one matrix copy, one index build
                // and one epoch, not two. While batches wait behind this one
                // the next batch replaces this epoch soon, so it keeps the
                // serving index (at most `queue_capacity` batches old); a
                // batch that finds the queue empty builds a fresh index for
                // its epoch even if it trained nothing, so the stream never
                // ends behind.
                if let (Some(store), Some(session)) = (store, online.as_ref()) {
                    let served = store.snapshot();
                    let lag = served.epoch() - served.index_epoch();
                    if stale || (lag > 0 && r.queued_behind == 0) {
                        let live = universe_mask(dg.live_mask());
                        let defer = r.queued_behind > 0 && lag < streaming.queue_capacity as u64;
                        *last_epoch = if defer {
                            store.publish_keeping_index(session.embeddings(), live)
                        } else {
                            store.publish_with_universe(session.embeddings(), live)
                        };
                        report.snapshots_published += 1;
                    }
                }
            },
        );
        report.batches = ingest_report.batches;
        report.weight_mutations = ingest_report.weight_mutations;
        report.topology_mutations = ingest_report.topology_mutations;
        report.rejected_mutations = ingest_report.rejected_mutations;
        report.compactions = ingest_report.compactions;
        report.maintenance = ingest_report.maintenance;
        report.apply_time = ingest_report.apply_time;
        report.maintain_time = ingest_report.maintain_time;
        report.queue = ingest_report.queue;
    }
    report.finalize();

    // Final embeddings: online session snapshot, or full retrain on the
    // refreshed corpus. Incremental sessions already published their last
    // pass from the batch callback; the full-retrain path publishes here.
    // The universe the final embeddings are served under: churned sessions
    // carry their mask into every publish and snapshot from here on.
    let final_live = universe_mask(dyn_graph.live_mask());
    let final_capacity = dyn_graph.num_nodes();
    let embeddings = match online {
        Some(session) => session.embeddings(),
        None => {
            let t = Instant::now();
            let (embeddings, stats) = trainer.train(corpus.walks(), final_capacity);
            learn += t.elapsed();
            train_stats = stats;
            if let Some(store) = store {
                last_epoch = store.publish_with_universe(embeddings.clone(), final_live.clone());
                report.snapshots_published += 1;
            }
            embeddings
        }
    };

    let final_graph = dyn_graph.into_base();
    if let Some(p) = persist.into_inner() {
        report.durability = Some(p.finish(
            &final_graph,
            &embeddings,
            last_epoch,
            final_live.clone(),
            store,
        ));
    }
    let timing = PhaseTiming {
        init,
        walk: walk_timing.walk,
        learn,
    };
    // A streaming session is one training round for the engine plane: the
    // same Ti/Tw/Tl split batch training records, with learn covering every
    // online/incremental/retrain pass of the session.
    engine_metrics.record_round(&timing);
    (
        PipelineResult {
            embeddings,
            corpus,
            timing,
            train_stats,
        },
        report,
        final_graph,
        final_live,
        last_epoch,
    )
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

    fn session(
        cfg: &UniNetConfig,
        streaming: &StreamingConfig,
        spec: &ModelSpec,
        graph: Graph,
        mutations: &[GraphMutation],
    ) -> (PipelineResult, StreamingReport) {
        let (result, report, _, _, _) = run_streaming_session(
            cfg,
            streaming,
            spec,
            graph,
            None,
            mutations,
            None,
            None,
            &IngestMetrics::detached(),
            &EngineMetrics::detached(),
        );
        (result, report)
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
        let (result, report, final_graph, final_live, _) = run_streaming_session(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            None,
            &mutations,
            Some(&store),
            None,
            &IngestMetrics::detached(),
            &EngineMetrics::detached(),
        );
        assert_eq!(report.arrivals, 3);
        assert_eq!(report.retirements, 1);
        assert_eq!(report.cold_starts, 3, "every wired arrival cold-started");
        assert_eq!(final_graph.num_nodes(), n as usize + 3);
        assert_eq!(result.embeddings.num_nodes(), n as usize + 3);
        let live = final_live.expect("churned session yields a mask");
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
        let (_, report, _, final_live, last_epoch) = run_streaming_session(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            None,
            &mutations,
            Some(&store),
            None,
            &IngestMetrics::detached(),
            &EngineMetrics::detached(),
        );
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
        assert_eq!(snap.live_mask(), final_live.as_deref());
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
        let (_, report, final_graph, _, last_epoch) = run_streaming_session(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            None,
            &mutations,
            Some(&store),
            None,
            &IngestMetrics::detached(),
            &EngineMetrics::detached(),
        );
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
        assert_eq!(final_graph.num_nodes(), n);
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
        let (_, report, _, _, last_epoch) = run_streaming_session(
            &cfg,
            &streaming,
            &ModelSpec::DeepWalk,
            graph,
            None,
            &mutations,
            Some(&store),
            None,
            &IngestMetrics::detached(),
            &EngineMetrics::detached(),
        );
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
        let run = |queue_capacity: usize, store: Option<&EmbeddingStore>| {
            let streaming = StreamingConfig {
                batch_size: 10,
                queue_capacity,
                incremental_train: true,
                ..Default::default()
            };
            run_streaming_session(
                &cfg,
                &streaming,
                &ModelSpec::DeepWalk,
                graph.clone(),
                None,
                &mutations,
                store,
                None,
                &IngestMetrics::detached(),
                &EngineMetrics::detached(),
            )
        };
        let (unserved, ..) = run(8, None);
        for queue_capacity in [8, 2] {
            let store = EmbeddingStore::with_ann(AnnConfig {
                m: 6,
                ef_construction: 24,
                ..AnnConfig::default()
            });
            let done = std::sync::atomic::AtomicBool::new(false);
            let (result, report, _, _, last_epoch, max_lag) = std::thread::scope(|scope| {
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
                let (result, report, graph, live, epoch) = run(queue_capacity, Some(&store));
                done.store(true, std::sync::atomic::Ordering::Relaxed);
                let max_lag = watcher.join().unwrap();
                (result, report, graph, live, epoch, max_lag)
            });
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
