//! The end-to-end ingestion pipeline: reader thread → bounded queue →
//! apply and maintain → per-batch callback.
//!
//! ```text
//!  mutations ──reader thread──▶ [bounded MPSC queue] ──▶ apply
//!                                 back-pressure          ├─ maintain samplers
//!                                                        └─ on_batch hook
//!                                                           (walk refresh,
//!                                                            incremental SGD)
//! ```
//!
//! The reader thread chunks the mutation stream into [`UpdateBatch`]es and
//! feeds the queue; a full queue blocks it (back-pressure), so intake never
//! outruns maintenance by more than `queue_capacity` batches. The consumer
//! (the caller's thread) drains the queue, applies each batch through the
//! [`IncrementalMaintainer`] and hands the report to `on_batch` — which is
//! where the streaming pipeline hangs walk refresh and incremental training.

use std::time::{Duration, Instant};

use uninet_dyngraph::{
    BatchReport, DynamicGraph, GraphMutation, IncrementalMaintainer, MaintainerConfig, UpdateBatch,
};
use uninet_walker::{MaintenanceStats, RandomWalkModel, SamplerManager};

use crate::metrics::IngestMetrics;
use crate::queue::{batch_queue, QueueStats};

/// Configuration of the ingestion pipeline.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Mutations per maintenance batch.
    pub batch_size: usize,
    /// Batches the intake queue holds before back-pressure blocks the reader.
    pub queue_capacity: usize,
    /// Has no effect: every batch is applied on the consumer thread. Kept
    /// because the repository benchmark's stream replay still sets it; it
    /// goes when that replay does.
    pub num_threads: usize,
    /// Pending overlay entries that trigger compaction back into CSR.
    pub compaction_threshold: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            batch_size: 256,
            queue_capacity: 8,
            num_threads: 4,
            compaction_threshold: 1024,
        }
    }
}

/// Aggregate accounting of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
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
    /// Sampler maintenance cost across all batches.
    pub maintenance: MaintenanceStats,
    /// Time spent applying mutations to the dynamic graph.
    pub apply_time: Duration,
    /// Time spent repairing sampler state (incl. compactions).
    pub maintain_time: Duration,
    /// Intake queue accounting (back-pressure, depth).
    pub queue: QueueStats,
}

/// Runs the concurrent ingestion pipeline over a pre-collected mutation
/// stream, recording queue/apply/maintenance/compaction telemetry into
/// `metrics` live while it runs (pass [`IngestMetrics::detached`] when
/// nothing observes it).
///
/// `on_batch` fires after every applied batch on the caller's thread — it
/// may freely borrow the graph and manager state it closed over. The final
/// `bool` argument is `true` only for the end-of-stream flush (which fires
/// only when the flush actually compacted leftover overlay entries). Each
/// report's [`BatchReport::queued_behind`] is the intake queue's depth just
/// before the call, so the callback can tell a backlog from a caught-up
/// stream; the last batch of a stream and the flush always see 0.
///
/// When `wal` is given, it fires on the consumer thread for every dequeued
/// batch *before* the batch is applied to the graph — so by the time a
/// batch's effects are observable, the durability plane has already had its
/// chance to log it. The hook must not panic; WAL errors are expected to be
/// absorbed (and reported) by the closure itself so a degraded disk never
/// takes down ingestion. Pass `None` to run without a log.
#[allow(clippy::too_many_arguments)]
pub fn run_durable_pipeline<M: RandomWalkModel + ?Sized>(
    config: &IngestConfig,
    metrics: &IngestMetrics,
    graph: &mut DynamicGraph,
    manager: &mut SamplerManager,
    model: &M,
    mutations: &[GraphMutation],
    mut wal: Option<&mut dyn FnMut(&UpdateBatch)>,
    mut on_batch: impl FnMut(&DynamicGraph, &SamplerManager, &BatchReport, bool),
) -> IngestReport {
    let maintainer = IncrementalMaintainer::new(MaintainerConfig {
        compaction_threshold: config.compaction_threshold,
    });
    let mut report = IngestReport::default();

    let queue_stats = std::thread::scope(|scope| {
        let (tx, rx) = batch_queue(config.queue_capacity, metrics);
        let batch_size = config.batch_size.max(1);
        let reader = scope.spawn(move || {
            let mut tx = tx;
            for chunk in mutations.chunks(batch_size) {
                if !tx.send(UpdateBatch::from_mutations(chunk.to_vec())) {
                    break; // consumer hung up
                }
            }
            tx.finish()
        });

        while let Some(batch) = rx.recv() {
            if let Some(hook) = wal.as_deref_mut() {
                hook(&batch);
            }
            let mut r = maintainer.apply_batch(graph, manager, model, &batch);
            metrics.apply_batch_ns.record_duration(r.apply_time);
            metrics.maintain_sampler_ns.record_duration(r.maintain_time);
            record_compaction(metrics, &r);
            metrics.node_arrivals.add(r.arrivals.len() as u64);
            metrics.node_retirements.add(r.retirements.len() as u64);
            report.batches += 1;
            report.weight_mutations += r.weight_mutations;
            report.topology_mutations += r.topology_mutations;
            report.rejected_mutations += r.rejected_mutations;
            report.compactions += r.compacted as usize;
            report.maintenance.merge(&r.maintenance);
            report.apply_time += r.apply_time;
            report.maintain_time += r.maintain_time;
            r.queued_behind = rx.depth();
            on_batch(graph, manager, &r, false);
        }
        reader.join().expect("reader thread panicked")
    });
    report.queue = queue_stats;

    // Fold any leftover overlay into the CSR and surface what it touched.
    let t = Instant::now();
    let flush = maintainer.flush(graph, manager, model);
    report.maintain_time += t.elapsed();
    record_compaction(metrics, &flush);
    if flush.compacted {
        report.compactions += 1;
        report.maintenance.merge(&flush.maintenance);
        on_batch(graph, manager, &flush, true);
    }
    report
}

fn record_compaction(metrics: &IngestMetrics, r: &BatchReport) {
    if r.compacted {
        metrics.compactions.inc();
        metrics.compaction_ns.record_duration(r.compaction_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use uninet_graph::generators::{rmat, RmatConfig};
    use uninet_graph::NodeId;
    use uninet_sampler::{EdgeSamplerKind, InitStrategy};
    use uninet_walker::models::DeepWalk;

    fn test_graph() -> uninet_graph::Graph {
        rmat(&RmatConfig {
            num_nodes: 150,
            num_edges: 1100,
            weighted: true,
            seed: 41,
            ..Default::default()
        })
    }

    fn mixed_stream(g: &uninet_graph::Graph, count: usize, seed: u64) -> Vec<GraphMutation> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let src = rng.gen_range(0..n);
            if g.degree(src) == 0 {
                continue;
            }
            let dst = g.neighbor_at(src, rng.gen_range(0..g.degree(src)));
            out.push(match out.len() % 5 {
                0..=2 => GraphMutation::UpdateWeight {
                    src,
                    dst,
                    weight: rng.gen_range(0.5f32..4.0),
                },
                3 => GraphMutation::AddEdge {
                    src,
                    dst: rng.gen_range(0..n),
                    weight: 1.0,
                },
                _ => GraphMutation::RemoveEdge { src, dst },
            });
        }
        out
    }

    #[test]
    fn pipeline_matches_serial_reference() {
        let g = test_graph();
        let model = DeepWalk::new();
        let stream = mixed_stream(&g, 400, 7);
        let kind = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);

        // Serial reference: the pre-existing run_streaming application loop.
        let mut dg_ref = DynamicGraph::new(g.clone(), true);
        let mut mgr_ref = SamplerManager::new(dg_ref.base(), &model, kind, 0);
        let serial = uninet_dyngraph::IncrementalMaintainer::new(MaintainerConfig {
            compaction_threshold: 128,
        });
        let mut ref_weight = 0;
        let mut ref_topo = 0;
        for batch in uninet_dyngraph::into_batches(&stream, 64) {
            let r = serial.apply_batch(&mut dg_ref, &mut mgr_ref, &model, &batch);
            ref_weight += r.weight_mutations;
            ref_topo += r.topology_mutations;
        }
        serial.flush(&mut dg_ref, &mut mgr_ref, &model);

        let mut dg = DynamicGraph::new(g.clone(), true);
        let mut mgr = SamplerManager::new(dg.base(), &model, kind, 0);
        let cfg = IngestConfig {
            batch_size: 64,
            queue_capacity: 4,
            compaction_threshold: 128,
            ..IngestConfig::default()
        };
        let mut callbacks = 0usize;
        let report = run_durable_pipeline(
            &cfg,
            &IngestMetrics::detached(),
            &mut dg,
            &mut mgr,
            &model,
            &stream,
            None,
            |_, _, r, _| {
                callbacks += 1;
                assert!(
                    r.weight_mutations + r.topology_mutations + r.rejected_mutations > 0
                        || r.compacted
                );
            },
        );

        assert_eq!(report.batches, stream.len().div_ceil(64));
        assert!(callbacks >= report.batches);
        assert_eq!(report.weight_mutations, ref_weight);
        assert_eq!(report.topology_mutations, ref_topo);
        assert_eq!(report.queue.batches_enqueued, report.batches);
        assert_eq!(dg.pending(), 0);

        let a = dg_ref.materialize();
        let b = dg.materialize();
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(a.neighbors(v), b.neighbors(v), "node {v}");
            assert_eq!(a.weights(v), b.weights(v), "node {v}");
        }
    }

    #[test]
    fn reports_count_the_batches_queued_behind_them() {
        let g = test_graph();
        let model = DeepWalk::new();
        let stream = mixed_stream(&g, 10 * 16, 3);
        let mut dg = DynamicGraph::new(g.clone(), true);
        let kind = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        let mut mgr = SamplerManager::new(dg.base(), &model, kind, 0);
        let cfg = IngestConfig {
            batch_size: 16,
            queue_capacity: 4,
            compaction_threshold: 1 << 20,
            ..IngestConfig::default()
        };
        let metrics = IngestMetrics::detached();
        let mut behind = Vec::new();
        run_durable_pipeline(
            &cfg,
            &metrics,
            &mut dg,
            &mut mgr,
            &model,
            &stream,
            None,
            |_, _, r, flush| {
                if !flush {
                    behind.push(r.queued_behind);
                }
                // The first batch holds the consumer until the reader has
                // filled the queue, so the next three have batches behind them
                // however the reader is scheduled afterwards.
                while behind.len() == 1
                    && metrics.queue_enqueued.get() < 1 + cfg.queue_capacity as u64
                {
                    std::thread::yield_now();
                }
            },
        );
        assert_eq!(behind.len(), 10);
        // Queued plus at most one blocked mid-send.
        assert!(
            behind.iter().all(|&d| d <= cfg.queue_capacity + 1),
            "{behind:?}"
        );
        assert!(behind[1..4].iter().all(|&d| d > 0), "{behind:?}");
        assert_eq!(behind.last(), Some(&0), "nothing is behind the last batch");
    }

    #[test]
    fn every_compaction_is_timed_and_churn_is_counted() {
        let g = test_graph();
        let n = g.num_nodes() as NodeId;
        let model = DeepWalk::new();
        // Every 40 edge ops, an arrival wired into the graph and a
        // retirement: each node-op batch forces a compaction, and the edge
        // ops between them cross the threshold on their own too.
        let mut stream = Vec::new();
        for (i, chunk) in mixed_stream(&g, 200, 5).chunks(40).enumerate() {
            let i = i as NodeId;
            stream.extend_from_slice(chunk);
            stream.push(GraphMutation::AddNode { node: n + i });
            stream.push(GraphMutation::AddEdge {
                src: n + i,
                dst: 3,
                weight: 1.0,
            });
            stream.push(GraphMutation::RemoveNode { node: 10 + i });
        }
        let mut dg = DynamicGraph::new(g.clone(), true);
        let kind = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        let mut mgr = SamplerManager::new(dg.base(), &model, kind, 0);
        let cfg = IngestConfig {
            batch_size: 16,
            compaction_threshold: 24,
            ..IngestConfig::default()
        };
        let registry = uninet_metrics::MetricsRegistry::new();
        let (mut arrivals, mut retirements) = (0usize, 0usize);
        let report = run_durable_pipeline(
            &cfg,
            &IngestMetrics::registered(&registry),
            &mut dg,
            &mut mgr,
            &model,
            &stream,
            None,
            |_, _, r, _| {
                arrivals += r.arrivals.len();
                retirements += r.retirements.len();
            },
        );

        let snap = registry.snapshot();
        let compactions = snap.counter("ingest.compaction.count").unwrap();
        assert!(compactions > 5, "node ops and the threshold compact");
        assert_eq!(compactions, report.compactions as u64);
        assert_eq!(
            snap.histogram("ingest.compaction.duration_ns")
                .unwrap()
                .count(),
            compactions,
            "one duration per compaction"
        );
        assert_eq!((arrivals, retirements), (5, 5));
        assert_eq!(snap.counter("ingest.churn.arrivals"), Some(arrivals as u64));
        assert_eq!(
            snap.counter("ingest.churn.retirements"),
            Some(retirements as u64)
        );
        assert_eq!(dg.num_nodes(), n as usize + 5);
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let g = test_graph();
        let model = DeepWalk::new();
        let mut dg = DynamicGraph::new(g.clone(), true);
        let mut mgr = SamplerManager::new(
            dg.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let report = run_durable_pipeline(
            &IngestConfig::default(),
            &IngestMetrics::detached(),
            &mut dg,
            &mut mgr,
            &model,
            &[],
            None,
            |_, _, _, _| panic!("no batches expected"),
        );
        assert_eq!(report.batches, 0);
        assert_eq!(report.queue.batches_enqueued, 0);
    }
}
