//! [`ShardedMaintainer`]: the parallel counterpart of
//! `uninet_dyngraph::IncrementalMaintainer`.
//!
//! One batch flows through three stages:
//!
//! 1. **Sharded overlay application** — the batch is partitioned by the
//!    [`crate::ShardPlan`]; each shard's local mutations are applied by a
//!    worker thread against that shard's `ShardView` (disjoint vertex rows),
//!    and the deferred side effects are committed afterwards. Cross-shard
//!    mutations are applied serially. The result is identical to the
//!    sequential path (see the module docs of [`crate::shard`]).
//! 2. **Parallel weight maintenance** — alias/proposal rebuilds over touched
//!    nodes fan out via `SamplerManager::maintain_weights_parallel` (a no-op
//!    beyond counters for the M-H backend, the paper's point).
//! 3. **Compaction** — unchanged threshold policy, delegated to the serial
//!    maintainer (compaction is a full CSR rebuild; its cost is amortized).

use std::time::Instant;

use uninet_dyngraph::{
    BatchReport, DynamicGraph, IncrementalMaintainer, MaintainerConfig, ShardOutcome, UpdateBatch,
};
use uninet_walker::{RandomWalkModel, SamplerManager};

use crate::metrics::IngestMetrics;
use crate::shard::ShardPlan;

/// Applies update batches with vertex-range parallelism.
#[derive(Debug, Clone)]
pub struct ShardedMaintainer {
    config: MaintainerConfig,
    threads: usize,
    metrics: IngestMetrics,
}

impl ShardedMaintainer {
    /// Creates a maintainer applying batches with up to `threads` workers and
    /// detached (unobserved) telemetry.
    pub fn new(config: MaintainerConfig, threads: usize) -> Self {
        Self::instrumented(config, threads, IngestMetrics::detached())
    }

    /// Creates a maintainer recording apply/maintenance/compaction timings
    /// into `metrics`.
    pub fn instrumented(config: MaintainerConfig, threads: usize, metrics: IngestMetrics) -> Self {
        ShardedMaintainer {
            config,
            threads: threads.max(1),
            metrics,
        }
    }

    /// The compaction policy in use.
    pub fn config(&self) -> &MaintainerConfig {
        &self.config
    }

    /// Worker threads used for shard application and weight maintenance.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies one batch — sharded overlay application, parallel sampler
    /// maintenance, threshold compaction — producing a [`BatchReport`]
    /// identical to the serial `IncrementalMaintainer::apply_batch`.
    pub fn apply_batch<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &mut DynamicGraph,
        manager: &mut SamplerManager,
        model: &M,
        batch: &UpdateBatch,
        plan: &ShardPlan,
    ) -> BatchReport {
        // Node arrivals/retirements change the universe the shard plan was
        // computed over and must interleave in stream order with the edge ops
        // around them, so churn batches take the serial path wholesale.
        if self.threads <= 1 || plan.num_shards() <= 1 || batch.has_node_ops() {
            let r =
                IncrementalMaintainer::new(self.config).apply_batch(graph, manager, model, batch);
            self.metrics.apply_batch_ns.record_duration(r.apply_time);
            self.metrics
                .maintain_sampler_ns
                .record_duration(r.maintain_time);
            if r.compacted {
                self.metrics.compactions.inc();
            }
            self.metrics.node_arrivals.add(r.arrivals.len() as u64);
            self.metrics
                .node_retirements
                .add(r.retirements.len() as u64);
            return r;
        }

        let mut report = BatchReport::default();
        let t0 = Instant::now();
        let parts = plan.partition(batch);

        if parts.local_len() > 0 {
            let views = graph.shard_views(plan.bounds());
            // Each worker tallies into its own BatchReport via the shared
            // `record_effects` bookkeeping, so sharded and serial reports
            // cannot drift.
            let applied: Vec<(BatchReport, ShardOutcome)> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = views
                    .into_iter()
                    .zip(parts.local.iter())
                    .filter(|(_, ops)| !ops.is_empty())
                    .map(|(view, ops)| {
                        let shard_ns = std::sync::Arc::clone(&self.metrics.apply_shard_ns);
                        scope.spawn(move |_| {
                            let t = Instant::now();
                            let mut view = view;
                            let mut tallies = BatchReport::default();
                            for &m in ops {
                                let effects = view.apply_with_effects(m);
                                tallies.record_effects(m, effects);
                            }
                            let out = (tallies, view.finish());
                            shard_ns.record_duration(t.elapsed());
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
            .expect("shard scope panicked");

            let mut outcomes = Vec::with_capacity(applied.len());
            for (mut tallies, outcome) in applied {
                report.weight_mutations += tallies.weight_mutations;
                report.topology_mutations += tallies.topology_mutations;
                report.rejected_mutations += tallies.rejected_mutations;
                report.weight_touched.append(&mut tallies.weight_touched);
                outcomes.push(outcome);
            }
            graph.commit_shards(outcomes);
        }

        // Serial residual: cross-shard pairs and malformed events.
        for &m in &parts.residual {
            let effects = graph.apply_with_effects(m);
            report.record_effects(m, effects);
        }
        report.weight_touched.sort_unstable();
        report.weight_touched.dedup();
        report.apply_time = t0.elapsed();
        self.metrics
            .apply_batch_ns
            .record_duration(report.apply_time);

        let t1 = Instant::now();
        if !report.weight_touched.is_empty() {
            let touched = std::mem::take(&mut report.weight_touched);
            report.maintenance.merge(&manager.maintain_weights_parallel(
                graph.base(),
                model,
                &touched,
                self.threads,
            ));
            report.weight_touched = touched;
        }
        self.metrics
            .maintain_sampler_ns
            .record_duration(t1.elapsed());

        if report.topology_mutations > 0 && graph.pending() >= self.config.compaction_threshold {
            let tc = Instant::now();
            let flush = IncrementalMaintainer::new(self.config).flush(graph, manager, model);
            report.compacted = flush.compacted;
            report.topology_touched = flush.topology_touched;
            report.maintenance.merge(&flush.maintenance);
            if flush.compacted {
                self.metrics.compaction_ns.record_duration(tc.elapsed());
                self.metrics.compactions.inc();
            }
        }
        report.maintain_time = t1.elapsed();
        report
    }

    /// Forces compaction and sampler re-alignment (end-of-stream), identical
    /// to the serial maintainer's flush.
    pub fn flush<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &mut DynamicGraph,
        manager: &mut SamplerManager,
        model: &M,
    ) -> BatchReport {
        let t = Instant::now();
        let r = IncrementalMaintainer::new(self.config).flush(graph, manager, model);
        if r.compacted {
            self.metrics.compaction_ns.record_duration(t.elapsed());
            self.metrics.compactions.inc();
        }
        r
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
            num_nodes: 120,
            num_edges: 900,
            weighted: true,
            seed: 5,
            ..Default::default()
        })
    }

    fn mixed_batch(g: &uninet_graph::Graph, count: usize, seed: u64) -> UpdateBatch {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let mut batch = UpdateBatch::new();
        for i in 0..count {
            let src = rng.gen_range(0..n);
            if g.degree(src) == 0 {
                continue;
            }
            let dst = g.neighbor_at(src, rng.gen_range(0..g.degree(src)));
            match i % 4 {
                0 | 1 => batch.update_weight(src, dst, rng.gen_range(0.5f32..4.0)),
                2 => batch.add_edge(src, (dst + 1) % n, rng.gen_range(0.5f32..2.0)),
                _ => batch.remove_edge(src, dst),
            };
        }
        batch
    }

    #[test]
    fn sharded_apply_matches_serial_for_every_sampler() {
        let g = test_graph();
        let model = DeepWalk::new();
        let batch = mixed_batch(&g, 120, 3);
        let plan = ShardPlan::new(g.num_nodes(), 4);
        for kind in [
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            EdgeSamplerKind::Alias,
            EdgeSamplerKind::Rejection,
        ] {
            let mut dg_serial = DynamicGraph::new(g.clone(), true);
            let mut m_serial = SamplerManager::new(dg_serial.base(), &model, kind, 0);
            let serial = IncrementalMaintainer::new(MaintainerConfig {
                compaction_threshold: 64,
            })
            .apply_batch(&mut dg_serial, &mut m_serial, &model, &batch);

            let mut dg_sharded = DynamicGraph::new(g.clone(), true);
            let mut m_sharded = SamplerManager::new(dg_sharded.base(), &model, kind, 0);
            let sharded = ShardedMaintainer::new(
                MaintainerConfig {
                    compaction_threshold: 64,
                },
                4,
            )
            .apply_batch(&mut dg_sharded, &mut m_sharded, &model, &batch, &plan);

            assert_eq!(serial.weight_mutations, sharded.weight_mutations);
            assert_eq!(serial.topology_mutations, sharded.topology_mutations);
            assert_eq!(serial.rejected_mutations, sharded.rejected_mutations);
            assert_eq!(serial.weight_touched, sharded.weight_touched);
            assert_eq!(serial.compacted, sharded.compacted);
            assert_eq!(serial.topology_touched, sharded.topology_touched);
            assert_eq!(serial.maintenance, sharded.maintenance);
            assert_eq!(dg_serial.pending(), dg_sharded.pending());

            let a = dg_serial.materialize();
            let b = dg_sharded.materialize();
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(a.neighbors(v), b.neighbors(v), "{kind:?} node {v}");
                assert_eq!(a.weights(v), b.weights(v), "{kind:?} node {v}");
            }
        }
    }

    #[test]
    fn churn_batches_take_the_serial_path_and_match_it() {
        let g = test_graph();
        let n = g.num_nodes() as NodeId;
        let model = DeepWalk::new();
        // Arrival, edge naming the arrival, retirement, edge naming the
        // retiree — stream order between node and edge ops must hold.
        let mut batch = mixed_batch(&g, 40, 11);
        batch.add_node(n);
        batch.add_edge(n, 3, 1.5);
        batch.remove_node(7);
        batch.add_edge(7, 8, 1.0); // must be rejected: endpoint retired
        let plan = ShardPlan::new(g.num_nodes(), 4);

        let mut dg_serial = DynamicGraph::new(g.clone(), true);
        let mut m_serial = SamplerManager::new(
            dg_serial.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let serial = IncrementalMaintainer::new(MaintainerConfig::default()).apply_batch(
            &mut dg_serial,
            &mut m_serial,
            &model,
            &batch,
        );

        let mut dg_sharded = DynamicGraph::new(g.clone(), true);
        let mut m_sharded = SamplerManager::new(
            dg_sharded.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let metrics = IngestMetrics::detached();
        let sharded =
            ShardedMaintainer::instrumented(MaintainerConfig::default(), 4, metrics.clone())
                .apply_batch(&mut dg_sharded, &mut m_sharded, &model, &batch, &plan);

        assert_eq!(serial.arrivals, sharded.arrivals);
        assert_eq!(serial.retirements, sharded.retirements);
        assert_eq!(serial.rejected_mutations, sharded.rejected_mutations);
        assert_eq!(metrics.node_arrivals.get(), serial.arrivals.len() as u64);
        assert_eq!(
            metrics.node_retirements.get(),
            serial.retirements.len() as u64
        );
        assert_eq!(dg_serial.live_mask(), dg_sharded.live_mask());
        let a = dg_serial.materialize();
        let b = dg_sharded.materialize();
        assert_eq!(a.num_nodes(), b.num_nodes());
        for v in 0..a.num_nodes() as NodeId {
            assert_eq!(a.neighbors(v), b.neighbors(v), "node {v}");
        }
        assert!(a.has_edge(n, 3), "arrival's edge applied");
        assert!(!a.has_edge(7, 8), "retired endpoint's edge rejected");
    }

    #[test]
    fn single_thread_falls_back_to_serial_maintainer() {
        let g = test_graph();
        let model = DeepWalk::new();
        let batch = mixed_batch(&g, 40, 9);
        let plan = ShardPlan::new(g.num_nodes(), 1);
        let mut dg = DynamicGraph::new(g.clone(), true);
        let mut manager = SamplerManager::new(
            dg.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let r = ShardedMaintainer::new(MaintainerConfig::default(), 1).apply_batch(
            &mut dg,
            &mut manager,
            &model,
            &batch,
            &plan,
        );
        assert!(r.weight_mutations + r.topology_mutations > 0);
    }
}
