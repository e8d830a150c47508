//! [`IncrementalMaintainer`]: propagates update batches into the graph and
//! the sampler state, with per-family cost accounting.
//!
//! The core asymmetry it demonstrates (the paper's dynamic-workload claim):
//!
//! * Weight-only batches cost the **M-H backend nothing** — chains read
//!   unnormalized weights on demand, so the write to the CSR weight array is
//!   the entire update.
//! * The same batch forces **alias-family backends** to rebuild every
//!   materialized table over a touched node at O(deg) per state.
//! * Topology batches are buffered in the overlay and amortized: compaction
//!   back into CSR plus targeted invalidation of only the affected buckets.

use std::time::{Duration, Instant};

use uninet_graph::NodeId;
use uninet_walker::{MaintenanceStats, RandomWalkModel, SamplerManager};

use crate::dynamic::{DynamicGraph, MutationEffect};
use crate::mutation::{GraphMutation, UpdateBatch};

/// Tuning knobs of the maintainer.
#[derive(Debug, Clone, Copy)]
pub struct MaintainerConfig {
    /// Pending overlay entries (inserts + deletes) that trigger compaction of
    /// the delta overlay back into CSR. 0 compacts after every
    /// topology-changing batch.
    pub compaction_threshold: usize,
}

impl Default for MaintainerConfig {
    fn default() -> Self {
        MaintainerConfig {
            compaction_threshold: 1024,
        }
    }
}

/// What one [`IncrementalMaintainer::apply_batch`] call did.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Mutations that changed only weights.
    pub weight_mutations: usize,
    /// Mutations that changed topology.
    pub topology_mutations: usize,
    /// Mutations rejected (missing edge / out-of-range node / self-loop).
    pub rejected_mutations: usize,
    /// Ids declared live by this batch (in application order, deduped).
    pub arrivals: Vec<NodeId>,
    /// Ids retired by this batch (in application order, deduped).
    pub retirements: Vec<NodeId>,
    /// Nodes whose sampler buckets were maintained on the weight path.
    pub weight_touched: Vec<NodeId>,
    /// Whether this batch triggered a compaction.
    pub compacted: bool,
    /// Nodes invalidated by the compaction (empty if `!compacted`).
    pub topology_touched: Vec<NodeId>,
    /// Sampler maintenance cost accounting for this batch.
    pub maintenance: MaintenanceStats,
    /// Time spent applying mutations to the dynamic graph.
    pub apply_time: Duration,
    /// Time spent repairing sampler state (incl. compaction).
    pub maintain_time: Duration,
    /// Batches already waiting in the intake queue when this report reached
    /// the pipeline's batch callback (0 for the end-of-stream flush and
    /// outside a pipeline): how far intake is ahead of maintenance.
    pub queued_behind: usize,
}

impl BatchReport {
    /// Folds one mutation's `(forward, mirror)` effects into the tallies:
    /// touched nodes on the weight path, and the weight/topology/rejected
    /// classification. This is the single source of truth for report
    /// bookkeeping, shared by the serial maintainer and the sharded ingest
    /// path (`uninet-ingest`), so the two can never drift.
    ///
    /// `weight_touched` entries are appended unsorted; callers dedup once per
    /// batch before sampler maintenance.
    pub fn record_effects(
        &mut self,
        m: GraphMutation,
        (forward, mirror): (MutationEffect, MutationEffect),
    ) {
        let (src, dst) = m.endpoints();
        // On an asymmetric base one direction may insert while the other
        // reweights in place; both sides need their maintenance.
        if forward == MutationEffect::Reweighted {
            self.weight_touched.push(src);
        }
        if mirror == MutationEffect::Reweighted {
            self.weight_touched.push(dst);
        }
        match (forward, mirror) {
            (MutationEffect::NodeArrived, _) => {
                self.arrivals.push(src);
                self.topology_mutations += 1;
            }
            (MutationEffect::NodeRetired, _) => {
                self.retirements.push(src);
                self.topology_mutations += 1;
            }
            (MutationEffect::TopologyChanged, _) | (_, MutationEffect::TopologyChanged) => {
                self.topology_mutations += 1;
            }
            (MutationEffect::Reweighted, _) | (_, MutationEffect::Reweighted) => {
                self.weight_mutations += 1;
            }
            _ => {
                self.rejected_mutations += 1;
            }
        }
    }

    /// Accumulates another report into this one.
    pub fn merge(&mut self, other: &BatchReport) {
        self.weight_mutations += other.weight_mutations;
        self.topology_mutations += other.topology_mutations;
        self.rejected_mutations += other.rejected_mutations;
        self.arrivals.extend_from_slice(&other.arrivals);
        self.retirements.extend_from_slice(&other.retirements);
        self.compacted |= other.compacted;
        self.maintenance.merge(&other.maintenance);
        self.apply_time += other.apply_time;
        self.maintain_time += other.maintain_time;
    }
}

/// Propagates [`UpdateBatch`]es into a [`DynamicGraph`] and the
/// [`SamplerManager`] serving walkers over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalMaintainer {
    config: MaintainerConfig,
}

impl IncrementalMaintainer {
    /// Creates a maintainer with the given configuration.
    pub fn new(config: MaintainerConfig) -> Self {
        IncrementalMaintainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MaintainerConfig {
        &self.config
    }

    /// Applies one batch to the graph, then repairs sampler state.
    ///
    /// Weight changes are maintained immediately (they are visible to walkers
    /// right away); topology changes accumulate in the overlay until the
    /// compaction threshold is reached, at which point the CSR is rebuilt and
    /// only the buckets of mutated nodes (plus, for second-order models, their
    /// neighbors, whose dynamic weights read the mutated adjacency) are
    /// invalidated.
    pub fn apply_batch<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &mut DynamicGraph,
        manager: &mut SamplerManager,
        model: &M,
        batch: &UpdateBatch,
    ) -> BatchReport {
        let mut report = BatchReport::default();

        let t0 = Instant::now();
        for &m in batch.mutations() {
            let effects = graph.apply_with_effects(m);
            report.record_effects(m, effects);
        }
        report.weight_touched.sort_unstable();
        report.weight_touched.dedup();
        report.apply_time = t0.elapsed();

        let t1 = Instant::now();
        if !report.weight_touched.is_empty() {
            let touched = std::mem::take(&mut report.weight_touched);
            // The sampler's bucket layout covers the base CSR. An id that
            // arrived *in this batch* lives only in the overlay until the
            // forced compaction below, which rebuilds its bucket from the
            // merged weights — maintaining it here would index past the
            // layout. Ids already in the base are maintained immediately.
            let covered: Vec<NodeId> = touched
                .iter()
                .copied()
                .filter(|&v| (v as usize) < graph.base().num_nodes())
                .collect();
            if !covered.is_empty() {
                report
                    .maintenance
                    .merge(&manager.maintain_weights(graph.base(), model, &covered));
            }
            report.weight_touched = touched;
        }

        // Effective node ops force compaction regardless of the threshold:
        // the base CSR, the sampler's bucket layout and the walk refresher
        // must all see the new universe at once, or walkers would read rows
        // that don't exist yet.
        let universe_changed = !report.arrivals.is_empty() || !report.retirements.is_empty();
        if universe_changed
            || (report.topology_mutations > 0
                && graph.pending() >= self.config.compaction_threshold)
        {
            report.merge_compaction(self.compact_now(graph, manager, model));
        }
        report.maintain_time = t1.elapsed();
        report
    }

    /// Forces compaction and sampler re-alignment regardless of the threshold
    /// (used at end-of-stream and before retraining embeddings).
    pub fn flush<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &mut DynamicGraph,
        manager: &mut SamplerManager,
        model: &M,
    ) -> BatchReport {
        let mut report = BatchReport::default();
        let t = Instant::now();
        if graph.pending() > 0 || graph.num_nodes() != graph.base().num_nodes() {
            report.merge_compaction(self.compact_now(graph, manager, model));
        }
        report.maintain_time = t.elapsed();
        report
    }

    fn compact_now<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &mut DynamicGraph,
        manager: &mut SamplerManager,
        model: &M,
    ) -> (Vec<NodeId>, MaintenanceStats) {
        // Two invalidation sets: nodes whose own adjacency changed (their
        // buckets are structurally wrong for every backend), and — for
        // second-order models whose dynamic weights probe other nodes'
        // adjacency (e.g. node2vec's d(prev, u) test) — their neighborhoods,
        // whose *materialized* distributions are stale but whose M-H chains
        // are still valid (chains never materialize weights).
        let mut mutated: Vec<NodeId> = graph.touched_since_compaction().collect();
        mutated.sort_unstable();
        let mut stale: Vec<NodeId> = Vec::new();
        if model.is_second_order() {
            for &v in &mutated {
                stale.extend(graph.neighbors(v));
                // Also the pre-compaction neighbors: nodes that pointed at a
                // now-deleted edge still hold stale materialized state.
                // Arrived nodes have no base row yet, hence the range guard.
                if (v as usize) < graph.base().num_nodes() {
                    stale.extend(graph.base().neighbors(v).iter().copied());
                }
            }
            stale.sort_unstable();
            stale.dedup();
            stale.retain(|v| mutated.binary_search(v).is_err());
        }

        graph.compact();
        let stats = manager.maintain_topology(graph.base(), model, &mutated, &stale);
        let mut touched = mutated;
        touched.extend(stale);
        touched.sort_unstable();
        (touched, stats)
    }
}

impl BatchReport {
    fn merge_compaction(&mut self, (touched, stats): (Vec<NodeId>, MaintenanceStats)) {
        self.compacted = true;
        self.topology_touched = touched;
        self.maintenance.merge(&stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use uninet_graph::generators::{barabasi_albert, rmat, RmatConfig};
    use uninet_sampler::{EdgeSamplerKind, InitStrategy};
    use uninet_walker::models::{DeepWalk, Node2Vec};
    use uninet_walker::WalkerState;

    fn test_graph() -> uninet_graph::Graph {
        rmat(&RmatConfig {
            num_nodes: 120,
            num_edges: 900,
            weighted: true,
            seed: 5,
            ..Default::default()
        })
    }

    fn reweight_batch(g: &DynamicGraph, count: usize) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        let mut added = 0;
        'outer: for v in 0..g.num_nodes() as NodeId {
            for dst in g.neighbors(v) {
                if added >= count {
                    break 'outer;
                }
                batch.update_weight(v, dst, 3.0 + added as f32);
                added += 1;
            }
        }
        batch
    }

    #[test]
    fn weight_batch_costs_mh_nothing_and_alias_rebuilds() {
        let base = test_graph();
        let model = DeepWalk::new();
        let maintainer = IncrementalMaintainer::default();

        let mut dg_mh = DynamicGraph::new(base.clone(), true);
        let mut mh = SamplerManager::new(
            dg_mh.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let batch = reweight_batch(&dg_mh, 16);
        let r = maintainer.apply_batch(&mut dg_mh, &mut mh, &model, &batch);
        assert_eq!(r.weight_mutations, 16);
        assert_eq!(r.maintenance.states_rebuilt, 0);
        assert!(r.maintenance.chains_preserved > 0);
        assert_eq!(r.maintenance.bytes_rebuilt, 0);

        let mut dg_alias = DynamicGraph::new(base, true);
        let mut alias = SamplerManager::new(dg_alias.base(), &model, EdgeSamplerKind::Alias, 0);
        let r = maintainer.apply_batch(&mut dg_alias, &mut alias, &model, &batch);
        assert!(r.maintenance.states_rebuilt > 0);
        assert!(r.maintenance.bytes_rebuilt > 0);
    }

    #[test]
    fn weight_update_changes_sampling_distribution_without_rebuild() {
        // One hub node with two equal-weight neighbors; after reweighting one
        // edge 9:1 the M-H chain must track the new target with no
        // maintenance call beyond the in-place weight write.
        let mut b = uninet_graph::GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.symmetric(true).build();
        let model = DeepWalk::new();
        let mut dg = DynamicGraph::new(g, true);
        let mut manager = SamplerManager::new(
            dg.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let maintainer = IncrementalMaintainer::default();
        let mut batch = UpdateBatch::new();
        batch.update_weight(0, 1, 9.0);
        maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);

        let mut rng = SmallRng::seed_from_u64(11);
        let state = WalkerState::at(0);
        let mut hits = [0usize; 2];
        for _ in 0..40_000 {
            let k = manager.sample(dg.base(), &model, state, &mut rng).unwrap();
            hits[k] += 1;
        }
        let frac = hits[0] as f64 / 40_000.0;
        assert!((frac - 0.9).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn topology_batch_compacts_at_threshold() {
        let base = barabasi_albert(200, 3, true, 9);
        let model = Node2Vec::new(0.5, 2.0);
        let maintainer = IncrementalMaintainer::new(MaintainerConfig {
            compaction_threshold: 4,
        });
        let mut dg = DynamicGraph::new(base, true);
        let mut manager = SamplerManager::new(
            dg.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );

        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 50, 1.0);
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
        assert!(!r.compacted, "below threshold");
        assert_eq!(dg.pending(), 2); // symmetric insert

        let mut batch = UpdateBatch::new();
        batch.add_edge(1, 60, 1.0);
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
        assert!(r.compacted, "threshold reached");
        assert_eq!(dg.pending(), 0);
        assert!(dg.base().has_edge(0, 50));
        assert!(dg.base().has_edge(1, 60));
        assert!(r.topology_touched.contains(&0));
        assert!(r.topology_touched.contains(&50));
        // node2vec buckets: one state per edge — manager must track new layout.
        assert_eq!(manager.num_states(), dg.base().num_edges());
    }

    #[test]
    fn asymmetric_base_mirror_reweight_is_maintained() {
        // Directed base with only (1,0): a symmetric AddEdge(0,1) inserts the
        // forward edge and upsert-reweights the mirror in place. The alias
        // table of node 1 must be rebuilt or it keeps sampling the old
        // distribution forever.
        let mut b = uninet_graph::GraphBuilder::new();
        b.add_edge(1, 0, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 0, 1.0);
        let g = b.symmetric(false).build();
        let model = DeepWalk::new();
        let mut dg = DynamicGraph::new(g, true);
        let mut manager = SamplerManager::new(dg.base(), &model, EdgeSamplerKind::Alias, 0);
        let maintainer = IncrementalMaintainer::default();
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 1, 9.0);
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
        assert_eq!(r.topology_mutations, 1);
        assert!(
            r.weight_touched.contains(&1),
            "mirror reweight of node 1 not maintained"
        );
        assert!(r.maintenance.states_rebuilt > 0);

        // Node 1's rebuilt table must reflect the 9.0 weight on (1,0).
        let mut rng = SmallRng::seed_from_u64(3);
        let state = model.initial_state(dg.base(), 1);
        let deg = dg.base().degree(1);
        let k0 = dg.base().find_neighbor(1, 0).unwrap();
        let mut hits = vec![0usize; deg];
        for _ in 0..20_000 {
            hits[manager.sample(dg.base(), &model, state, &mut rng).unwrap()] += 1;
        }
        let frac = hits[k0] as f64 / 20_000.0;
        assert!((frac - 0.9).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn second_order_compaction_keeps_neighbor_chains() {
        // node2vec (second-order): inserting one edge must reset only the
        // endpoints' buckets; neighbors' M-H chains are stale-distribution
        // but structurally valid and must be carried over.
        let base = barabasi_albert(150, 4, true, 13);
        let model = Node2Vec::new(0.5, 2.0);
        let mut dg = DynamicGraph::new(base, true);
        let mut manager = SamplerManager::new(
            dg.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let src = 0u32;
        let dst = (1..150u32)
            .find(|&v| !dg.has_edge(src, v))
            .expect("hub connected to every node");
        let maintainer = IncrementalMaintainer::new(MaintainerConfig {
            compaction_threshold: 0,
        });
        let mut batch = UpdateBatch::new();
        batch.add_edge(src, dst, 1.0);
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
        assert!(r.compacted);
        let expected_reset = dg.base().degree(src) + dg.base().degree(dst);
        assert_eq!(
            r.maintenance.chains_reset, expected_reset,
            "only the endpoints' buckets should reset"
        );
        assert!(r.maintenance.chains_preserved > 0);
    }

    #[test]
    fn node_ops_force_compaction_and_grow_sampler_state() {
        let base = test_graph();
        let n0 = base.num_nodes();
        let model = DeepWalk::new();
        // Huge threshold: only the node ops can trigger the compaction.
        let maintainer = IncrementalMaintainer::new(MaintainerConfig {
            compaction_threshold: 1_000_000,
        });
        let mut dg = DynamicGraph::new(base, true);
        let mut manager = SamplerManager::new(dg.base(), &model, EdgeSamplerKind::Alias, 0);

        let mut batch = UpdateBatch::new();
        batch.add_node(n0 as NodeId);
        batch.add_edge(n0 as NodeId, 3, 2.0);
        batch.remove_node(7);
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
        assert!(r.compacted, "node ops must force compaction");
        assert_eq!(r.arrivals, vec![n0 as NodeId]);
        assert_eq!(r.retirements, vec![7]);
        assert_eq!(dg.base().num_nodes(), n0 + 1);
        assert_eq!(dg.base().degree(7), 0);
        assert!(dg.base().has_edge(n0 as NodeId, 3));
        // DeepWalk: one state per node — the manager grew with the universe.
        assert_eq!(manager.num_states(), n0 + 1);

        // The arrived node samples, the retired node is stuck.
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(manager
            .sample(dg.base(), &model, WalkerState::at(n0 as NodeId), &mut rng)
            .is_some());
        assert!(manager
            .sample(dg.base(), &model, WalkerState::at(7), &mut rng)
            .is_none());

        // Rejected node ops alone must not force a compaction.
        let mut batch = UpdateBatch::new();
        batch.add_node(3); // already live
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
        assert_eq!(r.rejected_mutations, 1);
        assert!(!r.compacted);
    }

    #[test]
    fn flush_compacts_leftovers() {
        let base = test_graph();
        let model = DeepWalk::new();
        let maintainer = IncrementalMaintainer::new(MaintainerConfig {
            compaction_threshold: 1_000_000,
        });
        let mut dg = DynamicGraph::new(base, true);
        let mut manager = SamplerManager::new(
            dg.base(),
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let mut batch = UpdateBatch::new();
        batch.add_edge(3, 77, 2.0);
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
        assert!(!r.compacted);
        assert!(dg.pending() > 0);
        let r = maintainer.flush(&mut dg, &mut manager, &model);
        assert!(r.compacted);
        assert_eq!(dg.pending(), 0);
        assert!(dg.base().has_edge(3, 77));
        assert_eq!(manager.num_states(), dg.base().num_nodes());
    }

    #[test]
    fn same_batch_arrival_plus_reweight_stays_in_the_bucket_layout() {
        // Regression: a batch that declares an id past the base CSR, wires
        // it in and reweights the new edge used to run weight maintenance
        // against the pre-compaction bucket layout, indexing past its end.
        // The arrived id's bucket is instead built by the same batch's
        // forced compaction, from the merged (reweighted) adjacency.
        let base = test_graph();
        let n = base.num_nodes() as NodeId;
        let model = DeepWalk::new();
        let maintainer = IncrementalMaintainer::default();
        let mut dg = DynamicGraph::new(base, true);
        let mut manager = SamplerManager::new(dg.base(), &model, EdgeSamplerKind::Alias, 0);

        let mut batch = UpdateBatch::new();
        batch.add_node(n);
        batch.add_edge(n, 3, 1.0);
        batch.update_weight(n, 3, 4.5);
        let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);

        assert_eq!(r.arrivals, vec![n]);
        assert!(r.compacted, "a universe change forces compaction");
        assert_eq!(manager.num_states(), dg.base().num_nodes());
        assert_eq!(dg.weight(n, 3), Some(4.5));
        assert_eq!(dg.weight(3, n), Some(4.5), "mirror reweighted too");
        // The new bucket is usable immediately.
        let state = model.initial_state(dg.base(), n);
        let mut rng = SmallRng::seed_from_u64(9);
        assert!(manager.sample(dg.base(), &model, state, &mut rng).is_some());
    }
}
