//! The sampler manager: one edge sampler per walker state, organized in the
//! 2D (position, affixture) layout of Figure 4 so that the sampler responsible
//! for any state is found in O(1).
//!
//! The manager supports every sampler family compared in the paper, selected
//! by [`EdgeSamplerKind`]; building the manager is the *initialization phase*
//! whose cost (`Ti`) Table VI and Figure 6 report separately from the walking
//! phase.

use rand::Rng;

use uninet_graph::{prefetch, Graph, NodeId};
use uninet_sampler::alias::AliasTable;
use uninet_sampler::direct::direct_sample_fn;
use uninet_sampler::memory_aware::{alias_table_bytes, MemoryAwarePlan, StateSamplerKind};
use uninet_sampler::metropolis_hastings::AtomicMhChain;
use uninet_sampler::{EdgeSamplerKind, InitStrategy};

use crate::model::RandomWalkModel;
use crate::state::WalkerState;

/// Per-state edge samplers for one (graph, model) pair.
pub struct SamplerManager {
    kind: EdgeSamplerKind,
    /// `bucket_offsets[v]..bucket_offsets[v+1]` indexes the states whose
    /// position is `v` (the bucket of Figure 4).
    bucket_offsets: Vec<usize>,
    backend: Backend,
}

enum Backend {
    /// UniNet's M-H sampler: one 4-byte chain per state.
    MetropolisHastings {
        chains: Vec<AtomicMhChain>,
        init: InitStrategy,
    },
    /// Fully materialized alias tables of the *dynamic* weights, per state.
    Alias { tables: Vec<Option<AliasTable>> },
    /// Direct sampling: stateless.
    Direct,
    /// Rejection sampling from per-node static-weight proposals.
    Rejection {
        proposals: Vec<Option<AliasTable>>,
        folding: bool,
    },
    /// Memory-aware hybrid: alias tables for the states chosen by the plan.
    MemoryAware {
        plan: MemoryAwarePlan,
        tables: Vec<Option<AliasTable>>,
    },
}

/// Safety cap on rejection attempts before falling back to direct sampling.
const MAX_REJECTION_ATTEMPTS: usize = 1024;

/// Cost accounting of one incremental maintenance pass, the quantity the
/// dynamic-update experiments compare across sampler families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Walker states whose node was touched by the update.
    pub states_examined: usize,
    /// States whose materialized sampler (alias table / proposal) was rebuilt.
    pub states_rebuilt: usize,
    /// M-H chains that survived the update with their state intact
    /// (the paper's O(1)-per-update claim in action).
    pub chains_preserved: usize,
    /// M-H chains that had to be reset (topology change on their node).
    pub chains_reset: usize,
    /// Bytes of sampler state re-materialized by the pass.
    pub bytes_rebuilt: usize,
}

impl MaintenanceStats {
    /// Accumulates another pass into this one.
    pub fn merge(&mut self, other: &MaintenanceStats) {
        self.states_examined += other.states_examined;
        self.states_rebuilt += other.states_rebuilt;
        self.chains_preserved += other.chains_preserved;
        self.chains_reset += other.chains_reset;
        self.bytes_rebuilt += other.bytes_rebuilt;
    }
}

impl SamplerManager {
    /// Builds the manager (the initialization phase).
    ///
    /// `memory_budget_bytes` is only used by the memory-aware strategy; pass 0
    /// to default to the same footprint UniNet's M-H sampler would use
    /// (4 bytes per state), mirroring the paper's experimental setup.
    pub fn new<M: RandomWalkModel + ?Sized>(
        graph: &Graph,
        model: &M,
        kind: EdgeSamplerKind,
        memory_budget_bytes: usize,
    ) -> Self {
        let n = graph.num_nodes();
        let mut bucket_offsets = Vec::with_capacity(n + 1);
        bucket_offsets.push(0usize);
        for v in 0..n as NodeId {
            let prev = *bucket_offsets.last().expect("non-empty");
            bucket_offsets.push(prev + model.bucket_size(graph, v));
        }
        let num_states = *bucket_offsets.last().expect("non-empty");

        let backend = match kind {
            EdgeSamplerKind::MetropolisHastings(init) => Backend::MetropolisHastings {
                chains: (0..num_states).map(|_| AtomicMhChain::new()).collect(),
                init,
            },
            EdgeSamplerKind::Direct => Backend::Direct,
            EdgeSamplerKind::Alias => Backend::Alias {
                tables: build_state_tables(graph, model, &bucket_offsets, None),
            },
            EdgeSamplerKind::Rejection | EdgeSamplerKind::KnightKing => {
                let proposals = (0..n as NodeId)
                    .map(|v| build_proposal(graph.weights(v)))
                    .collect();
                Backend::Rejection {
                    proposals,
                    folding: kind == EdgeSamplerKind::KnightKing,
                }
            }
            EdgeSamplerKind::MemoryAware => {
                let budget = if memory_budget_bytes == 0 {
                    num_states * 4
                } else {
                    memory_budget_bytes
                };
                // Benefit estimate: every state over node v costs O(deg v) per
                // direct draw and is visited roughly proportionally to deg(v).
                let mut specs = Vec::with_capacity(num_states);
                for v in 0..n as NodeId {
                    let deg = graph.degree(v);
                    for _ in 0..model.bucket_size(graph, v) {
                        specs.push((deg, deg as f64));
                    }
                }
                let plan = MemoryAwarePlan::plan(&specs, budget);
                let tables = build_state_tables(graph, model, &bucket_offsets, Some(&plan));
                Backend::MemoryAware { plan, tables }
            }
        };

        SamplerManager {
            kind,
            bucket_offsets,
            backend,
        }
    }

    /// The strategy this manager was built for.
    pub fn kind(&self) -> EdgeSamplerKind {
        self.kind
    }

    /// Total number of walker states managed.
    pub fn num_states(&self) -> usize {
        *self.bucket_offsets.last().expect("non-empty")
    }

    /// The flat index of a walker state (bucket lookup of Figure 4).
    #[inline]
    pub fn state_index(&self, state: WalkerState) -> usize {
        let base = self.bucket_offsets[state.position as usize];
        let width = self.bucket_offsets[state.position as usize + 1] - base;
        // Defensive clamp: an affixture beyond the bucket (possible only for
        // malformed states) maps to the first slot instead of corrupting
        // a neighboring bucket.
        if width == 0 {
            base
        } else {
            base + (state.affixture as usize).min(width - 1)
        }
    }

    /// Prefetch hint for node `v`'s entry in the bucket index, which
    /// [`SamplerManager::prefetch_state`] and the next draw from `v` read.
    #[inline(always)]
    pub(crate) fn prefetch_bucket(&self, v: NodeId) {
        prefetch(&self.bucket_offsets, v as usize);
    }

    /// Prefetch hint for the sampler slot the next draw for `state` reads:
    /// its M-H chain or its alias table. The other backends keep no
    /// per-state slot, so for them this does nothing.
    #[inline(always)]
    pub(crate) fn prefetch_state(&self, state: WalkerState) {
        match &self.backend {
            Backend::MetropolisHastings { chains, .. } => {
                prefetch(chains, self.state_index(state));
            }
            Backend::Alias { tables } | Backend::MemoryAware { tables, .. } => {
                prefetch(tables, self.state_index(state));
            }
            Backend::Direct | Backend::Rejection { .. } => {}
        }
    }

    /// Approximate memory footprint of the sampler state in bytes.
    pub fn memory_bytes(&self) -> usize {
        let offsets = self.bucket_offsets.len() * std::mem::size_of::<usize>();
        offsets
            + match &self.backend {
                Backend::MetropolisHastings { chains, .. } => chains.len() * 4,
                Backend::Alias { tables } | Backend::MemoryAware { tables, .. } => tables
                    .iter()
                    .map(|t| t.as_ref().map(|t| t.memory_bytes()).unwrap_or(0))
                    .sum::<usize>(),
                Backend::Direct => 0,
                Backend::Rejection { proposals, .. } => proposals
                    .iter()
                    .map(|t| t.as_ref().map(|t| t.memory_bytes()).unwrap_or(0))
                    .sum::<usize>(),
            }
    }

    /// Draws the local index of the next edge for `state`, or `None` when the
    /// walker is stuck (no out-edges, or all dynamic weights are zero).
    pub fn sample<M: RandomWalkModel + ?Sized, R: Rng>(
        &self,
        graph: &Graph,
        model: &M,
        state: WalkerState,
        rng: &mut R,
    ) -> Option<usize> {
        let v = state.position;
        let deg = graph.degree(v);
        if deg == 0 {
            return None;
        }
        let weight = |k: usize| model.calculate_weight(graph, state, graph.edge_ref(v, k));

        match &self.backend {
            Backend::MetropolisHastings { chains, init } => {
                let idx = self.state_index(state);
                let (chosen, w) = chains[idx].step(deg, &weight, *init, rng);
                if w > 0.0 {
                    Some(chosen)
                } else {
                    // The chain has not reached the support of the target
                    // distribution yet (possible right after random init);
                    // fall back to an exact draw to keep the walk valid.
                    direct_sample_fn(deg, weight, rng)
                }
            }
            Backend::Direct => direct_sample_fn(deg, weight, rng),
            Backend::Alias { tables } => {
                let idx = self.state_index(state);
                tables[idx].as_ref().map(|t| t.sample(rng))
            }
            Backend::MemoryAware { plan, tables } => {
                let idx = self.state_index(state);
                match plan.kind(idx) {
                    StateSamplerKind::Alias => match tables[idx].as_ref() {
                        Some(t) => Some(t.sample(rng)),
                        None => direct_sample_fn(deg, weight, rng),
                    },
                    StateSamplerKind::Direct => direct_sample_fn(deg, weight, rng),
                }
            }
            Backend::Rejection { proposals, folding } => {
                let proposal = proposals[v as usize].as_ref()?;
                if *folding {
                    self.sample_with_folding(graph, model, state, proposal, &weight, rng)
                } else {
                    let bound = model.rejection_bound(graph, state);
                    for _ in 0..MAX_REJECTION_ATTEMPTS {
                        let candidate = proposal.sample(rng);
                        let ratio = weight(candidate) / (bound * graph.weight_at(v, candidate));
                        if rng.gen::<f32>() < ratio {
                            return Some(candidate);
                        }
                    }
                    direct_sample_fn(deg, weight, rng)
                }
            }
        }
    }

    /// The state-index range of node `v`'s bucket.
    #[inline]
    fn bucket_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.bucket_offsets[v as usize]..self.bucket_offsets[v as usize + 1]
    }

    /// The last accepted sample of the M-H chain at `state_index`, or `None`
    /// when the backend is not M-H or the chain is uninitialized.
    ///
    /// Introspection hook used by incremental-maintenance tests to verify
    /// that chain state survives weight updates.
    pub fn mh_chain_last(&self, state_index: usize) -> Option<u32> {
        match &self.backend {
            Backend::MetropolisHastings { chains, .. } => chains[state_index].last(),
            _ => None,
        }
    }

    /// Incrementally absorbs weight-only updates on the nodes in `touched`.
    ///
    /// The graph's topology (degrees, neighbor sets, bucket layout) must be
    /// unchanged; only edge weights may differ from construction time. The
    /// per-family cost is the experiment the paper's dynamic-workload argument
    /// rests on:
    ///
    /// * **Metropolis–Hastings** — nothing to do: the chains sample from
    ///   unnormalized weights read on demand, so a reweight costs O(1) (and
    ///   the existing chain state remains a valid sample of the old target,
    ///   converging to the new one in subsequent steps).
    /// * **Alias / memory-aware** — every materialized table over a touched
    ///   node encodes the old normalized distribution and must be rebuilt at
    ///   O(deg) per state.
    /// * **Rejection / KnightKing** — the per-node static proposal table must
    ///   be rebuilt at O(deg).
    /// * **Direct** — stateless, nothing to do.
    pub fn maintain_weights<M: RandomWalkModel + ?Sized>(
        &mut self,
        graph: &Graph,
        model: &M,
        touched: &[NodeId],
    ) -> MaintenanceStats {
        let mut stats = MaintenanceStats::default();
        for &v in touched {
            let range = self.bucket_range(v);
            let width = range.len();
            stats.states_examined += width;
            let deg = graph.degree(v);
            match &mut self.backend {
                Backend::MetropolisHastings { .. } => {
                    stats.chains_preserved += width;
                }
                Backend::Direct => {}
                Backend::Alias { tables } => {
                    for idx in range {
                        let affixture = idx - self.bucket_offsets[v as usize];
                        let table = build_one_table(graph, model, v, affixture, deg);
                        stats.states_rebuilt += 1;
                        stats.bytes_rebuilt +=
                            table.as_ref().map(|t| t.memory_bytes()).unwrap_or(0);
                        tables[idx] = table;
                    }
                }
                Backend::MemoryAware { plan, tables } => {
                    for idx in range {
                        if plan.kind(idx) != StateSamplerKind::Alias {
                            continue;
                        }
                        let affixture = idx - self.bucket_offsets[v as usize];
                        let table = build_one_table(graph, model, v, affixture, deg);
                        stats.states_rebuilt += 1;
                        stats.bytes_rebuilt +=
                            table.as_ref().map(|t| t.memory_bytes()).unwrap_or(0);
                        tables[idx] = table;
                    }
                }
                Backend::Rejection { proposals, .. } => {
                    let table = build_proposal(graph.weights(v));
                    stats.states_rebuilt += 1;
                    stats.bytes_rebuilt += table.as_ref().map(|t| t.memory_bytes()).unwrap_or(0);
                    proposals[v as usize] = table;
                }
            }
        }
        stats
    }

    /// Re-aligns the manager with `graph` after a topology change (edge
    /// inserts/deletes already compacted into the CSR).
    ///
    /// `touched` are the nodes whose own adjacency changed — their buckets
    /// may have resized, so every backend resets/rebuilds them. `stale` are
    /// nodes whose adjacency is unchanged but whose *materialized* dynamic
    /// distributions read a mutated node's adjacency (second-order models) —
    /// alias-family tables there are rebuilt, while M-H chains are carried
    /// over untouched (chains never materialize weights; a shifted target
    /// distribution is simply tracked by subsequent transitions).
    ///
    /// Every other node's sampler state is carried over when its bucket width
    /// is unchanged: M-H chains keep their last-accepted sample (4 bytes
    /// moved per state), alias tables and rejection proposals are reused
    /// as-is. The memory-aware hybrid re-plans from scratch because its
    /// state→table assignment is a global optimization.
    ///
    /// The node universe may have **grown** since construction (open-world
    /// streaming): nodes past the old universe get fresh buckets, built from
    /// scratch whether or not they appear in `touched`. It can never shrink —
    /// retired nodes keep their (empty-bucket) rows.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has fewer nodes than the graph the manager was
    /// built over (the id space never shrinks; retirement empties a row).
    pub fn maintain_topology<M: RandomWalkModel + ?Sized>(
        &mut self,
        graph: &Graph,
        model: &M,
        touched: &[NodeId],
        stale: &[NodeId],
    ) -> MaintenanceStats {
        let n = graph.num_nodes();
        let old_n = self.bucket_offsets.len() - 1;
        assert!(
            n >= old_n,
            "maintain_topology cannot shrink the node universe ({n} < {old_n})"
        );
        let mut is_touched = vec![false; n];
        for &v in touched {
            is_touched[v as usize] = true;
        }
        // Grown nodes have no prior sampler state: always (re)built.
        for t in is_touched.iter_mut().take(n).skip(old_n) {
            *t = true;
        }
        let mut is_stale = vec![false; n];
        for &v in stale {
            is_stale[v as usize] = true;
        }

        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0usize);
        for v in 0..n as NodeId {
            let prev = *new_offsets.last().expect("non-empty");
            new_offsets.push(prev + model.bucket_size(graph, v));
        }
        let num_states = *new_offsets.last().expect("non-empty");

        let mut stats = MaintenanceStats::default();
        for &v in touched.iter().chain(stale) {
            stats.states_examined += new_offsets[v as usize + 1] - new_offsets[v as usize];
        }

        match &mut self.backend {
            Backend::Direct => {}
            Backend::MetropolisHastings { chains, .. } => {
                let old = std::mem::take(chains);
                let mut rebuilt = Vec::with_capacity(num_states);
                for v in 0..n {
                    let old_range = if v < old_n {
                        self.bucket_offsets[v]..self.bucket_offsets[v + 1]
                    } else {
                        0..0
                    };
                    let new_width = new_offsets[v + 1] - new_offsets[v];
                    // `stale` nodes keep their chains: only structural bucket
                    // changes invalidate a chain's index.
                    if !is_touched[v] && old_range.len() == new_width {
                        for idx in old_range {
                            rebuilt.push(AtomicMhChain::from_state(old[idx].last()));
                        }
                        stats.chains_preserved += new_width;
                    } else {
                        rebuilt.extend((0..new_width).map(|_| AtomicMhChain::new()));
                        stats.chains_reset += new_width;
                    }
                }
                *chains = rebuilt;
            }
            Backend::Alias { tables } => {
                let mut old = std::mem::take(tables);
                let mut rebuilt: Vec<Option<AliasTable>> = Vec::with_capacity(num_states);
                for v in 0..n {
                    let old_range = if v < old_n {
                        self.bucket_offsets[v]..self.bucket_offsets[v + 1]
                    } else {
                        0..0
                    };
                    let new_width = new_offsets[v + 1] - new_offsets[v];
                    if !is_touched[v] && !is_stale[v] && old_range.len() == new_width {
                        for idx in old_range {
                            rebuilt.push(old[idx].take());
                        }
                    } else {
                        let deg = graph.degree(v as NodeId);
                        for affixture in 0..new_width {
                            let table = build_one_table(graph, model, v as NodeId, affixture, deg);
                            stats.states_rebuilt += 1;
                            stats.bytes_rebuilt +=
                                table.as_ref().map(|t| t.memory_bytes()).unwrap_or(0);
                            rebuilt.push(table);
                        }
                    }
                }
                *tables = rebuilt;
            }
            Backend::Rejection { proposals, .. } => {
                // Proposals materialize only the node's own static weights,
                // so `stale` nodes (unchanged adjacency) keep theirs. Grown
                // nodes get fresh (empty) slots and are rebuilt like touched.
                proposals.resize_with(n, || None);
                for (v, _) in is_touched.iter().enumerate().filter(|&(_, &t)| t) {
                    let table = build_proposal(graph.weights(v as NodeId));
                    stats.states_rebuilt += 1;
                    stats.bytes_rebuilt += table.as_ref().map(|t| t.memory_bytes()).unwrap_or(0);
                    proposals[v] = table;
                }
            }
            Backend::MemoryAware { plan, tables } => {
                // The hybrid's alias/direct assignment is a global knapsack
                // over all states; a topology change forces a re-plan.
                let budget = plan.budget_bytes();
                let mut specs = Vec::with_capacity(num_states);
                for v in 0..n as NodeId {
                    let deg = graph.degree(v);
                    for _ in 0..(new_offsets[v as usize + 1] - new_offsets[v as usize]) {
                        specs.push((deg, deg as f64));
                    }
                }
                let new_plan = MemoryAwarePlan::plan(&specs, budget);
                let rebuilt = build_state_tables(graph, model, &new_offsets, Some(&new_plan));
                stats.states_rebuilt += rebuilt.iter().filter(|t| t.is_some()).count();
                stats.bytes_rebuilt += rebuilt
                    .iter()
                    .map(|t| t.as_ref().map(|t| t.memory_bytes()).unwrap_or(0))
                    .sum::<usize>();
                *plan = new_plan;
                *tables = rebuilt;
            }
        }
        self.bucket_offsets = new_offsets;
        stats
    }

    /// KnightKing-style sampling: outliers folded out of the rejection area.
    fn sample_with_folding<M: RandomWalkModel + ?Sized, R: Rng, F: Fn(usize) -> f32>(
        &self,
        graph: &Graph,
        model: &M,
        state: WalkerState,
        proposal: &AliasTable,
        weight: &F,
        rng: &mut R,
    ) -> Option<usize> {
        let v = state.position;
        let deg = graph.degree(v);
        let bound = model.outlier_folding_bound(graph, state);
        let outliers = model.outliers(graph, state);

        let static_total: f64 = graph.weights(v).iter().map(|&w| w as f64).sum();
        let regular_mass = bound as f64 * static_total;
        let mut outlier_excess: Vec<f64> = Vec::with_capacity(outliers.len());
        let mut outlier_mass = 0.0f64;
        for &o in &outliers {
            let excess = (weight(o as usize) as f64
                - bound as f64 * graph.weight_at(v, o as usize) as f64)
                .max(0.0);
            outlier_excess.push(excess);
            outlier_mass += excess;
        }
        // The area is re-drawn on every attempt so that a rejection in the
        // regular area restarts the whole two-area procedure (see
        // `OutlierFoldingSampler::sample` for the correctness argument).
        for _ in 0..MAX_REJECTION_ATTEMPTS {
            if outlier_mass > 0.0 && rng.gen_range(0.0..regular_mass + outlier_mass) >= regular_mass
            {
                let mut target = rng.gen_range(0.0..outlier_mass);
                for (i, &excess) in outlier_excess.iter().enumerate() {
                    if target < excess {
                        return Some(outliers[i] as usize);
                    }
                    target -= excess;
                }
                return Some(outliers[outliers.len() - 1] as usize);
            }
            let candidate = proposal.sample(rng);
            let cap = bound * graph.weight_at(v, candidate);
            let w = weight(candidate).min(cap);
            if rng.gen::<f32>() * cap < w {
                return Some(candidate);
            }
        }
        direct_sample_fn(deg, weight, rng)
    }
}

/// Materializes the alias table of one walker state's dynamic weights
/// (`None` for isolated nodes and all-zero distributions).
fn build_one_table<M: RandomWalkModel + ?Sized>(
    graph: &Graph,
    model: &M,
    v: NodeId,
    affixture: usize,
    deg: usize,
) -> Option<AliasTable> {
    if deg == 0 {
        return None;
    }
    let state = WalkerState::new(v, affixture as u32);
    let weights: Vec<f32> = (0..deg)
        .map(|k| {
            model
                .calculate_weight(graph, state, graph.edge_ref(v, k))
                .max(0.0)
        })
        .collect();
    if weights.iter().all(|&w| w <= 0.0) {
        None
    } else {
        Some(AliasTable::new(&weights))
    }
}

/// Materializes the static-weight proposal table of one node for the
/// rejection-family samplers (`None` for isolated nodes / all-zero weights).
fn build_proposal(weights: &[f32]) -> Option<AliasTable> {
    if weights.is_empty() || weights.iter().all(|&w| w <= 0.0) {
        None
    } else {
        Some(AliasTable::new(weights))
    }
}

/// Materializes per-state alias tables of the dynamic weights. When `plan` is
/// given, only states assigned [`StateSamplerKind::Alias`] get a table.
fn build_state_tables<M: RandomWalkModel + ?Sized>(
    graph: &Graph,
    model: &M,
    bucket_offsets: &[usize],
    plan: Option<&MemoryAwarePlan>,
) -> Vec<Option<AliasTable>> {
    let num_states = *bucket_offsets.last().expect("non-empty");
    let mut tables: Vec<Option<AliasTable>> = Vec::with_capacity(num_states);
    for v in 0..(bucket_offsets.len() - 1) as NodeId {
        let deg = graph.degree(v);
        let bucket = bucket_offsets[v as usize + 1] - bucket_offsets[v as usize];
        for affixture in 0..bucket {
            let idx = bucket_offsets[v as usize] + affixture;
            if plan.is_some_and(|p| p.kind(idx) != StateSamplerKind::Alias) {
                tables.push(None);
            } else {
                tables.push(build_one_table(graph, model, v, affixture, deg));
            }
        }
    }
    tables
}

/// Estimated bytes a full alias materialization would need for `model` over
/// `graph` — the quantity that causes the out-of-memory failures in Table VII.
pub fn alias_memory_estimate<M: RandomWalkModel + ?Sized>(graph: &Graph, model: &M) -> usize {
    (0..graph.num_nodes() as NodeId)
        .map(|v| model.bucket_size(graph, v) * alias_table_bytes(graph.degree(v)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{DeepWalk, MetaPath2Vec, Node2Vec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use uninet_graph::{EdgeRef, GraphBuilder, Metapath};

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for &(u, v, w) in &[
            (0u32, 1u32, 1.0f32),
            (0, 2, 2.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
        ] {
            b.add_edge(u, v, w);
        }
        b.symmetric(true).build()
    }

    fn all_kinds() -> Vec<EdgeSamplerKind> {
        vec![
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact()),
            EdgeSamplerKind::MetropolisHastings(InitStrategy::BurnIn { iterations: 20 }),
            EdgeSamplerKind::Alias,
            EdgeSamplerKind::Direct,
            EdgeSamplerKind::Rejection,
            EdgeSamplerKind::KnightKing,
            EdgeSamplerKind::MemoryAware,
        ]
    }

    #[test]
    fn state_count_matches_model() {
        let g = small_graph();
        let dw = SamplerManager::new(&g, &DeepWalk::new(), EdgeSamplerKind::Direct, 0);
        assert_eq!(dw.num_states(), g.num_nodes());
        let n2v = Node2Vec::new(1.0, 1.0);
        let m = SamplerManager::new(&g, &n2v, EdgeSamplerKind::Direct, 0);
        assert_eq!(m.num_states(), g.num_edges());
    }

    #[test]
    fn state_index_is_within_bounds_and_unique_per_bucket() {
        let g = small_graph();
        let n2v = Node2Vec::new(1.0, 1.0);
        let m = SamplerManager::new(&g, &n2v, EdgeSamplerKind::Direct, 0);
        let mut seen = std::collections::HashSet::new();
        for v in 0..g.num_nodes() as NodeId {
            for a in 0..g.degree(v) as u32 {
                let idx = m.state_index(WalkerState::new(v, a));
                assert!(idx < m.num_states());
                assert!(seen.insert(idx), "duplicate index {idx}");
            }
        }
    }

    #[test]
    fn every_sampler_kind_produces_valid_edges() {
        let g = small_graph();
        let model = Node2Vec::new(0.5, 2.0);
        for kind in all_kinds() {
            let manager = SamplerManager::new(&g, &model, kind, 0);
            let mut rng = SmallRng::seed_from_u64(7);
            for v in 0..g.num_nodes() as NodeId {
                let state = model.initial_state(&g, v);
                for _ in 0..50 {
                    let k = manager
                        .sample(&g, &model, state, &mut rng)
                        .unwrap_or_else(|| panic!("{kind:?} failed to sample"));
                    assert!(k < g.degree(v), "{kind:?} returned invalid index");
                }
            }
        }
    }

    #[test]
    fn deepwalk_samplers_respect_weights() {
        // Node 0 has neighbors 1 (w=1), 2 (w=2), 3 (w=1): expect ~25%/50%/25%.
        let g = small_graph();
        let model = DeepWalk::new();
        for kind in all_kinds() {
            let manager = SamplerManager::new(&g, &model, kind, 0);
            let mut rng = SmallRng::seed_from_u64(11);
            let state = model.initial_state(&g, 0);
            let deg = g.degree(0);
            let mut counts = vec![0usize; deg];
            let draws = 60_000;
            for _ in 0..draws {
                counts[manager.sample(&g, &model, state, &mut rng).unwrap()] += 1;
            }
            let total_w: f32 = g.weights(0).iter().sum();
            for (k, &count) in counts.iter().enumerate() {
                let expected = (g.weight_at(0, k) / total_w) as f64;
                let freq = count as f64 / draws as f64;
                assert!(
                    (freq - expected).abs() < 0.03,
                    "{kind:?}: neighbor {k} freq {freq} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn metapath_sampling_respects_type_constraint() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0u32, 2u32), (0, 3), (1, 2), (2, 4), (3, 4), (0, 1)] {
            b.add_edge(u, v, 1.0);
        }
        b.set_node_types(vec![0, 0, 1, 1, 2]);
        let g = b.symmetric(true).build();
        let model = MetaPath2Vec::new(Metapath::new(vec![0, 1, 0]));
        for kind in [
            EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact()),
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            EdgeSamplerKind::Alias,
            EdgeSamplerKind::Direct,
        ] {
            let manager = SamplerManager::new(&g, &model, kind, 0);
            let mut rng = SmallRng::seed_from_u64(13);
            let state = model.initial_state(&g, 0);
            for _ in 0..300 {
                let k = manager.sample(&g, &model, state, &mut rng).unwrap();
                let dst = g.neighbor_at(0, k);
                assert_eq!(g.node_type(dst), 1, "{kind:?} violated the metapath");
            }
        }
    }

    #[test]
    fn mh_memory_is_much_smaller_than_alias() {
        let g = uninet_graph::generators::rmat(&uninet_graph::generators::RmatConfig {
            num_nodes: 500,
            num_edges: 5000,
            weighted: true,
            ..Default::default()
        });
        let model = Node2Vec::new(0.25, 4.0);
        let mh = SamplerManager::new(
            &g,
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let alias = SamplerManager::new(&g, &model, EdgeSamplerKind::Alias, 0);
        assert!(alias.memory_bytes() > 3 * mh.memory_bytes());
        assert!(alias_memory_estimate(&g, &model) >= alias.memory_bytes() / 2);
    }

    #[test]
    fn memory_aware_respects_budget() {
        let g = small_graph();
        let model = Node2Vec::new(1.0, 1.0);
        let budget = 200usize;
        let manager = SamplerManager::new(&g, &model, EdgeSamplerKind::MemoryAware, budget);
        // The materialized tables can use at most the budget (plus the offsets array).
        let offsets = (g.num_nodes() + 1) * std::mem::size_of::<usize>();
        assert!(manager.memory_bytes() - offsets <= budget);
    }

    #[test]
    fn maintain_topology_accepts_grown_universe() {
        // 4-node square grows to 5 nodes with edges 4-0 (and a retired-style
        // empty row never exists here; degree-0 growth is covered below).
        let old = small_graph();
        let mut b = GraphBuilder::new();
        for &(u, v, w) in &[
            (0u32, 1u32, 1.0f32),
            (0, 2, 2.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (4, 0, 1.5),
        ] {
            b.add_edge(u, v, w);
        }
        let grown = b.symmetric(true).build();
        let model = Node2Vec::new(0.5, 2.0);
        for kind in all_kinds() {
            let mut m = SamplerManager::new(&old, &model, kind, 0);
            // Node 4 arrived with an edge to 0: 0 is touched, 4 is implicit.
            m.maintain_topology(&grown, &model, &[0], &[]);
            assert_eq!(m.num_states(), grown.num_edges(), "{kind:?} state count");
            let mut rng = SmallRng::seed_from_u64(21);
            for v in [0u32, 4] {
                let state = model.initial_state(&grown, v);
                for _ in 0..30 {
                    let k = m
                        .sample(&grown, &model, state, &mut rng)
                        .unwrap_or_else(|| panic!("{kind:?} stuck at {v}"));
                    assert!(k < grown.degree(v));
                }
            }
        }

        // Degree-0 growth (arrival with no edges yet) must also be accepted.
        let mut b = GraphBuilder::new();
        for &(u, v, w) in &[
            (0u32, 1u32, 1.0f32),
            (0, 2, 2.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
        ] {
            b.add_edge(u, v, w);
        }
        b.set_num_nodes(6);
        let grown_empty = b.symmetric(true).build();
        for kind in all_kinds() {
            let mut m = SamplerManager::new(&old, &model, kind, 0);
            m.maintain_topology(&grown_empty, &model, &[], &[]);
            let mut rng = SmallRng::seed_from_u64(3);
            assert_eq!(
                m.sample(&grown_empty, &model, WalkerState::at(5), &mut rng),
                None
            );
        }
    }

    /// A model that counts its `calculate_weight` calls.
    struct CountingWeights<M> {
        inner: M,
        calls: AtomicUsize,
    }

    impl<M: RandomWalkModel> RandomWalkModel for CountingWeights<M> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn calculate_weight(&self, graph: &Graph, state: WalkerState, next: EdgeRef) -> f32 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.calculate_weight(graph, state, next)
        }
        fn update_state(&self, graph: &Graph, state: WalkerState, next: EdgeRef) -> WalkerState {
            self.inner.update_state(graph, state, next)
        }
        fn bucket_size(&self, graph: &Graph, v: NodeId) -> usize {
            self.inner.bucket_size(graph, v)
        }
    }

    #[test]
    fn mh_step_evaluates_the_dynamic_weight_twice() {
        let g = small_graph();
        for init in [InitStrategy::Random, InitStrategy::high_weight_exact()] {
            let model = CountingWeights {
                inner: Node2Vec::new(0.5, 2.0),
                calls: Default::default(),
            };
            let manager =
                SamplerManager::new(&g, &model, EdgeSamplerKind::MetropolisHastings(init), 0);
            let mut rng = SmallRng::seed_from_u64(5);
            let state = WalkerState::new(0, 1);
            // The first draw initializes the chain; count only later steps.
            manager.sample(&g, &model, state, &mut rng).unwrap();
            model.calls.store(0, Ordering::Relaxed);
            let steps = 1_000;
            for _ in 0..steps {
                manager.sample(&g, &model, state, &mut rng).unwrap();
            }
            let calls = model.calls.load(Ordering::Relaxed);
            assert_eq!(calls, 2 * steps, "{init:?}");
        }
    }

    #[test]
    fn isolated_node_returns_none() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.set_num_nodes(3);
        let g = b.symmetric(true).build();
        let model = DeepWalk::new();
        let manager = SamplerManager::new(
            &g,
            &model,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            0,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            manager.sample(&g, &model, WalkerState::at(2), &mut rng),
            None
        );
    }
}
