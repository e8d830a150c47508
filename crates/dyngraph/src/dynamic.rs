//! [`DynamicGraph`]: an immutable CSR base plus a per-vertex delta-adjacency
//! overlay, with periodic compaction back into CSR form.
//!
//! Design:
//!
//! * **Weight updates are O(1) and immediate.** Reweighting never moves CSR
//!   entries, so the new weight is written straight into the base arrays.
//!   This is the workload where the paper's M-H sampler shines: no sampler
//!   state needs rebuilding at all.
//! * **Topology updates accumulate in the overlay.** Inserts/deletes are
//!   logged per vertex; queries merge the overlay with the base on the fly.
//!   Once the overlay grows past a threshold (policy owned by the
//!   [`crate::IncrementalMaintainer`]) the graph is compacted: a fresh CSR is
//!   built in O(|V| + |E|) and the overlay is cleared.
//! * **The node universe is open.** [`GraphMutation::AddNode`] grows the id
//!   space (new rows start empty and *live*), [`GraphMutation::RemoveNode`]
//!   drops all incident edges and marks the id *retired*. Edge mutations
//!   referencing out-of-range, retired or never-declared ids are rejected and
//!   counted, mirroring a production ingest pipeline that quarantines
//!   malformed events instead of crashing. Retired ids are never recycled for
//!   a different identity — a retired id may only *rejoin* as the same node
//!   (via a fresh `AddNode`), so published embedding snapshots can keep
//!   serving their frozen universe without ids changing meaning under them.

use std::collections::{BTreeMap, BTreeSet};

use uninet_graph::{Graph, NodeId};

use crate::mutation::GraphMutation;

/// Outcome classification of one applied mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationEffect {
    /// Only an edge weight changed (no sampler-topology impact).
    Reweighted,
    /// The neighbor set of at least one endpoint changed.
    TopologyChanged,
    /// A node arrived: the id is now live (the id space may have grown).
    NodeArrived,
    /// A node retired: its incident edges were dropped and the id is dead.
    NodeRetired,
    /// The mutation was a no-op (e.g. removing an absent edge) or referenced
    /// an out-of-range, retired or undeclared node; it was counted and
    /// skipped.
    Rejected,
}

/// Per-vertex delta log: edges inserted on top of the base CSR and base edges
/// marked deleted. Both are keyed by destination for O(log d) lookups.
#[derive(Debug, Clone, Default)]
struct VertexDelta {
    /// Edges present in the overlay but not the base (dst -> weight).
    inserts: BTreeMap<NodeId, f32>,
    /// Base edges masked out by deletions.
    deletes: BTreeSet<NodeId>,
}

impl VertexDelta {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Mirrors a mutation onto the reverse edge.
fn mirror_of(m: GraphMutation) -> GraphMutation {
    match m {
        GraphMutation::AddEdge { src, dst, weight } => GraphMutation::AddEdge {
            src: dst,
            dst: src,
            weight,
        },
        GraphMutation::RemoveEdge { src, dst } => GraphMutation::RemoveEdge { src: dst, dst: src },
        GraphMutation::UpdateWeight { src, dst, weight } => GraphMutation::UpdateWeight {
            src: dst,
            dst: src,
            weight,
        },
        GraphMutation::AddNode { .. } | GraphMutation::RemoveNode { .. } => {
            unreachable!("node ops have no mirror")
        }
    }
}

/// An updatable graph: immutable CSR base + delta overlay.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    base: Graph,
    /// One delta log per vertex (indexed by node id). Empty deltas allocate
    /// nothing.
    overlay: Vec<VertexDelta>,
    /// Mirror every mutation (`(u,v)` also applies to `(v,u)`), matching
    /// graphs built with `GraphBuilder::symmetric(true)`.
    symmetric: bool,
    /// Liveness per id (same length as `overlay`). Ids start live; `AddNode`
    /// past the current capacity grows both vectors, leaving skipped ids
    /// *vacant* (`false`, never declared); `RemoveNode` retires an id in
    /// place. Rows of the base CSR past `base.num_nodes()` don't exist yet —
    /// they materialize (empty) at the next compaction.
    live: Vec<bool>,
    /// Monotone counter bumped by every effective mutation.
    version: u64,
    /// Mutations rejected since construction.
    rejected: u64,
    /// Nodes whose adjacency changed since the last compaction.
    touched_since_compaction: BTreeSet<NodeId>,
    /// Running count of pending overlay inserts (O(1) `pending()`).
    pending_inserts: usize,
    /// Running count of pending overlay deletes.
    pending_deletes: usize,
}

impl DynamicGraph {
    /// Wraps a CSR graph. `symmetric` mirrors each mutation onto the reverse
    /// edge, matching how undirected graphs are stored in this workspace.
    pub fn new(base: Graph, symmetric: bool) -> Self {
        let n = base.num_nodes();
        Self::with_universe(base, symmetric, vec![true; n])
    }

    /// Wraps a CSR graph with an explicit liveness mask (crash recovery /
    /// snapshot restore). `live.len()` must be at least `base.num_nodes()`;
    /// a longer mask declares capacity past the base CSR (arrived nodes not
    /// yet compacted into a CSR row).
    pub fn with_universe(base: Graph, symmetric: bool, live: Vec<bool>) -> Self {
        assert!(
            live.len() >= base.num_nodes(),
            "live mask shorter than the base CSR ({} < {})",
            live.len(),
            base.num_nodes()
        );
        let capacity = live.len();
        DynamicGraph {
            base,
            overlay: vec![VertexDelta::default(); capacity],
            symmetric,
            live,
            version: 0,
            rejected: 0,
            touched_since_compaction: BTreeSet::new(),
            pending_inserts: 0,
            pending_deletes: 0,
        }
    }

    /// The CSR substrate samplers and walkers run over.
    ///
    /// Weight updates are already visible here; topology updates become
    /// visible after [`DynamicGraph::compact`]. The overlay-merged truth is
    /// available through the query methods below.
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Capacity of the id space (live + retired + vacant ids). Grows when an
    /// `AddNode` declares an id past the current end; never shrinks.
    pub fn num_nodes(&self) -> usize {
        self.overlay.len()
    }

    /// Whether id `v` is currently live (in range, declared, not retired).
    pub fn is_live(&self, v: NodeId) -> bool {
        self.live.get(v as usize).copied().unwrap_or(false)
    }

    /// The liveness mask over the full id space (`num_nodes()` entries).
    pub fn live_mask(&self) -> &[bool] {
        &self.live
    }

    /// Number of live ids.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Extends the id space to at least `capacity` ids; new ids are vacant.
    fn grow_to(&mut self, capacity: usize) {
        if capacity > self.overlay.len() {
            self.overlay.resize_with(capacity, VertexDelta::default);
            self.live.resize(capacity, false);
        }
    }

    /// Monotone version counter (one tick per effective mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of rejected mutations so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Nodes whose adjacency changed since the last compaction.
    pub fn touched_since_compaction(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.touched_since_compaction.iter().copied()
    }

    /// Total pending overlay entries (inserts + deletes). O(1).
    pub fn pending(&self) -> usize {
        self.pending_inserts + self.pending_deletes
    }

    /// The base CSR adjacency of `v`, empty for rows past the base (arrived
    /// nodes not yet compacted).
    fn base_row(&self, v: NodeId) -> (&[NodeId], &[f32]) {
        if (v as usize) < self.base.num_nodes() {
            (self.base.neighbors(v), self.base.weights(v))
        } else {
            (&[], &[])
        }
    }

    /// Merged out-degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        let base = if (v as usize) < self.base.num_nodes() {
            self.base.degree(v)
        } else {
            0
        };
        let d = &self.overlay[v as usize];
        base - d.deletes.len() + d.inserts.len()
    }

    /// Merged, sorted neighbor list of `v`.
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        self.neighbor_weights(v)
            .into_iter()
            .map(|(dst, _)| dst)
            .collect()
    }

    /// Merged, sorted `(neighbor, weight)` list of `v`.
    pub fn neighbor_weights(&self, v: NodeId) -> Vec<(NodeId, f32)> {
        let (base_n, base_w) = self.base_row(v);
        let d = &self.overlay[v as usize];
        if d.is_empty() {
            return base_n.iter().copied().zip(base_w.iter().copied()).collect();
        }
        let mut out = Vec::with_capacity(base_n.len() + d.inserts.len());
        let mut ins = d.inserts.iter().peekable();
        for (&dst, &w) in base_n.iter().zip(base_w.iter()) {
            while let Some((&idst, &iw)) = ins.peek() {
                if idst < dst {
                    out.push((idst, iw));
                    ins.next();
                } else {
                    break;
                }
            }
            if !d.deletes.contains(&dst) {
                out.push((dst, w));
            }
        }
        for (&idst, &iw) in ins {
            out.push((idst, iw));
        }
        out
    }

    /// Merged edge-existence test.
    pub fn has_edge(&self, u: NodeId, dst: NodeId) -> bool {
        self.weight(u, dst).is_some()
    }

    /// Merged weight of edge `(u, dst)`, if present.
    pub fn weight(&self, u: NodeId, dst: NodeId) -> Option<f32> {
        let d = &self.overlay[u as usize];
        if let Some(&w) = d.inserts.get(&dst) {
            return Some(w);
        }
        if d.deletes.contains(&dst) || (u as usize) >= self.base.num_nodes() {
            return None;
        }
        self.base
            .find_neighbor(u, dst)
            .map(|k| self.base.weight_at(u, k))
    }

    /// Applies one mutation (and its mirror when symmetric), classifying the
    /// effect. Weight changes hit the base CSR in place; topology changes go
    /// to the overlay.
    ///
    /// The returned effect is the *strongest* of the two directions
    /// (`TopologyChanged` > `Reweighted` > `Rejected`): on an asymmetric base
    /// the forward direction may insert while the mirror merely reweights,
    /// and maintenance must see both. Use [`DynamicGraph::apply_with_effects`]
    /// for the per-direction breakdown.
    pub fn apply(&mut self, m: GraphMutation) -> MutationEffect {
        let (forward, mirror) = self.apply_with_effects(m);
        match (forward, mirror) {
            (MutationEffect::NodeArrived, _) => MutationEffect::NodeArrived,
            (MutationEffect::NodeRetired, _) => MutationEffect::NodeRetired,
            (MutationEffect::TopologyChanged, _) | (_, MutationEffect::TopologyChanged) => {
                MutationEffect::TopologyChanged
            }
            (MutationEffect::Reweighted, _) | (_, MutationEffect::Reweighted) => {
                MutationEffect::Reweighted
            }
            _ => MutationEffect::Rejected,
        }
    }

    /// Applies one mutation, returning the `(forward, mirror)` effects.
    ///
    /// `mirror` is `Rejected` when the graph is directed, the mutation is a
    /// node op (node ops have no mirror), or the forward application was
    /// rejected.
    pub fn apply_with_effects(&mut self, m: GraphMutation) -> (MutationEffect, MutationEffect) {
        match m {
            GraphMutation::AddNode { node } => {
                let effect = self.apply_add_node(node);
                return (effect, MutationEffect::Rejected);
            }
            GraphMutation::RemoveNode { node } => {
                let effect = self.apply_remove_node(node);
                return (effect, MutationEffect::Rejected);
            }
            _ => {}
        }
        let (src, dst) = m.endpoints();
        let n = self.num_nodes() as NodeId;
        if src >= n
            || dst >= n
            || src == dst
            || !self.live[src as usize]
            || !self.live[dst as usize]
        {
            self.rejected += 1;
            return (MutationEffect::Rejected, MutationEffect::Rejected);
        }
        let forward = self.apply_directed(m);
        let mut mirror = MutationEffect::Rejected;
        if self.symmetric && forward != MutationEffect::Rejected {
            mirror = self.apply_directed(mirror_of(m));
        }
        if forward != MutationEffect::Rejected {
            self.version += 1;
        } else {
            self.rejected += 1;
        }
        (forward, mirror)
    }

    /// Declares id `node` live, growing the id space when needed. A retired
    /// id rejoins with an empty adjacency; a live id is a duplicate arrival
    /// and is rejected.
    fn apply_add_node(&mut self, node: NodeId) -> MutationEffect {
        let idx = node as usize;
        if self.live.get(idx).copied().unwrap_or(false) {
            self.rejected += 1;
            return MutationEffect::Rejected;
        }
        self.grow_to(idx + 1);
        self.live[idx] = true;
        self.touched_since_compaction.insert(node);
        self.version += 1;
        MutationEffect::NodeArrived
    }

    /// Retires id `node`: drops every incident edge (both directions) and
    /// marks the id dead. Rejected when the id is not currently live.
    fn apply_remove_node(&mut self, node: NodeId) -> MutationEffect {
        let idx = node as usize;
        if !self.live.get(idx).copied().unwrap_or(false) {
            self.rejected += 1;
            return MutationEffect::Rejected;
        }
        // Out-edges, plus their reverse rows when present. On symmetric
        // graphs this covers every incident edge (in-edge implies out-edge).
        let out: Vec<NodeId> = self.neighbors(node);
        for dst in out {
            self.apply_directed(GraphMutation::RemoveEdge { src: node, dst });
            self.apply_directed(GraphMutation::RemoveEdge {
                src: dst,
                dst: node,
            });
        }
        if !self.symmetric {
            // Directed graphs can hold in-edges with no reverse: scan rows.
            for u in 0..self.num_nodes() as NodeId {
                if u != node && self.weight(u, node).is_some() {
                    self.apply_directed(GraphMutation::RemoveEdge { src: u, dst: node });
                }
            }
        }
        self.live[idx] = false;
        self.touched_since_compaction.insert(node);
        self.version += 1;
        MutationEffect::NodeRetired
    }

    /// Applies one directed mutation to the row of its source: the overlay
    /// delta of `src` plus in-place writes into the base CSR row of `src`.
    /// This is the single source of truth for edge-mutation semantics.
    fn apply_directed(&mut self, m: GraphMutation) -> MutationEffect {
        let (src, dst) = m.endpoints();
        // Rows past the base CSR (arrived nodes not yet compacted) have an
        // empty base adjacency, hence the range guard.
        let slot = if (src as usize) < self.base.num_nodes() {
            self.base.find_neighbor(src, dst)
        } else {
            None
        };
        let delta = &mut self.overlay[src as usize];
        let deleted = delta.deletes.contains(&dst);
        let exists = delta.inserts.contains_key(&dst) || (!deleted && slot.is_some());
        match m {
            // Adding an existing edge is an upsert: it reweights it.
            GraphMutation::UpdateWeight { weight, .. } | GraphMutation::AddEdge { weight, .. }
                if exists =>
            {
                // An overlay insert shadows the base edge.
                match (delta.inserts.get_mut(&dst), slot) {
                    (Some(w), _) => *w = weight,
                    (None, Some(k)) => self.base.set_weight_at(src, k, weight),
                    (None, None) => unreachable!("an existing edge is in the overlay or the base"),
                }
                MutationEffect::Reweighted
            }
            GraphMutation::UpdateWeight { .. } => MutationEffect::Rejected,
            GraphMutation::AddEdge { weight, .. } => {
                if deleted {
                    // Un-delete: the base edge resurfaces with the new weight.
                    delta.deletes.remove(&dst);
                    if let Some(k) = slot {
                        self.base.set_weight_at(src, k, weight);
                    }
                    self.pending_deletes -= 1;
                } else {
                    delta.inserts.insert(dst, weight);
                    self.pending_inserts += 1;
                }
                self.touched_since_compaction.insert(src);
                MutationEffect::TopologyChanged
            }
            GraphMutation::RemoveEdge { .. } => {
                if delta.inserts.remove(&dst).is_some() {
                    self.pending_inserts -= 1;
                } else if exists {
                    delta.deletes.insert(dst);
                    self.pending_deletes += 1;
                } else {
                    return MutationEffect::Rejected;
                }
                self.touched_since_compaction.insert(src);
                MutationEffect::TopologyChanged
            }
            GraphMutation::AddNode { .. } | GraphMutation::RemoveNode { .. } => {
                unreachable!("node ops are handled before row application")
            }
        }
    }

    /// Rebuilds the base CSR from the merged view, clearing the overlay.
    ///
    /// O(|V| + |E|). Node types, edge types and the type registry are
    /// preserved; edges inserted through the overlay get edge type 0 in
    /// edge-typed graphs. Returns the set of nodes whose adjacency changed
    /// since the previous compaction (the sampler-maintenance work list).
    pub fn compact(&mut self) -> Vec<NodeId> {
        let touched: Vec<NodeId> = self.touched_since_compaction.iter().copied().collect();
        // The early-out also requires an un-grown id space: arrived nodes
        // must materialize their (empty) CSR rows even with no pending edges.
        if self.pending() == 0 && self.num_nodes() == self.base.num_nodes() {
            self.touched_since_compaction.clear();
            return touched;
        }
        let n = self.num_nodes();
        let base_rows = self.base.num_nodes();
        let has_edge_types = !self.base.edge_types().is_empty();

        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(self.base.num_edges());
        let mut weights = Vec::with_capacity(self.base.num_edges());
        let mut edge_types: Vec<u16> = Vec::new();
        offsets.push(0usize);
        for v in 0..n as NodeId {
            let d = &self.overlay[v as usize];
            if (v as usize) >= base_rows {
                // Grown row: no base adjacency, only overlay inserts.
                for (&idst, &iw) in &d.inserts {
                    neighbors.push(idst);
                    weights.push(iw);
                    if has_edge_types {
                        edge_types.push(0);
                    }
                }
            } else if !d.is_empty() {
                let base_n = self.base.neighbors(v);
                let mut ins = d.inserts.iter().peekable();
                for (k, &dst) in base_n.iter().enumerate() {
                    while let Some((&idst, &iw)) = ins.peek() {
                        if idst < dst {
                            neighbors.push(idst);
                            weights.push(iw);
                            if has_edge_types {
                                edge_types.push(0);
                            }
                            ins.next();
                        } else {
                            break;
                        }
                    }
                    if !d.deletes.contains(&dst) {
                        neighbors.push(dst);
                        weights.push(self.base.weight_at(v, k));
                        if has_edge_types {
                            edge_types.push(self.base.edge_type_at(v, k));
                        }
                    }
                }
                for (&idst, &iw) in ins {
                    neighbors.push(idst);
                    weights.push(iw);
                    if has_edge_types {
                        edge_types.push(0);
                    }
                }
            } else {
                // Fast path: copy the untouched adjacency verbatim.
                neighbors.extend_from_slice(self.base.neighbors(v));
                weights.extend_from_slice(self.base.weights(v));
                if has_edge_types {
                    edge_types.extend_from_slice(self.base.edge_types_of(v));
                }
            }
            offsets.push(neighbors.len());
        }

        // Typed graphs give grown nodes the default type 0.
        let mut node_types = self.base.node_types().to_vec();
        if !node_types.is_empty() {
            node_types.resize(n, 0);
        }
        self.base = Graph::from_csr_parts(
            offsets,
            neighbors,
            weights,
            node_types,
            edge_types,
            self.base.num_node_types(),
            self.base.num_edge_types(),
            self.base.type_registry().clone(),
        );
        for d in &mut self.overlay {
            if !d.is_empty() {
                d.inserts.clear();
                d.deletes.clear();
            }
        }
        self.pending_inserts = 0;
        self.pending_deletes = 0;
        self.touched_since_compaction.clear();
        touched
    }

    /// Builds a fresh CSR of the merged view without mutating the overlay
    /// (used by equivalence tests).
    pub fn materialize(&self) -> Graph {
        let mut copy = self.clone();
        copy.compact();
        copy.base
    }

    /// Consumes the dynamic graph, folding any pending overlay into the CSR,
    /// and returns the merged base — the zero-copy teardown counterpart of
    /// [`DynamicGraph::materialize`].
    pub fn into_base(mut self) -> Graph {
        self.compact();
        self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_graph::GraphBuilder;

    fn square() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 0, 1.0);
        b.symmetric(true).build()
    }

    #[test]
    fn weight_update_is_in_place_and_symmetric() {
        let mut dg = DynamicGraph::new(square(), true);
        assert_eq!(
            dg.apply(GraphMutation::UpdateWeight {
                src: 0,
                dst: 1,
                weight: 5.0
            }),
            MutationEffect::Reweighted
        );
        assert_eq!(dg.weight(0, 1), Some(5.0));
        assert_eq!(dg.weight(1, 0), Some(5.0));
        // In place: visible on the CSR base without compaction.
        let k = dg.base().find_neighbor(0, 1).unwrap();
        assert_eq!(dg.base().weight_at(0, k), 5.0);
        assert_eq!(dg.pending(), 0);
    }

    #[test]
    fn insert_shows_in_merged_view_before_compaction() {
        let mut dg = DynamicGraph::new(square(), true);
        assert_eq!(
            dg.apply(GraphMutation::AddEdge {
                src: 0,
                dst: 2,
                weight: 2.0
            }),
            MutationEffect::TopologyChanged
        );
        assert_eq!(dg.degree(0), 3);
        assert!(dg.has_edge(0, 2));
        assert!(dg.has_edge(2, 0));
        assert_eq!(dg.neighbors(0), vec![1, 2, 3]);
        // Base CSR is stale until compaction.
        assert!(!dg.base().has_edge(0, 2));
        let touched = dg.compact();
        assert_eq!(touched, vec![0, 2]);
        assert!(dg.base().has_edge(0, 2));
        assert_eq!(dg.pending(), 0);
    }

    #[test]
    fn delete_and_undelete() {
        let mut dg = DynamicGraph::new(square(), true);
        assert_eq!(
            dg.apply(GraphMutation::RemoveEdge { src: 0, dst: 1 }),
            MutationEffect::TopologyChanged
        );
        assert!(!dg.has_edge(0, 1));
        assert!(!dg.has_edge(1, 0));
        assert_eq!(dg.degree(0), 1);
        // Re-adding resurfaces the edge with the new weight.
        dg.apply(GraphMutation::AddEdge {
            src: 0,
            dst: 1,
            weight: 9.0,
        });
        assert_eq!(dg.weight(0, 1), Some(9.0));
        assert_eq!(dg.degree(0), 2);
    }

    #[test]
    fn rejects_out_of_range_and_missing() {
        let mut dg = DynamicGraph::new(square(), true);
        assert_eq!(
            dg.apply(GraphMutation::AddEdge {
                src: 0,
                dst: 99,
                weight: 1.0
            }),
            MutationEffect::Rejected
        );
        assert_eq!(
            dg.apply(GraphMutation::RemoveEdge { src: 0, dst: 2 }),
            MutationEffect::Rejected
        );
        assert_eq!(
            dg.apply(GraphMutation::UpdateWeight {
                src: 0,
                dst: 2,
                weight: 1.0
            }),
            MutationEffect::Rejected
        );
        assert_eq!(dg.rejected(), 3);
        assert_eq!(dg.version(), 0);
    }

    #[test]
    fn upsert_add_reweights_existing_edge() {
        let mut dg = DynamicGraph::new(square(), true);
        assert_eq!(
            dg.apply(GraphMutation::AddEdge {
                src: 0,
                dst: 1,
                weight: 4.0
            }),
            MutationEffect::Reweighted
        );
        assert_eq!(dg.weight(0, 1), Some(4.0));
        assert_eq!(dg.pending(), 0);
    }

    #[test]
    fn materialize_matches_compact() {
        let mut dg = DynamicGraph::new(square(), true);
        dg.apply(GraphMutation::AddEdge {
            src: 1,
            dst: 3,
            weight: 2.5,
        });
        dg.apply(GraphMutation::RemoveEdge { src: 2, dst: 3 });
        dg.apply(GraphMutation::UpdateWeight {
            src: 0,
            dst: 1,
            weight: 7.0,
        });
        let snapshot = dg.materialize();
        dg.compact();
        let compacted = dg.base();
        assert_eq!(snapshot.num_edges(), compacted.num_edges());
        for v in 0..4u32 {
            assert_eq!(snapshot.neighbors(v), compacted.neighbors(v));
            assert_eq!(snapshot.weights(v), compacted.weights(v));
        }
        snapshot.validate().unwrap();
    }

    #[test]
    fn asymmetric_base_reports_both_direction_effects() {
        // Directed base containing only (1,0); symmetric mutation on (0,1):
        // the forward direction inserts (topology) while the mirror upserts
        // the existing base edge in place (reweight). Both must be reported
        // or node 1's sampler maintenance is silently skipped.
        let mut b = GraphBuilder::new();
        b.add_edge(1, 0, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 1, 1.0);
        let g = b.symmetric(false).build();
        let mut dg = DynamicGraph::new(g, true);
        let (forward, mirror) = dg.apply_with_effects(GraphMutation::AddEdge {
            src: 0,
            dst: 1,
            weight: 7.0,
        });
        assert_eq!(forward, MutationEffect::TopologyChanged);
        assert_eq!(mirror, MutationEffect::Reweighted);
        assert_eq!(dg.weight(0, 1), Some(7.0));
        assert_eq!(dg.weight(1, 0), Some(7.0));
        // The reweighted side hit the base CSR directly.
        let k = dg.base().find_neighbor(1, 0).unwrap();
        assert_eq!(dg.base().weight_at(1, k), 7.0);

        // Inverse case: forward upsert-reweights the existing (2,1), mirror
        // inserts the missing (1,2) — apply() must still classify the
        // mutation as topology-changing so the compaction threshold fires.
        let effect = dg.apply(GraphMutation::AddEdge {
            src: 2,
            dst: 1,
            weight: 3.0,
        });
        assert_eq!(effect, MutationEffect::TopologyChanged);
        assert!(dg.has_edge(1, 2));
        assert_eq!(dg.weight(2, 1), Some(3.0));
    }

    #[test]
    fn node_arrival_grows_universe_and_allows_rejoin() {
        let mut dg = DynamicGraph::new(square(), true);
        assert_eq!(dg.num_nodes(), 4);
        assert_eq!(
            dg.apply(GraphMutation::AddNode { node: 6 }),
            MutationEffect::NodeArrived
        );
        assert_eq!(dg.num_nodes(), 7);
        assert!(dg.is_live(6));
        // Ids skipped by the growth stay vacant.
        assert!(!dg.is_live(4) && !dg.is_live(5));
        assert_eq!(dg.live_count(), 5);
        // Duplicate arrival is rejected.
        assert_eq!(
            dg.apply(GraphMutation::AddNode { node: 6 }),
            MutationEffect::Rejected
        );
        // The new node can take edges before any compaction.
        assert_eq!(
            dg.apply(GraphMutation::AddEdge {
                src: 6,
                dst: 0,
                weight: 2.0
            }),
            MutationEffect::TopologyChanged
        );
        assert_eq!(dg.degree(6), 1);
        assert!(dg.has_edge(0, 6));
        let base = dg.materialize();
        assert_eq!(base.num_nodes(), 7);
        assert_eq!(base.neighbors(6), &[0]);
        assert_eq!(base.degree(4), 0);

        // Retire and rejoin: the id comes back live with empty adjacency.
        assert_eq!(
            dg.apply(GraphMutation::RemoveNode { node: 6 }),
            MutationEffect::NodeRetired
        );
        assert!(!dg.is_live(6));
        assert_eq!(
            dg.apply(GraphMutation::AddNode { node: 6 }),
            MutationEffect::NodeArrived
        );
        assert!(dg.is_live(6));
        assert_eq!(dg.degree(6), 0);
    }

    #[test]
    fn node_retirement_drops_incident_edges_symmetric() {
        let mut dg = DynamicGraph::new(square(), true);
        assert_eq!(
            dg.apply(GraphMutation::RemoveNode { node: 0 }),
            MutationEffect::NodeRetired
        );
        assert_eq!(dg.degree(0), 0);
        assert!(!dg.has_edge(1, 0));
        assert!(!dg.has_edge(3, 0));
        assert!(!dg.is_live(0));
        // Removing a dead id again is rejected.
        assert_eq!(
            dg.apply(GraphMutation::RemoveNode { node: 0 }),
            MutationEffect::Rejected
        );
        // Edge ops naming the retired endpoint are rejected.
        assert_eq!(
            dg.apply(GraphMutation::AddEdge {
                src: 1,
                dst: 0,
                weight: 1.0
            }),
            MutationEffect::Rejected
        );
        let base = dg.materialize();
        assert_eq!(base.degree(0), 0);
        assert_eq!(base.neighbors(1), &[2]);
    }

    #[test]
    fn node_retirement_drops_in_edges_directed() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        let g = b.symmetric(false).build();
        let mut dg = DynamicGraph::new(g, false);
        assert_eq!(
            dg.apply(GraphMutation::RemoveNode { node: 2 }),
            MutationEffect::NodeRetired
        );
        assert_eq!(dg.degree(2), 0);
        assert!(!dg.has_edge(0, 2), "in-edge 0->2 survived retirement");
        assert!(!dg.has_edge(1, 2), "in-edge 1->2 survived retirement");
        assert!(!dg.has_edge(2, 3));
    }

    #[test]
    fn compact_materializes_grown_rows_even_without_pending_edges() {
        let mut dg = DynamicGraph::new(square(), true);
        dg.apply(GraphMutation::AddNode { node: 5 });
        assert_eq!(dg.pending(), 0);
        let touched = dg.compact();
        assert_eq!(touched, vec![5]);
        assert_eq!(dg.base().num_nodes(), 6);
        assert_eq!(dg.base().degree(5), 0);
    }

    #[test]
    fn with_universe_restores_liveness() {
        let mut live = vec![true; 4];
        live[2] = false;
        let dg = DynamicGraph::with_universe(square(), true, live);
        assert!(!dg.is_live(2));
        assert_eq!(dg.live_count(), 3);
        assert_eq!(dg.live_mask(), &[true, true, false, true]);
    }

    #[test]
    fn overlay_stats_track_pending_work() {
        let mut dg = DynamicGraph::new(square(), false);
        dg.apply(GraphMutation::AddEdge {
            src: 0,
            dst: 2,
            weight: 1.0,
        });
        dg.apply(GraphMutation::RemoveEdge { src: 1, dst: 2 });
        assert_eq!(dg.pending(), 2);
    }
}
