//! Mutation events: the unit of change flowing through the streaming pipeline.

use uninet_graph::NodeId;

/// One mutation of the graph's node or edge set.
///
/// Edge ops must reference **live** nodes; the dynamic graph rejects (and
/// counts) mutations naming unknown or retired endpoints. [`GraphMutation::AddNode`]
/// is the only op that grows the universe: it declares id `node` live,
/// extending the id space when `node` lies past the current capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphMutation {
    /// Insert edge `src -> dst` (upserts the weight when the edge exists).
    AddEdge {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Edge weight.
        weight: f32,
    },
    /// Remove edge `src -> dst`.
    RemoveEdge {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Change the weight of the existing edge `src -> dst`.
    UpdateWeight {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// New edge weight.
        weight: f32,
    },
    /// Declare node `node` live, growing the id space when needed.
    /// Rejected when the id is already live; re-adding a retired id is a
    /// legal *rejoin* (the node comes back with an empty adjacency).
    AddNode {
        /// The arriving node's id (also its CSR row, forever).
        node: NodeId,
    },
    /// Retire node `node`: drop all incident edges and mark the id dead.
    /// Rejected when the id is not currently live.
    RemoveNode {
        /// The departing node's id.
        node: NodeId,
    },
}

impl GraphMutation {
    /// The node ids referenced by this mutation. Node ops reference a single
    /// id, returned in both slots.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            GraphMutation::AddEdge { src, dst, .. }
            | GraphMutation::RemoveEdge { src, dst }
            | GraphMutation::UpdateWeight { src, dst, .. } => (src, dst),
            GraphMutation::AddNode { node } | GraphMutation::RemoveNode { node } => (node, node),
        }
    }

    /// True when the mutation can never change the topology (neighbor sets /
    /// degrees), only edge weights.
    pub fn is_weight_only(&self) -> bool {
        matches!(self, GraphMutation::UpdateWeight { .. })
    }

    /// True for node-universe mutations (arrival / retirement).
    pub fn is_node_op(&self) -> bool {
        matches!(
            self,
            GraphMutation::AddNode { .. } | GraphMutation::RemoveNode { .. }
        )
    }
}

/// An ordered batch of mutations applied as one maintenance unit.
///
/// Batching amortizes sampler maintenance: all mutations are applied to the
/// overlay first, then each affected node's sampler state is repaired once.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    mutations: Vec<GraphMutation>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch from pre-collected mutations.
    pub fn from_mutations(mutations: Vec<GraphMutation>) -> Self {
        UpdateBatch { mutations }
    }

    /// Appends one mutation.
    pub fn push(&mut self, m: GraphMutation) -> &mut Self {
        self.mutations.push(m);
        self
    }

    /// Builder-style edge insert.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f32) -> &mut Self {
        self.push(GraphMutation::AddEdge { src, dst, weight })
    }

    /// Builder-style edge removal.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> &mut Self {
        self.push(GraphMutation::RemoveEdge { src, dst })
    }

    /// Builder-style reweight.
    pub fn update_weight(&mut self, src: NodeId, dst: NodeId, weight: f32) -> &mut Self {
        self.push(GraphMutation::UpdateWeight { src, dst, weight })
    }

    /// Builder-style node arrival.
    pub fn add_node(&mut self, node: NodeId) -> &mut Self {
        self.push(GraphMutation::AddNode { node })
    }

    /// Builder-style node retirement.
    pub fn remove_node(&mut self, node: NodeId) -> &mut Self {
        self.push(GraphMutation::RemoveNode { node })
    }

    /// The mutations in application order.
    pub fn mutations(&self) -> &[GraphMutation] {
        &self.mutations
    }

    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.mutations.len()
    }

    /// True when the batch holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.mutations.is_empty()
    }

    /// True when every mutation is weight-only (the cheap maintenance path).
    pub fn is_weight_only(&self) -> bool {
        self.mutations.iter().all(GraphMutation::is_weight_only)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_in_order() {
        let mut b = UpdateBatch::new();
        b.add_edge(0, 1, 2.0)
            .update_weight(1, 2, 0.5)
            .remove_edge(2, 0);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(
            b.mutations()[0],
            GraphMutation::AddEdge {
                src: 0,
                dst: 1,
                weight: 2.0
            }
        );
        assert_eq!(
            b.mutations()[2],
            GraphMutation::RemoveEdge { src: 2, dst: 0 }
        );
    }

    #[test]
    fn weight_only_classification() {
        let mut b = UpdateBatch::new();
        b.update_weight(0, 1, 1.5).update_weight(1, 0, 2.5);
        assert!(b.is_weight_only());
        b.add_edge(2, 3, 1.0);
        assert!(!b.is_weight_only());
    }

    #[test]
    fn endpoints_cover_all_variants() {
        assert_eq!(
            GraphMutation::AddEdge {
                src: 1,
                dst: 2,
                weight: 1.0
            }
            .endpoints(),
            (1, 2)
        );
        assert_eq!(
            GraphMutation::RemoveEdge { src: 3, dst: 4 }.endpoints(),
            (3, 4)
        );
        assert_eq!(
            GraphMutation::UpdateWeight {
                src: 5,
                dst: 6,
                weight: 2.0
            }
            .endpoints(),
            (5, 6)
        );
        assert!(GraphMutation::UpdateWeight {
            src: 0,
            dst: 0,
            weight: 0.0
        }
        .is_weight_only());
        assert!(!GraphMutation::RemoveEdge { src: 0, dst: 0 }.is_weight_only());
    }

    #[test]
    fn node_ops_classify_and_report_endpoints() {
        let add = GraphMutation::AddNode { node: 7 };
        let del = GraphMutation::RemoveNode { node: 9 };
        assert!(add.is_node_op() && del.is_node_op());
        assert!(!add.is_weight_only() && !del.is_weight_only());
        assert_eq!(add.endpoints(), (7, 7));
        assert_eq!(del.endpoints(), (9, 9));
        assert!(!GraphMutation::AddEdge {
            src: 0,
            dst: 1,
            weight: 1.0
        }
        .is_node_op());

        let mut b = UpdateBatch::new();
        b.add_edge(0, 1, 1.0);
        b.add_node(5).remove_node(2);
        assert_eq!(b.mutations()[1], GraphMutation::AddNode { node: 5 });
        assert_eq!(b.mutations()[2], GraphMutation::RemoveNode { node: 2 });
    }
}
