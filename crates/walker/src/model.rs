//! The unified random-walk model abstraction (Section IV-B).
//!
//! A random-walk model is defined entirely by
//! * the *state* a walker carries, and
//! * the *dynamic edge weight* `w'(state, edge)` — the unnormalized transition
//!   weight of a candidate edge under that state (Table IV),
//!
//! mirrored by the two programming interfaces the paper exposes:
//! `CALCULATEWEIGHT` and `UPDATESTATE` (Figure 3). Because UniNet's M-H edge
//! sampler consumes unnormalized weights directly, implementors never need to
//! compute normalization constants.

use uninet_graph::{EdgeRef, Graph, NodeId};

use crate::state::WalkerState;

/// A user-definable random-walk model.
///
/// Implementations must be cheap to call: `calculate_weight` sits on the hot
/// path of every sampling step (an M-H step invokes it twice: once for the
/// candidate and once for the chain's last sample).
pub trait RandomWalkModel: Send + Sync {
    /// Human-readable model name (used in reports).
    fn name(&self) -> &'static str;

    /// The unnormalized dynamic edge weight `w'_{x,(v,u)}` of taking edge
    /// `next` when the walker is in `state` (Table IV).
    fn calculate_weight(&self, graph: &Graph, state: WalkerState, next: EdgeRef) -> f32;

    /// The state after the walker traverses `next`.
    fn update_state(&self, graph: &Graph, state: WalkerState, next: EdgeRef) -> WalkerState;

    /// The state of a fresh walker standing on `start` before its first step.
    fn initial_state(&self, graph: &Graph, start: NodeId) -> WalkerState {
        let _ = graph;
        WalkerState::at(start)
    }

    /// The number of affixture slots (bucket size) needed for states whose
    /// position is `v` — e.g. 1 for DeepWalk, `deg(v)` for node2vec,
    /// the metapath length for metapath2vec. Drives the 2D sampler layout.
    fn bucket_size(&self, graph: &Graph, v: NodeId) -> usize;

    /// Total number of walker states over the whole graph (`#state` in
    /// Table I); the default sums the per-node bucket sizes.
    fn num_states(&self, graph: &Graph) -> usize {
        (0..graph.num_nodes() as NodeId)
            .map(|v| self.bucket_size(graph, v))
            .sum()
    }

    /// An upper bound `B` such that `w'(state, e) <= B * static_weight(e)` for
    /// every edge `e` leaving `state.position`. Rejection-based samplers use
    /// this as their acceptance bound; the default (1.0) is correct for models
    /// whose dynamic weight never exceeds the static weight.
    fn rejection_bound(&self, graph: &Graph, state: WalkerState) -> f32 {
        let _ = (graph, state);
        1.0
    }

    /// Neighbor indices whose dynamic weight may exceed
    /// `outlier_folding_bound * static_weight` — the "outliers" that a
    /// KnightKing-style sampler folds out of the rejection area. The default
    /// is the empty set (no outliers).
    fn outliers(&self, graph: &Graph, state: WalkerState) -> Vec<u32> {
        let _ = (graph, state);
        Vec::new()
    }

    /// The tighter bound that applies to non-outlier neighbors when outlier
    /// folding is used. Defaults to the plain rejection bound.
    fn outlier_folding_bound(&self, graph: &Graph, state: WalkerState) -> f32 {
        self.rejection_bound(graph, state)
    }

    /// Whether the transition distribution of this model actually depends on
    /// the dynamic state (false for first-order models like DeepWalk, whose
    /// distributions can be fully precomputed per node).
    fn is_second_order(&self) -> bool {
        true
    }
}

/// Blanket implementation so `Box<dyn RandomWalkModel>` and references can be
/// passed wherever a model is expected.
impl<M: RandomWalkModel + ?Sized> RandomWalkModel for &M {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn calculate_weight(&self, graph: &Graph, state: WalkerState, next: EdgeRef) -> f32 {
        (**self).calculate_weight(graph, state, next)
    }
    fn update_state(&self, graph: &Graph, state: WalkerState, next: EdgeRef) -> WalkerState {
        (**self).update_state(graph, state, next)
    }
    fn initial_state(&self, graph: &Graph, start: NodeId) -> WalkerState {
        (**self).initial_state(graph, start)
    }
    fn bucket_size(&self, graph: &Graph, v: NodeId) -> usize {
        (**self).bucket_size(graph, v)
    }
    fn num_states(&self, graph: &Graph) -> usize {
        (**self).num_states(graph)
    }
    fn rejection_bound(&self, graph: &Graph, state: WalkerState) -> f32 {
        (**self).rejection_bound(graph, state)
    }
    fn outliers(&self, graph: &Graph, state: WalkerState) -> Vec<u32> {
        (**self).outliers(graph, state)
    }
    fn outlier_folding_bound(&self, graph: &Graph, state: WalkerState) -> f32 {
        (**self).outlier_folding_bound(graph, state)
    }
    fn is_second_order(&self) -> bool {
        (**self).is_second_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_graph::GraphBuilder;

    /// A trivial model used to exercise the default trait methods.
    struct UniformModel;

    impl RandomWalkModel for UniformModel {
        fn name(&self) -> &'static str {
            "uniform"
        }
        fn calculate_weight(&self, _: &Graph, _: WalkerState, next: EdgeRef) -> f32 {
            next.weight
        }
        fn update_state(&self, _: &Graph, _: WalkerState, next: EdgeRef) -> WalkerState {
            WalkerState::at(next.dst)
        }
        fn bucket_size(&self, _: &Graph, _: NodeId) -> usize {
            1
        }
        fn is_second_order(&self) -> bool {
            false
        }
    }

    fn path_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.symmetric(true).build()
    }

    #[test]
    fn default_num_states_sums_buckets() {
        let g = path_graph();
        let m = UniformModel;
        assert_eq!(m.num_states(&g), 3);
    }

    #[test]
    fn default_initial_state_is_position_only() {
        let g = path_graph();
        let m = UniformModel;
        assert_eq!(m.initial_state(&g, 2), WalkerState::at(2));
    }

    #[test]
    fn default_rejection_bound_and_outliers() {
        let g = path_graph();
        let m = UniformModel;
        let s = WalkerState::at(1);
        assert_eq!(m.rejection_bound(&g, s), 1.0);
        assert_eq!(m.outlier_folding_bound(&g, s), 1.0);
        assert!(m.outliers(&g, s).is_empty());
    }

    #[test]
    fn reference_forwarding_works() {
        let g = path_graph();
        let m = UniformModel;
        let r: &dyn RandomWalkModel = &m;
        assert_eq!(r.name(), "uniform");
        assert_eq!((&r).num_states(&g), 3);
        assert!(!m.is_second_order());
    }
}
