//! Compressed-sparse-row (CSR) graph storage.
//!
//! The layout follows Section IV-C of the UniNet paper: a node offset array
//! plus an edge array; weighted networks allocate one additional `f32` per
//! edge, heterogeneous networks allocate one type id per node (and optionally
//! one per edge for edge2vec-style models).

use crate::edge::EdgeRef;
use crate::hetero::TypeRegistry;
use crate::prefetch::prefetch;
use crate::NodeId;

/// An in-memory network stored in CSR format.
///
/// All adjacency lists are sorted by destination node id, which allows
/// `has_edge` to run in `O(log deg)` — exactly the binary search used by the
/// node2vec dynamic-weight computation in the paper's complexity analysis.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` is the range of v's out-edges. Length = |V| + 1.
    offsets: Vec<usize>,
    /// Destination node of each edge. Length = |E|.
    neighbors: Vec<NodeId>,
    /// Static weight of each edge. Length = |E|.
    weights: Vec<f32>,
    /// Node type per node (empty for homogeneous graphs).
    node_types: Vec<u16>,
    /// Edge type per edge (empty when edges are untyped).
    edge_types: Vec<u16>,
    /// Number of distinct node types (1 for homogeneous graphs).
    num_node_types: u16,
    /// Number of distinct edge types (0 when edges are untyped).
    num_edge_types: u16,
    /// Optional registry of human-readable type names.
    type_registry: TypeRegistry,
    /// True if every stored weight equals 1.0.
    unweighted: bool,
}

impl Graph {
    /// Assembles a graph from raw CSR arrays.
    ///
    /// This is used by [`crate::GraphBuilder`] and by the binary snapshot
    /// loader; most users should go through the builder instead.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths are inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub fn from_csr_parts(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        weights: Vec<f32>,
        node_types: Vec<u16>,
        edge_types: Vec<u16>,
        num_node_types: u16,
        num_edge_types: u16,
        type_registry: TypeRegistry,
    ) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least one entry"
        );
        let num_edges = *offsets.last().unwrap();
        assert_eq!(neighbors.len(), num_edges, "neighbors length mismatch");
        assert_eq!(weights.len(), num_edges, "weights length mismatch");
        if !node_types.is_empty() {
            assert_eq!(
                node_types.len(),
                offsets.len() - 1,
                "node_types length mismatch"
            );
        }
        if !edge_types.is_empty() {
            assert_eq!(edge_types.len(), num_edges, "edge_types length mismatch");
        }
        let unweighted = weights.iter().all(|&w| w == 1.0);
        Graph {
            offsets,
            neighbors,
            weights,
            node_types,
            edge_types,
            num_node_types: num_node_types.max(1),
            num_edge_types,
            type_registry,
            unweighted,
        }
    }

    /// Number of nodes |V|.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges |E| stored in the CSR arrays.
    ///
    /// Undirected networks built with `GraphBuilder::symmetric(true)` store
    /// each edge twice, matching the convention of the paper's Table V.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum out-degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// The global edge-index range `[start, end)` of node `v`'s adjacency list.
    #[inline]
    pub fn edge_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Slice of neighbor node ids of `v` (sorted ascending).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.edge_range(v)]
    }

    /// Slice of static edge weights of `v`'s out-edges.
    #[inline]
    pub fn weights(&self, v: NodeId) -> &[f32] {
        &self.weights[self.edge_range(v)]
    }

    /// Slice of edge types of `v`'s out-edges.
    ///
    /// Returns an empty slice if the graph has no edge types.
    #[inline]
    pub fn edge_types_of(&self, v: NodeId) -> &[u16] {
        if self.edge_types.is_empty() {
            &[]
        } else {
            &self.edge_types[self.edge_range(v)]
        }
    }

    /// The `k`-th out-neighbor of `v` (0-based position in the adjacency list).
    #[inline]
    pub fn neighbor_at(&self, v: NodeId, k: usize) -> NodeId {
        self.neighbors[self.offsets[v as usize] + k]
    }

    /// The static weight of the `k`-th out-edge of `v`.
    #[inline]
    pub fn weight_at(&self, v: NodeId, k: usize) -> f32 {
        self.weights[self.offsets[v as usize] + k]
    }

    /// The edge type of the `k`-th out-edge of `v`, or `u16::MAX` if untyped.
    #[inline]
    pub fn edge_type_at(&self, v: NodeId, k: usize) -> u16 {
        if self.edge_types.is_empty() {
            u16::MAX
        } else {
            self.edge_types[self.offsets[v as usize] + k]
        }
    }

    /// Prefetch hint for `v`'s entry in the offset array, the first read of
    /// any step from `v`. Ignores ids past the graph.
    #[inline(always)]
    pub fn prefetch_node(&self, v: NodeId) {
        prefetch(&self.offsets, v as usize);
    }

    /// Prefetch hint for the head of `v`'s adjacency row, neighbors and
    /// weights. Reads `v`'s offset, so it pays off after
    /// [`Graph::prefetch_node`] has landed. Ignores ids past the graph.
    #[inline(always)]
    pub fn prefetch_adjacency(&self, v: NodeId) {
        if let Some(&start) = self.offsets.get(v as usize) {
            prefetch(&self.neighbors, start);
            prefetch(&self.weights, start);
        }
    }

    /// A full [`EdgeRef`] view of the `k`-th out-edge of `v`.
    #[inline]
    pub fn edge_ref(&self, v: NodeId, k: usize) -> EdgeRef {
        let global = self.offsets[v as usize] + k;
        EdgeRef {
            src: v,
            dst: self.neighbors[global],
            weight: self.weights[global],
            local_idx: k as u32,
            global_idx: global,
        }
    }

    /// Iterator over all out-edges of `v` as [`EdgeRef`]s.
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let start = self.offsets[v as usize];
        self.neighbors(v)
            .iter()
            .enumerate()
            .map(move |(k, &dst)| EdgeRef {
                src: v,
                dst,
                weight: self.weights[start + k],
                local_idx: k as u32,
                global_idx: start + k,
            })
    }

    /// Iterator over every directed edge `(src, dst, weight)` in the graph.
    pub fn all_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |v| self.edges_of(v).map(move |e| (v, e.dst, e.weight)))
    }

    /// Returns `true` if there is an edge from `u` to `dst`.
    ///
    /// `O(log deg(u))` thanks to sorted adjacency lists; this is the primitive
    /// used by node2vec's `d(u, s) == 1` test.
    #[inline]
    pub fn has_edge(&self, u: NodeId, dst: NodeId) -> bool {
        self.neighbors(u).binary_search(&dst).is_ok()
    }

    /// Returns the local index of `dst` inside `u`'s adjacency list, if present.
    #[inline]
    pub fn find_neighbor(&self, u: NodeId, dst: NodeId) -> Option<usize> {
        self.neighbors(u).binary_search(&dst).ok()
    }

    /// The node type of `v` (0 for homogeneous graphs).
    #[inline]
    pub fn node_type(&self, v: NodeId) -> u16 {
        if self.node_types.is_empty() {
            0
        } else {
            self.node_types[v as usize]
        }
    }

    /// Number of distinct node types (>= 1).
    #[inline]
    pub fn num_node_types(&self) -> u16 {
        self.num_node_types
    }

    /// Number of distinct edge types (0 when edges are untyped).
    #[inline]
    pub fn num_edge_types(&self) -> u16 {
        self.num_edge_types
    }

    /// `true` if the graph carries node type information for more than one type.
    #[inline]
    pub fn is_heterogeneous(&self) -> bool {
        self.num_node_types > 1
    }

    /// `true` if every edge weight is exactly 1.0.
    #[inline]
    pub fn is_unweighted(&self) -> bool {
        self.unweighted
    }

    /// Human-readable names for node/edge types, if registered.
    #[inline]
    pub fn type_registry(&self) -> &TypeRegistry {
        &self.type_registry
    }

    /// Total degree (sum of weights) of node `v`.
    pub fn weighted_degree(&self, v: NodeId) -> f64 {
        self.weights(v).iter().map(|&w| w as f64).sum()
    }

    /// The raw offsets array (length |V| + 1). Exposed for samplers that build
    /// per-state bucket layouts aligned with the CSR edge array.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Memory footprint of the CSR arrays in bytes (ignores the registry).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<f32>()
            + self.node_types.len() * std::mem::size_of::<u16>()
            + self.edge_types.len() * std::mem::size_of::<u16>()
    }

    /// Nodes with at least one out-edge.
    pub fn non_isolated_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as NodeId).filter(move |&v| self.degree(v) > 0)
    }

    /// Checks structural invariants (sorted adjacency, offsets monotone,
    /// neighbor ids in range). Used by tests and by the binary loader.
    pub fn validate(&self) -> crate::Result<()> {
        let n = self.num_nodes();
        for w in self.offsets.windows(2) {
            if w[1] < w[0] {
                return Err(crate::GraphError::Corrupt("offsets not monotone".into()));
            }
        }
        for v in 0..n as NodeId {
            let nbrs = self.neighbors(v);
            for &u in nbrs {
                if (u as usize) >= n {
                    return Err(crate::GraphError::NodeOutOfRange {
                        node: u,
                        num_nodes: n,
                    });
                }
            }
            if !nbrs.windows(2).all(|w| w[0] <= w[1]) {
                return Err(crate::GraphError::Corrupt(format!(
                    "adjacency list of node {v} is not sorted"
                )));
            }
        }
        Ok(())
    }

    /// The raw node-type array (empty for homogeneous graphs). Exposed for the
    /// dynamic-graph overlay, which preserves types across compactions.
    #[inline]
    pub fn node_types(&self) -> &[u16] {
        &self.node_types
    }

    /// The raw edge-type array (empty when edges are untyped).
    #[inline]
    pub fn edge_types(&self) -> &[u16] {
        &self.edge_types
    }

    /// Overwrites the static weight of the `k`-th out-edge of `v` in place.
    ///
    /// This is the O(1) primitive behind streaming weight updates: reweighting
    /// never moves CSR entries, so no index is invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `k >= degree(v)`.
    #[inline]
    pub fn set_weight_at(&mut self, v: NodeId, k: usize, weight: f32) {
        assert!(k < self.degree(v), "edge index out of range");
        self.weights[self.offsets[v as usize] + k] = weight;
        if weight != 1.0 {
            self.unweighted = false;
        }
    }

    // Accessors for the raw arrays, used by the binary snapshot writer.
    pub(crate) fn raw_neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }
    pub(crate) fn raw_weights(&self) -> &[f32] {
        &self.weights
    }
    pub(crate) fn raw_node_types(&self) -> &[u16] {
        &self.node_types
    }
    pub(crate) fn raw_edge_types(&self) -> &[u16] {
        &self.edge_types
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle() -> crate::Graph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 0, 3.0);
        b.symmetric(true).build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn neighbors_sorted_and_has_edge() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.find_neighbor(1, 2), Some(1));
        assert_eq!(g.find_neighbor(1, 0), Some(0));
    }

    #[test]
    fn weights_follow_edges() {
        let g = triangle();
        // Edge (0,1) has weight 1.0 and (0,2) got 3.0 from the reversed (2,0).
        assert_eq!(g.weight_at(0, 0), 1.0);
        assert_eq!(g.weight_at(0, 1), 3.0);
        assert!(!g.is_unweighted());
        assert!((g.weighted_degree(0) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn edge_refs_are_consistent() {
        let g = triangle();
        for v in 0..3u32 {
            for (k, e) in g.edges_of(v).enumerate() {
                assert_eq!(e.src, v);
                assert_eq!(e.local_idx as usize, k);
                assert_eq!(e.dst, g.neighbor_at(v, k));
                assert_eq!(e.weight, g.weight_at(v, k));
                assert_eq!(e.global_idx, g.offsets()[v as usize] + k);
            }
        }
    }

    #[test]
    fn all_edges_count_matches() {
        let g = triangle();
        assert_eq!(g.all_edges().count(), g.num_edges());
    }

    #[test]
    fn homogeneous_defaults() {
        let g = triangle();
        assert_eq!(g.node_type(0), 0);
        assert_eq!(g.num_node_types(), 1);
        assert_eq!(g.num_edge_types(), 0);
        assert!(!g.is_heterogeneous());
        assert_eq!(g.edge_type_at(0, 0), u16::MAX);
        assert!(g.edge_types_of(0).is_empty());
    }

    #[test]
    fn validate_ok() {
        let g = triangle();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn memory_bytes_positive() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn isolated_nodes_are_skipped() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2, 1.0);
        b.set_num_nodes(5);
        let g = b.symmetric(true).build();
        let non_isolated: Vec<_> = g.non_isolated_nodes().collect();
        assert_eq!(non_isolated, vec![0, 2]);
        assert_eq!(g.degree(4), 0);
    }
}
