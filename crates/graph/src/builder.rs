//! Incremental graph construction, producing CSR [`Graph`]s.

use crate::csr::Graph;
use crate::edge::Edge;
use crate::hetero::TypeRegistry;
use crate::NodeId;

/// Builds a [`Graph`] from a stream of edges.
///
/// The builder collects edges in an edge list, then sorts them into CSR form.
/// Duplicate edges are kept unless [`GraphBuilder::dedup`] is enabled, in
/// which case duplicate (src, dst) pairs are merged by summing their weights.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    node_types: Vec<u16>,
    num_nodes: usize,
    symmetric: bool,
    dedup: bool,
    registry: TypeRegistry,
    has_edge_types: bool,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates space for `n` edges.
    pub fn with_capacity(n: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// If `true` (default `false`), every added edge is mirrored so the
    /// resulting graph is undirected in the CSR sense.
    pub fn symmetric(&mut self, yes: bool) -> &mut Self {
        self.symmetric = yes;
        self
    }

    /// If `true` (default `false`), duplicate (src, dst) pairs are merged by
    /// summing their weights during `build`.
    pub fn dedup(&mut self, yes: bool) -> &mut Self {
        self.dedup = yes;
        self
    }

    /// Declares that the graph has at least `n` nodes (to include isolated
    /// trailing nodes that never appear in an edge).
    pub fn set_num_nodes(&mut self, n: usize) -> &mut Self {
        self.num_nodes = self.num_nodes.max(n);
        self
    }

    /// Adds a weighted edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f32) -> &mut Self {
        self.push(Edge::new(src, dst, weight))
    }

    /// Adds a weighted, typed edge.
    pub fn add_typed_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        weight: f32,
        edge_type: u16,
    ) -> &mut Self {
        self.has_edge_types = true;
        self.push(Edge::typed(src, dst, weight, edge_type))
    }

    /// Adds a pre-built [`Edge`].
    pub fn push(&mut self, e: Edge) -> &mut Self {
        self.num_nodes = self.num_nodes.max(e.src.max(e.dst) as usize + 1);
        self.edges.push(e);
        self
    }

    /// Sets the node type of `v`. Nodes default to type 0.
    pub fn set_node_type(&mut self, v: NodeId, t: u16) -> &mut Self {
        let v = v as usize;
        if self.node_types.len() <= v {
            self.node_types.resize(v + 1, 0);
        }
        self.node_types[v] = t;
        self.num_nodes = self.num_nodes.max(v + 1);
        self
    }

    /// Sets node types for all nodes at once (index = node id).
    pub fn set_node_types(&mut self, types: Vec<u16>) -> &mut Self {
        self.num_nodes = self.num_nodes.max(types.len());
        self.node_types = types;
        self
    }

    /// Access to the type-name registry (names are optional).
    pub fn registry_mut(&mut self) -> &mut TypeRegistry {
        &mut self.registry
    }

    /// Consumes the builder and produces the CSR graph.
    pub fn build(&mut self) -> Graph {
        let mut edges = std::mem::take(&mut self.edges);
        if self.symmetric {
            let mirrored: Vec<Edge> = edges.iter().map(Edge::reversed).collect();
            edges.extend(mirrored);
        }
        let n = self.num_nodes;

        // Counting sort by source node, then sort each adjacency list by dst.
        let mut degree = vec![0usize; n];
        for e in &edges {
            degree[e.src as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let m = edges.len();
        let mut neighbors = vec![0 as NodeId; m];
        let mut weights = vec![0f32; m];
        let mut etypes = if self.has_edge_types {
            vec![0u16; m]
        } else {
            Vec::new()
        };
        let mut cursor = offsets.clone();
        for e in &edges {
            let pos = cursor[e.src as usize];
            neighbors[pos] = e.dst;
            weights[pos] = e.weight;
            if self.has_edge_types {
                etypes[pos] = if e.edge_type == u16::MAX {
                    0
                } else {
                    e.edge_type
                };
            }
            cursor[e.src as usize] += 1;
        }
        // Sort each adjacency list by destination id.
        for v in 0..n {
            let range = offsets[v]..offsets[v + 1];
            let mut idx: Vec<usize> = range.clone().collect();
            idx.sort_unstable_by_key(|&i| neighbors[i]);
            let nb: Vec<NodeId> = idx.iter().map(|&i| neighbors[i]).collect();
            let ws: Vec<f32> = idx.iter().map(|&i| weights[i]).collect();
            neighbors[range.clone()].copy_from_slice(&nb);
            weights[range.clone()].copy_from_slice(&ws);
            if self.has_edge_types {
                let et: Vec<u16> = idx.iter().map(|&i| etypes[i]).collect();
                etypes[range].copy_from_slice(&et);
            }
        }

        if self.dedup {
            let (o, nbr, w, et) = dedup_csr(
                &offsets,
                &neighbors,
                &weights,
                if self.has_edge_types {
                    Some(&etypes)
                } else {
                    None
                },
            );
            offsets = o;
            neighbors = nbr;
            weights = w;
            if let Some(et) = et {
                etypes = et;
            }
        }

        let mut node_types = std::mem::take(&mut self.node_types);
        if !node_types.is_empty() && node_types.len() < n {
            node_types.resize(n, 0);
        }
        let num_node_types = node_types.iter().copied().max().map(|m| m + 1).unwrap_or(1);
        let num_edge_types = if self.has_edge_types {
            etypes.iter().copied().max().map(|m| m + 1).unwrap_or(0)
        } else {
            0
        };

        Graph::from_csr_parts(
            offsets,
            neighbors,
            weights,
            node_types,
            etypes,
            num_node_types,
            num_edge_types,
            std::mem::take(&mut self.registry),
        )
    }
}

/// Merges duplicate (src, dst) entries in already-sorted CSR arrays,
/// summing weights. Edge types keep the first occurrence's type.
#[allow(clippy::type_complexity)]
fn dedup_csr(
    offsets: &[usize],
    neighbors: &[NodeId],
    weights: &[f32],
    edge_types: Option<&[u16]>,
) -> (Vec<usize>, Vec<NodeId>, Vec<f32>, Option<Vec<u16>>) {
    let n = offsets.len() - 1;
    let mut new_offsets = vec![0usize; n + 1];
    let mut new_neighbors = Vec::with_capacity(neighbors.len());
    let mut new_weights = Vec::with_capacity(weights.len());
    let mut new_etypes = edge_types.map(|_| Vec::with_capacity(weights.len()));
    for v in 0..n {
        let range = offsets[v]..offsets[v + 1];
        let mut last: Option<NodeId> = None;
        for i in range {
            let dst = neighbors[i];
            if last == Some(dst) {
                *new_weights.last_mut().unwrap() += weights[i];
            } else {
                new_neighbors.push(dst);
                new_weights.push(weights[i]);
                if let (Some(et), Some(src)) = (new_etypes.as_mut(), edge_types) {
                    et.push(src[i]);
                }
                last = Some(dst);
            }
        }
        new_offsets[v + 1] = new_neighbors.len();
    }
    (new_offsets, new_neighbors, new_weights, new_etypes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_build_preserves_direction() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        let g = b.build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn symmetric_build_mirrors_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.5);
        let g = b.symmetric(true).build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.weight_at(1, 0), 1.5);
    }

    #[test]
    fn dedup_merges_weights() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, 2.0);
        b.add_edge(0, 2, 1.0);
        let g = b.dedup(true).build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.weight_at(0, 0), 3.0);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new();
        for dst in [5u32, 3, 9, 1, 7] {
            b.add_edge(0, dst, dst as f32);
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 3, 5, 7, 9]);
        // weights must follow the permutation
        assert_eq!(g.weights(0), &[1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn node_types_and_edge_types_are_kept() {
        let mut b = GraphBuilder::new();
        b.add_typed_edge(0, 1, 1.0, 2);
        b.add_typed_edge(1, 2, 1.0, 0);
        b.set_node_type(0, 0);
        b.set_node_type(1, 1);
        b.set_node_type(2, 2);
        let g = b.symmetric(true).build();
        assert_eq!(g.num_node_types(), 3);
        assert_eq!(g.num_edge_types(), 3);
        assert!(g.is_heterogeneous());
        assert_eq!(g.node_type(1), 1);
        assert_eq!(g.edge_type_at(0, 0), 2);
        // mirrored edge keeps the type
        assert_eq!(g.edge_type_at(1, g.find_neighbor(1, 0).unwrap()), 2);
    }

    #[test]
    fn isolated_nodes_via_set_num_nodes() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.set_num_nodes(10);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn with_capacity_and_buffered_count() {
        let mut b = GraphBuilder::with_capacity(8);
        b.add_edge(0, 1, 1.0);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn builder_registry_names() {
        let mut b = GraphBuilder::new();
        let author = b.registry_mut().node_type_id("author");
        let paper = b.registry_mut().node_type_id("paper");
        b.add_edge(0, 1, 1.0);
        b.set_node_type(0, author);
        b.set_node_type(1, paper);
        let g = b.build();
        assert_eq!(g.type_registry().node_type_name(author), Some("author"));
        assert_eq!(g.type_registry().node_type_name(paper), Some("paper"));
    }
}
