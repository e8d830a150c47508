//! Summary statistics of a graph, used to regenerate Table V of the paper.

use crate::csr::Graph;
use crate::NodeId;

/// Dataset statistics in the shape of the paper's Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes |V|.
    pub num_nodes: usize,
    /// Number of directed edges |E| stored in CSR.
    pub num_edges: usize,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Number of isolated nodes (degree 0).
    pub isolated_nodes: usize,
    /// Number of distinct node types.
    pub num_node_types: u16,
    /// Number of distinct edge types.
    pub num_edge_types: u16,
    /// Ratio of the maximum static edge weight to the minimum (1.0 when
    /// unweighted); this is the skew quantity that drives Theorem 3.
    pub weight_skew: f64,
}

impl GraphStats {
    /// Computes statistics from a graph.
    pub fn compute(graph: &Graph) -> Self {
        let num_nodes = graph.num_nodes();
        let num_edges = graph.num_edges();
        let mut max_degree = 0usize;
        let mut isolated = 0usize;
        let mut wmin = f64::INFINITY;
        let mut wmax: f64 = 0.0;
        for v in 0..num_nodes as NodeId {
            let d = graph.degree(v);
            max_degree = max_degree.max(d);
            if d == 0 {
                isolated += 1;
            }
            for &w in graph.weights(v) {
                let w = w as f64;
                if w > 0.0 {
                    wmin = wmin.min(w);
                    wmax = wmax.max(w);
                }
            }
        }
        let weight_skew = if num_edges == 0 || !wmin.is_finite() || wmin == 0.0 {
            1.0
        } else {
            wmax / wmin
        };
        GraphStats {
            num_nodes,
            num_edges,
            mean_degree: graph.mean_degree(),
            max_degree,
            isolated_nodes: isolated,
            num_node_types: graph.num_node_types(),
            num_edge_types: graph.num_edge_types(),
            weight_skew,
        }
    }
}

/// Degree distribution histogram with logarithmic (powers-of-two) buckets.
///
/// Useful for verifying that generated graphs have the skewed degree
/// distributions that the paper's samplers are sensitive to.
#[derive(Debug, Clone, Default)]
pub struct DegreeHistogram {
    /// `buckets[i]` counts nodes with degree in `[2^i, 2^(i+1))` (bucket 0 is degree 0..2).
    pub buckets: Vec<usize>,
}

impl DegreeHistogram {
    /// Builds the histogram for a graph.
    pub fn compute(graph: &Graph) -> Self {
        let mut buckets: Vec<usize> = Vec::new();
        for v in 0..graph.num_nodes() as NodeId {
            let d = graph.degree(v);
            let bucket = if d == 0 {
                0
            } else {
                (usize::BITS - d.leading_zeros()) as usize
            };
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += 1;
        }
        DegreeHistogram { buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn star(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 1..n as NodeId {
            b.add_edge(0, i, i as f32);
        }
        b.symmetric(true).build()
    }

    #[test]
    fn stats_of_star() {
        let g = star(11);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_nodes, 11);
        assert_eq!(s.num_edges, 20);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.isolated_nodes, 0);
        assert_eq!(s.num_node_types, 1);
        assert!((s.mean_degree - 20.0 / 11.0).abs() < 1e-9);
        assert!((s.weight_skew - 10.0).abs() < 1e-9);
    }

    #[test]
    fn stats_unweighted_skew_is_one() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.symmetric(true).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.weight_skew, 1.0);
    }

    #[test]
    fn stats_counts_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.set_num_nodes(4);
        let g = b.symmetric(true).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.isolated_nodes, 2);
    }

    #[test]
    fn degree_histogram_sums_to_nodes() {
        let g = star(17);
        let h = DegreeHistogram::compute(&g);
        assert_eq!(h.buckets.iter().sum::<usize>(), 17);
    }

    #[test]
    fn empty_graph_stats() {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(3);
        let g = b.build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.weight_skew, 1.0);
        assert_eq!(s.max_degree, 0);
    }
}
