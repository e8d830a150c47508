//! Synthetic graph generators.
//!
//! The UniNet paper evaluates on eleven real-world datasets (Table V), ranging
//! from BlogCatalog (10K nodes) to Web-UK (6.6 billion edges). Those datasets
//! are not redistributable here, so this module provides generators whose
//! outputs have the structural properties the paper's samplers are sensitive
//! to: skewed degree distributions (R-MAT / Barabási–Albert), controllable
//! mean degree, edge-weight skew, node/edge types for heterogeneous models,
//! and planted community structure with ground-truth labels for the node
//! classification experiments (Figure 5).
//!
//! [`DatasetSpec`] provides named presets that mirror the *shape* of the
//! paper's datasets at laptop scale.

pub mod barabasi_albert;
pub mod erdos_renyi;
pub mod labeled;
pub mod rmat;

pub use barabasi_albert::barabasi_albert;
pub use erdos_renyi::erdos_renyi;
pub use labeled::{planted_partition, LabeledGraph, PlantedPartitionConfig};
pub use rmat::{rmat, RmatConfig};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::Graph;
use crate::{GraphBuilder, NodeId};

/// Assigns random node types to an existing graph, following the procedure
/// the paper borrows from KnightKing for heterogenizing large networks
/// ("we adopt the method in work \[35\] to randomly generate type information").
pub fn assign_random_node_types(graph: &Graph, num_types: u16, seed: u64) -> Vec<u16> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..graph.num_nodes())
        .map(|_| rng.gen_range(0..num_types))
        .collect()
}

/// Rebuilds a graph with the given node types and randomly assigned edge
/// types, producing a heterogeneous version of a homogeneous graph.
pub fn heterogenize(graph: &Graph, num_node_types: u16, num_edge_types: u16, seed: u64) -> Graph {
    let node_types = assign_random_node_types(graph, num_node_types, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut b = GraphBuilder::with_capacity(graph.num_edges());
    for (src, dst, w) in graph.all_edges() {
        let et = if num_edge_types > 0 {
            rng.gen_range(0..num_edge_types)
        } else {
            0
        };
        b.add_typed_edge(src, dst, w, et);
    }
    b.set_node_types(node_types);
    b.set_num_nodes(graph.num_nodes());
    // all_edges already contains both directions for symmetric graphs
    b.build()
}

/// Reweights a graph's edges by drawing weights from a power-law-ish
/// distribution `w = (1 - u)^(-1/alpha)` (Pareto), producing the skewed
/// unnormalized transition distributions under which the M-H initialization
/// strategies differ (Theorem 3).
pub fn skew_weights(graph: &Graph, alpha: f64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(graph.num_edges());
    for (src, dst, _) in graph.all_edges() {
        let u: f64 = rng.gen_range(0.0..1.0);
        let w = (1.0 - u).powf(-1.0 / alpha) as f32;
        b.add_edge(src, dst, w.max(1e-3));
    }
    b.set_num_nodes(graph.num_nodes());
    b.build()
}

/// Named dataset presets mirroring the shape (|V|, mean degree, #types) of the
/// paper's Table V at configurable scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSpec {
    /// BlogCatalog-like: 10.3K nodes, mean degree ~65, homogeneous.
    BlogCatalogLike,
    /// Flickr-like: 80.5K nodes, mean degree ~147, homogeneous.
    FlickrLike,
    /// Amazon-like: 335K nodes, mean degree ~5.7, homogeneous.
    AmazonLike,
    /// Reddit-like: 231K nodes, mean degree ~50, homogeneous.
    RedditLike,
    /// YouTube-like: 1.1M nodes, mean degree ~5.3, homogeneous.
    YouTubeLike,
    /// LiveJournal-like: 4.8M nodes, mean degree ~18, homogeneous.
    LiveJournalLike,
    /// Twitter-like: 41.6M nodes, mean degree ~70, homogeneous (billion-edge in the paper).
    TwitterLike,
    /// Web-UK-like: 105.9M nodes, mean degree ~63, homogeneous (billion-edge in the paper).
    WebUkLike,
    /// ACM-like: 11.2K nodes, mean degree ~3.1, 3 node types.
    AcmLike,
    /// DBLP-like: 37.8K nodes, mean degree ~9, 3 node types.
    DblpLike,
    /// DBIS-like: 134.1K nodes, mean degree ~4, 3 node types.
    DbisLike,
    /// AMiner-like: 4.9M nodes, mean degree ~5.1, 3 node types.
    AminerLike,
}

impl DatasetSpec {
    /// All presets, in Table V order.
    pub const ALL: [DatasetSpec; 12] = [
        DatasetSpec::BlogCatalogLike,
        DatasetSpec::FlickrLike,
        DatasetSpec::AmazonLike,
        DatasetSpec::RedditLike,
        DatasetSpec::YouTubeLike,
        DatasetSpec::LiveJournalLike,
        DatasetSpec::TwitterLike,
        DatasetSpec::WebUkLike,
        DatasetSpec::AcmLike,
        DatasetSpec::DblpLike,
        DatasetSpec::DbisLike,
        DatasetSpec::AminerLike,
    ];

    /// Display name matching Table V.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSpec::BlogCatalogLike => "BlogCatalog",
            DatasetSpec::FlickrLike => "Flickr",
            DatasetSpec::AmazonLike => "Amazon",
            DatasetSpec::RedditLike => "Reddit",
            DatasetSpec::YouTubeLike => "YouTube",
            DatasetSpec::LiveJournalLike => "LiveJournal",
            DatasetSpec::TwitterLike => "Twitter",
            DatasetSpec::WebUkLike => "Web-UK",
            DatasetSpec::AcmLike => "ACM",
            DatasetSpec::DblpLike => "DBLP",
            DatasetSpec::DbisLike => "DBIS",
            DatasetSpec::AminerLike => "AMiner",
        }
    }

    /// Target node count of the real dataset (Table V).
    pub fn paper_num_nodes(&self) -> usize {
        match self {
            DatasetSpec::BlogCatalogLike => 10_300,
            DatasetSpec::FlickrLike => 80_500,
            DatasetSpec::AmazonLike => 335_000,
            DatasetSpec::RedditLike => 231_000,
            DatasetSpec::YouTubeLike => 1_100_000,
            DatasetSpec::LiveJournalLike => 4_800_000,
            DatasetSpec::TwitterLike => 41_600_000,
            DatasetSpec::WebUkLike => 105_900_000,
            DatasetSpec::AcmLike => 11_200,
            DatasetSpec::DblpLike => 37_800,
            DatasetSpec::DbisLike => 134_100,
            DatasetSpec::AminerLike => 4_900_000,
        }
    }

    /// Mean degree of the real dataset (Table V).
    pub fn paper_mean_degree(&self) -> f64 {
        match self {
            DatasetSpec::BlogCatalogLike => 64.9,
            DatasetSpec::FlickrLike => 146.6,
            DatasetSpec::AmazonLike => 5.67,
            DatasetSpec::RedditLike => 50.21,
            DatasetSpec::YouTubeLike => 5.3,
            DatasetSpec::LiveJournalLike => 17.8,
            DatasetSpec::TwitterLike => 69.7,
            DatasetSpec::WebUkLike => 62.6,
            DatasetSpec::AcmLike => 3.11,
            DatasetSpec::DblpLike => 9.04,
            DatasetSpec::DbisLike => 3.96,
            DatasetSpec::AminerLike => 5.10,
        }
    }

    /// Number of node types (Table V).
    pub fn num_node_types(&self) -> u16 {
        match self {
            DatasetSpec::AcmLike
            | DatasetSpec::DblpLike
            | DatasetSpec::DbisLike
            | DatasetSpec::AminerLike => 3,
            _ => 1,
        }
    }

    /// Generates a synthetic stand-in for this dataset.
    ///
    /// `scale` in (0, 1] shrinks the node count relative to the real dataset
    /// (mean degree is preserved), so large presets remain tractable.
    /// Heterogeneous presets get 3 node types and 4 edge types.
    pub fn generate(&self, scale: f64, seed: u64) -> Graph {
        let n = ((self.paper_num_nodes() as f64 * scale).round() as usize).max(64);
        let mean_degree = self.paper_mean_degree();
        let edges = ((n as f64 * mean_degree) / 2.0).round() as usize;
        let cfg = RmatConfig {
            num_nodes: n,
            num_edges: edges.max(n),
            a: 0.57,
            b: 0.19,
            c: 0.19,
            weighted: true,
            seed,
        };
        let g = rmat(&cfg);
        if self.num_node_types() > 1 {
            heterogenize(&g, self.num_node_types(), 4, seed ^ 0x5151)
        } else {
            g
        }
    }
}

/// Generates a small deterministic "ring + chords" graph, handy for tests and
/// examples: node `i` connects to `i±1` and `i±2` (mod n).
pub fn ring_with_chords(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(2 * n);
    for i in 0..n {
        let j = (i + 1) % n;
        let k = (i + 2) % n;
        b.add_edge(
            i as NodeId,
            j as NodeId,
            1.0 + rng.gen_range(0.0..1.0) as f32,
        );
        b.add_edge(
            i as NodeId,
            k as NodeId,
            1.0 + rng.gen_range(0.0..1.0) as f32,
        );
    }
    b.symmetric(true).dedup(true).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_node_types_in_range() {
        let g = ring_with_chords(50, 1);
        let types = assign_random_node_types(&g, 3, 7);
        assert_eq!(types.len(), 50);
        assert!(types.iter().all(|&t| t < 3));
        // With 50 nodes and 3 types, all types should appear.
        for t in 0..3u16 {
            assert!(types.contains(&t), "type {t} missing");
        }
    }

    #[test]
    fn heterogenize_preserves_structure() {
        let g = ring_with_chords(40, 2);
        let h = heterogenize(&g, 3, 4, 11);
        assert_eq!(h.num_nodes(), g.num_nodes());
        assert_eq!(h.num_edges(), g.num_edges());
        assert!(h.is_heterogeneous());
        assert!(h.num_edge_types() > 0);
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(h.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn skew_weights_changes_weights_not_structure() {
        let g = ring_with_chords(30, 3);
        let s = skew_weights(&g, 1.5, 4);
        assert_eq!(s.num_edges(), g.num_edges());
        assert!(!s.is_unweighted());
        let stats = crate::GraphStats::compute(&s);
        assert!(stats.weight_skew > 1.0);
    }

    #[test]
    fn dataset_specs_generate_scaled_graphs() {
        let spec = DatasetSpec::BlogCatalogLike;
        let g = spec.generate(0.05, 9);
        assert!(g.num_nodes() >= 64);
        assert!(g.num_edges() > g.num_nodes());
        assert_eq!(spec.num_node_types(), 1);
    }

    #[test]
    fn heterogeneous_spec_has_types() {
        let g = DatasetSpec::AcmLike.generate(0.2, 10);
        assert!(g.is_heterogeneous());
        assert_eq!(g.num_node_types(), 3);
    }

    #[test]
    fn all_specs_have_names_and_stats() {
        for spec in DatasetSpec::ALL {
            assert!(!spec.name().is_empty());
            assert!(spec.paper_num_nodes() > 0);
            assert!(spec.paper_mean_degree() > 0.0);
        }
    }

    #[test]
    fn ring_with_chords_is_connectedish() {
        let g = ring_with_chords(20, 5);
        assert_eq!(g.num_nodes(), 20);
        for v in 0..20u32 {
            assert!(g.degree(v) >= 3, "node {v} has degree {}", g.degree(v));
        }
    }
}
