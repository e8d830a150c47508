//! Shared harness utilities for the experiment binaries that regenerate the
//! tables and figures of the UniNet paper.
//!
//! Every experiment binary (`exp_table2`, `exp_fig1`, …) follows the same
//! pattern: build the synthetic stand-in datasets at a configurable scale, run
//! the sweep, and print (plus write to `results/`) a markdown table whose rows
//! mirror the corresponding artifact in the paper.
//!
//! Scale is controlled by two environment variables so the same binaries serve
//! both smoke tests and longer runs:
//!
//! * `UNINET_SCALE` — multiplier on dataset sizes (default 1.0 = the harness
//!   defaults, which are laptop-sized, *not* the paper's billion-edge runs),
//! * `UNINET_QUICK` — when set to `1`, cuts walk counts/lengths for CI-speed
//!   smoke runs.
//!
//! Besides the scale knobs, the crate provides the synthetic dataset registry
//! (stand-ins for the paper's datasets at any scale).
//!
//! ```
//! use uninet_bench::HarnessConfig;
//!
//! let cfg = HarnessConfig::from_env();
//! assert!(cfg.scale > 0.0);
//! ```

use std::path::PathBuf;

use uninet_core::Table;
use uninet_graph::generators::{
    heterogenize, planted_partition, rmat, LabeledGraph, PlantedPartitionConfig, RmatConfig,
};
use uninet_graph::Graph;

/// Harness-wide scale/quick settings.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Multiplier on the default dataset sizes.
    pub scale: f64,
    /// Reduced walk counts for smoke runs.
    pub quick: bool,
}

impl HarnessConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let scale = std::env::var("UNINET_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0)
            .unwrap_or(1.0);
        let quick = std::env::var("UNINET_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
        HarnessConfig { scale, quick }
    }

    /// Number of walks per node to use (paper default 10, quick 2).
    pub fn num_walks(&self) -> usize {
        if self.quick {
            2
        } else {
            10
        }
    }

    /// Walk length to use (paper default 80, quick 20).
    pub fn walk_length(&self) -> usize {
        if self.quick {
            20
        } else {
            80
        }
    }

    /// Scales a node count.
    pub fn nodes(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(64)
    }
}

/// A named benchmark dataset (graph + display name).
pub struct BenchDataset {
    /// Display name matching the paper's tables.
    pub name: &'static str,
    /// The synthetic graph.
    pub graph: Graph,
}

/// Builds a weighted R-MAT graph with roughly `nodes` nodes and the given mean
/// degree — the stand-in shape for the paper's social/web graphs.
pub fn social_graph(nodes: usize, mean_degree: f64, seed: u64) -> Graph {
    rmat(&RmatConfig {
        num_nodes: nodes,
        num_edges: ((nodes as f64 * mean_degree) / 2.0) as usize,
        weighted: true,
        seed,
        ..Default::default()
    })
}

/// Builds a heterogeneous version of [`social_graph`] with 3 node types and 4
/// edge types (the AMiner/ACM-style shape).
pub fn hetero_graph(nodes: usize, mean_degree: f64, seed: u64) -> Graph {
    heterogenize(&social_graph(nodes, mean_degree, seed), 3, 4, seed ^ 0xABCD)
}

/// The homogeneous datasets used by the small/medium efficiency experiments
/// (Table VI upper blocks), scaled by the harness config.
pub fn small_homogeneous_suite(cfg: &HarnessConfig) -> Vec<BenchDataset> {
    vec![
        BenchDataset {
            name: "BlogCatalog",
            graph: social_graph(cfg.nodes(4_000), 20.0, 1),
        },
        BenchDataset {
            name: "Flickr",
            graph: social_graph(cfg.nodes(8_000), 40.0, 2),
        },
        BenchDataset {
            name: "Amazon",
            graph: social_graph(cfg.nodes(12_000), 6.0, 3),
        },
        BenchDataset {
            name: "Reddit",
            graph: social_graph(cfg.nodes(10_000), 25.0, 4),
        },
    ]
}

/// The heterogeneous datasets (Table VI lower blocks).
pub fn small_heterogeneous_suite(cfg: &HarnessConfig) -> Vec<BenchDataset> {
    vec![
        BenchDataset {
            name: "ACM",
            graph: hetero_graph(cfg.nodes(3_000), 4.0, 5),
        },
        BenchDataset {
            name: "DBLP",
            graph: hetero_graph(cfg.nodes(6_000), 9.0, 6),
        },
        BenchDataset {
            name: "DBIS",
            graph: hetero_graph(cfg.nodes(9_000), 4.0, 7),
        },
        BenchDataset {
            name: "AMiner",
            graph: hetero_graph(cfg.nodes(12_000), 6.0, 8),
        },
    ]
}

/// The two "billion-edge" stand-ins (Table VII / Figures 6-7). At scale 1.0
/// these are tens of thousands of nodes — the largest sizes that keep the full
/// sampler comparison tractable in CI; raise `UNINET_SCALE` to grow them.
pub fn large_suite(cfg: &HarnessConfig) -> Vec<BenchDataset> {
    vec![
        BenchDataset {
            name: "Twitter(sim)",
            graph: social_graph(cfg.nodes(30_000), 35.0, 9),
        },
        BenchDataset {
            name: "Web-UK(sim)",
            graph: social_graph(cfg.nodes(50_000), 30.0, 10),
        },
    ]
}

/// Labeled datasets for the accuracy study (Figure 5).
pub fn labeled_suite(cfg: &HarnessConfig) -> Vec<(&'static str, LabeledGraph)> {
    let mk = |name: &'static str, nodes: usize, k: usize, intra: f64, inter: f64, seed: u64| {
        (
            name,
            planted_partition(&PlantedPartitionConfig {
                num_nodes: cfg.nodes(nodes),
                num_communities: k,
                intra_degree: intra,
                inter_degree: inter,
                multi_label_prob: 0.2,
                seed,
            }),
        )
    };
    vec![
        mk("BlogCatalog", 2_000, 8, 16.0, 4.0, 11),
        mk("Flickr", 4_000, 10, 24.0, 6.0, 12),
        mk("Reddit", 3_000, 6, 20.0, 4.0, 13),
        mk("AMiner", 3_000, 8, 12.0, 3.0, 14),
    ]
}

/// Directory where experiment outputs are written (`results/` at the repo root
/// or the current directory when run elsewhere).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Prints a table to stdout and writes it under `results/<file>.md`.
pub fn emit(table: &Table, file: &str) {
    println!("{}", table.render_markdown());
    let path = results_dir().join(format!("{file}.md"));
    if let Err(e) = table.write_markdown(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("written to {}\n", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_config_defaults() {
        let cfg = HarnessConfig {
            scale: 1.0,
            quick: false,
        };
        assert_eq!(cfg.num_walks(), 10);
        assert_eq!(cfg.walk_length(), 80);
        assert_eq!(cfg.nodes(1000), 1000);
        let quick = HarnessConfig {
            scale: 0.01,
            quick: true,
        };
        assert_eq!(quick.num_walks(), 2);
        assert_eq!(quick.nodes(1000), 64);
    }

    #[test]
    fn suites_generate_graphs() {
        let cfg = HarnessConfig {
            scale: 0.02,
            quick: true,
        };
        for ds in small_homogeneous_suite(&cfg) {
            assert!(ds.graph.num_nodes() >= 64, "{}", ds.name);
            assert!(ds.graph.num_edges() > 0);
        }
        for ds in small_heterogeneous_suite(&cfg) {
            assert!(ds.graph.is_heterogeneous(), "{}", ds.name);
        }
        for (_, lg) in labeled_suite(&cfg) {
            assert_eq!(lg.labels.len(), lg.graph.num_nodes());
        }
        assert_eq!(large_suite(&cfg).len(), 2);
    }
}
