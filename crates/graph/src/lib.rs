//! # uninet-graph
//!
//! Graph substrate for the UniNet framework.
//!
//! This crate provides the in-memory network storage described in Section IV-C
//! of the UniNet paper (ICDE 2021): a compressed-sparse-row (CSR) adjacency
//! structure with optional edge weights, node types and edge types, so that
//! both homogeneous (DeepWalk, node2vec) and heterogeneous (metapath2vec,
//! edge2vec, fairwalk) random-walk models can run over the same storage.
//!
//! It also provides
//! * a [`GraphBuilder`] for constructing graphs from edge lists,
//! * text and binary I/O ([`io`]),
//! * synthetic graph generators ([`generators`]) used to substitute the
//!   paper's eleven real-world datasets (Table V), and
//! * summary statistics ([`stats`]).
//!
//! Within the workspace this crate is the storage plane everything else sits
//! on: `uninet-walker` walks over it, `uninet-dyngraph` wraps it in a delta
//! overlay for streaming updates, and `uninet-core` loads it from edge lists
//! (see `docs/ARCHITECTURE.md` at the repo root for the full picture).
//!
//! ## Example
//!
//! ```
//! use uninet_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 2.0);
//! b.add_edge(2, 0, 1.0);
//! let g = b.symmetric(true).build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 6); // both directions
//! assert_eq!(g.degree(0), 2);
//! ```

pub mod algo;
pub mod builder;
pub mod csr;
pub mod edge;
pub mod generators;
pub mod hetero;
pub mod io;
pub mod prefetch;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::Graph;
pub use edge::{Edge, EdgeRef};
pub use hetero::{Metapath, TypeRegistry};
pub use prefetch::prefetch;
pub use stats::GraphStats;

/// Node identifier. Graphs up to ~4.2 billion nodes are supported.
pub type NodeId = u32;

/// Global edge index into the CSR edge array.
pub type EdgeIdx = usize;

/// Errors produced by graph construction and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node id beyond the declared number of nodes.
    NodeOutOfRange { node: NodeId, num_nodes: usize },
    /// A text line could not be parsed as an edge.
    Parse { line: usize, content: String },
    /// An I/O error occurred while reading or writing a graph file.
    Io(std::io::Error),
    /// A binary snapshot had an invalid header or was truncated.
    Corrupt(String),
    /// An operation required node/edge types but the graph has none.
    MissingTypes(&'static str),
    /// Any of the above, with the file it happened in attached — produced by
    /// the `*_file` loaders so diagnostics name the offending path.
    File {
        /// The graph file involved.
        path: std::path::PathBuf,
        /// The underlying error.
        source: Box<GraphError>,
    },
}

impl GraphError {
    /// Attaches a file path (no-op if one is already attached).
    pub fn with_path<P: AsRef<std::path::Path>>(self, p: P) -> Self {
        match self {
            GraphError::File { .. } => self,
            other => GraphError::File {
                path: p.as_ref().to_path_buf(),
                source: Box::new(other),
            },
        }
    }
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range (num_nodes = {num_nodes})")
            }
            GraphError::Parse { line, content } => {
                write!(f, "cannot parse edge at line {line}: {content:?}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Corrupt(msg) => write!(f, "corrupt graph snapshot: {msg}"),
            GraphError::MissingTypes(what) => write!(f, "graph has no {what} information"),
            GraphError::File { path, source } => {
                write!(f, "graph file {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::File { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
