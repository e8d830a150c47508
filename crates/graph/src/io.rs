//! Reading and writing graphs.
//!
//! Two formats are supported:
//! * a plain-text edge list (`src dst [weight] [edge_type]`, whitespace
//!   separated, `#`-prefixed comment lines ignored) compatible with the
//!   formats used by the DeepWalk / node2vec reference implementations, and
//! * a compact little-endian binary snapshot of the CSR arrays, useful for
//!   caching large generated graphs between benchmark runs.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::hetero::TypeRegistry;
use crate::{GraphError, NodeId, Result};

/// Magic bytes identifying a binary graph snapshot.
const MAGIC: &[u8; 8] = b"UNINETG1";

/// Options controlling edge-list parsing.
#[derive(Debug, Clone, Copy)]
pub struct EdgeListOptions {
    /// Treat the input as undirected (mirror every edge).
    pub symmetric: bool,
    /// Merge duplicate edges by summing weights.
    pub dedup: bool,
    /// Default weight when a line has no weight column.
    pub default_weight: f32,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            symmetric: true,
            dedup: false,
            default_weight: 1.0,
        }
    }
}

/// Parses an edge list from any reader.
pub fn read_edge_list<R: Read>(reader: R, opts: EdgeListOptions) -> Result<Graph> {
    let mut builder = GraphBuilder::new();
    builder.symmetric(opts.symmetric).dedup(opts.dedup);
    let buf = BufReader::new(reader);
    let mut line_buf = String::new();
    let mut reader = buf;
    let mut line_no = 0usize;
    loop {
        line_buf.clear();
        let n = reader.read_line(&mut line_buf)?;
        if n == 0 {
            break;
        }
        line_no += 1;
        let line = line_buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let src = parse_node(it.next(), line_no, line)?;
        let dst = parse_node(it.next(), line_no, line)?;
        let weight = match it.next() {
            Some(tok) => tok.parse::<f32>().map_err(|_| GraphError::Parse {
                line: line_no,
                content: line.to_string(),
            })?,
            None => opts.default_weight,
        };
        match it.next() {
            Some(tok) => {
                let et = tok.parse::<u16>().map_err(|_| GraphError::Parse {
                    line: line_no,
                    content: line.to_string(),
                })?;
                builder.add_typed_edge(src, dst, weight, et);
            }
            None => {
                builder.add_edge(src, dst, weight);
            }
        }
    }
    Ok(builder.build())
}

fn parse_node(tok: Option<&str>, line: usize, content: &str) -> Result<NodeId> {
    tok.and_then(|t| t.parse::<NodeId>().ok())
        .ok_or_else(|| GraphError::Parse {
            line,
            content: content.to_string(),
        })
}

/// Reads an edge-list file from disk; errors carry the path for context.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P, opts: EdgeListOptions) -> Result<Graph> {
    let path = path.as_ref();
    let attach = |e: GraphError| e.with_path(path);
    let file = std::fs::File::open(path)
        .map_err(GraphError::from)
        .map_err(attach)?;
    read_edge_list(file, opts).map_err(attach)
}

/// Writes the graph as a plain-text edge list (`src dst weight`), one directed
/// edge per line.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    for (src, dst, weight) in graph.all_edges() {
        writeln!(w, "{src} {dst} {weight}")?;
    }
    w.flush()?;
    Ok(())
}

/// Serializes the graph into a binary snapshot.
pub fn to_bytes(graph: &Graph) -> Bytes {
    let mut buf = BytesMut::with_capacity(graph.memory_bytes() + 64);
    buf.put_slice(MAGIC);
    buf.put_u64_le(graph.num_nodes() as u64);
    buf.put_u64_le(graph.num_edges() as u64);
    buf.put_u16_le(graph.num_node_types());
    buf.put_u16_le(graph.num_edge_types());
    let has_node_types = !graph.raw_node_types().is_empty();
    let has_edge_types = !graph.raw_edge_types().is_empty();
    buf.put_u8(u8::from(has_node_types));
    buf.put_u8(u8::from(has_edge_types));
    for v in 0..=graph.num_nodes() {
        buf.put_u64_le(graph.offsets()[v] as u64);
    }
    for &n in graph.raw_neighbors() {
        buf.put_u32_le(n);
    }
    for &w in graph.raw_weights() {
        buf.put_f32_le(w);
    }
    if has_node_types {
        for &t in graph.raw_node_types() {
            buf.put_u16_le(t);
        }
    }
    if has_edge_types {
        for &t in graph.raw_edge_types() {
            buf.put_u16_le(t);
        }
    }
    buf.freeze()
}

/// Deserializes a graph from a binary snapshot produced by [`to_bytes`].
pub fn from_bytes(mut data: &[u8]) -> Result<Graph> {
    if data.len() < 8 || &data[..8] != MAGIC {
        return Err(GraphError::Corrupt("missing magic header".into()));
    }
    data.advance(8);
    if data.remaining() < 8 * 2 + 2 * 2 + 2 {
        return Err(GraphError::Corrupt("truncated header".into()));
    }
    let num_nodes = data.get_u64_le() as usize;
    let num_edges = data.get_u64_le() as usize;
    let num_node_types = data.get_u16_le();
    let num_edge_types = data.get_u16_le();
    let has_node_types = data.get_u8() != 0;
    let has_edge_types = data.get_u8() != 0;

    let need = (num_nodes + 1) * 8
        + num_edges * 4
        + num_edges * 4
        + if has_node_types { num_nodes * 2 } else { 0 }
        + if has_edge_types { num_edges * 2 } else { 0 };
    if data.remaining() < need {
        return Err(GraphError::Corrupt(format!(
            "truncated body: need {need} bytes, have {}",
            data.remaining()
        )));
    }

    let mut offsets = Vec::with_capacity(num_nodes + 1);
    for _ in 0..=num_nodes {
        offsets.push(data.get_u64_le() as usize);
    }
    let mut neighbors = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        neighbors.push(data.get_u32_le());
    }
    let mut weights = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        weights.push(data.get_f32_le());
    }
    let mut node_types = Vec::new();
    if has_node_types {
        node_types.reserve(num_nodes);
        for _ in 0..num_nodes {
            node_types.push(data.get_u16_le());
        }
    }
    let mut edge_types = Vec::new();
    if has_edge_types {
        edge_types.reserve(num_edges);
        for _ in 0..num_edges {
            edge_types.push(data.get_u16_le());
        }
    }

    if *offsets.last().unwrap_or(&0) != num_edges {
        return Err(GraphError::Corrupt(
            "offset array inconsistent with edge count".into(),
        ));
    }
    let g = Graph::from_csr_parts(
        offsets,
        neighbors,
        weights,
        node_types,
        edge_types,
        num_node_types,
        num_edge_types,
        TypeRegistry::new(),
    );
    g.validate()?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_typed_edge(0, 1, 1.0, 0);
        b.add_typed_edge(1, 2, 2.0, 1);
        b.add_typed_edge(2, 3, 0.5, 0);
        b.set_node_types(vec![0, 1, 0, 1]);
        b.symmetric(true).build()
    }

    #[test]
    fn edge_list_roundtrip() {
        let text = "# a comment\n0 1 2.5\n1 2\n% another comment\n2 0 1.5\n";
        let g = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.weight_at(0, g.find_neighbor(0, 1).unwrap()), 2.5);
        assert_eq!(g.weight_at(1, g.find_neighbor(1, 2).unwrap()), 1.0);

        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(
            out.as_slice(),
            EdgeListOptions {
                symmetric: false,
                dedup: false,
                default_weight: 1.0,
            },
        )
        .unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.num_nodes(), g.num_nodes());
    }

    #[test]
    fn edge_list_with_types() {
        let text = "0 1 1.0 2\n1 2 1.0 0\n";
        let g = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_edge_types(), 3);
        assert_eq!(g.edge_type_at(0, 0), 2);
    }

    #[test]
    fn edge_list_parse_error_reports_line() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let g = sample_graph();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.num_node_types(), g.num_node_types());
        assert_eq!(g2.num_edge_types(), g.num_edge_types());
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
            assert_eq!(g2.weights(v), g.weights(v));
            assert_eq!(g2.node_type(v), g.node_type(v));
            assert_eq!(g2.edge_types_of(v), g.edge_types_of(v));
        }
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_bytes(b"garbage").is_err());
        let g = sample_graph();
        let bytes = to_bytes(&g);
        // Truncate the body.
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }
}
