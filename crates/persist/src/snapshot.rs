//! Binary state snapshots: CSR graph + embedding matrix + sampler state,
//! and the serving index's graph when there is one.
//!
//! # File layout
//!
//! ```text
//! snapshot := "UNSP" u32:version u64:body_len u32:crc32(body) body
//! body     := u64:wal_seq u64:epoch u8:flags sampler graph [embeddings] [live]
//!             [index]
//! flags    := bit0 = graph is symmetric, bit1 = embeddings present,
//!             bit2 = live mask present, bit3 = index present
//! sampler  := u8:kind [u8:init u64:param] u64:seed
//! graph    := u64:n  (n+1)×u64:offsets  e×u32:neighbors  e×f32:weights
//!             u64:nt_len nt_len×u16:node_types  u64:et_len et_len×u16:edge_types
//!             u16:num_node_types u16:num_edge_types
//!             u16:#node_names names*  u16:#edge_names names*
//! embeddings := u64:dim u64:nodes dim·nodes×f32
//! live     := u64:n n×u8(0=retired 1=live)
//! index    := u64:len len×u8
//! ```
//!
//! Version history: v1 had no live-mask section (flags bit2 was never set);
//! v2 added it for open-world sessions; v3 added the trailing index section
//! (flags bit3). Readers accept all three — a v1 snapshot decodes with
//! `live = None`, meaning the whole universe is live, and a v1/v2 snapshot
//! has no index, meaning the serving index is rebuilt on recovery.
//!
//! The index section is the HNSW adjacency that was serving `embeddings`, as
//! an opaque byte string (`uninet_embedding::HnswIndex::export_graph` is its
//! only writer and `import_graph` its only reader, and the latter validates
//! every count, id and level). It sits under the file's one checksum and is
//! written by the same tmp+rename, so a snapshot and its index can never be
//! from different moments. It is the only derived state persisted: norms,
//! normalized rows and int8 codes are an `O(n·d)` pass over the matrix and
//! are recomputed, but the graph is `n` insertions of ~90 µs each — at
//! n = 5 000 the difference between a 0.4 s and an 8 ms restart. The section
//! is optional in both directions: a snapshot without one, or with one the
//! importer refuses, recovers by rebuilding; a section whose length prefix
//! does not account for the rest of the body is dropped, not fatal.
//!
//! Snapshot files are named `snap-<wal_seq, 20 digits>.snap` so a plain
//! lexicographic sort orders them by WAL position, and are written to a
//! temporary name then renamed, so a crash mid-write never leaves a
//! plausible-looking partial snapshot under the real name. Recovery walks the
//! snapshots newest-first and uses the first one whose checksum validates.
//!
//! Sampler state is persisted as *configuration* (strategy + RNG seed), not
//! materialized M-H chains: chains are rebuilt deterministically from
//! graph + seed on recovery, which is both smaller and immune to chain-layout
//! changes across versions.

use std::io::Write;
use std::path::{Path, PathBuf};

use uninet_embedding::Embeddings;
use uninet_graph::{Graph, TypeRegistry};
use uninet_sampler::{EdgeSamplerKind, InitStrategy};

use crate::codec::{crc32, Dec, DecodeError, Enc};
use crate::PersistError;

const SNAP_MAGIC: [u8; 4] = *b"UNSP";
const SNAP_VERSION: u32 = 3;
/// Oldest on-disk version [`read_snapshot`] still decodes.
const SNAP_MIN_VERSION: u32 = 1;

/// Persisted sampler state: enough to rebuild chains deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerState {
    /// Edge-sampling strategy in use.
    pub kind: EdgeSamplerKind,
    /// RNG seed the walk/maintenance plane was configured with.
    pub seed: u64,
}

impl Default for SamplerState {
    fn default() -> Self {
        SamplerState {
            kind: EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact()),
            seed: 0,
        }
    }
}

/// One decoded snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// WAL sequence number this snapshot is consistent with: every record
    /// with `seq <= wal_seq` is already folded into the graph.
    pub wal_seq: u64,
    /// Embedding-store epoch at snapshot time.
    pub epoch: u64,
    /// Whether the dynamic overlay mirrored mutations (undirected updates).
    pub symmetric: bool,
    /// Sampler strategy + seed for deterministic chain rebuild.
    pub sampler: SamplerState,
    /// The compacted CSR graph.
    pub graph: Graph,
    /// The embedding matrix, when one had been published.
    pub embeddings: Option<Embeddings>,
    /// Open-world live mask over the graph's rows (`None` = fully live, the
    /// only state closed-world sessions and v1 snapshots produce). Retired
    /// ids keep their rows; the mask is what excludes them from serving
    /// after recovery.
    pub live: Option<Vec<bool>>,
}

/// A snapshot successfully loaded from disk.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Path of the file that validated.
    pub path: PathBuf,
    /// The decoded snapshot.
    pub snapshot: Snapshot,
    /// The exported graph of the index that was serving
    /// `snapshot.embeddings`, when the file carries one (v3, flags bit3).
    pub index: Option<Vec<u8>>,
    /// Number of newer snapshot files skipped because they failed to
    /// validate (torn or corrupted).
    pub skipped: usize,
}

fn io_err(path: &Path, source: std::io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn corrupt(path: &Path, offset: u64, reason: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        offset,
        reason: reason.into(),
    }
}

/// File name for a snapshot taken at `wal_seq`.
pub fn snapshot_file_name(wal_seq: u64) -> String {
    format!("snap-{wal_seq:020}.snap")
}

fn encode_sampler(e: &mut Enc, s: &SamplerState) {
    match s.kind {
        EdgeSamplerKind::Alias => e.u8(0),
        EdgeSamplerKind::Direct => e.u8(1),
        EdgeSamplerKind::Rejection => e.u8(2),
        EdgeSamplerKind::KnightKing => e.u8(3),
        EdgeSamplerKind::MemoryAware => e.u8(4),
        EdgeSamplerKind::MetropolisHastings(init) => {
            e.u8(5);
            match init {
                InitStrategy::Random => {
                    e.u8(0);
                    e.u64(0);
                }
                InitStrategy::HighWeight { probe } => {
                    e.u8(1);
                    e.u64(probe as u64);
                }
                InitStrategy::BurnIn { iterations } => {
                    e.u8(2);
                    e.u64(iterations as u64);
                }
            }
        }
    }
    e.u64(s.seed);
}

fn decode_sampler(d: &mut Dec) -> Result<SamplerState, DecodeError> {
    let kind = match d.u8()? {
        0 => EdgeSamplerKind::Alias,
        1 => EdgeSamplerKind::Direct,
        2 => EdgeSamplerKind::Rejection,
        3 => EdgeSamplerKind::KnightKing,
        4 => EdgeSamplerKind::MemoryAware,
        5 => {
            let init_tag = d.u8()?;
            let param = d.u64()? as usize;
            let init = match init_tag {
                0 => InitStrategy::Random,
                1 => InitStrategy::HighWeight { probe: param },
                2 => InitStrategy::BurnIn { iterations: param },
                other => {
                    return Err(DecodeError {
                        offset: d.offset(),
                        reason: format!("unknown init strategy tag {other}"),
                    })
                }
            };
            EdgeSamplerKind::MetropolisHastings(init)
        }
        other => {
            return Err(DecodeError {
                offset: d.offset(),
                reason: format!("unknown sampler kind tag {other}"),
            })
        }
    };
    Ok(SamplerState {
        kind,
        seed: d.u64()?,
    })
}

fn encode_graph(e: &mut Enc, g: &Graph) {
    let n = g.num_nodes();
    e.usize(n);
    for &off in g.offsets() {
        e.usize(off);
    }
    for v in 0..n as u32 {
        for &nb in g.neighbors(v) {
            e.u32(nb);
        }
    }
    for v in 0..n as u32 {
        for &w in g.weights(v) {
            e.f32(w);
        }
    }
    e.usize(g.node_types().len());
    for &t in g.node_types() {
        e.u16(t);
    }
    e.usize(g.edge_types().len());
    for &t in g.edge_types() {
        e.u16(t);
    }
    e.u16(g.num_node_types());
    e.u16(g.num_edge_types());
    let reg = g.type_registry();
    e.u16(reg.num_node_type_names() as u16);
    for id in 0..reg.num_node_type_names() as u16 {
        e.str(reg.node_type_name(id).unwrap_or(""));
    }
    e.u16(reg.num_edge_type_names() as u16);
    for id in 0..reg.num_edge_type_names() as u16 {
        e.str(reg.edge_type_name(id).unwrap_or(""));
    }
}

fn decode_graph(d: &mut Dec) -> Result<Graph, DecodeError> {
    // Every count below is checked against the bytes that remain before
    // anything is allocated from it.
    let n = d.counted_len(8, "nodes")?;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(d.usize()?);
    }
    let num_edges = *offsets.last().unwrap_or(&0);
    // A neighbour id and a weight per edge.
    if num_edges > d.remaining() / 8 {
        return Err(DecodeError {
            offset: d.offset(),
            reason: format!(
                "edge count {num_edges} needs more than the {} bytes left",
                d.remaining()
            ),
        });
    }
    // Validate monotonicity before trusting the edge count: from_csr_parts
    // asserts (panics) on inconsistent arrays, so reject here instead.
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            return Err(DecodeError {
                offset: d.offset(),
                reason: "offsets are not monotonically non-decreasing".to_string(),
            });
        }
    }
    let mut neighbors = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        neighbors.push(d.u32()?);
    }
    let mut weights = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        weights.push(d.f32()?);
    }
    let nt_len = d.counted_len(2, "node types")?;
    if nt_len != 0 && nt_len != n {
        return Err(DecodeError {
            offset: d.offset(),
            reason: format!("node_types length {nt_len} matches neither 0 nor {n}"),
        });
    }
    let mut node_types = Vec::with_capacity(nt_len);
    for _ in 0..nt_len {
        node_types.push(d.u16()?);
    }
    let et_len = d.counted_len(2, "edge types")?;
    if et_len != 0 && et_len != num_edges {
        return Err(DecodeError {
            offset: d.offset(),
            reason: format!("edge_types length {et_len} matches neither 0 nor {num_edges}"),
        });
    }
    let mut edge_types = Vec::with_capacity(et_len);
    for _ in 0..et_len {
        edge_types.push(d.u16()?);
    }
    let num_node_types = d.u16()?;
    let num_edge_types = d.u16()?;
    let mut registry = TypeRegistry::new();
    let node_names = d.u16()?;
    for _ in 0..node_names {
        let name = d.str()?;
        registry.node_type_id(&name);
    }
    let edge_names = d.u16()?;
    for _ in 0..edge_names {
        let name = d.str()?;
        registry.edge_type_id(&name);
    }
    Ok(Graph::from_csr_parts(
        offsets,
        neighbors,
        weights,
        node_types,
        edge_types,
        num_node_types,
        num_edge_types,
        registry,
    ))
}

fn encode_body(snap: &Snapshot, index: Option<&[u8]>) -> Vec<u8> {
    let approx = 64
        + snap.graph.num_nodes() * 8
        + snap.graph.num_edges() * 8
        + snap
            .embeddings
            .as_ref()
            .map_or(0, |e| e.num_nodes() * e.dim() * 4)
        + index.map_or(0, |bytes| 8 + bytes.len());
    let mut e = Enc::with_capacity(approx);
    e.u64(snap.wal_seq);
    e.u64(snap.epoch);
    let mut flags = 0u8;
    if snap.symmetric {
        flags |= 1;
    }
    if snap.embeddings.is_some() {
        flags |= 2;
    }
    if snap.live.is_some() {
        flags |= 4;
    }
    if index.is_some() {
        flags |= 8;
    }
    e.u8(flags);
    encode_sampler(&mut e, &snap.sampler);
    encode_graph(&mut e, &snap.graph);
    if let Some(emb) = &snap.embeddings {
        e.usize(emb.dim());
        e.usize(emb.num_nodes());
        for &x in emb.as_flat() {
            e.f32(x);
        }
    }
    if let Some(live) = &snap.live {
        assert_eq!(
            live.len(),
            snap.graph.num_nodes(),
            "live mask length must equal the graph's node count"
        );
        e.usize(live.len());
        for &l in live {
            e.u8(l as u8);
        }
    }
    if let Some(bytes) = index {
        e.usize(bytes.len());
        e.raw(bytes);
    }
    e.into_bytes()
}

fn decode_body(body: &[u8]) -> Result<(Snapshot, Option<Vec<u8>>), DecodeError> {
    let mut d = Dec::new(body);
    let wal_seq = d.u64()?;
    let epoch = d.u64()?;
    let flags = d.u8()?;
    let sampler = decode_sampler(&mut d)?;
    let graph = decode_graph(&mut d)?;
    let embeddings = if flags & 2 != 0 {
        let dim = d.usize()?;
        let nodes = d.usize()?;
        let total = dim
            .checked_mul(nodes)
            .filter(|&total| dim >= 1 && total <= d.remaining() / 4)
            .ok_or_else(|| DecodeError {
                offset: d.offset(),
                reason: format!(
                    "a {nodes}×{dim} embedding matrix does not fit the {} bytes left",
                    d.remaining()
                ),
            })?;
        let mut flat = Vec::with_capacity(total);
        for _ in 0..total {
            flat.push(d.f32()?);
        }
        Some(Embeddings::from_flat(dim, flat))
    } else {
        None
    };
    let live = if flags & 4 != 0 {
        let n = d.counted_len(1, "live mask")?;
        if n != graph.num_nodes() {
            return Err(DecodeError {
                offset: d.offset(),
                reason: format!(
                    "live mask length {n} does not match node count {}",
                    graph.num_nodes()
                ),
            });
        }
        let mut mask = Vec::with_capacity(n);
        for _ in 0..n {
            mask.push(d.u8()? != 0);
        }
        Some(mask)
    } else {
        None
    };
    // The index is the last section and optional to recovery: when its
    // length prefix does not account for exactly the rest of the body, it is
    // dropped and the state in front of it stands.
    let index = if flags & 8 != 0 {
        match d.usize() {
            Ok(len) if len == d.remaining() => Some(d.bytes(len)?.to_vec()),
            _ => None,
        }
    } else {
        d.finish()?;
        None
    };
    let snapshot = Snapshot {
        wal_seq,
        epoch,
        symmetric: flags & 1 != 0,
        sampler,
        graph,
        embeddings,
        live,
    };
    Ok((snapshot, index))
}

/// Writes `snap` into `dir` with no index section, returning the final path.
/// See [`write_snapshot_with_index`].
pub fn write_snapshot(dir: &Path, snap: &Snapshot) -> Result<PathBuf, PersistError> {
    write_snapshot_with_index(dir, snap, None)
}

/// Writes `snap` into `dir`, returning the final path. `index` is the
/// exported graph of the index serving `snap.embeddings`, stored verbatim as
/// the file's trailing section.
///
/// The file is staged under a temporary name and renamed into place, so
/// readers never observe a partially written snapshot under a valid name.
pub fn write_snapshot_with_index(
    dir: &Path,
    snap: &Snapshot,
    index: Option<&[u8]>,
) -> Result<PathBuf, PersistError> {
    let body = encode_body(snap, index);
    let mut out = Vec::with_capacity(body.len() + 20);
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);

    let final_path = dir.join(snapshot_file_name(snap.wal_seq));
    let tmp_path = dir.join(format!(".{}.tmp", snapshot_file_name(snap.wal_seq)));
    let mut f = std::fs::File::create(&tmp_path).map_err(|e| io_err(&tmp_path, e))?;
    f.write_all(&out).map_err(|e| io_err(&tmp_path, e))?;
    f.sync_all().map_err(|e| io_err(&tmp_path, e))?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, e))?;
    // Best-effort directory sync so the rename itself is durable.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Reads and validates one snapshot file, without its index section.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, PersistError> {
    read_snapshot_with_index(path).map(|(snapshot, _)| snapshot)
}

/// Reads and validates one snapshot file; the second value is its index
/// section, when it has one.
fn read_snapshot_with_index(path: &Path) -> Result<(Snapshot, Option<Vec<u8>>), PersistError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < 20 {
        return Err(corrupt(path, 0, "file shorter than the snapshot header"));
    }
    if bytes[..4] != SNAP_MAGIC {
        return Err(corrupt(path, 0, "bad magic (not a UniNet snapshot)"));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if !(SNAP_MIN_VERSION..=SNAP_VERSION).contains(&version) {
        return Err(corrupt(
            path,
            4,
            format!("unsupported snapshot version {version}"),
        ));
    }
    let body_len = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]) as usize;
    let crc = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    if bytes.len() != 20 + body_len {
        return Err(corrupt(
            path,
            8,
            format!(
                "body length {} does not match file size {}",
                body_len,
                bytes.len() - 20
            ),
        ));
    }
    let body = &bytes[20..];
    if crc32(body) != crc {
        return Err(corrupt(path, 16, "snapshot body fails its checksum"));
    }
    let (snap, index) =
        decode_body(body).map_err(|e| corrupt(path, 20 + e.offset as u64, e.reason))?;
    snap.graph
        .validate()
        .map_err(|e| corrupt(path, 20, format!("decoded graph fails validation: {e}")))?;
    Ok((snap, index))
}

/// All snapshot files in `dir`, newest (highest `wal_seq`) first.
pub fn list_snapshots(dir: &Path) -> Result<Vec<PathBuf>, PersistError> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(dir, e)),
    };
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("snap-") && n.ends_with(".snap"))
                .unwrap_or(false)
        })
        .collect();
    // `snap-<zero-padded seq>.snap` sorts lexicographically by WAL position.
    paths.sort();
    paths.reverse();
    Ok(paths)
}

/// Loads the newest snapshot in `dir` that validates, skipping damaged ones.
pub fn latest_valid_snapshot(dir: &Path) -> Result<Option<LoadedSnapshot>, PersistError> {
    let mut skipped = 0;
    for path in list_snapshots(dir)? {
        match read_snapshot_with_index(&path) {
            Ok((snapshot, index)) => {
                return Ok(Some(LoadedSnapshot {
                    path,
                    snapshot,
                    index,
                    skipped,
                }))
            }
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_graph::GraphBuilder;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uninet-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(4);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 0, 1.5);
        b.add_edge(1, 2, 0.25);
        b.add_edge(2, 3, 4.0);
        b.build()
    }

    fn sample_snapshot(wal_seq: u64) -> Snapshot {
        Snapshot {
            wal_seq,
            epoch: 3,
            symmetric: true,
            sampler: SamplerState {
                kind: EdgeSamplerKind::MetropolisHastings(InitStrategy::BurnIn { iterations: 17 }),
                seed: 0xFEED,
            },
            graph: sample_graph(),
            embeddings: Some(Embeddings::from_flat(
                2,
                vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            )),
            live: None,
        }
    }

    fn assert_graph_eq(a: &Graph, b: &Graph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.offsets(), b.offsets());
        for v in 0..a.num_nodes() as u32 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
            assert_eq!(a.weights(v), b.weights(v));
        }
        assert_eq!(a.node_types(), b.node_types());
        assert_eq!(a.edge_types(), b.edge_types());
        assert_eq!(a.num_node_types(), b.num_node_types());
        assert_eq!(a.num_edge_types(), b.num_edge_types());
    }

    /// Rewrites the header's body length and checksum to match the body, so
    /// an edit reaches the decoder behind the checksum.
    fn reseal(file: &mut [u8]) {
        let body_len = (file.len() - 20) as u64;
        file[8..16].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&file[20..]);
        file[16..20].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp_dir("roundtrip");
        let snap = sample_snapshot(42);
        let path = write_snapshot(&dir, &snap).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().contains("42"));
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.wal_seq, 42);
        assert_eq!(back.epoch, 3);
        assert!(back.symmetric);
        assert_eq!(back.sampler, snap.sampler);
        assert_graph_eq(&back.graph, &snap.graph);
        let emb = back.embeddings.unwrap();
        assert_eq!(emb.dim(), 2);
        assert_eq!(emb.as_flat(), snap.embeddings.as_ref().unwrap().as_flat());
    }

    #[test]
    fn snapshot_without_embeddings_round_trips() {
        let dir = tmp_dir("noemb");
        let mut snap = sample_snapshot(7);
        snap.embeddings = None;
        snap.symmetric = false;
        let path = write_snapshot(&dir, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert!(back.embeddings.is_none());
        assert!(!back.symmetric);
    }

    #[test]
    fn heterogeneous_registry_round_trips() {
        let dir = tmp_dir("hetero");
        let mut b = GraphBuilder::new();
        b.set_num_nodes(3);
        let user = b.registry_mut().node_type_id("user");
        let item = b.registry_mut().node_type_id("item");
        let buys = b.registry_mut().edge_type_id("buys");
        let bought_by = b.registry_mut().edge_type_id("bought-by");
        b.set_node_type(0, user);
        b.set_node_type(1, item);
        b.set_node_type(2, user);
        b.add_typed_edge(0, 1, 1.0, buys);
        b.add_typed_edge(1, 2, 2.0, bought_by);
        let graph = b.build();
        let snap = Snapshot {
            wal_seq: 1,
            epoch: 0,
            symmetric: false,
            sampler: SamplerState::default(),
            graph,
            embeddings: None,
            live: None,
        };
        let path = write_snapshot(&dir, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_graph_eq(&back.graph, &snap.graph);
        let reg = back.graph.type_registry();
        assert_eq!(
            reg.node_type_name(0),
            snap.graph.type_registry().node_type_name(0)
        );
        assert_eq!(
            reg.edge_type_name(0),
            snap.graph.type_registry().edge_type_name(0)
        );
    }

    #[test]
    fn live_mask_round_trips() {
        let dir = tmp_dir("live");
        let mut snap = sample_snapshot(9);
        snap.live = Some(vec![true, false, true, true]);
        let path = write_snapshot(&dir, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.live, snap.live);
        assert_eq!(back.wal_seq, 9);
        assert!(back.embeddings.is_some());

        // A mask whose length disagrees with the graph is rejected on read.
        let mut bad = sample_snapshot(10);
        bad.live = Some(vec![true; 4]);
        let path = write_snapshot(&dir, &bad).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Shrink the mask to 3 entries (last 12 bytes are u64:len + 4 mask
        // bytes): drop the final mask byte, rewrite len, re-checksum.
        bytes.pop();
        let len_pos = bytes.len() - 11;
        bytes[len_pos..len_pos + 8].copy_from_slice(&3u64.to_le_bytes());
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn v1_snapshots_still_decode() {
        // A v1 file is byte-identical to a v2 file without the live section;
        // only the header version differs. Old builds never set flag bit2.
        let dir = tmp_dir("v1-compat");
        let snap = sample_snapshot(5);
        let path = write_snapshot(&dir, &snap).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.live, None, "v1 snapshots are fully live");
        assert_graph_eq(&back.graph, &snap.graph);

        // A version from the future is still rejected.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn index_section_round_trips_and_is_optional() {
        let dir = tmp_dir("index");
        let snap = sample_snapshot(11);
        let graph_bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let path = write_snapshot_with_index(&dir, &snap, Some(&graph_bytes)).unwrap();
        let loaded = latest_valid_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.path, path);
        assert_eq!(loaded.index.as_deref(), Some(graph_bytes.as_slice()));
        assert_eq!(loaded.snapshot.wal_seq, 11);
        assert_eq!(
            loaded.snapshot.embeddings.unwrap().as_flat(),
            snap.embeddings.as_ref().unwrap().as_flat()
        );
        // An empty section is still a section.
        write_snapshot_with_index(&dir, &snap, Some(&[])).unwrap();
        let loaded = latest_valid_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.index, Some(Vec::new()));
        // `write_snapshot` is the no-index case of the same writer.
        write_snapshot(&dir, &snap).unwrap();
        assert_eq!(latest_valid_snapshot(&dir).unwrap().unwrap().index, None);
    }

    #[test]
    fn index_section_with_a_lying_length_is_dropped_not_fatal() {
        let dir = tmp_dir("index-len");
        let snap = sample_snapshot(12);
        let path = write_snapshot_with_index(&dir, &snap, Some(&[7; 40])).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // The section is the body's tail: u64:len then the bytes.
        let len_pos = clean.len() - 40 - 8;
        for lie in [39u64, 41, 0, u64::MAX] {
            let mut bytes = clean.clone();
            bytes[len_pos..len_pos + 8].copy_from_slice(&lie.to_le_bytes());
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let loaded = latest_valid_snapshot(&dir).unwrap().unwrap();
            assert_eq!(loaded.skipped, 0, "len {lie}: the snapshot itself stands");
            assert_eq!(loaded.index, None, "len {lie}");
            assert_eq!(loaded.snapshot.epoch, 3);
        }
        // Cut off inside the length prefix itself.
        let mut bytes = clean[..len_pos + 3].to_vec();
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(latest_valid_snapshot(&dir).unwrap().unwrap().index, None);
    }

    #[test]
    fn counts_the_file_cannot_back_are_corrupt_not_allocations() {
        let dir = tmp_dir("lying-counts");
        let snap = sample_snapshot(13);
        let path = write_snapshot(&dir, &snap).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Header, then wal_seq + epoch + flags, then the sampler: the graph's
        // node count follows; the embedding section follows the graph.
        let mut e = Enc::new();
        encode_sampler(&mut e, &snap.sampler);
        let nodes_at = 20 + 17 + e.len();
        encode_graph(&mut e, &snap.graph);
        let dim_at = 20 + 17 + e.len();
        let reseal_and_read = |at: usize, v: u64| {
            let mut bytes = clean.clone();
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            read_snapshot(&path)
        };
        for (what, at, v) in [
            ("node count", nodes_at, 1u64 << 40),
            ("node count", nodes_at, u64::MAX),
            ("first offset", nodes_at + 8, 1 << 40),
            ("dim", dim_at, 0),
            ("dim", dim_at, 1 << 40),
            ("dim", dim_at, u64::MAX),
            ("rows", dim_at + 8, 1 << 40),
            ("rows", dim_at + 8, u64::MAX / 2),
        ] {
            assert!(
                matches!(reseal_and_read(at, v), Err(PersistError::Corrupt { .. })),
                "{what} = {v} must be refused"
            );
        }
        assert!(
            reseal_and_read(dim_at, 2).is_ok(),
            "the offsets are the right ones"
        );
    }

    #[test]
    fn a_file_written_by_the_v2_writer_still_decodes() {
        // Written by the commit before the index section existed, with the
        // state of `sample_snapshot` plus a live mask.
        const V2: &[u8] = include_bytes!("../tests/fixtures/v2-snap-00000000000000000007.snap");
        assert_eq!(V2[4..8], 2u32.to_le_bytes());
        let dir = tmp_dir("v2-fixture");
        std::fs::write(dir.join(snapshot_file_name(7)), V2).unwrap();
        let loaded = latest_valid_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.index, None, "v2 files have no index: rebuild");
        let want = sample_snapshot(7);
        let got = loaded.snapshot;
        assert_eq!((got.wal_seq, got.epoch, got.symmetric), (7, 3, true));
        assert_eq!(got.sampler, want.sampler);
        assert_graph_eq(&got.graph, &want.graph);
        assert_eq!(
            got.embeddings.unwrap().as_flat(),
            want.embeddings.unwrap().as_flat()
        );
        assert_eq!(got.live, Some(vec![true, false, true, true]));
        // Re-encoding the same state without an index differs from the v2
        // file in the version field (and so the checksum is unchanged: it
        // covers the body only).
        let path = write_snapshot(
            &dir,
            &Snapshot {
                live: Some(vec![true, false, true, true]),
                ..sample_snapshot(7)
            },
        )
        .unwrap();
        let v3 = std::fs::read(path).unwrap();
        assert_eq!(v3[4..8], 3u32.to_le_bytes());
        assert_eq!(v3[8..], V2[8..]);
    }

    #[test]
    fn corrupted_snapshot_is_rejected_and_skipped() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, &sample_snapshot(1)).unwrap();
        let newest = write_snapshot(&dir, &sample_snapshot(2)).unwrap();
        // Flip a byte in the newest snapshot's body.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&newest),
            Err(PersistError::Corrupt { .. })
        ));
        // latest_valid_snapshot falls back to the older valid one.
        let loaded = latest_valid_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.snapshot.wal_seq, 1);
        assert_eq!(loaded.skipped, 1);
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmp_dir("empty");
        assert!(latest_valid_snapshot(&dir).unwrap().is_none());
        assert!(list_snapshots(&dir).unwrap().is_empty());
    }
}
