//! Approximate nearest-neighbour search over embedding snapshots.
//!
//! The serving path's exact `top_k` is a full scan: every query touches all
//! `n` vectors (`O(n·d)` per query), which caps the query service far below
//! the millions-of-users traffic the engine targets. This module provides an
//! [`HnswIndex`] — a Hierarchical Navigable Small World graph (Malkov &
//! Yashunin, 2016) built once per published snapshot — that answers the same
//! cosine top-k queries in roughly `O(log n · d)` by greedy descent through a
//! layered proximity graph.
//!
//! Design points:
//!
//! * **Immutable after build.** The index is constructed alongside a
//!   snapshot's norms (outside the store's write lock) and never mutated
//!   afterwards, so concurrent readers share it without synchronization.
//! * **Deterministic, for any thread count.** A node's layer is a pure hash
//!   of `(AnnConfig::seed, node id)` — not a draw from a sequential RNG — so
//!   a node keeps its layer across rebuilds and
//!   [`HnswIndex::build_incremental`] can graft an old graph onto a new epoch
//!   without reshuffling levels. Two builds over the same vectors produce the
//!   same graph, byte for byte, whatever [`AnnConfig::threads`] is.
//! * **Batch-parallel construction.** Every build — full, masked or grafted
//!   — runs one routine (ParlayANN's deterministic prefix-doubling batch
//!   insertion, Manohar et al., PPoPP 2024). The first node seeds the graph;
//!   after that nodes go in batches of `min(nodes indexed so far, ~n/50)`
//!   (1, 1, 2, 4, … then the cap; a graft counts its kept nodes as indexed).
//!   Each node of a batch plans its per-layer links against the graph as the
//!   batch found it, in parallel and read-only; then every forward and
//!   reverse link of the batch is grouped by `(node, layer)` in a fixed
//!   order, merged, and each list over its cap is pruned once by the
//!   diversity heuristic, again in parallel. No thread's work depends on
//!   another's, which is what makes the graph independent of the thread
//!   count.
//! * **Cosine via normalization.** Vectors are L2-normalized at build time,
//!   so similarity is one [`kernels::dot`] — the same SIMD-dispatched kernel
//!   the exact scan uses — and results carry the same cosine scores.
//! * **Optional int8 traversal.** With [`AnnConfig::quantize`] the index also
//!   carries a [`QuantizedMatrix`] of the normalized vectors; queries walk the
//!   graph scoring candidates in int8 and re-score only the top
//!   `k · rerank` candidates in f32, so reported similarities stay exact.
//! * **Only the graph is worth persisting.** [`HnswIndex::export_graph`]
//!   writes the adjacency lists, the entry point and the build parameters;
//!   normalized rows, norms and int8 codes are an `O(n·d)` pass over the
//!   matrix and are recomputed by [`HnswIndex::import_graph`], which
//!   validates every count, id and level it reads before trusting it. A
//!   restart then costs a decode instead of a build. The thread count is not
//!   part of a graph's identity: it is neither written nor compared.
//!
//! ```
//! use uninet_embedding::{AnnConfig, Embeddings, HnswIndex};
//!
//! let emb = Embeddings::from_flat(2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0]);
//! let index = HnswIndex::build(&emb, &AnnConfig::default());
//! let hits = index.search_node(0, 1);
//! assert_eq!(hits[0].0, 1); // node 1 points almost the same way as node 0
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::kernels;
use crate::quant::QuantizedMatrix;
use crate::Embeddings;

/// Hard cap on HNSW layer count; with `m >= 2` the level sampler reaches
/// this only with astronomically small probability.
const MAX_LEVEL: usize = 16;

/// A construction batch holds at most `1/BATCH_DIVISOR` of the finished
/// graph: nodes of one batch cannot see each other while they plan, so the
/// cap bounds how much of the graph is built blind.
const BATCH_DIVISOR: usize = 50;

/// How an embedding query selects its top-k candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Brute-force scan over every vector: exact results, `O(n·d)` per query.
    Exact,
    /// HNSW graph search: approximate results in `O(log n · d)`-ish time,
    /// falling back to the exact scan when the snapshot carries no index.
    #[default]
    Ann,
}

/// HNSW construction and search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnConfig {
    /// Maximum neighbours kept per node on the upper layers (layer 0 keeps
    /// `2·m`). Higher values trade memory and build time for recall.
    pub m: usize,
    /// Beam width of the candidate search during construction; must be at
    /// least `m`.
    pub ef_construction: usize,
    /// Default beam width during queries (raised to `k` when `k` is larger);
    /// the recall/latency knob.
    pub ef_search: usize,
    /// Seed of the deterministic per-node layer hash.
    pub seed: u64,
    /// Score candidates in int8 during traversal and exact scans, re-scoring
    /// only the top slice in f32. Cuts scan bandwidth 4x; reported scores
    /// stay exact f32.
    pub quantize: bool,
    /// With [`quantize`](Self::quantize): how many candidates per requested
    /// result are re-scored in f32 (`k · rerank`, clamped to the beam).
    pub rerank: usize,
    /// Reuse the previous epoch's graph on publish, re-inserting only nodes
    /// whose vectors drifted (plus new/retired nodes), instead of rebuilding
    /// from scratch.
    pub incremental: bool,
    /// L2 distance between a node's old and new *normalized* vectors above
    /// which an incremental build re-inserts it. 0 re-inserts on any change.
    pub drift_threshold: f32,
    /// Threads a build runs on (0 counts as 1). The graph is the same for
    /// every value, so this is not part of an exported graph's identity.
    pub threads: usize,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 42,
            quantize: false,
            rerank: 4,
            incremental: true,
            drift_threshold: 0.05,
            threads: 1,
        }
    }
}

/// What one [`HnswIndex::build_incremental`] reused versus rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Nodes whose graph links were carried over unchanged.
    pub reused: usize,
    /// Existing nodes re-inserted because their vector drifted past the
    /// threshold.
    pub reinserted: usize,
    /// Nodes beyond the previous epoch's range, inserted fresh.
    pub added: usize,
    /// Previous-epoch nodes no longer present; their ids were filtered out of
    /// every surviving adjacency list.
    pub retired: usize,
}

/// An `(f32 score, node id)` pair ordered as "bigger score is better" with
/// NaN collapsed to equality and ids as the tie-break, so it can live in
/// heaps. Shared by the ANN search here and the exact scan in `store.rs` —
/// both paths must break ties identically.
#[derive(PartialEq, Clone, Copy)]
pub(crate) struct Sim(pub(crate) f32, pub(crate) u32);

impl Eq for Sim {}
impl PartialOrd for Sim {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sim {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.1.cmp(&other.1))
    }
}

/// A generation-stamped visited set: `clear` is O(1), so one allocation
/// serves every layer of a search (and every planned node of a build).
struct Visited {
    stamp: Vec<u32>,
    gen: u32,
}

impl Visited {
    fn new(n: usize) -> Self {
        Visited {
            stamp: vec![0; n],
            gen: 0,
        }
    }

    /// Grows the set to cover `n` nodes; existing stamps stay valid because
    /// `clear` always moves to a generation no old stamp can carry.
    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    fn clear(&mut self) {
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// Marks `v` visited; returns `true` when it was already marked.
    fn test_and_set(&mut self, v: u32) -> bool {
        let slot = &mut self.stamp[v as usize];
        let seen = *slot == self.gen;
        *slot = self.gen;
        seen
    }
}

/// Working memory of the beam search, reused by every layer of every search
/// a thread runs, so a search allocates nothing once it is warm.
struct SearchScratch {
    visited: Visited,
    /// Max-heap of the frontier.
    candidates: BinaryHeap<Sim>,
    /// Min-heap of the best `ef` found so far.
    results: BinaryHeap<Reverse<Sim>>,
    /// The entry points going into [`HnswIndex::search_layer`]; its answer,
    /// best first, coming out.
    beam: Vec<Sim>,
}

impl SearchScratch {
    fn new(n: usize) -> Self {
        SearchScratch {
            visited: Visited::new(n),
            candidates: BinaryHeap::new(),
            results: BinaryHeap::new(),
            beam: Vec::new(),
        }
    }
}

/// One link a construction batch asks for:
/// `(owner, layer, batch position of the planning node, rank in its
/// selection, target)`. The first four fields are unique per request, so
/// sorting groups each list's additions together in an order no thread
/// count can change.
type LinkRequest = (u32, u32, u32, u32, u32);

/// One construction worker's memory, allocated once per build and reused by
/// every batch.
struct BuildScratch {
    search: SearchScratch,
    /// Candidates handed to `select_neighbors`, and its two outputs.
    pool: Vec<Sim>,
    selected: Vec<Sim>,
    skipped: Vec<Sim>,
    /// Plan-phase output.
    requests: Vec<LinkRequest>,
    /// Prune-phase output: `(owner, layer, len)` per pruned list, the kept
    /// ids of all of them back to back in `kept`.
    pruned: Vec<(u32, u32, u32)>,
    kept: Vec<u32>,
}

impl BuildScratch {
    fn new(n: usize) -> Self {
        BuildScratch {
            search: SearchScratch::new(n),
            pool: Vec::new(),
            selected: Vec::new(),
            skipped: Vec::new(),
            requests: Vec::new(),
            pruned: Vec::new(),
            kept: Vec::new(),
        }
    }
}

/// Runs `work(scratch, i)` for every `i in 0..len` on up to `workers.len()`
/// threads, each with its own scratch. Indices are handed out one at a time
/// through a shared cursor: the costly items (old nodes with full lists) are
/// not spread evenly over the index range, so fixed chunks would leave one
/// thread with most of them.
fn par_for<S: Send>(workers: &mut [S], len: usize, work: impl Fn(&mut S, usize) + Sync) {
    let cursor = AtomicUsize::new(0);
    let drain = |scratch: &mut S| loop {
        // Relaxed: the cursor publishes nothing but the index; results travel
        // through each worker's scratch, ordered by the scope's join.
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            break;
        }
        work(scratch, i);
    };
    let used = workers.len().min(len);
    let Some((own, helpers)) = workers[..used].split_first_mut() else {
        return;
    };
    let drain = &drain;
    std::thread::scope(|scope| {
        for scratch in helpers {
            scope.spawn(move || drain(scratch));
        }
        drain(own);
    });
}

/// A query the beam search can score nodes against: the f32 normalized vector
/// (construction, unquantized search) or its int8 codes (quantized search).
enum QueryRef<'a> {
    F32(&'a [f32]),
    I8 { codes: &'a [i8], scale: f32 },
}

/// Magic and format number of an exported graph (see
/// [`HnswIndex::export_graph`] for the layout).
const GRAPH_MAGIC: [u8; 4] = *b"UNHG";
const GRAPH_FORMAT: u32 = 1;

/// Why [`HnswIndex::import_graph`] refused a byte string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphImportError {
    /// The bytes are not a well-formed graph: truncated, a count that the
    /// remaining bytes cannot hold, a neighbour id out of range or not
    /// indexed on that layer, a node on the wrong number of layers, an
    /// over-long list, or an entry point that is not the top node.
    Corrupt {
        /// Byte offset at which validation failed.
        offset: usize,
        /// What failed to validate.
        reason: String,
    },
    /// A well-formed graph, but over a different number of rows or built
    /// with a different `(m, ef_construction, seed)` than the importer's:
    /// its levels and links do not belong to this index.
    Mismatch {
        /// Which parameter differs, with both values.
        reason: String,
    },
}

impl std::fmt::Display for GraphImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphImportError::Corrupt { offset, reason } => {
                write!(f, "corrupt HNSW graph at byte {offset}: {reason}")
            }
            GraphImportError::Mismatch { reason } => {
                write!(f, "HNSW graph does not match this index: {reason}")
            }
        }
    }
}

impl std::error::Error for GraphImportError {}

/// Bounds-checked little-endian cursor over an exported graph.
struct GraphReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> GraphReader<'a> {
    fn corrupt(&self, reason: impl Into<String>) -> GraphImportError {
        GraphImportError::Corrupt {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], GraphImportError> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, GraphImportError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, GraphImportError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, GraphImportError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// The layer of `node` under `seed`: a splitmix64 hash mapped through the
/// standard HNSW exponential (`P(level >= l) = m^-l` via `ml = 1/ln m`).
/// Being a pure per-node function — not a sequential RNG draw — is what lets
/// incremental builds keep every surviving node on its original layer.
fn level_for(seed: u64, node: u32, ml: f64) -> usize {
    let mut x = seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // 53 uniform mantissa bits -> u in [0, 1).
    let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    ((-(1.0 - u).ln() * ml) as usize).min(MAX_LEVEL)
}

/// L2-normalizes every row of `embeddings` into one flat buffer (zero rows
/// stay zero), using the kernel layer for the norm pass.
fn normalize_rows(embeddings: &Embeddings) -> Vec<f32> {
    let dim = embeddings.dim();
    let n = embeddings.num_nodes();
    let mut normalized = Vec::with_capacity(n * dim);
    for v in 0..n as u32 {
        let row = embeddings.vector(v);
        let norm = kernels::l2_norm(row);
        if norm == 0.0 {
            normalized.extend_from_slice(row);
        } else {
            normalized.extend(row.iter().map(|x| x / norm));
        }
    }
    normalized
}

/// A Hierarchical Navigable Small World index over one embedding version.
///
/// Built by [`HnswIndex::build`] (or grafted from a previous epoch by
/// [`HnswIndex::build_incremental`]); queried concurrently by any number of
/// readers through [`HnswIndex::search`] / [`HnswIndex::search_node`].
#[derive(Debug)]
pub struct HnswIndex {
    dim: usize,
    num_nodes: usize,
    ef_search: usize,
    /// f32 re-rank budget multiplier for the quantized path.
    rerank: usize,
    /// L2-normalized copies of the indexed vectors (zero vectors stay zero),
    /// so similarity is one dot product.
    normalized: Vec<f32>,
    /// Int8 codes of `normalized` when the config enables quantized traversal.
    quant: Option<QuantizedMatrix>,
    /// `neighbors[node][level]` — adjacency per layer, `0..=node_level`.
    neighbors: Vec<Vec<Vec<u32>>>,
    entry: u32,
    top_level: usize,
    /// Whether any node has been inserted yet (the first one seeds `entry`).
    seeded: bool,
    /// The `(m, ef_construction, seed)` the graph was built with: together
    /// with the vectors they determine every level and every link, so an
    /// exported graph is only valid for an importer configured the same.
    m: usize,
    ef_construction: usize,
    seed: u64,
    build_time: Duration,
    incremental: Option<IncrementalStats>,
}

impl HnswIndex {
    /// Builds the index over every vector in `embeddings`.
    ///
    /// Deterministic for a given `(embeddings, config)` pair, whatever
    /// [`AnnConfig::threads`] is. Cost is `O(n · ef_construction · d)`-ish,
    /// spread over `threads` — this is the per-epoch rebuild the serving
    /// layer pays so queries get out of the full-scan regime (see
    /// [`build_incremental`](Self::build_incremental) for the streaming-epoch
    /// shortcut).
    pub fn build(embeddings: &Embeddings, config: &AnnConfig) -> Self {
        Self::build_masked(embeddings, config, None)
    }

    /// [`build`](Self::build) restricted to a live universe: ids with
    /// `live[v] == false` are never inserted, so they are unreachable from any
    /// search — the query plane's guarantee that retired nodes cannot appear
    /// in `top_k` results. `live == None` means every id is live.
    pub fn build_masked(
        embeddings: &Embeddings,
        config: &AnnConfig,
        live: Option<&[bool]>,
    ) -> Self {
        assert!(config.m >= 2, "HNSW needs m >= 2");
        if let Some(mask) = live {
            assert_eq!(
                mask.len(),
                embeddings.num_nodes(),
                "live mask length must equal the embedding row count"
            );
        }
        let start = Instant::now();
        let mut index = Self::empty_shell(embeddings, config);
        let order: Vec<u32> = (0..embeddings.num_nodes() as u32)
            .filter(|&v| live.is_none_or(|mask| mask[v as usize]))
            .collect();
        index.construct(&order, config);
        index.finish_build(config, start);
        index
    }

    /// Builds the index for a new epoch by reusing `prev`'s graph structure.
    ///
    /// Nodes whose normalized vector moved no further than
    /// [`AnnConfig::drift_threshold`] (L2) keep their adjacency lists
    /// verbatim (minus any link to themselves); drifted nodes and nodes
    /// beyond `prev`'s range are re-inserted by the same batch construction
    /// a full build runs, counting the kept nodes as already indexed, and
    /// retired ids (past the new node count) are filtered out of every
    /// surviving list. Because layer
    /// assignment is a pure per-node hash, surviving nodes keep their layers,
    /// so the grafted graph obeys the same invariants as a full build.
    ///
    /// Stale links are tolerated by construction: a kept node may still point
    /// at a drifted neighbour, but scores are always computed from the *new*
    /// vectors, so such links only ever add candidates to the beam. Falls
    /// back to a full [`build`](Self::build) when dimensions changed or
    /// `prev` is empty. Per-build reuse counts are reported via
    /// [`incremental_stats`](Self::incremental_stats).
    pub fn build_incremental(embeddings: &Embeddings, config: &AnnConfig, prev: &Self) -> Self {
        Self::build_incremental_masked(embeddings, config, prev, None)
    }

    /// [`build_incremental`](Self::build_incremental) restricted to a live
    /// universe. Dead ids are dropped from every surviving adjacency list and
    /// never re-inserted; ids that were absent from `prev` (retired in an
    /// earlier epoch, or newly arrived) but are live now are inserted fresh.
    pub fn build_incremental_masked(
        embeddings: &Embeddings,
        config: &AnnConfig,
        prev: &Self,
        live: Option<&[bool]>,
    ) -> Self {
        assert!(config.m >= 2, "HNSW needs m >= 2");
        if prev.dim != embeddings.dim() || prev.num_nodes == 0 {
            return Self::build_masked(embeddings, config, live);
        }
        if let Some(mask) = live {
            assert_eq!(
                mask.len(),
                embeddings.num_nodes(),
                "live mask length must equal the embedding row count"
            );
        }
        let is_live = |v: usize| live.is_none_or(|m| m[v]);
        let start = Instant::now();
        let n = embeddings.num_nodes();
        let n_old = prev.num_nodes;
        let mut index = Self::empty_shell(embeddings, config);
        let dim = index.dim;

        // Classify every node: kept (graph links survive) or fresh
        // (re-inserted). Drift is measured between old and new *normalized*
        // vectors via ||a - b||^2 = ||a||^2 + ||b||^2 - 2·a·b (the norms are
        // 1 for regular rows and 0 for zero rows, so stable zero vectors
        // correctly count as undrifted).
        let threshold_sq = (config.drift_threshold.max(0.0) as f64).powi(2);
        let mut fresh = vec![false; n];
        let mut stats = IncrementalStats {
            retired: n_old.saturating_sub(n),
            ..Default::default()
        };
        for (v, is_fresh) in fresh.iter_mut().enumerate() {
            if !is_live(v) {
                // Dead id: neither kept nor inserted. It only counts as
                // retired when the previous epoch actually carried it.
                if v < n_old && !prev.neighbors[v].is_empty() {
                    stats.retired += 1;
                }
                continue;
            }
            if v >= n_old || prev.neighbors[v].is_empty() {
                // Beyond the old range, or absent from the old graph (dead
                // last epoch, rejoining now): insert fresh.
                *is_fresh = true;
                stats.added += 1;
                continue;
            }
            let new_row = &index.normalized[v * dim..(v + 1) * dim];
            let old_row = prev.vec_of(v as u32);
            let dot = kernels::dot(new_row, old_row) as f64;
            let norms_sq = (kernels::squared_norm(new_row) + kernels::squared_norm(old_row)) as f64;
            if (norms_sq - 2.0 * dot).max(0.0) > threshold_sq {
                *is_fresh = true;
                stats.reinserted += 1;
            } else {
                stats.reused += 1;
            }
        }

        // Graft the surviving structure, dropping links to retired ids and to
        // the node itself (graphs from before construction excluded them can
        // hold some), and tracking the highest surviving layer as the new
        // entry point.
        for (v, _) in fresh
            .iter()
            .enumerate()
            .take(n.min(n_old))
            .filter(|&(v, &f)| !f && is_live(v) && !prev.neighbors[v].is_empty())
        {
            let mut adj = prev.neighbors[v].clone();
            for level in adj.iter_mut() {
                level.retain(|&u| u as usize != v && (u as usize) < n && is_live(u as usize));
            }
            let node_top = adj.len().saturating_sub(1);
            if !index.seeded || node_top > index.top_level {
                index.entry = v as u32;
                index.top_level = node_top;
            }
            index.seeded = true;
            index.neighbors[v] = adj;
        }

        let order: Vec<u32> = (0..n as u32).filter(|&v| fresh[v as usize]).collect();
        index.construct(&order, config);
        index.incremental = Some(stats);
        index.finish_build(config, start);
        index
    }

    /// An index shell with normalized vectors but no graph yet.
    fn empty_shell(embeddings: &Embeddings, config: &AnnConfig) -> Self {
        let n = embeddings.num_nodes();
        HnswIndex {
            dim: embeddings.dim(),
            num_nodes: n,
            ef_search: config.ef_search.max(1),
            rerank: config.rerank.max(1),
            normalized: normalize_rows(embeddings),
            quant: None,
            neighbors: vec![Vec::new(); n],
            entry: 0,
            top_level: 0,
            seeded: false,
            m: config.m,
            ef_construction: config.ef_construction,
            seed: config.seed,
            build_time: Duration::ZERO,
            incremental: None,
        }
    }

    /// Post-build pass: quantize the normalized matrix when configured, stamp
    /// the build time.
    fn finish_build(&mut self, config: &AnnConfig, start: Instant) {
        if config.quantize && self.num_nodes > 0 {
            self.quant = Some(QuantizedMatrix::quantize(self.dim, &self.normalized));
        }
        self.build_time = start.elapsed();
    }

    /// Serializes the graph — and nothing else — so a restart can skip the
    /// build. Little-endian:
    ///
    /// ```text
    /// graph := "UNHG" u32:format(=1) u64:seed u32:m u32:ef_construction
    ///          u32:nodes u32:entry u32:top_level nodes×node
    /// node  := u8:layers (0 = not indexed) layers×(u32:len len×u32:neighbour)
    /// ```
    ///
    /// Vectors, norms and int8 codes are not written: they are recomputed
    /// from the matrix the graph is imported against.
    pub fn export_graph(&self) -> Vec<u8> {
        let links: usize = self.neighbors.iter().flatten().map(Vec::len).sum();
        let lists: usize = self.neighbors.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(36 + self.num_nodes + 4 * (lists + links));
        out.extend_from_slice(&GRAPH_MAGIC);
        out.extend_from_slice(&GRAPH_FORMAT.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        for v in [
            self.m,
            self.ef_construction,
            self.num_nodes,
            self.entry as usize,
            self.top_level,
        ] {
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        for adj in &self.neighbors {
            out.push(adj.len() as u8);
            for list in adj {
                out.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for &u in list {
                    out.extend_from_slice(&u.to_le_bytes());
                }
            }
        }
        out
    }

    /// Rebuilds an index from an [`export_graph`](Self::export_graph) byte
    /// string and the matrix it was serving, without inserting anything:
    /// rows are normalized (and quantized, when configured) from
    /// `embeddings`, the adjacency is taken from `bytes`. With the same
    /// matrix and config the result answers every query exactly as the
    /// exporting index did.
    ///
    /// Nothing read is trusted. The graph must cover exactly
    /// `embeddings.num_nodes()` rows and carry `config`'s
    /// `(m, ef_construction, seed)` ([`GraphImportError::Mismatch`]
    /// otherwise); every indexed node must sit on exactly the layers its
    /// hash assigns it, every list must fit its cap (`2m` on layer 0, `m`
    /// above), every neighbour must be an indexed node present on that
    /// layer, and the entry point must be an indexed node on the top layer
    /// ([`GraphImportError::Corrupt`] otherwise). Counts are checked against
    /// the bytes that remain before anything is allocated from them.
    ///
    /// A node listed among its own neighbours is accepted: construction no
    /// longer creates such links, but grafts before it did, and the v3
    /// snapshots they wrote must still restore verbatim. A self-link costs a
    /// slot, never a wrong answer ([`search_node`](Self::search_node) drops
    /// the query node).
    pub fn import_graph(
        bytes: &[u8],
        embeddings: &Embeddings,
        config: &AnnConfig,
    ) -> Result<Self, GraphImportError> {
        assert!(config.m >= 2, "HNSW needs m >= 2");
        let start = Instant::now();
        let mut r = GraphReader { buf: bytes, pos: 0 };
        if r.take(4)? != GRAPH_MAGIC {
            r.pos = 0;
            return Err(r.corrupt("bad magic (not an exported HNSW graph)"));
        }
        let format = r.u32()?;
        if format != GRAPH_FORMAT {
            return Err(r.corrupt(format!("unsupported graph format {format}")));
        }
        let seed = r.u64()?;
        let m = r.u32()? as usize;
        let ef_construction = r.u32()? as usize;
        if (m, ef_construction, seed) != (config.m, config.ef_construction, config.seed) {
            return Err(GraphImportError::Mismatch {
                reason: format!(
                    "built with (m, ef_construction, seed) = ({m}, {ef_construction}, {seed}), \
                     importer has ({}, {}, {})",
                    config.m, config.ef_construction, config.seed
                ),
            });
        }
        let n = r.u32()? as usize;
        if n != embeddings.num_nodes() {
            return Err(GraphImportError::Mismatch {
                reason: format!(
                    "graph covers {n} rows, the matrix has {}",
                    embeddings.num_nodes()
                ),
            });
        }
        let entry = r.u32()?;
        let top_level = r.u32()? as usize;
        // `n` is the row count of a matrix that exists, so sizing by it is
        // safe; each node still needs its layer byte to be there.
        if r.remaining() < n {
            return Err(r.corrupt(format!("{n} nodes cannot fit in {} bytes", r.remaining())));
        }
        let ml = 1.0 / (m as f64).ln();
        let mut neighbors: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        let mut highest: Option<usize> = None;
        for (v, adj) in neighbors.iter_mut().enumerate() {
            let layers = r.u8()? as usize;
            if layers == 0 {
                continue;
            }
            let level = level_for(seed, v as u32, ml);
            if layers != level + 1 {
                return Err(r.corrupt(format!(
                    "node {v} is on {layers} layers, its hash assigns {}",
                    level + 1
                )));
            }
            highest = highest.max(Some(level));
            adj.reserve_exact(layers);
            for l in 0..layers {
                let len = r.u32()? as usize;
                let cap = if l == 0 { 2 * m } else { m };
                if len > cap || len > r.remaining() / 4 {
                    return Err(r.corrupt(format!(
                        "node {v} layer {l}: {len} neighbours (cap {cap}, {} bytes left)",
                        r.remaining()
                    )));
                }
                let list: Vec<u32> = r
                    .take(4 * len)?
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                if let Some(&u) = list.iter().find(|&&u| u as usize >= n) {
                    return Err(r.corrupt(format!(
                        "node {v} layer {l}: neighbour {u} is out of range (n = {n})"
                    )));
                }
                adj.push(list);
            }
        }
        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing bytes", r.remaining())));
        }
        // A link to a node that is not indexed on that layer would let a
        // search score (and return) an id the graph does not hold — a
        // retired one, say.
        for (v, adj) in neighbors.iter().enumerate() {
            for (l, list) in adj.iter().enumerate() {
                if let Some(&u) = list.iter().find(|&&u| neighbors[u as usize].len() <= l) {
                    return Err(r.corrupt(format!(
                        "node {v} layer {l}: neighbour {u} is not indexed on that layer"
                    )));
                }
            }
        }
        let seeded = highest.is_some();
        if let Some(highest) = highest {
            let entry_layers = neighbors.get(entry as usize).map_or(0, Vec::len);
            if top_level != highest || entry_layers != top_level + 1 {
                return Err(r.corrupt(format!(
                    "entry {entry} (on {entry_layers} layers) / top level {top_level} do not \
                     name the top of a graph whose highest layer is {highest}"
                )));
            }
        }
        let mut index = Self::empty_shell(embeddings, config);
        index.neighbors = neighbors;
        index.seeded = seeded;
        if seeded {
            index.entry = entry;
            index.top_level = top_level;
        }
        index.finish_build(config, start);
        Ok(index)
    }

    /// Whether the graph holds exactly the live ids of `live` (`None` =
    /// every row): the condition under which an imported graph can serve a
    /// universe as it is, with no retired id reachable and no live id
    /// missing.
    pub fn covers_universe(&self, live: Option<&[bool]>) -> bool {
        live.is_none_or(|mask| mask.len() == self.num_nodes)
            && self
                .neighbors
                .iter()
                .enumerate()
                .all(|(v, adj)| adj.is_empty() != live.is_none_or(|mask| mask[v]))
    }

    /// `(indexed nodes, directed links)` of the graph.
    pub fn graph_size(&self) -> (usize, usize) {
        let indexed = self.neighbors.iter().filter(|adj| !adj.is_empty()).count();
        let links = self.neighbors.iter().flatten().map(Vec::len).sum();
        (indexed, links)
    }

    /// Number of indexed vectors.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The index's top layer (0 for tiny graphs).
    pub fn top_level(&self) -> usize {
        self.top_level
    }

    /// Whether queries traverse the graph scoring candidates in int8.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Reuse statistics when this index came from
    /// [`build_incremental`](Self::build_incremental) (and did not fall back
    /// to a full build); `None` for full builds.
    pub fn incremental_stats(&self) -> Option<IncrementalStats> {
        self.incremental
    }

    /// Wall-clock time the build took — the per-epoch (re)build cost a
    /// publishing writer pays outside the store's write lock.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    #[inline]
    fn vec_of(&self, v: u32) -> &[f32] {
        let start = v as usize * self.dim;
        &self.normalized[start..start + self.dim]
    }

    #[inline]
    fn dot(&self, query: &[f32], v: u32) -> f32 {
        kernels::dot(query, self.vec_of(v))
    }

    /// Scores one candidate against the query in whichever precision the
    /// query was prepared in.
    #[inline]
    fn score(&self, query: &QueryRef<'_>, v: u32) -> f32 {
        match *query {
            QueryRef::F32(q) => self.dot(q, v),
            QueryRef::I8 { codes, scale } => self
                .quant
                .as_ref()
                .expect("int8 query against unquantized index")
                .dot_query(codes, scale, v),
        }
    }

    /// Beam search on one layer: expands from the nodes in `scratch.beam`,
    /// keeping the `ef` most similar nodes seen, and leaves those in
    /// `scratch.beam`, best first.
    fn search_layer(
        &self,
        query: &QueryRef<'_>,
        ef: usize,
        level: usize,
        scratch: &mut SearchScratch,
    ) {
        let SearchScratch {
            visited,
            candidates,
            results,
            beam,
        } = scratch;
        visited.clear();
        candidates.clear();
        results.clear();
        for &e in beam.iter() {
            if !visited.test_and_set(e.1) {
                candidates.push(e);
                results.push(Reverse(e));
                if results.len() > ef {
                    results.pop();
                }
            }
        }
        while let Some(c) = candidates.pop() {
            let worst = results.peek().map(|r| r.0 .0).unwrap_or(f32::NEG_INFINITY);
            if results.len() >= ef && c.0 < worst {
                break;
            }
            let adj = &self.neighbors[c.1 as usize];
            if level >= adj.len() {
                continue;
            }
            for &u in &adj[level] {
                if visited.test_and_set(u) {
                    continue;
                }
                let s = Sim(self.score(query, u), u);
                let worst = results.peek().map(|r| r.0 .0).unwrap_or(f32::NEG_INFINITY);
                if results.len() < ef || s.0 > worst {
                    candidates.push(s);
                    results.push(Reverse(s));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        beam.clear();
        beam.extend(results.drain().map(|r| r.0));
        beam.sort_by(|a, b| b.cmp(a));
    }

    /// The select-neighbours heuristic (Algorithm 4 of the HNSW paper): a
    /// candidate is kept only when it is closer to the query than to every
    /// neighbour already selected, which preserves links across clusters;
    /// pruned candidates backfill remaining slots. Leaves at most `m` of
    /// `candidates` (best first) in `selected`; `skipped` is scratch.
    fn select_neighbors(
        &self,
        candidates: &[Sim],
        m: usize,
        selected: &mut Vec<Sim>,
        skipped: &mut Vec<Sim>,
    ) {
        selected.clear();
        skipped.clear();
        for &c in candidates {
            if selected.len() >= m {
                break;
            }
            let cv = self.vec_of(c.1);
            let diverse = selected.iter().all(|s| {
                let to_selected = kernels::dot(cv, self.vec_of(s.1));
                to_selected < c.0
            });
            if diverse {
                selected.push(c);
            } else {
                skipped.push(c);
            }
        }
        let room = m.saturating_sub(selected.len());
        selected.extend(skipped.iter().take(room));
    }

    /// The one construction routine: links every id of `order` — none of
    /// them in the graph yet, live ones only — into the graph, in that
    /// order, batch by batch (see the module docs for the schedule).
    ///
    /// Each batch runs in two phases: every node plans its links against
    /// the graph as the batch found it ([`plan_links`](Self::plan_links),
    /// parallel, read-only); then the requests are sorted into
    /// `(owner, layer)` groups, merged into their lists in that order, and
    /// every list over its cap is pruned once ([`prune`](Self::prune),
    /// parallel). Entry point and top level follow the batch, in batch
    /// order. No result depends on which thread produced it, so the graph is
    /// the same for every [`AnnConfig::threads`].
    fn construct(&mut self, order: &[u32], config: &AnnConfig) {
        let ml = 1.0 / (config.m as f64).ln();
        let mut indexed = self.neighbors.iter().filter(|adj| !adj.is_empty()).count();
        // Size every new node's lists before any batch runs: a graft's kept
        // nodes may still link to a re-inserted node, so a search can reach
        // (and link back into) it before its own batch.
        for &v in order {
            self.neighbors[v as usize] = vec![Vec::new(); level_for(config.seed, v, ml) + 1];
        }
        let mut rest = order;
        if !self.seeded {
            let Some((&first, tail)) = order.split_first() else {
                return;
            };
            self.seeded = true;
            self.entry = first;
            self.top_level = self.neighbors[first as usize].len() - 1;
            indexed = 1;
            rest = tail;
        }
        let max_batch = ((indexed + rest.len()) / BATCH_DIVISOR).max(1);
        let cap = |layer: u32| if layer == 0 { 2 * config.m } else { config.m };
        let mut workers: Vec<BuildScratch> = (0..config.threads.max(1))
            .map(|_| BuildScratch::new(self.num_nodes))
            .collect();
        let mut requests: Vec<LinkRequest> = Vec::new();
        let mut overflowing: Vec<(u32, u32)> = Vec::new();
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at(indexed.min(max_batch).min(rest.len()));

            let graph = &*self;
            par_for(&mut workers, batch.len(), |w, i| {
                graph.plan_links(batch[i], i as u32, config, ml, w)
            });
            requests.clear();
            for w in &mut workers {
                requests.append(&mut w.requests);
            }
            requests.sort_unstable();

            overflowing.clear();
            for group in requests.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                let (owner, layer) = (group[0].0, group[0].1);
                let list = &mut self.neighbors[owner as usize][layer as usize];
                for &(.., target) in group {
                    if !list.contains(&target) {
                        list.push(target);
                    }
                }
                if list.len() > cap(layer) {
                    overflowing.push((owner, layer));
                }
            }
            let graph = &*self;
            par_for(&mut workers, overflowing.len(), |w, i| {
                let (owner, layer) = overflowing[i];
                graph.prune(owner, layer, cap(layer), w)
            });
            for w in &mut workers {
                let mut kept = &w.kept[..];
                for &(owner, layer, len) in &w.pruned {
                    let (ids, more) = kept.split_at(len as usize);
                    let list = &mut self.neighbors[owner as usize][layer as usize];
                    list.clear();
                    list.extend_from_slice(ids);
                    kept = more;
                }
                w.pruned.clear();
                w.kept.clear();
            }

            for &q in batch {
                let level = self.neighbors[q as usize].len() - 1;
                if level > self.top_level {
                    self.top_level = level;
                    self.entry = q;
                }
            }
            indexed += batch.len();
            rest = tail;
        }
    }

    /// Plans `q`'s links (`q` sits at position `pos` of its batch) and
    /// appends them, forward and reverse, to `w.requests`: greedy descent to
    /// `q`'s level, then an `ef_construction` beam and the diversity
    /// heuristic on every layer it joins. `q` never selects itself, though a
    /// graft's stale links can lead the beam to it. Construction always
    /// scores in f32: graph quality decides recall for every later query, so
    /// the build never trades it for quantized bandwidth.
    fn plan_links(&self, q: u32, pos: u32, config: &AnnConfig, ml: f64, w: &mut BuildScratch) {
        let level = level_for(config.seed, q, ml);
        let qref = QueryRef::F32(self.vec_of(q));
        self.greedy_descent(&qref, level, &mut w.search);
        for l in (0..=level.min(self.top_level)).rev() {
            self.search_layer(&qref, config.ef_construction.max(1), l, &mut w.search);
            w.pool.clear();
            w.pool.extend(w.search.beam.iter().filter(|c| c.1 != q));
            self.select_neighbors(&w.pool, config.m, &mut w.selected, &mut w.skipped);
            for (rank, c) in w.selected.iter().enumerate() {
                let (layer, rank) = (l as u32, rank as u32);
                w.requests.push((q, layer, pos, rank, c.1));
                w.requests.push((c.1, layer, pos, rank, q));
            }
        }
    }

    /// Cuts `owner`'s merged list on `layer` back to `cap` by the diversity
    /// heuristic, appending the result to `w.pruned`/`w.kept`.
    fn prune(&self, owner: u32, layer: u32, cap: usize, w: &mut BuildScratch) {
        let query = self.vec_of(owner);
        w.pool.clear();
        w.pool.extend(
            self.neighbors[owner as usize][layer as usize]
                .iter()
                .map(|&u| Sim(self.dot(query, u), u)),
        );
        w.pool.sort_by(|x, y| y.cmp(x));
        self.select_neighbors(&w.pool, cap, &mut w.selected, &mut w.skipped);
        w.pruned.push((owner, layer, w.selected.len() as u32));
        w.kept.extend(w.selected.iter().map(|s| s.1));
    }

    /// The `k` indexed vectors most cosine-similar to `query`, best first.
    ///
    /// `query` need not be an indexed vector — external embeddings of the
    /// right dimensionality work too (it is normalized internally). On a
    /// quantized index the graph is walked with int8 scores and the top
    /// `k · rerank` candidates are re-scored in f32, so the returned scores
    /// are always exact cosines.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        if self.num_nodes == 0 || k == 0 || !self.seeded {
            // `!seeded` covers a masked build whose universe is entirely
            // retired: `entry` is a dangling default there, not a real node.
            return Vec::new();
        }
        let norm = kernels::l2_norm(query);
        let normalized: Vec<f32> = if norm == 0.0 {
            query.to_vec()
        } else {
            query.iter().map(|x| x / norm).collect()
        };
        // Reuse per-thread search memory: allocating (and zeroing) a visited
        // set per query would put an O(n) memset on the sub-linear serving
        // path.
        thread_local! {
            static SCRATCH: std::cell::RefCell<SearchScratch> =
                std::cell::RefCell::new(SearchScratch::new(0));
        }
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.visited.ensure(self.num_nodes);
            match &self.quant {
                None => {
                    let qref = QueryRef::F32(&normalized);
                    let ef = self.ef_search.max(k);
                    self.descend(&qref, ef, scratch);
                    scratch.beam.iter().take(k).map(|s| (s.1, s.0)).collect()
                }
                Some(_) => {
                    let (codes, scale) = QuantizedMatrix::quantize_query(&normalized);
                    let qref = QueryRef::I8 {
                        codes: &codes,
                        scale,
                    };
                    // Widen the beam to the re-rank budget so the f32 pass
                    // has k·rerank candidates to choose from.
                    let budget = k.saturating_mul(self.rerank);
                    let ef = self.ef_search.max(budget);
                    self.descend(&qref, ef, scratch);
                    let mut rescored: Vec<Sim> = scratch
                        .beam
                        .iter()
                        .take(budget)
                        .map(|s| Sim(self.dot(&normalized, s.1), s.1))
                        .collect();
                    rescored.sort_by(|a, b| b.cmp(a));
                    rescored.truncate(k);
                    rescored.into_iter().map(|s| (s.1, s.0)).collect()
                }
            }
        })
    }

    /// Greedy upper-layer descent followed by the layer-0 beam search; the
    /// answer is left in `s.beam`, best first.
    fn descend(&self, qref: &QueryRef<'_>, ef: usize, s: &mut SearchScratch) {
        self.greedy_descent(qref, 0, s);
        self.search_layer(qref, ef, 0, s);
    }

    /// Starts `s.beam` at the entry point and walks it down (beam width 1)
    /// through every layer above `level`.
    fn greedy_descent(&self, qref: &QueryRef<'_>, level: usize, s: &mut SearchScratch) {
        s.beam.clear();
        s.beam.push(Sim(self.score(qref, self.entry), self.entry));
        for l in ((level + 1)..=self.top_level).rev() {
            self.search_layer(qref, 1, l, s);
        }
    }

    /// The `k` nodes most similar to the indexed `node` (excluding `node`
    /// itself), best first. Empty when `node` is out of range.
    pub fn search_node(&self, node: u32, k: usize) -> Vec<(u32, f32)> {
        if (node as usize) >= self.num_nodes || k == 0 {
            return Vec::new();
        }
        let query: Vec<f32> = self.vec_of(node).to_vec();
        // Over-fetch by one so the query node's own hit can be dropped.
        let mut hits = self.search(&query, k + 1);
        hits.retain(|&(u, _)| u != node);
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_unit_embeddings(n: usize, dim: usize, seed: u64) -> Embeddings {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut flat = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            flat.extend(row.iter().map(|x| x / norm));
        }
        Embeddings::from_flat(dim, flat)
    }

    fn recall_vs_exact(index: &HnswIndex, emb: &Embeddings, k: usize, step: usize) -> f64 {
        let mut hits = 0usize;
        let mut total = 0usize;
        for node in (0..emb.num_nodes() as u32).step_by(step) {
            let approx = index.search_node(node, k);
            let exact = emb.most_similar(node, k);
            let exact_ids: Vec<u32> = exact.iter().map(|&(u, _)| u).collect();
            hits += approx
                .iter()
                .filter(|&&(u, _)| exact_ids.contains(&u))
                .count();
            total += k;
        }
        hits as f64 / total as f64
    }

    #[test]
    fn empty_and_tiny_inputs_answer_safely() {
        let empty = Embeddings::from_flat(4, Vec::new());
        let index = HnswIndex::build(&empty, &AnnConfig::default());
        assert!(index.search(&[0.0; 4], 3).is_empty());
        assert!(index.search_node(0, 3).is_empty());

        let one = Embeddings::from_flat(2, vec![1.0, 0.0]);
        let index = HnswIndex::build(&one, &AnnConfig::default());
        assert!(index.search_node(0, 3).is_empty());
        assert_eq!(index.search(&[1.0, 0.0], 3), vec![(0, 1.0)]);
    }

    #[test]
    fn search_node_never_returns_the_query_node() {
        let emb = random_unit_embeddings(200, 8, 3);
        let index = HnswIndex::build(&emb, &AnnConfig::default());
        for node in [0u32, 17, 99, 199] {
            let hits = index.search_node(node, 10);
            assert_eq!(hits.len(), 10);
            assert!(hits.iter().all(|&(u, _)| u != node));
            for pair in hits.windows(2) {
                assert!(pair[0].1 >= pair[1].1, "results not sorted best-first");
            }
        }
    }

    /// `emb` with its first `drifted` rows replaced by fresh random ones.
    fn drift_rows(emb: &Embeddings, drifted: usize, seed: u64) -> Embeddings {
        let dim = emb.dim();
        let mut flat = emb.as_flat().to_vec();
        let mut rng = SmallRng::seed_from_u64(seed);
        for x in &mut flat[..drifted * dim] {
            *x = rng.gen_range(-1.0f32..1.0);
        }
        Embeddings::from_flat(dim, flat)
    }

    #[test]
    fn builds_are_deterministic() {
        let emb = random_unit_embeddings(300, 16, 9);
        let mut live = vec![true; 300];
        for v in (0..300).step_by(7) {
            live[v] = false;
        }
        let drifted = drift_rows(&emb, 120, 4);
        let mut churned = live.clone();
        churned[0] = true; // rejoins
        for v in (3..300).step_by(11) {
            churned[v] = false;
        }
        let graphs = |threads: usize| {
            let cfg = AnnConfig {
                seed: 7,
                threads,
                ..Default::default()
            };
            let masked = HnswIndex::build_masked(&emb, &cfg, Some(&live));
            let grafted =
                HnswIndex::build_incremental_masked(&drifted, &cfg, &masked, Some(&churned));
            assert!(grafted
                .incremental_stats()
                .is_some_and(|s| s.reinserted > 0));
            [
                HnswIndex::build(&emb, &cfg).export_graph(),
                masked.export_graph(),
                grafted.export_graph(),
            ]
        };
        let one = graphs(1);
        for threads in [2, 3, 8] {
            assert!(
                graphs(threads) == one,
                "{threads} threads built another graph"
            );
        }
    }

    #[test]
    fn no_node_links_to_itself_after_a_graft() {
        let cfg = AnnConfig::default();
        let emb = random_unit_embeddings(400, 16, 31);
        let mut live = vec![true; 400];
        for v in (0..400).step_by(9) {
            live[v] = false;
        }
        let prev = HnswIndex::build_masked(&emb, &cfg, Some(&live));
        // Half the rows drift; some ids retire, one rejoins.
        let next = drift_rows(&emb, 200, 8);
        let mut churned = live.clone();
        churned[0] = true;
        for v in (5..400).step_by(13) {
            churned[v] = false;
        }
        let grafted = HnswIndex::build_incremental_masked(&next, &cfg, &prev, Some(&churned));
        assert!(grafted
            .incremental_stats()
            .is_some_and(|s| s.reinserted >= 150));
        for index in [&prev, &grafted] {
            for (v, adj) in index.neighbors.iter().enumerate() {
                for (l, list) in adj.iter().enumerate() {
                    assert!(
                        !list.contains(&(v as u32)),
                        "node {v} links to itself on layer {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn recall_against_brute_force_is_high() {
        let emb = random_unit_embeddings(500, 16, 21);
        let index = HnswIndex::build(&emb, &AnnConfig::default());
        let recall = recall_vs_exact(&index, &emb, 10, 7);
        assert!(recall >= 0.9, "recall@10 too low: {recall}");
    }

    #[test]
    fn scores_match_exact_cosine() {
        let emb = random_unit_embeddings(100, 8, 5);
        let index = HnswIndex::build(&emb, &AnnConfig::default());
        for (u, s) in index.search_node(0, 5) {
            let want = emb.cosine_similarity(0, u);
            assert!((s - want).abs() < 1e-5, "node {u}: {s} vs {want}");
        }
    }

    #[test]
    fn zero_vectors_are_indexed_without_panicking() {
        let emb = Embeddings::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let index = HnswIndex::build(&emb, &AnnConfig::default());
        let hits = index.search_node(1, 3);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn quantized_index_keeps_recall_and_exact_scores() {
        let emb = random_unit_embeddings(400, 24, 11);
        let cfg = AnnConfig {
            quantize: true,
            ..Default::default()
        };
        let index = HnswIndex::build(&emb, &cfg);
        assert!(index.is_quantized());
        let recall = recall_vs_exact(&index, &emb, 10, 7);
        assert!(recall >= 0.9, "quantized recall@10 too low: {recall}");
        // Re-ranked scores are exact f32 cosines, not dequantized estimates.
        for (u, s) in index.search_node(3, 5) {
            let want = emb.cosine_similarity(3, u);
            assert!((s - want).abs() < 1e-5, "node {u}: {s} vs {want}");
        }
    }

    #[test]
    fn incremental_build_without_drift_reuses_everything() {
        let emb = random_unit_embeddings(300, 16, 13);
        let cfg = AnnConfig::default();
        let full = HnswIndex::build(&emb, &cfg);
        let inc = HnswIndex::build_incremental(&emb, &cfg, &full);
        let stats = inc.incremental_stats().expect("incremental path taken");
        assert_eq!(
            stats,
            IncrementalStats {
                reused: 300,
                reinserted: 0,
                added: 0,
                retired: 0,
            }
        );
        // Nothing was re-inserted, so the grafted graph answers identically.
        for node in (0..300u32).step_by(11) {
            assert_eq!(full.search_node(node, 5), inc.search_node(node, 5));
        }
    }

    #[test]
    fn incremental_build_tracks_churn_and_stays_searchable() {
        let cfg = AnnConfig::default();
        let base = random_unit_embeddings(250, 16, 17);
        let prev = HnswIndex::build(&base, &cfg);

        // Next epoch: 30 nodes drift hard and the last 20 retire.
        let dim = base.dim();
        let mut flat = base.as_flat().to_vec();
        let mut rng = SmallRng::seed_from_u64(99);
        for v in 0..30 {
            for j in 0..dim {
                flat[v * dim + j] = rng.gen_range(-1.0f32..1.0);
            }
        }
        flat.truncate((250 - 20) * dim);
        let next = Embeddings::from_flat(dim, flat.clone());
        let inc = HnswIndex::build_incremental(&next, &cfg, &prev);
        let stats = inc.incremental_stats().expect("incremental path taken");
        assert_eq!(stats.added, 0);
        assert_eq!(stats.retired, 20);
        assert!(
            stats.reinserted >= 30,
            "drifted nodes not detected: {stats:?}"
        );
        assert_eq!(
            stats.reused + stats.reinserted + stats.added,
            inc.num_nodes()
        );
        // No retired id may survive anywhere in the graph.
        let n = inc.num_nodes() as u32;
        for adj in &inc.neighbors {
            for level in adj {
                assert!(level.iter().all(|&u| u < n));
            }
        }
        let recall = recall_vs_exact(&inc, &next, 10, 7);
        assert!(recall >= 0.85, "post-churn recall@10 too low: {recall}");

        // The epoch after that grows by 20 brand-new nodes.
        for _ in 0..20 * dim {
            flat.push(rng.gen_range(-1.0f32..1.0));
        }
        let grown = Embeddings::from_flat(dim, flat);
        let inc2 = HnswIndex::build_incremental(&grown, &cfg, &inc);
        let stats2 = inc2.incremental_stats().expect("incremental path taken");
        assert_eq!(stats2.added, 20);
        assert_eq!(stats2.retired, 0);
        let recall2 = recall_vs_exact(&inc2, &grown, 10, 7);
        assert!(recall2 >= 0.85, "post-growth recall@10 too low: {recall2}");
    }

    #[test]
    fn masked_builds_make_retired_ids_unreachable() {
        let emb = random_unit_embeddings(200, 16, 29);
        let cfg = AnnConfig::default();
        let mut live = vec![true; 200];
        for v in (0..200).step_by(5) {
            live[v] = false;
        }

        // Full masked build: no dead id in any result or adjacency list.
        let masked = HnswIndex::build_masked(&emb, &cfg, Some(&live));
        for node in (1..200u32).step_by(7) {
            for (u, _) in masked.search_node(node, 10) {
                assert!(live[u as usize], "retired id {u} surfaced");
            }
        }
        for adj in &masked.neighbors {
            for level in adj {
                assert!(level.iter().all(|&u| live[u as usize]));
            }
        }

        // Incremental masked build over a fully-live prev epoch: same
        // guarantee, and the newly-dead ids are reported as retired.
        let prev = HnswIndex::build(&emb, &cfg);
        let inc = HnswIndex::build_incremental_masked(&emb, &cfg, &prev, Some(&live));
        let stats = inc.incremental_stats().expect("incremental path taken");
        assert_eq!(stats.retired, 40);
        assert_eq!(stats.reused + stats.reinserted + stats.added, 160);
        for adj in &inc.neighbors {
            for level in adj {
                assert!(level.iter().all(|&u| live[u as usize]));
            }
        }
        for node in (1..200u32).step_by(7) {
            for (u, _) in inc.search_node(node, 10) {
                assert!(live[u as usize], "retired id {u} surfaced incrementally");
            }
        }

        // A dead id rejoining next epoch is inserted fresh.
        let mut rejoin = live.clone();
        rejoin[0] = true;
        let re = HnswIndex::build_incremental_masked(&emb, &cfg, &inc, Some(&rejoin));
        let stats = re.incremental_stats().expect("incremental path taken");
        assert_eq!(stats.added, 1);
        assert!(re.search_node(1, 161).iter().any(|&(u, _)| u == 0));

        // An all-dead universe still answers (with nothing).
        let none = HnswIndex::build_masked(&emb, &cfg, Some(&[false; 200]));
        assert!(none.search(&[1.0; 16], 5).is_empty());
    }

    #[test]
    fn incremental_build_falls_back_on_dim_change() {
        let a = random_unit_embeddings(50, 8, 1);
        let b = random_unit_embeddings(50, 16, 1);
        let prev = HnswIndex::build(&a, &AnnConfig::default());
        let inc = HnswIndex::build_incremental(&b, &AnnConfig::default(), &prev);
        assert!(inc.incremental_stats().is_none(), "should be a full build");
        assert_eq!(inc.search_node(0, 3).len(), 3);
    }

    /// Bit-level equality of two indices' answers over every node.
    fn assert_same_answers(a: &HnswIndex, b: &HnswIndex, k: usize) {
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(
            (a.entry, a.top_level, a.seeded),
            (b.entry, b.top_level, b.seeded)
        );
        for node in 0..a.num_nodes() as u32 {
            let (x, y) = (a.search_node(node, k), b.search_node(node, k));
            assert_eq!(x.len(), y.len(), "node {node}");
            for (p, q) in x.iter().zip(&y) {
                assert_eq!((p.0, p.1.to_bits()), (q.0, q.1.to_bits()), "node {node}");
            }
        }
    }

    #[test]
    fn exported_graph_imports_to_an_index_with_identical_answers() {
        let emb = random_unit_embeddings(300, 16, 41);
        for quantize in [false, true] {
            let cfg = AnnConfig {
                seed: 7,
                quantize,
                ..Default::default()
            };
            let built = HnswIndex::build(&emb, &cfg);
            let bytes = built.export_graph();
            let imported = HnswIndex::import_graph(&bytes, &emb, &cfg).expect("round trip");
            assert_eq!(imported.is_quantized(), quantize);
            assert!(imported.incremental_stats().is_none());
            assert!(imported.covers_universe(None));
            assert_eq!(imported.graph_size(), built.graph_size());
            assert_same_answers(&built, &imported, 10);
            assert_eq!(imported.export_graph(), bytes, "export is a fixed point");
        }
    }

    #[test]
    fn grafted_and_masked_graphs_round_trip_too() {
        let cfg = AnnConfig::default();
        let emb = random_unit_embeddings(200, 16, 29);
        let mut live = vec![true; 200];
        for v in (0..200).step_by(5) {
            live[v] = false;
        }
        let prev = HnswIndex::build(&emb, &cfg);
        let grafted = HnswIndex::build_incremental_masked(&emb, &cfg, &prev, Some(&live));
        let imported =
            HnswIndex::import_graph(&grafted.export_graph(), &emb, &cfg).expect("round trip");
        assert_same_answers(&grafted, &imported, 10);
        assert!(imported.covers_universe(Some(&live)));
        assert!(!imported.covers_universe(None), "dead ids are not indexed");
        assert_eq!(imported.graph_size().0, 160);
        // The fully-live graph does not cover a universe with retirements,
        // nor one of another size.
        assert!(!prev.covers_universe(Some(&live)));
        assert!(!prev.covers_universe(Some(&[true; 199])));

        // Degenerate universes: nothing indexed, and no rows at all.
        let none = HnswIndex::build_masked(&emb, &cfg, Some(&[false; 200]));
        let back = HnswIndex::import_graph(&none.export_graph(), &emb, &cfg).expect("empty graph");
        assert!(back.search(&[1.0; 16], 5).is_empty());
        assert!(back.covers_universe(Some(&[false; 200])));
        let empty = Embeddings::from_flat(4, Vec::new());
        let shell = HnswIndex::build(&empty, &cfg);
        assert!(HnswIndex::import_graph(&shell.export_graph(), &empty, &cfg).is_ok());
    }

    #[test]
    fn import_refuses_a_graph_built_for_another_index() {
        let emb = random_unit_embeddings(60, 8, 3);
        let cfg = AnnConfig::default();
        let bytes = HnswIndex::build(&emb, &cfg).export_graph();
        for other in [
            AnnConfig { m: 8, ..cfg },
            AnnConfig {
                ef_construction: 64,
                ..cfg
            },
            AnnConfig { seed: 43, ..cfg },
        ] {
            assert!(matches!(
                HnswIndex::import_graph(&bytes, &emb, &other),
                Err(GraphImportError::Mismatch { .. })
            ));
        }
        let fewer = random_unit_embeddings(59, 8, 3);
        assert!(matches!(
            HnswIndex::import_graph(&bytes, &fewer, &cfg),
            Err(GraphImportError::Mismatch { .. })
        ));
        // Search-time parameters are not part of the graph.
        let wider = AnnConfig {
            ef_search: 200,
            ..cfg
        };
        assert!(HnswIndex::import_graph(&bytes, &emb, &wider).is_ok());
    }

    #[test]
    fn import_refuses_structural_damage_with_a_typed_error() {
        const HEADER: usize = 36;
        let emb = random_unit_embeddings(80, 8, 5);
        let cfg = AnnConfig::default();
        let index = HnswIndex::build(&emb, &cfg);
        let bytes = index.export_graph();
        let corrupt = |bytes: &[u8], what: &str| match HnswIndex::import_graph(bytes, &emb, &cfg) {
            Err(GraphImportError::Corrupt { reason, .. }) => reason,
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        };
        let patch = |at: usize, v: u32| {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            b
        };

        corrupt(&bytes[..bytes.len() - 1], "truncated");
        corrupt(&[bytes.as_slice(), &[0]].concat(), "trailing byte");
        corrupt(&bytes[..10], "header cut short");
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        corrupt(&bad_magic, "magic");
        corrupt(&patch(4, 9), "format");

        // Node 0 sits at the header's end: its layer byte, then its layer-0
        // list (length, ids).
        let layers = bytes[HEADER];
        assert!(layers >= 1);
        let mut wrong_layers = bytes.clone();
        wrong_layers[HEADER] = layers + 1;
        assert!(corrupt(&wrong_layers, "layer count").contains("layers"));
        let len0 = u32::from_le_bytes(bytes[HEADER + 1..HEADER + 5].try_into().unwrap());
        assert!(len0 >= 1);
        assert!(corrupt(&patch(HEADER + 5, 80), "id == n").contains("out of range"));
        assert!(corrupt(&patch(HEADER + 5, u32::MAX), "huge id").contains("out of range"));
        corrupt(&patch(HEADER + 1, 2 * 16 + 1), "list over its cap");
        corrupt(&patch(HEADER + 1, u32::MAX), "lying length");

        // Entry and top level must name the top of the graph.
        corrupt(&patch(28, 80), "entry out of range");
        corrupt(
            &patch(32, index.top_level() as u32 + 1),
            "top level too high",
        );
        let low = (0..80u32)
            .find(|&v| index.neighbors[v as usize].len() <= index.top_level())
            .expect("some node is below the top layer");
        corrupt(&patch(28, low), "entry below the top layer");

        // A link to an id the graph does not index (a retired one) is refused
        // even though the id is in range.
        let mut live = vec![true; 80];
        live[7] = false;
        let masked = HnswIndex::build_masked(&emb, &cfg, Some(&live));
        let mut b = masked.export_graph();
        b[HEADER + 5..HEADER + 9].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            HnswIndex::import_graph(&b, &emb, &cfg),
            Err(GraphImportError::Corrupt { reason, .. }) if reason.contains("not indexed")
        ));
    }
}
