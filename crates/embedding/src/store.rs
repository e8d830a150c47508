//! A concurrent serving layer over learned embeddings.
//!
//! # Snapshot / epoch semantics
//!
//! The store holds an immutable [`EmbeddingSnapshot`] behind an
//! `RwLock<Arc<..>>`: readers take the read lock only long enough to clone the
//! `Arc`, then answer queries entirely lock-free against the frozen snapshot,
//! while a training writer publishes a replacement snapshot with a short write
//! lock that swaps one pointer. Readers therefore never observe a
//! half-written matrix and never block an incremental training pass.
//!
//! An **epoch** is the version number of one published embedding state. The
//! store starts at epoch 0 (an empty placeholder snapshot); every
//! [`EmbeddingStore::publish`] allocates the next epoch, so epochs observed
//! through [`EmbeddingStore::snapshot`] are monotonically non-decreasing and
//! a reader can detect staleness by comparing the epoch it served against the
//! store's current one. In-flight readers keep the `Arc` they cloned — an old
//! snapshot stays fully queryable (at its old epoch) until its last reader
//! drops it.
//!
//! **When do snapshots publish?** Batch training publishes once at the end of
//! the run. Incremental streaming publishes the initial online model and then
//! one snapshot per update batch that trained, throttled by the engine's
//! `snapshot_interval_ms` (publishing copies the matrix, recomputes norms and
//! — when ANN serving is enabled — rebuilds the HNSW index, all `O(n·d)` or
//! worse, so on large graphs an unthrottled per-round publish would dominate
//! the ingestion path). The final post-stream state is always published.
//!
//! **ANN serving.** A store created with [`EmbeddingStore::with_ann`] builds
//! an [`HnswIndex`] into every published snapshot. The build runs inside
//! `publish`, on the publishing thread plus [`AnnConfig::threads`] − 1
//! helpers (the engine passes its own thread count), and *before* the write
//! lock is taken, so however expensive the index construction, readers still
//! only ever block on the pointer swap; the cost is borne once per epoch
//! instead of `O(n·d)` per query. Queries
//! pick their path per call via [`QueryMode`] ([`QueryMode::Ann`] falls back
//! to the exact scan when a snapshot has no index).
//!
//! **Restart.** [`EmbeddingStore::restore`] installs a recovered matrix at
//! its original epoch, and with it the index that was serving it when the
//! caller read one back ([`HnswIndex::import_graph`]): norms and int8 codes
//! are recomputed, the graph is not rebuilt.
//!
//! ```
//! use uninet_embedding::{Embeddings, EmbeddingStore, QueryMode};
//!
//! let store = EmbeddingStore::new();
//! assert!(store.is_empty());
//! store.publish(Embeddings::from_flat(2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]));
//! assert_eq!(store.epoch(), 1);
//! assert_eq!(store.vector(0), Some(vec![1.0, 0.0]));
//! let neighbours = store.top_k_mode(0, 1, QueryMode::Ann); // no index: exact fallback
//! assert_eq!(neighbours.len(), 1);
//! ```

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::ann::{AnnConfig, HnswIndex, QueryMode};
use crate::kernels;
use crate::quant::QuantizedMatrix;
use crate::telemetry::StoreTelemetry;
use crate::Embeddings;

/// One immutable published version of the embeddings.
#[derive(Debug)]
pub struct EmbeddingSnapshot {
    epoch: u64,
    embeddings: Embeddings,
    /// Precomputed L2 norm per node, so cosine queries cost one dot product.
    norms: Vec<f32>,
    /// Int8 codes of the raw vectors when the store's [`AnnConfig`] enables
    /// quantization: the exact scan ranks candidates through these and
    /// re-scores only the top slice in f32.
    quant: Option<QuantizedMatrix>,
    /// f32 re-rank budget multiplier for the quantized exact scan.
    rerank: usize,
    /// HNSW index over the vectors, when the publishing store enables ANN.
    ann: Option<HnswIndex>,
    /// Live mask over the rows under open-world churn: retired ids keep their
    /// rows (id == row forever) but are excluded from every query answer.
    /// `None` means the whole universe is live.
    live: Option<Vec<bool>>,
}

impl EmbeddingSnapshot {
    /// Builds a snapshot and reports how long its two expensive stages took:
    /// the `O(n·d)` norms pass and the (optional) HNSW construction. When
    /// `prev` carries an index of the same dimensionality and the config
    /// allows it, the HNSW build is incremental — it grafts the previous
    /// epoch's graph and re-inserts only drifted/new nodes.
    fn new_timed(
        epoch: u64,
        embeddings: Embeddings,
        ann_config: Option<&AnnConfig>,
        prev: Option<&EmbeddingSnapshot>,
        live: Option<Vec<bool>>,
    ) -> (Self, Duration, Duration) {
        let t_ann = Instant::now();
        let ann = ann_config
            .filter(|_| embeddings.num_nodes() > 0)
            .map(|cfg| {
                match prev
                    .and_then(|p| p.ann.as_ref())
                    .filter(|_| cfg.incremental)
                {
                    Some(prev_index) => HnswIndex::build_incremental_masked(
                        &embeddings,
                        cfg,
                        prev_index,
                        live.as_deref(),
                    ),
                    None => HnswIndex::build_masked(&embeddings, cfg, live.as_deref()),
                }
            });
        let ann_time = t_ann.elapsed();
        let t_norms = Instant::now();
        let snapshot = Self::with_index(epoch, embeddings, ann_config, ann, live);
        (snapshot, t_norms.elapsed(), ann_time)
    }

    /// Assembles a snapshot around an index that already exists (or around
    /// none): the norms pass and the int8 codes are all that is computed.
    fn with_index(
        epoch: u64,
        embeddings: Embeddings,
        ann_config: Option<&AnnConfig>,
        ann: Option<HnswIndex>,
        live: Option<Vec<bool>>,
    ) -> Self {
        if let Some(mask) = &live {
            assert_eq!(
                mask.len(),
                embeddings.num_nodes(),
                "live mask length must equal the embedding row count"
            );
        }
        let norms = (0..embeddings.num_nodes() as u32)
            .map(|v| kernels::l2_norm(embeddings.vector(v)))
            .collect();
        let quant = ann_config
            .filter(|cfg| cfg.quantize && embeddings.num_nodes() > 0)
            .map(|_| QuantizedMatrix::quantize(embeddings.dim(), embeddings.as_flat()));
        EmbeddingSnapshot {
            epoch,
            embeddings,
            norms,
            quant,
            rerank: ann_config.map(|cfg| cfg.rerank.max(1)).unwrap_or(1),
            ann,
            live,
        }
    }

    /// The snapshot's publication epoch (0 = the initial empty snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen embeddings.
    pub fn embeddings(&self) -> &Embeddings {
        &self.embeddings
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.embeddings.num_nodes()
    }

    /// Whether `node` addresses a row of this snapshot at all (live or
    /// retired). The query plane uses the in-range/live split to return
    /// distinct typed errors for unknown versus retired ids.
    pub fn in_range(&self, node: u32) -> bool {
        (node as usize) < self.embeddings.num_nodes()
    }

    /// Whether `node` is a live member of the snapshot's universe.
    pub fn is_live(&self, node: u32) -> bool {
        self.in_range(node) && self.live.as_ref().is_none_or(|mask| mask[node as usize])
    }

    /// Number of live nodes (== [`num_nodes`](Self::num_nodes) when no churn
    /// has retired anyone).
    pub fn live_count(&self) -> usize {
        match &self.live {
            Some(mask) => mask.iter().filter(|&&l| l).count(),
            None => self.embeddings.num_nodes(),
        }
    }

    /// The live mask, when this snapshot was published with one.
    pub fn live_mask(&self) -> Option<&[bool]> {
        self.live.as_deref()
    }

    fn contains(&self, node: u32) -> bool {
        self.is_live(node)
    }

    /// Cosine similarity against the precomputed norms; `None` out of range.
    pub fn cosine(&self, a: u32, b: u32) -> Option<f32> {
        if !self.contains(a) || !self.contains(b) {
            return None;
        }
        Some(kernels::cosine_with_norms(
            self.embeddings.vector(a),
            self.embeddings.vector(b),
            self.norms[a as usize],
            self.norms[b as usize],
        ))
    }

    /// The `k` nodes most cosine-similar to `node` (excluding `node` itself),
    /// best first. Empty when `node` is out of range.
    ///
    /// On a quantized snapshot the scan ranks candidates through the int8
    /// codes (4x less bandwidth) and re-scores the best `k · rerank` of them
    /// in f32, so reported scores are always exact cosines.
    pub fn top_k(&self, node: u32, k: usize) -> Vec<(u32, f32)> {
        if !self.contains(node) || k == 0 {
            return Vec::new();
        }
        match &self.quant {
            Some(quant) => self.top_k_quantized(node, k, quant),
            None => self.scan_top_k(node, k),
        }
    }

    /// The f32 exact scan: bounded selection keeping the k best seen so far
    /// in a min-heap, so a query over n nodes costs O(n · dim + n log k)
    /// instead of a full sort. `Sim` is the same ordered-score type the ANN
    /// path uses, so both paths break score ties identically.
    fn scan_top_k(&self, node: u32, k: usize) -> Vec<(u32, f32)> {
        use crate::ann::Sim;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // The query vector and its norm are loop-invariant — fetch them once.
        let va = self.embeddings.vector(node);
        let na = self.norms[node as usize];
        let mut heap: BinaryHeap<Reverse<Sim>> = BinaryHeap::with_capacity(k + 1);
        for u in 0..self.embeddings.num_nodes() as u32 {
            if u == node || !self.is_live(u) {
                continue;
            }
            let s = kernels::cosine_with_norms(
                va,
                self.embeddings.vector(u),
                na,
                self.norms[u as usize],
            );
            heap.push(Reverse(Sim(s, u)));
            if heap.len() > k {
                heap.pop();
            }
        }
        // Ascending order of `Reverse` is descending score — best first.
        heap.into_sorted_vec()
            .into_iter()
            .map(|Reverse(Sim(s, u))| (u, s))
            .collect()
    }

    /// The int8 scan: rank all candidates by dequantized approximate cosine,
    /// keep the best `k · rerank`, then re-score that slice with exact f32
    /// cosines and return the top k.
    fn top_k_quantized(&self, node: u32, k: usize, quant: &QuantizedMatrix) -> Vec<(u32, f32)> {
        use crate::ann::Sim;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let budget = k.saturating_mul(self.rerank);
        let qrow = quant.row(node);
        let qscale = quant.scale(node);
        let na = self.norms[node as usize];
        let mut heap: BinaryHeap<Reverse<Sim>> = BinaryHeap::with_capacity(budget + 1);
        for u in 0..self.embeddings.num_nodes() as u32 {
            if u == node || !self.is_live(u) {
                continue;
            }
            let nb = self.norms[u as usize];
            let s = if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                quant.dot_query(qrow, qscale, u) / (na * nb)
            };
            heap.push(Reverse(Sim(s, u)));
            if heap.len() > budget {
                heap.pop();
            }
        }
        let va = self.embeddings.vector(node);
        let mut rescored: Vec<Sim> = heap
            .into_iter()
            .map(|Reverse(Sim(_, u))| {
                Sim(
                    kernels::cosine_with_norms(
                        va,
                        self.embeddings.vector(u),
                        na,
                        self.norms[u as usize],
                    ),
                    u,
                )
            })
            .collect();
        rescored.sort_by(|a, b| b.cmp(a));
        rescored.truncate(k);
        rescored.into_iter().map(|Sim(s, u)| (u, s)).collect()
    }

    /// Whether this snapshot scans through int8 codes.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The snapshot's ANN index, when the publishing store enabled one.
    pub fn ann(&self) -> Option<&HnswIndex> {
        self.ann.as_ref()
    }

    /// Like [`top_k`](EmbeddingSnapshot::top_k), but with an explicit
    /// [`QueryMode`]. [`QueryMode::Ann`] routes through the HNSW index and
    /// falls back to the exact scan when the snapshot carries no index or the
    /// graph search comes back short (possible on degenerate inputs).
    pub fn top_k_mode(&self, node: u32, k: usize, mode: QueryMode) -> Vec<(u32, f32)> {
        self.top_k_mode_traced(node, k, mode).0
    }

    /// [`top_k_mode`](Self::top_k_mode), also reporting whether an ANN query
    /// had to fall back to the exact scan (no index, or a short graph
    /// search). Exact queries never count as fallbacks.
    fn top_k_mode_traced(&self, node: u32, k: usize, mode: QueryMode) -> (Vec<(u32, f32)>, bool) {
        match (mode, &self.ann) {
            (QueryMode::Ann, Some(index)) if self.contains(node) && k > 0 => {
                let hits = index.search_node(node, k);
                if hits.len() < k.min(self.live_count().saturating_sub(1)) {
                    (self.top_k(node, k), true)
                } else {
                    (hits, false)
                }
            }
            (QueryMode::Ann, _) => (self.top_k(node, k), self.contains(node) && k > 0),
            _ => (self.top_k(node, k), false),
        }
    }

    /// Answers a slab of top-k queries against this one frozen version.
    ///
    /// Results line up with `nodes`; out-of-range nodes yield empty rows.
    pub fn top_k_batch(&self, nodes: &[u32], k: usize, mode: QueryMode) -> Vec<Vec<(u32, f32)>> {
        nodes
            .iter()
            .map(|&node| self.top_k_mode(node, k, mode))
            .collect()
    }

    /// Answers a slab of cosine queries against this one frozen version.
    ///
    /// Results line up with `pairs`; out-of-range pairs yield `None`.
    pub fn cosine_batch(&self, pairs: &[(u32, u32)]) -> Vec<Option<f32>> {
        pairs.iter().map(|&(a, b)| self.cosine(a, b)).collect()
    }
}

/// Concurrent embedding query service: epoch-versioned snapshots behind a
/// pointer-swap `RwLock` (see the module docs for the locking discipline).
#[derive(Debug)]
pub struct EmbeddingStore {
    /// Epoch allocator, advanced outside the lock so snapshot construction
    /// (the O(n·dim) norms pass) never blocks readers.
    next_epoch: std::sync::atomic::AtomicU64,
    slot: RwLock<Arc<EmbeddingSnapshot>>,
    /// When set, every published snapshot gets an HNSW index built into it.
    ann: Option<AnnConfig>,
    /// Instrument handles; detached by default, shared with a registry via
    /// [`EmbeddingStore::instrumented`]. Recording is always on and always
    /// lock-free, so queries pay the same cost either way.
    telemetry: StoreTelemetry,
}

impl Default for EmbeddingStore {
    fn default() -> Self {
        Self::new()
    }
}

impl EmbeddingStore {
    /// Creates an empty store (epoch 0, no vectors, exact-scan serving only).
    pub fn new() -> Self {
        Self::with_ann_config(None)
    }

    /// Creates an empty store that builds an [`HnswIndex`] into every
    /// published snapshot, so [`QueryMode::Ann`] queries leave the full-scan
    /// regime. The rebuild cost is paid per publish, outside the write lock.
    pub fn with_ann(config: AnnConfig) -> Self {
        Self::with_ann_config(Some(config))
    }

    fn with_ann_config(ann: Option<AnnConfig>) -> Self {
        EmbeddingStore {
            next_epoch: std::sync::atomic::AtomicU64::new(0),
            slot: RwLock::new(Arc::new(EmbeddingSnapshot::with_index(
                0,
                Embeddings::from_flat(1, Vec::new()),
                None,
                None,
                None,
            ))),
            ann,
            telemetry: StoreTelemetry::detached(),
        }
    }

    /// Replaces the store's telemetry handles — typically with
    /// [`StoreTelemetry::registered`] so publishes and queries show up in a
    /// registry snapshot under `engine.*` / `query.*`.
    pub fn instrumented(mut self, telemetry: StoreTelemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The store's telemetry handles.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.telemetry
    }

    /// The ANN configuration snapshots are indexed with, if any.
    pub fn ann_config(&self) -> Option<&AnnConfig> {
        self.ann.as_ref()
    }

    /// Publishes a new embedding version and returns its epoch.
    ///
    /// The snapshot (its norms table, and its HNSW index when the store was
    /// created via [`EmbeddingStore::with_ann`], built on
    /// [`AnnConfig::threads`] threads) is built *before* the write lock is
    /// taken, so readers are only ever blocked for a pointer swap.
    /// In-flight readers keep the snapshot they already cloned; new readers
    /// see the published version. If two publishers race, the higher epoch
    /// wins regardless of install order.
    pub fn publish(&self, embeddings: Embeddings) -> u64 {
        self.publish_with_universe(embeddings, None)
    }

    /// [`publish`](EmbeddingStore::publish) with an explicit live universe:
    /// ids with `live[v] == false` keep their rows but become unreachable
    /// from every query (`vector`/`cosine`/`top_k`/ANN) as of this epoch.
    /// `live == None` publishes a fully-live universe.
    pub fn publish_with_universe(&self, embeddings: Embeddings, live: Option<Vec<bool>>) -> u64 {
        use std::sync::atomic::Ordering;
        let t_total = Instant::now();
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        // The previous snapshot seeds the incremental HNSW build (when
        // enabled); cloning the Arc here keeps it alive without holding the
        // read lock through the expensive construction.
        let prev = self.snapshot();
        let (snapshot, norms_time, ann_time) =
            EmbeddingSnapshot::new_timed(epoch, embeddings, self.ann.as_ref(), Some(&prev), live);
        self.telemetry.live_nodes.set(snapshot.live_count() as i64);
        if let Some(stats) = snapshot.ann().and_then(|index| index.incremental_stats()) {
            self.telemetry.publish_ann_incremental.inc();
            self.telemetry
                .publish_ann_reinserted
                .record((stats.reinserted + stats.added) as u64);
            self.telemetry
                .publish_ann_reused
                .record(stats.reused as u64);
        }
        let snapshot = Arc::new(snapshot);
        {
            let mut slot = self.slot.write().expect("embedding store lock poisoned");
            if snapshot.epoch() > slot.epoch() {
                *slot = snapshot;
            }
        }
        self.telemetry.publish_norms_ns.record_duration(norms_time);
        self.telemetry
            .publish_ann_build_ns
            .record_duration(ann_time);
        self.telemetry
            .publish_total_ns
            .record_duration(t_total.elapsed());
        self.telemetry.note_publish(epoch);
        epoch
    }

    /// Restores a recovered embedding state at an exact epoch.
    ///
    /// Unlike [`publish`](EmbeddingStore::publish), which allocates the next
    /// epoch, `restore` installs the snapshot at precisely `epoch` and moves
    /// the allocator to `max(current, epoch)` — so a process that recovers
    /// from disk resumes the epoch sequence where the crashed process left
    /// off instead of restarting from 1. `live` reinstates the open-world
    /// retired-id mask alongside the vectors (`None` = fully live).
    ///
    /// `index` is the HNSW index that was serving these vectors, when the
    /// caller has it (see [`HnswIndex::import_graph`]): it is installed as
    /// it is, so the restart pays no build and answers ANN queries exactly
    /// as before. It must be over these `embeddings` and hold exactly the
    /// live ids ([`HnswIndex::covers_universe`]). With `None`, an ANN store
    /// builds one from scratch; a store without ANN ignores it.
    ///
    /// Intended for crash recovery on an otherwise idle store; a concurrent
    /// publisher with a higher epoch wins, preserving monotonicity.
    pub fn restore(
        &self,
        embeddings: Embeddings,
        epoch: u64,
        live: Option<Vec<bool>>,
        index: Option<HnswIndex>,
    ) -> u64 {
        use std::sync::atomic::Ordering;
        self.next_epoch.fetch_max(epoch, Ordering::Relaxed);
        let ann = self
            .ann
            .as_ref()
            .filter(|_| embeddings.num_nodes() > 0)
            .map(|cfg| match index {
                Some(index) => {
                    assert!(
                        index.num_nodes() == embeddings.num_nodes()
                            && index.covers_universe(live.as_deref()),
                        "a restored index must cover exactly the live rows it is restored with"
                    );
                    index
                }
                None => HnswIndex::build_masked(&embeddings, cfg, live.as_deref()),
            });
        let snapshot = Arc::new(EmbeddingSnapshot::with_index(
            epoch,
            embeddings,
            self.ann.as_ref(),
            ann,
            live,
        ));
        self.telemetry.live_nodes.set(snapshot.live_count() as i64);
        {
            let mut slot = self.slot.write().expect("embedding store lock poisoned");
            if snapshot.epoch() > slot.epoch() {
                *slot = snapshot;
            }
        }
        self.telemetry.note_publish(epoch);
        epoch
    }

    /// The current snapshot; queries against it are lock-free and see one
    /// consistent version even while new epochs are published.
    pub fn snapshot(&self) -> Arc<EmbeddingSnapshot> {
        Arc::clone(&self.slot.read().expect("embedding store lock poisoned"))
    }

    /// The epoch of the current snapshot (0 until the first [`publish`]).
    ///
    /// [`publish`]: EmbeddingStore::publish
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.snapshot().num_nodes() == 0
    }

    /// Number of nodes in the current snapshot.
    pub fn num_nodes(&self) -> usize {
        self.snapshot().num_nodes()
    }

    /// The embedding vector of `node`, or `None` when out of range.
    pub fn vector(&self, node: u32) -> Option<Vec<f32>> {
        let snap = self.snapshot();
        snap.contains(node)
            .then(|| snap.embeddings().vector(node).to_vec())
    }

    /// Cosine similarity of `a` and `b`, or `None` when out of range.
    pub fn cosine(&self, a: u32, b: u32) -> Option<f32> {
        self.snapshot().cosine(a, b)
    }

    /// The `k` nodes most similar to `node` in the current snapshot
    /// (exact scan; see [`top_k_mode`](EmbeddingStore::top_k_mode)).
    pub fn top_k(&self, node: u32, k: usize) -> Vec<(u32, f32)> {
        self.top_k_mode(node, k, QueryMode::Exact)
    }

    /// The `k` nodes most similar to `node`, selected via `mode`. Latency is
    /// recorded into the per-mode query histograms; an ANN query that had to
    /// fall back to the exact scan bumps `query.ann_fallbacks`.
    pub fn top_k_mode(&self, node: u32, k: usize, mode: QueryMode) -> Vec<(u32, f32)> {
        let t = Instant::now();
        let (hits, fell_back) = self.snapshot().top_k_mode_traced(node, k, mode);
        match mode {
            QueryMode::Exact => &self.telemetry.query_exact_ns,
            QueryMode::Ann => &self.telemetry.query_ann_ns,
        }
        .record_duration(t.elapsed());
        if fell_back {
            self.telemetry.ann_fallbacks.inc();
        }
        hits
    }

    /// Answers a slab of top-k queries with one snapshot acquisition, so the
    /// per-query read-lock cost is amortized across the batch and every row
    /// is answered from the same epoch.
    pub fn top_k_batch(&self, nodes: &[u32], k: usize, mode: QueryMode) -> Vec<Vec<(u32, f32)>> {
        let t = Instant::now();
        let snap = self.snapshot();
        let mut fallbacks = 0u64;
        let rows = nodes
            .iter()
            .map(|&node| {
                let (row, fell_back) = snap.top_k_mode_traced(node, k, mode);
                fallbacks += fell_back as u64;
                row
            })
            .collect();
        self.telemetry.batch_size.record(nodes.len() as u64);
        self.telemetry.batch_total_ns.record_duration(t.elapsed());
        if fallbacks > 0 {
            self.telemetry.ann_fallbacks.add(fallbacks);
        }
        rows
    }

    /// Answers a slab of cosine queries with one snapshot acquisition (one
    /// consistent epoch, one read lock for the whole batch).
    pub fn cosine_batch(&self, pairs: &[(u32, u32)]) -> Vec<Option<f32>> {
        self.snapshot().cosine_batch(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Embeddings {
        // 5 nodes in 3 dimensions with distinct directions.
        Embeddings::from_flat(
            3,
            vec![
                1.0, 0.0, 0.0, // 0
                0.9, 0.1, 0.0, // 1: close to 0
                0.0, 1.0, 0.0, // 2
                0.0, 0.0, 1.0, // 3
                0.0, 0.0, 0.0, // 4: zero vector
            ],
        )
    }

    #[test]
    fn empty_store_answers_safely() {
        let store = EmbeddingStore::new();
        assert_eq!(store.epoch(), 0);
        assert!(store.is_empty());
        assert_eq!(store.vector(0), None);
        assert_eq!(store.cosine(0, 1), None);
        assert!(store.top_k(0, 5).is_empty());
    }

    #[test]
    fn publish_bumps_epoch_and_serves_vectors() {
        let store = EmbeddingStore::new();
        assert_eq!(store.publish(sample()), 1);
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.num_nodes(), 5);
        assert_eq!(store.vector(2), Some(vec![0.0, 1.0, 0.0]));
        assert_eq!(store.vector(5), None);
        assert_eq!(store.publish(sample()), 2);
    }

    #[test]
    fn cosine_matches_embeddings_impl() {
        let store = EmbeddingStore::new();
        store.publish(sample());
        let emb = sample();
        for a in 0..5u32 {
            for b in 0..5u32 {
                let got = store.cosine(a, b).unwrap();
                let want = emb.cosine_similarity(a, b);
                assert!((got - want).abs() < 1e-6, "({a},{b}): {got} vs {want}");
            }
        }
        assert_eq!(store.cosine(0, 9), None);
    }

    #[test]
    fn top_k_agrees_with_brute_force_scan() {
        let store = EmbeddingStore::new();
        store.publish(sample());
        let emb = sample();
        for node in 0..5u32 {
            for k in [1usize, 2, 3, 10] {
                let fast = store.top_k(node, k);
                let brute = emb.most_similar(node, k);
                assert_eq!(fast.len(), brute.len(), "node {node} k {k}");
                for (f, b) in fast.iter().zip(&brute) {
                    // Scores must match exactly in order; node ids may differ
                    // only between equal scores.
                    assert!((f.1 - b.1).abs() < 1e-6, "node {node} k {k}");
                }
            }
        }
    }

    #[test]
    fn old_snapshots_survive_publication() {
        let store = EmbeddingStore::new();
        store.publish(sample());
        let old = store.snapshot();
        store.publish(Embeddings::from_flat(2, vec![1.0, 1.0]));
        assert_eq!(old.epoch(), 1);
        assert_eq!(old.num_nodes(), 5);
        assert_eq!(store.num_nodes(), 1);
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    fn ann_stores_index_snapshots_and_answer_queries() {
        let store = EmbeddingStore::with_ann(AnnConfig::default());
        assert!(store.ann_config().is_some());
        // The empty epoch-0 snapshot carries no index and answers safely.
        assert!(store.snapshot().ann().is_none());
        assert!(store.top_k_mode(0, 3, QueryMode::Ann).is_empty());

        store.publish(sample());
        let snap = store.snapshot();
        assert!(snap.ann().is_some(), "publish should build the index");
        for node in 0..5u32 {
            let ann = snap.top_k_mode(node, 2, QueryMode::Ann);
            let exact = snap.top_k(node, 2);
            assert_eq!(ann.len(), exact.len(), "node {node}");
            for (a, e) in ann.iter().zip(&exact) {
                assert!(
                    (a.1 - e.1).abs() < 1e-6,
                    "node {node}: {ann:?} vs {exact:?}"
                );
            }
        }
        // A store without ANN serves QueryMode::Ann via the exact fallback.
        let plain = EmbeddingStore::new();
        plain.publish(sample());
        assert!(plain.snapshot().ann().is_none());
        assert_eq!(
            plain.top_k_mode(0, 2, QueryMode::Ann),
            plain.top_k_mode(0, 2, QueryMode::Exact)
        );
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let store = EmbeddingStore::with_ann(AnnConfig::default());
        store.publish(sample());
        let nodes = [0u32, 3, 1, 99];
        for mode in [QueryMode::Exact, QueryMode::Ann] {
            let batch = store.top_k_batch(&nodes, 2, mode);
            assert_eq!(batch.len(), nodes.len());
            for (&node, row) in nodes.iter().zip(&batch) {
                assert_eq!(row, &store.top_k_mode(node, 2, mode), "node {node}");
            }
            assert!(batch[3].is_empty(), "out-of-range row should be empty");
        }
        let pairs = [(0u32, 1u32), (2, 3), (0, 99)];
        let cosines = store.cosine_batch(&pairs);
        assert_eq!(cosines.len(), pairs.len());
        for (&(a, b), &got) in pairs.iter().zip(&cosines) {
            assert_eq!(got, store.cosine(a, b));
        }
        assert_eq!(cosines[2], None);
    }

    #[test]
    fn quantized_snapshots_serve_exact_scores() {
        let store = EmbeddingStore::with_ann(AnnConfig {
            quantize: true,
            ..AnnConfig::default()
        });
        store.publish(sample());
        let snap = store.snapshot();
        assert!(snap.is_quantized());
        // The re-rank budget (k·rerank) covers all 5 nodes here, so the
        // quantized scan must agree with the plain f32 scan exactly.
        let plain = EmbeddingStore::new();
        plain.publish(sample());
        for node in 0..5u32 {
            let quantized = snap.top_k(node, 3);
            let exact = plain.snapshot().top_k(node, 3);
            assert_eq!(quantized.len(), exact.len(), "node {node}");
            for (q, e) in quantized.iter().zip(&exact) {
                assert!(
                    (q.1 - e.1).abs() < 1e-6,
                    "node {node}: {quantized:?} vs {exact:?}"
                );
            }
        }
        // The ANN path over the quantized index also reports f32 scores.
        for node in 0..5u32 {
            for (u, s) in snap.top_k_mode(node, 2, QueryMode::Ann) {
                let want = snap.cosine(node, u).unwrap();
                assert!(
                    (s - want).abs() < 1e-5,
                    "node {node} hit {u}: {s} vs {want}"
                );
            }
        }
    }

    #[test]
    fn publishes_reuse_the_previous_index_incrementally() {
        let store = EmbeddingStore::with_ann(AnnConfig::default());
        store.publish(sample());
        // First publish starts from the empty epoch-0 snapshot: full build.
        assert!(store
            .snapshot()
            .ann()
            .and_then(|i| i.incremental_stats())
            .is_none());
        store.publish(sample());
        let stats = store
            .snapshot()
            .ann()
            .and_then(|i| i.incremental_stats())
            .expect("second publish should graft the first index");
        assert_eq!(stats.reused, 5, "identical vectors should all be reused");
        assert_eq!(store.telemetry().publish_ann_incremental.get(), 1);
        // Opting out returns every publish to the full-rebuild path.
        let full = EmbeddingStore::with_ann(AnnConfig {
            incremental: false,
            ..AnnConfig::default()
        });
        full.publish(sample());
        full.publish(sample());
        assert!(full
            .snapshot()
            .ann()
            .and_then(|i| i.incremental_stats())
            .is_none());
        assert_eq!(full.telemetry().publish_ann_incremental.get(), 0);
    }

    #[test]
    fn retired_ids_are_unreachable_from_every_query_path() {
        for ann in [false, true] {
            let store = if ann {
                EmbeddingStore::with_ann(AnnConfig::default())
            } else {
                EmbeddingStore::new()
            };
            // Node 1 (node 0's closest neighbour) retires.
            let live = vec![true, false, true, true, true];
            store.publish_with_universe(sample(), Some(live));
            let snap = store.snapshot();
            assert_eq!(snap.live_count(), 4);
            assert!(snap.in_range(1) && !snap.is_live(1));
            assert!(!snap.in_range(5));

            // Direct lookups: retired behaves like absent.
            assert_eq!(store.vector(1), None);
            assert_eq!(store.cosine(0, 1), None);
            assert!(store.top_k(1, 3).is_empty());

            // Ranked queries never surface the retired id.
            for mode in [QueryMode::Exact, QueryMode::Ann] {
                let hits = store.top_k_mode(0, 4, mode);
                assert!(!hits.is_empty());
                assert!(
                    hits.iter().all(|&(u, _)| u != 1),
                    "retired id served (ann={ann}, {mode:?}): {hits:?}"
                );
                for row in store.top_k_batch(&[0, 2, 1], 4, mode) {
                    assert!(row.iter().all(|&(u, _)| u != 1));
                }
            }
            assert_eq!(store.telemetry().live_nodes.get(), 4);

            // A later fully-live publish serves node 1 again (rejoin).
            store.publish(sample());
            assert!(store.top_k(0, 1).iter().any(|&(u, _)| u == 1));
            assert_eq!(store.telemetry().live_nodes.get(), 5);
        }
    }

    #[test]
    fn restore_resumes_epoch_sequence() {
        let store = EmbeddingStore::new();
        assert_eq!(store.restore(sample(), 7, None, None), 7);
        assert_eq!(store.epoch(), 7);
        assert_eq!(store.num_nodes(), 5);
        // The next publish continues after the restored epoch.
        assert_eq!(store.publish(sample()), 8);
        // Restoring an older epoch never rolls the store back.
        store.restore(Embeddings::from_flat(2, vec![1.0, 1.0]), 3, None, None);
        assert_eq!(store.epoch(), 8);
        assert_eq!(store.num_nodes(), 5);
    }

    #[test]
    fn restore_installs_the_index_it_is_given() {
        let cfg = AnnConfig::default();
        let live = vec![true, false, true, true, true];
        let first = EmbeddingStore::with_ann(cfg);
        first.publish_with_universe(sample(), Some(live.clone()));
        let before = first.snapshot();
        let graph = before
            .ann()
            .expect("published with an index")
            .export_graph();

        let import = || HnswIndex::import_graph(&graph, &sample(), &cfg).expect("round trip");
        let second = EmbeddingStore::with_ann(cfg);
        second.restore(sample(), 1, Some(live.clone()), Some(import()));
        let after = second.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(
            after.ann().map(|i| i.export_graph()),
            Some(graph.clone()),
            "the given graph serves, not a rebuilt one"
        );
        for node in [0u32, 2, 3, 4] {
            assert_eq!(
                after.top_k_mode(node, 3, QueryMode::Ann),
                before.top_k_mode(node, 3, QueryMode::Ann)
            );
        }
        assert!(second.top_k_mode(1, 3, QueryMode::Ann).is_empty());

        // A store that serves exact scans only has no use for the index.
        let plain = EmbeddingStore::new();
        plain.restore(sample(), 1, Some(live), Some(import()));
        assert!(plain.snapshot().ann().is_none());
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let store = Arc::new(EmbeddingStore::new());
        store.publish(sample());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = store.snapshot();
                        assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch();
                        let _ = snap.top_k(0, 3);
                    }
                    last_epoch
                })
            })
            .collect();
        for _ in 0..50 {
            store.publish(sample());
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() <= store.epoch());
        }
        assert_eq!(store.epoch(), 51);
    }
}
