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
//! one snapshot per update batch that trained or changed the universe, so the
//! last of them is the final post-stream state. Publishing copies the matrix
//! and recomputes norms, `O(n·d)`; with ANN serving enabled it also builds
//! the HNSW index, by far the largest cost — unless the publish keeps the
//! previous index ([`EmbeddingStore::publish_keeping_index`]), which the
//! streaming session does while update batches are queued behind the one
//! being published.
//!
//! **Freshness contract.** This is the one statement of what a reader sees;
//! the streaming session, the CLI and the architecture notes refer here.
//!
//! * `vector`, `cosine` and exact `top_k` answer from the vectors of the
//!   snapshot's own epoch — current after every published batch.
//! * ANN `top_k` takes its candidates from the snapshot's HNSW index, built
//!   for [`EmbeddingSnapshot::index_epoch`]. Under an ingest backlog that
//!   index may be up to the stream's `queue_capacity` batches older than the
//!   vectors; its hits are then filtered to this epoch's live ids and
//!   re-scored with this epoch's vectors (every score equals
//!   [`EmbeddingSnapshot::cosine`]), and a query the old index cannot answer
//!   (an id that arrived or rejoined since, or too few survivors) falls back
//!   to the exact scan.
//! * The index is never behind at the end of a streaming session: the batch
//!   that finds the queue empty builds, so what readers see after the stream
//!   joins — and what its last durable snapshot stores — carries an index
//!   built for its own epoch.
//!
//! **ANN serving.** A store created with [`EmbeddingStore::with_ann`] builds
//! a fresh [`HnswIndex`] into every snapshot published with
//! [`publish`](EmbeddingStore::publish) or
//! [`publish_with_universe`](EmbeddingStore::publish_with_universe) — from
//! scratch, never grafted from the previous epoch's graph. The
//! build runs inside the publish, on the publishing thread plus
//! [`AnnConfig::threads`] − 1 helpers (the engine passes its own thread
//! count), and *before* the write lock is taken, so however expensive the
//! index construction, readers still only ever block on the pointer swap;
//! the cost is borne once per built epoch instead of `O(n·d)` per query.
//! Queries pick their path per call via [`QueryMode`] ([`QueryMode::Ann`]
//! falls back to the exact scan when a snapshot has no index).
//!
//! **Restart.** [`EmbeddingStore::restore`] installs a recovered matrix at
//! its original epoch, and with it the index that was serving it when the
//! caller read one back ([`HnswIndex::import_graph`]): norms and the index's
//! int8 codes are recomputed, the graph is not rebuilt.
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
use crate::telemetry::StoreTelemetry;
use crate::Embeddings;
use uninet_metrics::Counter;

/// One immutable published version of the embeddings.
#[derive(Debug)]
pub struct EmbeddingSnapshot {
    epoch: u64,
    embeddings: Embeddings,
    /// Precomputed L2 norm per node, so cosine queries cost one dot product.
    norms: Vec<f32>,
    /// HNSW index, when the publishing store enables ANN. Shared with the
    /// snapshots that kept it (see [`EmbeddingStore::publish_keeping_index`]).
    ann: Option<Arc<HnswIndex>>,
    /// The epoch whose vectors `ann` was built from: `epoch` itself unless
    /// this snapshot kept an earlier epoch's index.
    index_epoch: u64,
    /// Ids `ann` holds that this snapshot has retired (0 when the index is
    /// current): how far an ANN query over-fetches to survive the filter.
    retired_since_index: usize,
    /// Live mask over the rows under open-world churn: retired ids keep their
    /// rows (id == row forever) but are excluded from every query answer.
    /// `None` means the whole universe is live.
    live: Option<Vec<bool>>,
    /// Number of live rows, counted once when the snapshot is assembled.
    live_count: usize,
    /// The publishing store's `query.ann_fallbacks` counter (a detached one
    /// until the snapshot is installed), so every ANN query answered from
    /// this snapshot counts its fallback here, whoever holds the snapshot.
    ann_fallbacks: Arc<Counter>,
}

impl EmbeddingSnapshot {
    /// Builds a snapshot and reports how long its two expensive stages took:
    /// the `O(n·d)` norms pass and the (optional) HNSW construction, which
    /// always builds from scratch over the live ids.
    fn new_timed(
        epoch: u64,
        embeddings: Embeddings,
        ann_config: Option<&AnnConfig>,
        live: Option<Vec<bool>>,
    ) -> (Self, Duration, Duration) {
        let t_ann = Instant::now();
        let ann = ann_config
            .filter(|_| embeddings.num_nodes() > 0)
            .map(|cfg| HnswIndex::build_masked(&embeddings, cfg, live.as_deref()));
        let ann_time = t_ann.elapsed();
        let t_norms = Instant::now();
        let snapshot = Self::with_index(epoch, embeddings, ann.map(Arc::new), epoch, live);
        (snapshot, t_norms.elapsed(), ann_time)
    }

    /// Assembles a snapshot around an index that already exists (or around
    /// none), built from the vectors of `index_epoch`: the norms pass is all
    /// that is computed.
    fn with_index(
        epoch: u64,
        embeddings: Embeddings,
        ann: Option<Arc<HnswIndex>>,
        index_epoch: u64,
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
        let live_count = match &live {
            Some(mask) => mask.iter().filter(|&&l| l).count(),
            None => embeddings.num_nodes(),
        };
        let mut snapshot = EmbeddingSnapshot {
            epoch,
            embeddings,
            norms,
            ann,
            index_epoch,
            retired_since_index: 0,
            live,
            live_count,
            ann_fallbacks: Arc::default(),
        };
        if index_epoch != epoch {
            if let Some(index) = &snapshot.ann {
                snapshot.retired_since_index = (0..index.num_nodes() as u32)
                    .filter(|&v| index.is_indexed(v) && !snapshot.is_live(v))
                    .count();
            }
        }
        snapshot
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
        self.live_count
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
    /// best first, by an exact f32 scan. Empty when `node` is out of range;
    /// a `k` past the row count asks for every live row.
    ///
    /// Bounded selection keeps the k best seen so far in a min-heap, so a
    /// query over n nodes costs O(n · dim + n log k) instead of a full sort;
    /// once the heap is full a row touches it only when it beats the heap's
    /// minimum. `Sim` is the same ordered-score type the ANN path uses, so
    /// both paths break score ties identically.
    pub fn top_k(&self, node: u32, k: usize) -> Vec<(u32, f32)> {
        use crate::ann::Sim;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let k = k.min(self.num_nodes());
        if !self.contains(node) || k == 0 {
            return Vec::new();
        }
        // The query vector and its norm are loop-invariant — fetch them once.
        let va = self.embeddings.vector(node);
        let na = self.norms[node as usize];
        let mut heap: BinaryHeap<Reverse<Sim>> = BinaryHeap::with_capacity(k);
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
            let hit = Sim(s, u);
            if heap.len() < k {
                heap.push(Reverse(hit));
            } else if let Some(mut min) = heap.peek_mut().filter(|min| hit > min.0) {
                *min = Reverse(hit);
            }
        }
        // Ascending order of `Reverse` is descending score — best first.
        heap.into_sorted_vec()
            .into_iter()
            .map(|Reverse(Sim(s, u))| (u, s))
            .collect()
    }

    /// The snapshot's ANN index, when the publishing store enabled one. It
    /// was built from the vectors of [`index_epoch`](Self::index_epoch).
    pub fn ann(&self) -> Option<&HnswIndex> {
        self.ann.as_deref()
    }

    /// The epoch whose vectors the ANN index was built from: equal to
    /// [`epoch`](Self::epoch) unless the snapshot was published by
    /// [`EmbeddingStore::publish_keeping_index`] (and always equal when there
    /// is no index to lag).
    pub fn index_epoch(&self) -> u64 {
        self.index_epoch
    }

    /// Like [`top_k`](EmbeddingSnapshot::top_k), but with an explicit
    /// [`QueryMode`]. [`QueryMode::Ann`] routes through the HNSW index and
    /// falls back to the exact scan when the snapshot carries no index or the
    /// graph search comes back short (possible on degenerate inputs) or the
    /// query node is one the index predates. Each such fallback bumps the
    /// publishing store's `query.ann_fallbacks`; exact queries never count.
    /// Like [`top_k`](Self::top_k), it clamps `k` to the row count first, so
    /// no request can size an allocation past the snapshot.
    pub fn top_k_mode(&self, node: u32, k: usize, mode: QueryMode) -> Vec<(u32, f32)> {
        let k = k.min(self.num_nodes());
        if mode == QueryMode::Exact || !self.contains(node) || k == 0 {
            return self.top_k(node, k);
        }
        let Some(index) = &self.ann else {
            self.ann_fallbacks.inc();
            return self.top_k(node, k);
        };
        let hits = if self.index_epoch == self.epoch {
            index.search_node(node, k)
        } else if index.is_indexed(node) {
            self.search_lagging(index, node, k)
        } else {
            Vec::new()
        };
        if hits.len() < k.min(self.live_count().saturating_sub(1)) {
            self.ann_fallbacks.inc();
            self.top_k(node, k)
        } else {
            hits
        }
    }

    /// ANN candidates from an index built for an earlier epoch: over-fetch by
    /// the ids retired since, drop every id not live in this snapshot, and
    /// re-score the rest against this snapshot's vectors, so each score is
    /// this epoch's [`cosine`](Self::cosine) and the order is this epoch's.
    fn search_lagging(&self, index: &HnswIndex, node: u32, k: usize) -> Vec<(u32, f32)> {
        use crate::ann::Sim;

        let va = self.embeddings.vector(node);
        let na = self.norms[node as usize];
        let mut hits: Vec<Sim> = index
            .search_node(node, k + self.retired_since_index)
            .into_iter()
            .filter(|&(u, _)| self.is_live(u))
            .map(|(u, _)| {
                let s = kernels::cosine_with_norms(
                    va,
                    self.embeddings.vector(u),
                    na,
                    self.norms[u as usize],
                );
                Sim(s, u)
            })
            .collect();
        hits.sort_by(|a, b| b.cmp(a));
        hits.truncate(k);
        hits.into_iter().map(|Sim(s, u)| (u, s)).collect()
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
                0,
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
        let (snapshot, norms_time, ann_time) =
            EmbeddingSnapshot::new_timed(epoch, embeddings, self.ann.as_ref(), live);
        self.install(snapshot);
        self.telemetry.publish_norms_ns.record_duration(norms_time);
        self.telemetry
            .publish_ann_build_ns
            .record_duration(ann_time);
        self.telemetry
            .publish_total_ns
            .record_duration(t_total.elapsed());
        epoch
    }

    /// [`publish_with_universe`](EmbeddingStore::publish_with_universe)
    /// without the index build: the new epoch serves these vectors exactly
    /// (`vector`, `cosine`, exact `top_k`) and keeps the current snapshot's
    /// HNSW index, built for an earlier epoch, for ANN candidates. Costs the
    /// matrix copy and the norms pass — milliseconds where a build costs
    /// a large share of a streaming batch.
    ///
    /// ANN `top_k` on the new snapshot over-fetches from the old index by
    /// the ids retired since it was built, drops every id not live now,
    /// re-scores the rest with the new vectors and sorts them again; it falls
    /// back to the exact scan when fewer than `k` hits survive or the query
    /// node is not in the old index (an arrival). The snapshot's
    /// [`index_epoch`](EmbeddingSnapshot::index_epoch) says which epoch the
    /// index belongs to. When there is no index to keep (no ANN, nothing
    /// published with one yet, another dimensionality) this is a plain
    /// `publish_with_universe`.
    pub fn publish_keeping_index(&self, embeddings: Embeddings, live: Option<Vec<bool>>) -> u64 {
        use std::sync::atomic::Ordering;
        let prev = self.snapshot();
        let Some(index) = prev
            .ann
            .as_ref()
            .filter(|index| self.ann.is_some() && index.dim() == embeddings.dim())
        else {
            return self.publish_with_universe(embeddings, live);
        };
        let t_total = Instant::now();
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let t_norms = Instant::now();
        let snapshot = EmbeddingSnapshot::with_index(
            epoch,
            embeddings,
            Some(Arc::clone(index)),
            prev.index_epoch,
            live,
        );
        let norms_time = t_norms.elapsed();
        self.install(snapshot);
        self.telemetry.publish_ann_deferred.inc();
        self.telemetry.publish_norms_ns.record_duration(norms_time);
        self.telemetry
            .publish_total_ns
            .record_duration(t_total.elapsed());
        epoch
    }

    /// Swaps `snapshot` in (unless a higher epoch already serves) and
    /// updates the per-publish gauges.
    fn install(&self, mut snapshot: EmbeddingSnapshot) {
        snapshot.ann_fallbacks = Arc::clone(&self.telemetry.ann_fallbacks);
        let epoch = snapshot.epoch();
        self.telemetry.live_nodes.set(snapshot.live_count() as i64);
        self.telemetry
            .index_lag_batches
            .set((epoch - snapshot.index_epoch()) as i64);
        {
            let mut slot = self.slot.write().expect("embedding store lock poisoned");
            if epoch > slot.epoch() {
                *slot = Arc::new(snapshot);
            }
        }
        self.telemetry.note_publish(epoch);
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
        self.install(EmbeddingSnapshot::with_index(
            epoch,
            embeddings,
            ann.map(Arc::new),
            epoch,
            live,
        ));
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
        let hits = self.snapshot().top_k_mode(node, k, mode);
        match mode {
            QueryMode::Exact => &self.telemetry.query_exact_ns,
            QueryMode::Ann => &self.telemetry.query_ann_ns,
        }
        .record_duration(t.elapsed());
        hits
    }

    /// Answers a slab of top-k queries with one snapshot acquisition, so the
    /// per-query read-lock cost is amortized across the batch and every row
    /// is answered from the same epoch.
    pub fn top_k_batch(&self, nodes: &[u32], k: usize, mode: QueryMode) -> Vec<Vec<(u32, f32)>> {
        let t = Instant::now();
        let rows = self.snapshot().top_k_batch(nodes, k, mode);
        self.telemetry.batch_size.record(nodes.len() as u64);
        self.telemetry.batch_total_ns.record_duration(t.elapsed());
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
    fn exact_scan_equals_a_full_sort_bit_for_bit() {
        use crate::ann::Sim;
        // Every random row appears twice, so every score is tied with
        // another id; in the constant matrix every score is tied with all.
        let rows = random_rows(60, 5);
        let mut twins = rows.as_flat().to_vec();
        twins.extend_from_slice(rows.as_flat());
        let constant = [0.5f32, -1.0, 2.0, 0.25, 1.0, 0.0, -0.5, 3.0].repeat(120);
        let n = 120;
        let mut live = vec![true; n];
        live[7] = false;
        live[67] = false;
        for (flat, mask) in [
            (&twins, None),
            (&twins, Some(live.clone())),
            (&constant, None),
            (&constant, Some(live)),
        ] {
            let snap = EmbeddingSnapshot::with_index(
                1,
                Embeddings::from_flat(8, flat.clone()),
                None,
                1,
                mask,
            );
            for node in [0u32, 13, 60, 119] {
                let mut oracle: Vec<Sim> = (0..n as u32)
                    .filter(|&u| u != node && snap.is_live(u))
                    .map(|u| Sim(snap.cosine(node, u).unwrap(), u))
                    .collect();
                oracle.sort_by(|a, b| b.cmp(a));
                for k in [1, 10, n - 1, n + 5] {
                    let want: Vec<(u32, u32)> = oracle
                        .iter()
                        .take(k)
                        .map(|&Sim(s, u)| (u, s.to_bits()))
                        .collect();
                    let got: Vec<(u32, u32)> = snap
                        .top_k(node, k)
                        .into_iter()
                        .map(|(u, s)| (u, s.to_bits()))
                        .collect();
                    assert_eq!(got, want, "node {node} k {k}");
                }
            }
        }
    }

    #[test]
    fn live_count_equals_the_mask_count() {
        let store = EmbeddingStore::new();
        store.publish(sample());
        assert_eq!(store.snapshot().live_count(), 5);
        for live in [
            vec![true, false, true, true, false],
            vec![false; 5],
            vec![true; 5],
        ] {
            let want = live.iter().filter(|&&l| l).count();
            store.publish_with_universe(sample(), Some(live));
            assert_eq!(store.snapshot().live_count(), want);
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
        // The index walks int8 codes, but both query modes report f32
        // cosines; over 5 nodes the whole beam is every node, so ANN and the
        // exact scan must agree hit for hit.
        let store = EmbeddingStore::with_ann(AnnConfig::default());
        store.publish(sample());
        let snap = store.snapshot();
        for node in 0..5u32 {
            let exact = snap.top_k_mode(node, 3, QueryMode::Exact);
            let ann = snap.top_k_mode(node, 3, QueryMode::Ann);
            assert_eq!(ann.len(), exact.len(), "node {node}");
            for (a, e) in ann.iter().zip(&exact) {
                assert!(
                    (a.1 - e.1).abs() < 1e-6,
                    "node {node}: {ann:?} vs {exact:?}"
                );
            }
            for (u, s) in ann {
                let want = snap.cosine(node, u).unwrap();
                assert!(
                    (s - want).abs() < 1e-6,
                    "node {node} hit {u}: {s} vs {want}"
                );
            }
        }
    }

    #[test]
    fn a_huge_k_is_clamped_to_the_rows_before_anything_is_allocated() {
        // A k from the wire can be u32::MAX: nothing may be sized by it, and
        // it asks for every live row.
        let store = EmbeddingStore::with_ann(AnnConfig::default());
        let mut live = vec![true; 100];
        for v in (0..100).step_by(9) {
            live[v] = false;
        }
        let flat: Vec<f32> = (0..100 * 8)
            .map(|i| ((i * 37 % 101) as f32).sin())
            .collect();
        store.publish_with_universe(Embeddings::from_flat(8, flat), Some(live));
        let snap = store.snapshot();
        let want = snap.live_count() - 1;
        for mode in [QueryMode::Exact, QueryMode::Ann] {
            let hits = snap.top_k_mode(3, u32::MAX as usize, mode);
            assert_eq!(hits.len(), want, "{mode:?}");
            assert!(hits.iter().all(|&(u, _)| u != 3 && snap.is_live(u)));
            assert_eq!(snap.top_k_mode(3, usize::MAX, mode).len(), want);
        }
        assert_eq!(snap.top_k(3, usize::MAX).len(), want);
    }

    #[test]
    fn publishes_build_a_fresh_index_every_time() {
        let store = EmbeddingStore::with_ann(AnnConfig::default());
        store.publish(sample());
        let first = store.snapshot();
        // A second publish over an index, with identical vectors, still
        // builds from scratch: nothing is grafted.
        store.publish(sample());
        let second = store.snapshot();
        let (a, b) = (first.ann().unwrap(), second.ann().unwrap());
        assert!(!std::ptr::eq(a, b));
        assert!(b.incremental_stats().is_none(), "a publish never grafts");
        assert_eq!(a.export_graph(), b.export_graph());
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

    /// `n` pseudo-random rows in 8 dimensions.
    fn random_rows(n: usize, seed: u64) -> Embeddings {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        Embeddings::from_flat(8, (0..n * 8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    /// `base` grown to `n` rows (new rows random) with every value moved by
    /// up to `by`.
    fn drifted(base: &Embeddings, n: usize, by: f32, seed: u64) -> Embeddings {
        let noise = random_rows(n, seed);
        let flat = (0..n * 8)
            .map(|i| base.as_flat().get(i).copied().unwrap_or(0.0) + by * noise.as_flat()[i])
            .collect();
        Embeddings::from_flat(8, flat)
    }

    #[test]
    fn a_snapshot_that_keeps_an_older_index_answers_for_its_own_epoch() {
        let store = EmbeddingStore::with_ann(AnnConfig::default());
        let base = random_rows(200, 1);
        store.publish(base.clone());
        let built = store.snapshot();
        // The next epoch: every vector drifts, every 7th id retires and 10
        // ids arrive — none of which the kept index knows about.
        let live: Vec<bool> = (0..210).map(|v| v % 7 != 3).collect();
        let epoch = store.publish_keeping_index(drifted(&base, 210, 0.3, 2), Some(live.clone()));
        let snap = store.snapshot();
        assert_eq!((snap.epoch(), snap.index_epoch()), (epoch, 1));
        assert!(std::ptr::eq(snap.ann().unwrap(), built.ann().unwrap()));
        assert_eq!(
            built.index_epoch(),
            built.epoch(),
            "a built index is current"
        );

        for q in (0..200u32).filter(|&q| live[q as usize]) {
            let hits = store.top_k_mode(q, 10, QueryMode::Ann);
            assert_eq!(hits.len(), 10, "query {q}");
            for pair in hits.windows(2) {
                assert!(pair[0].1 >= pair[1].1, "query {q} unsorted: {hits:?}");
            }
            for &(u, score) in &hits {
                assert!(u != q && live[u as usize], "query {q} served {u}");
                assert_eq!(score.to_bits(), snap.cosine(q, u).unwrap().to_bits());
            }
        }
        assert_eq!(store.telemetry().ann_fallbacks.get(), 0);
        // An arrival is not in the old index: the exact scan answers it.
        let arrivals: Vec<u32> = (200..210).filter(|&q| live[q as usize]).collect();
        for &q in &arrivals {
            let hits = store.top_k_mode(q, 10, QueryMode::Ann);
            assert_eq!(hits.len(), 10);
            assert_eq!(hits, snap.top_k(q, 10));
        }
        assert_eq!(store.telemetry().ann_fallbacks.get(), arrivals.len() as u64);
        assert!(
            store.top_k_mode(3, 10, QueryMode::Ann).is_empty(),
            "retired"
        );

        // The next built publish is current again.
        store.publish_with_universe(drifted(&base, 210, 0.3, 3), Some(live));
        let snap = store.snapshot();
        assert_eq!(snap.index_epoch(), snap.epoch());
        assert!(!std::ptr::eq(snap.ann().unwrap(), built.ann().unwrap()));
    }

    #[test]
    fn keeping_the_index_without_one_to_keep_is_a_plain_publish() {
        let plain = EmbeddingStore::new();
        let epoch = plain.publish_keeping_index(sample(), None);
        assert_eq!(plain.snapshot().index_epoch(), epoch);
        // An ANN store with nothing indexed yet builds.
        let ann = EmbeddingStore::with_ann(AnnConfig::default());
        ann.publish_keeping_index(sample(), None);
        let snap = ann.snapshot();
        assert!(snap.ann().is_some());
        assert_eq!(snap.index_epoch(), snap.epoch());
        for store in [&plain, &ann] {
            assert_eq!(store.telemetry().publish_ann_deferred.get(), 0);
        }
    }

    #[test]
    fn deferred_and_built_publishes_show_in_the_registry() {
        let registry = uninet_metrics::MetricsRegistry::new();
        let store = EmbeddingStore::with_ann(AnnConfig::default())
            .instrumented(StoreTelemetry::registered(&registry));
        store.publish(sample());
        store.publish_keeping_index(sample(), None);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.publish.ann_deferred"), Some(1));
        assert_eq!(snap.gauge("engine.publish.index_lag_batches"), Some(1));
        assert_eq!(
            snap.histogram("engine.publish.ann_build_ns")
                .unwrap()
                .count(),
            1,
            "a deferred publish builds nothing"
        );
        assert_eq!(
            snap.histogram("engine.publish.total_ns").unwrap().count(),
            2
        );
        store.publish(sample());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.publish.ann_deferred"), Some(1));
        assert_eq!(snap.gauge("engine.publish.index_lag_batches"), Some(0));
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
