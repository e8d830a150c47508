//! [`WalkRefresher`]: finds walks whose trajectories pass through mutated
//! vertices and regenerates only those, leaving the rest of the corpus
//! untouched.
//!
//! An inverted index (node → walk ids) makes the affected-walk lookup O(1)
//! per touched node. The index is maintained *exactly*: after a walk is
//! regenerated, postings for nodes the new trajectory no longer visits are
//! pruned, so the index never accumulates stale entries (a wholesale rebuild
//! remains as a defensive backstop should the bookkeeping ever drift).
//!
//! [`WalkRefresher::refresh_parallel`] regenerates walks with the walk
//! engine's [`walk_batch`] (walks are independent given the shared lock-free
//! `SamplerManager`) and applies the corpus/index updates serially. Each
//! walk's RNG derives from its id, so the thread count does not change the
//! corpus.

use std::time::{Duration, Instant};

use uninet_graph::{Graph, NodeId};
use uninet_walker::{walk_batch, RandomWalkModel, SamplerManager, WalkCorpus};

/// Outcome of one refresh pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Touched nodes examined.
    pub nodes_examined: usize,
    /// Walks regenerated.
    pub walks_refreshed: usize,
    /// Total nodes re-sampled across refreshed walks.
    pub tokens_regenerated: usize,
    /// Stale node→walk postings pruned from the inverted index.
    pub postings_pruned: usize,
}

impl RefreshStats {
    /// Accumulates another pass into this one.
    pub fn merge(&mut self, other: &RefreshStats) {
        self.nodes_examined += other.nodes_examined;
        self.walks_refreshed += other.walks_refreshed;
        self.tokens_regenerated += other.tokens_regenerated;
        self.postings_pruned += other.postings_pruned;
    }
}

/// A refresh pass plus the ids of the walks it regenerated (consumed by
/// incremental embedding training, which re-trains only on these walks).
#[derive(Debug, Clone, Default)]
pub struct RefreshOutcome {
    /// Accounting of the pass.
    pub stats: RefreshStats,
    /// Ids of the regenerated walks, ascending.
    pub refreshed_ids: Vec<u32>,
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
}

/// Incrementally maintains a walk corpus against a mutating graph.
#[derive(Debug)]
pub struct WalkRefresher {
    /// node -> sorted indices of walks visiting it (exact, postings pruned).
    index: Vec<Vec<u32>>,
    /// Upper bound of live postings (tokens of the current corpus).
    live_tokens: usize,
    /// Total postings currently stored.
    stored_postings: usize,
    /// Walk length to regenerate with.
    walk_length: usize,
    /// Base seed for refresh RNGs.
    seed: u64,
    /// Bumped every refresh pass so regenerated walks explore fresh paths.
    generation: u64,
}

impl WalkRefresher {
    /// Builds the node → walks index for `corpus`.
    pub fn new(corpus: &WalkCorpus, num_nodes: usize, walk_length: usize, seed: u64) -> Self {
        let mut r = WalkRefresher {
            index: Vec::new(),
            live_tokens: 0,
            stored_postings: 0,
            walk_length,
            seed,
            generation: 0,
        };
        r.rebuild_index(corpus, num_nodes);
        r
    }

    fn rebuild_index(&mut self, corpus: &WalkCorpus, num_nodes: usize) {
        let mut index = vec![Vec::new(); num_nodes];
        for (i, walk) in corpus.iter().enumerate() {
            let mut seen: Vec<NodeId> = walk.to_vec();
            seen.sort_unstable();
            seen.dedup();
            for v in seen {
                index[v as usize].push(i as u32);
            }
        }
        self.stored_postings = index.iter().map(Vec::len).sum();
        self.live_tokens = corpus.total_tokens();
        self.index = index;
    }

    /// Walk ids currently indexed under `v` (empty for ids past the index,
    /// e.g. nodes that arrived after the last [`WalkRefresher::grow`]).
    pub fn walks_through(&self, v: NodeId) -> &[u32] {
        self.index.get(v as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Extends the node → walks index to cover `num_nodes` ids (open-world
    /// arrivals). Existing postings are untouched; shrinking is a no-op.
    pub fn grow(&mut self, num_nodes: usize) {
        if num_nodes > self.index.len() {
            self.index.resize_with(num_nodes, Vec::new);
        }
    }

    /// Evicts retired nodes from the corpus: every walk whose trajectory
    /// visits any id in `retired` is emptied (and fully de-indexed), so no
    /// future training pass or refresh can resurrect a retired id from a
    /// stale trajectory. Returns the evicted walk ids, ascending.
    pub fn evict_walks(&mut self, corpus: &mut WalkCorpus, retired: &[NodeId]) -> Vec<u32> {
        let ids = self.affected_ids(retired);
        for &id in &ids {
            let old = corpus.walk(id as usize).to_vec();
            self.reindex_walk(id, &old, &[]);
            corpus.set_walk(id as usize, Vec::new());
        }
        self.live_tokens = corpus.total_tokens();
        ids
    }

    /// Seeds `walks_per_node` fresh walks for each arrived node in `starts`,
    /// appending them to the corpus and the index. Starts with no out-edges
    /// are skipped (cold nodes are seeded once they gain an edge). Returns
    /// the new walk ids.
    pub fn seed_walks<M: RandomWalkModel + ?Sized>(
        &mut self,
        corpus: &mut WalkCorpus,
        graph: &Graph,
        model: &M,
        manager: &SamplerManager,
        starts: &[NodeId],
        walks_per_node: usize,
    ) -> Vec<u32> {
        self.grow(graph.num_nodes());
        let first_id = corpus.num_walks() as u32;
        let tasks: Vec<(NodeId, u64)> = starts
            .iter()
            .filter(|&&start| (start as usize) < graph.num_nodes() && graph.degree(start) > 0)
            .flat_map(|&start| std::iter::repeat_n(start, walks_per_node.max(1)))
            .zip(first_id..)
            .map(|(start, id)| (start, self.walk_seed(id)))
            .collect();
        let walks = walk_batch(graph, model, manager, &tasks, self.walk_length, 1);
        let mut new_ids = Vec::with_capacity(walks.len());
        for (id, walk) in (first_id..).zip(walks) {
            self.reindex_walk(id, &[], &walk);
            corpus.push(walk);
            new_ids.push(id);
        }
        self.live_tokens = corpus.total_tokens();
        new_ids
    }

    /// Total postings currently stored (exact: stale entries are pruned).
    pub fn stored_postings(&self) -> usize {
        self.stored_postings
    }

    /// The ids of every walk passing through any node in `touched`, ascending.
    fn affected_ids(&self, touched: &[NodeId]) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        for &v in touched {
            if (v as usize) < self.index.len() {
                ids.extend_from_slice(&self.index[v as usize]);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The RNG seed of walk `id`'s regeneration this generation, the same on
    /// every thread so the thread count cannot change the walks.
    fn walk_seed(&self, id: u32) -> u64 {
        self.seed
            ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ self.generation.wrapping_mul(0xD1B54A32D192ED03)
    }

    /// Re-indexes walk `id` after regeneration: adds postings for newly
    /// visited nodes and prunes postings for nodes the walk no longer visits.
    /// Returns the number of stale postings pruned.
    fn reindex_walk(&mut self, id: u32, old: &[NodeId], new: &[NodeId]) -> usize {
        let mut old_seen: Vec<NodeId> = old.to_vec();
        old_seen.sort_unstable();
        old_seen.dedup();
        let mut new_seen: Vec<NodeId> = new.to_vec();
        new_seen.sort_unstable();
        new_seen.dedup();

        let mut pruned = 0usize;
        for &v in &new_seen {
            if old_seen.binary_search(&v).is_err() {
                // Postings stay sorted so membership stays O(log n).
                let postings = &mut self.index[v as usize];
                if let Err(pos) = postings.binary_search(&id) {
                    postings.insert(pos, id);
                    self.stored_postings += 1;
                }
            }
        }
        for &v in &old_seen {
            if new_seen.binary_search(&v).is_err() {
                let postings = &mut self.index[v as usize];
                if let Ok(pos) = postings.binary_search(&id) {
                    postings.remove(pos);
                    self.stored_postings -= 1;
                    pruned += 1;
                }
            }
        }
        pruned
    }

    /// Installs regenerated walks into the corpus and the index.
    fn install(
        &mut self,
        corpus: &mut WalkCorpus,
        regenerated: Vec<(u32, Vec<NodeId>)>,
        stats: &mut RefreshStats,
    ) {
        for (id, walk) in regenerated {
            stats.tokens_regenerated += walk.len();
            stats.postings_pruned += self.reindex_walk(id, corpus.walk(id as usize), &walk);
            corpus.set_walk(id as usize, walk);
        }
        self.live_tokens = corpus.total_tokens();

        // Defensive backstop: with exact pruning stale postings can no longer
        // accumulate, but rebuild wholesale if the bookkeeping ever drifts.
        if self.stored_postings > 2 * self.live_tokens.max(1) {
            let n = self.index.len();
            self.rebuild_index(corpus, n);
        }
    }

    /// Regenerates every walk that passes through any node in `touched` on
    /// up to `num_threads` threads with the walk engine's [`walk_batch`], and
    /// returns the refreshed walk ids.
    ///
    /// Refreshed walks restart from their original start node and are driven
    /// by the live `manager` — so M-H chain state carried across the update
    /// is reused, not re-initialized. Each walk's RNG is derived from its id
    /// and the pass generation, not the thread, so with stateless sampler
    /// backends (alias / direct / rejection) every thread count produces
    /// exactly the same corpus. The M-H backend shares live chain state
    /// across walkers, so its walk content depends on the order walks visit
    /// the chains, which repeats only on one thread — just as in the batch
    /// engine.
    pub fn refresh_parallel<M: RandomWalkModel + ?Sized>(
        &mut self,
        corpus: &mut WalkCorpus,
        graph: &Graph,
        model: &M,
        manager: &SamplerManager,
        touched: &[NodeId],
        num_threads: usize,
    ) -> RefreshOutcome {
        let t = Instant::now();
        self.generation += 1;
        let mut stats = RefreshStats {
            nodes_examined: touched.len(),
            ..Default::default()
        };

        let mut ids = self.affected_ids(touched);
        // Evicted walks are empty and have no start to restart from.
        ids.retain(|&id| !corpus.walk(id as usize).is_empty());
        stats.walks_refreshed = ids.len();

        let tasks: Vec<(NodeId, u64)> = ids
            .iter()
            .map(|&id| (corpus.walk(id as usize)[0], self.walk_seed(id)))
            .collect();
        let walks = walk_batch(graph, model, manager, &tasks, self.walk_length, num_threads);
        let regenerated = ids.iter().copied().zip(walks).collect();
        self.install(corpus, regenerated, &mut stats);
        RefreshOutcome {
            stats,
            refreshed_ids: ids,
            elapsed: t.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_graph::generators::{rmat, RmatConfig};
    use uninet_sampler::{EdgeSamplerKind, InitStrategy};
    use uninet_walker::models::DeepWalk;
    use uninet_walker::{WalkEngine, WalkEngineConfig};

    fn setup() -> (Graph, WalkCorpus, SamplerManager, WalkEngineConfig) {
        let g = rmat(&RmatConfig {
            num_nodes: 150,
            num_edges: 1200,
            weighted: true,
            seed: 17,
            ..Default::default()
        });
        let model = DeepWalk::new();
        let cfg = WalkEngineConfig::default()
            .with_num_walks(2)
            .with_walk_length(12)
            .with_threads(2)
            .with_sampler(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random));
        let manager = SamplerManager::new(&g, &model, cfg.sampler, 0);
        let engine = WalkEngine::new(cfg);
        let starts: Vec<NodeId> = g.non_isolated_nodes().collect();
        let (corpus, _) = engine.generate_with_manager(&g, &model, &manager, &starts);
        (g, corpus, manager, cfg)
    }

    #[test]
    fn index_covers_every_visit() {
        let (g, corpus, _, cfg) = setup();
        let refresher = WalkRefresher::new(&corpus, g.num_nodes(), cfg.walk_length, 7);
        for (i, walk) in corpus.iter().enumerate() {
            for &v in walk {
                assert!(
                    refresher.walks_through(v).contains(&(i as u32)),
                    "walk {i} through node {v} not indexed"
                );
            }
        }
    }

    #[test]
    fn refresh_touches_only_affected_walks() {
        let (g, mut corpus, manager, cfg) = setup();
        let model = DeepWalk::new();
        let mut refresher = WalkRefresher::new(&corpus, g.num_nodes(), cfg.walk_length, 7);
        let touched = [3u32];
        let affected: Vec<u32> = refresher.walks_through(3).to_vec();
        let before: Vec<Vec<NodeId>> = corpus.walks().to_vec();
        let stats = refresher
            .refresh_parallel(&mut corpus, &g, &model, &manager, &touched, 1)
            .stats;
        assert_eq!(stats.walks_refreshed, affected.len());
        assert!(stats.tokens_regenerated > 0);
        for (i, walk) in corpus.iter().enumerate() {
            if !affected.contains(&(i as u32)) {
                assert_eq!(walk, before[i].as_slice(), "unaffected walk {i} changed");
            } else {
                assert_eq!(walk[0], before[i][0], "refreshed walk {i} moved its start");
            }
        }
    }

    #[test]
    fn refreshed_walks_are_valid_paths() {
        let (g, mut corpus, manager, cfg) = setup();
        let model = DeepWalk::new();
        let mut refresher = WalkRefresher::new(&corpus, g.num_nodes(), cfg.walk_length, 9);
        let touched: Vec<NodeId> = (0..20).collect();
        let stats = refresher
            .refresh_parallel(&mut corpus, &g, &model, &manager, &touched, 1)
            .stats;
        assert!(stats.walks_refreshed > 0);
        for walk in corpus.iter() {
            for pair in walk.windows(2) {
                assert!(
                    g.has_edge(pair[0], pair[1]),
                    "non-edge {} -> {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    /// The index must stay *exact* under repeated refresh: every posting
    /// corresponds to a live visit, and every visit has a posting.
    fn assert_index_exact(refresher: &WalkRefresher, corpus: &WalkCorpus, num_nodes: usize) {
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for (i, walk) in corpus.iter().enumerate() {
            let mut seen: Vec<NodeId> = walk.to_vec();
            seen.sort_unstable();
            seen.dedup();
            for v in seen {
                expected[v as usize].push(i as u32);
            }
        }
        let mut total = 0usize;
        for (v, exp) in expected.iter().enumerate() {
            assert_eq!(
                refresher.walks_through(v as NodeId),
                exp.as_slice(),
                "postings of node {v} diverged"
            );
            total += exp.len();
        }
        assert_eq!(refresher.stored_postings(), total);
    }

    #[test]
    fn repeated_refresh_keeps_index_exact_without_stale_growth() {
        let (g, mut corpus, manager, cfg) = setup();
        let model = DeepWalk::new();
        let mut refresher = WalkRefresher::new(&corpus, g.num_nodes(), cfg.walk_length, 13);
        let mut pruned = 0usize;
        for round in 0..8 {
            let touched = [(round * 7 % 150) as NodeId, (round * 13 % 150) as NodeId];
            let outcome =
                refresher.refresh_parallel(&mut corpus, &g, &model, &manager, &touched, 1);
            pruned += outcome.stats.postings_pruned;
        }
        assert_index_exact(&refresher, &corpus, g.num_nodes());
        // Regenerated trajectories diverge, so some postings must have been
        // pruned; without pruning they would linger as stale index growth.
        assert!(pruned > 0, "no stale postings pruned over 8 rounds");
    }

    #[test]
    fn evict_then_seed_maintains_exact_index() {
        let (g, mut corpus, manager, cfg) = setup();
        let model = DeepWalk::new();
        let mut refresher = WalkRefresher::new(&corpus, g.num_nodes(), cfg.walk_length, 41);

        let retired = [5u32, 9];
        let evicted = refresher.evict_walks(&mut corpus, &retired);
        assert!(!evicted.is_empty());
        for &id in &evicted {
            assert!(corpus.walk(id as usize).is_empty(), "walk {id} not evicted");
        }
        for &v in &retired {
            assert!(refresher.walks_through(v).is_empty());
        }
        assert_index_exact(&refresher, &corpus, g.num_nodes());

        // A refresh touching the retired ids must not resurrect evicted walks.
        let outcome = refresher.refresh_parallel(&mut corpus, &g, &model, &manager, &retired, 1);
        assert_eq!(outcome.stats.walks_refreshed, 0);

        // Seed walks for "arrived" ids (reuse live nodes as stand-ins).
        let before = corpus.num_walks();
        let seeded = refresher.seed_walks(&mut corpus, &g, &model, &manager, &[3, 7], 2);
        assert_eq!(seeded.len(), 4);
        assert_eq!(corpus.num_walks(), before + 4);
        for &id in &seeded {
            let w = corpus.walk(id as usize);
            assert!(!w.is_empty());
            assert!(w[0] == 3 || w[0] == 7, "seeded walk starts at {}", w[0]);
        }
        assert_index_exact(&refresher, &corpus, g.num_nodes());
    }

    #[test]
    fn grow_extends_index_without_disturbing_postings() {
        let (g, corpus, _, cfg) = setup();
        let mut refresher = WalkRefresher::new(&corpus, g.num_nodes(), cfg.walk_length, 43);
        let posted = refresher.walks_through(0).to_vec();
        refresher.grow(g.num_nodes() + 10);
        assert_eq!(refresher.walks_through(0), posted.as_slice());
        assert!(refresher
            .walks_through((g.num_nodes() + 5) as NodeId)
            .is_empty());
        // Out-of-index lookups are safe even before grow.
        let fresh = WalkRefresher::new(&corpus, g.num_nodes(), cfg.walk_length, 44);
        assert!(fresh.walks_through(10_000).is_empty());
    }

    #[test]
    fn parallel_refresh_matches_serial() {
        // Stateless samplers: identical per-walk RNGs must give identical
        // corpora regardless of the thread schedule (M-H chains are shared
        // mutable state, so they are exempt from bit-exactness).
        for sampler in [EdgeSamplerKind::Direct, EdgeSamplerKind::Alias] {
            let (g, _, _, cfg) = setup();
            let cfg = cfg.with_sampler(sampler);
            let model = DeepWalk::new();
            let manager = SamplerManager::new(&g, &model, cfg.sampler, 0);
            let engine = WalkEngine::new(cfg);
            let starts: Vec<NodeId> = g.non_isolated_nodes().collect();
            let (corpus, _) = engine.generate_with_manager(&g, &model, &manager, &starts);

            let new_refresher = |corpus: &WalkCorpus| {
                WalkRefresher::new(corpus, g.num_nodes(), cfg.walk_length, 29)
            };
            let mut serial_corpus = corpus.clone();
            let mut serial = new_refresher(&serial_corpus);
            let mut parallel_corpus = corpus.clone();
            let mut parallel = new_refresher(&parallel_corpus);
            let mut subset_corpus = corpus;
            let mut subset = new_refresher(&subset_corpus);

            let touched: Vec<NodeId> = (0..30).collect();
            let serial_outcome =
                serial.refresh_parallel(&mut serial_corpus, &g, &model, &manager, &touched, 1);
            let outcome =
                parallel.refresh_parallel(&mut parallel_corpus, &g, &model, &manager, &touched, 3);

            assert_eq!(serial_outcome.stats, outcome.stats);
            assert_eq!(serial_outcome.refreshed_ids, outcome.refreshed_ids);
            assert_eq!(serial_corpus.walks(), parallel_corpus.walks());
            assert_eq!(outcome.refreshed_ids.len(), outcome.stats.walks_refreshed);
            assert!(outcome.refreshed_ids.windows(2).all(|w| w[0] < w[1]));
            assert_index_exact(&parallel, &parallel_corpus, g.num_nodes());

            // A walk's RNG follows its id, not its place in the pass: a pass
            // over fewer nodes regenerates the walks it shares identically.
            let subset_ids = subset
                .refresh_parallel(&mut subset_corpus, &g, &model, &manager, &touched[..10], 1)
                .refreshed_ids;
            assert!(!subset_ids.is_empty() && subset_ids.len() < outcome.refreshed_ids.len());
            for &id in &subset_ids {
                assert_eq!(
                    subset_corpus.walk(id as usize),
                    parallel_corpus.walk(id as usize),
                    "{sampler:?} walk {id}"
                );
            }
        }
    }
}
