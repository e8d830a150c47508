//! The parallel random-walk generation engine (Algorithm 2 of the paper).
//!
//! Every walk is a task `(start, seed)` with its own RNG, so a walk does not
//! depend on the thread that runs it. [`walk_batch`] splits the tasks across
//! threads; each thread advances a ring of `RING` (8) walks a step at a time
//! and, between the phases of a step, prefetches what each walk's next
//! phase reads, so the cache misses of different walks overlap. The
//! per-state M-H chains are shared through the lock-free [`SamplerManager`].

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use uninet_graph::{EdgeRef, Graph, NodeId};
use uninet_sampler::{EdgeSamplerKind, InitStrategy};

use crate::manager::SamplerManager;
use crate::model::RandomWalkModel;
use crate::state::WalkerState;
use crate::walk::WalkCorpus;

/// Configuration of a walk-generation run.
#[derive(Debug, Clone, Copy)]
pub struct WalkEngineConfig {
    /// Number of walks started per node (`K`, paper default 10).
    pub num_walks: usize,
    /// Length of each walk in nodes (`L`, paper default 80).
    pub walk_length: usize,
    /// Number of worker threads (paper default 16).
    pub num_threads: usize,
    /// Seed from which every walk's own RNG is derived.
    pub seed: u64,
    /// Which edge sampler to use.
    pub sampler: EdgeSamplerKind,
    /// Memory budget for the memory-aware sampler (0 = same as M-H footprint).
    pub memory_budget_bytes: usize,
}

impl Default for WalkEngineConfig {
    fn default() -> Self {
        WalkEngineConfig {
            num_walks: 10,
            walk_length: 80,
            num_threads: 16,
            seed: 42,
            sampler: EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact()),
            memory_budget_bytes: 0,
        }
    }
}

impl WalkEngineConfig {
    /// Builder-style setter for the number of walks per node.
    pub fn with_num_walks(mut self, k: usize) -> Self {
        self.num_walks = k;
        self
    }
    /// Builder-style setter for the walk length.
    pub fn with_walk_length(mut self, l: usize) -> Self {
        self.walk_length = l;
        self
    }
    /// Builder-style setter for the thread count.
    pub fn with_threads(mut self, t: usize) -> Self {
        self.num_threads = t.max(1);
        self
    }
    /// Builder-style setter for the sampler strategy.
    pub fn with_sampler(mut self, s: EdgeSamplerKind) -> Self {
        self.sampler = s;
        self
    }
    /// Builder-style setter for the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Wall-clock breakdown of one walk-generation run, matching the `Ti` / `Tw`
/// columns of Table VI.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkTiming {
    /// Sampler-manager construction time (initialization cost `Ti`).
    pub init: Duration,
    /// Walking time (`Tw`).
    pub walk: Duration,
}

impl WalkTiming {
    /// Total of initialization and walking time.
    pub fn total(&self) -> Duration {
        self.init + self.walk
    }
}

/// The walk-generation engine.
#[derive(Debug, Clone, Copy)]
pub struct WalkEngine {
    config: WalkEngineConfig,
}

impl WalkEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: WalkEngineConfig) -> Self {
        WalkEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &WalkEngineConfig {
        &self.config
    }

    /// Generates the full corpus: `num_walks` walks of `walk_length` nodes
    /// from every non-isolated node, and reports the timing breakdown.
    pub fn generate<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &Graph,
        model: &M,
    ) -> (WalkCorpus, WalkTiming) {
        let start_nodes: Vec<NodeId> = graph.non_isolated_nodes().collect();
        self.generate_from(graph, model, &start_nodes)
    }

    /// Generates walks starting only from `start_nodes`.
    pub fn generate_from<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &Graph,
        model: &M,
        start_nodes: &[NodeId],
    ) -> (WalkCorpus, WalkTiming) {
        let cfg = &self.config;
        let t0 = Instant::now();
        let manager = SamplerManager::new(graph, model, cfg.sampler, cfg.memory_budget_bytes);
        let init = t0.elapsed();
        let (corpus, timing) = self.generate_with_manager(graph, model, &manager, start_nodes);
        (
            corpus,
            WalkTiming {
                init,
                walk: timing.walk,
            },
        )
    }

    /// Generates walks using a caller-owned [`SamplerManager`].
    ///
    /// This is the entry point of the streaming/dynamic pipeline: the manager
    /// (and with it the per-state M-H chain states) survives across calls, so
    /// walk refresh after a graph update does not pay the initialization cost
    /// again. The reported `init` time is zero.
    ///
    /// The corpus holds `num_walks` walks per start, starts in order. Walk
    /// `j` from `start` draws from its own RNG, seeded by a mix of
    /// `(seed, start, j)`, so with a sampler that keeps no shared state the
    /// corpus is the same at every thread count.
    pub fn generate_with_manager<M: RandomWalkModel + ?Sized>(
        &self,
        graph: &Graph,
        model: &M,
        manager: &SamplerManager,
        start_nodes: &[NodeId],
    ) -> (WalkCorpus, WalkTiming) {
        let cfg = &self.config;
        let t = Instant::now();
        let tasks: Vec<(NodeId, u64)> = start_nodes
            .iter()
            .flat_map(|&start| {
                (0..cfg.num_walks).map(move |j| (start, walk_seed(cfg.seed, start, j)))
            })
            .collect();
        let walks = walk_batch(
            graph,
            model,
            manager,
            &tasks,
            cfg.walk_length,
            cfg.num_threads,
        );
        (
            WalkCorpus::from_walks(walks),
            WalkTiming {
                init: Duration::ZERO,
                walk: t.elapsed(),
            },
        )
    }
}

/// The seed of walk `j` from `start` in a corpus generated under `seed`.
fn walk_seed(seed: u64, start: NodeId, j: usize) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(u64::from(start))) ^ j as u64)
}

/// The SplitMix64 output function: a bijective mix of all 64 bits.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Walks advanced together on one thread. Chosen by measurement (M-H
/// node2vec and deepwalk walks on a 100 k-node graph, 2 cores): rings of 4,
/// 16 and 32 walked 2–5% slower than 8, and a ring of 1 about 23% slower.
const RING: usize = 8;

/// Runs every task `(start, seed)` to a walk of at most `length` nodes on up
/// to `threads` threads (Algorithm 2, lines 5–14): walk `i` of the result
/// belongs to task `i` and draws from an RNG seeded with its seed. A walk
/// stops early where the sampler finds no edge.
///
/// With a sampler that keeps no shared state every walk is fixed by its task,
/// whatever the thread count. M-H chains are shared by all walks, so M-H
/// walks also depend on the order in which walks visit them, which repeats
/// only on one thread.
pub fn walk_batch<M: RandomWalkModel + ?Sized>(
    graph: &Graph,
    model: &M,
    manager: &SamplerManager,
    tasks: &[(NodeId, u64)],
    length: usize,
    threads: usize,
) -> Vec<Vec<NodeId>> {
    if length <= 1 {
        return tasks.iter().map(|&(start, _)| vec![start]).collect();
    }
    let mut walks = vec![Vec::new(); tasks.len()];
    let chunk = tasks.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let mut parts = tasks.chunks(chunk).zip(walks.chunks_mut(chunk));
        let first = parts.next();
        for (tasks, out) in parts {
            scope.spawn(move || walk_ring(graph, model, manager, tasks, length, out));
        }
        if let Some((tasks, out)) = first {
            walk_ring(graph, model, manager, tasks, length, out);
        }
    });
    walks
}

/// One walk in progress on a thread's ring.
struct Lane {
    /// Index of the walk's task (and output slot) in the thread's chunk.
    task: usize,
    walk: Vec<NodeId>,
    state: WalkerState,
    rng: SmallRng,
    /// The edge this step drew, or `None` when the walker is stuck.
    next: Option<EdgeRef>,
}

/// Walks `tasks` on the calling thread into `out`, [`RING`] walks at a time;
/// `length` is at least 2.
///
/// Each pass over the ring takes one step of every walk in three phases; the
/// prefetches of one phase are in flight while the thread works on the other
/// walks, and land before the next phase reads them:
/// (A) draw each walk's next edge, then prefetch the destination's offsets
///     and bucket entries;
/// (B) prefetch the destination's adjacency row;
/// (C) move each walk's state along its edge, then prefetch the sampler slot
///     of its new state. A finished walk leaves the ring for the next task.
fn walk_ring<M: RandomWalkModel + ?Sized>(
    graph: &Graph,
    model: &M,
    manager: &SamplerManager,
    tasks: &[(NodeId, u64)],
    length: usize,
    out: &mut [Vec<NodeId>],
) {
    let mut queue = tasks.iter().enumerate().map(|(task, &(start, seed))| {
        graph.prefetch_node(start);
        manager.prefetch_bucket(start);
        let mut walk = Vec::with_capacity(length);
        walk.push(start);
        Lane {
            task,
            walk,
            state: model.initial_state(graph, start),
            rng: SmallRng::seed_from_u64(seed),
            next: None,
        }
    });
    let mut ring: Vec<Lane> = queue.by_ref().take(RING).collect();
    while !ring.is_empty() {
        for lane in ring.iter_mut() {
            lane.next = manager
                .sample(graph, model, lane.state, &mut lane.rng)
                .map(|k| graph.edge_ref(lane.state.position, k));
            if let Some(edge) = lane.next {
                lane.walk.push(edge.dst);
                graph.prefetch_node(edge.dst);
                manager.prefetch_bucket(edge.dst);
            }
        }
        for lane in &ring {
            if let Some(edge) = lane.next {
                graph.prefetch_adjacency(edge.dst);
            }
        }
        let mut i = 0;
        while i < ring.len() {
            let lane = &mut ring[i];
            match lane.next {
                Some(edge) if lane.walk.len() < length => {
                    lane.state = model.update_state(graph, lane.state, edge);
                    manager.prefetch_state(lane.state);
                    i += 1;
                }
                _ => {
                    out[lane.task] = std::mem::take(&mut lane.walk);
                    match queue.next() {
                        Some(next) => {
                            ring[i] = next;
                            i += 1;
                        }
                        None => {
                            ring.swap_remove(i);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{DeepWalk, Edge2Vec, FairWalk, MetaPath2Vec, Node2Vec};
    use rand::Rng;
    use uninet_graph::generators::{heterogenize, rmat, RmatConfig};
    use uninet_graph::{GraphBuilder, Metapath};

    fn test_graph() -> Graph {
        rmat(&RmatConfig {
            num_nodes: 200,
            num_edges: 1500,
            weighted: true,
            seed: 3,
            ..Default::default()
        })
    }

    /// One walk of at most `length` nodes from `start`, step after step:
    /// the reference [`walk_batch`] must reproduce.
    fn walk_once<M: RandomWalkModel + ?Sized, R: Rng>(
        graph: &Graph,
        model: &M,
        manager: &SamplerManager,
        start: NodeId,
        length: usize,
        rng: &mut R,
    ) -> Vec<NodeId> {
        let mut walk = Vec::with_capacity(length);
        walk.push(start);
        let mut state = model.initial_state(graph, start);
        for _ in 1..length {
            let Some(k) = manager.sample(graph, model, state, rng) else {
                break;
            };
            let edge = graph.edge_ref(state.position, k);
            state = model.update_state(graph, state, edge);
            walk.push(edge.dst);
        }
        walk
    }

    fn check_walks_are_paths(graph: &Graph, corpus: &WalkCorpus) {
        for walk in corpus.iter() {
            assert!(!walk.is_empty());
            for pair in walk.windows(2) {
                assert!(
                    graph.has_edge(pair[0], pair[1]),
                    "walk contains non-edge {} -> {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn deepwalk_generates_expected_number_of_walks() {
        let g = test_graph();
        let cfg = WalkEngineConfig::default()
            .with_num_walks(3)
            .with_walk_length(12)
            .with_threads(4);
        let engine = WalkEngine::new(cfg);
        let (corpus, timing) = engine.generate(&g, &DeepWalk::new());
        let starts = g.non_isolated_nodes().count();
        assert_eq!(corpus.num_walks(), 3 * starts);
        assert!(corpus.mean_length() > 10.0);
        assert!(timing.total() >= timing.walk);
        check_walks_are_paths(&g, &corpus);
    }

    #[test]
    fn all_models_walk_with_mh_sampler() {
        let g = heterogenize(&test_graph(), 3, 2, 9);
        let cfg = WalkEngineConfig::default()
            .with_num_walks(1)
            .with_walk_length(10)
            .with_threads(4);
        let engine = WalkEngine::new(cfg);

        let deepwalk = DeepWalk::new();
        let node2vec = Node2Vec::new(0.25, 4.0);
        let metapath = MetaPath2Vec::new(Metapath::new(vec![0, 1, 2, 1, 0]));
        let edge2vec = Edge2Vec::uniform(0.25, 0.25, 2);
        let fairwalk = FairWalk::new(&g, 1.0, 1.0);
        let models: Vec<&dyn RandomWalkModel> =
            vec![&deepwalk, &node2vec, &metapath, &edge2vec, &fairwalk];
        for model in models {
            let (corpus, _) = engine.generate(&g, model);
            assert!(corpus.num_walks() > 0, "{} produced no walks", model.name());
            check_walks_are_paths(&g, &corpus);
        }
    }

    #[test]
    fn walks_are_valid_for_every_sampler_kind() {
        let g = test_graph();
        let model = Node2Vec::new(0.5, 2.0);
        for kind in [
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact()),
            EdgeSamplerKind::MetropolisHastings(InitStrategy::BurnIn { iterations: 10 }),
            EdgeSamplerKind::Alias,
            EdgeSamplerKind::Direct,
            EdgeSamplerKind::Rejection,
            EdgeSamplerKind::KnightKing,
            EdgeSamplerKind::MemoryAware,
        ] {
            let cfg = WalkEngineConfig::default()
                .with_num_walks(1)
                .with_walk_length(8)
                .with_threads(2)
                .with_sampler(kind);
            let (corpus, timing) = WalkEngine::new(cfg).generate(&g, &model);
            check_walks_are_paths(&g, &corpus);
            assert!(timing.init >= Duration::ZERO);
        }
    }

    #[test]
    fn metapath_walks_alternate_types() {
        let g = heterogenize(&test_graph(), 2, 1, 5);
        let model = MetaPath2Vec::new(Metapath::new(vec![0, 1, 0]));
        let cfg = WalkEngineConfig::default()
            .with_num_walks(2)
            .with_walk_length(10)
            .with_threads(2);
        let (corpus, _) = WalkEngine::new(cfg).generate(&g, &model);
        let mut checked = 0;
        for walk in corpus.iter() {
            // Only start nodes of type 0 follow the A-B-A-B pattern from position 0.
            if g.node_type(walk[0]) != 0 {
                continue;
            }
            for (i, &v) in walk.iter().enumerate() {
                assert_eq!(
                    g.node_type(v) as usize,
                    i % 2,
                    "walk {walk:?} breaks the metapath"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn walk_from_subset_of_nodes() {
        let g = test_graph();
        let engine = WalkEngine::new(
            WalkEngineConfig::default()
                .with_num_walks(2)
                .with_walk_length(5)
                .with_threads(2),
        );
        let starts = vec![0u32, 1, 2, 3];
        let (corpus, _) = engine.generate_from(&g, &DeepWalk::new(), &starts);
        assert_eq!(corpus.num_walks(), 8);
        for walk in corpus.iter() {
            assert!(starts.contains(&walk[0]));
        }
    }

    #[test]
    fn deterministic_given_seed_and_single_thread() {
        let g = test_graph();
        for sampler in [
            EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact()),
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            EdgeSamplerKind::Alias,
        ] {
            let cfg = WalkEngineConfig::default()
                .with_num_walks(2)
                .with_walk_length(10)
                .with_threads(1)
                .with_seed(123)
                .with_sampler(sampler);
            for model in [
                &DeepWalk::new() as &dyn RandomWalkModel,
                &Node2Vec::new(0.25, 4.0),
            ] {
                let (a, _) = WalkEngine::new(cfg).generate(&g, model);
                let (b, _) = WalkEngine::new(cfg).generate(&g, model);
                assert_eq!(a.walks(), b.walks(), "{sampler:?} {}", model.name());
            }
        }
    }

    #[test]
    fn stateless_samplers_give_the_same_corpus_at_every_thread_count() {
        let g = heterogenize(&test_graph(), 2, 1, 5);
        let deepwalk = DeepWalk::new();
        let node2vec = Node2Vec::new(0.25, 4.0);
        let metapath = MetaPath2Vec::new(Metapath::new(vec![0, 1, 0]));
        let models: [&dyn RandomWalkModel; 3] = [&deepwalk, &node2vec, &metapath];
        let starts: Vec<NodeId> = g.non_isolated_nodes().collect();
        for sampler in [
            EdgeSamplerKind::Alias,
            EdgeSamplerKind::Direct,
            EdgeSamplerKind::Rejection,
            EdgeSamplerKind::KnightKing,
            EdgeSamplerKind::MemoryAware,
        ] {
            for model in models {
                let manager = SamplerManager::new(&g, model, sampler, 0);
                let corpora: Vec<WalkCorpus> = [1, 2, 3]
                    .into_iter()
                    .map(|threads| {
                        let cfg = WalkEngineConfig::default()
                            .with_num_walks(3)
                            .with_walk_length(15)
                            .with_threads(threads)
                            .with_seed(77)
                            .with_sampler(sampler);
                        WalkEngine::new(cfg)
                            .generate_with_manager(&g, model, &manager, &starts)
                            .0
                    })
                    .collect();
                let case = format!("{sampler:?} {}", model.name());
                assert_eq!(corpora[0].walks(), corpora[1].walks(), "{case}: 1 vs 2");
                assert_eq!(corpora[0].walks(), corpora[2].walks(), "{case}: 1 vs 3");

                // Walk j from each start is walk_once under that walk's seed.
                assert_eq!(corpora[0].num_walks(), 3 * starts.len(), "{case}");
                for (i, walk) in corpora[0].iter().enumerate() {
                    let (start, j) = (starts[i / 3], i % 3);
                    let mut rng = SmallRng::seed_from_u64(walk_seed(77, start, j));
                    let oracle = walk_once(&g, model, &manager, start, 15, &mut rng);
                    assert_eq!(walk, oracle.as_slice(), "{case}: walk {i}");
                }
            }
        }
    }

    #[test]
    fn walk_batch_handles_short_and_stuck_walks() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.set_num_nodes(3);
        let g = b.symmetric(true).build();
        let model = DeepWalk::new();
        let manager = SamplerManager::new(&g, &model, EdgeSamplerKind::Alias, 0);
        let tasks: Vec<(NodeId, u64)> = (0..20).map(|i| (i % 3, i as u64)).collect();
        for threads in [1, 4] {
            for length in [0, 1] {
                let walks = walk_batch(&g, &model, &manager, &tasks, length, threads);
                let starts: Vec<Vec<NodeId>> = tasks.iter().map(|&(s, _)| vec![s]).collect();
                assert_eq!(walks, starts, "length {length}, {threads} threads");
            }
            let walks = walk_batch(&g, &model, &manager, &tasks, 6, threads);
            for (walk, &(start, _)) in walks.iter().zip(&tasks) {
                let expected = if start == 2 { 1 } else { 6 };
                assert_eq!(walk.len(), expected, "walk from {start}");
            }
        }
        assert!(walk_batch(&g, &model, &manager, &[], 5, 3).is_empty());
    }

    #[test]
    fn isolated_start_gives_single_node_walk() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.set_num_nodes(3);
        let g = b.symmetric(true).build();
        let engine = WalkEngine::new(
            WalkEngineConfig::default()
                .with_num_walks(1)
                .with_walk_length(5),
        );
        let (corpus, _) = engine.generate_from(&g, &DeepWalk::new(), &[2]);
        assert_eq!(corpus.num_walks(), 1);
        assert_eq!(corpus.walks()[0], vec![2]);
    }
}
