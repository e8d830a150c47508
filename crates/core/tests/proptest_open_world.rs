//! The open-world equivalence layer: for arbitrary churn streams (edge ops
//! interleaved with node arrivals and retirements), the concurrent streaming
//! path must land on exactly the state a from-scratch rebuild of the
//! surviving universe would produce:
//!
//! * the node universe (capacity + live mask) and every row's adjacency
//!   match an independent reference model of the id lifecycle;
//! * retired rows are empty in the compacted CSR and never rejoin with
//!   recycled state (an id that rejoins does so with an empty adjacency);
//! * incrementally maintained alias sampler tables draw the same sequences
//!   as tables built fresh over the final graph (sampler-weight equivalence);
//! * a snapshot published with the final universe mask never surfaces a
//!   retired id from `top_k` — exact scan or ANN index;
//! * a durable engine session over the same kind of stream restarts into
//!   exactly what it was serving — vectors and ANN answers, bit for bit —
//!   and a crash that loses the last snapshot still never serves a retiree.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use uninet_core::{
    AnnConfig, DynamicGraph, EdgeSamplerKind, EmbeddingStore, Embeddings, Engine, EngineBuilder,
    FsyncPolicy, GraphMutation, QueryMode, StreamingConfig,
};
use uninet_graph::{Graph, GraphBuilder, NodeId};
use uninet_ingest::{run_durable_pipeline, IngestConfig, IngestMetrics};
use uninet_walker::models::DeepWalk;
use uninet_walker::{RandomWalkModel, SamplerManager};

const N: u32 = 12;

/// Independent reference model of the open-world id lifecycle, mirroring the
/// documented `DynamicGraph::apply` semantics: ids `0..N` start live,
/// `AddNode` grows the universe (duplicate arrivals rejected, retired ids
/// rejoin empty), `RemoveNode` drops every incident edge and marks the id
/// dead, and edge ops are rejected unless both endpoints are live.
struct OpenWorldModel {
    live: Vec<bool>,
    edges: BTreeMap<(NodeId, NodeId), f32>,
    symmetric: bool,
}

impl OpenWorldModel {
    fn from_graph(g: &Graph, symmetric: bool) -> Self {
        let mut edges = BTreeMap::new();
        for (src, dst, w) in g.all_edges() {
            edges.insert((src, dst), w);
        }
        OpenWorldModel {
            live: vec![true; g.num_nodes()],
            edges,
            symmetric,
        }
    }

    fn capacity(&self) -> usize {
        self.live.len()
    }

    /// Applies one directed edge op; returns whether it took effect.
    fn apply_directed(&mut self, m: GraphMutation) -> bool {
        let (src, dst) = m.endpoints();
        match m {
            GraphMutation::AddEdge { weight, .. } => {
                self.edges.insert((src, dst), weight);
                true
            }
            GraphMutation::RemoveEdge { .. } => self.edges.remove(&(src, dst)).is_some(),
            GraphMutation::UpdateWeight { weight, .. } => match self.edges.get_mut(&(src, dst)) {
                Some(w) => {
                    *w = weight;
                    true
                }
                None => false,
            },
            GraphMutation::AddNode { .. } | GraphMutation::RemoveNode { .. } => {
                unreachable!("node ops never reach the directed edge path")
            }
        }
    }

    fn apply(&mut self, m: GraphMutation) {
        match m {
            GraphMutation::AddNode { node } => {
                let idx = node as usize;
                if self.live.get(idx).copied().unwrap_or(false) {
                    return; // duplicate arrival: rejected
                }
                if idx >= self.live.len() {
                    self.live.resize(idx + 1, false);
                }
                self.live[idx] = true; // vacant arrives, retired rejoins empty
            }
            GraphMutation::RemoveNode { node } => {
                let idx = node as usize;
                if !self.live.get(idx).copied().unwrap_or(false) {
                    return; // unknown or already retired: rejected
                }
                self.edges
                    .retain(|&(src, dst), _| src != node && dst != node);
                self.live[idx] = false;
            }
            edge_op => {
                let (src, dst) = edge_op.endpoints();
                let n = self.capacity() as NodeId;
                if src >= n
                    || dst >= n
                    || src == dst
                    || !self.live[src as usize]
                    || !self.live[dst as usize]
                {
                    return;
                }
                if self.apply_directed(edge_op) && self.symmetric {
                    let mirrored = match edge_op {
                        GraphMutation::AddEdge { src, dst, weight } => GraphMutation::AddEdge {
                            src: dst,
                            dst: src,
                            weight,
                        },
                        GraphMutation::RemoveEdge { src, dst } => {
                            GraphMutation::RemoveEdge { src: dst, dst: src }
                        }
                        GraphMutation::UpdateWeight { src, dst, weight } => {
                            GraphMutation::UpdateWeight {
                                src: dst,
                                dst: src,
                                weight,
                            }
                        }
                        _ => unreachable!("edge_op is an edge op"),
                    };
                    self.apply_directed(mirrored);
                }
            }
        }
    }

    fn neighbor_weights(&self, v: NodeId) -> Vec<(NodeId, f32)> {
        self.edges
            .range((v, 0)..=(v, NodeId::MAX))
            .map(|(&(_, dst), &w)| (dst, w))
            .collect()
    }
}

fn base_graph(edges: &[(u32, u32, f32)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.set_num_nodes(N as usize);
    b.symmetric(true).dedup(true);
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(u % N, v % N, w);
        }
    }
    b.build()
}

/// Edge ops over the (growable) id space plus arrivals and retirements.
fn churn_mutation() -> impl Strategy<Value = GraphMutation> {
    (0u8..6, 0u32..N + 4, 0u32..N + 4, 0.1f32..8.0).prop_map(|(op, src, dst, w)| match op {
        0 | 1 => GraphMutation::AddEdge {
            src,
            dst,
            weight: w,
        },
        2 => GraphMutation::RemoveEdge { src, dst },
        3 => GraphMutation::UpdateWeight {
            src,
            dst,
            weight: w,
        },
        4 => GraphMutation::AddNode { node: src },
        _ => GraphMutation::RemoveNode { node: src },
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The headline open-world property: streaming churn through the
    /// concurrent ingest pipeline == a from-scratch rebuild of the surviving
    /// universe, across graph state, sampler state and the query plane.
    #[test]
    fn open_world_equivalence(
        edges in prop::collection::vec((0u32..N, 0u32..N, 0.5f32..4.0), 1..40),
        mutations in prop::collection::vec(churn_mutation(), 0..80),
        batch_size in 1usize..16,
        seed in 0u64..1000,
    ) {
        let g = base_graph(&edges);
        let model = DeepWalk::new();

        // Reference: replay the stream against the independent lifecycle
        // model (the "from-scratch rebuild on the surviving universe").
        let mut reference = OpenWorldModel::from_graph(&g, true);
        for &m in &mutations {
            reference.apply(m);
        }

        // Streaming: the concurrent pipeline (sharded edge batches, serial
        // node-op batches, incremental sampler maintenance).
        let mut dg = DynamicGraph::new(g, true);
        let mut manager = SamplerManager::new(dg.base(), &model, EdgeSamplerKind::Alias, 0);
        run_durable_pipeline(
            &IngestConfig {
                batch_size,
                queue_capacity: 4,
                num_threads: 3,
                compaction_threshold: 8,
            },
            &IngestMetrics::detached(),
            &mut dg,
            &mut manager,
            &model,
            &mutations,
            None,
            |_, _, _, _| {},
        );

        // Universe equivalence: capacity, live mask, every row's adjacency.
        prop_assert_eq!(dg.num_nodes(), reference.capacity(), "universe capacity");
        prop_assert_eq!(dg.live_mask(), reference.live.as_slice(), "live mask");
        let final_graph = dg.materialize();
        final_graph.validate().unwrap();
        prop_assert_eq!(final_graph.num_nodes(), reference.capacity());
        for v in 0..reference.capacity() as NodeId {
            let expect = reference.neighbor_weights(v);
            if !reference.live[v as usize] {
                prop_assert!(expect.is_empty());
                prop_assert_eq!(
                    final_graph.degree(v), 0,
                    "retired id {} kept edges in the compacted CSR", v
                );
                continue;
            }
            let got: Vec<(NodeId, f32)> = final_graph
                .neighbors(v)
                .iter()
                .copied()
                .zip(final_graph.weights(v).iter().copied())
                .collect();
            prop_assert_eq!(&got, &expect, "adjacency of {}", v);
        }

        // Sampler-weight equivalence: alias tables maintained incrementally
        // through the churn draw the same sequences as tables built fresh
        // over the final graph. Alias construction is deterministic in the
        // weights, so any divergence is a maintenance bug.
        let fresh = SamplerManager::new(&final_graph, &model, EdgeSamplerKind::Alias, 0);
        prop_assert_eq!(manager.num_states(), fresh.num_states(), "sampler state count");
        for v in 0..reference.capacity() as NodeId {
            if !reference.live[v as usize] || final_graph.degree(v) == 0 {
                continue;
            }
            let state = model.initial_state(&final_graph, v);
            let mut rng_a = SmallRng::seed_from_u64(seed ^ u64::from(v));
            let mut rng_b = SmallRng::seed_from_u64(seed ^ u64::from(v));
            for draw in 0..16 {
                let a = manager.sample(dg.base(), &model, state, &mut rng_a);
                let b = fresh.sample(&final_graph, &model, state, &mut rng_b);
                prop_assert_eq!(
                    a, b,
                    "maintained vs fresh alias draw {} diverged at node {}", draw, v
                );
            }
        }

        // Query-plane equivalence: a snapshot published with the final mask
        // never surfaces a retired id, from the exact scan or the ANN index.
        let capacity = reference.capacity();
        let dim = 8usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let flat: Vec<f32> = (0..capacity * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let store = EmbeddingStore::with_ann(AnnConfig {
            m: 4,
            ef_construction: 16,
            ef_search: 16,
            ..AnnConfig::default()
        });
        let mask = reference
            .live
            .iter()
            .any(|&l| !l)
            .then(|| reference.live.clone());
        store.publish_with_universe(Embeddings::from_flat(dim, flat), mask);
        let snapshot = store.snapshot();
        prop_assert_eq!(
            snapshot.live_count(),
            reference.live.iter().filter(|&&l| l).count()
        );
        for v in 0..capacity as NodeId {
            if reference.live[v as usize] {
                for mode in [QueryMode::Exact, QueryMode::Ann] {
                    for (u, _) in snapshot.top_k_mode(v, capacity, mode) {
                        prop_assert!(
                            reference.live[u as usize],
                            "retired id {} surfaced from {:?} top_k({})", u, mode, v
                        );
                    }
                }
            } else {
                prop_assert!(!snapshot.is_live(v));
                prop_assert!(snapshot.top_k(v, 4).is_empty(), "retired id {} answered", v);
                prop_assert!(store.vector(v).is_none(), "retired id {} served a vector", v);
            }
        }
    }
}

/// The durable open-world engine of the restart property, minus its source.
fn durable_builder(batch_size: usize, snapshot_every: usize) -> EngineBuilder {
    Engine::builder()
        .num_walks(2)
        .walk_length(6)
        .dim(8)
        .threads(1)
        .seed(5)
        .streaming(StreamingConfig {
            batch_size,
            incremental_train: true,
            allow_churn: true,
            ann_index: true,
            ann: AnnConfig {
                m: 4,
                ef_construction: 16,
                ef_search: 16,
                ..AnnConfig::default()
            },
            ..StreamingConfig::default()
        })
        .snapshot_every(snapshot_every)
        .wal_fsync(FsyncPolicy::Never)
}

/// One row as a reader sees it: its vector and its ANN answer, floats as bits.
type ServedRow = (Option<Vec<u32>>, Vec<(u32, u32)>);

fn served(engine: &Engine) -> Vec<ServedRow> {
    (0..engine.snapshot().num_nodes() as u32)
        .map(|v| {
            let vector = engine
                .vector(v)
                .map(|row| row.iter().map(|x| x.to_bits()).collect());
            let hits = engine
                .top_k_mode(v, 6, QueryMode::Ann)
                .into_iter()
                .map(|(u, s)| (u, s.to_bits()))
                .collect();
            (vector, hits)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Restart == no-restart at the engine facade, ANN answers included: the
    /// index the session's last publish built comes back from the snapshot,
    /// restored rather than built again.
    #[test]
    fn durable_churn_session_restarts_into_what_it_served(
        edges in prop::collection::vec((0u32..N, 0u32..N, 0.5f32..4.0), 8..40),
        mutations in prop::collection::vec(churn_mutation(), 1..60),
        batch_size in 2usize..12,
        snapshot_every in 0usize..4,
        case in 0u32..u32::MAX,
    ) {
        let g = base_graph(&edges);
        prop_assume!(g.num_edges() > 0);
        let dir = std::env::temp_dir().join(format!(
            "uninet-prop-open-world-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = durable_builder(batch_size, snapshot_every)
            .graph(g)
            .wal(&dir)
            .build()
            .unwrap();
        let outcome = engine.stream_blocking(mutations).unwrap();
        let epoch = outcome.epoch;
        let live: Vec<bool> = (0..engine.snapshot().num_nodes() as u32)
            .map(|v| engine.snapshot().is_live(v))
            .collect();
        let before = served(&engine);
        drop(engine);

        let recovered = durable_builder(batch_size, snapshot_every)
            .recover(&dir)
            .build()
            .unwrap();
        let summary = recovered.recovery().unwrap();
        prop_assert!(summary.restored_index, "a clean shutdown restores its index");
        prop_assert_eq!(recovered.snapshot().epoch(), epoch);
        prop_assert_eq!(&served(&recovered), &before);
        drop(recovered);

        // The crash that loses the final snapshot: an older one plus a WAL
        // suffix that may arrive and retire ids the older index never saw.
        let snapshots = uninet_persist::list_snapshots(&dir).unwrap();
        prop_assert!(snapshots.len() >= 2);
        std::fs::remove_file(&snapshots[0]).unwrap();
        let crashed = durable_builder(batch_size, snapshot_every)
            .recover(&dir)
            .build()
            .unwrap();
        let snap = crashed.snapshot();
        for v in 0..snap.num_nodes() as u32 {
            let retired = !live.get(v as usize).copied().unwrap_or(true);
            if retired {
                prop_assert!(crashed.vector(v).is_none(), "retired id {} served a vector", v);
            }
            for mode in [QueryMode::Ann, QueryMode::Exact] {
                for (u, _) in crashed.top_k_mode(v, live.len(), mode) {
                    prop_assert!(
                        live[u as usize],
                        "retired id {} surfaced from {:?} top_k({}) after the crash", u, mode, v
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
