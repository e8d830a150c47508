//! Dynamic-workload experiment (no paper counterpart — the workload the
//! paper's O(1)-update argument implies but never measures):
//!
//! 1. **Per-update maintenance cost vs. degree** — reweight one edge of a
//!    node and repair sampler state, across degree buckets. Expected shape:
//!    the M-H sampler's cost is flat in degree (nothing to rebuild), the
//!    alias sampler's cost grows with degree (O(deg) table rebuild per
//!    affected state; for node2vec, deg states per node).
//! 2. **Streaming throughput and refresh latency** — replay a mixed
//!    update stream through the incremental maintainer, comparing sustained
//!    updates/s and per-batch walk-refresh latency for M-H vs. alias, plus
//!    the full-rebuild strawman (a fresh `SamplerManager` per batch).

use std::time::{Duration, Instant};

use uninet_bench::{emit, HarnessConfig};
use uninet_core::Table;
use uninet_dyngraph::{
    DynamicGraph, GraphMutation, IncrementalMaintainer, MaintainerConfig, UpdateBatch,
    WalkRefresher,
};
use uninet_graph::generators::barabasi_albert;
use uninet_graph::{Graph, NodeId};
use uninet_sampler::{EdgeSamplerKind, InitStrategy};
use uninet_walker::models::{DeepWalk, Node2Vec};
use uninet_walker::{RandomWalkModel, SamplerManager, WalkEngine, WalkEngineConfig};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mh() -> EdgeSamplerKind {
    EdgeSamplerKind::MetropolisHastings(InitStrategy::Random)
}

/// Mean time to apply one single-edge reweight (including sampler
/// maintenance) over `reps` distinct target nodes of similar degree.
fn time_weight_updates<M: RandomWalkModel + ?Sized>(
    graph: &Graph,
    model: &M,
    kind: EdgeSamplerKind,
    nodes: &[NodeId],
    reps: usize,
) -> (Duration, usize) {
    let mut dg = DynamicGraph::new(graph.clone(), true);
    let mut manager = SamplerManager::new(dg.base(), model, kind, 0);
    let maintainer = IncrementalMaintainer::default();
    let mut rebuilt = 0usize;
    let t = Instant::now();
    for i in 0..reps {
        let v = nodes[i % nodes.len()];
        let dst = graph.neighbor_at(v, i % graph.degree(v));
        let mut batch = UpdateBatch::new();
        batch.update_weight(v, dst, 1.0 + (i % 7) as f32 * 0.5);
        let r = maintainer.apply_batch(&mut dg, &mut manager, model, &batch);
        rebuilt += r.maintenance.states_rebuilt;
    }
    (t.elapsed() / reps as u32, rebuilt)
}

/// Buckets the graph's nodes by degree (powers of two).
fn degree_buckets(graph: &Graph) -> Vec<(usize, usize, Vec<NodeId>)> {
    let mut buckets: Vec<(usize, usize, Vec<NodeId>)> = Vec::new();
    let mut lo = 4usize;
    while lo <= graph.max_degree() {
        let hi = lo * 4;
        let nodes: Vec<NodeId> = (0..graph.num_nodes() as NodeId)
            .filter(|&v| graph.degree(v) >= lo && graph.degree(v) < hi)
            .take(64)
            .collect();
        if nodes.len() >= 4 {
            buckets.push((lo, hi, nodes));
        }
        lo = hi;
    }
    buckets
}

fn part1_cost_vs_degree(graph: &Graph, reps: usize) {
    let mut table = Table::new(
        "Dynamic updates — per-reweight maintenance cost by degree (µs/update)",
        &[
            "degree",
            "model",
            "UniNet(M-H)",
            "Alias",
            "alias states rebuilt",
        ],
    );
    let deepwalk = DeepWalk::new();
    let node2vec = Node2Vec::new(0.5, 2.0);
    for (lo, hi, nodes) in degree_buckets(graph) {
        for (model_name, model) in [
            ("deepwalk", &deepwalk as &dyn RandomWalkModel),
            ("node2vec", &node2vec),
        ] {
            let (mh_t, _) = time_weight_updates(graph, model, mh(), &nodes, reps);
            let (alias_t, rebuilt) =
                time_weight_updates(graph, model, EdgeSamplerKind::Alias, &nodes, reps);
            table.add_row(&[
                format!("[{lo},{hi})"),
                model_name.to_string(),
                format!("{:.2}", mh_t.as_secs_f64() * 1e6),
                format!("{:.2}", alias_t.as_secs_f64() * 1e6),
                format!("{rebuilt}"),
            ]);
        }
    }
    emit(&table, "exp_dynamic_cost_vs_degree");
}

/// A mixed stream (70% reweights, 20% inserts, 10% deletes) over live edges.
fn mixed_stream(graph: &Graph, count: usize, seed: u64) -> Vec<GraphMutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = graph.num_nodes() as NodeId;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let src = rng.gen_range(0..n);
        let deg = graph.degree(src);
        if deg == 0 {
            continue;
        }
        let dst = graph.neighbor_at(src, rng.gen_range(0..deg));
        let roll = rng.gen_range(0usize..10);
        out.push(if roll < 7 {
            GraphMutation::UpdateWeight {
                src,
                dst,
                weight: rng.gen_range(0.5f32..4.0),
            }
        } else if roll < 9 {
            GraphMutation::AddEdge {
                src,
                dst: rng.gen_range(0..n),
                weight: rng.gen_range(0.5f32..2.0),
            }
        } else {
            GraphMutation::RemoveEdge { src, dst }
        });
    }
    out
}

fn part2_streaming(graph: &Graph, cfg: &HarnessConfig) {
    let model = DeepWalk::new();
    let walk_cfg = WalkEngineConfig::default()
        .with_num_walks(cfg.num_walks().min(4))
        .with_walk_length(cfg.walk_length().min(40))
        .with_threads(8);
    let stream = mixed_stream(graph, if cfg.quick { 2_000 } else { 10_000 }, 77);
    let batch_size = 128usize;

    let mut table = Table::new(
        "Dynamic updates — streaming maintenance + walk refresh (DeepWalk)",
        &[
            "strategy",
            "updates/s",
            "maintain ms/batch",
            "refresh ms/batch",
            "walks refreshed",
            "states rebuilt",
            "chains preserved",
        ],
    );

    for (label, kind, full_rebuild) in [
        ("UniNet(M-H)", mh(), false),
        ("Alias incremental", EdgeSamplerKind::Alias, false),
        ("Alias full rebuild", EdgeSamplerKind::Alias, true),
    ] {
        let mut dg = DynamicGraph::new(graph.clone(), true);
        let mut manager = SamplerManager::new(dg.base(), &model, kind, 0);
        let maintainer = IncrementalMaintainer::new(MaintainerConfig {
            compaction_threshold: 512,
        });
        let engine = WalkEngine::new(walk_cfg.with_sampler(kind));
        let starts: Vec<NodeId> = graph.non_isolated_nodes().collect();
        let (mut corpus, _) = engine.generate_with_manager(dg.base(), &model, &manager, &starts);
        let mut refresher = WalkRefresher::new(&corpus, graph.num_nodes(), walk_cfg.walk_length, 5);

        let mut maintain_time = Duration::ZERO;
        let mut refresh_time = Duration::ZERO;
        let mut walks_refreshed = 0usize;
        let mut states_rebuilt = 0usize;
        let mut chains_preserved = 0usize;
        let mut batches = 0usize;

        for chunk in stream.chunks(batch_size) {
            batches += 1;
            let batch = UpdateBatch::from_mutations(chunk.to_vec());
            let t = Instant::now();
            let r = if full_rebuild {
                // Strawman: apply the batch, then rebuild the whole manager.
                let r = maintainer.apply_batch(&mut dg, &mut manager, &model, &batch);
                maintainer.flush(&mut dg, &mut manager, &model);
                manager = SamplerManager::new(dg.base(), &model, kind, 0);
                r
            } else {
                maintainer.apply_batch(&mut dg, &mut manager, &model, &batch)
            };
            maintain_time += t.elapsed();
            states_rebuilt += r.maintenance.states_rebuilt;
            chains_preserved += r.maintenance.chains_preserved;

            let mut touched = r.weight_touched.clone();
            touched.extend_from_slice(&r.topology_touched);
            touched.sort_unstable();
            touched.dedup();
            if !touched.is_empty() {
                let outcome = refresher.refresh_parallel(
                    &mut corpus,
                    dg.base(),
                    &model,
                    &manager,
                    &touched,
                    1,
                );
                refresh_time += outcome.elapsed;
                walks_refreshed += outcome.stats.walks_refreshed;
            }
        }

        let throughput = stream.len() as f64 / maintain_time.as_secs_f64().max(1e-9);
        table.add_row(&[
            label.to_string(),
            format!("{throughput:.0}"),
            format!("{:.2}", maintain_time.as_secs_f64() * 1e3 / batches as f64),
            format!("{:.2}", refresh_time.as_secs_f64() * 1e3 / batches as f64),
            format!("{walks_refreshed}"),
            format!("{states_rebuilt}"),
            format!("{chains_preserved}"),
        ]);
    }
    emit(&table, "exp_dynamic_streaming");
}

fn main() {
    let cfg = HarnessConfig::from_env();
    // Barabási–Albert: heavy-tailed degrees give the degree sweep its range.
    let graph = barabasi_albert(cfg.nodes(20_000), 8, true, 21);
    println!(
        "dynamic-update experiment over BA graph: {} nodes, {} edges, max degree {}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.max_degree()
    );
    let reps = if cfg.quick { 64 } else { 256 };
    part1_cost_vs_degree(&graph, reps);
    part2_streaming(&graph, &cfg);
}
