//! `batch_train`: what a batch user waits for. Each round is one
//! `Engine::train()` (walks, word2vec, publish with the ANN index built);
//! link prediction on the result gives the quality.

use std::time::Instant;

use uninet_core::{Engine, ModelSpec, QueryMode, StreamingConfig};
use uninet_embedding::{AnnConfig, EmbeddingStore, Embeddings, HnswIndex, Word2VecTrainer};
use uninet_graph::{Graph, NodeId};
use uninet_walker::{DeepWalk, SamplerManager, WalkEngine};

use crate::common::{engine_config, linkpred_auc, peak_rss_mb, timed_setups, Ctx, Outcome};
use crate::gen::{build_graph, planted_partition, EdgeList, Prng};
use crate::stats;
use crate::trace::Tracer;

const NUM_WALKS: usize = 4;
const WALK_LENGTH: usize = 40;
const DIM: usize = 64;
const WINDOW: usize = 10;

fn edge_list(ctx: &Ctx) -> EdgeList {
    let n = ctx.size(1_500, 400);
    planted_partition(n, n / 100, 8, 2, ctx.seed)
}

fn build_engine(ctx: &Ctx, graph: Graph) -> Engine {
    Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .config(engine_config(ctx, NUM_WALKS, WALK_LENGTH, DIM, WINDOW))
        .streaming(StreamingConfig {
            ann_index: true,
            ..StreamingConfig::default()
        })
        .build()
        .expect("the benchmark's engine configuration is valid")
}

/// Cosine of two rows, computed here in f64 as the reference.
fn reference_cosine(emb: &Embeddings, a: NodeId, b: NodeId) -> f64 {
    let (x, y) = (emb.vector(a), emb.vector(b));
    let dot: f64 = x
        .iter()
        .zip(y)
        .map(|(p, q)| f64::from(*p) * f64::from(*q))
        .sum();
    let nx: f64 = x.iter().map(|p| f64::from(*p).powi(2)).sum::<f64>().sqrt();
    let ny: f64 = y.iter().map(|p| f64::from(*p).powi(2)).sum::<f64>().sqrt();
    if nx == 0.0 || ny == 0.0 {
        0.0
    } else {
        dot / (nx * ny)
    }
}

/// Whether `answer` is the exact top-`k` of `node` over `emb`: the right
/// length, descending, without `node`, every score the reference cosine, and
/// no outsider scoring above the last entry.
pub fn exact_top_k_is_right(
    emb: &Embeddings,
    node: NodeId,
    k: usize,
    answer: &[(u32, f32)],
) -> bool {
    const TOLERANCE: f64 = 1e-4;
    let n = emb.num_nodes();
    if answer.len() != k.min(n - 1) || answer.iter().any(|&(v, _)| v == node) {
        return false;
    }
    if answer.windows(2).any(|w| w[0].1 < w[1].1) {
        return false;
    }
    if answer
        .iter()
        .any(|&(v, s)| (reference_cosine(emb, node, v) - f64::from(s)).abs() > TOLERANCE)
    {
        return false;
    }
    let floor = f64::from(answer.last().map_or(f32::MIN, |&(_, s)| s));
    (0..n as NodeId)
        .filter(|&v| v != node && !answer.iter().any(|&(a, _)| a == v))
        .all(|v| reference_cosine(emb, node, v) <= floor + TOLERANCE)
}

/// Checks the engine's exact `top_k` on sampled nodes against the reference.
fn check_engine(ctx: &Ctx, engine: &Engine, out: &mut Outcome) {
    let snapshot = engine.snapshot();
    let emb = snapshot.embeddings();
    let finite = emb.as_flat().iter().all(|x| x.is_finite());
    out.check(
        1,
        u64::from(!finite || emb.num_nodes() != engine.num_nodes()),
    );
    let mut rng = Prng::fork(ctx.seed, 8);
    for _ in 0..50 {
        let node = rng.below(emb.num_nodes()) as NodeId;
        let answer = engine.top_k_mode(node, 10, QueryMode::Exact);
        out.check(1, u64::from(!exact_top_k_is_right(emb, node, 10, &answer)));
    }
}

/// `Engine::train()` rounds for `seconds`: wall per round and tokens trained.
fn engine_rounds(engine: &Engine, seconds: f64, out: &mut Outcome) -> (Vec<f64>, u64) {
    let begun = Instant::now();
    let (mut walls, mut tokens) = (Vec::new(), 0u64);
    while walls.is_empty() || begun.elapsed().as_secs_f64() < seconds {
        let before = engine.store().epoch();
        let t = Instant::now();
        let report = engine.train().expect("the engine is idle between rounds");
        walls.push(t.elapsed().as_secs_f64());
        tokens += report.corpus.total_tokens() as u64;
        // Each training publishes exactly one new epoch.
        out.check(1, u64::from(report.epoch != before + 1));
    }
    (walls, tokens)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((graph, engine), setup_s) = timed_setups(3, || {
        let graph = build_graph(&edge_list(ctx));
        let engine = build_engine(ctx, graph.clone());
        (graph, engine)
    });
    let (walls, tokens) = engine_rounds(&engine, ctx.seconds, &mut out);
    check_engine(ctx, &engine, &mut out);
    let snapshot = engine.snapshot();
    let emb = snapshot.embeddings();
    let (auc, _) = linkpred_auc(&graph, |u, v| f64::from(emb.cosine_similarity(u, v)));

    let wall_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    out.set("work_per_s", tokens as f64 / walls.iter().sum::<f64>());
    out.set("latency_p50_us", stats::median(&wall_us));
    out.set("quality", auc);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("setup_s", setup_s);
    out.note(format!(
        "graph: planted partition n={} mean degree {:.1}; deepwalk K={NUM_WALKS} L={WALK_LENGTH} dim {DIM} window {WINDOW}, 5 negatives, 1 epoch, ANN built at publish; {} rounds",
        graph.num_nodes(),
        graph.mean_degree(),
        walls.len()
    ));
    out.note("work_per_s = walk tokens trained per second of Engine::train() wall".into());
    out.note(format!(
        "latency_p50_us = batch_wall_s: wall of one Engine::train() including publish, {} samples",
        wall_us.len()
    ));
    out.note(format!(
        "quality = linkpred_auc = {auc:.4} (8000 pairs, fixed evaluation seed)"
    ));
    out
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let list = edge_list(ctx);
    let graph = tracer.time("graph.build", 0, || build_graph(&list));
    let engine = build_engine(ctx, graph.clone());
    let half = ctx.seconds / 2.0;
    let (engine_walls, _) = engine_rounds(&engine, half, &mut out);
    check_engine(ctx, &engine, &mut out);

    // The same stages `Engine::train` runs, called one by one with a span
    // around each, on the same graph and configuration.
    let cfg = *engine.config();
    let ann = *engine
        .store()
        .ann_config()
        .expect("the engine's store builds an ANN index");
    let store = EmbeddingStore::with_ann(ann);
    let model = DeepWalk::new();
    let starts: Vec<NodeId> = graph.non_isolated_nodes().collect();
    let begun = Instant::now();
    let (mut staged_walls, mut tokens, mut pairs) = (Vec::new(), 0u64, 0u64);
    let mut last: Option<Embeddings> = None;
    while staged_walls.is_empty() || begun.elapsed().as_secs_f64() < half {
        let round = staged_walls.len() as u64;
        let outer = tracer.enter("core.train.staged", round);
        let manager = tracer.time("sampler.new", round, || {
            SamplerManager::new(
                &graph,
                &model,
                cfg.walk.sampler,
                cfg.walk.memory_budget_bytes,
            )
        });
        let (corpus, _) = tracer.time("walker.generate", round, || {
            WalkEngine::new(cfg.walk).generate_with_manager(&graph, &model, &manager, &starts)
        });
        let (embeddings, stats) = tracer.time("embedding.train", round, || {
            Word2VecTrainer::new(cfg.embedding).train(corpus.walks(), graph.num_nodes())
        });
        let kept = embeddings.clone();
        tracer.time("embedding.publish", round, || store.publish(embeddings));
        tracer.exit(outer);
        staged_walls.push(tracer.spans()[outer].duration_ns() as f64 / 1e9);
        tokens += corpus.total_tokens() as u64;
        pairs += stats.pairs_processed;
        last = Some(kept);
    }
    let emb = last.expect("at least one staged round ran");

    // The two halves of a publish, apart.
    let plain = EmbeddingStore::new();
    tracer.time("embedding.publish.norms", 0, || plain.publish(emb.clone()));
    tracer.time("embedding.ann.build", 0, || {
        HnswIndex::build(&emb, &AnnConfig { ..ann })
    });
    let (_, auc_wall) = linkpred_auc(&graph, |u, v| f64::from(emb.cosine_similarity(u, v)));

    let train_s = tracer.total_s("embedding.train");
    let engine_wall = stats::median(&engine_walls);
    let staged_wall = stats::median(&staged_walls);
    out.set("graph.build_s", tracer.total_s("graph.build"));
    out.set(
        "sampler.mh.init_s",
        tracer.total_s("sampler.new") / staged_walls.len() as f64,
    );
    out.set(
        "walker.deepwalk.steps_per_s",
        tokens as f64 / tracer.total_s("walker.generate"),
    );
    out.set("embedding.train.tokens_per_s", tokens as f64 / train_s);
    out.set("embedding.train.pairs_per_s", pairs as f64 / train_s);
    out.set(
        "embedding.publish.norms_ms",
        tracer.total_s("embedding.publish.norms") * 1e3,
    );
    out.set(
        "embedding.publish.ann_build_ms",
        tracer.total_s("embedding.ann.build") * 1e3,
    );
    out.set(
        "embedding.store.bytes",
        std::mem::size_of_val(emb.as_flat()) as f64,
    );
    // What `Engine::train` costs beyond the stages it runs.
    out.set(
        "core.train.overhead_share",
        (engine_wall - staged_wall) / engine_wall,
    );
    out.set("eval.linkpred.wall_s", auc_wall.as_secs_f64());
    out.set("metrics.trace_overhead_ratio", staged_wall / engine_wall);
    out.note(format!(
        "{} Engine::train rounds (median {:.3} s) vs {} staged rounds (median {:.3} s); trainer share of a staged round {:.3}",
        engine_walls.len(),
        engine_wall,
        staged_walls.len(),
        staged_wall,
        train_s / staged_walls.iter().sum::<f64>()
    ));
    crate::write_spans(ctx, "batch_train", &tracer);
    out
}
