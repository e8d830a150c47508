//! `walk_gen`: sampler + walker only. Each round builds a sampler manager
//! (`Ti`) and generates a corpus (`Tw`) for node2vec(p=0.25, q=4) and then
//! deepwalk with the default M-H sampler, each round under a distinct walk
//! seed.

use std::hint::black_box;
use std::time::Instant;

use uninet_graph::{Graph, NodeId};
use uninet_sampler::kl::kl_divergence;
use uninet_walker::{
    DeepWalk, EdgeSamplerKind, Node2Vec, RandomWalkModel, SamplerManager, WalkCorpus, WalkEngine,
    WalkEngineConfig, WalkerState,
};

use crate::common::{mh_sampler, peak_rss_mb, timed_setups, Ctx, Outcome};
use crate::gen::{barabasi_albert, build_graph, Prng};
use crate::stats;
use crate::trace::Tracer;

const NUM_WALKS: usize = 2;
const WALK_LENGTH: usize = 80;

struct Round {
    init_s: f64,
    walk_s: f64,
    steps: u64,
    corpus: WalkCorpus,
}

fn walk_config(ctx: &Ctx, sampler: EdgeSamplerKind, round: usize, slot: u64) -> WalkEngineConfig {
    WalkEngineConfig {
        num_walks: NUM_WALKS,
        walk_length: WALK_LENGTH,
        num_threads: ctx.threads,
        seed: ctx.seed.wrapping_mul(1_000_003) ^ (round as u64 * 4 + slot),
        sampler,
        memory_budget_bytes: 0,
    }
}

/// Times `call`, under a span when the pass is traced.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    call: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = match tracer {
        Some(tracer) => tracer.time(name, request, call),
        None => call(),
    };
    (out, t.elapsed().as_secs_f64())
}

/// One `Ti + Tw`: the two calls `walk_gen` is about. `spans` names the span
/// of each when the pass is traced.
fn generate<M: RandomWalkModel>(
    graph: &Graph,
    model: &M,
    cfg: WalkEngineConfig,
    starts: &[NodeId],
    tracer: &mut Option<&mut Tracer>,
    spans: (&'static str, &'static str),
) -> (Round, SamplerManager) {
    let (manager, init_s) = timed(tracer, spans.0, cfg.seed, || {
        SamplerManager::new(graph, model, cfg.sampler, 0)
    });
    let ((corpus, _), walk_s) = timed(tracer, spans.1, cfg.seed, || {
        WalkEngine::new(cfg).generate_with_manager(graph, model, &manager, starts)
    });
    let steps = (corpus.total_tokens() - corpus.num_walks()) as u64;
    (
        Round {
            init_s,
            walk_s,
            steps,
            corpus,
        },
        manager,
    )
}

/// Counts steps of every `stride`-th walk that are not edges of `graph`.
fn invalid_steps(graph: &Graph, corpus: &WalkCorpus, stride: usize) -> (u64, u64) {
    let (mut checked, mut bad) = (0u64, 0u64);
    for walk in corpus.iter().step_by(stride) {
        for pair in walk.windows(2) {
            checked += 1;
            bad += u64::from(!graph.has_edge(pair[0], pair[1]));
        }
    }
    (checked, bad)
}

/// How far first-order walks are from the exact next-edge distribution:
/// for a fixed sample of nodes, the transitions the corpus took out of each
/// against `w(u,v) / W(u)`. Returns the transition-weighted mean total
/// variation distance and KL divergence (nats).
pub fn first_order_fidelity(graph: &Graph, corpus: &WalkCorpus) -> (f64, f64) {
    let n = graph.num_nodes();
    let stride = (n / 2_000).max(1);
    let mut counts: Vec<Vec<f64>> = (0..n)
        .step_by(stride)
        .map(|v| vec![0.0; graph.degree(v as NodeId)])
        .collect();
    for walk in corpus.iter() {
        for pair in walk.windows(2) {
            let u = pair[0] as usize;
            if u.is_multiple_of(stride) {
                if let Some(k) = graph.find_neighbor(pair[0], pair[1]) {
                    counts[u / stride][k] += 1.0;
                }
            }
        }
    }
    let (mut tv_sum, mut kl_sum, mut weight) = (0.0, 0.0, 0.0);
    for (i, taken) in counts.iter().enumerate() {
        let total: f64 = taken.iter().sum();
        if total == 0.0 {
            continue;
        }
        let u = (i * stride) as NodeId;
        let norm = graph.weighted_degree(u);
        let exact: Vec<f64> = graph.weights(u).iter().map(|&w| w as f64 / norm).collect();
        let empirical: Vec<f64> = taken.iter().map(|c| c / total).collect();
        let tv: f64 = empirical
            .iter()
            .zip(&exact)
            .map(|(e, x)| (e - x).abs())
            .sum::<f64>()
            / 2.0;
        tv_sum += tv * total;
        kl_sum += kl_divergence(&empirical, &exact) * total;
        weight += total;
    }
    (tv_sum / weight.max(1.0), kl_sum / weight.max(1.0))
}

fn setup(ctx: &Ctx) -> (Graph, f64) {
    let n = ctx.size(100_000, 2_000);
    timed_setups(3, || build_graph(&barabasi_albert(n, 5, ctx.seed)))
}

/// Runs node2vec then deepwalk rounds for `seconds`; returns the per-round
/// `Σ(Ti+Tw)` samples, the steps each model took, and the last deepwalk corpus.
fn rounds(
    ctx: &Ctx,
    graph: &Graph,
    seconds: f64,
    first_round: usize,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<f64>, [u64; 2], WalkCorpus) {
    let starts: Vec<NodeId> = graph.non_isolated_nodes().collect();
    let node2vec = Node2Vec::new(0.25, 4.0);
    let deepwalk = DeepWalk::new();
    let begun = Instant::now();
    let (mut walls, mut steps) = (Vec::new(), [0u64; 2]);
    let mut last = WalkCorpus::new();
    let mut round = first_round;
    while walls.is_empty() || begun.elapsed().as_secs_f64() < seconds {
        let (a, _) = generate(
            graph,
            &node2vec,
            walk_config(ctx, mh_sampler(), round, 0),
            &starts,
            &mut tracer,
            ("sampler.new.node2vec", "walker.generate.node2vec"),
        );
        let (b, _) = generate(
            graph,
            &deepwalk,
            walk_config(ctx, mh_sampler(), round, 1),
            &starts,
            &mut tracer,
            ("sampler.new.deepwalk", "walker.generate.deepwalk"),
        );
        walls.push(a.init_s + a.walk_s + b.init_s + b.walk_s);
        steps[0] += a.steps;
        steps[1] += b.steps;
        // Every step of the first round is checked, then one walk in eight.
        let stride = if round == first_round { 1 } else { 8 };
        for corpus in [&a.corpus, &b.corpus] {
            let (checked, bad) = invalid_steps(graph, corpus, stride);
            out.check(checked, bad);
        }
        last = b.corpus;
        round += 1;
    }
    (walls, steps, last)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (graph, setup_s) = setup(ctx);
    let (walls, steps, deepwalk_corpus) = rounds(ctx, &graph, ctx.seconds, 0, &mut out, None);
    let (tv, _) = first_order_fidelity(&graph, &deepwalk_corpus);
    let busy: f64 = walls.iter().sum();
    let round_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    out.set("work_per_s", (steps[0] + steps[1]) as f64 / busy);
    out.set("latency_p50_us", stats::median(&round_us));
    out.set("quality", 1.0 - tv);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("setup_s", setup_s);
    out.note(format!(
        "graph: BA n={} mean degree {:.1}; K={NUM_WALKS} L={WALK_LENGTH}; {} rounds of node2vec+deepwalk",
        graph.num_nodes(),
        graph.mean_degree(),
        walls.len()
    ));
    out.note(
        "work_per_s = walk_steps_per_s: walk steps over Σ(Ti+Tw), both models, all rounds".into(),
    );
    out.note(format!(
        "latency_p50_us = Σ(Ti+Tw) of one node2vec+deepwalk round, {} samples",
        round_us.len()
    ));
    out.note(
        "quality = 1 - total variation between deepwalk transitions taken and exact edge weights"
            .into(),
    );
    out
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let list = barabasi_albert(ctx.size(100_000, 2_000), 5, ctx.seed);
    let graph = tracer.time("graph.build", 0, || build_graph(&list));
    let half = ctx.seconds / 2.0;
    let (plain_walls, plain_steps, _) = rounds(ctx, &graph, half, 0, &mut out, None);
    let (walls, steps, deepwalk_corpus) = rounds(
        ctx,
        &graph,
        half,
        plain_walls.len(),
        &mut out,
        Some(&mut tracer),
    );

    // The baseline kind through the same layers, once: alias tables over
    // node2vec's second-order states are the memory the paper avoids.
    let starts: Vec<NodeId> = graph.non_isolated_nodes().collect();
    let node2vec = Node2Vec::new(0.25, 4.0);
    let (alias, alias_manager) = generate(
        &graph,
        &node2vec,
        walk_config(ctx, EdgeSamplerKind::Alias, 0, 2),
        &starts,
        &mut Some(&mut tracer),
        (
            "sampler.new.node2vec_alias",
            "walker.generate.node2vec_alias",
        ),
    );
    let (checked, bad) = invalid_steps(&graph, &alias.corpus, 8);
    out.check(checked, bad);
    out.set("sampler.alias.init_s", alias.init_s);
    out.set(
        "sampler.alias.memory_bytes",
        alias_manager.memory_bytes() as f64,
    );
    out.set(
        "walker.node2vec_alias.steps_per_s",
        alias.steps as f64 / alias.walk_s,
    );
    drop((alias, alias_manager));

    // Single calls too short for a span each: timed in bulk.
    let deepwalk = DeepWalk::new();
    let manager = SamplerManager::new(&graph, &node2vec, mh_sampler(), 0);
    out.set("sampler.mh.memory_bytes", manager.memory_bytes() as f64);
    let dw_manager = SamplerManager::new(&graph, &deepwalk, mh_sampler(), 0);
    let mut rng = Prng::fork(ctx.seed, 7);
    let n = graph.num_nodes();
    let calls = ctx.size(2_000_000, 100_000);
    let probes: Vec<(NodeId, NodeId)> = (0..calls)
        .map(|_| (rng.below(n) as NodeId, rng.below(n) as NodeId))
        .collect();
    let t = Instant::now();
    for &(u, v) in &probes {
        black_box(graph.has_edge(black_box(u), black_box(v)));
    }
    out.set(
        "graph.has_edge_ns",
        t.elapsed().as_nanos() as f64 / calls as f64,
    );
    let t = Instant::now();
    for &(u, _) in &probes {
        black_box(dw_manager.sample(&graph, &deepwalk, WalkerState::at(u), &mut rng));
    }
    out.set(
        "sampler.mh.sample_ns",
        t.elapsed().as_nanos() as f64 / calls as f64,
    );

    let (_, kl) = first_order_fidelity(&graph, &deepwalk_corpus);
    let traced_rounds = walls.len() as f64;
    out.set("graph.build_s", tracer.total_s("graph.build"));
    out.set(
        "sampler.mh.init_s",
        (tracer.total_s("sampler.new.node2vec") + tracer.total_s("sampler.new.deepwalk"))
            / traced_rounds,
    );
    out.set("sampler.mh.kl", kl);
    out.set(
        "walker.node2vec.steps_per_s",
        steps[0] as f64 / tracer.total_s("walker.generate.node2vec"),
    );
    out.set(
        "walker.deepwalk.steps_per_s",
        steps[1] as f64 / tracer.total_s("walker.generate.deepwalk"),
    );
    out.set(
        "walker.invalid_step_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let plain_rate = (plain_steps[0] + plain_steps[1]) as f64 / plain_walls.iter().sum::<f64>();
    let traced_rate = (steps[0] + steps[1]) as f64 / walls.iter().sum::<f64>();
    out.set("metrics.trace_overhead_ratio", plain_rate / traced_rate);
    out.note(format!(
        "{} untraced + {} traced rounds, {} spans",
        plain_walls.len(),
        walls.len(),
        tracer.spans().len()
    ));
    crate::write_spans(ctx, "walk_gen", &tracer);
    out
}
