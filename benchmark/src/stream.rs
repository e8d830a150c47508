//! `stream_ingest` and `serve_under_ingest`: the write path. A mixed update
//! stream with churn, rendered as text lines and read back through the
//! validated reader, is fed to `Engine::stream` on a durable engine
//! (WAL fsynced every 8 batches, periodic snapshots) that trains
//! incrementally and publishes with an incremental ANN index.
//! `stream_ingest` then restarts from the WAL directory; `serve_under_ingest`
//! instead answers open-loop queries on one connection while it ingests.
//!
//! The traced pass replays the same stream through
//! `uninet_ingest::run_durable_pipeline` with a WAL hook and batch callback
//! owned here, which call the layers the engine's session calls, one span
//! per call.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use uninet_core::{
    Engine, EngineBuilder, FsyncPolicy, GraphMutation, ModelSpec, QueryMode, StreamHandle,
    StreamOutcome, StreamingConfig, UniNetConfig,
};
use uninet_dyngraph::{read_update_stream_validated, DynamicGraph, WalkRefresher};
use uninet_embedding::{AnnConfig, EmbeddingStore, Embeddings, OnlineWord2Vec, Word2VecTrainer};
use uninet_graph::{Graph, NodeId};
use uninet_ingest::{run_durable_pipeline, IngestConfig, IngestMetrics};
use uninet_persist::{latest_valid_snapshot, write_snapshot, SamplerState, Snapshot, WalWriter};
use uninet_sampler::kl::kl_divergence;
use uninet_walker::{DeepWalk, SamplerManager, WalkEngine, WalkerState};

use crate::common::{engine_config, linkpred_auc, peak_rss_mb, Ctx, Outcome};
use crate::gen::{
    barabasi_albert, build_graph, poisson_schedule, queries, update_stream, EdgeList, Prng,
    UpdateStream, ZipfKeys,
};
use crate::serve::{ann_recall, open_loop, set_wire_metrics, start_server, WireStats, K};
use crate::stats;
use crate::trace::Tracer;

const NUM_WALKS: usize = 2;
const WALK_LENGTH: usize = 20;
const DIM: usize = 64;
const WINDOW: usize = 5;
const BATCH: usize = 128;
const FSYNC_EVERY: u32 = 8;
const SNAPSHOT_EVERY: usize = 4;

/// Mutations generated per second of `--seconds`, frozen so that ingesting
/// them takes about that long on the two-thread reference machine.
const INGEST_MUTATIONS_PER_SECOND: f64 = 110.0;
/// The same for `serve_under_ingest`, whose engine has one thread fewer and
/// shares the machine with the reader.
const UNDER_READ_MUTATIONS_PER_SECOND: f64 = 80.0;
/// Open-loop request rate of the one reader connection.
const READER_RATE: f64 = 1000.0;
/// The reader never sleeps between requests. A reader that sleeps looks idle
/// to the scheduler: on the reference box it was left on the engine thread's
/// core for whole runs while the other core idled (p95 3 ms instead of
/// 0.35 ms, the engine 25% slower), or not, from one run to the next. A
/// generator that keeps its core is placed apart from the engine, which is
/// what `threads - 1` engine threads leave a core for.
const READER_SPIN: Duration = Duration::MAX;

/// Everything generated from the seed.
struct Inputs {
    list: EdgeList,
    graph: Graph,
    stream: UpdateStream,
    mutations: Vec<GraphMutation>,
}

/// The edge list and the update stream as text: what exists before any layer
/// of the program is called.
fn generate(ctx: &Ctx, mutations: usize) -> (EdgeList, UpdateStream) {
    let list = barabasi_albert(ctx.size(5_000, 1_000), 5, ctx.seed);
    let stream = update_stream(&list, mutations, ctx.seed);
    (list, stream)
}

fn parse(stream: &UpdateStream, initial_nodes: usize) -> Vec<GraphMutation> {
    read_update_stream_validated(stream.text.as_bytes(), initial_nodes)
        .expect("the generator emits only valid lines")
}

fn inputs(ctx: &Ctx, mutations: usize) -> Inputs {
    let (list, stream) = generate(ctx, mutations);
    Inputs {
        graph: build_graph(&list),
        mutations: parse(&stream, list.n),
        list,
        stream,
    }
}

fn mutation_count(ctx: &Ctx, readers: bool, seconds: f64) -> usize {
    let rate = if readers {
        UNDER_READ_MUTATIONS_PER_SECOND
    } else {
        INGEST_MUTATIONS_PER_SECOND
    };
    let scale = if ctx.smoke { 4.0 } else { 1.0 };
    ((rate * scale * seconds) as usize).max(2 * BATCH)
}

/// Engine threads: all of them, or all but one when a reader shares the box.
fn engine_threads(ctx: &Ctx, readers: bool) -> usize {
    if readers {
        ctx.threads.saturating_sub(1).max(1)
    } else {
        ctx.threads
    }
}

fn pipeline_config(ctx: &Ctx, readers: bool) -> UniNetConfig {
    let mut cfg = engine_config(ctx, NUM_WALKS, WALK_LENGTH, DIM, WINDOW);
    cfg.walk.num_threads = engine_threads(ctx, readers);
    cfg.embedding.num_threads = engine_threads(ctx, readers);
    cfg
}

fn streaming_config() -> StreamingConfig {
    StreamingConfig {
        batch_size: BATCH,
        incremental_train: true,
        ann_index: true,
        allow_churn: true,
        ..StreamingConfig::default()
    }
}

fn durable(builder: EngineBuilder, ctx: &Ctx, readers: bool, dir: &Path) -> EngineBuilder {
    builder
        .model(ModelSpec::DeepWalk)
        .config(pipeline_config(ctx, readers))
        .streaming(streaming_config())
        .wal_fsync(FsyncPolicy::EveryN(FSYNC_EVERY))
        .snapshot_every(SNAPSHOT_EVERY)
        .wal(dir)
}

fn build_engine(ctx: &Ctx, readers: bool, graph: Graph, dir: &Path) -> Engine {
    durable(Engine::builder().graph(graph), ctx, readers, dir)
        .build()
        .expect("the benchmark's engine configuration is valid")
}

/// Polls the store every millisecond until an epoch is published.
fn wait_first_epoch(engine: &Engine) {
    let store = engine.store();
    while store.epoch() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One engine session over the stream, as a user runs it.
struct Session {
    inputs: Inputs,
    engine: Engine,
    outcome: StreamOutcome,
    /// Inputs generated → first published epoch.
    setup_s: f64,
    /// First published epoch → session joined.
    ingest_s: f64,
    /// Instants at which the store's epoch was seen to change (traced pass).
    publishes: Vec<Instant>,
    reads: Option<WireStats>,
}

/// Generates the inputs, builds the engine and starts a session over the
/// stream (or over an empty one), up to the first published epoch. Returns
/// the wall of all that too, and when that epoch was seen.
fn start(
    ctx: &Ctx,
    readers: bool,
    seconds: f64,
    dir: &Path,
    feed: bool,
) -> (Inputs, Engine, StreamHandle, f64, Instant) {
    let t0 = Instant::now();
    let inputs = inputs(ctx, mutation_count(ctx, readers, seconds));
    let engine = build_engine(ctx, readers, inputs.graph.clone(), dir);
    let stream = if feed {
        inputs.mutations.clone()
    } else {
        Vec::new()
    };
    let handle = engine
        .stream(stream)
        .expect("a fresh engine accepts a stream");
    wait_first_epoch(&engine);
    let first_epoch = Instant::now();
    let setup_s = (first_epoch - t0).as_secs_f64();
    (inputs, engine, handle, setup_s, first_epoch)
}

fn session(ctx: &Ctx, readers: bool, seconds: f64, dir: &Path, poll_publishes: bool) -> Session {
    let (inputs, engine, handle, setup_s, first_epoch) = start(ctx, readers, seconds, dir, true);

    let stop = AtomicBool::new(false);
    let retired: HashSet<u32> = inputs.stream.retired.iter().copied().collect();
    // The reader's server, schedule and queries. The schedule is longer than
    // any run: the reader is stopped when the session joins.
    let reading = readers.then(|| {
        let keys = ZipfKeys::new(inputs.list.n, 1.0, ctx.seed);
        let mut rng = Prng::fork(ctx.seed, 300);
        let due = poisson_schedule(READER_RATE, seconds * 6.0, &mut rng);
        let plan = queries(&keys, due.len(), &mut rng);
        let (server, addr) = start_server(&engine);
        (server, addr, plan, due)
    });

    let (outcome, publishes, reads) = std::thread::scope(|scope| {
        let reader = reading.as_ref().map(|(_, addr, plan, due)| {
            let (stop, retired) = (&stop, &retired);
            let start = Instant::now();
            scope.spawn(move || open_loop(addr, start, plan, due, READER_SPIN, stop, retired))
        });
        let poller = poll_publishes.then(|| {
            let (stop, store) = (&stop, engine.store());
            scope.spawn(move || {
                let mut seen = vec![first_epoch];
                let mut epoch = store.epoch();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                    let now = store.epoch();
                    if now != epoch {
                        epoch = now;
                        seen.push(Instant::now());
                    }
                }
                seen
            })
        });
        let outcome = handle.join().expect("the streaming session completes");
        stop.store(true, Ordering::Relaxed);
        (
            outcome,
            poller.map_or(Vec::new(), |p| p.join().expect("the poller panicked")),
            reader.map(|r| r.join().expect("the reader panicked")),
        )
    });
    let ingest_s = first_epoch.elapsed().as_secs_f64();
    if let Some((server, ..)) = reading {
        server.shutdown();
    }
    Session {
        inputs,
        engine,
        outcome,
        setup_s,
        ingest_s,
        publishes,
        reads,
    }
}

/// Set-up alone: the same inputs and engine, an empty stream, up to the
/// first published epoch.
fn setup_only(ctx: &Ctx, readers: bool, seconds: f64) -> f64 {
    let dir = ctx.scratch("wal-setup");
    let (_, _, handle, setup_s, _) = start(ctx, readers, seconds, &dir, false);
    handle.join().expect("the empty session completes");
    let _ = std::fs::remove_dir_all(&dir);
    setup_s
}

/// The graph the stream leaves behind, by the dynamic graph's own rules.
fn final_graph(inputs: &Inputs) -> Graph {
    let mut dg = DynamicGraph::new(inputs.graph.clone(), true);
    for &m in &inputs.mutations {
        dg.apply(m);
    }
    dg.materialize()
}

/// Checks shared by both workloads once the session has joined.
fn check_session(ctx: &Ctx, s: &Session, out: &mut Outcome) {
    let report = &s.outcome.report;
    let applied = (report.weight_mutations + report.topology_mutations) as u64;
    let rejected = report.rejected_mutations as u64;
    out.check(applied + rejected, rejected);
    let logged = report
        .durability
        .as_ref()
        .is_some_and(|d| d.wal_error.is_none() && d.batches_logged == report.batches);
    out.check(1, u64::from(!logged));
    out.check(1, u64::from(s.outcome.epoch != s.engine.store().epoch()));

    // Over the wire, after the stream: retired ids are refused with the typed
    // error, arrivals that stayed are served.
    let (server, addr) = start_server(&s.engine);
    let mut client = uninet_server::Client::connect(addr.as_str()).expect("loopback connects");
    let retired: HashSet<u32> = s.inputs.stream.retired.iter().copied().collect();
    let mut rng = Prng::fork(ctx.seed, 301);
    for _ in 0..20.min(s.inputs.stream.retired.len()) {
        let id = s.inputs.stream.retired[rng.below(s.inputs.stream.retired.len())];
        let refused = [
            client.vector(id).err().is_some_and(|e| e.is_retired_node()),
            client
                .top_k(id, K, QueryMode::Ann)
                .err()
                .is_some_and(|e| e.is_retired_node()),
        ];
        out.check(2, refused.iter().filter(|ok| !**ok).count() as u64);
    }
    for &id in s
        .inputs
        .stream
        .arrived
        .iter()
        .filter(|id| !retired.contains(id))
        .take(20)
    {
        out.check(1, u64::from(!matches!(client.vector(id), Ok((_, Some(_))))));
    }
    // No top_k answer names a retired id.
    for _ in 0..50 {
        let node = rng.below(s.inputs.list.n) as NodeId;
        if retired.contains(&node) {
            continue;
        }
        let clean = client
            .top_k(node, K, QueryMode::Ann)
            .is_ok_and(|(_, hits)| {
                !hits.is_empty() && hits.iter().all(|(v, _)| !retired.contains(v))
            });
        out.check(1, u64::from(!clean));
    }
    drop(client);
    server.shutdown();
}

/// Restarts from the WAL directory `times` times; each sample runs from
/// `recover(dir).build()` to the first answered `top_k`, in seconds.
fn recoveries(ctx: &Ctx, s: &Session, dir: &Path, times: usize, out: &mut Outcome) -> Vec<f64> {
    let retired: HashSet<u32> = s.inputs.stream.retired.iter().copied().collect();
    let mut rng = Prng::fork(ctx.seed, 302);
    let live: Vec<NodeId> = (0..50)
        .map(|_| rng.below(s.inputs.list.n) as NodeId)
        .filter(|v| !retired.contains(v))
        .collect();
    (0..times)
        .map(|round| {
            let t = Instant::now();
            let recovered = durable(Engine::builder().recover(dir), ctx, false, dir)
                .build()
                .expect("the WAL directory of a completed session recovers");
            let answered = !recovered.top_k(live[0], K as usize).is_empty();
            let wall = t.elapsed().as_secs_f64();
            out.check(1, u64::from(!answered));
            if round == 0 {
                // Restart == no restart: same epoch, byte-equal vectors,
                // retired ids still retired.
                out.check(1, u64::from(recovered.store().epoch() != s.outcome.epoch));
                for &v in &live {
                    let same = recovered.vector(v).is_some_and(|r| {
                        s.engine.vector(v).is_some_and(|o| {
                            r.len() == o.len()
                                && r.iter().zip(&o).all(|(a, b)| a.to_bits() == b.to_bits())
                        })
                    });
                    out.check(1, u64::from(!same));
                }
                for &v in s.inputs.stream.retired.iter().take(20) {
                    out.check(1, u64::from(recovered.vector(v).is_some()));
                }
            }
            wall
        })
        .collect()
}

pub fn run(ctx: &Ctx, readers: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.scratch("wal");
    let mut setups = vec![
        setup_only(ctx, readers, ctx.seconds),
        setup_only(ctx, readers, ctx.seconds),
    ];
    let s = session(ctx, readers, ctx.seconds, &dir, false);
    setups.push(s.setup_s);
    check_session(ctx, &s, &mut out);
    let mutations = s.inputs.mutations.len();
    out.set("work_per_s", mutations as f64 / s.ingest_s);

    let what_latency;
    let what_quality;
    if let Some(reads) = &s.reads {
        out.check(reads.attempted, reads.failed);
        out.set("latency_p50_us", stats::median(&reads.sample.latency_us));
        let recall = ann_recall(&s.engine.snapshot(), 200, &mut Prng::fork(ctx.seed, 10));
        out.set("quality", recall);
        what_latency = format!(
            "latency_p50_us = query_p50_us from the due time: one connection, Poisson {READER_RATE}/s while the stream is ingested; {}",
            reads.sample.describe()
        );
        what_quality =
            format!("quality = ann_recall_at_10 = {recall:.4} on the final snapshot, 200 keys");
    } else {
        let walls = recoveries(ctx, &s, &dir, 9, &mut out);
        let wall_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
        out.set("latency_p50_us", stats::median(&wall_us));
        let emb = &s.outcome.result.embeddings;
        let (auc, _) = linkpred_auc(&final_graph(&s.inputs), |u, v| {
            f64::from(emb.cosine_similarity(u, v))
        });
        out.set("quality", auc);
        what_latency = format!(
            "latency_p50_us = recovery_s: EngineBuilder::recover(dir).build() to the first answered top_k, restarts took {:.0?} ms",
            walls.iter().map(|w| w * 1e3).collect::<Vec<_>>()
        );
        what_quality = format!("quality = linkpred_auc = {auc:.4} on the post-stream graph (8000 pairs, fixed evaluation seed)");
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("setup_s", stats::median(&setups));
    let report = &s.outcome.report;
    out.note(format!(
        "graph: BA n={}; deepwalk K={NUM_WALKS} L={WALK_LENGTH} dim {DIM} window {WINDOW}; {} engine threads; {mutations} mutations in batches of {BATCH} ({} arrivals, {} retirements); WAL fsync every {FSYNC_EVERY}, snapshot every {SNAPSHOT_EVERY} batches",
        s.inputs.list.n,
        engine_threads(ctx, readers),
        report.arrivals,
        report.retirements
    ));
    out.note(format!(
        "work_per_s = updates_per_s: {mutations} mutations over {:.2} s from the first published epoch to join ({} walks regenerated for a {}-walk corpus, {} epochs published)",
        s.ingest_s,
        report.refresh.walks_refreshed,
        s.outcome.result.corpus.num_walks(),
        report.snapshots_published
    ));
    out.note(what_latency);
    out.note(what_quality);
    out.note("setup_s = inputs generated, graph built, stream parsed, engine built, up to the first published epoch (3 times)".into());
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// `None` when every id is live, as the engine's sessions publish it.
fn universe_mask(live: &[bool]) -> Option<Vec<bool>> {
    live.iter().any(|&l| !l).then(|| live.to_vec())
}

/// What the replay hands back besides its spans.
struct Replay {
    wall_s: f64,
    pipeline_s: f64,
    batches: usize,
    walks_regenerated: usize,
    corpus_walks: usize,
    dirty_ratio_sum: f64,
    sgd_tokens: usize,
    apply_s: f64,
    maintain_s: f64,
    compactions: usize,
    compaction_s: f64,
    rejected: usize,
    applied: usize,
    stall_s: f64,
    peak_depth: usize,
    wal_bytes: u64,
    fsyncs: u64,
    snapshot_bytes: u64,
    reinserted: usize,
    reindexed: usize,
    kl_after_reweights: f64,
    final_graph: Graph,
}

/// Empirical next-edge distribution of the live sampler against the exact
/// one, on sampled nodes of the post-stream graph: the chains must still
/// converge after streamed reweights.
fn sampler_kl(graph: &Graph, manager: &SamplerManager, seed: u64) -> f64 {
    let model = DeepWalk::new();
    let mut rng = Prng::fork(seed, 303);
    let (mut sum, mut nodes) = (0.0, 0);
    while nodes < 200 {
        let u = rng.below(graph.num_nodes()) as NodeId;
        let degree = graph.degree(u);
        if degree < 2 {
            continue;
        }
        nodes += 1;
        let draws = 100 * degree;
        let mut taken = vec![0.0f64; degree];
        for _ in 0..draws {
            if let Some(k) = manager.sample(graph, &model, WalkerState::at(u), &mut rng) {
                taken[k] += 1.0;
            }
        }
        let norm = graph.weighted_degree(u);
        let exact: Vec<f64> = graph
            .weights(u)
            .iter()
            .map(|&w| f64::from(w) / norm)
            .collect();
        let empirical: Vec<f64> = taken.iter().map(|c| c / draws as f64).collect();
        sum += kl_divergence(&empirical, &exact);
    }
    sum / nodes as f64
}

/// The same stream through the ingest pipeline with every layer call made
/// here: WAL append in the hook; snapshot, evict, refresh, online SGD,
/// publish, seed and burn-in in the batch callback.
fn replay(ctx: &Ctx, readers: bool, inputs: &Inputs, dir: &Path, tracer: &mut Tracer) -> Replay {
    let cfg = pipeline_config(ctx, readers);
    let streaming = streaming_config();
    let threads = engine_threads(ctx, readers);
    let model = DeepWalk::new();
    let graph = inputs.graph.clone();
    let num_nodes = graph.num_nodes();
    let begun = Instant::now();

    // Everything before the first published epoch, as the session does it.
    let mut manager = tracer.time("sampler.new", 0, || {
        SamplerManager::new(
            &graph,
            &model,
            cfg.walk.sampler,
            cfg.walk.memory_budget_bytes,
        )
    });
    let starts: Vec<NodeId> = graph.non_isolated_nodes().collect();
    let (mut corpus, _) = tracer.time("walker.generate", 0, || {
        WalkEngine::new(cfg.walk).generate_with_manager(&graph, &model, &manager, &starts)
    });
    let trainer = Word2VecTrainer::new(cfg.embedding);
    let (session, _) = tracer.time("embedding.train_online", 0, || {
        trainer.train_online(corpus.walks(), num_nodes)
    });
    let store = EmbeddingStore::with_ann(AnnConfig {
        seed: cfg.walk.seed,
        ..AnnConfig::default()
    });
    let first_epoch = tracer.time("embedding.publish", 0, || {
        store.publish(session.embeddings())
    });
    let sampler_state = SamplerState {
        kind: cfg.walk.sampler,
        seed: cfg.walk.seed,
    };
    let mut wal = WalWriter::open(dir, FsyncPolicy::EveryN(FSYNC_EVERY)).expect("the WAL opens");
    let snapshot_bytes = Cell::new(0u64);
    let cut_snapshot = |tracer: &mut Tracer,
                        wal: &mut WalWriter,
                        request: u64,
                        graph: Graph,
                        embeddings: Embeddings,
                        epoch: u64,
                        live: Option<Vec<bool>>| {
        tracer.time("persist.snapshot", request, || {
            wal.sync().expect("the WAL syncs");
            let path = write_snapshot(
                dir,
                &Snapshot {
                    wal_seq: wal.last_seq(),
                    epoch,
                    symmetric: streaming.symmetric,
                    sampler: sampler_state,
                    graph,
                    embeddings: Some(embeddings),
                    live,
                },
            )
            .expect("the snapshot is written");
            snapshot_bytes.set(std::fs::metadata(path).map_or(0, |m| m.len()));
        });
    };
    cut_snapshot(
        tracer,
        &mut wal,
        0,
        graph.clone(),
        session.embeddings(),
        first_epoch,
        None,
    );

    let mut dyn_graph = DynamicGraph::new(graph, streaming.symmetric);
    let mut refresher = WalkRefresher::new(&corpus, num_nodes, cfg.walk.walk_length, cfg.walk.seed);
    let ingest_cfg = IngestConfig {
        batch_size: streaming.batch_size,
        queue_capacity: streaming.queue_capacity,
        num_threads: threads,
        compaction_threshold: streaming.compaction_threshold,
    };
    let ingest_metrics = IngestMetrics::detached();

    // Shared by the WAL hook and the batch callback; both run on this thread,
    // never nested.
    let tracer = RefCell::new(tracer);
    let wal = RefCell::new(wal);
    let session = RefCell::new(session);
    let batch_id = Cell::new(0u64);
    let since_snapshot = Cell::new(0usize);
    // WalWriter does not count its fsyncs; its policy is mirrored here,
    // starting from the sync the first snapshot made.
    let (unsynced, fsyncs) = (Cell::new(0u32), Cell::new(1u64));
    // End of the previous callback, and of the WAL hook, on the tracer clock.
    let last_end = Cell::new(tracer.borrow().now_ns());
    let hook_end = Cell::new(0u64);
    let mut pending_seed: Vec<NodeId> = Vec::new();
    let mut last_epoch = first_epoch;
    let (mut walks_regenerated, mut sgd_tokens, mut dirty_ratio_sum) = (0usize, 0usize, 0.0f64);
    let (mut reinserted, mut reindexed) = (0usize, 0usize);
    let (mut apply_s, mut maintain_s, mut compaction_s) = (0.0f64, 0.0f64, 0.0f64);

    let pipeline_begun = Instant::now();
    let report = {
        let mut wal_hook = |batch: &uninet_dyngraph::UpdateBatch| {
            let id = batch_id.get() + 1;
            batch_id.set(id);
            let mut t = tracer.borrow_mut();
            let now = t.now_ns();
            t.record("ingest.queue.wait", id, last_end.get(), now);
            t.time("persist.wal_append", id, || {
                wal.borrow_mut()
                    .append(batch)
                    .expect("the WAL accepts the batch")
            });
            since_snapshot.set(since_snapshot.get() + 1);
            unsynced.set(unsynced.get() + 1);
            if unsynced.get() >= FSYNC_EVERY {
                unsynced.set(0);
                fsyncs.set(fsyncs.get() + 1);
            }
            hook_end.set(t.now_ns());
        };
        run_durable_pipeline(
            &ingest_cfg,
            &ingest_metrics,
            &mut dyn_graph,
            &mut manager,
            &model,
            &inputs.mutations,
            Some(&mut wal_hook),
            |dg, mgr, r, is_final| {
                let mut guard = tracer.borrow_mut();
                let t: &mut Tracer = &mut guard;
                let id = batch_id.get();
                let now = t.now_ns();
                if is_final {
                    t.record("ingest.flush", id, last_end.get(), now);
                } else {
                    t.record("ingest.apply_batch", id, hook_end.get(), now);
                }
                apply_s += r.apply_time.as_secs_f64();
                maintain_s += r.maintain_time.as_secs_f64();
                if r.compacted {
                    // Not separable from outside: maintenance time of a
                    // batch that compacted, sampler repair included.
                    compaction_s += r.maintain_time.as_secs_f64();
                }
                let outer = t.enter("core.on_batch", id);
                let mut session = session.borrow_mut();
                let session: &mut OnlineWord2Vec = &mut session;

                if since_snapshot.get() >= SNAPSHOT_EVERY {
                    since_snapshot.set(0);
                    unsynced.set(0);
                    fsyncs.set(fsyncs.get() + 1);
                    cut_snapshot(
                        t,
                        &mut wal.borrow_mut(),
                        id,
                        dg.materialize(),
                        session.embeddings(),
                        last_epoch,
                        universe_mask(dg.live_mask()),
                    );
                }
                let mut publish = |t: &mut Tracer, session: &OnlineWord2Vec| {
                    last_epoch = t.time("embedding.publish", id, || {
                        store.publish_with_universe(
                            session.embeddings(),
                            universe_mask(dg.live_mask()),
                        )
                    });
                    if let Some(stats) = store.snapshot().ann().and_then(|a| a.incremental_stats())
                    {
                        reinserted += stats.reinserted;
                        reindexed += stats.reinserted + stats.reused;
                    }
                };
                if !r.arrivals.is_empty() || !r.retirements.is_empty() {
                    let capacity = dg.num_nodes();
                    refresher.grow(capacity);
                    if !r.retirements.is_empty() {
                        t.time("dyngraph.evict_walks", id, || {
                            refresher.evict_walks(&mut corpus, &r.retirements)
                        });
                        pending_seed.retain(|v| !r.retirements.contains(v));
                    }
                    session.grow(capacity, cfg.walk.seed);
                    pending_seed.extend(r.arrivals.iter().copied());
                }

                let mut touched = r.weight_touched.clone();
                touched.extend_from_slice(&r.topology_touched);
                touched.sort_unstable();
                touched.dedup();
                if !touched.is_empty() {
                    let live_walks = corpus.iter().filter(|w| !w.is_empty()).count();
                    let outcome = t.time("dyngraph.refresh", id, || {
                        refresher.refresh_parallel(
                            &mut corpus,
                            dg.base(),
                            &model,
                            mgr,
                            &touched,
                            threads,
                        )
                    });
                    walks_regenerated += outcome.refreshed_ids.len();
                    dirty_ratio_sum +=
                        outcome.refreshed_ids.len() as f64 / live_walks.max(1) as f64;
                    if !outcome.refreshed_ids.is_empty() {
                        let regenerated: Vec<Vec<NodeId>> = outcome
                            .refreshed_ids
                            .iter()
                            .map(|&w| corpus.walk(w as usize).to_vec())
                            .collect();
                        sgd_tokens += regenerated.iter().map(Vec::len).sum::<usize>();
                        t.time("embedding.online_sgd", id, || {
                            trainer.train_incremental(session, &regenerated)
                        });
                        publish(t, session);
                    }
                }

                if !pending_seed.is_empty() {
                    let ready: Vec<NodeId> = pending_seed
                        .iter()
                        .copied()
                        .filter(|&v| {
                            dg.is_live(v)
                                && (v as usize) < dg.base().num_nodes()
                                && dg.base().degree(v) > 0
                        })
                        .collect();
                    if !ready.is_empty() {
                        pending_seed.retain(|v| !ready.contains(v));
                        // Neighbour-average cold start, as the session does.
                        for &v in &ready {
                            let mut avg = vec![0.0f32; session.dim()];
                            let mut count = 0usize;
                            for &u in dg.base().neighbors(v) {
                                if dg.is_live(u) && u != v {
                                    for (a, b) in avg.iter_mut().zip(session.input_row(u)) {
                                        *a += b;
                                    }
                                    count += 1;
                                }
                            }
                            if count > 0 {
                                avg.iter_mut().for_each(|a| *a /= count as f32);
                                session.set_input_row(v, &avg);
                            }
                        }
                        let new_ids = t.time("dyngraph.seed_walks", id, || {
                            refresher.seed_walks(
                                &mut corpus,
                                dg.base(),
                                &model,
                                mgr,
                                &ready,
                                cfg.walk.num_walks,
                            )
                        });
                        if !new_ids.is_empty() && streaming.cold_start_burn_in > 0 {
                            let walks: Vec<Vec<NodeId>> = new_ids
                                .iter()
                                .map(|&w| corpus.walk(w as usize).to_vec())
                                .collect();
                            t.time("embedding.burn_in", id, || {
                                for _ in 0..streaming.cold_start_burn_in {
                                    trainer.train_burn_in(
                                        session,
                                        &walks,
                                        streaming.cold_start_boost,
                                    );
                                }
                            });
                            publish(t, session);
                        }
                    }
                }
                t.exit(outer);
                last_end.set(t.now_ns());
            },
        )
    };
    let pipeline_s = pipeline_begun.elapsed().as_secs_f64();
    let wall_s = begun.elapsed().as_secs_f64();

    // A publish without an index is the norms pass alone.
    let tracer = tracer.into_inner();
    let last = session.borrow().embeddings();
    tracer.time("embedding.publish.norms", 0, || {
        EmbeddingStore::new().publish(last)
    });

    let wal_bytes = wal.borrow().bytes_written();
    let final_graph = dyn_graph.into_base();
    Replay {
        wall_s,
        pipeline_s,
        batches: report.batches,
        walks_regenerated,
        corpus_walks: corpus.num_walks(),
        dirty_ratio_sum,
        sgd_tokens,
        apply_s,
        maintain_s,
        compactions: report.compactions,
        compaction_s,
        rejected: report.rejected_mutations,
        applied: report.weight_mutations + report.topology_mutations,
        stall_s: report.queue.producer_wait.as_secs_f64(),
        peak_depth: report.queue.peak_depth,
        wal_bytes,
        fsyncs: fsyncs.get(),
        snapshot_bytes: snapshot_bytes.get(),
        reinserted,
        reindexed,
        kl_after_reweights: sampler_kl(&final_graph, &manager, ctx.seed),
        final_graph,
    }
}

pub fn run_traced(ctx: &Ctx, readers: bool) -> Outcome {
    let mut out = Outcome::default();
    let half = ctx.seconds / 2.0;
    let name = if readers {
        "serve_under_ingest"
    } else {
        "stream_ingest"
    };

    // The reference: the engine's own session over the stream, untraced but
    // with a 1 ms poll of the store's epoch for publish gaps.
    let dir = ctx.scratch("wal");
    let s = session(ctx, readers, half, &dir, true);
    check_session(ctx, &s, &mut out);
    let gaps_ms: Vec<f64> = s
        .publishes
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    if !gaps_ms.is_empty() {
        out.set("core.stream.publish_gap_p50_ms", stats::median(&gaps_ms));
        out.set(
            "core.stream.publish_gap_p99_ms",
            stats::quantile(&gaps_ms, 0.99),
        );
    }
    if let Some(reads) = &s.reads {
        out.check(reads.attempted, reads.failed);
        set_wire_metrics(&mut out, reads, &s.engine);
    } else {
        let walls = recoveries(ctx, &s, &dir, 3, &mut out);
        out.set("core.recover.first_answer_s", stats::median(&walls));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The traced pass over the same stream.
    let mut tracer = Tracer::new();
    let replay_dir = ctx.scratch("wal-replay");
    let (list, stream) = generate(ctx, s.inputs.mutations.len());
    let traced_inputs = Inputs {
        graph: tracer.time("graph.build", 0, || build_graph(&list)),
        mutations: tracer.time("ingest.parse", 0, || parse(&stream, list.n)),
        list,
        stream,
    };
    out.check(1, u64::from(traced_inputs.mutations != s.inputs.mutations));
    let r = replay(ctx, readers, &traced_inputs, &replay_dir, &mut tracer);
    out.check((r.applied + r.rejected) as u64, r.rejected as u64);

    // Restart from the replay's directory: its last snapshot is a periodic
    // one, so the WAL suffix after it is replayed.
    let t = Instant::now();
    let loaded = latest_valid_snapshot(&replay_dir).expect("the directory is readable");
    let load_s = t.elapsed().as_secs_f64();
    drop(loaded);
    let t = Instant::now();
    let recovered = uninet_persist::recover(&replay_dir).expect("the replay's directory recovers");
    let recover_s = t.elapsed().as_secs_f64();
    let same_graph = recovered.graph.num_nodes() == r.final_graph.num_nodes()
        && (0..r.final_graph.num_nodes() as NodeId).all(|v| {
            recovered.graph.neighbors(v) == r.final_graph.neighbors(v)
                && recovered.graph.weights(v) == r.final_graph.weights(v)
        });
    out.check(1, u64::from(!same_graph));
    let _ = std::fs::remove_dir_all(&replay_dir);

    let spans = |n: &str| tracer.total_s(n);
    let batches = r.batches.max(1) as f64;
    let attributed: f64 = [
        "ingest.queue.wait",
        "persist.wal_append",
        "ingest.apply_batch",
        "ingest.flush",
        "core.on_batch",
    ]
    .iter()
    .map(|n| spans(n))
    .sum();
    let sgd_s = spans("embedding.online_sgd") + spans("embedding.burn_in");
    out.set("graph.build_s", spans("graph.build"));
    out.set("sampler.mh.init_s", spans("sampler.new"));
    out.set("sampler.mh.kl", r.kl_after_reweights);
    out.set(
        "walker.deepwalk.steps_per_s",
        (traced_inputs.graph.num_nodes() * NUM_WALKS * (WALK_LENGTH - 1)) as f64
            / spans("walker.generate"),
    );
    out.set(
        "embedding.online_sgd.tokens_per_s",
        r.sgd_tokens as f64 / sgd_s.max(1e-9),
    );
    out.set("embedding.online_sgd.busy_share", sgd_s / r.pipeline_s);
    // Publishes inside the pipeline only; the first one has no previous index.
    let publishes = (tracer.count("embedding.publish") - 1).max(1) as f64;
    let publish_s = tracer
        .spans()
        .iter()
        .filter(|sp| sp.name == "embedding.publish" && sp.request > 0)
        .map(|sp| sp.duration_ns() as f64 / 1e9)
        .sum::<f64>();
    let norms_s = spans("embedding.publish.norms");
    out.set("embedding.publish.norms_ms", norms_s * 1e3);
    out.set(
        "embedding.publish.ann_build_ms",
        (publish_s / publishes - norms_s).max(0.0) * 1e3,
    );
    out.set(
        "embedding.publish.ann_reinserted_ratio",
        r.reinserted as f64 / r.reindexed.max(1) as f64,
    );
    out.set("dyngraph.refresh.dirty_ratio", r.dirty_ratio_sum / batches);
    out.set(
        "dyngraph.refresh.walks_per_batch",
        r.walks_regenerated as f64 / batches,
    );
    out.set(
        "dyngraph.refresh.busy_share",
        spans("dyngraph.refresh") / r.pipeline_s,
    );
    out.set("dyngraph.compaction.count", r.compactions as f64);
    out.set("dyngraph.compaction.ms", r.compaction_s * 1e3);
    out.set(
        "dyngraph.apply.rejected_ratio",
        r.rejected as f64 / (r.applied + r.rejected).max(1) as f64,
    );
    out.set(
        "ingest.parse.lines_per_s",
        traced_inputs.stream.lines as f64 / spans("ingest.parse"),
    );
    out.set("ingest.apply.us_per_batch", r.apply_s / batches * 1e6);
    out.set("ingest.maintain.us_per_batch", r.maintain_s / batches * 1e6);
    out.set("ingest.queue.stall_share", r.stall_s / r.pipeline_s);
    out.set("ingest.queue.peak_depth", r.peak_depth as f64);
    out.set(
        "persist.wal_append.us_per_batch",
        spans("persist.wal_append") / batches * 1e6,
    );
    out.set(
        "persist.wal.bytes_per_update",
        r.wal_bytes as f64 / traced_inputs.mutations.len() as f64,
    );
    out.set("persist.wal.fsyncs", r.fsyncs as f64);
    out.set(
        "persist.snapshot_write_ms",
        spans("persist.snapshot") / tracer.count("persist.snapshot").max(1) as f64 * 1e3,
    );
    out.set("persist.snapshot_bytes", r.snapshot_bytes as f64);
    out.set("persist.recover.load_ms", load_s * 1e3);
    out.set(
        "persist.recover.replay_ms",
        (recover_s - load_s).max(0.0) * 1e3,
    );
    out.set(
        "core.stream.unattributed_share",
        (r.pipeline_s - attributed) / r.pipeline_s,
    );
    let engine_wall = s.setup_s + s.ingest_s;
    out.set("core.stream.replay_over_engine", r.wall_s / engine_wall);
    out.set("metrics.trace_overhead_ratio", r.wall_s / engine_wall);
    out.note(format!(
        "engine session {:.2} s (set-up {:.2} s + ingest {:.2} s) vs traced replay {:.2} s (pipeline {:.2} s), {} mutations in {} batches, {} spans",
        engine_wall,
        s.setup_s,
        s.ingest_s,
        r.wall_s,
        r.pipeline_s,
        traced_inputs.mutations.len(),
        r.batches,
        tracer.spans().len()
    ));
    out.note(format!(
        "pipeline wall by span: queue wait {:.3}, WAL append {:.3}, apply+maintain {:.3}, flush {:.3}, batch callback {:.3} (refresh {:.3}, online SGD {:.3}, publish {:.3}, snapshots {:.3}, callback self {:.3}) s",
        spans("ingest.queue.wait"),
        spans("persist.wal_append"),
        spans("ingest.apply_batch"),
        spans("ingest.flush"),
        spans("core.on_batch"),
        spans("dyngraph.refresh"),
        sgd_s,
        publish_s,
        spans("persist.snapshot") - tracer.durations_ns("persist.snapshot").first().copied().unwrap_or(0.0) / 1e9,
        tracer.self_s("core.on_batch"),
    ));
    out.note(format!(
        "{} walks regenerated for a {}-walk corpus",
        r.walks_regenerated, r.corpus_walks
    ));
    crate::write_spans(ctx, name, &tracer);
    out
}
