//! Concurrent-ingestion experiment: serial vs. sharded streaming pipelines,
//! full retrain vs. incremental embedding updates, and the latency of
//! embedding queries served concurrently with an active stream.
//!
//! 1. **Pipeline throughput** — replay the same mixed update stream through
//!    [`Engine::stream`] with 1 ingest thread (the serial path: batch loop,
//!    serial maintenance, serial refresh) and with N ingest threads
//!    (bounded-queue intake, vertex-range sharded application, parallel
//!    sampler maintenance and walk refresh). Reports sustained updates/s and
//!    the per-phase latency split. On a multi-core host the sharded pipeline
//!    should clear ≥2x the serial throughput; on a single hardware thread the
//!    two collapse to the same schedule.
//! 2. **Incremental vs. full retrain** — same stream, embeddings either
//!    retrained from scratch on the refreshed corpus or updated online on
//!    regenerated walks only. Compares link-prediction AUC on the final
//!    graph (expected: within noise) and the training-phase time; no query
//!    load runs here, keeping these columns comparable across PRs.
//! 3. **Concurrent query service** — a dedicated sharded incremental session
//!    with reader threads hammering `top_k` against the engine's embedding
//!    store; per-query latency (including snapshot/lock acquisition) is the
//!    "serving while training" measurement.
//! 4. **Exact vs. ANN top-k** — the same trained embeddings served through
//!    the brute-force scan and through the per-snapshot HNSW index,
//!    side by side: median/p95 latency, recall@10 against the exact result,
//!    the per-epoch index build cost, and the batch-API amortization of
//!    snapshot acquisition.
//! 5. **Durability** — the same stream without a WAL, with an unsynced WAL
//!    and with fsync-per-append, plus a timed crash recovery; the streaming
//!    overhead of each fsync policy and the cold-restart latency.
//! 6. **Query-plane raw speed** — the unified SIMD distance kernels against
//!    their scalar reference at d=128, the int8-quantized store's recall@10
//!    and latency against the f32 exact scan, and the incremental HNSW
//!    republish cost against a full rebuild across drifted epochs.
//! 7. **Open-world churn** — node arrivals wired into the live graph plus
//!    retirements, streamed through the same pipeline: sustained churn
//!    throughput, cold-start burn-in latency, and cold-start recall@10
//!    against an established-node baseline.
//!
//! Emits `results/BENCH_streaming.json` so the perf trajectory is tracked
//! across PRs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use uninet_bench::{emit, emit_json, HarnessConfig, Json};
use uninet_core::kernels;
use uninet_core::{
    EdgeSamplerKind, Engine, FsyncPolicy, InitStrategy, ModelSpec, QueryMode, StreamingConfig,
    StreamingReport, Table, UniNetConfig,
};
use uninet_dyngraph::GraphMutation;
use uninet_eval::{link_prediction_auc, LinkPredictionConfig};
use uninet_graph::generators::barabasi_albert;
use uninet_graph::{Graph, NodeId};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

fn pipeline_config(cfg: &HarnessConfig, threads: usize, sampler: EdgeSamplerKind) -> UniNetConfig {
    let mut uninet = UniNetConfig::default();
    uninet.walk.num_walks = cfg.num_walks().min(4);
    uninet.walk.walk_length = cfg.walk_length().min(40);
    uninet.walk.num_threads = threads;
    uninet.walk.sampler = sampler;
    uninet.embedding.dim = 64;
    uninet.embedding.epochs = 2;
    uninet.embedding.num_threads = threads;
    uninet
}

fn engine_for(graph: &Graph, config: UniNetConfig, streaming: StreamingConfig) -> Engine {
    Engine::builder()
        .graph(graph.clone())
        .model(ModelSpec::DeepWalk)
        .config(config)
        .streaming(streaming)
        .build()
        .expect("benchmark configuration is valid")
}

fn report_json(sampler: &str, label: &str, report: &StreamingReport, wall: f64) -> Json {
    Json::Obj(vec![
        ("sampler", Json::Str(sampler.to_string())),
        ("pipeline", Json::Str(label.to_string())),
        ("updates_per_sec", Json::Num(report.update_throughput)),
        ("batches", Json::Int(report.batches as u64)),
        ("apply_ms", Json::Num(report.apply_time.as_secs_f64() * 1e3)),
        (
            "maintain_ms",
            Json::Num(report.maintain_time.as_secs_f64() * 1e3),
        ),
        (
            "refresh_ms",
            Json::Num(report.refresh_time.as_secs_f64() * 1e3),
        ),
        ("wall_s", Json::Num(wall)),
        (
            "walks_refreshed",
            Json::Int(report.refresh.walks_refreshed as u64),
        ),
        (
            "postings_pruned",
            Json::Int(report.refresh.postings_pruned as u64),
        ),
        (
            "chains_preserved",
            Json::Int(report.maintenance.chains_preserved as u64),
        ),
        (
            "queue_peak_depth",
            Json::Int(report.queue.peak_depth as u64),
        ),
        (
            "queue_backpressure_ms",
            Json::Num(report.queue.producer_wait.as_secs_f64() * 1e3),
        ),
        ("compactions", Json::Int(report.compactions as u64)),
    ])
}

fn auc_of(graph: &Graph, embeddings: &uninet_core::Embeddings) -> f64 {
    let edges: Vec<(u32, u32)> = graph.all_edges().map(|(u, v, _)| (u, v)).collect();
    link_prediction_auc(
        graph.num_nodes(),
        &edges,
        |u, v| graph.has_edge(u, v),
        |u, v| embeddings.cosine_similarity(u, v) as f64,
        &LinkPredictionConfig {
            num_pairs: 400,
            seed: 7,
        },
    )
}

/// Per-query latency statistics from the concurrent readers.
#[derive(Debug, Default, Clone, Copy)]
struct QueryStats {
    queries: usize,
    mean_us: f64,
    p95_us: f64,
    p99_us: f64,
    max_epoch: u64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Spawns `readers` threads that issue `top_k` queries against `engine`'s
/// store until `stop` flips, and aggregates their latency distribution.
fn run_query_readers(
    engine: &Engine,
    readers: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<(Vec<f64>, u64)>> {
    (0..readers)
        .map(|i| {
            let store = engine.store();
            let stop = Arc::clone(stop);
            let num_nodes = engine.num_nodes() as u32;
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(1000 + i as u64);
                let mut latencies_us = Vec::new();
                let mut max_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let node = rng.gen_range(0..num_nodes);
                    // Queries go through the store service path, whose timer
                    // covers snapshot acquisition too — the read lock is the
                    // only step a concurrent publisher can block, so excluding
                    // it would hide writer-induced stalls. The same path also
                    // feeds the engine's `query.top_k.*` latency histograms.
                    // The caller primes the store with a batch train, so the
                    // first snapshot is already published when readers start.
                    let t = Instant::now();
                    let top = store.top_k(node, 10);
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    max_epoch = max_epoch.max(store.epoch());
                    assert!(top.len() <= 10);
                }
                (latencies_us, max_epoch)
            })
        })
        .collect()
}

fn collect_query_stats(handles: Vec<std::thread::JoinHandle<(Vec<f64>, u64)>>) -> QueryStats {
    let mut all = Vec::new();
    let mut max_epoch = 0;
    for h in handles {
        let (lat, epoch) = h.join().expect("query reader panicked");
        all.extend(lat);
        max_epoch = max_epoch.max(epoch);
    }
    all.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    QueryStats {
        queries: all.len(),
        mean_us: if all.is_empty() {
            0.0
        } else {
            all.iter().sum::<f64>() / all.len() as f64
        },
        p95_us: percentile(&all, 0.95),
        p99_us: percentile(&all, 0.99),
        max_epoch,
    }
}

fn main() {
    let cfg = HarnessConfig::from_env();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let graph = barabasi_albert(cfg.nodes(20_000), 8, true, 21);
    let stream = mixed_stream(&graph, if cfg.quick { 4_000 } else { 20_000 }, 77);
    println!(
        "ingestion experiment over BA graph: {} nodes, {} edges, {} updates, {} worker threads",
        graph.num_nodes(),
        graph.num_edges(),
        stream.len(),
        threads,
    );

    // Part 1: serial vs. sharded pipeline on the same stream, per sampler.
    // The M-H rows show that UniNet's sampler leaves (almost) nothing to
    // parallelize — reweights are O(1) with zero rebuild work — while the
    // alias rows carry the O(deg)-per-state rebuilds whose fan-out is where
    // the sharded pipeline earns its throughput on multi-core hosts.
    let mut table = Table::new(
        "Concurrent ingestion — serial vs. sharded streaming pipeline (DeepWalk)",
        &[
            "sampler",
            "pipeline",
            "updates/s (apply+maintain)",
            "updates/s (incl. refresh)",
            "apply ms",
            "maintain ms",
            "refresh ms",
            "walks refreshed",
            "queue backpressure ms",
        ],
    );
    let mut json_pipelines = Vec::new();
    let mut speedups = Vec::new();
    for (sampler_name, sampler) in [
        (
            "UniNet(M-H)",
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
        ),
        ("Alias", EdgeSamplerKind::Alias),
    ] {
        let mut throughputs = Vec::new();
        for (label, ingest_threads) in [("serial", 1usize), ("sharded", threads)] {
            let streaming = StreamingConfig {
                batch_size: 1024,
                compaction_threshold: 2048,
                ingest_threads,
                queue_capacity: 8,
                ..Default::default()
            };
            let engine = engine_for(
                &graph,
                pipeline_config(&cfg, ingest_threads, sampler),
                streaming,
            );
            let t = Instant::now();
            let outcome = engine
                .stream_blocking(stream.clone())
                .expect("engine is idle");
            let report = outcome.report;
            let wall = t.elapsed().as_secs_f64();
            // End-to-end streaming throughput: every phase of the update path
            // (apply + maintain + refresh). Walk refresh dominates and is the
            // phase the thread fan-out accelerates on multi-core hosts.
            let stream_secs = (report.apply_time + report.maintain_time + report.refresh_time)
                .as_secs_f64()
                .max(1e-9);
            let applied = (report.weight_mutations + report.topology_mutations) as f64;
            let pipeline_throughput = applied / stream_secs;
            table.add_row(&[
                sampler_name.to_string(),
                label.to_string(),
                format!("{:.0}", report.update_throughput),
                format!("{pipeline_throughput:.0}"),
                format!("{:.2}", report.apply_time.as_secs_f64() * 1e3),
                format!("{:.2}", report.maintain_time.as_secs_f64() * 1e3),
                format!("{:.2}", report.refresh_time.as_secs_f64() * 1e3),
                format!("{}", report.refresh.walks_refreshed),
                format!("{:.2}", report.queue.producer_wait.as_secs_f64() * 1e3),
            ]);
            throughputs.push(pipeline_throughput);
            let mut json = report_json(sampler_name, label, &report, wall);
            if let Json::Obj(fields) = &mut json {
                fields.push(("pipeline_updates_per_sec", Json::Num(pipeline_throughput)));
            }
            json_pipelines.push(json);
        }
        let speedup = if throughputs[0] > 0.0 {
            throughputs[1] / throughputs[0]
        } else {
            0.0
        };
        println!("{sampler_name}: sharded/serial streaming throughput {speedup:.2}x");
        speedups.push((sampler_name, speedup));
    }
    emit(&table, "exp_ingest_pipeline");
    println!();

    // Part 2: full retrain vs. incremental training on regenerated walks.
    // No query readers run here, so the learn-time and AUC columns stay
    // comparable across PRs (the concurrent-query measurement has its own
    // dedicated session in part 3 below).
    let mut table = Table::new(
        "Concurrent ingestion — full retrain vs. incremental embedding updates",
        &[
            "training",
            "learn time s",
            "link-pred AUC",
            "pairs trained",
            "incremental passes",
            "snapshots",
        ],
    );
    let mut json_training = Vec::new();
    let mut aucs = Vec::new();
    for (label, incremental) in [("full-retrain", false), ("incremental", true)] {
        // Coarse batches keep refresh rounds (and with them the incremental
        // training volume) low: on hub-heavy graphs every round touches a
        // large corpus fraction, so round count dominates incremental cost.
        let streaming = StreamingConfig {
            batch_size: stream.len().div_ceil(4).max(1),
            compaction_threshold: 2048,
            ingest_threads: threads,
            incremental_train: incremental,
            ..Default::default()
        };
        let engine = engine_for(
            &graph,
            pipeline_config(
                &cfg,
                threads,
                EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            ),
            streaming,
        );
        let outcome = engine
            .stream_blocking(stream.clone())
            .expect("engine is idle");

        let result = outcome.result;
        let report = outcome.report;
        // Score embeddings against the post-stream compacted graph.
        let mut dg = uninet_core::DynamicGraph::new(graph.clone(), true);
        for &m in &stream {
            dg.apply(m);
        }
        let final_graph = dg.materialize();
        let auc = auc_of(&final_graph, &result.embeddings);
        aucs.push(auc);
        table.add_row(&[
            label.to_string(),
            format!("{:.2}", result.timing.learn.as_secs_f64()),
            format!("{auc:.4}"),
            format!("{}", result.train_stats.pairs_processed),
            format!("{}", report.incremental_passes),
            format!("{}", report.snapshots_published),
        ]);
        json_training.push(Json::Obj(vec![
            ("training", Json::Str(label.to_string())),
            ("learn_s", Json::Num(result.timing.learn.as_secs_f64())),
            ("link_pred_auc", Json::Num(auc)),
            (
                "pairs_trained",
                Json::Int(result.train_stats.pairs_processed),
            ),
            (
                "incremental_passes",
                Json::Int(report.incremental_passes as u64),
            ),
            (
                "incremental_walks",
                Json::Int(report.incremental_walks_trained as u64),
            ),
            (
                "snapshots_published",
                Json::Int(report.snapshots_published as u64),
            ),
        ]));
    }
    emit(&table, "exp_ingest_training");
    println!(
        "incremental AUC {:.4} vs full-retrain AUC {:.4} (delta {:+.4})",
        aucs[1],
        aucs[0],
        aucs[1] - aucs[0]
    );
    println!();

    // Part 3: the concurrent query service — reader threads hammer `top_k`
    // against the engine's embedding store (timer includes snapshot/lock
    // acquisition) for the whole duration of a sharded incremental session.
    // The store is primed by a batch train so queries are answered from
    // epoch 1; each refresh round then publishes a fresh snapshot.
    let num_readers = 2usize;
    let engine = engine_for(
        &graph,
        pipeline_config(
            &cfg,
            threads,
            EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
        ),
        StreamingConfig {
            batch_size: stream.len().div_ceil(4).max(1),
            compaction_threshold: 2048,
            ingest_threads: threads,
            incremental_train: true,
            ..Default::default()
        },
    );
    engine.train().expect("engine is idle");
    let stop = Arc::new(AtomicBool::new(false));
    let readers = run_query_readers(&engine, num_readers, &stop);
    let wall = Instant::now();
    let outcome = engine
        .stream_blocking(stream.clone())
        .expect("engine is idle");
    let stream_wall_s = wall.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let queries = collect_query_stats(readers);
    let mut table = Table::new(
        "Concurrent query service — top-k latency during active streaming",
        &[
            "readers",
            "queries served",
            "queries/s",
            "query mean us",
            "query p95 us",
            "query p99 us",
            "snapshots",
            "final epoch",
        ],
    );
    table.add_row(&[
        format!("{num_readers}"),
        format!("{}", queries.queries),
        format!("{:.0}", queries.queries as f64 / stream_wall_s.max(1e-9)),
        format!("{:.1}", queries.mean_us),
        format!("{:.1}", queries.p95_us),
        format!("{:.1}", queries.p99_us),
        format!("{}", outcome.report.snapshots_published),
        format!("{}", outcome.epoch),
    ]);
    emit(&table, "exp_ingest_queries");
    println!(
        "query service: {} top-k queries served while streaming \
         (mean {:.1} us, p95 {:.1} us, p99 {:.1} us, max epoch seen {})",
        queries.queries, queries.mean_us, queries.p95_us, queries.p99_us, queries.max_epoch,
    );
    let json_queries = Json::Obj(vec![
        ("query_readers", Json::Int(num_readers as u64)),
        ("queries_served", Json::Int(queries.queries as u64)),
        (
            "queries_per_sec",
            Json::Num(queries.queries as f64 / stream_wall_s.max(1e-9)),
        ),
        ("query_mean_us", Json::Num(queries.mean_us)),
        ("query_p95_us", Json::Num(queries.p95_us)),
        ("query_p99_us", Json::Num(queries.p99_us)),
        ("query_max_epoch", Json::Int(queries.max_epoch)),
        (
            "snapshots_published",
            Json::Int(outcome.report.snapshots_published as u64),
        ),
        ("stream_wall_s", Json::Num(stream_wall_s)),
    ]);
    println!();

    // Part 4: exact vs. ANN serving over the same trained embeddings. The
    // part-3 session's final vectors are republished into an ANN-enabled
    // store — no redundant retrain, and both paths (plus part 3 above)
    // serve the very same embeddings; the only added cost is one index
    // build, which is exactly the per-epoch price being measured.
    // Registering the side store's telemetry in the engine's registry makes
    // both stores share the same `query.*`/`engine.publish.*` instruments, so
    // the telemetry section below carries exact AND ANN latency quantiles.
    let ann_store = uninet_core::EmbeddingStore::with_ann(uninet_core::AnnConfig::default())
        .instrumented(uninet_core::StoreTelemetry::registered(
            &engine.metrics_registry(),
        ));
    ann_store.publish(engine.snapshot().embeddings().clone());
    let snapshot = ann_store.snapshot();
    let index = snapshot.ann().expect("ANN engine builds an index");
    let ann_build_ms = index.build_time().as_secs_f64() * 1e3;
    let k = 10usize;
    let num_queries = if cfg.quick { 200usize } else { 1000 };
    let mut rng = SmallRng::seed_from_u64(4242);
    let query_nodes: Vec<u32> = (0..num_queries)
        .map(|_| rng.gen_range(0..snapshot.num_nodes() as u32))
        .collect();

    let mut table = Table::new(
        "Query service — exact scan vs. HNSW ANN top-k over one snapshot",
        &[
            "mode",
            "median us",
            "p95 us",
            "queries/s",
            "recall@10",
            "index build ms",
        ],
    );
    let mut ann_json_fields: Vec<(&'static str, Json)> = vec![
        ("k", Json::Int(k as u64)),
        ("queries", Json::Int(num_queries as u64)),
        ("ann_build_ms", Json::Num(ann_build_ms)),
    ];
    let mut medians = Vec::new();
    let mut exact_results: Vec<Vec<(u32, f32)>> = Vec::new();
    for mode in [QueryMode::Exact, QueryMode::Ann] {
        let mut latencies = Vec::with_capacity(query_nodes.len());
        let mut results = Vec::with_capacity(query_nodes.len());
        for &node in &query_nodes {
            let t = Instant::now();
            let hits = snapshot.top_k_mode(node, k, mode);
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            results.push(hits);
        }
        let total_s = latencies.iter().sum::<f64>() / 1e6;
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = percentile(&latencies, 0.5);
        let p95 = percentile(&latencies, 0.95);
        let (label, recall) = match mode {
            QueryMode::Exact => {
                exact_results = results;
                ("exact-scan", 1.0)
            }
            QueryMode::Ann => {
                let mut hits = 0usize;
                let mut total = 0usize;
                for (approx, exact) in results.iter().zip(&exact_results) {
                    let exact_ids: Vec<u32> = exact.iter().map(|&(u, _)| u).collect();
                    hits += approx
                        .iter()
                        .filter(|&&(u, _)| exact_ids.contains(&u))
                        .count();
                    total += exact.len();
                }
                ("hnsw-ann", hits as f64 / total.max(1) as f64)
            }
        };
        table.add_row(&[
            label.to_string(),
            format!("{median:.1}"),
            format!("{p95:.1}"),
            format!("{:.0}", num_queries as f64 / total_s.max(1e-9)),
            format!("{recall:.4}"),
            if matches!(mode, QueryMode::Ann) {
                format!("{ann_build_ms:.1}")
            } else {
                "-".to_string()
            },
        ]);
        medians.push(median);
        let qps = num_queries as f64 / total_s.max(1e-9);
        match mode {
            QueryMode::Exact => {
                ann_json_fields.push(("exact_median_us", Json::Num(median)));
                ann_json_fields.push(("exact_p95_us", Json::Num(p95)));
                ann_json_fields.push(("exact_queries_per_sec", Json::Num(qps)));
            }
            QueryMode::Ann => {
                ann_json_fields.push(("ann_median_us", Json::Num(median)));
                ann_json_fields.push(("ann_p95_us", Json::Num(p95)));
                ann_json_fields.push(("ann_queries_per_sec", Json::Num(qps)));
                ann_json_fields.push(("recall_at_10", Json::Num(recall)));
            }
        }
    }
    emit(&table, "exp_ingest_ann");
    let ann_speedup = if medians[1] > 0.0 {
        medians[0] / medians[1]
    } else {
        0.0
    };
    ann_json_fields.push(("ann_speedup_median", Json::Num(ann_speedup)));
    println!(
        "ann serving: median {:.1} us vs exact {:.1} us ({:.2}x), index built in {:.1} ms",
        medians[1], medians[0], ann_speedup, ann_build_ms,
    );

    // Batch-API amortization: the same slab through per-call store queries
    // (one read lock each) and through one top_k_batch (one lock, one epoch).
    let store = &ann_store;
    let t = Instant::now();
    for &node in &query_nodes {
        let _ = store.top_k_mode(node, k, QueryMode::Ann);
    }
    let per_call_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let batch = store.top_k_batch(&query_nodes, k, QueryMode::Ann);
    let batch_s = t.elapsed().as_secs_f64();
    assert_eq!(batch.len(), query_nodes.len());
    println!(
        "batch api: {} queries in {:.1} ms batched vs {:.1} ms per-call",
        query_nodes.len(),
        batch_s * 1e3,
        per_call_s * 1e3,
    );
    ann_json_fields.push(("batch_total_ms", Json::Num(batch_s * 1e3)));
    ann_json_fields.push(("per_call_total_ms", Json::Num(per_call_s * 1e3)));
    let json_ann = Json::Obj(ann_json_fields);
    println!();

    // Part 5: durability — the WAL-append tax on streaming throughput, and
    // how long a cold restart takes. Three identical sharded incremental
    // sessions: no WAL (baseline), WAL without fsync (pure encode+write
    // cost), WAL with fsync-per-append (the full durable configuration);
    // then a timed `Engine::builder().recover(..)` from the durable dir.
    let dur_root = std::env::temp_dir().join(format!("uninet-bench-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dur_root);
    let mut table = Table::new(
        "Durability — WAL-append overhead and crash recovery (sharded incremental)",
        &[
            "configuration",
            "stream wall s",
            "updates/s",
            "overhead %",
            "wal bytes",
            "snapshots",
        ],
    );
    let mut dur_json_fields: Vec<(&'static str, Json)> = Vec::new();
    let mut dur_walls = Vec::new();
    for (label, key, policy) in [
        ("no-wal", "no_wal", None),
        (
            "wal fsync=never",
            "wal_fsync_never",
            Some(FsyncPolicy::Never),
        ),
        (
            "wal fsync=always",
            "wal_fsync_always",
            Some(FsyncPolicy::Always),
        ),
    ] {
        let streaming = StreamingConfig {
            batch_size: 1024,
            compaction_threshold: 2048,
            ingest_threads: threads,
            incremental_train: true,
            ..Default::default()
        };
        let mut builder = Engine::builder()
            .graph(graph.clone())
            .model(ModelSpec::DeepWalk)
            .config(pipeline_config(
                &cfg,
                threads,
                EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
            ))
            .streaming(streaming);
        if let Some(policy) = policy {
            builder = builder
                .wal(dur_root.join(key))
                .snapshot_every(8)
                .wal_fsync(policy);
        }
        let engine = builder.build().expect("durable benchmark configuration");
        let t = Instant::now();
        let outcome = engine
            .stream_blocking(stream.clone())
            .expect("engine is idle");
        let wall = t.elapsed().as_secs_f64();
        dur_walls.push(wall);
        let overhead_pct = (wall / dur_walls[0].max(1e-9) - 1.0) * 100.0;
        let (wal_bytes, snapshots) = outcome
            .report
            .durability
            .as_ref()
            .map(|d| {
                assert!(d.wal_error.is_none(), "WAL degraded: {:?}", d.wal_error);
                (d.wal_bytes, d.snapshots_written)
            })
            .unwrap_or((0, 0));
        table.add_row(&[
            label.to_string(),
            format!("{wall:.2}"),
            format!("{:.0}", outcome.report.update_throughput),
            if policy.is_none() {
                "-".to_string()
            } else {
                format!("{overhead_pct:+.1}")
            },
            format!("{wal_bytes}"),
            format!("{snapshots}"),
        ]);
        dur_json_fields.push((
            key,
            Json::Obj(vec![
                ("wall_s", Json::Num(wall)),
                (
                    "updates_per_sec",
                    Json::Num(outcome.report.update_throughput),
                ),
                ("overhead_pct", Json::Num(overhead_pct)),
                ("wal_bytes", Json::Int(wal_bytes)),
                ("snapshots_written", Json::Int(snapshots as u64)),
            ]),
        ));
    }
    // Timed cold restart from the fully durable directory.
    let t = Instant::now();
    let recovered = Engine::builder()
        .recover(dur_root.join("wal_fsync_always"))
        .build()
        .expect("recovery from the benchmark WAL");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let summary = recovered.recovery().expect("recovery summary").clone();
    println!(
        "durability: fsync=never {:+.1}% / fsync=always {:+.1}% streaming overhead; \
         recovery to epoch {} in {recovery_ms:.1} ms ({} batches replayed)",
        (dur_walls[1] / dur_walls[0].max(1e-9) - 1.0) * 100.0,
        (dur_walls[2] / dur_walls[0].max(1e-9) - 1.0) * 100.0,
        summary.epoch,
        summary.replayed_batches,
    );
    dur_json_fields.push(("recovery_ms", Json::Num(recovery_ms)));
    dur_json_fields.push(("recovered_epoch", Json::Int(summary.epoch)));
    dur_json_fields.push((
        "replayed_batches",
        Json::Int(summary.replayed_batches as u64),
    ));
    dur_json_fields.push((
        "restored_embeddings",
        Json::Bool(summary.restored_embeddings),
    ));
    emit(&table, "exp_ingest_durability");
    let json_durability = Json::Obj(dur_json_fields);
    let _ = std::fs::remove_dir_all(&dur_root);

    // Part 6a: the unified SIMD kernels vs their scalar reference at d=128.
    // `kernels::reference` accumulates sequentially in f32 (the compiler
    // cannot legally reorder that), so it is an honest scalar baseline even
    // in a release build; the dispatched kernels pick avx2/sse2 at runtime.
    let kdim = 128usize;
    let reps = if cfg.quick { 50_000usize } else { 400_000 };
    let mut rng = SmallRng::seed_from_u64(99);
    let pool: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..kdim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    // One untimed pass warms the cache and forces backend detection.
    let _ = std::hint::black_box(kernels::dot(&pool[0], &pool[1]));
    let bench_ns = |f: &mut dyn FnMut(&[f32], &[f32]) -> f32| -> f64 {
        let mut acc = 0.0f32;
        let t = Instant::now();
        for i in 0..reps {
            let a = &pool[i & 63];
            let b = &pool[(i * 7 + 3) & 63];
            acc += f(a, b);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e9 / reps as f64
    };
    let dot_simd_ns = bench_ns(&mut |a, b| kernels::dot(a, b));
    let dot_scalar_ns = bench_ns(&mut |a, b| kernels::reference::dot(a, b));
    let cos_simd_ns = bench_ns(&mut |a, b| kernels::cosine(a, b));
    let cos_scalar_ns = bench_ns(&mut |a, b| {
        let denom =
            (kernels::reference::squared_norm(a) * kernels::reference::squared_norm(b)).sqrt();
        kernels::reference::dot(a, b) / denom.max(1e-12)
    });
    let dot_speedup = dot_scalar_ns / dot_simd_ns.max(1e-9);
    let cos_speedup = cos_scalar_ns / cos_simd_ns.max(1e-9);
    let mut table = Table::new(
        "Query plane — dispatched SIMD kernels vs scalar reference (d=128)",
        &["kernel", "backend", "simd ns/op", "scalar ns/op", "speedup"],
    );
    table.add_row(&[
        "dot".to_string(),
        kernels::backend_name().to_string(),
        format!("{dot_simd_ns:.1}"),
        format!("{dot_scalar_ns:.1}"),
        format!("{dot_speedup:.2}x"),
    ]);
    table.add_row(&[
        "cosine".to_string(),
        kernels::backend_name().to_string(),
        format!("{cos_simd_ns:.1}"),
        format!("{cos_scalar_ns:.1}"),
        format!("{cos_speedup:.2}x"),
    ]);
    emit(&table, "exp_ingest_kernels");
    println!(
        "kernels[{}]: dot {dot_simd_ns:.1} ns vs scalar {dot_scalar_ns:.1} ns ({dot_speedup:.2}x), \
         cosine {cos_simd_ns:.1} ns vs scalar {cos_scalar_ns:.1} ns ({cos_speedup:.2}x)",
        kernels::backend_name(),
    );
    let json_kernels = Json::Obj(vec![
        ("backend", Json::Str(kernels::backend_name().to_string())),
        ("dim", Json::Int(kdim as u64)),
        ("reps", Json::Int(reps as u64)),
        ("dot_simd_ns", Json::Num(dot_simd_ns)),
        ("dot_scalar_ns", Json::Num(dot_scalar_ns)),
        ("dot_speedup", Json::Num(dot_speedup)),
        ("cosine_simd_ns", Json::Num(cos_simd_ns)),
        ("cosine_scalar_ns", Json::Num(cos_scalar_ns)),
        ("cosine_speedup", Json::Num(cos_speedup)),
    ]);

    // Part 6b: int8 quantized serving over the same trained embeddings.
    // The quantized store ranks candidates on the int8 codes and re-scores
    // its top k·rerank in exact f32, so recall against the part-4 f32 exact
    // scan is the quality axis and the int8 scan latency is the speed axis.
    let quant_store = uninet_core::EmbeddingStore::with_ann(uninet_core::AnnConfig {
        quantize: true,
        ..Default::default()
    });
    quant_store.publish(engine.snapshot().embeddings().clone());
    let quant_snapshot = quant_store.snapshot();
    assert!(quant_snapshot.is_quantized());
    let mut table = Table::new(
        "Query plane — int8 quantized scan/ANN vs the f32 exact baseline",
        &["mode", "median us", "p95 us", "recall@10 vs f32"],
    );
    let mut quant_json_fields: Vec<(&'static str, Json)> = Vec::new();
    for (mode, label, median_key, p95_key, recall_key) in [
        (
            QueryMode::Exact,
            "int8-scan",
            "exact_median_us",
            "exact_p95_us",
            "exact_recall_at_10",
        ),
        (
            QueryMode::Ann,
            "int8-hnsw",
            "ann_median_us",
            "ann_p95_us",
            "ann_recall_at_10",
        ),
    ] {
        let mut latencies = Vec::with_capacity(query_nodes.len());
        let mut hits = 0usize;
        let mut total = 0usize;
        for (&node, exact) in query_nodes.iter().zip(&exact_results) {
            let t = Instant::now();
            let found = quant_snapshot.top_k_mode(node, k, mode);
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            hits += found
                .iter()
                .filter(|&&(u, _)| exact.iter().any(|&(e, _)| e == u))
                .count();
            total += exact.len();
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = percentile(&latencies, 0.5);
        let p95 = percentile(&latencies, 0.95);
        let recall = hits as f64 / total.max(1) as f64;
        table.add_row(&[
            label.to_string(),
            format!("{median:.1}"),
            format!("{p95:.1}"),
            format!("{recall:.4}"),
        ]);
        println!("quantized {label}: median {median:.1} us, recall@10 {recall:.4}");
        quant_json_fields.push((median_key, Json::Num(median)));
        quant_json_fields.push((p95_key, Json::Num(p95)));
        quant_json_fields.push((recall_key, Json::Num(recall)));
    }
    emit(&table, "exp_ingest_quantized");
    let json_quantized = Json::Obj(quant_json_fields);

    // Part 6c: incremental HNSW republish vs full rebuild. Both stores get
    // the same base epoch (untimed — the incremental store has nothing to
    // reuse yet), then the same drifted epochs: each jitters ~12% of rows,
    // the incremental store grafts the unchanged graph and re-inserts only
    // the drifted nodes while the full store rebuilds from scratch.
    let base = engine.snapshot().embeddings().clone();
    let (edim, n) = (base.dim(), base.num_nodes());
    let inc_store = uninet_core::EmbeddingStore::with_ann(uninet_core::AnnConfig::default());
    let full_store = uninet_core::EmbeddingStore::with_ann(uninet_core::AnnConfig {
        incremental: false,
        ..Default::default()
    });
    inc_store.publish(base.clone());
    full_store.publish(base.clone());
    let drift_epochs = 5usize;
    let drift_rows = (n as f64 * 0.12) as usize;
    let mut flat = base.as_flat().to_vec();
    let (mut inc_build_ms, mut full_build_ms) = (0.0f64, 0.0f64);
    let (mut reused_total, mut reinserted_total) = (0u64, 0u64);
    let mut rng = SmallRng::seed_from_u64(4321);
    for _ in 0..drift_epochs {
        for _ in 0..drift_rows {
            let row = rng.gen_range(0..n);
            for x in &mut flat[row * edim..(row + 1) * edim] {
                *x += rng.gen_range(-0.1f32..0.1);
            }
        }
        let drifted = uninet_core::Embeddings::from_flat(edim, flat.clone());
        inc_store.publish(drifted.clone());
        full_store.publish(drifted);
        let inc_snap = inc_store.snapshot();
        let inc_index = inc_snap.ann().expect("incremental store builds an index");
        inc_build_ms += inc_index.build_time().as_secs_f64() * 1e3;
        let stats = inc_index
            .incremental_stats()
            .expect("publish over a previous epoch grafts incrementally");
        reused_total += stats.reused as u64;
        reinserted_total += (stats.reinserted + stats.added) as u64;
        let full_snap = full_store.snapshot();
        full_build_ms += full_snap
            .ann()
            .expect("full store builds an index")
            .build_time()
            .as_secs_f64()
            * 1e3;
    }
    let build_ratio = inc_build_ms / full_build_ms.max(1e-9);
    let mut table = Table::new(
        "Query plane — incremental HNSW republish vs full rebuild (5 drifted epochs)",
        &[
            "strategy",
            "total build ms",
            "vs full rebuild",
            "nodes reused",
            "nodes re-inserted",
        ],
    );
    table.add_row(&[
        "full-rebuild".to_string(),
        format!("{full_build_ms:.1}"),
        "1.00x".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    table.add_row(&[
        "incremental".to_string(),
        format!("{inc_build_ms:.1}"),
        format!("{build_ratio:.2}x"),
        format!("{reused_total}"),
        format!("{reinserted_total}"),
    ]);
    emit(&table, "exp_ingest_incremental_hnsw");
    println!(
        "incremental hnsw: {inc_build_ms:.1} ms over {drift_epochs} epochs vs \
         {full_build_ms:.1} ms full rebuild ({:.0}% of full; {reused_total} reused, \
         {reinserted_total} re-inserted)",
        build_ratio * 100.0,
    );
    let json_incremental = Json::Obj(vec![
        ("drift_epochs", Json::Int(drift_epochs as u64)),
        ("drift_rows_per_epoch", Json::Int(drift_rows as u64)),
        ("incremental_build_ms", Json::Num(inc_build_ms)),
        ("full_build_ms", Json::Num(full_build_ms)),
        ("build_ratio", Json::Num(build_ratio)),
        ("nodes_reused", Json::Int(reused_total)),
        ("nodes_reinserted", Json::Int(reinserted_total)),
    ]);
    let json_query_plane = Json::Obj(vec![
        ("kernels", json_kernels),
        ("quantized", json_quantized),
        ("incremental_hnsw", json_incremental),
    ]);
    println!();

    // Part 7: open-world churn — node arrivals and retirements streaming
    // through the full pipeline (growable universe, cold-start init + boosted
    // burn-in, retired-id eviction). Reports sustained churn throughput, the
    // burn-in latency the telemetry plane sees, and cold-start recall@10: how
    // well a just-arrived node's embedding already ranks its wired graph
    // neighbours, against the same metric for long-lived nodes.
    let mut rng = SmallRng::seed_from_u64(777);
    let n0 = graph.num_nodes() as NodeId;
    let arrivals_n = (graph.num_nodes() / 20).clamp(8, 200);
    let retire_n = (graph.num_nodes() / 40).clamp(4, 100);
    let wired_per_arrival = 6usize;
    let mut retired: Vec<NodeId> = Vec::with_capacity(retire_n);
    while retired.len() < retire_n {
        let v = rng.gen_range(0..n0);
        if !retired.contains(&v) {
            retired.push(v);
        }
    }
    let mut churn: Vec<GraphMutation> = Vec::with_capacity(arrivals_n * 16);
    for &v in &retired {
        churn.push(GraphMutation::RemoveNode { node: v });
    }
    let mut arrival_neighbors: Vec<(NodeId, Vec<NodeId>)> = Vec::with_capacity(arrivals_n);
    for i in 0..arrivals_n {
        let v = n0 + i as NodeId;
        churn.push(GraphMutation::AddNode { node: v });
        let mut wired = Vec::with_capacity(wired_per_arrival);
        while wired.len() < wired_per_arrival {
            let t = rng.gen_range(0..n0);
            if !retired.contains(&t) && !wired.contains(&t) {
                wired.push(t);
                churn.push(GraphMutation::AddEdge {
                    src: v,
                    dst: t,
                    weight: rng.gen_range(0.5f32..2.0),
                });
            }
        }
        arrival_neighbors.push((v, wired));
        // Background edge churn over the surviving universe, so throughput
        // reflects a mixed open-world stream rather than node ops alone.
        for _ in 0..8 {
            let src = rng.gen_range(0..n0);
            let deg = graph.degree(src);
            if retired.contains(&src) || deg == 0 {
                continue;
            }
            let dst = graph.neighbor_at(src, rng.gen_range(0..deg));
            if retired.contains(&dst) {
                continue;
            }
            churn.push(GraphMutation::UpdateWeight {
                src,
                dst,
                weight: rng.gen_range(0.5f32..4.0),
            });
        }
    }
    let engine = engine_for(
        &graph,
        pipeline_config(&cfg, threads, EdgeSamplerKind::Alias),
        StreamingConfig {
            batch_size: churn.len().div_ceil(8).max(1),
            compaction_threshold: 2048,
            ingest_threads: threads,
            incremental_train: true,
            allow_churn: true,
            cold_start_burn_in: 2,
            cold_start_boost: 2.0,
            ..Default::default()
        },
    );
    engine.train().expect("engine is idle");
    let t = Instant::now();
    let churn_len = churn.len();
    let outcome = engine.stream_blocking(churn).expect("engine is idle");
    let churn_wall_s = t.elapsed().as_secs_f64();
    let churn_report = outcome.report;
    assert_eq!(churn_report.arrivals, arrivals_n, "every arrival applied");
    assert_eq!(
        churn_report.retirements, retire_n,
        "every retirement applied"
    );
    let snapshot = engine.snapshot();
    assert_eq!(
        snapshot.live_count(),
        graph.num_nodes() - retire_n + arrivals_n,
        "the published universe tracks the churn"
    );
    for &v in &retired {
        assert!(
            snapshot.top_k(v, 5).is_empty(),
            "retired id {v} still answers top_k"
        );
    }
    // Cold-start recall@10: fraction of a node's wired neighbours present in
    // its embedding top-10, averaged over the cohort.
    let recall_at_10 = |pairs: &[(NodeId, Vec<NodeId>)]| -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (v, neigh) in pairs {
            if neigh.is_empty() {
                continue;
            }
            let top: Vec<NodeId> = snapshot.top_k(*v, 10).into_iter().map(|(u, _)| u).collect();
            let hits = neigh.iter().filter(|u| top.contains(u)).count();
            total += hits as f64 / neigh.len().min(10) as f64;
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    // Baseline: long-lived nodes scored on (a sample of) their real
    // neighbours, so the cold-start number has an in-run reference point.
    let mut established: Vec<(NodeId, Vec<NodeId>)> = Vec::with_capacity(arrivals_n);
    let mut probes = 0usize;
    while established.len() < arrivals_n && probes < graph.num_nodes() * 4 {
        probes += 1;
        let v = rng.gen_range(0..n0);
        if retired.contains(&v) || established.iter().any(|(u, _)| *u == v) {
            continue;
        }
        let deg = graph.degree(v);
        let mut neigh: Vec<NodeId> = (0..deg)
            .map(|i| graph.neighbor_at(v, i))
            .filter(|u| !retired.contains(u))
            .collect();
        neigh.truncate(wired_per_arrival);
        if neigh.is_empty() {
            continue;
        }
        established.push((v, neigh));
    }
    let cold_recall = recall_at_10(&arrival_neighbors);
    let established_recall = recall_at_10(&established);
    let churn_metrics = engine.metrics();
    let burn_in = churn_metrics.histogram("engine.train.cold_start_burn_in_ns");
    let burn_in_p50_ms = burn_in.map_or(0.0, |h| h.quantile(0.5) as f64 / 1e6);
    let burn_in_p95_ms = burn_in.map_or(0.0, |h| h.quantile(0.95) as f64 / 1e6);
    let mut table = Table::new(
        "Open-world churn — arrivals, retirements and cold-start quality",
        &["metric", "value"],
    );
    table.add_row(&[
        "churn updates/s".to_string(),
        format!("{:.0}", churn_report.update_throughput),
    ]);
    table.add_row(&["arrivals".to_string(), format!("{arrivals_n}")]);
    table.add_row(&["retirements".to_string(), format!("{retire_n}")]);
    table.add_row(&[
        "cold-started".to_string(),
        format!("{}", churn_report.cold_starts),
    ]);
    table.add_row(&[
        "burn-in p50 / p95 ms".to_string(),
        format!("{burn_in_p50_ms:.2} / {burn_in_p95_ms:.2}"),
    ]);
    table.add_row(&[
        "cold-start recall@10".to_string(),
        format!("{cold_recall:.3}"),
    ]);
    table.add_row(&[
        "established recall@10".to_string(),
        format!("{established_recall:.3}"),
    ]);
    emit(&table, "exp_ingest_open_world");
    println!(
        "open world: {churn_len} churn updates in {:.2}s ({:.0}/s); cold-start \
         recall@10 {cold_recall:.3} vs established {established_recall:.3}",
        churn_wall_s, churn_report.update_throughput,
    );
    let json_open_world = Json::Obj(vec![
        ("churn_updates", Json::Int(churn_len as u64)),
        ("arrivals", Json::Int(arrivals_n as u64)),
        ("retirements", Json::Int(retire_n as u64)),
        ("cold_starts", Json::Int(churn_report.cold_starts as u64)),
        (
            "churn_updates_per_sec",
            Json::Num(churn_report.update_throughput),
        ),
        ("wall_s", Json::Num(churn_wall_s)),
        ("burn_in_p50_ms", Json::Num(burn_in_p50_ms)),
        ("burn_in_p95_ms", Json::Num(burn_in_p95_ms)),
        ("cold_start_recall_at_10", Json::Num(cold_recall)),
        ("established_recall_at_10", Json::Num(established_recall)),
        ("universe_rows", Json::Int(snapshot.num_nodes() as u64)),
        ("live_rows", Json::Int(snapshot.live_count() as u64)),
        (
            "live_nodes_gauge",
            Json::Int(churn_metrics.gauge("engine.live_nodes").unwrap_or(0) as u64),
        ),
        (
            "arrivals_counter",
            Json::Int(churn_metrics.counter("ingest.churn.arrivals").unwrap_or(0)),
        ),
        (
            "retirements_counter",
            Json::Int(
                churn_metrics
                    .counter("ingest.churn.retirements")
                    .unwrap_or(0),
            ),
        ),
    ]);
    println!();

    emit_json(
        "BENCH_streaming",
        &Json::Obj(vec![
            ("experiment", Json::Str("exp_ingest".to_string())),
            // The harness scale knobs, so trend-file readers can tell a
            // configuration change from a performance change.
            ("scale", Json::Num(cfg.scale)),
            ("quick", Json::Bool(cfg.quick)),
            ("nodes", Json::Int(graph.num_nodes() as u64)),
            ("edges", Json::Int(graph.num_edges() as u64)),
            ("updates", Json::Int(stream.len() as u64)),
            ("worker_threads", Json::Int(threads as u64)),
            (
                "hardware_threads",
                Json::Int(
                    std::thread::available_parallelism()
                        .map(|p| p.get() as u64)
                        .unwrap_or(0),
                ),
            ),
            ("pipelines", Json::Arr(json_pipelines)),
            (
                "sharded_speedup",
                Json::Obj(
                    speedups
                        .iter()
                        .map(|&(name, s)| (name, Json::Num(s)))
                        .collect(),
                ),
            ),
            ("training", Json::Arr(json_training)),
            ("query_service", json_queries),
            ("ann_query_service", json_ann),
            ("durability", json_durability),
            ("query_plane", json_query_plane),
            ("open_world", json_open_world),
            // The part-3 engine's full telemetry snapshot: per-stage ingest
            // timings, publish/epoch gauges and per-mode query latency
            // quantiles, straight from `Engine::metrics()`.
            ("telemetry", Json::Raw(engine.metrics().to_json())),
            (
                "auc_delta_incremental_vs_full",
                Json::Num(aucs[1] - aucs[0]),
            ),
        ]),
    );
}
