//! Integration tests of the session API: builder validation, the embedding
//! query service, and concurrent queries against an active streaming session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uninet_core::{
    AnnConfig, EdgeSamplerKind, Engine, GraphMutation, InitStrategy, ModelSpec, QueryMode,
    StreamingConfig, UniNetError,
};
use uninet_graph::generators::{barabasi_albert, rmat, RmatConfig};
use uninet_graph::{Graph, NodeId};

fn test_graph() -> Graph {
    rmat(&RmatConfig {
        num_nodes: 200,
        num_edges: 1600,
        weighted: true,
        seed: 23,
        ..Default::default()
    })
}

fn mixed_stream(graph: &Graph, count: usize, seed: u64) -> Vec<GraphMutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = graph.num_nodes() as NodeId;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let src = rng.gen_range(0..n);
        if graph.degree(src) == 0 {
            continue;
        }
        let dst = graph.neighbor_at(src, rng.gen_range(0..graph.degree(src)));
        out.push(match out.len() % 4 {
            0 | 1 => GraphMutation::UpdateWeight {
                src,
                dst,
                weight: rng.gen_range(0.5f32..4.0),
            },
            2 => GraphMutation::AddEdge {
                src,
                dst: (dst + 1) % n,
                weight: 1.0,
            },
            _ => GraphMutation::RemoveEdge { src, dst },
        });
    }
    out
}

fn small_engine(graph: Graph) -> Engine {
    Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(2)
        .walk_length(10)
        .dim(24)
        .epochs(1)
        .threads(2)
        .sampler(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random))
        .build()
        .expect("valid configuration")
}

fn assert_invalid(err: UniNetError, expected_field: &str) {
    match err {
        UniNetError::InvalidConfig { field, .. } => assert_eq!(field, expected_field),
        other => panic!("expected InvalidConfig({expected_field}), got {other}"),
    }
}

#[test]
fn builder_rejects_bad_configs() {
    let g = || barabasi_albert(60, 3, false, 1);
    assert_invalid(
        Engine::builder()
            .graph(g())
            .num_walks(0)
            .build()
            .unwrap_err(),
        "walk.num_walks",
    );
    assert_invalid(
        Engine::builder()
            .graph(g())
            .walk_length(1)
            .build()
            .unwrap_err(),
        "walk.walk_length",
    );
    assert_invalid(
        Engine::builder().graph(g()).dim(0).build().unwrap_err(),
        "embedding.dim",
    );
    assert_invalid(
        Engine::builder().graph(g()).epochs(0).build().unwrap_err(),
        "embedding.epochs",
    );
    assert_invalid(
        Engine::builder()
            .graph(g())
            .model(ModelSpec::MetaPath2Vec { metapath: vec![0] })
            .build()
            .unwrap_err(),
        "model.metapath",
    );
    // A metapath naming node types the graph does not have is rejected too
    // (barabasi_albert graphs are homogeneous — only type 0 exists).
    assert_invalid(
        Engine::builder()
            .graph(g())
            .model(ModelSpec::MetaPath2Vec {
                metapath: vec![0, 1, 0],
            })
            .build()
            .unwrap_err(),
        "model.metapath",
    );
    assert_invalid(
        Engine::builder()
            .graph(g())
            .model(ModelSpec::Node2Vec { p: 0.0, q: 1.0 })
            .build()
            .unwrap_err(),
        "model.p",
    );
    let streaming = |s: StreamingConfig| Engine::builder().graph(g()).streaming(s).build();
    assert_invalid(
        streaming(StreamingConfig {
            batch_size: 0,
            ..Default::default()
        })
        .unwrap_err(),
        "streaming.batch_size",
    );
    assert_invalid(
        streaming(StreamingConfig {
            queue_capacity: 0,
            ..Default::default()
        })
        .unwrap_err(),
        "streaming.queue_capacity",
    );
    assert_invalid(Engine::builder().build().unwrap_err(), "graph");
    // ANN options are validated only when the index is enabled.
    let base = AnnConfig::default();
    let ann_cases = [
        ("streaming.ann.m", AnnConfig { m: 1, ..base }),
        (
            "streaming.ann.ef_construction",
            AnnConfig {
                m: 16,
                ef_construction: 4,
                ..base
            },
        ),
        (
            "streaming.ann.ef_search",
            AnnConfig {
                ef_search: 0,
                ..base
            },
        ),
    ];
    for (field, ann) in ann_cases {
        assert_invalid(
            streaming(StreamingConfig {
                ann_index: true,
                ann,
                ..Default::default()
            })
            .unwrap_err(),
            field,
        );
        // The same nonsense is ignored while the index is off.
        assert!(
            streaming(StreamingConfig {
                ann,
                ..Default::default()
            })
            .is_ok(),
            "{field} checked with the index off"
        );
    }
    // A valid configuration still builds.
    assert!(Engine::builder().graph(g()).build().is_ok());
}

#[test]
fn streaming_ann_reaches_the_store_with_the_engine_seed_and_threads() {
    let ann = AnnConfig {
        m: 6,
        ef_construction: 24,
        ..Default::default()
    };
    let engine = Engine::builder()
        .graph(barabasi_albert(60, 3, false, 1))
        .seed(9)
        .threads(3)
        .streaming(StreamingConfig {
            ann_index: true,
            ann,
            ..Default::default()
        })
        .build()
        .unwrap();
    assert_eq!(
        engine.store().ann_config(),
        Some(&AnnConfig {
            seed: 9,
            threads: 3,
            ..ann
        })
    );
}

#[test]
fn builder_loads_edge_list_files_with_typed_errors() {
    let err = Engine::builder()
        .graph_from_edge_list("/nonexistent/graph.edges")
        .build()
        .unwrap_err();
    assert!(matches!(err, UniNetError::Graph(_)), "got {err}");

    let dir = std::env::temp_dir().join("uninet_engine_api_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.edges");
    std::fs::write(&path, "0 1 1.0\n1 2 1.0\n2 0 1.0\n").unwrap();
    let engine = Engine::builder()
        .graph_from_edge_list(&path)
        .num_walks(1)
        .walk_length(5)
        .dim(8)
        .threads(1)
        .build()
        .unwrap();
    assert_eq!(engine.num_nodes(), 3);
    engine.train().unwrap();
    assert_eq!(engine.snapshot().num_nodes(), 3);
}

#[test]
fn train_publishes_queryable_snapshots() {
    let engine = small_engine(test_graph());
    // Before training: epoch 0, empty store, queries answer safely.
    assert_eq!(engine.snapshot().epoch(), 0);
    assert_eq!(engine.vector(0), None);
    assert!(engine.top_k(0, 5).is_empty());

    let report = engine.train().unwrap();
    assert_eq!(report.epoch, 1);
    assert!(report.corpus.num_walks() > 0);
    assert_eq!(engine.snapshot().num_nodes(), engine.num_nodes());
    assert_eq!(
        engine.vector(0).unwrap().len(),
        engine.config().embedding.dim
    );
    let sims = engine.top_k(0, 10);
    assert_eq!(sims.len(), 10);
    // Scores are sorted best-first.
    for pair in sims.windows(2) {
        assert!(pair[0].1 >= pair[1].1);
    }
    // Retraining bumps the epoch.
    let report = engine.train().unwrap();
    assert_eq!(report.epoch, 2);
}

#[test]
fn top_k_agrees_with_brute_force_over_trained_embeddings() {
    let engine = small_engine(test_graph());
    engine.train().unwrap();
    let snapshot = engine.snapshot();
    let emb = snapshot.embeddings();
    for node in [0u32, 7, 42, 199] {
        let fast = engine.top_k(node, 5);
        let brute = emb.most_similar(node, 5);
        assert_eq!(fast.len(), brute.len());
        for (f, b) in fast.iter().zip(&brute) {
            assert!(
                (f.1 - b.1).abs() < 1e-6,
                "node {node}: heap {:?} vs brute {:?}",
                fast,
                brute
            );
        }
    }
}

#[test]
fn ann_engine_routes_top_k_through_the_index() {
    let engine = Engine::builder()
        .graph(test_graph())
        .model(ModelSpec::DeepWalk)
        .num_walks(2)
        .walk_length(10)
        .dim(24)
        .epochs(1)
        .threads(2)
        .seed(11)
        .sampler(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random))
        .streaming(StreamingConfig {
            ann_index: true,
            ann: AnnConfig {
                ef_search: 128,
                ..Default::default()
            },
            ..Default::default()
        })
        .build()
        .unwrap();
    // Nothing published yet: ANN queries answer safely from the empty epoch.
    assert!(engine.top_k(0, 5).is_empty());
    engine.train().unwrap();

    let snapshot = engine.snapshot();
    assert!(snapshot.ann().is_some(), "snapshot should carry the index");
    let emb = snapshot.embeddings();
    let mut hits = 0usize;
    for node in [0u32, 7, 42, 199] {
        // The default path serves from the index...
        let ann = engine.top_k(node, 10);
        assert_eq!(ann.len(), 10);
        for pair in ann.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "ann results not sorted");
        }
        // ...while QueryMode::Exact still matches brute force exactly.
        let exact = engine.top_k_mode(node, 10, QueryMode::Exact);
        let brute = emb.most_similar(node, 10);
        for (f, b) in exact.iter().zip(&brute) {
            assert!((f.1 - b.1).abs() < 1e-6);
        }
        let exact_ids: Vec<u32> = exact.iter().map(|&(u, _)| u).collect();
        hits += ann.iter().filter(|&&(u, _)| exact_ids.contains(&u)).count();
    }
    assert!(hits >= 36, "recall@10 over 4 probes too low: {hits}/40");
}

#[test]
fn quantized_ann_engine_serves_exact_scores() {
    let engine = Engine::builder()
        .graph(test_graph())
        .model(ModelSpec::DeepWalk)
        .num_walks(2)
        .walk_length(10)
        .dim(24)
        .epochs(1)
        .threads(2)
        .seed(17)
        .sampler(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random))
        .streaming(StreamingConfig {
            ann_index: true,
            ..Default::default()
        })
        .build()
        .unwrap();
    engine.train().unwrap();
    let snapshot = engine.snapshot();
    assert!(snapshot.ann().is_some());
    for node in [0u32, 7, 42] {
        for mode in [QueryMode::Exact, QueryMode::Ann] {
            let hits = engine.top_k_mode(node, 10, mode);
            assert_eq!(hits.len(), 10);
            for &(u, s) in &hits {
                // The index walks int8 codes, but every reported score
                // must be the exact f32 cosine.
                let want = snapshot.embeddings().cosine_similarity(node, u);
                assert!((s - want).abs() < 1e-5, "{mode:?} node {node} hit {u}");
            }
        }
    }
}

#[test]
fn batch_queries_amortize_one_snapshot_acquisition() {
    let engine = small_engine(test_graph());
    engine.train().unwrap();
    let nodes: Vec<u32> = (0..50).collect();
    let batch = engine.top_k_batch(&nodes, 5, QueryMode::Exact);
    assert_eq!(batch.len(), nodes.len());
    for (&node, row) in nodes.iter().zip(&batch) {
        assert_eq!(row, &engine.top_k_mode(node, 5, QueryMode::Exact));
    }
    let pairs = [(0u32, 1u32), (5, 9), (0, 10_000)];
    let cosines = engine.cosine_batch(&pairs);
    assert_eq!(cosines[0], engine.cosine(0, 1));
    assert_eq!(cosines[1], engine.cosine(5, 9));
    assert_eq!(cosines[2], None);
}

#[test]
fn stream_keeps_engine_queryable_and_updates_graph() {
    let graph = test_graph();
    let n = graph.num_nodes();
    let mutations = mixed_stream(&graph, 300, 5);
    let engine = Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(2)
        .walk_length(10)
        .dim(24)
        .epochs(1)
        .threads(2)
        .sampler(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random))
        .streaming(StreamingConfig {
            batch_size: 32,
            incremental_train: true,
            ..Default::default()
        })
        .build()
        .unwrap();

    let handle = engine.stream(mutations).unwrap();
    // While the session is active, exclusive operations are refused with
    // EngineBusy. The session may already have finished on a fast machine,
    // in which case the probe succeeds — tolerate that, but never any other
    // error. generate_walks is used as the probe because it has no side
    // effects on the store, keeping the epoch arithmetic below exact.
    match engine.generate_walks() {
        Ok(_) | Err(UniNetError::EngineBusy { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
    // ...while queries always answer from the store, busy or not.
    let _ = engine.top_k(0, 3);

    let outcome = handle.join().unwrap();
    assert!(outcome.report.batches > 0);
    assert!(
        outcome.epoch >= 2,
        "initial + at least one per-pass snapshot"
    );
    assert_eq!(outcome.result.embeddings.num_nodes(), n);
    assert_eq!(engine.snapshot().epoch(), outcome.epoch);

    // The core is back: batch training works again on the post-stream graph.
    let report = engine.train().unwrap();
    assert_eq!(report.epoch, outcome.epoch + 1);
}

#[test]
fn concurrent_queries_during_streaming_see_monotone_epochs() {
    let graph = test_graph();
    let mutations = mixed_stream(&graph, 400, 9);
    let engine = Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(2)
        .walk_length(10)
        .dim(24)
        .epochs(1)
        .threads(2)
        .sampler(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random))
        .streaming(StreamingConfig {
            batch_size: 32,
            compaction_threshold: 64,
            incremental_train: true,
            ..Default::default()
        })
        .build()
        .unwrap();

    let handle = engine.stream(mutations).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|i| {
            let store = handle.store();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(100 + i);
                let mut last_epoch = 0u64;
                let mut queries = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} -> {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    if snap.num_nodes() > 0 {
                        let node = rng.gen_range(0..snap.num_nodes() as u32);
                        let top = snap.top_k(node, 5);
                        assert!(top.len() <= 5);
                        for pair in top.windows(2) {
                            assert!(pair[0].1 >= pair[1].1, "top_k not sorted");
                        }
                    }
                    queries += 1;
                }
                (queries, last_epoch)
            })
        })
        .collect();

    let outcome = handle.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let final_epoch = outcome.epoch;
    for reader in readers {
        let (queries, last_epoch) = reader.join().expect("reader panicked");
        assert!(queries > 0, "reader made no queries");
        assert!(last_epoch <= final_epoch);
    }
    assert!(
        outcome.report.snapshots_published >= 2,
        "incremental streaming should publish the initial model and at least \
         one refresh-round snapshot"
    );
    assert_eq!(final_epoch, outcome.report.snapshots_published as u64);
}

#[test]
fn ann_queries_during_streaming_see_monotone_epochs() {
    let graph = test_graph();
    let mutations = mixed_stream(&graph, 400, 13);
    let engine = Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(2)
        .walk_length(10)
        .dim(24)
        .epochs(1)
        .threads(2)
        .sampler(EdgeSamplerKind::MetropolisHastings(InitStrategy::Random))
        .streaming(StreamingConfig {
            batch_size: 32,
            compaction_threshold: 64,
            incremental_train: true,
            ann_index: true,
            ..Default::default()
        })
        .build()
        .unwrap();

    let handle = engine.stream(mutations).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|i| {
            let store = handle.store();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(500 + i);
                let mut last_epoch = 0u64;
                let mut ann_answers = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} -> {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    if snap.num_nodes() > 0 {
                        // Every published snapshot carries an index: built
                        // for its own epoch, or — under backlog — kept from
                        // at most `queue_capacity` (default 8) batches back.
                        // Either way the ANN path serves the query.
                        assert!(snap.ann().is_some(), "snapshot without HNSW index");
                        assert!(
                            snap.epoch() - snap.index_epoch() <= 8,
                            "index {} epochs behind",
                            snap.epoch() - snap.index_epoch()
                        );
                        let node = rng.gen_range(0..snap.num_nodes() as u32);
                        let top = snap.top_k_mode(node, 5, QueryMode::Ann);
                        assert!(top.len() <= 5);
                        for pair in top.windows(2) {
                            assert!(pair[0].1 >= pair[1].1, "ann top_k not sorted");
                        }
                        ann_answers += 1;
                    }
                }
                (ann_answers, last_epoch)
            })
        })
        .collect();

    let outcome = handle.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let (ann_answers, last_epoch) = reader.join().expect("reader panicked");
        assert!(ann_answers > 0, "reader served no ANN queries");
        assert!(last_epoch <= outcome.epoch);
    }
    assert!(outcome.report.snapshots_published >= 2);
    assert!(engine.snapshot().ann().is_some());
    assert_eq!(engine.snapshot().index_epoch(), outcome.epoch);
}

#[test]
fn cloned_engines_share_state_and_store() {
    let engine = small_engine(test_graph());
    let clone = engine.clone();
    engine.train().unwrap();
    // The clone sees the snapshot the original published.
    assert_eq!(clone.snapshot().epoch(), 1);
    assert_eq!(clone.num_nodes(), engine.num_nodes());

    // Busy state is shared too: a stream started through the clone blocks
    // exclusive operations on the original.
    let mutations = mixed_stream(&test_graph(), 200, 41);
    let handle = clone.stream(mutations).unwrap();
    match engine.train() {
        Ok(_) => {} // session may already have finished on a fast machine
        Err(UniNetError::EngineBusy { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
    handle.join().unwrap();
}

#[test]
fn stream_blocking_runs_full_retrain_sessions() {
    let graph = test_graph();
    let n = graph.num_nodes();
    let mutations = mixed_stream(&graph, 120, 31);
    let engine = small_engine(graph);
    let outcome = engine.stream_blocking(mutations).unwrap();
    // Full retrain publishes exactly one snapshot, at end-of-stream.
    assert_eq!(outcome.report.snapshots_published, 1);
    assert_eq!(outcome.epoch, 1);
    assert_eq!(engine.snapshot().num_nodes(), n);
    assert!(outcome.report.update_throughput > 0.0);
}
