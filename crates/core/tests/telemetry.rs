//! End-to-end checks of the engine telemetry plane: one engine, one batch
//! train, one streaming session and some queries must light up instruments in
//! all three planes (`ingest.*`, `engine.*`, `query.*`) of
//! [`Engine::metrics`], and the JSON rendering must carry the same sections.

use uninet_core::{Engine, GraphMutation, ModelSpec, QueryMode, StreamingConfig};
use uninet_graph::generators::{rmat, RmatConfig};

fn engine() -> Engine {
    let graph = rmat(&RmatConfig {
        num_nodes: 300,
        num_edges: 1_500,
        weighted: true,
        seed: 9,
        ..Default::default()
    });
    Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(2)
        .walk_length(10)
        .dim(16)
        .threads(2)
        .streaming(StreamingConfig {
            batch_size: 64,
            incremental_train: true,
            ..Default::default()
        })
        .build()
        .expect("valid configuration")
}

fn mutations(n: usize) -> Vec<GraphMutation> {
    (0..n)
        .map(|i| GraphMutation::UpdateWeight {
            src: (i % 300) as u32,
            dst: ((i * 7 + 1) % 300) as u32,
            weight: 1.0 + (i % 3) as f32,
        })
        .collect()
}

#[test]
fn metrics_cover_all_three_planes_after_train_stream_query() {
    let engine = engine();

    // Engine plane: one batch train = one recorded round + one publish.
    engine.train().expect("engine is idle");
    let snap = engine.metrics();
    assert_eq!(
        snap.histogram("engine.train.round_ns").map(|h| h.count()),
        Some(1)
    );
    assert_eq!(
        snap.histogram("engine.publish.total_ns").map(|h| h.count()),
        Some(1)
    );
    assert_eq!(snap.gauge("engine.epoch"), Some(1));
    assert!(snap.gauge("engine.epoch_age_ms").is_some());

    // Query plane: the facade's top_k falls back to the exact scan (no ANN
    // index configured), so the fallback counter moves with the histogram.
    for node in 0..10u32 {
        let _ = engine.top_k_mode(node, 5, QueryMode::Exact);
    }
    let _ = engine.top_k(0, 5); // ANN mode without an index: exact fallback
    let snap = engine.metrics();
    assert_eq!(
        snap.histogram("query.top_k.exact_ns").map(|h| h.count()),
        Some(10)
    );
    assert_eq!(
        snap.histogram("query.top_k.ann_ns").map(|h| h.count()),
        Some(1)
    );
    assert_eq!(snap.counter("query.ann_fallbacks"), Some(1));

    // Ingest plane: a streaming session drives the queue, apply, sampler
    // maintenance and walk refresh instruments.
    engine
        .stream_blocking(mutations(256))
        .expect("engine is idle");
    let snap = engine.metrics();
    assert!(snap.counter("ingest.queue.enqueued").unwrap_or(0) > 0);
    assert!(snap.histogram("ingest.apply.batch_ns").unwrap().count() > 0);
    assert!(
        snap.histogram("ingest.maintain.sampler_ns")
            .unwrap()
            .count()
            > 0
    );
    assert!(snap.histogram("ingest.refresh.round_ns").unwrap().count() > 0);
    assert!(
        snap.histogram("engine.train.incremental_pass_ns")
            .unwrap()
            .count()
            > 0,
        "incremental_train sessions must record SGD pass latency"
    );
    // The queue fully drains by end of session.
    assert_eq!(snap.gauge("ingest.queue.depth"), Some(0));

    // The JSON rendering nests the same planes as top-level sections.
    let json = snap.to_json();
    for section in ["\"ingest\"", "\"engine\"", "\"query\""] {
        assert!(json.contains(section), "missing {section} in {json}");
    }
}

#[test]
fn metrics_registry_is_shared_and_live() {
    let engine = engine();
    engine.train().expect("engine is idle");
    // A reader holding the registry sees updates without going through the
    // facade — the handles are the same atomics the hot paths write.
    let registry = engine.metrics_registry();
    let before = registry
        .snapshot()
        .histogram("query.top_k.exact_ns")
        .unwrap()
        .count();
    let _ = engine.top_k_mode(1, 3, QueryMode::Exact);
    let after = registry
        .snapshot()
        .histogram("query.top_k.exact_ns")
        .unwrap()
        .count();
    assert_eq!(after, before + 1);
}
