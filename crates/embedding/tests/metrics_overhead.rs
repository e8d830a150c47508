//! Telemetry on the query path: the instrumented store must answer exactly
//! what the raw snapshot answers and record every query once — and stay
//! within a few percent of the raw snapshot query.
//!
//! The store path adds, on top of the query itself: one `RwLock` read to
//! acquire the snapshot, two monotonic clock reads, and one histogram record
//! (five relaxed atomic RMWs). Against an exact top-k scan over thousands of
//! nodes that is noise — the budget test pins it so a future accidental lock
//! or allocation on the hot path fails loudly. A 5% wall-clock budget cannot
//! be held in an unoptimized build on a shared box (it failed one debug run
//! in three), so that test is `#[ignore]`d out of tier-1 and CI runs it with
//! `cargo test --release -p uninet-embedding --test metrics_overhead -- --ignored`;
//! the structural half runs everywhere.

use std::time::Instant;

use uninet_embedding::telemetry::StoreTelemetry;
use uninet_embedding::{EmbeddingStore, Embeddings, QueryMode};
use uninet_metrics::MetricsRegistry;

const NODES: usize = 2_000;
const DIM: usize = 64;
const QUERIES: usize = 400;
const ROUNDS: usize = 3;

/// Deterministic non-degenerate vectors so top-k orders are stable.
fn test_embeddings() -> Embeddings {
    let flat: Vec<f32> = (0..NODES * DIM)
        .map(|i| {
            let (node, d) = (i / DIM, i % DIM);
            ((node * 31 + d * 7) % 97) as f32 / 97.0 - 0.5
        })
        .collect();
    Embeddings::from_flat(DIM, flat)
}

/// Median latency in nanoseconds of `QUERIES` exact top-k calls.
fn median_query_ns(mut query: impl FnMut(u32)) -> u64 {
    let mut laps: Vec<u64> = (0..QUERIES)
        .map(|i| {
            let node = ((i * 17) % NODES) as u32;
            let t = Instant::now();
            query(node);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    laps.sort_unstable();
    laps[laps.len() / 2]
}

fn instrumented_store() -> (MetricsRegistry, EmbeddingStore) {
    let registry = MetricsRegistry::new();
    let store = EmbeddingStore::new().instrumented(StoreTelemetry::registered(&registry));
    store.publish(test_embeddings());
    (registry, store)
}

fn recorded_exact_queries(registry: &MetricsRegistry) -> usize {
    registry
        .snapshot()
        .histogram("query.top_k.exact_ns")
        .expect("exact-path histogram is registered")
        .count() as usize
}

#[test]
fn instrumented_store_records_every_query_and_answers_the_same() {
    let (registry, store) = instrumented_store();
    let snapshot = store.snapshot();
    for i in 0..QUERIES {
        let node = ((i * 17) % NODES) as u32;
        let hits = store.top_k_mode(node, 10, QueryMode::Exact);
        assert_eq!(hits.len(), 10);
        assert_eq!(hits, snapshot.top_k(node, 10), "node {node}");
    }
    // Once per query, and only on its own path.
    assert_eq!(recorded_exact_queries(&registry), QUERIES);
    let ann = registry
        .snapshot()
        .histogram("query.top_k.ann_ns")
        .map_or(0, |h| h.count());
    assert_eq!(ann, 0, "exact queries must not count as ANN ones");
}

#[test]
#[ignore = "wall-clock budget: run with --release -- --ignored (the CI test job does)"]
fn instrumented_store_query_overhead_is_within_budget() {
    let (registry, store) = instrumented_store();
    let snapshot = store.snapshot();

    // Best-of-N medians: each round measures both variants back to back, so a
    // scheduler hiccup hurts whichever variant it lands on and the minimum
    // across rounds converges to the true cost of each path.
    let mut raw_best = u64::MAX;
    let mut instrumented_best = u64::MAX;
    for _ in 0..ROUNDS {
        raw_best = raw_best.min(median_query_ns(|node| {
            let hits = snapshot.top_k(node, 10);
            assert_eq!(hits.len(), 10);
        }));
        instrumented_best = instrumented_best.min(median_query_ns(|node| {
            let hits = store.top_k_mode(node, 10, QueryMode::Exact);
            assert_eq!(hits.len(), 10);
        }));
    }

    // The recording really happened — this is not comparing two raw paths.
    assert_eq!(recorded_exact_queries(&registry), QUERIES * ROUNDS);

    // 5% budget per the telemetry-plane contract, with a small absolute floor
    // so sub-microsecond jitter cannot fail the test on a tiny workload.
    let budget = raw_best + (raw_best / 20).max(2_000);
    assert!(
        instrumented_best <= budget,
        "instrumented median {instrumented_best} ns exceeds budget {budget} ns \
         (raw median {raw_best} ns)"
    );
}
