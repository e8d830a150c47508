//! Property-based tests of the ingestion pipeline.
//!
//! The property: pushing an **arbitrary mutation sequence** through
//! `run_durable_pipeline` (reader thread, bounded queue, consumer-side
//! `IncrementalMaintainer`) yields the same compacted CSR as a plain
//! sequential batch loop over the same batches — the queue changes when a
//! batch is applied, never what it does.

use proptest::prelude::*;
use uninet_dyngraph::{DynamicGraph, GraphMutation, IncrementalMaintainer, MaintainerConfig};
use uninet_graph::{Graph, GraphBuilder};
use uninet_ingest::{run_durable_pipeline, IngestConfig, IngestMetrics};
use uninet_sampler::{EdgeSamplerKind, InitStrategy};
use uninet_walker::models::DeepWalk;
use uninet_walker::SamplerManager;

const N: u32 = 16;

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

fn arbitrary_mutation() -> impl Strategy<Value = GraphMutation> {
    (0usize..3, 0u32..N + 2, 0u32..N + 2, 0.1f32..8.0).prop_map(|(op, src, dst, w)| match op {
        0 => GraphMutation::AddEdge {
            src,
            dst,
            weight: w,
        },
        1 => GraphMutation::RemoveEdge { src, dst },
        _ => GraphMutation::UpdateWeight {
            src,
            dst,
            weight: w,
        },
    })
}

fn assert_graphs_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.num_edges(), b.num_edges());
    for v in 0..N {
        assert_eq!(a.neighbors(v), b.neighbors(v), "neighbors of {v}");
        assert_eq!(a.weights(v), b.weights(v), "weights of {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The full pipeline (reader thread + bounded queue + consumer-side
    /// apply) is graph-identical to the sequential batch loop.
    #[test]
    fn pipeline_is_graph_identical_to_sequential(
        edges in prop::collection::vec((0u32..N, 0u32..N, 0.5f32..4.0), 4..40),
        mutations in prop::collection::vec(arbitrary_mutation(), 1..60),
        queue_capacity in 1usize..5,
    ) {
        let g = base_graph(&edges);
        let model = DeepWalk::new();
        let kind = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        let cfg = MaintainerConfig { compaction_threshold: 16 };

        let mut dg_serial = DynamicGraph::new(g.clone(), true);
        let mut mgr_serial = SamplerManager::new(dg_serial.base(), &model, kind, 0);
        let serial = IncrementalMaintainer::new(cfg);
        for batch in uninet_dyngraph::into_batches(&mutations, 8) {
            serial.apply_batch(&mut dg_serial, &mut mgr_serial, &model, &batch);
        }
        serial.flush(&mut dg_serial, &mut mgr_serial, &model);

        let mut dg = DynamicGraph::new(g, true);
        let mut mgr = SamplerManager::new(dg.base(), &model, kind, 0);
        let report = run_durable_pipeline(
            &IngestConfig {
                batch_size: 8,
                queue_capacity,
                compaction_threshold: 16,
                ..IngestConfig::default()
            },
            &IngestMetrics::detached(),
            &mut dg,
            &mut mgr,
            &model,
            &mutations,
            None,
            |_, _, _, _| {},
        );
        prop_assert_eq!(report.batches, mutations.len().div_ceil(8));
        prop_assert_eq!(dg.pending(), 0);
        assert_graphs_identical(dg_serial.base(), dg.base());
    }
}
