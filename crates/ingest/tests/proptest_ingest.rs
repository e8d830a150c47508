//! Property-based tests of the sharded ingestion path.
//!
//! The tentpole property: applying an **arbitrary mutation sequence** through
//! the sharded parallel path (`ShardPlan::partition` + `ShardView` workers +
//! serial residual) yields a graph — merged view *and* compacted CSR — that
//! is identical to the existing sequential `IncrementalMaintainer` path,
//! along with identical report tallies and maintenance accounting.

use proptest::prelude::*;
use uninet_dyngraph::{
    DynamicGraph, GraphMutation, IncrementalMaintainer, MaintainerConfig, UpdateBatch,
};
use uninet_graph::{Graph, GraphBuilder};
use uninet_ingest::{
    run_durable_pipeline, IngestConfig, IngestMetrics, ShardPlan, ShardedMaintainer,
};
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

    /// Sharded parallel apply_batch == sequential apply_batch, for arbitrary
    /// mutation sequences, shard counts, batch splits and compaction policies.
    #[test]
    fn sharded_apply_is_graph_identical_to_sequential(
        edges in prop::collection::vec((0u32..N, 0u32..N, 0.5f32..4.0), 1..50),
        mutations in prop::collection::vec(arbitrary_mutation(), 0..80),
        shards in 2usize..6,
        batch_size in 1usize..40,
        compaction_threshold in prop_oneof![Just(4usize), Just(64), Just(1_000_000)],
        symmetric in any::<bool>(),
    ) {
        let g = base_graph(&edges);
        let model = DeepWalk::new();
        let kind = EdgeSamplerKind::MetropolisHastings(InitStrategy::Random);
        let cfg = MaintainerConfig { compaction_threshold };

        let mut dg_serial = DynamicGraph::new(g.clone(), symmetric);
        let mut mgr_serial = SamplerManager::new(dg_serial.base(), &model, kind, 0);
        let serial = IncrementalMaintainer::new(cfg);

        let mut dg_sharded = DynamicGraph::new(g, symmetric);
        let mut mgr_sharded = SamplerManager::new(dg_sharded.base(), &model, kind, 0);
        let sharded = ShardedMaintainer::new(cfg, shards, &IngestMetrics::detached());
        let plan = ShardPlan::new(N as usize, shards);

        for chunk in mutations.chunks(batch_size) {
            let batch = UpdateBatch::from_mutations(chunk.to_vec());
            let rs = serial.apply_batch(&mut dg_serial, &mut mgr_serial, &model, &batch);
            let rp = sharded.apply_batch(&mut dg_sharded, &mut mgr_sharded, &model, &batch, &plan);

            prop_assert_eq!(rs.weight_mutations, rp.weight_mutations);
            prop_assert_eq!(rs.topology_mutations, rp.topology_mutations);
            prop_assert_eq!(rs.rejected_mutations, rp.rejected_mutations);
            prop_assert_eq!(rs.weight_touched, rp.weight_touched);
            prop_assert_eq!(rs.compacted, rp.compacted);
            prop_assert_eq!(rs.topology_touched, rp.topology_touched);
            prop_assert_eq!(rs.maintenance, rp.maintenance);

            // Merged views agree batch-by-batch, not just at the end.
            prop_assert_eq!(dg_serial.pending(), dg_sharded.pending());
            prop_assert_eq!(dg_serial.version(), dg_sharded.version());
            prop_assert_eq!(dg_serial.rejected(), dg_sharded.rejected());
            for v in 0..N {
                prop_assert_eq!(dg_serial.neighbor_weights(v), dg_sharded.neighbor_weights(v));
            }
        }

        let fs = serial.flush(&mut dg_serial, &mut mgr_serial, &model);
        let fp = sharded.flush(&mut dg_sharded, &mut mgr_sharded, &model);
        prop_assert_eq!(fs.compacted, fp.compacted);
        prop_assert_eq!(fs.topology_touched, fp.topology_touched);

        assert_graphs_identical(dg_serial.base(), dg_sharded.base());
        prop_assert_eq!(mgr_serial.num_states(), mgr_sharded.num_states());
    }

    /// The full pipeline (reader thread + bounded queue + sharded apply) is
    /// graph-identical to the sequential batch loop.
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
                num_threads: 3,
                compaction_threshold: 16,
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
