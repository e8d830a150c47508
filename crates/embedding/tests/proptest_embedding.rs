//! Property-based tests of the embedding layer: matrix algebra invariants,
//! vocabulary bookkeeping, sigmoid-table accuracy over arbitrary inputs, and
//! the HNSW graph importer under hostile bytes.

use proptest::prelude::*;

use uninet_embedding::{
    AnnConfig, EmbeddingMatrix, EmbeddingStore, Embeddings, GraphImportError, HnswIndex, QueryMode,
    SigmoidTable, UnigramTable, Vocabulary,
};

/// `n` deterministic pseudo-random rows and a live mask retiring every
/// `retire_every`-th id (0 = nobody).
fn rows_and_mask(n: usize, dim: usize, seed: u64, retire_every: usize) -> (Embeddings, Vec<bool>) {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let flat = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let live = (0..n)
        .map(|v| retire_every == 0 || v % retire_every != 0)
        .collect();
    (Embeddings::from_flat(dim, flat), live)
}

/// Whatever the importer accepted must be safe to serve: every query
/// returns, names rows that exist, and — when the graph holds exactly the
/// live ids, the condition recovery installs it under — never a retired one.
fn check_servable(
    index: &HnswIndex,
    live: &[bool],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let exact = index.covers_universe(Some(live));
    for node in 0..index.num_nodes() as u32 {
        for (u, score) in index.search_node(node, 8) {
            prop_assert!((u as usize) < index.num_nodes());
            prop_assert!(!score.is_nan());
            prop_assert!(
                !exact || live[u as usize],
                "retired id {} surfaced from top_k({})",
                u,
                node
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn vocabulary_totals_match_corpus(walks in prop::collection::vec(
        prop::collection::vec(0u32..30, 1..40), 1..30)) {
        let refs: Vec<&[u32]> = walks.iter().map(|w| w.as_slice()).collect();
        let vocab = Vocabulary::from_walks(30, refs.iter().copied());
        let expected_total: u64 = walks.iter().map(|w| w.len() as u64).sum();
        prop_assert_eq!(vocab.total_tokens(), expected_total);
        let count_sum: u64 = (0..30u32).map(|v| vocab.count(v)).sum();
        prop_assert_eq!(count_sum, expected_total);
        for v in 0..30u32 {
            let f = vocab.frequency(v);
            prop_assert!((0.0..=1.0).contains(&f));
            let keep = vocab.keep_probability(v, 1e-3);
            prop_assert!(keep > 0.0 && keep <= 1.0);
        }
    }

    #[test]
    fn unigram_table_only_emits_positive_count_nodes(counts in prop::collection::vec(0u64..50, 2..20), seed in 0u64..100) {
        prop_assume!(counts.iter().any(|&c| c > 0));
        let vocab = Vocabulary::from_counts(counts.clone());
        let table = UnigramTable::with_params(&vocab, 10_000, 0.75);
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..2000 {
            let s = table.sample(&mut rng) as usize;
            prop_assert!(s < counts.len());
            prop_assert!(counts[s] > 0, "sampled node {s} with zero count");
        }
    }

    #[test]
    fn sigmoid_table_is_accurate_and_bounded(x in -20.0f32..20.0) {
        let table = SigmoidTable::default();
        let s = table.sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&s));
        let exact = 1.0 / (1.0 + (-x).exp());
        prop_assert!((s - exact).abs() < 0.02, "x={x}: {s} vs {exact}");
    }

    #[test]
    fn matrix_row_ops_are_consistent(
        rows in 1usize..10,
        dim in 1usize..32,
        row_values in prop::collection::vec(-2.0f32..2.0, 1..32),
        seed in 0u64..100,
    ) {
        let dim = dim.min(row_values.len());
        let values = &row_values[..dim];
        let m = EmbeddingMatrix::uniform(rows, dim, seed);
        let target = rows - 1;
        let mut before = vec![0.0f32; dim];
        m.read_row(target, &mut before);
        m.add_row(target, values);
        let mut after = vec![0.0f32; dim];
        m.read_row(target, &mut after);
        for j in 0..dim {
            prop_assert!((after[j] - before[j] - values[j]).abs() < 1e-5);
        }
    }

    #[test]
    fn ann_top_k_recall_beats_point_nine(
        n in 64usize..280,
        dim in 4usize..24,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};

        // Random unit vectors — the adversarial (structure-free) case for a
        // proximity-graph index.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut flat = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            flat.extend(row.iter().map(|x| x / norm));
        }
        let emb = Embeddings::from_flat(dim, flat);
        let index = HnswIndex::build(&emb, &AnnConfig { seed, ..Default::default() });

        let k = 10usize;
        let mut hits = 0usize;
        let mut total = 0usize;
        for node in (0..n as u32).step_by((n / 16).max(1)) {
            let approx = index.search_node(node, k);
            let exact = emb.most_similar(node, k);
            prop_assert_eq!(approx.len(), exact.len(), "node {}", node);
            let exact_ids: Vec<u32> = exact.iter().map(|&(u, _)| u).collect();
            hits += approx.iter().filter(|&&(u, _)| exact_ids.contains(&u)).count();
            total += exact.len();
        }
        let recall = hits as f64 / total.max(1) as f64;
        prop_assert!(recall >= 0.9, "recall@10 = {} (n={}, dim={})", recall, n, dim);
    }

    #[test]
    fn graph_import_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        with_header in any::<bool>(),
    ) {
        let cfg = AnnConfig { m: 4, ef_construction: 8, ..Default::default() };
        let (emb, live) = rows_and_mask(24, 4, 1, 0);
        // Half the cases get past the header checks and into the node lists.
        let mut input = Vec::new();
        if with_header {
            let good = HnswIndex::build(&emb, &cfg).export_graph();
            input.extend_from_slice(&good[..36]);
        }
        input.extend_from_slice(&bytes);
        if let Ok(index) = HnswIndex::import_graph(&input, &emb, &cfg) {
            check_servable(&index, &live)?;
        }
    }

    #[test]
    fn mutated_graphs_are_refused_or_safe_to_serve(
        n in 2usize..60,
        seed in 0u64..500,
        retire_every in 0usize..5,
        flips in prop::collection::vec((0u32..1_000_000, any::<u8>()), 1..4),
        cut in 0u32..1_000_000,
        truncate in any::<bool>(),
    ) {
        let cfg = AnnConfig { m: 4, ef_construction: 8, seed, ..Default::default() };
        let (emb, live) = rows_and_mask(n, 4, seed, retire_every);
        let clean = HnswIndex::build_masked(&emb, &cfg, Some(&live)).export_graph();
        let back = HnswIndex::import_graph(&clean, &emb, &cfg);
        prop_assert!(back.is_ok(), "{:?}", back.err());
        let back = back.unwrap();
        prop_assert!(back.covers_universe(Some(&live)));
        check_servable(&back, &live)?;

        let mut bytes = clean.clone();
        for &(at, xor) in &flips {
            let at = at as usize % bytes.len();
            bytes[at] ^= xor;
        }
        if truncate {
            bytes.truncate(cut as usize % (bytes.len() + 1));
        }
        match HnswIndex::import_graph(&bytes, &emb, &cfg) {
            // Accepted: the damage was a no-op, or stayed within what the
            // validation proves harmless (a link moved to another node
            // indexed on that layer).
            Ok(index) => check_servable(&index, &live)?,
            Err(GraphImportError::Corrupt { offset, .. }) => {
                prop_assert!(offset <= bytes.len());
            }
            // Only damage to the header's parameters can read as a graph
            // built for another index.
            Err(GraphImportError::Mismatch { .. }) => {
                prop_assert!(flips.iter().any(|&(at, _)| (at as usize % clean.len()) < 28));
            }
        }
    }

    #[test]
    fn builds_are_the_same_graph_on_any_thread_count(
        // Graphs smaller than the thread count come up in every other case.
        n in prop_oneof![0usize..5, 5usize..300],
        seed in 0u64..500,
        retire_every in 0usize..5,
        all_dead in any::<bool>(),
        drifted in 0usize..300,
    ) {
        let (emb, mut live) = rows_and_mask(n, 4, seed, retire_every);
        if all_dead {
            live.fill(false);
        }
        // The next epoch: the first `drifted` rows move, every id is live.
        let (moved, _) = rows_and_mask(n, 4, seed + 1, 0);
        let cut = 4 * drifted.min(n);
        let next = Embeddings::from_flat(
            4,
            [&moved.as_flat()[..cut], &emb.as_flat()[cut..]].concat(),
        );
        let build = |threads: usize| {
            let cfg = AnnConfig { m: 4, ef_construction: 8, seed, threads, ..Default::default() };
            let masked = HnswIndex::build_masked(&emb, &cfg, Some(&live));
            let grafted = HnswIndex::graft(&next, &cfg, &masked, None);
            (cfg, masked, grafted)
        };
        let (cfg, masked, grafted) = build(1);
        let (_, masked4, grafted4) = build(4);
        prop_assert!(masked.export_graph() == masked4.export_graph());
        prop_assert!(grafted.export_graph() == grafted4.export_graph());
        for (index, rows, mask) in [(&masked, &emb, Some(&live[..])), (&grafted, &next, None)] {
            let bytes = index.export_graph();
            let back = HnswIndex::import_graph(&bytes, rows, &cfg);
            prop_assert!(back.is_ok(), "{:?}", back.err());
            let back = back.unwrap();
            prop_assert!(back.covers_universe(mask));
            prop_assert!(back.export_graph() == bytes);
        }
    }

    #[test]
    fn a_lagging_index_serves_only_this_epochs_universe_and_scores(
        n in 2usize..120,
        arrivals in 0usize..12,
        seed in 0u64..500,
        retired_before in 0usize..4,
        retired_now in 0usize..5,
        k in 1usize..12,
    ) {
        let cfg = AnnConfig { m: 4, ef_construction: 16, seed, ..Default::default() };
        let store = EmbeddingStore::with_ann(cfg);
        let (emb, before) = rows_and_mask(n, 4, seed, retired_before);
        store.publish_with_universe(emb, Some(before.clone()));
        // The next epoch moves every row, adds arrivals, and retires (and
        // rejoins) ids under another pattern; it keeps the first index.
        let (next, live) = rows_and_mask(n + arrivals, 4, seed + 1, retired_now);
        store.publish_keeping_index(next, Some(live.clone()));
        let snap = store.snapshot();
        prop_assert!(snap.ann().is_some());
        prop_assert!(snap.index_epoch() < snap.epoch());
        let live_count = live.iter().filter(|&&l| l).count();
        for q in 0..(n + arrivals) as u32 {
            let hits = snap.top_k_mode(q, k, QueryMode::Ann);
            if !live[q as usize] {
                prop_assert!(hits.is_empty());
                continue;
            }
            prop_assert_eq!(hits.len(), k.min(live_count - 1), "query {}", q);
            for pair in hits.windows(2) {
                prop_assert!(pair[0].1 >= pair[1].1, "query {} unsorted", q);
            }
            for &(u, score) in &hits {
                prop_assert!(u != q && live[u as usize], "query {} served {}", q, u);
                prop_assert_eq!(score.to_bits(), snap.cosine(q, u).unwrap().to_bits());
            }
            // Arrivals and rejoins are not in the old index: exact answers.
            if q as usize >= n || !before[q as usize] {
                prop_assert_eq!(hits, snap.top_k(q, k));
            }
        }
    }

    #[test]
    fn cosine_similarity_is_symmetric_and_bounded(
        vectors in prop::collection::vec(-3.0f32..3.0, 8..64),
    ) {
        let dim = 4;
        let n = vectors.len() / dim;
        prop_assume!(n >= 2);
        let emb = Embeddings::from_flat(dim, vectors[..n * dim].to_vec());
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let s_ab = emb.cosine_similarity(a, b);
                let s_ba = emb.cosine_similarity(b, a);
                prop_assert!((s_ab - s_ba).abs() < 1e-5);
                prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&s_ab));
            }
        }
    }
}
