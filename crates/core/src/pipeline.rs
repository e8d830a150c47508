//! The batch pipeline internals: random-walk generation followed by word2vec
//! training, with the per-phase timing of Table VI.
//!
//! These free functions are the engine-room of [`crate::Engine`]; they assume
//! the model spec was validated up front (the [`crate::EngineBuilder`] does
//! this at build time) and therefore take an already-instantiated
//! [`RandomWalkModel`].

use std::time::Instant;

use uninet_embedding::{Embeddings, TrainStats, Word2VecTrainer};
use uninet_graph::Graph;
use uninet_metrics::PhaseTiming;
use uninet_walker::{RandomWalkModel, WalkCorpus, WalkEngine};

use crate::config::UniNetConfig;

/// Everything produced by one batch pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The learned node embeddings.
    pub embeddings: Embeddings,
    /// The generated walk corpus (kept for inspection / reuse).
    pub corpus: WalkCorpus,
    /// Wall-clock breakdown (`Ti`, `Tw`, `Tl`).
    pub timing: PhaseTiming,
    /// Word2vec training statistics.
    pub train_stats: TrainStats,
}

/// Runs walk generation only and returns the corpus plus (`Ti`, `Tw`).
pub(crate) fn generate_walks(
    config: &UniNetConfig,
    graph: &Graph,
    model: &dyn RandomWalkModel,
) -> (WalkCorpus, PhaseTiming) {
    let engine = WalkEngine::new(config.walk);
    let (corpus, timing) = engine.generate(graph, model);
    (
        corpus,
        PhaseTiming {
            init: timing.init,
            walk: timing.walk,
            ..Default::default()
        },
    )
}

/// Runs the full batch pipeline (walks + embedding learning).
pub(crate) fn run_batch(
    config: &UniNetConfig,
    graph: &Graph,
    model: &dyn RandomWalkModel,
) -> PipelineResult {
    let (corpus, mut timing) = generate_walks(config, graph, model);
    let t = Instant::now();
    let trainer = Word2VecTrainer::new(config.embedding);
    let (embeddings, train_stats) = trainer.train(corpus.walks(), graph.num_nodes());
    timing.learn = t.elapsed();
    PipelineResult {
        embeddings,
        corpus,
        timing,
        train_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelSpec, UniNetConfig};
    use uninet_graph::generators::{heterogenize, planted_partition, PlantedPartitionConfig};

    fn labeled_graph() -> uninet_graph::generators::LabeledGraph {
        planted_partition(&PlantedPartitionConfig {
            num_nodes: 300,
            num_communities: 3,
            intra_degree: 14.0,
            inter_degree: 1.0,
            multi_label_prob: 0.0,
            seed: 11,
        })
    }

    #[test]
    fn run_batch_produces_embeddings() {
        let lg = labeled_graph();
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 2;
        cfg.walk.walk_length = 15;
        cfg.embedding.epochs = 1;
        let model = ModelSpec::DeepWalk.instantiate(&lg.graph).unwrap();
        let result = run_batch(&cfg, &lg.graph, model.as_ref());
        assert_eq!(result.embeddings.num_nodes(), lg.graph.num_nodes());
        assert!(result.corpus.num_walks() > 0);
        assert!(result.timing.total().as_nanos() > 0);
        assert!(result.train_stats.pairs_processed > 0);
    }

    #[test]
    fn all_models_train_end_to_end() {
        // Full walks + word2vec pass for all five models, not just walk
        // generation — training-path regressions in any model must fail here.
        let lg = labeled_graph();
        let g = heterogenize(&lg.graph, 3, 2, 5);
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 1;
        cfg.walk.walk_length = 10;
        cfg.embedding.epochs = 1;
        cfg.embedding.dim = 16;
        for spec in ModelSpec::paper_benchmark_suite() {
            let model = spec.instantiate(&g).unwrap();
            let result = run_batch(&cfg, &g, model.as_ref());
            assert_eq!(
                result.embeddings.num_nodes(),
                g.num_nodes(),
                "{}",
                spec.name()
            );
            assert!(result.train_stats.pairs_processed > 0, "{}", spec.name());
        }
    }

    #[test]
    fn embeddings_capture_community_structure() {
        // Nodes in the same planted community should be more similar than
        // nodes in different communities — the property Figure 5 relies on.
        let lg = labeled_graph();
        let mut cfg = UniNetConfig::small();
        cfg.walk.num_walks = 6;
        cfg.walk.walk_length = 40;
        cfg.embedding.dim = 48;
        cfg.embedding.epochs = 3;
        cfg.embedding.window = 5;
        let model = ModelSpec::Node2Vec { p: 1.0, q: 1.0 }
            .instantiate(&lg.graph)
            .unwrap();
        let result = run_batch(&cfg, &lg.graph, model.as_ref());
        let emb = &result.embeddings;
        let mut intra = 0.0f64;
        let mut inter = 0.0f64;
        let mut intra_n = 0u32;
        let mut inter_n = 0u32;
        for a in (0..300u32).step_by(7) {
            for b in (1..300u32).step_by(11) {
                if a == b {
                    continue;
                }
                let s = emb.cosine_similarity(a, b) as f64;
                if lg.primary_label(a) == lg.primary_label(b) {
                    intra += s;
                    intra_n += 1;
                } else {
                    inter += s;
                    inter_n += 1;
                }
            }
        }
        let intra = intra / intra_n as f64;
        let inter = inter / inter_n as f64;
        assert!(intra > inter + 0.05, "intra {intra} vs inter {inter}");
    }
}
