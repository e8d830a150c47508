//! The multi-threaded word2vec training driver.
//!
//! Walks are sharded across threads; every thread runs the skip-gram or CBOW
//! window kernel ([`skipgram::WindowScratch`]) against the shared
//! [`EmbeddingMatrix`] (Hogwild). The learning rate decays linearly with
//! training progress, as in word2vec.c.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::matrix::EmbeddingMatrix;
use crate::negative::UnigramTable;
use crate::sigmoid::SigmoidTable;
use crate::skipgram::WindowScratch;
use crate::vocab::Vocabulary;
use crate::{cbow, skipgram, Embeddings};

/// Which word2vec objective to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingMode {
    /// Skip-gram with negative sampling (the default for all five NRL models).
    SkipGram,
    /// Continuous bag-of-words with negative sampling.
    Cbow,
}

/// Word2vec hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct Word2VecConfig {
    /// Embedding dimensionality (paper experiments use 128).
    pub dim: usize,
    /// Context window size (default 10, as in DeepWalk/node2vec).
    pub window: usize,
    /// Number of negative samples per positive pair.
    pub negative: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1e-4 of itself).
    pub initial_alpha: f32,
    /// Sub-sampling threshold for frequent nodes (0 disables sub-sampling).
    pub subsample: f64,
    /// Number of training threads.
    pub num_threads: usize,
    /// Training objective.
    pub mode: TrainingMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Word2VecConfig {
            dim: 128,
            window: 10,
            negative: 5,
            epochs: 1,
            initial_alpha: 0.025,
            subsample: 0.0,
            num_threads: 16,
            mode: TrainingMode::SkipGram,
            seed: 42,
        }
    }
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainStats {
    /// Walk tokens trained (after sub-sampling), over all epochs. Every token
    /// is the center of one window.
    pub tokens_processed: u64,
    /// (context, center) pairs inside those windows, over all epochs: one
    /// SGNS update each in skip-gram, one averaged input row each in CBOW.
    pub pairs_processed: u64,
    /// Mean negative log-likelihood per window in the final epoch — a
    /// *sampled* monitoring estimate: skip-gram scores one (context, center)
    /// pair per window, not all of them, so the logarithms stay off the hot
    /// path. Comparable between runs of one mode, not between modes.
    pub final_loss: f64,
}

/// The training driver.
#[derive(Debug, Clone, Copy)]
pub struct Word2VecTrainer {
    config: Word2VecConfig,
}

impl Word2VecTrainer {
    /// Creates a trainer.
    pub fn new(config: Word2VecConfig) -> Self {
        assert!(config.dim > 0 && config.window > 0 && config.epochs > 0);
        Word2VecTrainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Word2VecConfig {
        &self.config
    }

    /// Trains embeddings for `num_nodes` nodes from the walk corpus.
    ///
    /// `walks` is any slice of node sequences (the output of the walk engine).
    /// One-shot form of [`Word2VecTrainer::train_online`]: identical setup and
    /// SGD schedule, with the session state discarded.
    pub fn train(&self, walks: &[Vec<u32>], num_nodes: usize) -> (Embeddings, TrainStats) {
        let (session, stats) = self.train_online(walks, num_nodes);
        (session.embeddings(), stats)
    }
}

/// Learning-rate schedule of one [`run_sgd_pass`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum AlphaSchedule {
    /// word2vec.c behaviour: linear decay with global token progress.
    LinearDecay,
    /// A fixed learning rate (incremental fine-tuning passes).
    Constant(f32),
}

/// The multi-threaded Hogwild SGD loop shared by the batch trainer and the
/// incremental/online trainer: `epochs` passes of `cfg.mode` updates over
/// `walks` against the shared `input`/`output` matrices.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sgd_pass(
    cfg: &Word2VecConfig,
    walks: &[Vec<u32>],
    vocab: &Vocabulary,
    table: &UnigramTable,
    sigmoid: &SigmoidTable,
    input: &EmbeddingMatrix,
    output: &EmbeddingMatrix,
    epochs: usize,
    schedule: AlphaSchedule,
) -> TrainStats {
    let total_tokens = vocab.total_tokens().max(1) * epochs.max(1) as u64;
    let progress = AtomicU64::new(0);

    let num_threads = cfg.num_threads.max(1).min(walks.len().max(1));
    let chunk = walks.len().div_ceil(num_threads.max(1)).max(1);
    let train_walk = match cfg.mode {
        TrainingMode::SkipGram => skipgram::train_walk,
        TrainingMode::Cbow => cbow::train_walk,
    };

    let (tokens, pairs, final_loss, final_tokens) = crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = walks
            .chunks(chunk)
            .enumerate()
            .map(|(tid, shard)| {
                let progress = &progress;
                scope.spawn(move |_| {
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed ^ (tid as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
                    );
                    // Everything a thread allocates, it allocates here.
                    let mut scratch = WindowScratch::new(cfg.dim, cfg.negative);
                    let longest = shard.iter().map(Vec::len).max().unwrap_or(0);
                    let mut sentence: Vec<u32> = Vec::with_capacity(longest);
                    let (mut tokens, mut pairs) = (0u64, 0u64);
                    let (mut final_loss, mut final_tokens) = (0.0f64, 0u64);
                    for epoch in 0..epochs {
                        for walk in shard {
                            // Sub-sample frequent nodes.
                            sentence.clear();
                            for &v in walk {
                                if cfg.subsample > 0.0 {
                                    let keep = vocab.keep_probability(v, cfg.subsample);
                                    if rng.gen::<f64>() > keep {
                                        continue;
                                    }
                                }
                                sentence.push(v);
                            }
                            if sentence.len() < 2 {
                                progress.fetch_add(walk.len() as u64, Ordering::Relaxed);
                                continue;
                            }
                            let alpha = match schedule {
                                AlphaSchedule::Constant(a) => a,
                                AlphaSchedule::LinearDecay => {
                                    // Linear decay based on global progress.
                                    let done = progress.load(Ordering::Relaxed) as f64;
                                    let frac = (done / total_tokens as f64).min(1.0);
                                    (cfg.initial_alpha as f64 * (1.0 - frac))
                                        .max(cfg.initial_alpha as f64 * 1e-4)
                                        as f32
                                }
                            };
                            let (walk_pairs, loss) = train_walk(
                                input,
                                output,
                                &sentence,
                                cfg.window,
                                alpha,
                                sigmoid,
                                table,
                                &mut scratch,
                                &mut rng,
                            );
                            tokens += sentence.len() as u64;
                            pairs += walk_pairs;
                            if epoch + 1 == epochs {
                                // Every token of a sentence of two or more
                                // has a non-empty window: one loss sample.
                                final_loss += loss as f64;
                                final_tokens += sentence.len() as u64;
                            }
                            progress.fetch_add(walk.len() as u64, Ordering::Relaxed);
                        }
                    }
                    (tokens, pairs, final_loss, final_tokens)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("training thread panicked"))
            .fold((0u64, 0u64, 0.0f64, 0u64), |a, b| {
                (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
            })
    })
    .expect("training scope panicked");

    TrainStats {
        tokens_processed: tokens,
        pairs_processed: pairs,
        final_loss: if final_tokens == 0 {
            0.0
        } else {
            final_loss / final_tokens as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks over two disjoint cliques: {0..4} and {5..9}.
    fn two_cluster_walks() -> Vec<Vec<u32>> {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut walks = Vec::new();
        for _ in 0..120 {
            for cluster in 0..2u32 {
                let base = cluster * 5;
                let walk: Vec<u32> = (0..20).map(|_| base + rng.gen_range(0u32..5)).collect();
                walks.push(walk);
            }
        }
        walks
    }

    fn intra_vs_inter(emb: &Embeddings) -> (f32, f32) {
        let mut intra = 0.0;
        let mut intra_n = 0;
        let mut inter = 0.0;
        let mut inter_n = 0;
        for a in 0..10u32 {
            for b in (a + 1)..10u32 {
                let s = emb.cosine_similarity(a, b);
                if (a < 5) == (b < 5) {
                    intra += s;
                    intra_n += 1;
                } else {
                    inter += s;
                    inter_n += 1;
                }
            }
        }
        (intra / intra_n as f32, inter / inter_n as f32)
    }

    #[test]
    fn skipgram_separates_clusters() {
        let cfg = Word2VecConfig {
            dim: 16,
            window: 4,
            negative: 4,
            epochs: 3,
            num_threads: 2,
            ..Default::default()
        };
        let (emb, stats) = Word2VecTrainer::new(cfg).train(&two_cluster_walks(), 10);
        assert_eq!(emb.num_nodes(), 10);
        assert_eq!(emb.dim(), 16);
        assert!(stats.pairs_processed > 0);
        let (intra, inter) = intra_vs_inter(&emb);
        assert!(intra > inter + 0.2, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn cbow_separates_clusters() {
        let cfg = Word2VecConfig {
            dim: 16,
            window: 4,
            negative: 4,
            epochs: 3,
            num_threads: 2,
            mode: TrainingMode::Cbow,
            ..Default::default()
        };
        let (emb, _) = Word2VecTrainer::new(cfg).train(&two_cluster_walks(), 10);
        let (intra, inter) = intra_vs_inter(&emb);
        assert!(intra > inter + 0.15, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn subsampling_and_single_thread_work() {
        let cfg = Word2VecConfig {
            dim: 8,
            window: 2,
            negative: 2,
            epochs: 1,
            num_threads: 1,
            subsample: 1e-2,
            ..Default::default()
        };
        let (emb, stats) = Word2VecTrainer::new(cfg).train(&two_cluster_walks(), 10);
        assert_eq!(emb.num_nodes(), 10);
        assert!(stats.final_loss >= 0.0);
    }

    #[test]
    fn empty_corpus_yields_initial_embeddings() {
        let cfg = Word2VecConfig {
            dim: 4,
            num_threads: 2,
            ..Default::default()
        };
        let (emb, stats) = Word2VecTrainer::new(cfg).train(&[], 5);
        assert_eq!(emb.num_nodes(), 5);
        assert_eq!(stats.pairs_processed, 0);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let cfg = Word2VecConfig {
            dim: 0,
            ..Default::default()
        };
        let _ = Word2VecTrainer::new(cfg);
    }
}
