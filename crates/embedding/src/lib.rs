//! # uninet-embedding
//!
//! The embedding-learning half of the random-walk NRL pipeline:
//! `Embeddings = Word2Vec(Walks)`.
//!
//! This crate implements word2vec from scratch in the style of the original
//! `word2vec.c` used by DeepWalk/node2vec (and by UniNet's trainer module):
//!
//! * [`vocab::Vocabulary`] — token (node) frequencies over a walk corpus,
//! * [`sigmoid::SigmoidTable`] — the precomputed exp table,
//! * [`negative::UnigramTable`] — the `f^0.75` negative-sampling table,
//! * [`matrix::EmbeddingMatrix`] — lock-free shared parameter matrices
//!   (Hogwild-style SGD with relaxed atomics),
//! * [`skipgram`] — the skip-gram objective with negative sampling,
//! * [`trainer::Word2VecTrainer`] — the multi-threaded training driver with a
//!   linearly decaying learning rate.
//!
//! The output type [`Embeddings`] is consumed by `uninet-eval` for the node
//! classification experiments (Figure 5 of the paper).
//!
//! On top of training, the crate carries the **serving layer**: the
//! epoch-versioned [`store::EmbeddingStore`] (pointer-swap snapshots queried
//! lock-free by concurrent readers) and the [`ann`] module's HNSW index that
//! takes top-k queries out of the full-scan regime.
//!
//! ```
//! use uninet_embedding::{Embeddings, EmbeddingStore, QueryMode};
//!
//! // Train-side output: one dim-sized vector per node...
//! let emb = Embeddings::from_flat(2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0]);
//! assert_eq!(emb.num_nodes(), 3);
//!
//! // ...published into the serving store and queried concurrently.
//! let store = EmbeddingStore::new();
//! store.publish(emb);
//! let top = store.top_k_mode(0, 1, QueryMode::Exact);
//! assert_eq!(top[0].0, 1);
//! ```

pub mod ann;
pub mod io;
pub mod kernels;
pub mod matrix;
pub mod negative;
pub mod online;
pub(crate) mod quant;
pub mod sigmoid;
pub mod skipgram;
pub mod store;
pub mod telemetry;
pub mod trainer;
pub mod vocab;

pub use ann::{AnnConfig, GraphImportError, HnswIndex, IncrementalStats, QueryMode};
pub use kernels::KernelBackend;
pub use matrix::EmbeddingMatrix;
pub use negative::UnigramTable;
pub use online::OnlineWord2Vec;
pub use sigmoid::SigmoidTable;
pub use store::{EmbeddingSnapshot, EmbeddingStore};
pub use telemetry::StoreTelemetry;
pub use trainer::{TrainStats, Word2VecConfig, Word2VecTrainer};
pub use vocab::Vocabulary;

/// Learned node embeddings: one `dim`-dimensional vector per node.
#[derive(Debug, Clone)]
pub struct Embeddings {
    dim: usize,
    vectors: Vec<f32>,
}

impl Embeddings {
    /// Creates embeddings from a flat row-major vector (`num_nodes * dim`).
    ///
    /// # Panics
    ///
    /// Panics if the vector length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, vectors: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            vectors.len() % dim,
            0,
            "flat vector length must be a multiple of dim"
        );
        Embeddings { dim, vectors }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.vectors.len() / self.dim
    }

    /// The embedding vector of node `v`.
    pub fn vector(&self, v: u32) -> &[f32] {
        let start = v as usize * self.dim;
        &self.vectors[start..start + self.dim]
    }

    /// Cosine similarity between the embeddings of `a` and `b`.
    pub fn cosine_similarity(&self, a: u32, b: u32) -> f32 {
        kernels::cosine(self.vector(a), self.vector(b))
    }

    /// The `k` nodes most similar to `v` by cosine similarity (excluding `v`).
    pub fn most_similar(&self, v: u32, k: usize) -> Vec<(u32, f32)> {
        // The query vector and its norm are loop-invariant — compute them
        // once instead of once per candidate.
        let va = self.vector(v);
        let na = kernels::l2_norm(va);
        let mut scored: Vec<(u32, f32)> = (0..self.num_nodes() as u32)
            .filter(|&u| u != v)
            .map(|u| {
                let vb = self.vector(u);
                (
                    u,
                    kernels::cosine_with_norms(va, vb, na, kernels::l2_norm(vb)),
                )
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// The raw flat parameter vector.
    pub fn as_flat(&self) -> &[f32] {
        &self.vectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flat_and_accessors() {
        let e = Embeddings::from_flat(2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.num_nodes(), 3);
        assert_eq!(e.vector(1), &[0.0, 1.0]);
        assert_eq!(e.as_flat().len(), 6);
    }

    #[test]
    fn cosine_similarity_basics() {
        let e = Embeddings::from_flat(2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0]);
        assert!((e.cosine_similarity(0, 2) - 1.0).abs() < 1e-6);
        assert!(e.cosine_similarity(0, 1).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_similarity_is_zero() {
        let e = Embeddings::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
        assert_eq!(e.cosine_similarity(0, 1), 0.0);
    }

    #[test]
    fn most_similar_orders_by_similarity() {
        let e = Embeddings::from_flat(2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0]);
        let sims = e.most_similar(0, 2);
        assert_eq!(sims.len(), 2);
        assert_eq!(sims[0].0, 1);
        assert!(sims[0].1 > sims[1].1);
    }

    #[test]
    #[should_panic]
    fn bad_flat_length_panics() {
        let _ = Embeddings::from_flat(3, vec![1.0; 4]);
    }
}
