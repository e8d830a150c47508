//! Continuous bag-of-words (CBOW) with negative sampling — the second
//! word2vec objective mentioned in the paper's pipeline description.
//!
//! CBOW is the [`skipgram`](crate::skipgram) window kernel with a single
//! input vector per window — the mean of the context words' input rows —
//! whose gradient is then added to every one of those rows.

use rand::Rng;

use crate::matrix::EmbeddingMatrix;
use crate::negative::UnigramTable;
use crate::sigmoid::SigmoidTable;
use crate::skipgram::{dynamic_window, WindowScratch};

/// Trains CBOW over one walk with a dynamic window, mirroring
/// [`crate::skipgram::train_walk`]: in every window the averaged context
/// predicts the center node.
///
/// Returns the number of (context, center) pairs covered and the negative
/// log-likelihood summed over the windows.
#[allow(clippy::too_many_arguments)]
pub fn train_walk<R: Rng>(
    input: &EmbeddingMatrix,
    output: &EmbeddingMatrix,
    walk: &[u32],
    window: usize,
    alpha: f32,
    sigmoid: &SigmoidTable,
    table: &UnigramTable,
    scratch: &mut WindowScratch,
    rng: &mut R,
) -> (u64, f32) {
    let mut pairs = 0u64;
    let mut loss = 0.0f32;
    for (pos, &center) in walk.iter().enumerate() {
        let (lo, hi) = dynamic_window(pos, walk.len(), window, rng);
        if hi - lo < 2 {
            continue;
        }
        let context = || (lo..hi).filter(|&p| p != pos).map(|p| walk[p] as usize);
        let inv = 1.0 / (hi - lo - 1) as f32;
        let hidden = scratch.input_mut();
        hidden.fill(0.0);
        for c in context() {
            input.accumulate_row(c, inv, hidden);
        }
        scratch.gather_targets(output, center, table, rng);
        loss += scratch.update(alpha, sigmoid, true);
        scratch.scatter_targets(output);
        // Propagate the gradient of the average back to every context vector.
        for c in context() {
            input.add_row(c, scratch.input_gradient());
        }
        pairs += (hi - lo - 1) as u64;
    }
    (pairs, loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::vocab::Vocabulary;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(
        n: usize,
        dim: usize,
    ) -> (EmbeddingMatrix, EmbeddingMatrix, SigmoidTable, UnigramTable) {
        let input = EmbeddingMatrix::uniform(n, dim, 11);
        let output = EmbeddingMatrix::zeros(n, dim);
        let vocab = Vocabulary::from_counts(vec![5; n]);
        let table = UnigramTable::with_params(&vocab, 10_000, 0.75);
        (input, output, SigmoidTable::default(), table)
    }

    #[test]
    fn a_walk_without_context_is_a_noop() {
        let (input, output, sigmoid, table) = setup(5, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut scratch = WindowScratch::new(4, 3);
        let before = (input.to_flat(), output.to_flat());
        let stats = train_walk(
            &input,
            &output,
            &[0],
            3,
            0.05,
            &sigmoid,
            &table,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(stats, (0, 0.0));
        assert_eq!((input.to_flat(), output.to_flat()), before);
    }

    #[test]
    fn repeated_training_raises_positive_score() {
        let (input, output, sigmoid, table) = setup(10, 8);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut scratch = WindowScratch::new(8, 4);
        // Radius 1: the only window with two context words is {1, 2} -> 3.
        for _ in 0..300 {
            train_walk(
                &input,
                &output,
                &[1, 3, 2],
                1,
                0.05,
                &sigmoid,
                &table,
                &mut scratch,
                &mut rng,
            );
        }
        let mut hidden = vec![0.0; 8];
        for c in [1, 2] {
            input.accumulate_row(c, 0.5, &mut hidden);
        }
        let mut center = vec![0.0; 8];
        output.read_row(3, &mut center);
        assert!(kernels::dot(&center, &hidden) > 1.0);
    }

    #[test]
    fn walk_loss_decreases() {
        let (input, output, sigmoid, table) = setup(12, 8);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut scratch = WindowScratch::new(8, 4);
        let walk: Vec<u32> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..30 {
            let (pairs, loss) = train_walk(
                &input,
                &output,
                &walk,
                2,
                0.05,
                &sigmoid,
                &table,
                &mut scratch,
                &mut rng,
            );
            assert!(pairs >= 14, "every position has a neighbour: {pairs}");
            if epoch == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first, "{first} -> {last}");
    }
}
