//! Skip-gram with negative sampling (SGNS): the objective used by DeepWalk,
//! node2vec, metapath2vec, edge2vec and fairwalk.
//!
//! # The window kernel
//!
//! A Hogwild trainer is bound by how often it writes rows other cores hold
//! in their caches, not by arithmetic. So the update is organized per walk
//! position (window), not per (context, center) pair: the center's output
//! row and `negative` negatives **shared by the whole window** are gathered
//! once into per-thread scratch ([`WindowScratch`]), every context word's
//! input row is trained against those *local* copies one after the other —
//! each context sees the output rows as the previous context left them,
//! exactly as per-pair SGD would — and each touched row is added back to the
//! shared matrices once. That is `m + 1 + negative` shared-row writes per
//! token instead of `m · (2 + negative)`, no allocation, and with one thread
//! the same arithmetic as the per-pair loop fed the same negatives (a test
//! pins that to 1e-5).
//!
//! Applying the updates sequentially to the local copies matters. The
//! textbook minibatch form — all `m · (1 + negative)` gradients from the
//! stale gather, summed, then applied — is as fast but takes a step `m`
//! times too long along the shared output rows; at the constant incremental
//! learning rate it overshoots into a geometry that makes HNSW build and
//! search about 50 % slower while link-prediction AUC does not move.

use rand::Rng;

use crate::kernels;
use crate::matrix::EmbeddingMatrix;
use crate::negative::UnigramTable;
use crate::sigmoid::SigmoidTable;

/// Per-thread scratch of the window kernel, sized once for a
/// `(dim, negative)` pair and reused for every window a thread trains.
///
/// One window is [`gather_targets`](Self::gather_targets), then for every
/// input vector: fill [`input_mut`](Self::input_mut),
/// [`update`](Self::update), apply [`input_gradient`](Self::input_gradient);
/// then [`scatter_targets`](Self::scatter_targets).
pub struct WindowScratch {
    dim: usize,
    negative: usize,
    /// Distinct output rows of the window; slot 0 is the positive target.
    targets: Vec<u32>,
    /// Slot of each of the `1 + negative` samples, the positive one first. A
    /// negative drawn twice shares one slot, so its second update sees the
    /// first, as it would on the shared matrix.
    samples: Vec<usize>,
    /// Local copies of the target rows (`slot * dim ..`), moved by `update`.
    out: Vec<f32>,
    /// What `update` has added to each local copy since the gather.
    d_out: Vec<f32>,
    inp: Vec<f32>,
    d_in: Vec<f32>,
}

impl WindowScratch {
    /// Allocates scratch for `dim`-wide rows and `negative` negatives per
    /// window. Nothing else in the kernel allocates.
    pub fn new(dim: usize, negative: usize) -> Self {
        let slots = negative + 1;
        WindowScratch {
            dim,
            negative,
            targets: Vec::with_capacity(slots),
            samples: Vec::with_capacity(slots),
            out: vec![0.0; slots * dim],
            d_out: vec![0.0; slots * dim],
            inp: vec![0.0; dim],
            d_in: vec![0.0; dim],
        }
    }

    /// Starts a window: draws the negatives for `positive` from `table` and
    /// copies the target rows of `output` into the scratch.
    pub fn gather_targets<R: Rng>(
        &mut self,
        output: &EmbeddingMatrix,
        positive: u32,
        table: &UnigramTable,
        rng: &mut R,
    ) {
        let negatives = (0..self.negative).map(|_| table.sample_excluding(positive, rng));
        self.gather(output, positive, negatives);
    }

    fn gather(
        &mut self,
        output: &EmbeddingMatrix,
        positive: u32,
        negatives: impl Iterator<Item = u32>,
    ) {
        self.targets.clear();
        self.targets.push(positive);
        self.samples.clear();
        self.samples.push(0);
        for target in negatives {
            let slot = match self.targets.iter().position(|&t| t == target) {
                Some(slot) => slot,
                None => {
                    self.targets.push(target);
                    self.targets.len() - 1
                }
            };
            self.samples.push(slot);
        }
        let used = self.targets.len() * self.dim;
        for (&target, row) in self
            .targets
            .iter()
            .zip(self.out[..used].chunks_exact_mut(self.dim))
        {
            output.read_row(target as usize, row);
        }
        self.d_out[..used].fill(0.0);
    }

    /// The input vector the next [`update`](Self::update) trains.
    pub fn input_mut(&mut self) -> &mut [f32] {
        &mut self.inp
    }

    /// One SGNS step of the current input vector against every sample of the
    /// window: the local target copies move, the input gradient is left in
    /// [`input_gradient`](Self::input_gradient) (the input itself is not
    /// moved, as in word2vec.c). Returns the negative log-likelihood of the
    /// step when `monitor` is set (`1 + negative` logarithms), else 0.
    pub fn update(&mut self, alpha: f32, sigmoid: &SigmoidTable, monitor: bool) -> f32 {
        self.d_in.fill(0.0);
        let mut loss = 0.0f32;
        for (i, &slot) in self.samples.iter().enumerate() {
            let row = slot * self.dim..(slot + 1) * self.dim;
            let out = &mut self.out[row.clone()];
            let pred = sigmoid.sigmoid(kernels::dot(&self.inp, out));
            // The first sample is the positive one.
            let (label, likelihood) = if i == 0 {
                (1.0, pred)
            } else {
                (0.0, 1.0 - pred)
            };
            if monitor {
                loss -= ln_safe(likelihood);
            }
            kernels::sgns_update(
                (label - pred) * alpha,
                &self.inp,
                out,
                &mut self.d_in,
                &mut self.d_out[row],
            );
        }
        loss
    }

    /// The gradient step the last [`update`](Self::update) computed for its
    /// input vector.
    pub fn input_gradient(&self) -> &[f32] {
        &self.d_in
    }

    /// Ends a window: adds what the window's updates moved each target row
    /// by onto `output`, one write per distinct row.
    pub fn scatter_targets(&self, output: &EmbeddingMatrix) {
        for (&target, delta) in self.targets.iter().zip(self.d_out.chunks_exact(self.dim)) {
            output.add_row(target as usize, delta);
        }
    }
}

/// Trains skip-gram over one walk (sentence): every node is a center whose
/// context is a random-sized window around it, as in word2vec.c — the
/// context words' input rows are trained to predict the center's output row.
///
/// Returns the number of (context, center) pairs trained and the negative
/// log-likelihood summed over **one pair per window** (the first): a sampled
/// estimate for monitoring, so the logarithms stay off the hot path.
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
        scratch.gather_targets(output, center, table, rng);
        for (i, ctx_pos) in (lo..hi).filter(|&p| p != pos).enumerate() {
            let context = walk[ctx_pos] as usize;
            input.read_row(context, scratch.input_mut());
            loss += scratch.update(alpha, sigmoid, i == 0);
            input.add_row(context, scratch.input_gradient());
        }
        scratch.scatter_targets(output);
        pairs += (hi - lo - 1) as u64;
    }
    (pairs, loss)
}

/// word2vec.c's dynamic window around `pos`: the radius is uniform in
/// `[1, window]`; returns the half-open range of positions it covers,
/// `pos` included.
#[inline]
pub(crate) fn dynamic_window<R: Rng>(
    pos: usize,
    len: usize,
    window: usize,
    rng: &mut R,
) -> (usize, usize) {
    let radius = window - rng.gen_range(0..window.max(1));
    (pos.saturating_sub(radius), (pos + radius + 1).min(len))
}

#[inline]
fn ln_safe(x: f32) -> f32 {
    x.max(1e-7).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocabulary;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(
        num_nodes: usize,
        dim: usize,
    ) -> (EmbeddingMatrix, EmbeddingMatrix, SigmoidTable, UnigramTable) {
        let input = EmbeddingMatrix::uniform(num_nodes, dim, 1);
        let output = EmbeddingMatrix::zeros(num_nodes, dim);
        let sigmoid = SigmoidTable::default();
        let vocab = Vocabulary::from_counts(vec![10; num_nodes]);
        let table = UnigramTable::with_params(&vocab, 10_000, 0.75);
        (input, output, sigmoid, table)
    }

    fn row(m: &EmbeddingMatrix, r: u32) -> Vec<f32> {
        let mut buf = vec![0.0; m.dim()];
        m.read_row(r as usize, &mut buf);
        buf
    }

    /// The sequential oracle: one textbook SGNS update of `input[word]`
    /// against `output[positive]` (label 1) and `output[negatives]` (label
    /// 0), every row read from and written to the shared matrices at once.
    fn train_pair(
        input: &EmbeddingMatrix,
        output: &EmbeddingMatrix,
        word: u32,
        positive: u32,
        negatives: &[u32],
        alpha: f32,
        sigmoid: &SigmoidTable,
    ) {
        let word_vec = row(input, word);
        let mut grad = vec![0.0f32; word_vec.len()];
        let targets =
            std::iter::once((positive, 1.0f32)).chain(negatives.iter().map(|&t| (t, 0.0)));
        for (target, label) in targets {
            let out_row = row(output, target);
            let score: f32 = word_vec.iter().zip(&out_row).map(|(a, b)| a * b).sum();
            let g = (label - sigmoid.sigmoid(score)) * alpha;
            let step: Vec<f32> = word_vec.iter().map(|x| g * x).collect();
            for (acc, o) in grad.iter_mut().zip(&out_row) {
                *acc += g * o;
            }
            output.add_row(target as usize, &step);
        }
        input.add_row(word as usize, &grad);
    }

    /// The window kernel on one thread is per-pair SGD: same rows, same
    /// values, for windows with repeated context words, negatives that hit a
    /// context word, and a negative drawn twice. A summed-minibatch kernel
    /// (every gradient from the stale gather) fails this by ~alpha.
    #[test]
    fn window_kernel_matches_the_per_pair_oracle() {
        let (nodes, dim, alpha) = (12usize, 19usize, 0.2f32);
        let sigmoid = SigmoidTable::default();
        let seeded = || {
            let input = EmbeddingMatrix::uniform(nodes, dim, 3);
            let output = EmbeddingMatrix::uniform(nodes, dim, 4);
            // Scores of order 1, so the sigmoid is off its linear middle.
            for m in [&input, &output] {
                for r in 0..nodes {
                    let scaled: Vec<f32> = row(m, r as u32).iter().map(|x| x * 30.0).collect();
                    m.write_row(r, &scaled);
                }
            }
            (input, output)
        };
        // (center, contexts, negatives)
        let windows: [(u32, &[u32], &[u32]); 3] = [
            (0, &[1, 2, 1, 3], &[4, 5, 4, 2]),
            (2, &[0, 5], &[7, 7, 7]),
            (6, &[6, 1, 0, 2, 3, 4], &[8, 9, 10, 11, 1]),
        ];

        let (input, output) = seeded();
        let mut scratch = WindowScratch::new(dim, 5);
        for &(center, contexts, negatives) in &windows {
            scratch.gather(&output, center, negatives.iter().copied());
            for &ctx in contexts {
                input.read_row(ctx as usize, scratch.input_mut());
                scratch.update(alpha, &sigmoid, false);
                input.add_row(ctx as usize, scratch.input_gradient());
            }
            scratch.scatter_targets(&output);
        }

        let (want_input, want_output) = seeded();
        for &(center, contexts, negatives) in &windows {
            for &ctx in contexts {
                train_pair(
                    &want_input,
                    &want_output,
                    ctx,
                    center,
                    negatives,
                    alpha,
                    &sigmoid,
                );
            }
        }

        let untouched = seeded();
        let mut moved = 0;
        for (got, want, before) in [
            (&input, &want_input, &untouched.0),
            (&output, &want_output, &untouched.1),
        ] {
            for r in 0..nodes as u32 {
                for ((g, w), b) in row(got, r).iter().zip(row(want, r)).zip(row(before, r)) {
                    assert!((g - w).abs() < 1e-5, "row {r}: kernel {g} vs oracle {w}");
                    moved += usize::from((w - b).abs() > 1e-3);
                }
            }
        }
        assert!(
            moved > 100,
            "the oracle barely moved anything: {moved} cells"
        );
    }

    #[test]
    fn repeated_windows_raise_the_positive_score() {
        let (input, output, sigmoid, table) = setup(10, 8);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut scratch = WindowScratch::new(8, 3);
        let score = || kernels::dot(&row(&input, 0), &row(&output, 1));
        let before = score();
        for _ in 0..200 {
            train_walk(
                &input,
                &output,
                &[0, 1],
                1,
                0.05,
                &sigmoid,
                &table,
                &mut scratch,
                &mut rng,
            );
        }
        let after = score();
        assert!(after > before, "{after} <= {before}");
        assert!(after > 1.0, "positive pair score should grow, got {after}");
    }

    #[test]
    fn loss_decreases_over_repeated_training() {
        let (input, output, sigmoid, table) = setup(20, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut scratch = WindowScratch::new(16, 5);
        let walk: Vec<u32> = vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4];
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..30 {
            let (_, loss) = train_walk(
                &input,
                &output,
                &walk,
                3,
                0.05,
                &sigmoid,
                &table,
                &mut scratch,
                &mut rng,
            );
            if epoch == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn train_walk_counts_pairs_and_handles_short_walks() {
        let (input, output, sigmoid, table) = setup(5, 4);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut scratch = WindowScratch::new(4, 2);
        let mut run = |walk: &[u32], window| {
            train_walk(
                &input,
                &output,
                walk,
                window,
                0.05,
                &sigmoid,
                &table,
                &mut scratch,
                &mut rng,
            )
        };
        // A length-1 walk has no pairs: nothing trained, no panic.
        assert_eq!(run(&[2], 5), (0, 0.0));
        let (pairs, loss) = run(&[2, 3], 5);
        assert_eq!(pairs, 2);
        assert!(loss > 0.0);
        // Radius 1: the two ends have one context word, the middle two.
        assert_eq!(run(&[0, 1, 2, 3], 1).0, 6);
    }
}
