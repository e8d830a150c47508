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
//! exactly as per-pair SGD would — and each touched output row is added back
//! to the shared matrix once. That is `1 + negative` shared-row writes per
//! token instead of `m · (2 + negative)`, no allocation, and with one thread
//! the same arithmetic as the per-pair loop fed the same negatives (a test
//! pins that to 1e-5).
//!
//! Input rows are **walk-resident**: each distinct node of a walk gets a
//! slot, read once when the walk starts, that every pair trains in place (as
//! [`EmbeddingMatrix::add_row`] would add) and that is written back once at
//! the walk's end ([`EmbeddingMatrix::write_back_row`]). On one thread that
//! is the per-pair row path bit for bit; across threads, another thread's
//! update lands up to one walk late and is never lost.
//!
//! One input vector's step against the window's `1 + negative` samples is
//! one call of [`kernels::sgns_window`]: all dots in one pass over the input
//! row, then all updates in one more, with the input gradient held in a
//! register. A negative drawn twice starts a new run of that kernel, so the
//! step is bit-identical to one `dot` and one update per sample.
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

/// Per-thread scratch of a walk's training, sized once for a
/// `(dim, negative)` pair (and, with [`reserve_walk`](Self::reserve_walk),
/// for the longest walk) and reused for every walk a thread trains.
pub struct WindowScratch {
    dim: usize,
    negative: usize,
    /// Distinct nodes of the walk, and the slot of each walk position.
    walk_nodes: Vec<u32>,
    walk_slots: Vec<usize>,
    /// Per slot, its input row as read when the walk began, then as the
    /// walk's steps moved it (`2 * slot * dim ..`).
    walk_rows: Vec<f32>,
    /// Distinct output rows of the window; slot 0 is the positive target.
    targets: Vec<u32>,
    /// Slot of each of the `1 + negative` samples, the positive one first. A
    /// negative drawn twice shares one slot, so its second update sees the
    /// first, as it would on the shared matrix.
    samples: Vec<usize>,
    /// Local copies of the target rows (`slot * dim ..`), moved by each step.
    out: Vec<f32>,
    /// What the steps have added to each local copy since the gather.
    d_out: Vec<f32>,
    d_in: Vec<f32>,
}

/// The slot of `node` in `slots`, appended if it has none yet.
fn slot_of(slots: &mut Vec<u32>, node: u32) -> usize {
    slots.iter().position(|&n| n == node).unwrap_or_else(|| {
        slots.push(node);
        slots.len() - 1
    })
}

impl WindowScratch {
    /// Allocates scratch for `dim`-wide rows and `negative` negatives per
    /// window.
    pub fn new(dim: usize, negative: usize) -> Self {
        let slots = negative + 1;
        WindowScratch {
            dim,
            negative,
            walk_nodes: Vec::new(),
            walk_slots: Vec::new(),
            walk_rows: Vec::new(),
            targets: Vec::with_capacity(slots),
            samples: Vec::with_capacity(slots),
            out: vec![0.0; slots * dim],
            d_out: vec![0.0; slots * dim],
            d_in: vec![0.0; dim],
        }
    }

    /// Makes room for walks of up to `len` positions, so that training them
    /// allocates nothing.
    pub fn reserve_walk(&mut self, len: usize) {
        self.walk_nodes.reserve(len);
        self.walk_slots.reserve(len);
        let cells = (2 * len * self.dim).max(self.walk_rows.len());
        self.walk_rows.resize(cells, 0.0);
    }

    /// Starts a walk: reads each distinct node's input row into its slot.
    fn begin_walk(&mut self, input: &EmbeddingMatrix, walk: &[u32]) {
        self.walk_nodes.clear();
        self.walk_slots.clear();
        self.reserve_walk(walk.len());
        for &node in walk {
            let slot = slot_of(&mut self.walk_nodes, node);
            self.walk_slots.push(slot);
        }
        let slots = self.walk_rows.chunks_exact_mut(2 * self.dim);
        for (&node, rows) in self.walk_nodes.iter().zip(slots) {
            let (read, local) = rows.split_at_mut(self.dim);
            input.read_row(node as usize, read);
            local.copy_from_slice(read);
        }
    }

    /// Ends a walk: writes each slot back onto `input`.
    fn end_walk(&self, input: &EmbeddingMatrix) {
        let slots = self.walk_rows.chunks_exact(2 * self.dim);
        for (&node, rows) in self.walk_nodes.iter().zip(slots) {
            let (read, local) = rows.split_at(self.dim);
            input.write_back_row(node as usize, read, local);
        }
    }

    /// Starts a window: draws the negatives for `positive` from `table` and
    /// copies the target rows of `output` into the scratch.
    fn gather_targets<R: Rng>(
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
            let slot = slot_of(&mut self.targets, target);
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

    /// One SGNS step of walk position `pos`'s input row against every sample
    /// of the window: the local target copies move, then the input gradient
    /// (left in `d_in`) is added onto the row, as in word2vec.c. Returns the
    /// step's negative log-likelihood if `monitor` is set, else 0.
    fn step(&mut self, pos: usize, alpha: f32, sigmoid: &SigmoidTable, monitor: bool) -> f32 {
        let local = (2 * self.walk_slots[pos] + 1) * self.dim;
        let inp = &mut self.walk_rows[local..local + self.dim];
        self.d_in.fill(0.0);
        let mut loss = 0.0f32;
        kernels::sgns_window(
            inp,
            &mut self.out,
            &mut self.d_in,
            &mut self.d_out,
            &self.samples,
            |i, score| {
                let pred = sigmoid.sigmoid(score);
                // The first sample is the positive one.
                let (label, likelihood) = if i == 0 {
                    (1.0, pred)
                } else {
                    (0.0, 1.0 - pred)
                };
                if monitor {
                    loss -= ln_safe(likelihood);
                }
                (label - pred) * alpha
            },
        );
        // The rounding of `EmbeddingMatrix::add_row`.
        for (x, d) in inp.iter_mut().zip(&self.d_in) {
            *x += d;
        }
        loss
    }

    /// Ends a window: adds what the window's updates moved each target row
    /// by onto `output`, one write per distinct row.
    fn scatter_targets(&self, output: &EmbeddingMatrix) {
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
    scratch.begin_walk(input, walk);
    for (pos, &center) in walk.iter().enumerate() {
        let (lo, hi) = dynamic_window(pos, walk.len(), window, rng);
        if hi - lo < 2 {
            continue;
        }
        scratch.gather_targets(output, center, table, rng);
        for (i, ctx_pos) in (lo..hi).filter(|&p| p != pos).enumerate() {
            loss += scratch.step(ctx_pos, alpha, sigmoid, i == 0);
        }
        scratch.scatter_targets(output);
        pairs += (hi - lo - 1) as u64;
    }
    scratch.end_walk(input);
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

    /// One input vector's step, for the oracles below: the vector sits in
    /// walk slot 0 of the scratch.
    impl WindowScratch {
        fn input_mut(&mut self) -> &mut [f32] {
            self.walk_slots.clear();
            self.walk_slots.push(0);
            self.reserve_walk(1);
            &mut self.walk_rows[self.dim..2 * self.dim]
        }

        fn update(&mut self, alpha: f32, sigmoid: &SigmoidTable, monitor: bool) -> f32 {
            self.step(0, alpha, sigmoid, monitor)
        }

        fn input_gradient(&self) -> &[f32] {
            &self.d_in
        }
    }

    /// `train_walk` as it was before input rows became walk-resident: every
    /// pair reads its context's input row from `input` and adds its
    /// gradient back at once.
    #[allow(clippy::too_many_arguments)]
    fn train_walk_per_pair_rows<R: Rng>(
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

    /// Input and output matrices whose scores are of order 1 at every
    /// width, so the sigmoid is off its linear middle.
    fn scaled_pair(nodes: usize, dim: usize) -> (EmbeddingMatrix, EmbeddingMatrix) {
        let scale = 30.0 * (dim as f32 / 19.0).powf(0.75);
        let (input, output) = (
            EmbeddingMatrix::uniform(nodes, dim, 3),
            EmbeddingMatrix::uniform(nodes, dim, 4),
        );
        for m in [&input, &output] {
            for r in 0..nodes {
                let scaled: Vec<f32> = row(m, r as u32).iter().map(|x| x * scale).collect();
                m.write_row(r, &scaled);
            }
        }
        (input, output)
    }

    fn bits(m: &EmbeddingMatrix) -> Vec<u32> {
        m.to_flat().iter().map(|x| x.to_bits()).collect()
    }

    /// On one thread, walk-resident input rows are the per-pair row path bit
    /// for bit: same pairs, same loss, same bits in every input and output
    /// row. The walks revisit nodes, so later positions must see the slot
    /// that earlier ones moved. With 5 nodes every window draws a negative
    /// twice (5 draws from the 4 nodes that are not the center); with 40 most
    /// windows are one run of distinct slots.
    #[test]
    fn walk_resident_rows_match_the_per_pair_row_path_bitwise() {
        let sigmoid = SigmoidTable::default();
        for dim in [19, 64, 128] {
            for nodes in [5usize, 40] {
                let vocab = Vocabulary::from_counts(vec![10; nodes]);
                let table = UnigramTable::with_params(&vocab, 10_000, 0.75);
                let mut rng = SmallRng::seed_from_u64(dim as u64);
                let walks: Vec<Vec<u32>> = (0..12)
                    .map(|_| (0..25).map(|_| rng.gen_range(0..nodes as u32)).collect())
                    .collect();
                let (input, output) = scaled_pair(nodes, dim);
                let (want_input, want_output) = scaled_pair(nodes, dim);
                let before = bits(&input);
                let (mut got_rng, mut want_rng) =
                    (SmallRng::seed_from_u64(9), SmallRng::seed_from_u64(9));
                let mut scratch = WindowScratch::new(dim, 5);
                let mut oracle_scratch = WindowScratch::new(dim, 5);
                for walk in &walks {
                    let got = train_walk(
                        &input,
                        &output,
                        walk,
                        6,
                        0.05,
                        &sigmoid,
                        &table,
                        &mut scratch,
                        &mut got_rng,
                    );
                    let want = train_walk_per_pair_rows(
                        &want_input,
                        &want_output,
                        walk,
                        6,
                        0.05,
                        &sigmoid,
                        &table,
                        &mut oracle_scratch,
                        &mut want_rng,
                    );
                    assert_eq!(got.0, want.0, "dim {dim}, {nodes} nodes: pairs");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "dim {dim}: loss");
                }
                assert_eq!(
                    bits(&input),
                    bits(&want_input),
                    "dim {dim}, {nodes} nodes: input"
                );
                assert_eq!(
                    bits(&output),
                    bits(&want_output),
                    "dim {dim}, {nodes} nodes: output"
                );
                assert_ne!(bits(&input), before, "dim {dim}: nothing trained");
            }
        }
    }

    /// Two threads train walks through the same 8 nodes at once, and each
    /// input row ends within 10 % (in L1) of its start plus the deltas each
    /// thread's walks make alone. Every score is saturated (inputs 2, outputs
    /// -30, so `σ = 0`): each positive sample's gradient is exactly `alpha`,
    /// each negative's 0, and an input row moves by `-30·alpha` per step
    /// whatever the other thread does. A walk that wrote its rows back
    /// blindly would drop what the other thread added during it (15–36 % of
    /// a row's delta when that was tried); Hogwild's load–store window may
    /// drop a little.
    #[test]
    fn concurrent_walks_keep_both_threads_updates() {
        let (nodes, dim, alpha) = (8usize, 16, 1e-5f32);
        let sigmoid = SigmoidTable::default();
        let vocab = Vocabulary::from_counts(vec![10; nodes]);
        let table = UnigramTable::with_params(&vocab, 10_000, 0.75);
        let start = || {
            let (input, output) = (
                EmbeddingMatrix::zeros(nodes, dim),
                EmbeddingMatrix::zeros(nodes, dim),
            );
            for r in 0..nodes {
                input.write_row(r, &vec![2.0; dim]);
                output.write_row(r, &vec![-30.0; dim]);
            }
            (input, output)
        };
        let walks = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..100)
                .map(|_| (0..20).map(|_| rng.gen_range(0..nodes as u32)).collect())
                .collect::<Vec<Vec<u32>>>()
        };
        let thread_walks = [walks(1), walks(2)];
        let train = |input: &EmbeddingMatrix, output: &EmbeddingMatrix, t: usize| {
            let mut rng = SmallRng::seed_from_u64(10 + t as u64);
            let mut scratch = WindowScratch::new(dim, 5);
            scratch.reserve_walk(20);
            for walk in &thread_walks[t] {
                train_walk(
                    input,
                    output,
                    walk,
                    5,
                    alpha,
                    &sigmoid,
                    &table,
                    &mut scratch,
                    &mut rng,
                );
            }
        };
        let origin = start().0.to_flat();
        let alone: Vec<Vec<f32>> = (0..2)
            .map(|t| {
                let (input, output) = start();
                train(&input, &output, t);
                let flat = input.to_flat();
                flat.iter().zip(&origin).map(|(x, o)| x - o).collect()
            })
            .collect();
        let (input, output) = start();
        // Both threads start training together.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (input, output, train, barrier) = (&input, &output, &train, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    train(input, output, t)
                });
            }
        });
        let both = input.to_flat();
        for r in 0..nodes {
            let cells = r * dim..(r + 1) * dim;
            let (mut miss, mut size) = (0.0f32, 0.0f32);
            for c in cells {
                let want = origin[c] + alone[0][c] + alone[1][c];
                miss += (both[c] - want).abs();
                size += alone[0][c].abs() + alone[1][c].abs();
            }
            assert!(size > 0.0, "row {r}: nothing trained");
            assert!(
                miss <= 0.1 * size,
                "row {r}: off by {miss} against deltas of {size}"
            );
        }
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
    /// (every gradient from the stale gather) fails this by ~alpha. Dim 19
    /// runs the SIMD bodies and their scalar tails, 64 and 128 the bodies
    /// alone.
    #[test]
    fn window_kernel_matches_the_per_pair_oracle() {
        for dim in [19, 64, 128] {
            window_kernel_matches_the_per_pair_oracle_at(dim);
        }
    }

    fn window_kernel_matches_the_per_pair_oracle_at(dim: usize) {
        let (nodes, alpha) = (12usize, 0.2f32);
        let sigmoid = SigmoidTable::default();
        // Scores of order 1 at every width, so the sigmoid is off its
        // linear middle.
        let scale = 30.0 * (dim as f32 / 19.0).powf(0.75);
        let seeded = || {
            let input = EmbeddingMatrix::uniform(nodes, dim, 3);
            let output = EmbeddingMatrix::uniform(nodes, dim, 4);
            for m in [&input, &output] {
                for r in 0..nodes {
                    let scaled: Vec<f32> = row(m, r as u32).iter().map(|x| x * scale).collect();
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
                    assert!(
                        (g - w).abs() < 1e-5,
                        "dim {dim}, row {r}: kernel {g} vs oracle {w}"
                    );
                    moved += usize::from((w - b).abs() > 1e-3);
                }
            }
        }
        assert!(
            moved > 100,
            "dim {dim}: the oracle barely moved anything: {moved} cells"
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
