//! The Metropolis–Hastings edge sampler (Algorithm 1 of the paper).
//!
//! For a walker state `x` over the `deg(v)` out-edges of the current node `v`,
//! the chain keeps a single value `LAST_x` (the previously accepted neighbor
//! index). One step:
//!
//! 1. draw a candidate neighbor `u` uniformly (the conditional probability
//!    mass function `q(·|·) = 1/deg(v)`),
//! 2. accept with probability `min(1, w'(u) / w'(LAST_x))` where `w'` is the
//!    unnormalized dynamic edge weight,
//! 3. if accepted, `LAST_x ← u`; return `LAST_x`.
//!
//! Because `q` is symmetric it cancels in the acceptance ratio (Eq. 6 → the
//! simplified θ), the chain needs no normalization constant, and both the time
//! and memory cost per state are `O(1)` — the properties Theorems 1–2 rely on.

use std::sync::atomic::{AtomicU32, Ordering};

use rand::Rng;

use crate::init::InitStrategy;

/// A single-threaded M-H chain for one walker state.
///
/// The chain is lazily initialized: the first call to [`MhChain::step`]
/// applies the configured [`InitStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MhChain {
    last: u32,
}

/// Sentinel meaning "not initialized yet".
const UNINIT: u32 = u32::MAX;

impl Default for MhChain {
    fn default() -> Self {
        Self::new()
    }
}

impl MhChain {
    /// Creates an uninitialized chain.
    pub fn new() -> Self {
        MhChain { last: UNINIT }
    }

    /// Creates a chain whose last sample is already known.
    pub fn with_last(last: u32) -> Self {
        MhChain { last }
    }

    /// True if the chain has not produced a sample yet.
    pub fn is_initialized(&self) -> bool {
        self.last != UNINIT
    }

    /// The last accepted sample (neighbor index), if initialized.
    pub fn last(&self) -> Option<u32> {
        if self.is_initialized() {
            Some(self.last)
        } else {
            None
        }
    }

    /// Forces initialization according to `init` without producing a sample.
    pub fn initialize<R: Rng, F: Fn(usize) -> f32>(
        &mut self,
        deg: usize,
        weight: &F,
        init: InitStrategy,
        rng: &mut R,
    ) {
        self.last = init.initial_sample(deg, weight, rng) as u32;
        let burn = init.burn_in_iterations();
        if burn > 0 {
            self.burn_in(deg, weight, burn, rng);
        }
    }

    /// Runs `iterations` M-H transitions, discarding the outputs.
    pub fn burn_in<R: Rng, F: Fn(usize) -> f32>(
        &mut self,
        deg: usize,
        weight: &F,
        iterations: usize,
        rng: &mut R,
    ) {
        for _ in 0..iterations {
            self.transition(deg, weight, rng);
        }
    }

    /// One M-H transition (Algorithm 1, lines 2–9) without returning a sample.
    #[inline]
    fn transition<R: Rng, F: Fn(usize) -> f32>(&mut self, deg: usize, weight: &F, rng: &mut R) {
        let candidate = rng.gen_range(0..deg) as u32;
        let w_cand = weight(candidate as usize);
        let w_last = weight(self.last as usize);
        // Accept with min(1, w_cand / w_last); division avoided.
        if w_cand >= w_last || rng.gen::<f32>() * w_last < w_cand {
            self.last = candidate;
        }
    }

    /// Draws the next sample (Algorithm 1). `deg` is the number of candidate
    /// edges and `weight(k)` their unnormalized dynamic weights.
    ///
    /// # Panics
    ///
    /// Panics if `deg == 0`.
    #[inline]
    pub fn step<R: Rng, F: Fn(usize) -> f32>(
        &mut self,
        deg: usize,
        weight: &F,
        init: InitStrategy,
        rng: &mut R,
    ) -> usize {
        assert!(
            deg > 0,
            "M-H chain cannot sample from an empty neighborhood"
        );
        if !self.is_initialized() || self.last as usize >= deg {
            self.initialize(deg, weight, init, rng);
        }
        self.transition(deg, weight, rng);
        self.last as usize
    }

    /// Memory footprint per chain in bytes — the `O(1)` the paper claims.
    pub const fn memory_bytes() -> usize {
        std::mem::size_of::<u32>()
    }
}

/// A lock-free M-H chain shareable between walker threads.
///
/// The UniNet C++ implementation lets concurrent walkers share the per-state
/// `LAST_x` variable with benign races; this variant reproduces that behaviour
/// soundly with relaxed atomics. Each state costs exactly 4 bytes.
#[derive(Debug)]
pub struct AtomicMhChain {
    last: AtomicU32,
}

impl Default for AtomicMhChain {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicMhChain {
    /// Creates an uninitialized chain.
    pub fn new() -> Self {
        AtomicMhChain {
            last: AtomicU32::new(UNINIT),
        }
    }

    /// Creates a chain carrying over a previous chain's state, if any.
    ///
    /// Used by incremental sampler maintenance: because an M-H chain is just
    /// the last accepted neighbor index, its state can be transplanted across
    /// graph updates in O(1) — a stale index is handled lazily by `step`'s
    /// re-initialization check.
    pub fn from_state(last: Option<u32>) -> Self {
        AtomicMhChain {
            last: AtomicU32::new(last.unwrap_or(UNINIT)),
        }
    }

    /// True if some thread has initialized the chain.
    pub fn is_initialized(&self) -> bool {
        self.last.load(Ordering::Relaxed) != UNINIT
    }

    /// The last accepted sample, if initialized.
    pub fn last(&self) -> Option<u32> {
        let v = self.last.load(Ordering::Relaxed);
        if v == UNINIT {
            None
        } else {
            Some(v)
        }
    }

    /// Draws the next sample, initializing lazily on first use, and returns
    /// it with its weight: the transition already evaluated `weight` at the
    /// sample, so a caller checking for zero weight need not call it again.
    #[inline]
    pub fn step<R: Rng, F: Fn(usize) -> f32>(
        &self,
        deg: usize,
        weight: &F,
        init: InitStrategy,
        rng: &mut R,
    ) -> (usize, f32) {
        assert!(
            deg > 0,
            "M-H chain cannot sample from an empty neighborhood"
        );
        let mut last = self.last.load(Ordering::Relaxed);
        if last == UNINIT || last as usize >= deg {
            let mut chain = MhChain::new();
            chain.initialize(deg, weight, init, rng);
            last = chain.last;
            // Racing initializations are both valid initial samples; keep one.
            let _ = self
                .last
                .compare_exchange(UNINIT, last, Ordering::Relaxed, Ordering::Relaxed);
            last = self.last.load(Ordering::Relaxed);
            if last == UNINIT || last as usize >= deg {
                last = chain.last;
            }
        }
        let candidate = rng.gen_range(0..deg) as u32;
        let w_cand = weight(candidate as usize);
        let w_last = weight(last as usize);
        if w_cand >= w_last || rng.gen::<f32>() * w_last < w_cand {
            self.last.store(candidate, Ordering::Relaxed);
            (candidate as usize, w_cand)
        } else {
            (last as usize, w_last)
        }
    }

    /// Memory footprint per chain in bytes.
    pub const fn memory_bytes() -> usize {
        std::mem::size_of::<AtomicU32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{empirical_distribution, DiscreteDistribution};
    use crate::kl::kl_divergence;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_marginal(weights: &[f32], draws: usize, init: InitStrategy, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut chain = MhChain::new();
        let wf = |k: usize| weights[k];
        let mut samples = Vec::with_capacity(draws);
        for _ in 0..draws {
            samples.push(chain.step(weights.len(), &wf, init, &mut rng));
        }
        empirical_distribution(&samples, weights.len())
    }

    #[test]
    fn converges_to_uniform_target() {
        let weights = vec![1.0f32; 6];
        let marginal = chain_marginal(&weights, 120_000, InitStrategy::Random, 1);
        for p in &marginal {
            assert!((p - 1.0 / 6.0).abs() < 0.01, "p = {p}");
        }
    }

    #[test]
    fn converges_to_skewed_target() {
        let weights = vec![8.0f32, 4.0, 2.0, 1.0, 1.0];
        let target = DiscreteDistribution::new(weights.iter().map(|&w| w as f64).collect());
        let marginal = chain_marginal(&weights, 400_000, InitStrategy::high_weight_exact(), 2);
        let kl = kl_divergence(&marginal, &target.probs());
        assert!(kl < 5e-4, "kl = {kl}");
        // Spot-check individual probabilities.
        for (k, p) in marginal.iter().enumerate() {
            assert!(
                (p - target.prob(k)).abs() < 0.01,
                "outcome {k}: {p} vs {}",
                target.prob(k)
            );
        }
    }

    #[test]
    fn all_init_strategies_converge() {
        let weights = vec![5.0f32, 1.0, 1.0, 1.0];
        let target = DiscreteDistribution::new(weights.iter().map(|&w| w as f64).collect());
        for (i, init) in [
            InitStrategy::Random,
            InitStrategy::high_weight_exact(),
            InitStrategy::HighWeight { probe: 2 },
            InitStrategy::BurnIn { iterations: 50 },
        ]
        .into_iter()
        .enumerate()
        {
            let marginal = chain_marginal(&weights, 300_000, init, 100 + i as u64);
            let kl = kl_divergence(&marginal, &target.probs());
            assert!(kl < 1e-3, "init {init:?}: kl = {kl}");
        }
    }

    #[test]
    fn lazy_initialization_only_once() {
        let weights = [1.0f32, 9.0];
        let mut chain = MhChain::new();
        assert!(!chain.is_initialized());
        assert_eq!(chain.last(), None);
        let mut rng = SmallRng::seed_from_u64(5);
        let wf = |k: usize| weights[k];
        chain.step(2, &wf, InitStrategy::high_weight_exact(), &mut rng);
        assert!(chain.is_initialized());
        assert!(chain.last().is_some());
    }

    #[test]
    fn with_last_skips_initialization() {
        let chain = MhChain::with_last(3);
        assert!(chain.is_initialized());
        assert_eq!(chain.last(), Some(3));
    }

    #[test]
    fn reinitializes_when_degree_shrinks() {
        // A chain whose last index is out of range for a smaller neighborhood
        // must re-initialize rather than index out of bounds.
        let mut chain = MhChain::with_last(10);
        let weights = [1.0f32, 2.0, 3.0];
        let wf = |k: usize| weights[k];
        let mut rng = SmallRng::seed_from_u64(6);
        let s = chain.step(3, &wf, InitStrategy::Random, &mut rng);
        assert!(s < 3);
    }

    #[test]
    fn atomic_chain_matches_sequential_behaviour() {
        let weights = [4.0f32, 2.0, 1.0, 1.0];
        let target = DiscreteDistribution::new(weights.iter().map(|&w| w as f64).collect());
        let chain = AtomicMhChain::new();
        assert!(!chain.is_initialized());
        let mut rng = SmallRng::seed_from_u64(7);
        let wf = |k: usize| weights[k];
        let mut samples = Vec::new();
        for _ in 0..300_000 {
            let (sample, w) = chain.step(4, &wf, InitStrategy::Random, &mut rng);
            assert_eq!(w, weights[sample]);
            samples.push(sample);
        }
        assert!(chain.is_initialized());
        let marginal = empirical_distribution(&samples, 4);
        let kl = kl_divergence(&marginal, &target.probs());
        assert!(kl < 1e-3, "kl = {kl}");
    }

    #[test]
    fn atomic_chain_is_thread_safe() {
        let weights = [3.0f32, 1.0, 1.0, 1.0, 2.0];
        let chain = AtomicMhChain::new();
        let wf = |k: usize| weights[k];
        std::thread::scope(|scope| {
            for t in 0..4 {
                let chain = &chain;
                let wf = &wf;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(1000 + t);
                    for _ in 0..10_000 {
                        let (s, w) = chain.step(5, wf, InitStrategy::Random, &mut rng);
                        assert!(s < 5);
                        assert_eq!(w, weights[s]);
                    }
                });
            }
        });
        assert!(chain.last().unwrap() < 5);
    }

    #[test]
    fn memory_is_constant() {
        assert_eq!(MhChain::memory_bytes(), 4);
        assert_eq!(AtomicMhChain::memory_bytes(), 4);
    }

    #[test]
    #[should_panic]
    fn empty_neighborhood_panics() {
        let mut chain = MhChain::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = chain.step(0, &|_| 1.0, InitStrategy::Random, &mut rng);
    }
}
