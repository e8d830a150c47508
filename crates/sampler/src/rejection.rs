//! Rejection sampling over a simple proposal distribution.
//!
//! This reproduces the rejection edge sampler of Yang et al. (KnightKing,
//! SOSP'19) as described in the paper's introduction: the proposal is the
//! *static*-weight distribution (sampled in O(1) via an alias table), and the
//! dynamic weight enters only through an accept/reject test against an upper
//! bound of the dynamic/static weight ratio. Its efficiency degrades when the
//! acceptance ratio drops (Table II), which is exactly what the M-H sampler
//! avoids.

use rand::Rng;

use crate::alias::AliasTable;

/// Outcome of one rejection-sampled draw, carrying the number of proposal
/// attempts so callers can track the empirical acceptance ratio (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectionOutcome {
    /// The accepted neighbor index.
    pub index: usize,
    /// How many proposals were made before one was accepted.
    pub attempts: usize,
}

/// A rejection sampler for one node's neighborhood.
///
/// `proposal` is built from the static edge weights; `bound` must satisfy
/// `dynamic_weight(k) <= bound * static_weight(k)` for every neighbor `k`
/// (e.g. `max(1, 1/p, 1/q)` for node2vec).
#[derive(Debug, Clone)]
pub struct RejectionSampler {
    proposal: AliasTable,
    static_weights: Vec<f32>,
    bound: f32,
    max_attempts: usize,
}

impl RejectionSampler {
    /// Creates a rejection sampler from static weights and an upper bound on
    /// the dynamic/static weight ratio.
    pub fn new(static_weights: &[f32], bound: f32) -> Self {
        assert!(bound > 0.0, "bound must be positive");
        RejectionSampler {
            proposal: AliasTable::new(static_weights),
            static_weights: static_weights.to_vec(),
            bound,
            max_attempts: 10_000,
        }
    }

    /// Number of neighbors covered by this sampler.
    pub fn len(&self) -> usize {
        self.static_weights.len()
    }

    /// True when there are no neighbors (never after construction).
    pub fn is_empty(&self) -> bool {
        self.static_weights.is_empty()
    }

    /// Draws one neighbor from the *dynamic* weight distribution.
    ///
    /// `dynamic_weight(k)` is the unnormalized target weight of neighbor `k`.
    /// If the bound is violated the sample is still accepted (clamped), which
    /// mirrors the behaviour of practical implementations; correctness then
    /// degrades gracefully rather than panicking.
    pub fn sample<R: Rng, F: Fn(usize) -> f32>(
        &self,
        dynamic_weight: F,
        rng: &mut R,
    ) -> RejectionOutcome {
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let candidate = self.proposal.sample(rng);
            let ratio = dynamic_weight(candidate) / (self.bound * self.static_weights[candidate]);
            if attempts >= self.max_attempts || rng.gen::<f32>() < ratio {
                return RejectionOutcome {
                    index: candidate,
                    attempts,
                };
            }
        }
    }

    /// Memory footprint (proposal alias table + static weights copy).
    pub fn memory_bytes(&self) -> usize {
        self.proposal.memory_bytes() + self.static_weights.len() * std::mem::size_of::<f32>()
    }
}

/// Tracks the empirical acceptance ratio across many draws, as reported in
/// Table II of the paper.
#[derive(Debug, Default, Clone, Copy)]
pub struct AcceptanceStats {
    accepted: u64,
    attempts: u64,
}

impl AcceptanceStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one draw's outcome.
    pub fn record(&mut self, outcome: RejectionOutcome) {
        self.accepted += 1;
        self.attempts += outcome.attempts as u64;
    }

    /// The acceptance ratio θ = accepted draws / total proposals.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.accepted as f64 / self.attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_dynamic_weights_accept_everything() {
        let stat = vec![1.0f32; 6];
        let s = RejectionSampler::new(&stat, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut stats = AcceptanceStats::new();
        for _ in 0..5000 {
            let o = s.sample(|_| 1.0, &mut rng);
            stats.record(o);
        }
        assert!((stats.acceptance_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_dynamic_weights_match_target() {
        // static uniform proposal, dynamic favours neighbor 0 by 4x.
        let stat = vec![1.0f32; 4];
        let dynamic = [4.0f32, 1.0, 1.0, 1.0];
        let s = RejectionSampler::new(&stat, 4.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            counts[s.sample(|k| dynamic[k], &mut rng).index] += 1;
        }
        let p0 = counts[0] as f64 / 100_000.0;
        assert!((p0 - 4.0 / 7.0).abs() < 0.01, "p0 = {p0}");
    }

    #[test]
    fn low_acceptance_ratio_detected() {
        // node2vec-style: q = 0.25 so bound = 4; most dynamic weights equal 1.
        let stat = vec![1.0f32; 10];
        let s = RejectionSampler::new(&stat, 4.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut stats = AcceptanceStats::new();
        for _ in 0..20_000 {
            stats.record(s.sample(|_| 1.0, &mut rng));
        }
        let theta = stats.acceptance_ratio();
        assert!((theta - 0.25).abs() < 0.02, "theta = {theta}");
    }

    #[test]
    fn attempts_increase_when_bound_is_loose() {
        let stat = vec![1.0f32; 8];
        let tight = RejectionSampler::new(&stat, 1.0);
        let loose = RejectionSampler::new(&stat, 8.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut tight_attempts = 0usize;
        let mut loose_attempts = 0usize;
        for _ in 0..5000 {
            tight_attempts += tight.sample(|_| 1.0, &mut rng).attempts;
            loose_attempts += loose.sample(|_| 1.0, &mut rng).attempts;
        }
        assert!(loose_attempts > 4 * tight_attempts);
    }

    #[test]
    fn memory_scales_with_degree() {
        let small = RejectionSampler::new(&[1.0; 4], 1.0);
        let large = RejectionSampler::new(&vec![1.0; 1024], 1.0);
        assert!(large.memory_bytes() > 100 * small.memory_bytes());
    }

    #[test]
    #[should_panic]
    fn non_positive_bound_panics() {
        let _ = RejectionSampler::new(&[1.0, 1.0], 0.0);
    }
}
