//! Discrete probability distributions and the random-distribution generator
//! used in the Figure-1 initialization study.

use rand::Rng;

/// A finite discrete distribution stored as unnormalized weights.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDistribution {
    weights: Vec<f64>,
    total: f64,
}

impl DiscreteDistribution {
    /// Creates a distribution from unnormalized non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if weights are empty, contain negatives/NaN, or sum to zero.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            !weights.is_empty(),
            "distribution must have at least one outcome"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        DiscreteDistribution { weights, total }
    }

    /// Sample-space size `n`.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the sample space is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Unnormalized weight of outcome `k`.
    pub fn weight(&self, k: usize) -> f64 {
        self.weights[k]
    }

    /// Normalized probability of outcome `k`.
    pub fn prob(&self, k: usize) -> f64 {
        self.weights[k] / self.total
    }

    /// All normalized probabilities.
    pub fn probs(&self) -> Vec<f64> {
        self.weights.iter().map(|w| w / self.total).collect()
    }

    /// Unnormalized weights as `f32` (what edge samplers consume).
    pub fn weights_f32(&self) -> Vec<f32> {
        self.weights.iter().map(|&w| w as f32).collect()
    }

    /// The maximal probability `π_max`.
    pub fn max_prob(&self) -> f64 {
        self.weights.iter().cloned().fold(0.0, f64::max) / self.total
    }

    /// The minimal probability `π_min` (over outcomes with non-zero weight,
    /// or 0.0 if some outcome has zero weight).
    pub fn min_prob(&self) -> f64 {
        self.weights.iter().cloned().fold(f64::INFINITY, f64::min) / self.total
    }

    /// Number of outcomes attaining the maximal probability (the paper's `t`).
    pub fn num_max(&self) -> usize {
        let max = self.weights.iter().cloned().fold(0.0, f64::max);
        self.weights
            .iter()
            .filter(|&&w| (w - max).abs() <= max * 1e-9)
            .count()
    }

    /// Exact inverse-CDF sampling (used as ground truth in tests).
    pub fn sample_exact<R: Rng>(&self, rng: &mut R) -> usize {
        let target: f64 = rng.gen_range(0.0..self.total);
        let mut acc = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            acc += w;
            if target < acc {
                return i;
            }
        }
        self.weights.len() - 1
    }

    /// Generates a random target distribution with sample-space size `n`,
    /// exactly `t` outcomes at the maximal probability, and the prescribed
    /// ratio `π_max / π_min` — the knobs of the Figure-1 simulation study.
    pub fn random_with_shape<R: Rng>(n: usize, t: usize, max_min_ratio: f64, rng: &mut R) -> Self {
        assert!(n >= 2 && t >= 1 && t <= n, "invalid shape parameters");
        assert!(max_min_ratio >= 1.0, "ratio must be >= 1");
        let min_w = 1.0;
        let max_w = max_min_ratio;
        let mut weights = vec![0.0f64; n];
        // t outcomes at the maximum.
        for w in weights.iter_mut().take(t) {
            *w = max_w;
        }
        if t < n {
            // one outcome at the exact minimum so the ratio is achieved
            weights[t] = min_w;
            // the rest uniformly between min and max (exclusive of max)
            for w in weights.iter_mut().skip(t + 1) {
                *w = if max_w > min_w {
                    rng.gen_range(min_w..max_w)
                } else {
                    min_w
                };
            }
        }
        // Shuffle so the maxima are not clustered at the front.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            weights.swap(i, j);
        }
        DiscreteDistribution::new(weights)
    }
}

/// Builds the empirical distribution of a sequence of observed outcomes over a
/// sample space of size `n`, with add-one (Laplace) smoothing so the KL
/// divergence is finite even when some outcome was never observed.
pub fn empirical_distribution(samples: &[usize], n: usize) -> Vec<f64> {
    let mut counts = vec![1.0f64; n];
    for &s in samples {
        counts[s] += 1.0;
    }
    let total: f64 = counts.iter().sum();
    counts.iter().map(|c| c / total).collect()
}

/// Unsmoothed empirical distribution (relative frequencies). Outcomes that
/// were never observed get probability 0; this is the estimator used by the
/// Figure-1 initialization study, where the divergence is computed in the
/// direction `KL(empirical ‖ target)` and the target has full support.
pub fn empirical_distribution_unsmoothed(samples: &[usize], n: usize) -> Vec<f64> {
    let mut counts = vec![0.0f64; n];
    for &s in samples {
        counts[s] += 1.0;
    }
    let total: f64 = counts.iter().sum::<f64>().max(1.0);
    counts.iter().map(|c| c / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn basic_properties() {
        let d = DiscreteDistribution::new(vec![1.0, 2.0, 3.0, 2.0]);
        assert_eq!(d.len(), 4);
        assert!((d.prob(2) - 0.375).abs() < 1e-12);
        assert!((d.max_prob() - 0.375).abs() < 1e-12);
        assert!((d.min_prob() - 0.125).abs() < 1e-12);
        assert_eq!(d.num_max(), 1);
        let probs = d.probs();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn num_max_counts_ties() {
        let d = DiscreteDistribution::new(vec![3.0, 1.0, 3.0, 3.0]);
        assert_eq!(d.num_max(), 3);
    }

    #[test]
    fn sample_exact_matches_distribution() {
        let d = DiscreteDistribution::new(vec![1.0, 0.0, 3.0]);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[d.sample_exact(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let p0 = counts[0] as f64 / 40_000.0;
        assert!((p0 - 0.25).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn random_with_shape_honours_parameters() {
        let mut rng = SmallRng::seed_from_u64(7);
        for &(n, t, ratio) in &[(10usize, 2usize, 5.0f64), (100, 5, 100.0), (50, 50, 1.0)] {
            let d = DiscreteDistribution::random_with_shape(n, t, ratio, &mut rng);
            assert_eq!(d.len(), n);
            assert_eq!(d.num_max(), if ratio == 1.0 { n } else { t });
            if ratio > 1.0 {
                let measured = d.max_prob() / d.min_prob();
                assert!(
                    (measured - ratio).abs() / ratio < 1e-6,
                    "ratio {measured} vs {ratio}"
                );
            }
        }
    }

    #[test]
    fn empirical_distribution_unsmoothed_matches_frequencies() {
        let probs = empirical_distribution_unsmoothed(&[0, 0, 1, 2], 4);
        assert_eq!(probs, vec![0.5, 0.25, 0.25, 0.0]);
        // Empty sample list yields the all-zero vector rather than NaN.
        let empty = empirical_distribution_unsmoothed(&[], 3);
        assert_eq!(empty, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn empirical_distribution_smooths() {
        let probs = empirical_distribution(&[0, 0, 1], 3);
        assert_eq!(probs.len(), 3);
        assert!(probs[2] > 0.0);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs[0] > probs[1] && probs[1] > probs[2]);
    }

    #[test]
    #[should_panic]
    fn zero_total_panics() {
        let _ = DiscreteDistribution::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn negative_weight_panics() {
        let _ = DiscreteDistribution::new(vec![1.0, -0.5]);
    }
}
