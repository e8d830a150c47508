//! Initialization strategies for M-H edge samplers (Section III-C).
//!
//! Every walker state owns one M-H chain whose first sample must come from
//! somewhere. The paper studies three choices:
//!
//! * **Burn-in** — run the chain for a number of throw-away iterations; the
//!   classical MCMC approach, accurate but expensive when there are `#state`
//!   chains (42–47% of total walk cost in Figure 6).
//! * **Random** — draw the initial sample uniformly: `O(1)`, but inaccurate
//!   for skewed target distributions.
//! * **High-weight** — start from (an approximation of) the maximum-weight
//!   edge, i.e. a point in the high-probability region. Theorem 3 gives the
//!   condition under which this beats random initialization.

use rand::Rng;

/// How an M-H chain chooses its first sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitStrategy {
    /// Uniformly random initial sample (`π₀ = 1/n`).
    Random,
    /// Start at the (approximate) maximum-weight neighbor. `probe` limits how
    /// many uniformly-sampled neighbors are inspected; `usize::MAX` (or any
    /// value ≥ degree) means an exact scan.
    HighWeight {
        /// Number of neighbors probed to approximate the maximum.
        probe: usize,
    },
    /// Classical burn-in: run `iterations` M-H steps and discard them.
    BurnIn {
        /// Number of discarded iterations.
        iterations: usize,
    },
}

impl InitStrategy {
    /// The paper's default high-weight strategy with an exact maximum scan.
    pub fn high_weight_exact() -> Self {
        InitStrategy::HighWeight { probe: usize::MAX }
    }

    /// Short label used in benchmark tables ("Rand", "Weight", "Burn").
    pub fn label(&self) -> &'static str {
        match self {
            InitStrategy::Random => "Rand",
            InitStrategy::HighWeight { .. } => "Weight",
            InitStrategy::BurnIn { .. } => "Burn",
        }
    }

    /// Chooses the initial sample index for a state with `deg` candidates and
    /// the given unnormalized weight function.
    ///
    /// For `BurnIn` this returns only the *starting point* (uniform); the
    /// discarded iterations themselves are executed by the chain via
    /// [`crate::metropolis_hastings::MhChain::burn_in`].
    pub fn initial_sample<R: Rng, F: Fn(usize) -> f32>(
        &self,
        deg: usize,
        weight: F,
        rng: &mut R,
    ) -> usize {
        assert!(deg > 0, "cannot initialize a sampler over zero candidates");
        match *self {
            InitStrategy::Random | InitStrategy::BurnIn { .. } => rng.gen_range(0..deg),
            InitStrategy::HighWeight { probe } => {
                if probe >= deg {
                    // Exact maximum scan.
                    let mut best = 0usize;
                    let mut best_w = weight(0);
                    for k in 1..deg {
                        let w = weight(k);
                        if w > best_w {
                            best_w = w;
                            best = k;
                        }
                    }
                    best
                } else {
                    // Approximate maximum via uniform probing, justified by the
                    // law of large numbers in the paper.
                    let mut best = rng.gen_range(0..deg);
                    let mut best_w = weight(best);
                    for _ in 1..probe.max(1) {
                        let k = rng.gen_range(0..deg);
                        let w = weight(k);
                        if w > best_w {
                            best_w = w;
                            best = k;
                        }
                    }
                    best
                }
            }
        }
    }

    /// Number of extra M-H iterations to run (and discard) after choosing the
    /// initial sample.
    pub fn burn_in_iterations(&self) -> usize {
        match *self {
            InitStrategy::BurnIn { iterations } => iterations,
            _ => 0,
        }
    }
}

/// Evaluates the condition of Theorem 3: returns `true` when the high-weight
/// initialization strategy is predicted to converge faster than the random
/// one for a target distribution with maximal probability `pi_max`, minimal
/// probability `pi_min`, sample-space size `n` and `t` outcomes at the max.
pub fn high_weight_preferred(pi_max: f64, pi_min: f64, n: usize, t: usize) -> bool {
    let n = n as f64;
    let t = t as f64;
    let cond1 = pi_max < 1.0 / (2.0 * t) && pi_max / pi_min > n / t;
    let cond2 = pi_max >= 1.0 / (2.0 * t) && pi_min < 1.0 / (2.0 * n);
    cond1 || cond2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn labels() {
        assert_eq!(InitStrategy::Random.label(), "Rand");
        assert_eq!(InitStrategy::high_weight_exact().label(), "Weight");
        let burn_in = InitStrategy::BurnIn { iterations: 100 };
        assert_eq!(burn_in.label(), "Burn");
        assert_eq!(burn_in.burn_in_iterations(), 100);
        assert_eq!(InitStrategy::Random.burn_in_iterations(), 0);
    }

    #[test]
    fn high_weight_exact_finds_max() {
        let weights = [1.0f32, 5.0, 2.0, 4.9];
        let mut rng = SmallRng::seed_from_u64(3);
        let s = InitStrategy::high_weight_exact();
        for _ in 0..20 {
            assert_eq!(s.initial_sample(4, |k| weights[k], &mut rng), 1);
        }
    }

    #[test]
    fn high_weight_probe_is_usually_good() {
        // 100 candidates, one big outlier; probing 32 should find it often but
        // must at least return a valid index every time.
        let mut weights = vec![1.0f32; 100];
        weights[37] = 100.0;
        let mut rng = SmallRng::seed_from_u64(4);
        let s = InitStrategy::HighWeight { probe: 32 };
        let mut hit = 0;
        for _ in 0..200 {
            let k = s.initial_sample(100, |k| weights[k], &mut rng);
            assert!(k < 100);
            if k == 37 {
                hit += 1;
            }
        }
        assert!(hit > 30, "outlier found only {hit} times");
    }

    #[test]
    fn random_init_covers_space() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(InitStrategy::Random.initial_sample(10, |_| 1.0, &mut rng));
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn theorem3_conditions() {
        // Skewed distribution: n = 1000, t = 1, pi_max = 0.3, pi_min tiny.
        assert!(high_weight_preferred(0.3, 1e-6, 1000, 1));
        // Uniform distribution: random and high-weight equivalent; condition false.
        assert!(!high_weight_preferred(0.001, 0.001, 1000, 1000));
        // Case 1 branch: pi_max < 1/(2t) and ratio > n/t.
        assert!(high_weight_preferred(0.01, 0.0001, 100, 5));
        // Mild skew below the n/t threshold.
        assert!(!high_weight_preferred(0.012, 0.008, 100, 1));
    }

    #[test]
    #[should_panic]
    fn zero_degree_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = InitStrategy::Random.initial_sample(0, |_| 1.0, &mut rng);
    }
}
