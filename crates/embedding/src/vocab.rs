//! Vocabulary: node frequencies over a walk corpus.
//!
//! Because the "words" of a walk corpus are node ids in `0..num_nodes`, the
//! vocabulary is a dense count array rather than a hash map; indices are the
//! node ids themselves.

/// Token frequencies over the corpus.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    counts: Vec<u64>,
    total: u64,
}

impl Vocabulary {
    /// Builds a vocabulary from an iterator over walks.
    pub fn from_walks<'a, I>(num_nodes: usize, walks: I) -> Self
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        let mut counts = vec![0u64; num_nodes];
        for walk in walks {
            for &v in walk {
                counts[v as usize] += 1;
            }
        }
        let total = counts.iter().sum();
        Vocabulary { counts, total }
    }

    /// Builds a vocabulary directly from per-node counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let total = counts.iter().sum();
        Vocabulary { counts, total }
    }

    /// Number of distinct tokens (== number of nodes, including unseen ones).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the vocabulary covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Occurrences of node `v` in the corpus.
    pub fn count(&self, v: u32) -> u64 {
        self.counts[v as usize]
    }

    /// Total number of tokens in the corpus.
    pub fn total_tokens(&self) -> u64 {
        self.total
    }

    /// Relative frequency of node `v`.
    pub fn frequency(&self, v: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[v as usize] as f64 / self.total as f64
        }
    }

    /// The word2vec sub-sampling keep-probability for node `v` with threshold
    /// `t` (`1e-3` typically): frequent tokens are randomly dropped to speed up
    /// training and improve rare-token representations.
    pub fn keep_probability(&self, v: u32, t: f64) -> f64 {
        let f = self.frequency(v);
        if f <= 0.0 || t <= 0.0 {
            return 1.0;
        }
        ((t / f).sqrt() + t / f).min(1.0)
    }

    /// The raw count array.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Grows the vocabulary to cover `num_nodes` ids, new ids with count 0.
    /// Shrinking is a no-op (retired ids keep their historical counts).
    pub fn grow(&mut self, num_nodes: usize) {
        if num_nodes > self.counts.len() {
            self.counts.resize(num_nodes, 0);
        }
    }

    /// Raises node `v`'s count to at least `min`.
    ///
    /// Streaming arrivals enter the vocabulary with no corpus history; giving
    /// them a count floor ensures the rebuilt negative-sampling table can draw
    /// them, so their output rows receive gradient signal during burn-in.
    pub fn ensure_min_count(&mut self, v: u32, min: u64) {
        let c = &mut self.counts[v as usize];
        if *c < min {
            self.total += min - *c;
            *c = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vocab() -> Vocabulary {
        let walks: Vec<Vec<u32>> = vec![vec![0, 1, 2, 1], vec![1, 3]];
        Vocabulary::from_walks(5, walks.iter().map(|w| w.as_slice()))
    }

    #[test]
    fn counts_and_totals() {
        let v = sample_vocab();
        assert_eq!(v.len(), 5);
        assert_eq!(v.count(1), 3);
        assert_eq!(v.count(4), 0);
        assert_eq!(v.total_tokens(), 6);
        assert!((v.frequency(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_counts_matches() {
        let v = Vocabulary::from_counts(vec![1, 3, 1, 1, 0]);
        assert_eq!(v.total_tokens(), 6);
        assert_eq!(v.count(1), 3);
    }

    #[test]
    fn keep_probability_penalizes_frequent_tokens() {
        let v = sample_vocab();
        let frequent = v.keep_probability(1, 1e-3);
        let rare = v.keep_probability(3, 1e-3);
        assert!(frequent < rare);
        assert!(frequent > 0.0 && rare <= 1.0);
        // Unseen tokens and degenerate thresholds keep probability 1.
        assert_eq!(v.keep_probability(4, 1e-3), 1.0);
        assert_eq!(v.keep_probability(1, 0.0), 1.0);
    }

    #[test]
    fn grow_and_count_floor() {
        let mut v = sample_vocab();
        v.grow(8);
        assert_eq!(v.len(), 8);
        assert_eq!(v.count(7), 0);
        assert_eq!(v.total_tokens(), 6);
        v.ensure_min_count(7, 1);
        assert_eq!(v.count(7), 1);
        assert_eq!(v.total_tokens(), 7);
        // Already above the floor: untouched.
        v.ensure_min_count(1, 1);
        assert_eq!(v.count(1), 3);
        assert_eq!(v.total_tokens(), 7);
        // Shrinking is a no-op.
        v.grow(2);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn empty_vocab() {
        let v = Vocabulary::from_counts(vec![]);
        assert!(v.is_empty());
        assert_eq!(v.total_tokens(), 0);
    }
}
