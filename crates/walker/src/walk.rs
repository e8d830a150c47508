//! The output of random-walk generation: a corpus of node sequences.

use uninet_graph::NodeId;

/// A collection of random walks, the "training corpus" fed to word2vec.
#[derive(Debug, Clone, Default)]
pub struct WalkCorpus {
    walks: Vec<Vec<NodeId>>,
}

impl WalkCorpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a corpus from pre-generated walks.
    pub fn from_walks(walks: Vec<Vec<NodeId>>) -> Self {
        WalkCorpus { walks }
    }

    /// Appends one walk.
    pub fn push(&mut self, walk: Vec<NodeId>) {
        self.walks.push(walk);
    }

    /// Merges another corpus into this one.
    pub fn extend(&mut self, other: WalkCorpus) {
        self.walks.extend(other.walks);
    }

    /// Number of walks.
    pub fn num_walks(&self) -> usize {
        self.walks.len()
    }

    /// True when the corpus holds no walks.
    pub fn is_empty(&self) -> bool {
        self.walks.is_empty()
    }

    /// Total number of node occurrences over all walks.
    pub fn total_tokens(&self) -> usize {
        self.walks.iter().map(Vec::len).sum()
    }

    /// Average walk length.
    pub fn mean_length(&self) -> f64 {
        if self.walks.is_empty() {
            0.0
        } else {
            self.total_tokens() as f64 / self.walks.len() as f64
        }
    }

    /// Iterator over the walks.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.walks.iter().map(Vec::as_slice)
    }

    /// The underlying walks.
    pub fn walks(&self) -> &[Vec<NodeId>] {
        &self.walks
    }

    /// One walk by index.
    pub fn walk(&self, i: usize) -> &[NodeId] {
        &self.walks[i]
    }

    /// Replaces the walk at `i` (used by incremental walk refresh).
    pub fn set_walk(&mut self, i: usize, walk: Vec<NodeId>) {
        self.walks[i] = walk;
    }

    /// Per-node visit counts over the corpus (length = `num_nodes`).
    ///
    /// Useful both for verifying the stationary behaviour of samplers and for
    /// building word2vec vocabularies with correct frequencies.
    pub fn visit_counts(&self, num_nodes: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_nodes];
        for walk in &self.walks {
            for &v in walk {
                counts[v as usize] += 1;
            }
        }
        counts
    }
}

impl<'a> IntoIterator for &'a WalkCorpus {
    type Item = &'a Vec<NodeId>;
    type IntoIter = std::slice::Iter<'a, Vec<NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.walks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_counts() {
        let mut c = WalkCorpus::new();
        assert!(c.is_empty());
        c.push(vec![0, 1, 2]);
        c.push(vec![2, 1]);
        assert_eq!(c.num_walks(), 2);
        assert_eq!(c.total_tokens(), 5);
        assert!((c.mean_length() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn visit_counts_accumulate() {
        let c = WalkCorpus::from_walks(vec![vec![0, 1, 1], vec![2, 1]]);
        let counts = c.visit_counts(4);
        assert_eq!(counts, vec![1, 3, 1, 0]);
    }

    #[test]
    fn extend_merges() {
        let mut a = WalkCorpus::from_walks(vec![vec![0]]);
        let b = WalkCorpus::from_walks(vec![vec![1], vec![2]]);
        a.extend(b);
        assert_eq!(a.num_walks(), 3);
    }

    #[test]
    fn iteration_yields_slices() {
        let c = WalkCorpus::from_walks(vec![vec![0, 1], vec![2]]);
        let lens: Vec<usize> = c.iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![2, 1]);
        let borrowed: Vec<usize> = (&c).into_iter().map(|w| w.len()).collect();
        assert_eq!(borrowed, lens);
        assert_eq!(c.walks().len(), 2);
    }

    #[test]
    fn empty_mean_length_is_zero() {
        assert_eq!(WalkCorpus::new().mean_length(), 0.0);
    }
}
