//! Shared embedding matrices for Hogwild-style parallel SGD.
//!
//! The original word2vec (and UniNet's trainer) lets all threads update the
//! same parameter matrix without locks; conflicting updates are rare and
//! benign. Rust forbids plain data races, so the matrix stores `f32` bits in
//! relaxed `AtomicU32` cells: updates remain lock-free and wait-free while the
//! program stays free of undefined behaviour.

use std::sync::atomic::{AtomicU32, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A `rows x dim` matrix of `f32` parameters with lock-free concurrent access.
pub struct EmbeddingMatrix {
    rows: usize,
    dim: usize,
    data: Vec<AtomicU32>,
}

impl EmbeddingMatrix {
    /// Creates a zero-initialized matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let data = (0..rows * dim)
            .map(|_| AtomicU32::new(0f32.to_bits()))
            .collect();
        EmbeddingMatrix { rows, dim, data }
    }

    /// Creates a matrix initialized uniformly in `(-0.5/dim, 0.5/dim)`, the
    /// word2vec input-matrix initialization.
    pub fn uniform(rows: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let scale = 0.5 / dim as f32;
        let data = (0..rows * dim)
            .map(|_| AtomicU32::new(rng.gen_range(-scale..scale).to_bits()))
            .collect();
        EmbeddingMatrix { rows, dim, data }
    }

    /// Number of rows (nodes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of each row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Reads one cell.
    #[inline]
    pub fn get(&self, row: usize, j: usize) -> f32 {
        debug_assert!(row < self.rows && j < self.dim);
        f32::from_bits(self.data[row * self.dim + j].load(Ordering::Relaxed))
    }

    /// Writes one cell.
    #[inline]
    pub fn set(&self, row: usize, j: usize, value: f32) {
        debug_assert!(row < self.rows && j < self.dim);
        self.data[row * self.dim + j].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to one cell (read-modify-write, last writer wins —
    /// the Hogwild contract).
    #[inline]
    pub fn add(&self, row: usize, j: usize, delta: f32) {
        let idx = row * self.dim + j;
        let cell = &self.data[idx];
        let current = f32::from_bits(cell.load(Ordering::Relaxed));
        cell.store((current + delta).to_bits(), Ordering::Relaxed);
    }

    /// Copies row `row` into `buf` (length `dim`).
    #[inline]
    pub fn read_row(&self, row: usize, buf: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        let base = row * self.dim;
        for (j, b) in buf.iter_mut().enumerate() {
            *b = f32::from_bits(self.data[base + j].load(Ordering::Relaxed));
        }
    }

    /// Adds the vector `delta` (length `dim`) onto row `row`.
    #[inline]
    pub fn add_row(&self, row: usize, delta: &[f32]) {
        debug_assert_eq!(delta.len(), self.dim);
        let base = row * self.dim;
        for (j, &d) in delta.iter().enumerate() {
            let cell = &self.data[base + j];
            let current = f32::from_bits(cell.load(Ordering::Relaxed));
            cell.store((current + d).to_bits(), Ordering::Relaxed);
        }
    }

    /// Grows the matrix to `new_rows`, zero-initializing the added rows.
    ///
    /// Shrinking is a no-op: rows are never dropped so retired ids keep their
    /// (unreachable) parameters until a full rebuild. Requires `&mut self`, so
    /// growth cannot race concurrent Hogwild writers by construction.
    pub fn grow_zeros(&mut self, new_rows: usize) {
        if new_rows <= self.rows {
            return;
        }
        self.data.extend(
            (self.rows * self.dim..new_rows * self.dim).map(|_| AtomicU32::new(0f32.to_bits())),
        );
        self.rows = new_rows;
    }

    /// Grows the matrix to `new_rows`, initializing the added rows uniformly
    /// in `(-0.5/dim, 0.5/dim)` — the word2vec input-matrix initialization.
    ///
    /// The fill is seeded per call so arrivals are deterministic given the
    /// stream; shrinking is a no-op as in [`EmbeddingMatrix::grow_zeros`].
    pub fn grow_uniform(&mut self, new_rows: usize, seed: u64) {
        if new_rows <= self.rows {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let scale = 0.5 / self.dim as f32;
        self.data.extend(
            (self.rows * self.dim..new_rows * self.dim)
                .map(|_| AtomicU32::new(rng.gen_range(-scale..scale).to_bits())),
        );
        self.rows = new_rows;
    }

    /// Overwrites row `row` with `values` (length `dim`).
    #[inline]
    pub fn write_row(&self, row: usize, values: &[f32]) {
        debug_assert_eq!(values.len(), self.dim);
        let base = row * self.dim;
        for (j, &v) in values.iter().enumerate() {
            self.data[base + j].store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Extracts the whole matrix as a flat row-major `Vec<f32>`.
    pub fn to_flat(&self) -> Vec<f32> {
        self.data
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let m = EmbeddingMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.get(2, 3), 0.0);
        m.set(1, 2, 1.5);
        assert_eq!(m.get(1, 2), 1.5);
        m.add(1, 2, 0.5);
        assert_eq!(m.get(1, 2), 2.0);
    }

    #[test]
    fn uniform_init_is_bounded_and_nonzero() {
        let m = EmbeddingMatrix::uniform(10, 16, 7);
        let flat = m.to_flat();
        let bound = 0.5 / 16.0;
        assert!(flat.iter().all(|&x| x.abs() <= bound));
        assert!(flat.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn row_operations() {
        let m = EmbeddingMatrix::zeros(2, 3);
        m.add_row(1, &[1.0, 2.0, 3.0]);
        let mut buf = vec![0.0; 3];
        m.read_row(1, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        // row 0 untouched
        m.read_row(0, &mut buf);
        assert_eq!(buf, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn concurrent_updates_accumulate_roughly() {
        let m = EmbeddingMatrix::zeros(1, 8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = &m;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add_row(0, &[1.0; 8]);
                    }
                });
            }
        });
        // Hogwild loses some updates under contention but most must land.
        // On a single hardware thread, preemption can park a thread holding a
        // stale read for arbitrarily long and wipe nearly everything it did
        // not observe, so the lower bound only holds under real parallelism.
        let parallel = std::thread::available_parallelism()
            .map(|p| p.get() > 1)
            .unwrap_or(false);
        let mut buf = vec![0.0; 8];
        m.read_row(0, &mut buf);
        for &x in &buf {
            if parallel {
                assert!(x > 1000.0, "too many lost updates: {x}");
            } else {
                assert!(x > 0.0, "all updates lost: {x}");
            }
            assert!(x <= 4000.0);
        }
    }

    #[test]
    fn deterministic_uniform_seed() {
        let a = EmbeddingMatrix::uniform(4, 4, 3).to_flat();
        let b = EmbeddingMatrix::uniform(4, 4, 3).to_flat();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn zero_dim_panics() {
        let _ = EmbeddingMatrix::zeros(2, 0);
    }

    #[test]
    fn grow_preserves_existing_rows() {
        let mut m = EmbeddingMatrix::uniform(3, 4, 11);
        let before = m.to_flat();
        m.grow_zeros(5);
        assert_eq!(m.rows(), 5);
        assert_eq!(&m.to_flat()[..12], before.as_slice());
        assert!(m.to_flat()[12..].iter().all(|&x| x == 0.0));

        m.grow_uniform(7, 42);
        assert_eq!(m.rows(), 7);
        let flat = m.to_flat();
        assert_eq!(&flat[..12], before.as_slice());
        let bound = 0.5 / 4.0;
        assert!(flat[20..].iter().all(|&x| x.abs() <= bound));
        assert!(flat[20..].iter().any(|&x| x != 0.0));

        // Shrinking is a no-op.
        m.grow_zeros(2);
        assert_eq!(m.rows(), 7);
    }

    #[test]
    fn write_row_overwrites() {
        let m = EmbeddingMatrix::uniform(2, 3, 1);
        m.write_row(1, &[9.0, 8.0, 7.0]);
        let mut buf = vec![0.0; 3];
        m.read_row(1, &mut buf);
        assert_eq!(buf, vec![9.0, 8.0, 7.0]);
    }
}
