//! Shared embedding matrices for Hogwild-style parallel SGD.
//!
//! The original word2vec (and UniNet's trainer) lets all threads update the
//! same parameter matrix without locks; conflicting updates are rare and
//! benign. Rust forbids plain data races, so the matrix stores `f32` bits in
//! relaxed atomic cells: updates remain lock-free and wait-free while the
//! program stays free of undefined behaviour. A cell is an `AtomicU64` that
//! holds two lanes (the lower half is the even column), which halves the
//! atomic operations of a row read or write; an odd-width row ends with one
//! padding lane that stays zero. Hogwild's unit is therefore a lane pair: a
//! racing update may lose both lanes of a cell, never tear one.
//!
//! The trainer keeps a walk's input rows in private copies and writes each
//! back once ([`EmbeddingMatrix::write_back_row`]), adding its delta to what
//! other threads wrote meanwhile: a racing update lands up to one walk late
//! and the copy never drops it (as in `add_row`, a write between one cell's
//! load and store can still be lost).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::kernels;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A `rows x dim` matrix of `f32` parameters with lock-free concurrent access.
pub struct EmbeddingMatrix {
    rows: usize,
    dim: usize,
    /// `dim.div_ceil(2)` cells per row, row-major.
    data: Vec<AtomicU64>,
}

#[inline]
fn unpack(bits: u64) -> [f32; 2] {
    [0, 32].map(|shift| f32::from_bits((bits >> shift) as u32))
}

#[inline]
fn pack(lo: f32, hi: f32) -> u64 {
    u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32
}

impl EmbeddingMatrix {
    /// Creates a zero-initialized matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut m = EmbeddingMatrix {
            rows: 0,
            dim,
            data: Vec::new(),
        };
        m.grow_zeros(rows);
        m
    }

    /// Creates a matrix initialized uniformly in `(-0.5/dim, 0.5/dim)`, the
    /// word2vec input-matrix initialization.
    pub fn uniform(rows: usize, dim: usize, seed: u64) -> Self {
        let mut m = Self::zeros(0, dim);
        m.grow_uniform(rows, seed);
        m
    }

    /// Appends rows up to `new_rows`, drawing their values row by row in
    /// column order.
    fn grow_with(&mut self, new_rows: usize, mut value: impl FnMut() -> f32) {
        let cells = self.dim.div_ceil(2);
        self.data.reserve((new_rows - self.rows) * cells);
        for _ in self.rows..new_rows {
            for k in 0..cells {
                let lo = value();
                let hi = if 2 * k + 1 < self.dim { value() } else { 0.0 };
                self.data.push(AtomicU64::new(pack(lo, hi)));
            }
        }
        self.rows = new_rows;
    }

    /// Number of rows (nodes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimensionality of each row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn cells(&self, row: usize) -> &[AtomicU64] {
        let cells = self.dim.div_ceil(2);
        &self.data[row * cells..(row + 1) * cells]
    }

    /// Copies row `row` into `buf` (length `dim`).
    #[inline]
    pub fn read_row(&self, row: usize, buf: &mut [f32]) {
        debug_assert_eq!(buf.len(), self.dim);
        let cells = self.cells(row);
        let mut pairs = buf.chunks_exact_mut(2);
        for (pair, cell) in (&mut pairs).zip(cells) {
            pair.copy_from_slice(&unpack(cell.load(Ordering::Relaxed)));
        }
        if let [last] = pairs.into_remainder() {
            *last = unpack(cells[cells.len() - 1].load(Ordering::Relaxed))[0];
        }
    }

    /// Adds the vector `delta` (length `dim`) onto row `row`
    /// (read-modify-write per cell, last writer wins — the Hogwild contract).
    #[inline]
    pub fn add_row(&self, row: usize, delta: &[f32]) {
        debug_assert_eq!(delta.len(), self.dim);
        let cells = self.cells(row);
        let mut pairs = delta.chunks_exact(2);
        for (d, cell) in (&mut pairs).zip(cells) {
            let sum = kernels::add_f32_pairs(cell.load(Ordering::Relaxed), pack(d[0], d[1]));
            cell.store(sum, Ordering::Relaxed);
        }
        if let [d] = pairs.remainder() {
            let cell = &cells[cells.len() - 1];
            cell.store(
                kernels::add_f32_pairs(cell.load(Ordering::Relaxed), pack(*d, 0.0)),
                Ordering::Relaxed,
            );
        }
    }

    /// Ends a private copy of row `row`: `read` is the row as
    /// [`read_row`](Self::read_row) gave it when the copy began, `local` what
    /// the copy became. A cell that still holds `read`'s bits takes
    /// `local`'s; one that another writer changed meanwhile takes
    /// `cur + (local − read)`, so that writer's update stays.
    #[inline]
    pub fn write_back_row(&self, row: usize, read: &[f32], local: &[f32]) {
        debug_assert!(read.len() == self.dim && local.len() == self.dim);
        let pair = |v: &[f32]| pack(v[0], v.get(1).copied().unwrap_or(0.0));
        for ((r, l), cell) in read.chunks(2).zip(local.chunks(2)).zip(self.cells(row)) {
            let (cur, was, now) = (cell.load(Ordering::Relaxed), pair(r), pair(l));
            let ([c0, c1], [r0, r1], [l0, l1]) = (unpack(cur), unpack(was), unpack(now));
            let merged = || pack(c0 + (l0 - r0), c1 + (l1 - r1));
            cell.store(if cur == was { now } else { merged() }, Ordering::Relaxed);
        }
    }

    /// Overwrites row `row` with `values` (length `dim`).
    #[inline]
    pub fn write_row(&self, row: usize, values: &[f32]) {
        debug_assert_eq!(values.len(), self.dim);
        for (v, cell) in values.chunks(2).zip(self.cells(row)) {
            cell.store(
                pack(v[0], v.get(1).copied().unwrap_or(0.0)),
                Ordering::Relaxed,
            );
        }
    }

    /// Grows the matrix to `new_rows`, zero-initializing the added rows.
    ///
    /// Shrinking is a no-op: rows are never dropped so retired ids keep their
    /// (unreachable) parameters until a full rebuild. Requires `&mut self`, so
    /// growth cannot race concurrent Hogwild writers by construction.
    pub fn grow_zeros(&mut self, new_rows: usize) {
        if new_rows > self.rows {
            self.grow_with(new_rows, || 0.0);
        }
    }

    /// Grows the matrix to `new_rows`, initializing the added rows uniformly
    /// in `(-0.5/dim, 0.5/dim)` — the word2vec input-matrix initialization.
    ///
    /// The fill is seeded per call so arrivals are deterministic given the
    /// stream; shrinking is a no-op as in [`EmbeddingMatrix::grow_zeros`].
    pub fn grow_uniform(&mut self, new_rows: usize, seed: u64) {
        if new_rows > self.rows {
            let mut rng = SmallRng::seed_from_u64(seed);
            let scale = 0.5 / self.dim as f32;
            self.grow_with(new_rows, || rng.gen_range(-scale..scale));
        }
    }

    /// Extracts the whole matrix as a flat row-major `Vec<f32>`.
    pub fn to_flat(&self) -> Vec<f32> {
        let mut flat = vec![0.0; self.rows * self.dim];
        for (row, buf) in flat.chunks_exact_mut(self.dim).enumerate() {
            self.read_row(row, buf);
        }
        flat
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
        let mut buf = vec![1.0; 4];
        m.read_row(2, &mut buf);
        assert_eq!(buf[3], 0.0);
        m.write_row(1, &[0.0, 0.0, 1.5, 0.0]);
        m.read_row(1, &mut buf);
        assert_eq!(buf[2], 1.5);
        m.add_row(1, &[0.0, 0.0, 0.5, 0.0]);
        m.read_row(1, &mut buf);
        assert_eq!(buf[2], 2.0);
    }

    /// Odd widths end in a padding lane that no row operation may leak or
    /// mix into a neighbouring row.
    #[test]
    fn odd_dims_round_trip() {
        for dim in [1usize, 3, 19] {
            let mut m = EmbeddingMatrix::zeros(2, dim);
            let row = |r: usize| (0..dim).map(|j| (r * 100 + j) as f32).collect::<Vec<_>>();
            m.write_row(0, &row(0));
            m.write_row(1, &row(1));
            m.add_row(1, &vec![0.5; dim]);
            let mut buf = vec![0.0; dim];
            m.read_row(0, &mut buf);
            assert_eq!(buf, row(0), "dim {dim}");
            m.read_row(1, &mut buf);
            let want: Vec<f32> = row(1).iter().map(|x| x + 0.5).collect();
            assert_eq!(buf, want, "dim {dim}");

            m.grow_zeros(3);
            m.grow_uniform(4, 9);
            m.add_row(3, &vec![1.0; dim]);
            let flat = m.to_flat();
            assert_eq!(flat.len(), 4 * dim);
            assert_eq!(&flat[..dim], row(0).as_slice());
            assert_eq!(&flat[dim..2 * dim], want.as_slice());
            assert!(flat[2 * dim..3 * dim].iter().all(|&x| x == 0.0));
            let scale = 0.5 / dim as f32;
            assert!(flat[3 * dim..].iter().all(|&x| (x - 1.0).abs() <= scale));
        }
    }

    /// Two lanes per cell change neither which values `uniform` and
    /// `grow_uniform` draw nor where they land: row after row, column order.
    #[test]
    fn uniform_draws_in_row_major_order() {
        for dim in [1usize, 3, 4, 19] {
            let scale = 0.5 / dim as f32;
            let draws = |seed: u64, n: usize| {
                let mut rng = SmallRng::seed_from_u64(seed);
                (0..n)
                    .map(|_| rng.gen_range(-scale..scale))
                    .collect::<Vec<f32>>()
            };
            let mut m = EmbeddingMatrix::uniform(5, dim, 3);
            assert_eq!(m.to_flat(), draws(3, 5 * dim), "dim {dim}");
            m.grow_uniform(8, 4);
            assert_eq!(m.to_flat()[5 * dim..], draws(4, 3 * dim), "dim {dim}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A row nobody else wrote since the read takes the local copy's bits,
    /// not `cur + (local - read)`, which rounds differently in some lane.
    #[test]
    fn write_back_of_an_untouched_row_stores_the_local_bits() {
        for dim in [1usize, 3, 4, 19] {
            let m = EmbeddingMatrix::zeros(3, dim);
            // `local - read` loses `local` entirely, so `read + (local - read)`
            // is 0 in every lane.
            let read: Vec<f32> = (0..dim).map(|j| 1.0 + j as f32 * 0.37).collect();
            let local: Vec<f32> = (0..dim).map(|j| 1e-9 * (j + 1) as f32).collect();
            m.write_row(1, &read);
            m.write_back_row(1, &read, &local);
            let mut buf = vec![0.0; dim];
            m.read_row(1, &mut buf);
            assert_eq!(bits(&buf), bits(&local), "dim {dim}");
            // Neighbouring rows, and an odd row's padding lane, stay zero.
            let flat = m.to_flat();
            assert!(flat[..dim]
                .iter()
                .chain(&flat[2 * dim..])
                .all(|&x| x == 0.0));
        }
    }

    /// A cell another writer changed since the read ends at
    /// `cur + (local - read)`, so that writer's update stays; the cells it
    /// did not change still take the local bits.
    #[test]
    fn write_back_keeps_what_another_writer_added() {
        for dim in [1usize, 3, 4, 19] {
            let m = EmbeddingMatrix::zeros(2, dim);
            let read: Vec<f32> = (0..dim).map(|j| 1.5 - j as f32 * 0.21).collect();
            let local: Vec<f32> = read.iter().map(|x| x * 0.5 - 0.03).collect();
            m.write_row(0, &read);
            // The other writer moves the first cell (columns 0 and 1) only.
            let mut other = vec![0.0; dim];
            other[..dim.min(2)].fill(0.75);
            m.add_row(0, &other);
            let mut cur = vec![0.0; dim];
            m.read_row(0, &mut cur);
            m.write_back_row(0, &read, &local);
            let mut got = vec![0.0; dim];
            m.read_row(0, &mut got);
            let want: Vec<f32> = (0..dim)
                .map(|j| {
                    if j < 2 {
                        cur[j] + (local[j] - read[j])
                    } else {
                        local[j]
                    }
                })
                .collect();
            assert_eq!(bits(&got), bits(&want), "dim {dim}");
        }
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
        // Hogwild loses updates under contention, and how many depends on
        // scheduling: a thread preempted between its load and its store
        // overwrites everything the others added meanwhile, on any core
        // count. The last store is some thread's read plus one, so every
        // lane holds at least one update and at most all of them.
        let mut buf = vec![0.0; 8];
        m.read_row(0, &mut buf);
        for &x in &buf {
            assert!(x.is_finite() && x > 0.0 && x <= 4000.0, "lane {x}");
        }
    }

    #[test]
    fn concurrent_updates_to_disjoint_rows_all_land() {
        let m = EmbeddingMatrix::zeros(4, 8);
        std::thread::scope(|scope| {
            for row in 0..4 {
                let m = &m;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add_row(row, &[1.0; 8]);
                    }
                });
            }
        });
        // Rows share no cell, so Hogwild loses nothing across them.
        let mut buf = vec![0.0; 8];
        for row in 0..4 {
            m.read_row(row, &mut buf);
            assert_eq!(buf, [1000.0; 8], "row {row}");
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
