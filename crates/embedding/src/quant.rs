//! Int8 scalar quantization: the format the HNSW index walks its graph on.
//!
//! A graph search visits scattered rows, so at serving scale it waits on
//! memory, not arithmetic. Quantizing each normalized row to `i8` with one
//! per-row scale cuts the bytes per visit by 4x and lets the kernel layer
//! score candidates with widening integer SIMD ([`crate::kernels::dot_i8`]),
//! at the cost of a small, bounded rounding error. The index uses the int8
//! scores only to *steer* its beam; every node of the final beam is
//! re-scored in f32 before results leave the query plane, so reported
//! similarities stay exact. The codes are internal to the index: computed
//! wherever its normalized rows are, never persisted, never exported.
//!
//! # Format
//!
//! Each row is coded as its offset from a `center` row `c` (the index passes
//! the mean of its rows, [`mean_row`]): row `v` is stored as `d` bytes
//! `q[v][j] = round((x[v][j] − c[j]) / scale[v])` with
//! `scale[v] = max_j |x[v][j] − c[j]| / 127` (a row equal to the center gets
//! scale 0 and all-zero codes). Against an uncentered query `y`, coded the
//! same way with `c = 0`, `dot_i8(q_y, q[v]) · scale_y · scale[v]`
//! approximates `y·(x[v] − c) = y·x[v] − y·c`, exact up to the per-lane
//! rounding of ±`scale/2`. The missing `y·c` is the same for every row, so
//! rows rank as they would by `y·x[v]`.
//!
//! Why center: trained embeddings often sit in a narrow cone (one epoch of
//! skip-gram can leave the mean unit row with norm 0.99), where neighbours'
//! cosines differ in the fourth decimal. Coding the rows themselves spends
//! the 8 bits on the shared direction, and the rounding swamps those
//! differences; coding the offsets spends them on what tells rows apart.

use crate::kernels;

/// A row-major `i8` matrix with one dequantization scale per row.
///
/// Immutable after construction; built once per HNSW index and shared by
/// its readers.
#[derive(Debug, Clone)]
pub(crate) struct QuantizedMatrix {
    dim: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

/// The mean of the rows of a flat row-major matrix (zeros when it has none),
/// summed in f64 and in row order, so it is the same on every run.
pub(crate) fn mean_row(dim: usize, flat: &[f32]) -> Vec<f32> {
    let mut sum = vec![0.0f64; dim];
    for row in flat.chunks_exact(dim) {
        for (s, &x) in sum.iter_mut().zip(row) {
            *s += f64::from(x);
        }
    }
    let rows = (flat.len() / dim).max(1) as f64;
    sum.into_iter().map(|s| (s / rows) as f32).collect()
}

/// `x` (`|x| ≤ 127.5`) rounded to the nearest integer, ties to even, as an
/// `i8`. Adding 1.5·2²³ makes the addition's own rounding produce the
/// integer, left in the low mantissa bits, so the coding loop stays in SIMD
/// registers: `f32::round` is a libm call on the x86_64 baseline, and with
/// a saturating `as i8` it made coding an index's rows cost more than
/// normalizing them (0.78 ms against 0.33 ms for 5 000 rows of 64).
#[inline]
fn round_to_i8(x: f32) -> i8 {
    const SHIFT: f32 = 12_582_912.0;
    ((x + SHIFT).to_bits() as i32 - SHIFT.to_bits() as i32) as i8
}

impl QuantizedMatrix {
    /// Quantizes every row's offset from `center` in a flat row-major f32
    /// matrix (`flat.len()` must be a multiple of `dim`, `center.len()` equal
    /// to it).
    pub(crate) fn quantize(dim: usize, flat: &[f32], center: &[f32]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            flat.len() % dim,
            0,
            "flat vector length must be a multiple of dim"
        );
        assert_eq!(center.len(), dim, "the center must be one row");
        let rows = flat.len() / dim;
        let mut codes = Vec::with_capacity(flat.len());
        let mut scales = Vec::with_capacity(rows);
        let mut offset = vec![0.0f32; dim];
        for row in flat.chunks_exact(dim) {
            for ((o, &x), &c) in offset.iter_mut().zip(row).zip(center) {
                *o = x - c;
            }
            let max_abs = offset.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            if max_abs == 0.0 || !max_abs.is_finite() {
                // A row at the center (or a degenerate one) carries no
                // offset; code it as all-zero so every score against it is 0.
                codes.resize(codes.len() + dim, 0);
                scales.push(0.0);
                continue;
            }
            let scale = max_abs / 127.0;
            let inv = 127.0 / max_abs;
            codes.extend(offset.iter().map(|&x| round_to_i8(x * inv)));
            scales.push(scale);
        }
        QuantizedMatrix { dim, codes, scales }
    }

    /// The `i8` codes of row `v`.
    #[inline]
    pub(crate) fn row(&self, v: u32) -> &[i8] {
        let start = v as usize * self.dim;
        &self.codes[start..start + self.dim]
    }

    /// The dequantization scale of row `v` (0 for a row at the center).
    #[inline]
    pub(crate) fn scale(&self, v: u32) -> f32 {
        self.scales[v as usize]
    }

    /// Approximate dot product of row `v` against an externally quantized
    /// query (see [`quantize_query`](Self::quantize_query)).
    #[inline]
    pub(crate) fn dot_query(&self, query: &[i8], query_scale: f32, v: u32) -> f32 {
        kernels::dot_i8(query, self.row(v)) as f32 * query_scale * self.scale(v)
    }

    /// Quantizes one query vector with the same per-row scheme, returning its
    /// codes and scale for use with [`dot_query`](Self::dot_query).
    pub(crate) fn quantize_query(query: &[f32]) -> (Vec<i8>, f32) {
        let max_abs = query.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        if max_abs == 0.0 || !max_abs.is_finite() {
            return (vec![0; query.len()], 0.0);
        }
        let inv = 127.0 / max_abs;
        (
            query.iter().map(|&x| round_to_i8(x * inv)).collect(),
            max_abs / 127.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Approximate dot product of rows `a` and `b` in the original f32 space.
    fn dot_rows(q: &QuantizedMatrix, a: u32, b: u32) -> f32 {
        q.dot_query(q.row(a), q.scale(a), b)
    }

    #[test]
    fn two_rows_dot_within_rounding() {
        let q = QuantizedMatrix::quantize(2, &[3.0, -1.5, 0.0, 0.5], &[0.0; 2]);
        assert_eq!(q.scales.len(), 2);
        let exact = 3.0 * 0.0 + (-1.5) * 0.5;
        assert!((dot_rows(&q, 0, 1) - exact).abs() < 0.05);
    }

    /// Deterministic pseudo-random value in [-1, 1) — keeps these tests free
    /// of the RNG crate so they run under miri alongside the kernel suite.
    fn lcg(state: &mut u64) -> f32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    }

    #[test]
    fn round_trips_within_half_scale_per_lane() {
        let mut s = 7u64;
        let dim = 17;
        let flat: Vec<f32> = (0..dim * 5).map(|_| lcg(&mut s) * 3.0).collect();
        let q = QuantizedMatrix::quantize(dim, &flat, &vec![0.0; dim]);
        for v in 0..5u32 {
            let row = &flat[v as usize * dim..(v as usize + 1) * dim];
            let scale = q.scale(v);
            for (x, &c) in row.iter().zip(q.row(v)) {
                let err = (x - c as f32 * scale).abs();
                assert!(
                    err <= scale * 0.5 + 1e-6,
                    "lane error {err} vs scale {scale}"
                );
            }
        }
    }

    #[test]
    fn dot_rows_tracks_exact_dot() {
        let mut s = 21u64;
        let dim = 64;
        let flat: Vec<f32> = (0..dim * 8).map(|_| lcg(&mut s)).collect();
        let q = QuantizedMatrix::quantize(dim, &flat, &vec![0.0; dim]);
        for a in 0..8u32 {
            for b in 0..8u32 {
                let exact = kernels::dot(
                    &flat[a as usize * dim..(a as usize + 1) * dim],
                    &flat[b as usize * dim..(b as usize + 1) * dim],
                );
                let approx = dot_rows(&q, a, b);
                // Worst-case error is O(d · scale_a · scale_b); these unit
                // vectors give scales ~1/127, so the bound is loose.
                assert!(
                    (exact - approx).abs() < 0.05,
                    "({a},{b}): {exact} vs {approx}"
                );
            }
        }
    }

    #[test]
    fn zero_rows_and_queries_are_safe() {
        let q = QuantizedMatrix::quantize(3, &[0.0, 0.0, 0.0, 1.0, -2.0, 0.5], &[0.0; 3]);
        assert_eq!(q.scale(0), 0.0);
        assert_eq!(q.row(0), &[0, 0, 0]);
        assert_eq!(dot_rows(&q, 0, 1), 0.0);
        let (codes, scale) = QuantizedMatrix::quantize_query(&[0.0, 0.0, 0.0]);
        assert_eq!((codes.as_slice(), scale), (&[0i8, 0, 0][..], 0.0));
        assert_eq!(q.dot_query(&codes, scale, 1), 0.0);
    }

    #[test]
    fn query_quantization_matches_row_quantization() {
        let row = [0.25f32, -1.5, 0.75, 2.0];
        let q = QuantizedMatrix::quantize(4, &row, &[0.0; 4]);
        let (codes, scale) = QuantizedMatrix::quantize_query(&row);
        assert_eq!(codes.as_slice(), q.row(0));
        assert!((scale - q.scale(0)).abs() < 1e-9);
    }

    #[test]
    fn centered_codes_rank_a_narrow_cone_like_f32() {
        // Unit rows in a narrow cone around one shared direction, as
        // under-trained embeddings can be: every cosine between them is
        // above 0.99. Coded around their mean row, int8 scores put every
        // query's f32 nearest row among their top 16 (a search re-scores a
        // far wider beam in f32); coded as they are, the rounding swamps the
        // differences for most queries.
        let mut s = 5u64;
        let (dim, rows) = (32, 120);
        let shared: Vec<f32> = (0..dim).map(|_| lcg(&mut s)).collect();
        let mut flat = Vec::with_capacity(dim * rows);
        for _ in 0..rows {
            let row: Vec<f32> = shared.iter().map(|x| x + 0.05 * lcg(&mut s)).collect();
            let norm = kernels::l2_norm(&row);
            flat.extend(row.iter().map(|x| x / norm));
        }
        let row = |v: usize| &flat[v * dim..(v + 1) * dim];
        assert!((0..rows).all(|a| (0..rows).all(|b| kernels::dot(row(a), row(b)) > 0.99)));
        let found = |center: &[f32]| {
            let q = QuantizedMatrix::quantize(dim, &flat, center);
            (0..rows)
                .filter(|&query| {
                    let others = (0..rows).filter(|&v| v != query);
                    let exact = others
                        .clone()
                        .max_by(|&a, &b| {
                            let score = |v| kernels::dot(row(query), row(v));
                            score(a).total_cmp(&score(b))
                        })
                        .unwrap();
                    let (codes, scale) = QuantizedMatrix::quantize_query(row(query));
                    let coded = |v: usize| q.dot_query(&codes, scale, v as u32);
                    others.filter(|&v| coded(v) > coded(exact)).count() < 16
                })
                .count()
        };
        let (centered, plain) = (found(&mean_row(dim, &flat)), found(&[0.0; 32]));
        assert_eq!(centered, rows, "centered codes");
        assert!(plain < rows / 2, "plain codes found {plain}/{rows}");
    }

    #[test]
    fn mean_row_is_the_column_mean() {
        assert_eq!(mean_row(2, &[1.0, -2.0, 3.0, 4.0]), vec![2.0, 1.0]);
        assert_eq!(mean_row(3, &[]), vec![0.0; 3]);
    }
}
