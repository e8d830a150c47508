//! Unified SIMD kernels — the single dot/cosine/norm implementation for the
//! whole query plane, and the trainer's fused SGNS update.
//!
//! Every similarity computed while serving queries (the exact scan in
//! `store.rs`, HNSW traversal and neighbour selection in `ann.rs`,
//! [`Embeddings::cosine_similarity`](crate::Embeddings::cosine_similarity))
//! and every score of the training window kernel
//! ([`skipgram::WindowScratch`](crate::skipgram::WindowScratch)) routes
//! through this module, so:
//!
//! * the hot loops are vectorized once, not four times, and
//! * **every path produces bit-identical scores**, which keeps top-k
//!   tie-breaking consistent between the exact scan and the ANN index.
//!
//! # Dispatch
//!
//! On `x86_64` the backend is picked once per process with
//! `is_x86_feature_detected!` and cached in an atomic function-pointer-style
//! selector:
//!
//! | backend  | selected when                  | f32 kernels      | i8 kernel |
//! |----------|--------------------------------|------------------|-----------|
//! | `avx2`   | AVX2 + FMA available           | 8 lanes, FMA     | 32 lanes  |
//! | `sse2`   | x86_64 baseline                | 4 lanes          | 16 lanes  |
//! | `scalar` | other arches / `force-scalar`  | portable loop    | portable  |
//!
//! The `force-scalar` cargo feature pins the portable implementation at
//! compile time; CI runs the embedding test-suite under both builds and the
//! differential proptest suite (`tests/proptest_kernels.rs`) pins the SIMD
//! kernels to the scalar reference within a summation-error ULP bound.
//!
//! # Safety
//!
//! The `unsafe` here is confined to thin wrappers around `core::arch`
//! intrinsics. Each wrapper is only reachable after the matching CPUID
//! feature check, takes plain `&[f32]`/`&[i8]` slices, uses exclusively
//! *unaligned* loads, and processes the tail with the scalar loop — no
//! pointer arithmetic escapes the slice bounds. The wrappers are exercised
//! under miri in CI.
//!
//! ```
//! use uninet_embedding::kernels;
//!
//! let a = [1.0f32, 2.0, 3.0];
//! let b = [4.0f32, 5.0, 6.0];
//! assert_eq!(kernels::dot(&a, &b), 32.0);
//! assert_eq!(kernels::squared_norm(&a), 14.0);
//! assert!(kernels::backend_name() == "avx2"
//!     || kernels::backend_name() == "sse2"
//!     || kernels::backend_name() == "scalar");
//! ```

/// Portable reference implementations.
///
/// These are the semantics every SIMD backend is differential-tested
/// against; they are public so benchmarks and tests can measure/compare the
/// scalar baseline explicitly even in a SIMD build.
pub mod reference {
    /// Scalar dot product.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    /// Scalar sum of squares.
    #[inline]
    pub fn squared_norm(a: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for x in a {
            acc += x * x;
        }
        acc
    }

    /// Scalar fused SGNS update, lane by lane and in this order:
    /// `d_in += g·out; out += g·inp; d_out += g·inp` — the input gradient
    /// sees the output row as it was *before* this update moved it.
    #[inline]
    pub fn sgns_update(g: f32, inp: &[f32], out: &mut [f32], d_in: &mut [f32], d_out: &mut [f32]) {
        debug_assert!(
            inp.len() == out.len() && inp.len() == d_in.len() && inp.len() == d_out.len()
        );
        for (((&x, o), di), d_o) in inp.iter().zip(out).zip(d_in).zip(d_out) {
            *di += g * *o;
            *o += g * x;
            *d_o += g * x;
        }
    }

    /// Scalar i8·i8 → i32 dot product (exact; no overflow for dims < 2^16).
    #[inline]
    pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            acc += x as i32 * y as i32;
        }
        acc
    }
}

/// Which SIMD backend the process dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelBackend {
    /// Portable scalar loops (non-x86_64, or the `force-scalar` feature).
    Scalar = 0,
    /// SSE2: 4 f32 lanes / 16 i8 lanes (the x86_64 baseline).
    Sse2 = 1,
    /// AVX2 + FMA: 8 f32 lanes / 32 i8 lanes.
    Avx2 = 2,
}

impl KernelBackend {
    /// Stable lowercase name (`"scalar"`, `"sse2"`, `"avx2"`), for logs,
    /// benchmarks and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod dispatch {
    use super::KernelBackend;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0xFF = not yet detected; otherwise a `KernelBackend` discriminant.
    static BACKEND: AtomicU8 = AtomicU8::new(0xFF);

    #[inline]
    pub fn backend() -> KernelBackend {
        match BACKEND.load(Ordering::Relaxed) {
            0 => KernelBackend::Scalar,
            1 => KernelBackend::Sse2,
            2 => KernelBackend::Avx2,
            _ => detect(),
        }
    }

    #[cold]
    fn detect() -> KernelBackend {
        let picked = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            KernelBackend::Avx2
        } else if is_x86_feature_detected!("sse2") {
            KernelBackend::Sse2
        } else {
            KernelBackend::Scalar
        };
        BACKEND.store(picked as u8, Ordering::Relaxed);
        picked
    }
}

#[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
mod dispatch {
    use super::KernelBackend;

    #[inline]
    pub fn backend() -> KernelBackend {
        KernelBackend::Scalar
    }
}

/// The backend runtime dispatch selected for this process.
#[inline]
pub fn backend() -> KernelBackend {
    dispatch::backend()
}

/// The selected backend's stable name (`"avx2"` / `"sse2"` / `"scalar"`).
#[inline]
pub fn backend_name() -> &'static str {
    backend().name()
}

#[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
mod x86 {
    //! `core::arch` intrinsic wrappers. Safety contract for every function:
    //! the caller must have verified the matching CPU feature at runtime
    //! (`dispatch::backend()` does); slices of any length are accepted, the
    //! vector body covers the largest lane-multiple prefix and the scalar
    //! tail handles the remainder.
    use std::arch::x86_64::*;

    /// AVX2+FMA dot product: 8-lane FMA accumulation, horizontal sum once.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (checked by the dispatcher).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i * 8));
            acc = _mm256_fmadd_ps(va, vb, acc);
        }
        let mut out = hsum256(acc);
        for i in chunks * 8..n {
            out += a.get_unchecked(i) * b.get_unchecked(i);
        }
        out
    }

    /// AVX2+FMA sum of squares.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (checked by the dispatcher).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn squared_norm_avx2(a: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(i * 8));
            acc = _mm256_fmadd_ps(va, va, acc);
        }
        let mut out = hsum256(acc);
        for i in chunks * 8..n {
            let x = *a.get_unchecked(i);
            out += x * x;
        }
        out
    }

    /// AVX2+FMA fused SGNS update (see [`super::sgns_update`]): one pass over
    /// the four rows, three FMAs per 8 lanes.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (checked by the dispatcher) and four slices of
    /// one length (checked by [`super::sgns_update`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sgns_update_avx2(
        g: f32,
        inp: &[f32],
        out: &mut [f32],
        d_in: &mut [f32],
        d_out: &mut [f32],
    ) {
        let n = inp.len();
        debug_assert!(out.len() == n && d_in.len() == n && d_out.len() == n);
        let chunks = n / 8;
        let vg = _mm256_set1_ps(g);
        for i in 0..chunks {
            let at = i * 8;
            let vi = _mm256_loadu_ps(inp.as_ptr().add(at));
            let vo = _mm256_loadu_ps(out.as_ptr().add(at));
            let vdi = _mm256_loadu_ps(d_in.as_ptr().add(at));
            let vdo = _mm256_loadu_ps(d_out.as_ptr().add(at));
            _mm256_storeu_ps(d_in.as_mut_ptr().add(at), _mm256_fmadd_ps(vg, vo, vdi));
            _mm256_storeu_ps(out.as_mut_ptr().add(at), _mm256_fmadd_ps(vg, vi, vo));
            _mm256_storeu_ps(d_out.as_mut_ptr().add(at), _mm256_fmadd_ps(vg, vi, vdo));
        }
        let done = chunks * 8;
        super::reference::sgns_update(
            g,
            &inp[done..],
            &mut out[done..],
            &mut d_in[done..],
            &mut d_out[done..],
        );
    }

    /// AVX2 i8 dot product: sign-extend 16 lanes at a time to i16, multiply
    /// into i32 pairs with `madd`, accumulate in i32 lanes. Exact.
    ///
    /// # Safety
    /// Requires AVX2 (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 16;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let va = _mm_loadu_si128(a.as_ptr().add(i * 16) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i * 16) as *const __m128i);
            let wa = _mm256_cvtepi8_epi16(va);
            let wb = _mm256_cvtepi8_epi16(vb);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
        }
        let mut out = hsum256_epi32(acc);
        for i in chunks * 16..n {
            out += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        }
        out
    }

    /// SSE2 dot product: 4-lane multiply-add.
    ///
    /// # Safety
    /// Requires SSE2 (always true on x86_64; checked by the dispatcher).
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 4;
        let mut acc = _mm_setzero_ps();
        for i in 0..chunks {
            let va = _mm_loadu_ps(a.as_ptr().add(i * 4));
            let vb = _mm_loadu_ps(b.as_ptr().add(i * 4));
            acc = _mm_add_ps(acc, _mm_mul_ps(va, vb));
        }
        let mut out = hsum128(acc);
        for i in chunks * 4..n {
            out += a.get_unchecked(i) * b.get_unchecked(i);
        }
        out
    }

    /// SSE2 sum of squares.
    ///
    /// # Safety
    /// Requires SSE2 (checked by the dispatcher).
    #[target_feature(enable = "sse2")]
    pub unsafe fn squared_norm_sse2(a: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 4;
        let mut acc = _mm_setzero_ps();
        for i in 0..chunks {
            let va = _mm_loadu_ps(a.as_ptr().add(i * 4));
            acc = _mm_add_ps(acc, _mm_mul_ps(va, va));
        }
        let mut out = hsum128(acc);
        for i in chunks * 4..n {
            let x = *a.get_unchecked(i);
            out += x * x;
        }
        out
    }

    /// SSE2 fused SGNS update (see [`super::sgns_update`]): 4-lane
    /// multiply-add, rounding exactly as the scalar reference does.
    ///
    /// # Safety
    /// Requires SSE2 (checked by the dispatcher) and four slices of one
    /// length (checked by [`super::sgns_update`]).
    #[target_feature(enable = "sse2")]
    pub unsafe fn sgns_update_sse2(
        g: f32,
        inp: &[f32],
        out: &mut [f32],
        d_in: &mut [f32],
        d_out: &mut [f32],
    ) {
        let n = inp.len();
        debug_assert!(out.len() == n && d_in.len() == n && d_out.len() == n);
        let chunks = n / 4;
        let vg = _mm_set1_ps(g);
        for i in 0..chunks {
            let at = i * 4;
            let vi = _mm_loadu_ps(inp.as_ptr().add(at));
            let vo = _mm_loadu_ps(out.as_ptr().add(at));
            let vdi = _mm_loadu_ps(d_in.as_ptr().add(at));
            let vdo = _mm_loadu_ps(d_out.as_ptr().add(at));
            let step = _mm_mul_ps(vg, vi);
            _mm_storeu_ps(
                d_in.as_mut_ptr().add(at),
                _mm_add_ps(vdi, _mm_mul_ps(vg, vo)),
            );
            _mm_storeu_ps(out.as_mut_ptr().add(at), _mm_add_ps(vo, step));
            _mm_storeu_ps(d_out.as_mut_ptr().add(at), _mm_add_ps(vdo, step));
        }
        let done = chunks * 4;
        super::reference::sgns_update(
            g,
            &inp[done..],
            &mut out[done..],
            &mut d_in[done..],
            &mut d_out[done..],
        );
    }

    /// SSE2 i8 dot product via i16 widening + `madd`. Exact.
    ///
    /// # Safety
    /// Requires SSE2 (checked by the dispatcher).
    #[target_feature(enable = "sse2")]
    pub unsafe fn dot_i8_sse2(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm_setzero_si128();
        for i in 0..chunks {
            // Load 8 bytes, sign-extend to 8 i16 lanes (SSE2 has no cvtepi8,
            // so shift a doubled copy down arithmetically).
            let va = _mm_loadl_epi64(a.as_ptr().add(i * 8) as *const __m128i);
            let vb = _mm_loadl_epi64(b.as_ptr().add(i * 8) as *const __m128i);
            let wa = _mm_srai_epi16(_mm_unpacklo_epi8(va, va), 8);
            let wb = _mm_srai_epi16(_mm_unpacklo_epi8(vb, vb), 8);
            acc = _mm_add_epi32(acc, _mm_madd_epi16(wa, wb));
        }
        let mut out = hsum128_epi32(acc);
        for i in chunks * 8..n {
            out += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        }
        out
    }

    /// Horizontal sum of 8 f32 lanes.
    ///
    /// # Safety
    /// Requires AVX (subset of the callers' AVX2 requirement).
    #[target_feature(enable = "avx")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        hsum128(_mm_add_ps(lo, hi))
    }

    /// Horizontal sum of 4 f32 lanes.
    ///
    /// # Safety
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    unsafe fn hsum128(v: __m128) -> f32 {
        let shuf = _mm_shuffle_ps(v, v, 0b10_11_00_01); // [1,0,3,2]
        let sums = _mm_add_ps(v, shuf);
        let hi = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, hi))
    }

    /// Horizontal sum of 8 i32 lanes.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256_epi32(v: __m256i) -> i32 {
        let hi = _mm256_extracti128_si256(v, 1);
        let lo = _mm256_castsi256_si128(v);
        hsum128_epi32(_mm_add_epi32(lo, hi))
    }

    /// Horizontal sum of 4 i32 lanes.
    ///
    /// # Safety
    /// Requires SSE2.
    #[target_feature(enable = "sse2")]
    unsafe fn hsum128_epi32(v: __m128i) -> i32 {
        let hi = _mm_shuffle_epi32(v, 0b01_00_11_10);
        let sum = _mm_add_epi32(v, hi);
        let hi2 = _mm_shuffle_epi32(sum, 0b00_00_00_01);
        _mm_cvtsi128_si32(_mm_add_epi32(sum, hi2))
    }
}

/// Dot product of two equal-length vectors, SIMD-dispatched.
///
/// # Panics
///
/// Panics (in debug builds) when the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        match dispatch::backend() {
            // SAFETY: feature presence verified by the dispatcher.
            KernelBackend::Avx2 => return unsafe { x86::dot_avx2(a, b) },
            KernelBackend::Sse2 => return unsafe { x86::dot_sse2(a, b) },
            KernelBackend::Scalar => {}
        }
    }
    reference::dot(a, b)
}

/// Sum of squares (`‖a‖²`), SIMD-dispatched.
#[inline]
pub fn squared_norm(a: &[f32]) -> f32 {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        match dispatch::backend() {
            // SAFETY: feature presence verified by the dispatcher.
            KernelBackend::Avx2 => return unsafe { x86::squared_norm_avx2(a) },
            KernelBackend::Sse2 => return unsafe { x86::squared_norm_sse2(a) },
            KernelBackend::Scalar => {}
        }
    }
    reference::squared_norm(a)
}

/// The fused SGNS (skip-gram with negative sampling) update of one
/// `(input, output)` row pair at gradient scale `g`, SIMD-dispatched:
///
/// ```text
/// d_in  += g · out      (the output row as it was before this call)
/// out   += g · inp
/// d_out += g · inp
/// ```
///
/// `out` is a thread-local copy of a shared output row that later updates of
/// the same window must see moved; `d_in`/`d_out` accumulate what the caller
/// scatters back onto the shared matrices once per window. One pass over the
/// four rows instead of three.
///
/// # Panics
///
/// Panics unless the four slices have one length.
#[inline]
pub fn sgns_update(g: f32, inp: &[f32], out: &mut [f32], d_in: &mut [f32], d_out: &mut [f32]) {
    let n = inp.len();
    assert!(
        out.len() == n && d_in.len() == n && d_out.len() == n,
        "sgns_update rows differ in length"
    );
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        match dispatch::backend() {
            // SAFETY: feature presence verified by the dispatcher; the four
            // lengths were checked equal above.
            KernelBackend::Avx2 => {
                return unsafe { x86::sgns_update_avx2(g, inp, out, d_in, d_out) }
            }
            KernelBackend::Sse2 => {
                return unsafe { x86::sgns_update_sse2(g, inp, out, d_in, d_out) }
            }
            KernelBackend::Scalar => {}
        }
    }
    reference::sgns_update(g, inp, out, d_in, d_out)
}

/// L2 norm (`‖a‖`), SIMD-dispatched.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    squared_norm(a).sqrt()
}

/// i8·i8 → i32 dot product, SIMD-dispatched. Exact (integer arithmetic, no
/// rounding), so an HNSW search walks the same path on every backend.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        match dispatch::backend() {
            // SAFETY: feature presence verified by the dispatcher.
            KernelBackend::Avx2 => return unsafe { x86::dot_i8_avx2(a, b) },
            KernelBackend::Sse2 => return unsafe { x86::dot_i8_sse2(a, b) },
            KernelBackend::Scalar => {}
        }
    }
    reference::dot_i8(a, b)
}

/// Cosine similarity from a precomputed pair of L2 norms: one kernel dot,
/// zero norm recomputation. Zero-norm inputs answer `0.0` (the query plane's
/// convention for zero vectors).
#[inline]
pub fn cosine_with_norms(a: &[f32], b: &[f32], norm_a: f32, norm_b: f32) -> f32 {
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    dot(a, b) / (norm_a * norm_b)
}

/// Cosine similarity computing both norms on the fly (still one pass per
/// vector through the SIMD kernels). Prefer [`cosine_with_norms`] in scans
/// where the query norm is loop-invariant.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(a, b, l2_norm(a), l2_norm(b))
}

/// Writes `a / ‖a‖` into `out` (copies `a` unscaled when `‖a‖ == 0`).
#[inline]
pub fn normalize_into(a: &[f32], out: &mut Vec<f32>) {
    let norm = l2_norm(a);
    if norm == 0.0 {
        out.extend_from_slice(a);
    } else {
        let inv = 1.0 / norm;
        out.extend(a.iter().map(|x| x * inv));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_vec(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-mixed values without pulling in an RNG — keeps
        // these tests runnable under miri with no foreign code.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1 << 23) as f32) - 1.0
            })
            .collect()
    }

    /// Absolute tolerance for an n-term f32 summation re-association: the
    /// classic `n · eps · Σ|aᵢbᵢ|` forward-error bound.
    fn sum_tolerance(terms: impl Iterator<Item = f32>, n: usize) -> f32 {
        let magnitude: f32 = terms.map(|t| t.abs()).sum();
        (n as f32) * f32::EPSILON * magnitude + f32::MIN_POSITIVE
    }

    #[test]
    fn dot_matches_reference_across_dims_and_remainders() {
        // Cover every remainder class of the 8/4-lane kernels plus odd dims.
        for dim in (0usize..40).chain([63, 64, 65, 127, 128, 129, 200, 300]) {
            let a = pseudo_vec(dim, 7 + dim as u32);
            let b = pseudo_vec(dim, 1000 + dim as u32);
            let got = dot(&a, &b);
            let want = reference::dot(&a, &b);
            let tol = sum_tolerance(a.iter().zip(&b).map(|(x, y)| x * y), dim);
            assert!(
                (got - want).abs() <= tol,
                "dim {dim}: {got} vs {want} (tol {tol})"
            );
        }
    }

    #[test]
    fn squared_norm_matches_reference() {
        for dim in (0usize..20).chain([33, 100, 128, 255]) {
            let a = pseudo_vec(dim, 31 + dim as u32);
            let got = squared_norm(&a);
            let want = reference::squared_norm(&a);
            let tol = sum_tolerance(a.iter().map(|x| x * x), dim);
            assert!(
                (got - want).abs() <= tol,
                "dim {dim}: {got} vs {want} (tol {tol})"
            );
        }
    }

    #[test]
    fn sgns_update_matches_reference_across_dims_and_remainders() {
        for dim in (0usize..20).chain([31, 32, 33, 64, 100, 128, 129]) {
            let inp = pseudo_vec(dim, 5 + dim as u32);
            let out = pseudo_vec(dim, 50 + dim as u32);
            let d_in = pseudo_vec(dim, 500 + dim as u32);
            let d_out = pseudo_vec(dim, 5000 + dim as u32);
            let g = 0.37f32;
            let (mut got_out, mut got_di, mut got_do) = (out.clone(), d_in.clone(), d_out.clone());
            sgns_update(g, &inp, &mut got_out, &mut got_di, &mut got_do);
            let (mut want_out, mut want_di, mut want_do) = (out.clone(), d_in, d_out);
            reference::sgns_update(g, &inp, &mut want_out, &mut want_di, &mut want_do);
            // One multiply-add per lane: FMA and mul+add differ by at most
            // one rounding of a value no larger than |a| + |g·b| < 2.
            for (got, want) in [
                (&got_out, &want_out),
                (&got_di, &want_di),
                (&got_do, &want_do),
            ] {
                for (x, y) in got.iter().zip(want) {
                    assert!((x - y).abs() <= 2.0 * f32::EPSILON, "dim {dim}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn sgns_update_rejects_ragged_rows() {
        sgns_update(1.0, &[0.0; 4], &mut [0.0; 4], &mut [0.0; 3], &mut [0.0; 4]);
    }

    #[test]
    fn dot_i8_is_exact_on_every_backend() {
        for dim in (0usize..36).chain([64, 100, 127, 128, 129, 256]) {
            let a: Vec<i8> = pseudo_vec(dim, 3 + dim as u32)
                .iter()
                .map(|x| (x * 127.0) as i8)
                .collect();
            let b: Vec<i8> = pseudo_vec(dim, 77 + dim as u32)
                .iter()
                .map(|x| (x * 127.0) as i8)
                .collect();
            assert_eq!(dot_i8(&a, &b), reference::dot_i8(&a, &b), "dim {dim}");
        }
    }

    #[test]
    fn dot_i8_saturating_inputs_do_not_overflow_lanes() {
        // ±127 everywhere is the worst case for the i16 madd pairs:
        // 2 · 127·127 = 32258 < i16::MAX would be the trap if the kernel
        // accumulated in i16 — it must widen to i32 per pair.
        for dim in [8usize, 16, 32, 64, 129] {
            let a = vec![127i8; dim];
            let b = vec![-128i8; dim];
            assert_eq!(dot_i8(&a, &b), reference::dot_i8(&a, &b), "dim {dim}");
            assert_eq!(dot_i8(&a, &a), dim as i32 * 127 * 127);
        }
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        let z = vec![0.0f32; 16];
        let a = pseudo_vec(16, 5);
        assert_eq!(cosine(&z, &a), 0.0);
        assert_eq!(cosine(&a, &z), 0.0);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalize_into_produces_unit_vectors() {
        let a = pseudo_vec(37, 11);
        let mut out = Vec::new();
        normalize_into(&a, &mut out);
        assert_eq!(out.len(), 37);
        assert!((squared_norm(&out) - 1.0).abs() < 1e-4);
        let z = vec![0.0f32; 4];
        let mut out = Vec::new();
        normalize_into(&z, &mut out);
        assert_eq!(out, z);
    }

    #[test]
    fn backend_is_stable_and_named() {
        let b = backend();
        assert_eq!(backend(), b, "detection must be cached");
        assert!(["scalar", "sse2", "avx2"].contains(&backend_name()));
        #[cfg(feature = "force-scalar")]
        assert_eq!(backend(), KernelBackend::Scalar);
    }
}
