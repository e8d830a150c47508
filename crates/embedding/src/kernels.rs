//! Unified SIMD kernels — the single dot/cosine/norm implementation for the
//! whole query plane, and the trainer's fused SGNS window kernel.
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
//! The trainer's [`sgns_window`] fuses a window's dots and updates into two
//! passes per run of distinct slots. Its scores round as [`dot`] does and its
//! rows as one update per sample, so it changes no trained bit.
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
//! pointer arithmetic escapes the slice bounds (the window kernels address a
//! slot's row only after [`sgns_window`] checked that every slot's row lies
//! inside `out` and `d_out`). The wrappers are exercised under miri in CI.
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

    /// Scalar SGNS window step (see [`super::sgns_window`]), one sample after
    /// another: [`dot`], then the gradient, then lane by lane
    /// `d_in += g·out; out += g·inp; d_out += g·inp` — the input gradient
    /// sees the output row as it was *before* this sample moved it.
    pub fn sgns_window(
        inp: &[f32],
        out: &mut [f32],
        d_in: &mut [f32],
        d_out: &mut [f32],
        samples: &[usize],
        mut gradient: impl FnMut(usize, f32) -> f32,
    ) {
        let dim = inp.len();
        for (i, &slot) in samples.iter().enumerate() {
            let row = slot * dim..(slot + 1) * dim;
            let g = gradient(i, dot(inp, &out[row.clone()]));
            let lanes = inp.iter().zip(&mut out[row.clone()]).zip(&mut *d_in);
            for (((&x, o), di), d_o) in lanes.zip(&mut d_out[row]) {
                *di += g * *o;
                *o += g * x;
                *d_o += g * x;
            }
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

    /// Samples per run of the window kernels: one accumulator register each.
    const RUN: usize = 8;

    /// End of the run that starts at `start`: the longest stretch of samples
    /// with distinct slots, at most [`RUN`]. A slot seen again starts a new
    /// run, so its score sees the earlier update.
    fn run_end(samples: &[usize], start: usize) -> usize {
        let limit = samples.len().min(start + RUN);
        (start + 1..limit)
            .find(|&end| samples[start..end].contains(&samples[end]))
            .unwrap_or(limit)
    }

    /// Defines a window kernel (see [`super::sgns_window`]) at one width. A run
    /// of `N` distinct slots goes through one body, `run::<N>`: its rows
    /// resolved once, one accumulator per sample over one load of each input
    /// chunk, advanced by `$dot` as that width's `dot` is; then the updates
    /// with the chunk's `d_in` in a register, each sample's by `$update`.
    macro_rules! window_kernel {
        (
            $(#[$doc:meta])* $name:ident, $feature:literal, $lanes:literal,
            $zero:ident, $load:ident, $store:ident, $set1:ident, $hsum:ident,
            |$acc:ident, $x:ident, $o:ident| $dot:expr,
            |$g:ident, $vi:ident, $vo:ident, $vdi:ident, $vd:ident| $update:expr $(,)?
        ) => {
            $(#[$doc])*
            ///
            /// # Safety
            /// Requires the CPU features named above (checked by the
            /// dispatcher) and the row bounds checked by
            /// [`super::sgns_window`].
            #[target_feature(enable = $feature)]
            pub unsafe fn $name(
                inp: &[f32],
                out: &mut [f32],
                d_in: &mut [f32],
                d_out: &mut [f32],
                samples: &[usize],
                mut gradient: impl FnMut(usize, f32) -> f32,
            ) {
                let dim = inp.len();
                let (ip, dip) = (inp.as_ptr(), d_in.as_mut_ptr());
                let (op, dop) = (out.as_mut_ptr(), d_out.as_mut_ptr());
                let mut start = 0;
                while start < samples.len() {
                    let slots = &samples[start..run_end(samples, start)];
                    let f = &mut |j: usize, score: f32| gradient(start + j, score);
                    match slots.len() {
                        1 => run::<1>(ip, dip, op, dop, dim, slots, f),
                        2 => run::<2>(ip, dip, op, dop, dim, slots, f),
                        3 => run::<3>(ip, dip, op, dop, dim, slots, f),
                        4 => run::<4>(ip, dip, op, dop, dim, slots, f),
                        5 => run::<5>(ip, dip, op, dop, dim, slots, f),
                        6 => run::<6>(ip, dip, op, dop, dim, slots, f),
                        7 => run::<7>(ip, dip, op, dop, dim, slots, f),
                        _ => run::<RUN>(ip, dip, op, dop, dim, slots, f),
                    }
                    start += slots.len();
                }

                /// # Safety
                /// As the kernel's, with `N == slots.len()` distinct slots.
                #[target_feature(enable = $feature)]
                unsafe fn run<const N: usize>(
                    ip: *const f32,
                    dip: *mut f32,
                    op: *mut f32,
                    dop: *mut f32,
                    dim: usize,
                    slots: &[usize],
                    gradient: &mut impl FnMut(usize, f32) -> f32,
                ) {
                    let body = dim / $lanes * $lanes;
                    let rows: [usize; N] = std::array::from_fn(|j| slots[j] * dim);
                    let mut acc = [$zero(); N];
                    for at in (0..body).step_by($lanes) {
                        let $x = $load(ip.add(at));
                        for ($acc, row) in acc.iter_mut().zip(rows) {
                            let $o = $load(op.add(row + at));
                            *$acc = $dot;
                        }
                    }
                    let mut g = [0.0f32; N];
                    for j in 0..N {
                        let mut score = $hsum(acc[j]);
                        for i in body..dim {
                            score += *ip.add(i) * *op.add(rows[j] + i);
                        }
                        g[j] = gradient(j, score);
                    }
                    let gv = g.map(|gj| $set1(gj));
                    for at in (0..body).step_by($lanes) {
                        let $vi = $load(ip.add(at));
                        let mut $vdi = $load(dip.add(at));
                        for (&$g, row) in gv.iter().zip(rows) {
                            let (o, d) = (op.add(row + at), dop.add(row + at));
                            let ($vo, $vd) = ($load(o), $load(d));
                            let (new_di, new_o, new_d) = $update;
                            $vdi = new_di;
                            $store(o, new_o);
                            $store(d, new_d);
                        }
                        $store(dip.add(at), $vdi);
                    }
                    for (&gj, row) in g.iter().zip(rows) {
                        for i in body..dim {
                            let (x, o, d) = (*ip.add(i), op.add(row + i), dop.add(row + i));
                            *dip.add(i) += gj * *o;
                            *o += gj * x;
                            *d += gj * x;
                        }
                    }
                }
            }
        };
    }

    window_kernel!(
        /// AVX2+FMA window step: 8 lanes, one FMA chain per sample as in
        /// [`dot_avx2`], three FMAs per sample and chunk in the updates.
        sgns_window_avx2, "avx2,fma", 8,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, hsum256,
        |acc, x, o| _mm256_fmadd_ps(x, o, *acc),
        |g, x, o, di, d| (
            _mm256_fmadd_ps(g, o, di),
            _mm256_fmadd_ps(g, x, o),
            _mm256_fmadd_ps(g, x, d),
        ),
    );

    window_kernel!(
        /// SSE2 window step: 4 lanes, a multiply then an add everywhere, as
        /// [`dot_sse2`] and the scalar update round.
        sgns_window_sse2, "sse2", 4,
        _mm_setzero_ps, _mm_loadu_ps, _mm_storeu_ps, _mm_set1_ps, hsum128,
        |acc, x, o| _mm_add_ps(*acc, _mm_mul_ps(x, o)),
        |g, x, o, di, d| (
            _mm_add_ps(di, _mm_mul_ps(g, o)),
            _mm_add_ps(o, _mm_mul_ps(g, x)),
            _mm_add_ps(d, _mm_mul_ps(g, x)),
        ),
    );

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

/// One SGNS (skip-gram with negative sampling) step of the input vector
/// `inp` against a window's samples, SIMD-dispatched. `out` and `d_out` hold
/// one `inp.len()`-wide row per slot; `samples[i]` is sample `i`'s slot. In
/// sample order, each sample scores `s = inp·out[slot]`, takes
/// `g = gradient(i, s)`, then
///
/// ```text
/// d_in       += g · out[slot]   (the row as it was before this sample)
/// out[slot]  += g · inp
/// d_out[slot] += g · inp
/// ```
///
/// The SIMD backends do a run of distinct slots in two passes, dots then
/// updates; a repeated slot starts a new run. Every score rounds as [`dot`]
/// does and every row as one update per sample, bit for bit.
///
/// # Panics
///
/// Panics unless `d_in` is as wide as `inp`, `out` and `d_out` have one
/// length and every slot's row lies inside them.
#[inline]
pub fn sgns_window(
    inp: &[f32],
    out: &mut [f32],
    d_in: &mut [f32],
    d_out: &mut [f32],
    samples: &[usize],
    gradient: impl FnMut(usize, f32) -> f32,
) {
    let dim = inp.len();
    let last_row_fits = samples.iter().max().is_none_or(|&slot| {
        let (start, room) = (slot.checked_mul(dim), out.len().checked_sub(dim));
        start.zip(room).is_some_and(|(start, room)| start <= room)
    });
    assert!(
        d_in.len() == dim && out.len() == d_out.len() && last_row_fits,
        "sgns_window rows out of bounds"
    );
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        match dispatch::backend() {
            // SAFETY: feature presence verified by the dispatcher; the row
            // bounds were checked above.
            KernelBackend::Avx2 => {
                return unsafe { x86::sgns_window_avx2(inp, out, d_in, d_out, samples, gradient) }
            }
            KernelBackend::Sse2 => {
                return unsafe { x86::sgns_window_sse2(inp, out, d_in, d_out, samples, gradient) }
            }
            KernelBackend::Scalar => {}
        }
    }
    reference::sgns_window(inp, out, d_in, d_out, samples, gradient)
}

/// Lane-wise `a + b` of two `f32` pairs packed in `u64`s (the lower half is
/// the first lane), rounding as two scalar adds do: the embedding matrix's
/// two-lane cell update, one SSE2 add on x86_64.
#[inline]
pub(crate) fn add_f32_pairs(a: u64, b: u64) -> u64 {
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is part of the x86_64 baseline; no memory is touched.
        unsafe {
            let lanes = |x: u64| _mm_castsi128_ps(_mm_cvtsi64_si128(x as i64));
            _mm_cvtsi128_si64(_mm_castps_si128(_mm_add_ps(lanes(a), lanes(b)))) as u64
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "force-scalar"))))]
    {
        let lane = |x: u64, shift: u32| f32::from_bits((x >> shift) as u32);
        let (lo, hi) = (lane(a, 0) + lane(b, 0), lane(a, 32) + lane(b, 32));
        u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32
    }
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

    /// The window kernel is per-sample [`dot`] then update, bit for bit:
    /// every score is `dot` of the row as the earlier samples left it, every
    /// lane one FMA on the AVX2 body and a multiply then an add elsewhere.
    #[test]
    fn sgns_window_is_per_sample_dot_then_update_bitwise() {
        // Slots repeat at once, after a gap, and after a full run of 8.
        let samples = [0usize, 1, 2, 1, 3, 3, 0, 4, 5, 6, 7, 8, 9, 2, 9];
        let slots = 10;
        // Depends on the score, so a score off by one bit shows in the rows.
        let gradient = |i: usize, score: f32| (0.5 - score) * (0.1 + 0.01 * i as f32);
        for dim in 1usize..=72 {
            let seed = dim as u32;
            let inp = pseudo_vec(dim, 3 + seed);
            let (out, d_in, d_out) = (
                pseudo_vec(slots * dim, 30 + seed),
                pseudo_vec(dim, 300 + seed),
                pseudo_vec(slots * dim, 3000 + seed),
            );
            let (mut got_out, mut got_d_in, mut got_d_out) =
                (out.clone(), d_in.clone(), d_out.clone());
            let mut scores = Vec::new();
            sgns_window(
                &inp,
                &mut got_out,
                &mut got_d_in,
                &mut got_d_out,
                &samples,
                |i, s| {
                    scores.push(s);
                    gradient(i, s)
                },
            );

            let fused = if backend() == KernelBackend::Avx2 {
                dim / 8 * 8
            } else {
                0
            };
            let (mut out, mut d_in, mut d_out) = (out, d_in, d_out);
            for (i, &slot) in samples.iter().enumerate() {
                let score = dot(&inp, &out[slot * dim..(slot + 1) * dim]);
                assert_eq!(
                    scores[i].to_bits(),
                    score.to_bits(),
                    "dim {dim}, sample {i}"
                );
                let g = gradient(i, score);
                for (j, &x) in inp.iter().enumerate() {
                    let (o, d) = (&mut out[slot * dim + j], &mut d_out[slot * dim + j]);
                    if j < fused {
                        d_in[j] = g.mul_add(*o, d_in[j]);
                        (*o, *d) = (g.mul_add(x, *o), g.mul_add(x, *d));
                    } else {
                        d_in[j] += g * *o;
                        (*o, *d) = (*o + g * x, *d + g * x);
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_out), bits(&out), "out, dim {dim}");
            assert_eq!(bits(&got_d_in), bits(&d_in), "d_in, dim {dim}");
            assert_eq!(bits(&got_d_out), bits(&d_out), "d_out, dim {dim}");
        }
    }

    /// The SSE2 backends, called directly so that every x86_64 host runs them
    /// whichever backend the dispatcher picks: `dot_sse2` and
    /// `squared_norm_sse2` within the summation bound of the reference, and
    /// the SSE2 window kernel bit for bit per-sample `dot_sse2` then the
    /// scalar update, as [`sgns_window`] promises.
    #[cfg(all(target_arch = "x86_64", not(feature = "force-scalar")))]
    #[test]
    fn sse2_backends_match_the_reference() {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        let dot2 = |a: &[f32], b: &[f32]| unsafe { x86::dot_sse2(a, b) };
        for dim in (0usize..40).chain([63, 64, 65, 127, 128, 129]) {
            let a = pseudo_vec(dim, 7 + dim as u32);
            let b = pseudo_vec(dim, 1000 + dim as u32);
            let tol = sum_tolerance(a.iter().zip(&b).map(|(x, y)| x * y), dim);
            let (got, want) = (dot2(&a, &b), reference::dot(&a, &b));
            assert!((got - want).abs() <= tol, "dot, dim {dim}: {got} vs {want}");
            let tol = sum_tolerance(a.iter().map(|x| x * x), dim);
            // SAFETY: as above.
            let got = unsafe { x86::squared_norm_sse2(&a) };
            let want = reference::squared_norm(&a);
            assert!(
                (got - want).abs() <= tol,
                "norm, dim {dim}: {got} vs {want}"
            );
        }

        let samples = [0usize, 1, 2, 1, 3, 3, 0, 4, 5, 6, 7, 8, 9, 2, 9];
        let slots = 10;
        let gradient = |i: usize, score: f32| (0.5 - score) * (0.1 + 0.01 * i as f32);
        for dim in 1usize..=40 {
            let seed = dim as u32;
            let inp = pseudo_vec(dim, 3 + seed);
            let (mut out, mut d_in, mut d_out) = (
                pseudo_vec(slots * dim, 30 + seed),
                pseudo_vec(dim, 300 + seed),
                pseudo_vec(slots * dim, 3000 + seed),
            );
            let (mut want_out, mut want_d_in, mut want_d_out) =
                (out.clone(), d_in.clone(), d_out.clone());
            // SAFETY: SSE2 is baseline, and every slot's row lies inside
            // `out` and `d_out`.
            unsafe {
                x86::sgns_window_sse2(&inp, &mut out, &mut d_in, &mut d_out, &samples, gradient)
            };
            for (i, &slot) in samples.iter().enumerate() {
                let row = slot * dim..(slot + 1) * dim;
                let g = gradient(i, dot2(&inp, &want_out[row.clone()]));
                for (j, &x) in inp.iter().enumerate() {
                    let (o, d) = (&mut want_out[row.start + j], &mut want_d_out[row.start + j]);
                    want_d_in[j] += g * *o;
                    (*o, *d) = (*o + g * x, *d + g * x);
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want_out), "out, dim {dim}");
            assert_eq!(bits(&d_in), bits(&want_d_in), "d_in, dim {dim}");
            assert_eq!(bits(&d_out), bits(&want_d_out), "d_out, dim {dim}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sgns_window_rejects_rows_out_of_bounds() {
        let (mut out, mut d_out) = ([0.0; 8], [0.0; 8]);
        sgns_window(
            &[0.0; 4],
            &mut out,
            &mut [0.0; 4],
            &mut d_out,
            &[0, 2],
            |_, _| 0.0,
        );
    }

    /// A slot whose row end overflows `usize` is out of bounds too, not a
    /// row that wraps around to the start.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sgns_window_rejects_a_slot_past_the_address_space() {
        let (mut out, mut d_out) = ([0.0; 8], [0.0; 8]);
        let slot = usize::MAX / 4 + 1;
        sgns_window(
            &[0.0; 4],
            &mut out,
            &mut [0.0; 4],
            &mut d_out,
            &[slot],
            |_, _| 0.0,
        );
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
