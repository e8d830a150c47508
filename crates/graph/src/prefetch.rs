//! A software prefetch hint for latency-bound pointer chasing.
//!
//! A random walk reads a few scattered words per step (a CSR row, a sampler
//! slot), each one a likely cache miss. Walkers that interleave several walks
//! per thread hint the next step's addresses early with [`prefetch`], so the
//! misses of different walks overlap instead of queueing one after another.

/// Hints the CPU to pull the cache line holding `slice[i]` toward L1.
///
/// A hint only: it reads and writes nothing and never faults. An index past
/// the slice is ignored, and off x86_64 the call compiles to nothing.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], i: usize) {
    if let Some(item) = slice.get(i) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` only hints the cache and dereferences
        // nothing; SSE is part of the x86_64 baseline, and the pointer comes
        // from a live reference into `slice`, checked in range by `get`.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast::<i8>());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = item;
    }
}

#[cfg(test)]
mod tests {
    use super::prefetch;

    #[test]
    fn prefetch_in_range_and_out_of_range_is_a_no_op() {
        let data: Vec<u64> = (0..100).collect();
        prefetch(&data, 0);
        prefetch(&data, data.len() - 1);
        prefetch(&data, data.len());
        prefetch(&data, usize::MAX);
        let empty: [u32; 0] = [];
        prefetch(&empty, 0);
        assert_eq!(data, (0..100).collect::<Vec<u64>>());
    }
}
