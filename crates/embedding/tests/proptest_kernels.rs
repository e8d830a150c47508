//! Property-based equivalence layer for the query-plane kernels and the
//! trainer's SGNS window kernel.
//!
//! Fast-but-wrong kernels would silently corrupt every recall number the
//! benches report, so this suite pins the dispatched implementations to the
//! portable scalar reference across arbitrary dimensions, alignments and
//! remainder lanes. Run it under both feature sets — the default build
//! exercises whatever SIMD the host dispatches to, and
//! `--features force-scalar` exercises the reference path itself:
//!
//! ```text
//! cargo test -p uninet-embedding --test proptest_kernels
//! cargo test -p uninet-embedding --test proptest_kernels --features force-scalar
//! ```
//!
//! Two layers of property: (1) the f32/int8 kernels against the scalar
//! reference with a forward-error summation bound (the SGNS window kernel
//! within one rounding per sample and lane), and (2) the incremental HNSW graft
//! against a from-scratch rebuild (recall parity within 0.02) across ≥ 5
//! epochs of drift and node churn.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use uninet_embedding::{kernels, AnnConfig, Embeddings, HnswIndex};

/// Forward-error bound for a length-`n` f32 sum of products: any two
/// summation orders (scalar, 4-lane, 8-lane + FMA) agree to within
/// `n · eps · Σ|aᵢ·bᵢ|`.
fn sum_tolerance(products_abs: f32, n: usize) -> f32 {
    (n as f32) * f32::EPSILON * products_abs + f32::MIN_POSITIVE
}

fn random_unit_flat(n: usize, dim: usize, rng: &mut SmallRng) -> Vec<f32> {
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        flat.extend(row.iter().map(|x| x / norm));
    }
    flat
}

/// A window kernel: [`kernels::sgns_window`] or its scalar reference.
type Window =
    fn(&[f32], &mut [f32], &mut [f32], &mut [f32], &[usize], &mut dyn FnMut(usize, f32) -> f32);

/// recall@k of `got` against the brute-force `most_similar` ground truth,
/// averaged over a sample of query nodes.
fn recall_at_k(emb: &Embeddings, k: usize, query: impl Fn(u32) -> Vec<(u32, f32)>) -> f64 {
    let n = emb.num_nodes();
    let mut hits = 0usize;
    let mut total = 0usize;
    for node in (0..n as u32).step_by((n / 24).max(1)) {
        let exact_ids: Vec<u32> = emb.most_similar(node, k).iter().map(|&(u, _)| u).collect();
        hits += query(node)
            .iter()
            .filter(|&&(u, _)| exact_ids.contains(&u))
            .count();
        total += k.min(n.saturating_sub(1));
    }
    hits as f64 / total.max(1) as f64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Property 1a: the dispatched f32 kernels agree with the scalar
    /// reference on arbitrary dims, values, and slice alignments — covering
    /// every remainder-lane count of the 8-wide and 4-wide paths.
    #[test]
    fn dispatched_f32_kernels_match_scalar_reference(
        dim in 0usize..300,
        offset_a in 0usize..8,
        offset_b in 0usize..8,
        scale in 0.01f32..100.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a_buf: Vec<f32> = (0..dim + offset_a).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect();
        let b_buf: Vec<f32> = (0..dim + offset_b).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect();
        // Slicing at an arbitrary offset exercises unaligned loads.
        let a = &a_buf[offset_a..];
        let b = &b_buf[offset_b..];

        let got_dot = kernels::dot(a, b);
        let want_dot = kernels::reference::dot(a, b);
        let abs_sum: f32 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
        let tol = sum_tolerance(abs_sum, dim);
        prop_assert!(
            (got_dot - want_dot).abs() <= tol,
            "dot dim={dim}: {got_dot} vs {want_dot} (tol {tol})"
        );

        let got_norm = kernels::squared_norm(a);
        let want_norm = kernels::reference::squared_norm(a);
        let tol = sum_tolerance(want_norm, dim);
        prop_assert!(
            (got_norm - want_norm).abs() <= tol,
            "squared_norm dim={dim}: {got_norm} vs {want_norm} (tol {tol})"
        );
    }

    /// Property 1c: the dispatched SGNS window kernel agrees with the scalar
    /// reference on arbitrary dims, slice alignments and windows of one
    /// positive and 1–20 negatives, with a slot drawn twice in every window.
    /// Each sample's gradient is fixed up front, so no score difference
    /// feeds the rows. Every intermediate value is bounded by
    /// `B = scale·(1 + G)²` (`G = Σ|g|`), and a backend may differ from the
    /// reference by one rounding of at most `B` per sample (FMA against a
    /// multiply then an add), carried on by at most `1 + G`. A score may
    /// differ by the summation bound plus the drift of the row it reads.
    #[test]
    fn dispatched_sgns_window_matches_scalar_reference(
        dim in 0usize..300,
        offsets in (0usize..8, 0usize..8, 0usize..8, 0usize..8),
        negatives in 1usize..21,
        scale in 0.01f32..100.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let distinct = rng.gen_range(1..=negatives);
        let mut samples: Vec<usize> = std::iter::once(0)
            .chain((0..negatives).map(|_| rng.gen_range(0..=distinct)))
            .collect();
        let last = samples.len() - 1;
        samples[last] = samples[rng.gen_range(0..last)];
        let rows = samples.iter().max().unwrap() + 1;
        let gradients: Vec<f32> = samples
            .iter()
            .map(|_| rng.gen_range(-0.1f32..0.1))
            .collect();

        let mut buf = |len: usize, offset: usize| -> Vec<f32> {
            (0..len + offset).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect()
        };
        let inp = buf(dim, offsets.0);
        let out = buf(rows * dim, offsets.1);
        let (d_in, d_out) = (buf(dim, offsets.2), buf(rows * dim, offsets.3));
        let inp = &inp[offsets.0..];

        let run = |window: Window| {
            let (mut out, mut d_in, mut d_out) = (out.clone(), d_in.clone(), d_out.clone());
            let mut scores = Vec::new();
            window(
                inp,
                &mut out[offsets.1..],
                &mut d_in[offsets.2..],
                &mut d_out[offsets.3..],
                &samples,
                &mut |i, score| {
                    scores.push(score);
                    gradients[i]
                },
            );
            (out, d_in, d_out, scores)
        };
        let got = run(|i, o, di, d, s, g| kernels::sgns_window(i, o, di, d, s, g));
        let want = run(|i, o, di, d, s, g| kernels::reference::sgns_window(i, o, di, d, s, g));

        let total_g: f32 = gradients.iter().map(|g| g.abs()).sum();
        let bound = scale * (1.0 + total_g).powi(2);
        let row_tol = 2.0 * samples.len() as f32 * f32::EPSILON * bound * (1.0 + total_g);
        for (name, got, want) in [
            ("out", &got.0, &want.0),
            ("d_in", &got.1, &want.1),
            ("d_out", &got.2, &want.2),
        ] {
            for (j, (x, y)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    (x - y).abs() <= row_tol,
                    "{name}[{j}] dim={dim}: {x} vs {y} (tol {row_tol})"
                );
            }
        }
        let inp_abs: f32 = inp.iter().map(|x| x.abs()).sum();
        let score_tol = inp_abs * (dim as f32 * f32::EPSILON * bound + row_tol) + f32::MIN_POSITIVE;
        for (i, (x, y)) in got.3.iter().zip(&want.3).enumerate() {
            prop_assert!(
                (x - y).abs() <= score_tol,
                "score {i} dim={dim}: {x} vs {y} (tol {score_tol})"
            );
        }
        // The lanes before each offset are not the kernel's to touch.
        prop_assert_eq!(&got.0[..offsets.1], &out[..offsets.1]);
    }

    /// Property 1b: the int8 dot kernel is *exact* — integer accumulation has
    /// no rounding, so every backend must produce bit-identical i32 sums,
    /// including at the saturating corners of the i8 range.
    #[test]
    fn dispatched_i8_dot_is_exact(
        dim in 0usize..300,
        offset in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a_buf: Vec<i8> = (0..dim + offset).map(|_| rng.gen_range(-128i32..128) as i8).collect();
        let b_buf: Vec<i8> = (0..dim + offset).map(|_| rng.gen_range(-128i32..128) as i8).collect();
        let a = &a_buf[offset..];
        let b = &b_buf[offset..];
        prop_assert_eq!(kernels::dot_i8(a, b), kernels::reference::dot_i8(a, b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Property 2: across ≥ 5 epochs of vector drift plus node churn, a chain
    /// of HNSW grafts ([`HnswIndex::graft`], recovery's path) keeps recall@10
    /// within 0.02 of a from-scratch rebuild of the same epoch.
    #[test]
    fn incremental_hnsw_recall_tracks_full_rebuild(
        n0 in 100usize..180,
        dim in 8usize..24,
        seed in 0u64..1000,
    ) {
        let cfg = AnnConfig { seed, ..Default::default() };
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        let mut flat = random_unit_flat(n0, dim, &mut rng);

        let mut incremental = HnswIndex::build(&Embeddings::from_flat(dim, flat.clone()), &cfg);
        for epoch in 0..5 {
            // Drift: ~15% of nodes get fully resampled vectors, another ~15%
            // jitter slightly, and the rest keep their bits (the graft keeps
            // only those).
            let n = flat.len() / dim;
            for v in 0..n {
                let roll = rng.gen_range(0.0f32..1.0);
                if roll < 0.15 {
                    for j in 0..dim {
                        flat[v * dim + j] = rng.gen_range(-1.0f32..1.0);
                    }
                } else if roll < 0.3 {
                    for j in 0..dim {
                        flat[v * dim + j] += rng.gen_range(-0.005f32..0.005);
                    }
                }
            }
            // Churn: alternate between retiring and adding a block of nodes.
            if epoch % 2 == 0 {
                flat.truncate((n - n / 10) * dim);
            } else {
                for _ in 0..(n / 8) * dim {
                    flat.push(rng.gen_range(-1.0f32..1.0));
                }
            }

            let emb = Embeddings::from_flat(dim, flat.clone());
            incremental = HnswIndex::graft(&emb, &cfg, &incremental, None);
            prop_assert!(
                incremental.incremental_stats().is_some(),
                "epoch {epoch}: expected the graft path"
            );
            let full = HnswIndex::build(&emb, &cfg);

            let recall_inc = recall_at_k(&emb, 10, |node| incremental.search_node(node, 10));
            let recall_full = recall_at_k(&emb, 10, |node| full.search_node(node, 10));
            prop_assert!(
                recall_inc >= recall_full - 0.02,
                "epoch {epoch}: incremental recall {recall_inc} vs full {recall_full}"
            );
        }
    }
}
