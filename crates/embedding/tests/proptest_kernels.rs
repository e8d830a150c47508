//! Property-based equivalence layer for the query-plane kernels and the
//! trainer's fused SGNS update.
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
//! Three layers of property: (1) the f32/int8 kernels against the scalar
//! reference with a forward-error summation bound (the fused SGNS update
//! lane by lane, within one rounding), (2) the int8 quantized
//! `top_k` against the f32 exact scan (recall@10 ≥ 0.95), and (3) the
//! incremental HNSW graft against a from-scratch rebuild (recall parity
//! within 0.02) across ≥ 5 epochs of drift and node churn.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use uninet_embedding::{kernels, AnnConfig, EmbeddingStore, Embeddings, HnswIndex};

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

    /// Property 1c: the dispatched fused SGNS update agrees with the scalar
    /// reference lane by lane on arbitrary dims, gradient scales and slice
    /// alignments of all four rows. Each lane is one multiply-add, so a
    /// backend may differ from the reference only by FMA's single rounding.
    #[test]
    fn dispatched_sgns_update_matches_scalar_reference(
        dim in 0usize..300,
        offsets in (0usize..8, 0usize..8, 0usize..8, 0usize..8),
        g in -2.0f32..2.0,
        scale in 0.01f32..100.0,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut buf = |offset: usize| -> Vec<f32> {
            (0..dim + offset).map(|_| rng.gen_range(-1.0f32..1.0) * scale).collect()
        };
        let inp = buf(offsets.0);
        let (out, d_in, d_out) = (buf(offsets.1), buf(offsets.2), buf(offsets.3));
        let inp = &inp[offsets.0..];

        let (mut got_out, mut got_d_in, mut got_d_out) = (out.clone(), d_in.clone(), d_out.clone());
        kernels::sgns_update(
            g,
            inp,
            &mut got_out[offsets.1..],
            &mut got_d_in[offsets.2..],
            &mut got_d_out[offsets.3..],
        );
        let (mut want_out, mut want_d_in, mut want_d_out) = (out.clone(), d_in, d_out);
        kernels::reference::sgns_update(
            g,
            inp,
            &mut want_out[offsets.1..],
            &mut want_d_in[offsets.2..],
            &mut want_d_out[offsets.3..],
        );

        // |a + g·b| ≤ scale · (1 + |g|); one rounding of that at most.
        let tol = 2.0 * f32::EPSILON * scale * (1.0 + g.abs());
        for (name, got, want) in [
            ("out", &got_out, &want_out),
            ("d_in", &got_d_in, &want_d_in),
            ("d_out", &got_d_out, &want_d_out),
        ] {
            for (j, (x, y)) in got.iter().zip(want).enumerate() {
                prop_assert!((x - y).abs() <= tol, "{name}[{j}] dim={dim}: {x} vs {y} (tol {tol})");
            }
        }
        // The lanes before each offset are not the kernel's to touch.
        prop_assert_eq!(&got_out[..offsets.1], &out[..offsets.1]);
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
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Property 2: the int8 quantized exact scan keeps recall@10 ≥ 0.95
    /// against the f32 exact scan on random unit vectors (the structure-free
    /// adversarial case), while still reporting exact f32 scores.
    #[test]
    fn quantized_top_k_recall_beats_point_nine_five(
        n in 120usize..350,
        dim in 16usize..48,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let emb = Embeddings::from_flat(dim, random_unit_flat(n, dim, &mut rng));

        let store = EmbeddingStore::with_ann(AnnConfig {
            seed,
            quantize: true,
            ..Default::default()
        });
        store.publish(emb.clone());
        let snap = store.snapshot();
        prop_assert!(snap.is_quantized());

        let recall = recall_at_k(&emb, 10, |node| snap.top_k(node, 10));
        prop_assert!(recall >= 0.95, "quantized recall@10 {recall} < 0.95 (n={n}, dim={dim})");

        // Spot-check that surviving scores are exact cosines, not
        // dequantized approximations.
        for (u, s) in snap.top_k(0, 5) {
            let want = emb.cosine_similarity(0, u);
            prop_assert!((s - want).abs() < 1e-5, "hit {u}: {s} vs {want}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Property 3: across ≥ 5 epochs of vector drift plus node churn, a chain
    /// of incremental HNSW grafts keeps recall@10 within 0.02 of a
    /// from-scratch rebuild of the same epoch.
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
            // Drift: ~15% of nodes get fully resampled vectors, the rest
            // jitter slightly (mostly below the default drift threshold).
            let n = flat.len() / dim;
            for v in 0..n {
                if rng.gen_range(0.0f32..1.0) < 0.15 {
                    for j in 0..dim {
                        flat[v * dim + j] = rng.gen_range(-1.0f32..1.0);
                    }
                } else {
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
            incremental = HnswIndex::build_incremental(&emb, &cfg, &incremental);
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
