//! Property-based tests for the NN substrate.

use proptest::prelude::*;
use refocus_nn::conv::{conv2d, conv2d_valid_single, conv_output_size};
use refocus_nn::quant::{PseudoNegativeSplit, Quantizer};
use refocus_nn::reorder::{anneal_channel_order, dac_loads, AnnealingSchedule};
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::{tiled_conv2d_with, TilingMode, TilingPlan};
use refocus_photonics::signal::correlate_valid;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_tiling_exactly_reproduces_conv2d(
        h in 4usize..20,
        w in 4usize..20,
        k in 2usize..5,
        tile_factor in 1usize..6,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h && k <= w);
        let input: Vec<Vec<f64>> = {
            let t = Tensor3::random(1, h, w, 0.0, 1.0, seed);
            t.channel_rows(0).iter().map(|r| r.to_vec()).collect()
        };
        let kernel: Vec<Vec<f64>> = {
            let t = Tensor4::random(1, 1, k, k, -1.0, 1.0, seed + 1);
            t.kernel(0, 0)
        };
        let want = conv2d_valid_single(&input, &kernel);
        // Tile anywhere from "one padded row" to "several rows".
        let tile = (w + k - 1) * tile_factor;
        for mode in [TilingMode::Exact, TilingMode::Approximate] {
            let got = tiled_conv2d_with(&input, &kernel, tile, mode, correlate_valid).unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (ra, rb) in got.iter().zip(&want) {
                for (a, b) in ra.iter().zip(rb) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn pseudo_negative_identity_for_any_weights(
        c_in in 1usize..3,
        c_out in 1usize..3,
        k in 1usize..4,
        seed in 0u64..1000,
    ) {
        let x = Tensor3::random(c_in, 6, 6, 0.0, 1.0, seed);
        let w = Tensor4::random(c_out, c_in, k, k, -1.0, 1.0, seed + 7);
        let split = PseudoNegativeSplit::of(&w);
        let direct = conv2d(&x, &w, 1, 0).unwrap();
        let pos = conv2d(&x, &split.positive, 1, 0).unwrap();
        let neg = conv2d(&x, &split.negative, 1, 0).unwrap();
        let combined = PseudoNegativeSplit::combine(&pos, &neg);
        for (a, b) in combined.data().iter().zip(direct.data()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn quantizer_error_bounded_by_half_step(
        bits in 2u8..10,
        max_abs in 0.1..10.0f64,
        v in -10.0..10.0f64,
    ) {
        let q = Quantizer::new(bits, max_abs);
        let clipped = v.clamp(-max_abs, max_abs);
        let err = (q.fake_quantize(v) - clipped).abs();
        prop_assert!(err <= q.step() / 2.0 + 1e-12);
    }

    #[test]
    fn plan_covers_all_output_rows(
        h in 6usize..64,
        w in 6usize..64,
        k in 2usize..6,
        pad in 0usize..3,
    ) {
        prop_assume!(k <= h && k <= w);
        let tile = 256;
        prop_assume!(w + 2 * pad + k - 1 <= tile);
        let plan = TilingPlan::plan((h, w), k, 1, pad, tile, TilingMode::Exact).unwrap();
        // Enough passes to cover every output row.
        prop_assert!(plan.passes * plan.valid_rows_per_pass * plan.kernel_chunks >= plan.output_rows);
        // Rows per pass never exceed the tile.
        prop_assert!(plan.rows_per_pass * plan.row_len <= tile);
    }

    #[test]
    fn conv_output_size_consistent_with_conv2d(
        h in 3usize..16,
        k in 1usize..5,
        s in 1usize..3,
        p in 0usize..3,
    ) {
        prop_assume!(k <= h + 2 * p);
        let input = Tensor3::random(1, h, h, 0.0, 1.0, 1);
        let w = Tensor4::random(1, 1, k, k, -1.0, 1.0, 2);
        let out = conv2d(&input, &w, s, p).unwrap();
        let want = conv_output_size(h, k, s, p).unwrap();
        prop_assert_eq!(out.height(), want);
        prop_assert_eq!(out.width(), want);
    }

    #[test]
    fn reordering_preserves_load_semantics(
        filters in 1usize..8,
        channels in 2usize..12,
        seed in 0u64..100,
    ) {
        let a = refocus_nn::reorder::synthetic_assignments(filters, channels, 4, seed);
        let schedule = AnnealingSchedule { steps: 500, ..AnnealingSchedule::default() };
        let r = anneal_channel_order(&a, schedule, seed).unwrap();
        // The reported optimized cost matches recounting with the order.
        prop_assert_eq!(dac_loads(&a, &r.order), r.optimized_loads);
        prop_assert!(r.optimized_loads <= r.baseline_loads);
        // Lower bound: each filter needs at least one load.
        prop_assert!(r.optimized_loads >= filters as u64);
    }
}
