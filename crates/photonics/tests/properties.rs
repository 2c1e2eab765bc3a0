//! Property-based tests for the photonics substrate.

use proptest::prelude::*;
use refocus_photonics::buffer::{FeedbackBuffer, FeedforwardBuffer};
use refocus_photonics::complex::Complex64;
use refocus_photonics::fft::{fft, ifft};
use refocus_photonics::jtc::Jtc;
use refocus_photonics::signal::{correlate, max_abs_diff};
use refocus_photonics::units::{Decibels, GigaHertz};

fn signal_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1.0f64, 1..max_len)
}

/// Complex signals of every power-of-two length below `max_len`: a random
/// draw of `1..max_len` samples cut to the largest power of two it holds.
fn complex_signal(max_len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..max_len).prop_map(|v| {
        let n = 1 << v.len().ilog2();
        v.into_iter()
            .take(n)
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    })
}

fn energy(x: &[Complex64]) -> f64 {
    x.iter().map(|v| v.norm_sqr()).sum()
}

proptest! {
    #[test]
    fn fft_round_trip_is_identity(x in complex_signal(257)) {
        let mut back = x.clone();
        fft(&mut back);
        ifft(&mut back);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((*a - *b).norm() < 1e-7);
        }
    }

    #[test]
    fn parseval_holds_for_power_of_two_lengths(x in complex_signal(257)) {
        let mut spectrum = x.clone();
        fft(&mut spectrum);
        let t = energy(&x);
        let f = energy(&spectrum) / x.len() as f64;
        prop_assert!((t - f).abs() < 1e-6 * t.max(1.0));
    }

    #[test]
    fn fft_is_linear(
        x in complex_signal(129),
        k in -5.0..5.0f64,
    ) {
        let mut fs: Vec<Complex64> = x.iter().map(|v| v.scale(k)).collect();
        let mut fx = x;
        fft(&mut fs);
        fft(&mut fx);
        for (a, b) in fs.iter().zip(&fx) {
            prop_assert!((*a - b.scale(k)).norm() < 1e-6);
        }
    }

    #[test]
    fn jtc_computes_cross_correlation(
        s in signal_strategy(48),
        k in signal_strategy(16),
    ) {
        let jtc = Jtc::ideal();
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate(&s, &k);
        prop_assert_eq!(out.full().len(), want.len());
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prop_assert!(max_abs_diff(out.full(), &want) < 1e-7 * scale);
    }

    #[test]
    fn quantized_jtc_bounded_error(
        s in prop::collection::vec(0.01..1.0f64, 4..32),
        k in prop::collection::vec(0.01..1.0f64, 2..6),
    ) {
        let jtc = Jtc::quantized();
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate(&s, &k);
        let out_peak = want.iter().fold(0.0f64, |m, &v| m.max(v));
        // Analytic bound: both operands quantize against the joint peak P
        // with step q = P/255 (error <= q/2 each), so each of the K product
        // terms errs by <= P*q/2 + P*q/2 + O(q^2), and the ADC adds half an
        // LSB of the output full-scale.
        let p = s.iter().chain(k.iter()).fold(0.0f64, |m, &v| m.max(v));
        let q = p / 255.0;
        let bound = k.len() as f64 * (p * q + q * q / 4.0) + out_peak / 255.0 + 1e-9;
        prop_assert!(
            max_abs_diff(out.full(), &want) <= bound,
            "err {} > bound {bound}",
            max_abs_diff(out.full(), &want)
        );
    }

    #[test]
    fn feedback_buffer_closed_form_matches_simulation(
        r in 1u32..20,
        cycles in 1u32..33,
        alpha_scale in 0.2..0.8f64,
    ) {
        let alpha = alpha_scale; // any (0,1) split
        let buf = FeedbackBuffer::new(alpha, r, cycles, GigaHertz::new(10.0)).unwrap();
        let sim = buf.simulate_replays();
        for (i, p) in sim.iter().enumerate() {
            prop_assert!((p - buf.power_at_iteration(i as u32)).abs() < 1e-12);
        }
    }

    #[test]
    fn feedback_dynamic_range_grows_with_reuse(r in 1u32..30) {
        let clock = GigaHertz::new(10.0);
        let a = FeedbackBuffer::with_optimal_split(r, 16, clock).unwrap();
        let b = FeedbackBuffer::with_optimal_split(r + 1, 16, clock).unwrap();
        prop_assert!(b.dynamic_range() > a.dynamic_range());
    }

    #[test]
    fn feedforward_always_balanced(cycles in 1u32..200) {
        let buf = FeedforwardBuffer::balanced(cycles, GigaHertz::new(10.0));
        let (a, b) = buf.copy_powers(1.0);
        prop_assert!((a - b).abs() < 1e-12);
        prop_assert!(buf.relative_laser_power() >= 1.0);
    }

    #[test]
    fn db_transmission_round_trip(t in 0.001..1.0f64) {
        let db = Decibels::from_transmission(t);
        prop_assert!((db.transmission() - t).abs() < 1e-10);
        prop_assert!(db.value() >= 0.0);
    }

    #[test]
    fn wdm_accumulation_is_channel_sum(
        s0 in prop::collection::vec(0.0..1.0f64, 8..24),
        k in prop::collection::vec(0.0..1.0f64, 3..4),
    ) {
        // Duplicate channel: the shared detector must read exactly 2x one
        // channel.
        let jtc = Jtc::ideal();
        let single = jtc.correlate(&s0, &k).unwrap();
        let g = jtc.plane_geometry(s0.len(), k.len()).unwrap();
        let signal = jtc.signal_spectrum(g, &s0).unwrap();
        let kernel = jtc.kernel_spectrum(g, &k).unwrap();
        let mut detector = jtc.detector(g);
        for _ in 0..2 {
            detector.add(&signal, &kernel, 1.0);
        }
        for (a, b) in detector.read_valid().iter().zip(single.valid()) {
            prop_assert!((a - 2.0 * b).abs() < 1e-7);
        }
    }
}
