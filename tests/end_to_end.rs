//! End-to-end integration: a small CNN executed on the simulated optics —
//! field-level JTC passes, 8-bit converters, noise, pseudo-negative
//! recombination — checked against the digital reference, with the
//! performance model's pass accounting cross-validated.

use refocus::arch::config::AcceleratorConfig;
use refocus::arch::functional::OpticalExecutor;
use refocus::arch::perf::LayerPerf;
use refocus::arch::schedule::Schedule;
use refocus::nn::conv::conv2d;
use refocus::nn::layer::ConvSpec;
use refocus::nn::models;
use refocus::nn::quant::PSEUDO_NEGATIVE_LATENCY_FACTOR;
use refocus::nn::tensor::{Tensor3, Tensor4};
use refocus::nn::tiling::{TilingMode, TilingPlan};
use refocus::photonics::jtc::Jtc;
use refocus::photonics::noise::NoiseModel;

/// A three-layer toy CNN (conv-relu ×3) run entirely through the optics.
#[test]
fn tiny_cnn_forward_pass_on_optics_matches_digital() {
    let exec = OpticalExecutor::ideal();

    let mut x_opt = Tensor3::random(3, 16, 16, 0.0, 1.0, 100);
    let mut x_dig = x_opt.clone();
    let layer_weights = [
        Tensor4::random(8, 3, 3, 3, -0.5, 0.5, 101),
        Tensor4::random(8, 8, 3, 3, -0.5, 0.5, 102),
        Tensor4::random(4, 8, 3, 3, -0.5, 0.5, 103),
    ];

    for (i, w) in layer_weights.iter().enumerate() {
        let mut opt = exec.conv2d(&x_opt, w, 1, 1).unwrap();
        let mut dig = conv2d(&x_dig, w, 1, 1).unwrap();
        // ReLU keeps activations non-negative — exactly what the JTC needs
        // for the next layer.
        opt.relu();
        dig.relu();
        let peak = dig.data().iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        let err = opt
            .data()
            .iter()
            .zip(dig.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-7 * peak.max(1.0), "layer {i}: err = {err}");
        x_opt = opt;
        x_dig = dig;
    }
}

#[test]
fn quantized_noisy_pipeline_stays_usable() {
    // 8-bit converters + 1% detector noise: the regime noise-aware
    // training (§7.2) is designed for. The result must stay within a few
    // percent of the digital reference.
    let exec = OpticalExecutor::quantized();
    let x = Tensor3::random(2, 10, 10, 0.0, 1.0, 200);
    let w = Tensor4::random(4, 2, 3, 3, -0.5, 0.5, 201);
    let digital = conv2d(&x, &w, 1, 1).unwrap();
    let optical = exec.conv2d(&x, &w, 1, 1).unwrap();

    let mut noise = NoiseModel::new(7).with_relative_sigma(0.01);
    let noisy = noise.apply(optical.data());

    let peak = digital.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let err = noisy
        .iter()
        .zip(digital.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err < 0.15 * peak, "err = {err}, peak = {peak}");
}

#[test]
fn functional_pass_count_matches_perf_plan() {
    // The optical executor's pass counter must agree with the analytical
    // tiling plan: passes = plan.passes x channels x filters x 2 halves
    // (per-channel plans on the padded input, one wavelength, one RFCU).
    // Row-partitioned layers and kernels above 25 taps are left out: there
    // the executor and the plan still count differently.
    let mut layers = vec![
        ConvSpec::new("3x3", 4, 2, 3, 1, 1, (14, 14)),
        // Five input rows per pass: a strided pass yields two (3x3) or
        // three (1x1) kept output rows, not three or five stride-1 rows.
        ConvSpec::new("3x3/2", 2, 3, 3, 2, 1, (40, 40)),
        ConvSpec::new("1x1/2", 3, 2, 1, 2, 0, (51, 51)),
    ];
    // Every such layer of ResNet-18 and AlexNet at 1/8 of the channels
    // and 1/4 of the input size.
    let tile = AcceleratorConfig::refocus_ff().tile;
    for net in [models::resnet18(), models::alexnet()] {
        for l in net.layers() {
            let scaled = ConvSpec::new(
                format!("{}.{}", net.name(), l.name),
                (l.in_channels / 8).max(1),
                (l.out_channels / 8).max(1),
                l.kernel,
                l.stride,
                l.padding,
                ((l.input_hw.0 / 4).max(1), (l.input_hw.1 / 4).max(1)),
            );
            let plan = TilingPlan::plan(
                scaled.input_hw,
                scaled.kernel,
                scaled.stride,
                scaled.padding,
                tile,
                TilingMode::Exact,
            )
            .unwrap();
            if !plan.row_partitioned && scaled.kernel * scaled.kernel <= 25 {
                layers.push(scaled);
            }
        }
    }
    assert!(layers.len() > 20, "{} layers", layers.len());

    for (seed, l) in layers.iter().enumerate() {
        let exec = OpticalExecutor::ideal();
        let (h, w) = l.input_hw;
        let x = Tensor3::random(l.in_channels, h, w, 0.0, 1.0, 300 + seed as u64);
        let weights = Tensor4::random(
            l.out_channels,
            l.in_channels,
            l.kernel,
            l.kernel,
            -0.5,
            0.5,
            400 + seed as u64,
        );
        let out = exec.conv2d(&x, &weights, l.stride, l.padding).unwrap();
        assert_eq!((out.height(), out.width()), l.output_hw(), "{}", l.name);

        let plan = TilingPlan::plan(
            l.input_hw,
            l.kernel,
            l.stride,
            l.padding,
            tile,
            TilingMode::Exact,
        )
        .unwrap();
        let expected = plan.passes as u64
            * l.in_channels as u64
            * l.out_channels as u64
            * PSEUDO_NEGATIVE_LATENCY_FACTOR as u64;
        assert_eq!(exec.passes(), expected, "{}", l.name);
    }
}

#[test]
fn schedule_perf_and_energy_agree_on_generation_cycles() {
    let layer = ConvSpec::new("t", 32, 64, 3, 1, 1, (28, 28));
    let cfg = AcceleratorConfig::refocus_fb();
    let perf = LayerPerf::analyze(&layer, &cfg).unwrap();
    let sched = Schedule::compile(&layer, &cfg).unwrap();
    assert_eq!(sched.cycles(), perf.cycles);
    assert_eq!(sched.generation_cycles(), perf.generation_cycles);
    assert!(sched.verify_fifo());
}

#[test]
fn wdm_detector_sum_and_jtc_compose_with_tiling() {
    // Two WDM channels summed at one shared photodetector equal the digital
    // sum of two per-channel valid correlations on tiled rows.
    let jtc = Jtc::ideal();
    let rows_a: Vec<f64> = (0..64).map(|i| ((i * 13) % 7) as f64 / 7.0).collect();
    let rows_b: Vec<f64> = (0..64).map(|i| ((i * 5) % 11) as f64 / 11.0).collect();
    let k = vec![0.25, 0.5, 0.25];
    let g = jtc.plane_geometry(64, k.len()).unwrap();
    let kernel = jtc.kernel_spectrum(g, &k).unwrap();
    let mut detector = jtc.detector(g);
    for rows in [&rows_a, &rows_b] {
        detector.add(&jtc.signal_spectrum(g, rows).unwrap(), &kernel, 1.0);
    }
    let acc = detector.read_valid();
    let want: Vec<f64> = refocus::photonics::signal::correlate_valid(&rows_a, &k)
        .iter()
        .zip(refocus::photonics::signal::correlate_valid(&rows_b, &k))
        .map(|(x, y)| x + y)
        .collect();
    for (a, b) in acc.iter().zip(&want) {
        assert!((a - b).abs() < 1e-8);
    }
}
