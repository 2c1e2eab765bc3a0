//! Cross-crate consistency checks: the same physical quantity derived
//! through different crates must agree.

use refocus::arch::area::area_breakdown;
use refocus::arch::config::AcceleratorConfig;
use refocus::arch::energy::EnergyModel;
use refocus::arch::perf::{LayerPerf, NetworkPerf};
use refocus::arch::rfcu::ComponentCounts;
use refocus::arch::simulator::simulate;
use refocus::memsim::sram::{Sram, KIB, MIB};
use refocus::nn::layer::ConvSpec;
use refocus::nn::models;
use refocus::photonics::buffer::{FeedbackBuffer, FeedforwardBuffer};
use refocus::photonics::components::{Adc, DelayLine};

#[test]
fn delay_line_area_consistent_between_crates() {
    // photonics' per-line area x arch's line count == arch's area row.
    let cfg = AcceleratorConfig::refocus_fb();
    let counts = ComponentCounts::of(&cfg);
    let per_line = DelayLine::for_cycles(cfg.delay_cycles, cfg.clock).area();
    let total = area_breakdown(&cfg).delay_lines;
    assert!((per_line.value() * counts.delay_lines as f64 - total.value()).abs() < 1e-9);
}

#[test]
fn laser_overhead_consistent_with_buffer_models() {
    let ff = AcceleratorConfig::refocus_ff();
    let fb = AcceleratorConfig::refocus_fb();
    let ff_buf = FeedforwardBuffer::refocus_ff();
    let fb_buf = FeedbackBuffer::refocus_fb();
    assert!((ff.laser_overhead() - ff_buf.relative_laser_power()).abs() < 1e-12);
    assert!((fb.laser_overhead() - fb_buf.relative_laser_power()).abs() < 1e-12);
}

#[test]
fn energy_model_laser_scales_with_overhead() {
    let ff = EnergyModel::new(&AcceleratorConfig::refocus_ff());
    let fb = EnergyModel::new(&AcceleratorConfig::refocus_fb());
    // Only the *input* channels carry the buffer-loss overhead; the weight
    // channels dilute the ratio. Reconstruct the exact expectation from the
    // channel counts (512 buffered input sources, 800 weight sources).
    let ratio = fb.laser_power() / ff.laser_power();
    let ff_ovh = AcceleratorConfig::refocus_ff().laser_overhead();
    let fb_ovh = AcceleratorConfig::refocus_fb().laser_overhead();
    let expect = (512.0 * fb_ovh + 800.0) / (512.0 * ff_ovh + 800.0);
    assert!(
        (ratio - expect).abs() < 1e-9,
        "ratio {ratio} vs expected {expect}"
    );
    // And the undiluted overhead ratio bounds it from above.
    assert!(ratio < fb_ovh / ff_ovh);
}

#[test]
fn sram_sizes_match_section_5_2() {
    // §5.2: 4 MB activation SRAM has >4x the access energy of the 512 KB
    // weight SRAM — through the memsim crate used by arch.
    let act = Sram::new(4 * MIB);
    let weight = Sram::new(512 * KIB);
    let ratio = act.energy_per_byte().value() / weight.energy_per_byte().value();
    assert!(ratio > 3.99, "ratio = {ratio}");
}

#[test]
fn adc_clock_follows_temporal_accumulation() {
    // Each ADC reads once per accumulation window, so on a layer with
    // enough channel groups to fill the window it reads at clock / TA.
    // At the paper's TA = 16 that is the photonics crate's ADC clock,
    // whose energy per conversion the energy model charges.
    let layer = ConvSpec::new("deep", 256, 256, 3, 1, 1, (14, 14));
    for (ta, want_ghz) in [(16u32, 0.625f64), (8, 1.25), (1, 10.0)] {
        let cfg = AcceleratorConfig {
            temporal_accumulation: ta,
            delay_cycles: 16,
            ..AcceleratorConfig::refocus_ff()
        };
        let perf = LayerPerf::analyze(&layer, &cfg).unwrap();
        let readouts = perf.cycles as f64 / perf.effective_ta as f64;
        let adc_ghz = readouts / perf.duration(&cfg).value() / 1e9;
        assert!((adc_ghz - want_ghz).abs() < 1e-12, "ta={ta}: {adc_ghz}");
    }
    assert_eq!(Adc::DEFAULT_CLOCK.value(), 0.625);
}

#[test]
fn network_macs_and_cycles_scale_together() {
    // More MACs must not take fewer cycles on the same configuration
    // (within the suite's workloads).
    let cfg = AcceleratorConfig::refocus_fb();
    let mut pairs: Vec<(u64, u64)> = models::evaluation_suite()
        .iter()
        .map(|net| {
            let perf = NetworkPerf::analyze(net, &cfg).unwrap();
            (net.total_macs(), perf.total_cycles)
        })
        .collect();
    pairs.sort_unstable();
    for w in pairs.windows(2) {
        assert!(
            w[1].1 >= w[0].1 / 3,
            "cycle ordering wildly violates MAC ordering: {pairs:?}"
        );
    }
}

#[test]
fn dataflow_traffic_and_energy_model_agree() {
    // Two derivations of memory energy must match: the energy model's
    // per-component joules vs traffic bytes priced through the memsim
    // hierarchy.
    use refocus::arch::dataflow::network_traffic;
    use refocus::memsim::buffers::{BufferParams, DataBuffers, DataflowCase};
    use refocus::memsim::hierarchy::{Hierarchy, Level};

    let cfg = AcceleratorConfig::refocus_fb();
    let net = models::resnet34();
    let perf = NetworkPerf::analyze(&net, &cfg).unwrap();
    let traffic = network_traffic(&net, &perf, &cfg);

    let model = EnergyModel::new(&cfg);
    let energy = model.network_energy(&net, &perf);

    let buffers = DataBuffers::size(
        DataflowCase::NextFilter,
        &BufferParams {
            tile: cfg.tile,
            delay_cycles: cfg.delay_cycles as usize,
            wavelengths: cfg.wavelengths,
            reuses: (cfg.max_input_uses() - 1) as usize,
            rfcus: cfg.rfcus,
            max_filters: 512,
            max_channels: 512,
            ping_pong: true,
        },
    );
    let hierarchy = Hierarchy::new(Some(buffers));

    let close = |a: f64, b: f64, what: &str| {
        assert!(
            (a - b).abs() < 1e-9 * a.max(b).max(1e-30),
            "{what}: {a} vs {b}"
        );
    };
    close(
        hierarchy
            .energy(Level::WeightSram, traffic.weight_sram)
            .value(),
        energy.weight_sram.value(),
        "weight SRAM",
    );
    close(
        hierarchy
            .energy(Level::ActivationSram, traffic.activation_sram)
            .value(),
        energy.activation_sram.value(),
        "activation SRAM",
    );
    let buffers_via_hierarchy = hierarchy.energy(Level::InputBuffer, traffic.input_buffer)
        + hierarchy.energy(Level::OutputBuffer, traffic.output_buffer);
    close(
        buffers_via_hierarchy.value(),
        energy.data_buffers.value(),
        "data buffers",
    );
    close(
        hierarchy.energy(Level::Dram, traffic.dram).value(),
        energy.dram.value(),
        "DRAM",
    );
}

#[test]
fn report_serializes_to_json() {
    let r = simulate(&models::resnet18(), &AcceleratorConfig::refocus_fb()).unwrap();
    let json = serde_json::to_string(&r).unwrap();
    assert!(json.contains("ResNet-18"));
    let back: refocus::arch::simulator::Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back.network_name, r.network_name);
    assert!((back.metrics.fps - r.metrics.fps).abs() < 1e-9);
}
