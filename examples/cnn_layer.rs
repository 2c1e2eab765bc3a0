//! Run one CNN layer through the *functional* optical path and check it
//! against the digital reference, print the feedback buffer's analytic
//! dynamic range, then show what the architecture simulator says the
//! same layer costs.
//!
//! ```text
//! cargo run --release --example cnn_layer
//! ```

use refocus::arch::config::AcceleratorConfig;
use refocus::arch::functional::OpticalExecutor;
use refocus::arch::perf::LayerPerf;
use refocus::nn::conv::conv2d;
use refocus::nn::layer::ConvSpec;
use refocus::nn::tensor::{Tensor3, Tensor4};
use refocus::photonics::buffer::FeedbackBuffer;

fn max_rel_err(a: &Tensor3, b: &Tensor3) -> f64 {
    let peak = b
        .data()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1e-12);
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
        / peak
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down ResNet block layer: 8 channels of 14x14, 16 filters.
    let input = Tensor3::random(8, 14, 14, 0.0, 1.0, 42);
    let weights = Tensor4::random(16, 8, 3, 3, -0.5, 0.5, 43);
    let digital = conv2d(&input, &weights, 1, 1)?;

    // Ideal optics.
    let ideal = OpticalExecutor::ideal();
    let optical = ideal.conv2d(&input, &weights, 1, 1)?;
    println!(
        "ideal optics:      {} JTC passes, max relative error {:.2e}",
        ideal.passes(),
        max_rel_err(&optical, &digital)
    );

    // 8-bit converters in the loop.
    let quantized = OpticalExecutor::quantized();
    let q = quantized.conv2d(&input, &weights, 1, 1)?;
    println!(
        "8-bit converters:  {} JTC passes, max relative error {:.2e}",
        quantized.passes(),
        max_rel_err(&q, &digital)
    );

    // The feedback buffer's replays span this dynamic range, which the
    // digital weight rescaling of §4.1.1 compensates.
    let buffer = FeedbackBuffer::refocus_fb();
    println!(
        "feedback buffer:   replays span a {:.1}x dynamic range (analytic)",
        buffer.dynamic_range()
    );

    // What the performance model says the full-size layer costs.
    let layer = ConvSpec::new("layer3.0.conv1", 128, 256, 3, 2, 1, (28, 28));
    let cfg = AcceleratorConfig::refocus_fb();
    let perf = LayerPerf::analyze(&layer, &cfg)?;
    println!("\narchitecture view of {layer}:");
    println!("  passes/channel: {}", perf.plan.passes);
    println!("  channel iterations: {}", perf.channel_iterations);
    println!(
        "  filter iterations (incl. pseudo-negative): {}",
        perf.filter_iterations
    );
    println!("  cycles: {}", perf.cycles);
    println!(
        "  input DACs idle {:.0}% of cycles thanks to optical reuse",
        100.0 * (1.0 - perf.generation_cycles as f64 / perf.cycles as f64)
    );
    println!("  latency: {:.3} us", perf.duration(&cfg).value() * 1e6);
    Ok(())
}
