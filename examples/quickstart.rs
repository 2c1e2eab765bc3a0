//! Quickstart: compute a convolution with light, then size the full
//! accelerator.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use refocus::photonics::jtc::Jtc;
use refocus::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. One optical convolution on a Joint Transform Correlator. ---
    // The JTC places the signal and kernel side by side, Fourier-transforms
    // them with an on-chip lens, squares the field at the Fourier plane,
    // transforms back, and reads the correlation off the output plane.
    let jtc = Jtc::ideal();
    let signal = [0.1, 0.4, 0.9, 0.6, 0.2, 0.7, 0.3];
    let kernel = [0.25, 0.5, 0.25];
    let out = jtc.correlate(&signal, &kernel)?;

    println!("optical convolution (valid window):");
    for (i, v) in out.valid().iter().enumerate() {
        // Digital reference for the same tap.
        let want: f64 = kernel
            .iter()
            .enumerate()
            .map(|(k, w)| signal[i + k] * w)
            .sum();
        println!("  y[{i}] = {v:.6}   (digital: {want:.6})");
    }

    // The same pass through 8-bit DACs/ADCs, as the real hardware would.
    let quantized = Jtc::quantized();
    let qout = quantized.correlate(&signal, &kernel)?;
    println!("\nwith 8-bit converters:");
    for (a, b) in qout.valid().iter().zip(out.valid()) {
        println!("  {a:.6}  (ideal {b:.6})");
    }

    // --- 2. Whole-accelerator simulation. ---
    let report = simulate(&models::resnet34(), &AcceleratorConfig::refocus_fb())?;
    println!(
        "\nReFOCUS-FB on {}: {:.0} FPS, {:.2} W, {:.1} mm^2 -> {:.0} FPS/W",
        report.network_name,
        report.metrics.fps,
        report.metrics.power_w,
        report.metrics.area_mm2,
        report.metrics.fps_per_watt()
    );
    println!(
        "\nper-component energy of one inference:\n{}",
        report.energy
    );
    Ok(())
}
