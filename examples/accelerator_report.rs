//! Full accelerator comparison on the paper's five CNNs: the
//! PhotoFourier-style baseline vs ReFOCUS-FF vs ReFOCUS-FB.
//!
//! ```text
//! cargo run --release --example accelerator_report
//! ```

use refocus::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suite = models::evaluation_suite();
    let systems = [
        ("baseline", AcceleratorConfig::photofourier_baseline()),
        ("ReFOCUS-FF", AcceleratorConfig::refocus_ff()),
        ("ReFOCUS-FB", AcceleratorConfig::refocus_fb()),
    ];

    println!(
        "{:<12} {:<10} {:>10} {:>8} {:>9} {:>10}",
        "system", "network", "FPS", "W", "FPS/W", "FPS/mm^2"
    );
    let mut summaries = Vec::new();
    for (name, config) in &systems {
        let s = simulate_suite(&suite, config)?;
        for r in &s.reports {
            println!(
                "{:<12} {:<10} {:>10.0} {:>8.2} {:>9.0} {:>10.1}",
                name,
                r.network_name,
                r.metrics.fps,
                r.metrics.power_w,
                r.metrics.fps_per_watt(),
                r.metrics.fps_per_mm2()
            );
        }
        summaries.push((name, s));
    }

    println!("\ngeomean summary:");
    println!(
        "{:<12} {:>10} {:>9} {:>10} {:>10} {:>8}",
        "system", "FPS", "FPS/W", "FPS/mm^2", "PAP", "mean W"
    );
    let base = &summaries[0].1;
    for (name, s) in &summaries {
        println!(
            "{:<12} {:>10.0} {:>9.0} {:>10.1} {:>10.2e} {:>8.2}",
            name,
            s.geomean_fps(),
            s.geomean_fps_per_watt(),
            s.geomean_fps_per_mm2(),
            s.geomean_pap(),
            s.mean_power_w()
        );
    }
    let fb = &summaries[2].1;
    println!(
        "\nReFOCUS-FB vs baseline: {:.2}x FPS, {:.2}x FPS/W, {:.2}x FPS/mm^2",
        fb.geomean_fps() / base.geomean_fps(),
        fb.geomean_fps_per_watt() / base.geomean_fps_per_watt(),
        fb.geomean_fps_per_mm2() / base.geomean_fps_per_mm2(),
    );
    println!("(paper headline: 2x throughput, 2.2x energy efficiency, 1.36x area efficiency)");
    Ok(())
}
