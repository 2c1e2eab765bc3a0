//! Fault-injection campaign: how device faults degrade the optical conv
//! path, and how the simulator degrades gracefully instead of panicking.
//!
//! ```text
//! cargo run --release --example fault_study
//! ```

use refocus::arch::config::{AcceleratorConfig, OpticalBufferKind};
use refocus::arch::error::SimError;
use refocus::arch::simulator::simulate;
use refocus::experiments::fault_study::{base_spec, campaign};
use refocus::nn::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Sweep fault severity on the functional conv path. ---
    // The `fault_study` experiment's campaign: 1% stuck MRR weight taps,
    // 1% dead detector pixels, laser power drifting 0.2% per pass
    // (clamped to +/-5%), swept over five severities and three seeds.
    let spec = base_spec();
    let report = campaign().run()?;

    println!(
        "fault campaign on {} (peak output {:.3}):",
        report.config_name, report.reference_peak
    );
    println!(
        "{:>9} {:>15} {:>15} {:>13}",
        "severity", "mean max|err|", "worst max|err|", "mean RMS"
    );
    for row in &report.rows {
        println!(
            "{:>8.1}x {:>15.3e} {:>15.3e} {:>13.3e}",
            row.severity, row.mean_max_abs_error, row.worst_max_abs_error, row.mean_rms_error
        );
    }
    assert_eq!(
        report.rows[0].mean_max_abs_error, 0.0,
        "fault-free must be exact"
    );
    assert!(report.errors_monotone_in_severity(1e-12));
    println!(
        "laser margin for the {:.0}% drift limit: {:.3}x\n",
        spec.laser_drift_limit * 100.0,
        spec.laser_margin()
    );

    // --- 2. Graceful degradation: an infeasible reuse count falls back. ---
    // R = 200 replays spread far beyond the 256x detector budget; the
    // scheduler rescales to the largest feasible reuse and records it.
    let ambitious = AcceleratorConfig {
        optical_buffer: OpticalBufferKind::FeedBack { reuses: 200 },
        ..AcceleratorConfig::refocus_fb()
    };
    let r = simulate(&models::resnet18(), &ambitious)?;
    let d = r.degradation.expect("fallback recorded");
    println!(
        "requested R={} (dynamic range {:.1}) -> degraded to R={} (dynamic range {:.1})",
        d.requested_reuses, d.requested_dynamic_range, d.applied_reuses, d.applied_dynamic_range
    );

    // --- 3. Typed errors: invalid configs return SimError, not panics. ---
    let mut broken = AcceleratorConfig::refocus_fb();
    broken.rfcus = 0;
    match simulate(&models::resnet18(), &broken) {
        Err(SimError::Config(e)) => println!("rejected invalid config: {e}"),
        other => panic!("expected a config error, got {other:?}"),
    }
    Ok(())
}
