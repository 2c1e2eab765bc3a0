//! Observability contract of the instrumented campaign runner.
//!
//! Pins what DESIGN.md §10 promises: an enabled [`refocus_obs::Collector`]
//! wrapped around a fault campaign sees every pipeline layer (JTC stages,
//! conv2d tiling, campaign cells, checkpoint I/O, retry attempts), the
//! deterministic counters are identical at every thread count, and a
//! disabled collector observes nothing at all.

use refocus_arch::campaign::{ChaosEvent, ChaosSpec, FaultCampaign, RunBudget, Workload};
use refocus_arch::config::AcceleratorConfig;
use refocus_photonics::faults::FaultSpec;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The obs sinks are process-global, so tests that record must not
/// overlap. Everything in this file funnels through this gate.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "refocus-observability-{name}-{}",
        std::process::id()
    ));
    p
}

fn small_campaign() -> FaultCampaign {
    let spec = FaultSpec::none()
        .with_stuck_weights(0.05, 0.25)
        .with_dead_pixel_rate(0.05)
        .with_laser_drift(0.005, 0.1);
    FaultCampaign::new(AcceleratorConfig::refocus_fb(), spec)
        .with_severities(&[0.0, 1.0, 4.0])
        .with_seeds(&[1, 2])
        .with_workload(Workload {
            height: 6,
            width: 6,
            out_channels: 2,
            ..Workload::default()
        })
}

/// One checkpointed campaign run with a transient fail-point covers the
/// whole event taxonomy: the run span, one cell span per grid cell, at
/// least one retry, JTC/conv2d activity, and checkpoint writes.
#[test]
fn campaign_trace_covers_cells_retries_and_checkpoints() {
    let _gate = serial();
    let path = scratch("taxonomy");
    let _ = std::fs::remove_file(&path);

    let campaign = small_campaign().with_chaos(ChaosSpec::none().failing_transiently(
        0.0,
        2,
        ChaosEvent::Panic,
        1,
    ));
    let collector = refocus_obs::Collector::enabled();
    let report = campaign
        .run_with_checkpoint(&path, &RunBudget::default())
        .expect("checkpointed run completes");
    let obs = collector.finish();
    let _ = std::fs::remove_file(&path);

    assert!(report.is_complete());
    assert!(obs.enabled());

    let run = obs.span("campaign.run").expect("campaign.run span");
    assert_eq!(run.count, 1);
    let cells = obs.span("campaign.cell").expect("campaign.cell spans");
    assert_eq!(cells.count, 6, "one cell span per grid cell");
    // 6 first attempts + 1 retry of the transiently failing cell.
    let attempts = obs.span("campaign.cell.attempt").expect("attempt spans");
    assert_eq!(attempts.count, 7);
    assert_eq!(obs.counter("campaign.retries"), 1);

    // The instrumented layers below the campaign all fired. Noiseless
    // faulted layers run on the spectral path (DESIGN.md §3), so the JTC
    // shows up as its spectral stages rather than as per-pass spans.
    assert!(obs.span("conv2d").is_some(), "conv2d spans present");
    for stage in [
        "jtc.spectral.lens1",
        "jtc.spectral.detect",
        "jtc.spectral.lens2",
    ] {
        assert!(obs.span(stage).is_some(), "{stage} spans present");
    }
    assert!(obs.counter("jtc.spectra_reused") > 0);
    assert!(obs.counter("conv2d.optical_passes") > 0);
    // Every optical pass is either a per-pass correlation or served by
    // shared spectra.
    assert_eq!(
        obs.counter("jtc.passes") + obs.counter("jtc.spectra_reused"),
        obs.counter("conv2d.optical_passes")
    );

    // Checkpoint I/O is journaled per completed cell.
    assert!(obs.counter("checkpoint.persists") >= 6);
    assert!(obs.counter("checkpoint.bytes_written") > 0);

    // Span timing is internally consistent.
    for (_, stat) in obs.spans() {
        assert!(stat.min_ns <= stat.max_ns);
        assert!(stat.total_ns >= stat.max_ns);
    }
}

/// The work counters (passes, retries, cells) are pure functions of the
/// campaign grid, so they must not change with the thread count. The
/// FFT plan-cache counters are deliberately excluded: fresh pool
/// workers start with cold thread-local caches (DESIGN.md §10).
#[test]
fn work_counters_are_identical_at_every_thread_count() {
    let _gate = serial();
    let campaign = small_campaign().with_chaos(ChaosSpec::none().failing_transiently(
        1.0,
        1,
        ChaosEvent::Panic,
        1,
    ));

    let observe = |threads: usize| {
        refocus_par::with_threads(threads, || {
            let collector = refocus_obs::Collector::enabled();
            campaign.run().expect("campaign completes");
            let obs = collector.finish();
            (
                obs.counter("jtc.spectra_reused"),
                obs.counter("conv2d.optical_passes"),
                obs.counter("campaign.retries"),
                obs.span("campaign.cell").map(|s| s.count),
                obs.span("campaign.cell.attempt").map(|s| s.count),
            )
        })
    };

    let reference = observe(1);
    assert!(reference.0 > 0, "serial run records spectral passes");
    for threads in [2, 8] {
        assert_eq!(
            observe(threads),
            reference,
            "{threads}-thread counters diverged from serial"
        );
    }
}

/// With no collector active the instrumentation is inert: a campaign
/// run leaves nothing behind for a later collector to pick up.
#[test]
fn disabled_instrumentation_records_nothing() {
    let _gate = serial();
    assert!(!refocus_obs::recording());
    small_campaign().run().expect("campaign completes");

    let collector = refocus_obs::Collector::enabled();
    let obs = collector.finish();
    assert!(obs.is_empty(), "uncollected run must leave no events");
    assert_eq!(obs.counter("jtc.passes"), 0);
    assert_eq!(obs.to_chrome_trace().trim(), "[]");
}
