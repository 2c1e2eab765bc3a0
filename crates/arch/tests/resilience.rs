//! Resilient-execution contract of the fault-campaign runner.
//!
//! Pins the properties DESIGN.md §9 promises: a run killed mid-grid and
//! resumed from its journal is bit-identical to an uninterrupted run at
//! every thread count; a panicking or NaN-poisoned cell occupies exactly
//! its own failure slot while every other cell completes; transient
//! failures recover through retries without disturbing cell values; and
//! budgets skip work instead of corrupting it.

use refocus_arch::campaign::{
    CampaignReport, ChaosEvent, ChaosSpec, FaultCampaign, RunBudget, Workload,
};
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::error::{FailureKind, SimError};
use refocus_photonics::faults::FaultSpec;
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("refocus-resilience-{name}-{}", std::process::id()));
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

/// The headline acceptance criterion: interrupt the campaign mid-grid
/// (cell quota, the cooperative stand-in for a kill), resume from the
/// journal, and get a report bit-identical to an uninterrupted run — at
/// 1, 2, and 8 threads.
#[test]
fn killed_and_resumed_campaign_is_bit_identical_at_every_thread_count() {
    let campaign = small_campaign();
    let uninterrupted = campaign.run().expect("uninterrupted run completes");
    assert!(uninterrupted.is_complete());

    for &threads in &THREAD_COUNTS {
        let resumed: CampaignReport = refocus_par::with_threads(threads, || {
            let path = scratch(&format!("kill-resume-{threads}"));
            let _ = std::fs::remove_file(&path);
            // "Kill" after two fresh cells: the journal persists them...
            let partial = campaign
                .run_with_checkpoint(&path, &RunBudget::default().with_max_cells(2))
                .expect("partial run completes");
            assert_eq!(partial.cells.len(), 2, "{threads} threads");
            assert_eq!(partial.skipped.len(), 4, "{threads} threads");
            // ...and a fresh process picks the journal back up.
            let resumed = campaign.resume(&path).expect("resume completes");
            let _ = std::fs::remove_file(&path);
            resumed
        });
        assert!(resumed.is_complete(), "{threads} threads");
        assert_eq!(
            resumed, uninterrupted,
            "{threads}-thread resume diverged from the uninterrupted run"
        );
    }
}

/// A cell that panics lands in `failed` as a `WorkerPanic` with the
/// panic message; the other five cells complete normally, at every
/// thread count.
#[test]
fn panicking_cell_is_isolated_at_every_thread_count() {
    let campaign =
        small_campaign().with_chaos(ChaosSpec::none().failing_always(1.0, 2, ChaosEvent::Panic));
    for &threads in &THREAD_COUNTS {
        let report = refocus_par::with_threads(threads, || {
            campaign.run().expect("campaign survives the panic")
        });
        assert_eq!(report.cells.len(), 5, "{threads} threads");
        assert_eq!(report.failed.len(), 1, "{threads} threads");
        let failure = &report.failed[0];
        assert_eq!(failure.kind, FailureKind::WorkerPanic);
        assert_eq!((failure.severity, failure.seed), (1.0, 2));
        assert!(
            failure.error.contains("chaos: injected panic"),
            "panic payload must survive isolation: {}",
            failure.error
        );
    }
}

/// An injected NaN surfaces as `SimError::NonFinite` naming the
/// executor→metrics boundary, in exactly that cell's slot, while the
/// rest of the grid completes — the numerical-firewall acceptance
/// criterion.
#[test]
fn poisoned_nan_trips_the_firewall_in_its_own_slot() {
    let campaign = small_campaign().with_chaos(ChaosSpec::none().failing_always(
        4.0,
        1,
        ChaosEvent::PoisonNaN,
    ));
    let report = campaign.run().expect("campaign survives the poison");
    assert_eq!(report.cells.len(), 5);
    assert_eq!(report.failed.len(), 1);
    let failure = &report.failed[0];
    assert_eq!(failure.kind, FailureKind::NonFinite);
    assert_eq!((failure.severity, failure.seed), (4.0, 1));
    assert!(
        failure.error.contains("campaign-output"),
        "firewall stage must be named: {}",
        failure.error
    );
    // NaN never reaches the aggregates.
    assert!(report.rows.iter().all(|r| r.mean_max_abs_error.is_finite()));
}

/// Failed cells are not journaled, so resuming after a permanent panic
/// re-runs the cell — with chaos lifted, the resumed report is
/// bit-identical to a clean uninterrupted run.
#[test]
fn resume_recomputes_previously_failed_cells() {
    let path = scratch("failed-rerun");
    let _ = std::fs::remove_file(&path);
    let chaotic =
        small_campaign().with_chaos(ChaosSpec::none().failing_always(0.0, 1, ChaosEvent::Panic));
    let broken = chaotic
        .run_with_checkpoint(&path, &RunBudget::default())
        .expect("chaotic run completes");
    assert_eq!(broken.failed.len(), 1);

    let clean = small_campaign();
    let resumed = clean.resume(&path).expect("resume completes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed, clean.run().expect("reference run completes"));
}

/// Transient chaos (fails attempt 0, succeeds on retry) recovers under
/// the default budget; at severity 0 the injector is transparent for
/// every attempt, so the recovered report equals a chaos-free run
/// bit-for-bit.
#[test]
fn transient_failure_recovers_without_disturbing_values() {
    let chaotic = small_campaign().with_chaos(ChaosSpec::none().failing_transiently(
        0.0,
        2,
        ChaosEvent::Panic,
        1,
    ));
    let recovered = chaotic.run().expect("retry recovers the cell");
    assert!(recovered.is_complete());
    assert!(recovered
        .cells
        .iter()
        .any(|c| c.severity == 0.0 && c.seed == 2));
    let reference = small_campaign().run().expect("reference run completes");
    assert_eq!(
        recovered
            .cells
            .iter()
            .map(|c| c.max_abs_error)
            .collect::<Vec<_>>(),
        reference
            .cells
            .iter()
            .map(|c| c.max_abs_error)
            .collect::<Vec<_>>(),
    );
}

/// An expired wall-clock deadline skips cells instead of producing
/// partial garbage, and the journal lets a later run finish the job.
#[test]
fn expired_deadline_skips_then_checkpoint_completes() {
    let path = scratch("deadline");
    let _ = std::fs::remove_file(&path);
    let campaign = small_campaign();
    let starved = campaign
        .run_with_checkpoint(
            &path,
            &RunBudget::default().with_wall_clock(std::time::Duration::ZERO),
        )
        .expect("starved run completes");
    assert!(starved.cells.is_empty());
    assert_eq!(starved.skipped.len(), 6);

    let finished = campaign
        .run_with_checkpoint(&path, &RunBudget::default())
        .expect("follow-up run completes");
    let _ = std::fs::remove_file(&path);
    assert_eq!(finished, campaign.run().expect("reference run completes"));
}

/// A foreign campaign cannot resume another campaign's journal — the
/// fingerprint rejects it with a checkpoint error.
#[test]
fn journal_fingerprint_rejects_a_different_campaign() {
    let path = scratch("fingerprint");
    let _ = std::fs::remove_file(&path);
    small_campaign()
        .run_with_checkpoint(&path, &RunBudget::default().with_max_cells(1))
        .expect("seed run completes");
    let other = small_campaign().with_severities(&[0.0, 2.0]);
    let err = other
        .resume(&path)
        .expect_err("mismatched fingerprint must fail");
    let _ = std::fs::remove_file(&path);
    assert!(matches!(err, SimError::Checkpoint { .. }), "got {err:?}");
}
