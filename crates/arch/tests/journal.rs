//! The append-only checkpoint journal under a real campaign: a torn
//! final record (a kill mid-append) is dropped on resume, and a run's
//! journal I/O is linear in its cells.

use refocus_arch::campaign::{CampaignCell, FaultCampaign, RunBudget, Workload};
use refocus_arch::checkpoint::Checkpoint;
use refocus_arch::config::AcceleratorConfig;
use refocus_photonics::faults::FaultSpec;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The obs sinks are process-global, so the tests in this file, which
/// record, must not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("refocus-journal-{name}-{}", std::process::id()));
    p
}

fn campaign(seeds: &[u64]) -> FaultCampaign {
    let spec = FaultSpec::none()
        .with_stuck_weights(0.02, 0.0)
        .with_dead_pixel_rate(0.02)
        .with_laser_drift(0.002, 0.05);
    FaultCampaign::new(AcceleratorConfig::refocus_fb(), spec)
        .with_severities(&[0.0, 1.0, 4.0])
        .with_seeds(seeds)
        .with_workload(Workload {
            height: 6,
            width: 6,
            out_channels: 2,
            ..Workload::default()
        })
}

#[test]
fn half_written_record_is_dropped_and_resume_is_bit_identical() {
    let _gate = serial();
    let path = scratch("torn");
    let _ = std::fs::remove_file(&path);
    let campaign = campaign(&[1, 2]);
    campaign
        .run_with_checkpoint(&path, &RunBudget::default().with_max_cells(2))
        .expect("partial run completes");
    // A kill mid-append leaves the first half of a record, no newline.
    let text = std::fs::read_to_string(&path).expect("journal exists");
    let last = text.lines().last().expect("journal has records");
    let torn = format!("{text}{}", &last[..last.len() / 2]);
    std::fs::write(&path, torn).expect("tear the journal");

    let collector = refocus_obs::Collector::enabled();
    let resumed = campaign.resume(&path).expect("torn journal resumes");
    let obs = collector.finish();
    assert_eq!(obs.counter("checkpoint.torn_lines"), 1);
    assert_eq!(resumed, campaign.run().expect("reference run completes"));

    let text = std::fs::read_to_string(&path).expect("journal exists");
    assert!(text.ends_with('\n'));
    for line in text.lines() {
        serde_json::parse_value_str(line).expect("every line parses");
    }
    let journal: Checkpoint<CampaignCell> =
        Checkpoint::load(&path, &campaign.fingerprint()).expect("journal reloads");
    assert_eq!(journal.len(), campaign.grid_len());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_bytes_written_equal_the_file_length() {
    let _gate = serial();
    for seeds in [&[1u64, 2][..], &[1, 2, 3, 4]] {
        let path = scratch(&format!("linear-{}", seeds.len()));
        let _ = std::fs::remove_file(&path);
        let campaign = campaign(seeds);
        let collector = refocus_obs::Collector::enabled();
        let report = campaign
            .run_with_checkpoint(&path, &RunBudget::default())
            .expect("checkpointed run completes");
        let obs = collector.finish();
        assert!(report.is_complete());
        let file_len = std::fs::metadata(&path).expect("journal exists").len();
        let _ = std::fs::remove_file(&path);
        // One header line plus one line per cell, each written once.
        let cells = campaign.grid_len() as u64;
        assert_eq!(obs.counter("checkpoint.persists"), cells + 1);
        assert_eq!(obs.counter("checkpoint.bytes_written"), file_len);
    }
}
