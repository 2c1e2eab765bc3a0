//! The `refocus` binary end to end: each subcommand prints what the
//! library computes, and bad invocations exit 1 with a message instead
//! of panicking.

use refocus::arch::campaign::CampaignReport;
use refocus::arch::config::AcceleratorConfig;
use refocus::arch::simulator::{simulate, Report};
use refocus::experiments::{experiment_by_id, fault_study};
use refocus::nn::models;
use std::path::PathBuf;
use std::process::{Command, Output};

fn refocus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_refocus"))
        .args(args)
        .output()
        .expect("the refocus binary runs")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).expect("utf-8 stderr")
}

/// A fresh path under the integration-test scratch directory.
fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn report_prints_the_experiment() {
    let out = refocus(&["report", "-e", "table1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let expected = experiment_by_id("table1").expect("table1 is registered");
    assert_eq!(stdout(&out), format!("{expected}\n"));
}

#[test]
fn sim_json_is_the_simulated_report() {
    let out = refocus(&["sim", "--network", "resnet50", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report = simulate(&models::resnet50(), &AcceleratorConfig::refocus_fb()).unwrap();
    let expected = serde_json::to_string_pretty(&report).unwrap();
    assert_eq!(stdout(&out), format!("{expected}\n"));
    let parsed: Report = serde_json::from_str(stdout(&out)).unwrap();
    assert_eq!(serde_json::to_value(&parsed), serde_json::to_value(&report));
}

#[test]
fn sim_json_reports_a_degraded_feedback_config() {
    // At 30,000 reuses the replay ratio ρ^-R overflows an f64; the report
    // records the ranges in dB, so it still serializes.
    let args = ["sim", "--variant", "fb", "--network", "resnet18"];
    let out = refocus(&[&args[..], &["--reuses", "30000", "--json"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report: Report = serde_json::from_str(stdout(&out)).unwrap();
    let d = report.degradation.expect("30,000 reuses degrade");
    assert_eq!(d.requested_reuses, 30_000);
    assert!(d.applied_reuses < d.requested_reuses);
    assert!(d.requested_dynamic_range_db.is_finite());
    assert!(d.requested_dynamic_range_db > d.applied_dynamic_range_db);
}

#[test]
fn fault_study_resumes_to_the_uninterrupted_report() {
    let journal = scratch("cli-fault-study.jsonl");
    let summary = scratch("cli-fault-study-obs.json");
    let (journal, summary) = (journal.to_str().unwrap(), summary.to_str().unwrap());

    let partial = refocus(&["fault-study", "--checkpoint", journal, "--max-cells", "3"]);
    assert_eq!(partial.status.code(), Some(1), "{}", stderr(&partial));
    assert!(stderr(&partial).contains("skipped by the budget"));

    let resumed = refocus(&[
        "fault-study",
        "--resume",
        journal,
        "--json",
        "--obs-json",
        summary,
    ]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let expected = serde_json::to_string_pretty(&fault_study::campaign().run().unwrap()).unwrap();
    assert_eq!(stdout(&resumed), format!("{expected}\n"));

    let diff = refocus(&["obs", "diff", summary, summary]);
    assert_eq!(diff.status.code(), Some(0), "{}", stdout(&diff));
}

#[test]
fn incomplete_fault_study_json_exits_1() {
    let journal = scratch("cli-fault-study-json.jsonl");
    let partial = refocus(&[
        "fault-study",
        "--json",
        "--checkpoint",
        journal.to_str().unwrap(),
        "--max-cells",
        "3",
    ]);
    assert_eq!(partial.status.code(), Some(1), "{}", stderr(&partial));
    let report: CampaignReport = serde_json::from_str(stdout(&partial)).unwrap();
    assert!(!report.skipped.is_empty());
}

#[test]
fn bad_invocations_exit_1_with_a_message() {
    for (args, message) in [
        (&["frobnicate"][..], "unknown command: frobnicate"),
        (&["report", "--bogus"], "unknown argument: --bogus"),
        (&["sim", "--rfcus"], "--rfcus needs a value"),
        (
            &["fault-study", "--resume", "run.jsonl", "--max-cells", "3"],
            "--resume and --max-cells are mutually exclusive",
        ),
        (
            &["sim", "--reuses", "0"],
            "invalid configuration: reuses must be positive",
        ),
        (
            &["sim", "--dram", "--weight-compression", "nan"],
            "invalid configuration: weight_compression must be positive",
        ),
    ] {
        let out = refocus(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).starts_with(&format!("{message}\n")),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(!stderr(&out).contains("panicked"), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}
