//! Runs the fault-injection campaign with resilient-execution controls.
//!
//! ```text
//! cargo run -p refocus-experiments --bin fault_study
//! cargo run -p refocus-experiments --bin fault_study -- --checkpoint run.jsonl
//! cargo run -p refocus-experiments --bin fault_study -- --resume run.jsonl
//! cargo run -p refocus-experiments --bin fault_study -- \
//!     --checkpoint run.jsonl --max-cells 4 --retries 2 --json
//! ```
//!
//! `--checkpoint` journals each completed cell to the given path and
//! replays any cells already journaled there, so an interrupted (or
//! budget-limited) invocation can be re-run with the same flags until
//! the report is complete. `--resume` is the strict variant: the journal
//! must already exist, and it runs the rest of the campaign under the
//! default budget, so it rejects the budget flags. Both produce reports
//! bit-identical to a single uninterrupted run.
//!
//! `--trace <path>` records the run and writes a Chrome `trace_event`
//! JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>);
//! `--obs-json <path>` writes the aggregate span/counter summary
//! (DESIGN.md §10). Either flag also folds one analytical suite pass
//! into the session so the artifacts carry the attribution-ledger
//! breakdown (DESIGN.md §11) that `obs-report` renders and diffs. With
//! neither flag the obs layer stays on its disabled fast path and
//! costs nothing.

use refocus_experiments::fault_study;
use refocus_experiments::render::Table;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use refocus_arch::campaign::RunBudget;
use refocus_obs::Collector;

struct Options {
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    budget: RunBudget,
    /// The first budget flag given, so `--resume` can reject it.
    budget_flag: Option<&'static str>,
    json: bool,
    trace: Option<PathBuf>,
    obs_json: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: fault_study [--checkpoint <path> | --resume <path>] \
     [--max-cells <n>] [--retries <n>] [--wall-clock-secs <n>] [--json] \
     [--trace <path>] [--obs-json <path>]"
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        checkpoint: None,
        resume: None,
        budget: RunBudget::default(),
        budget_flag: None,
        json: false,
        trace: None,
        obs_json: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--json" => opts.json = true,
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--resume" => opts.resume = Some(PathBuf::from(value("--resume")?)),
            "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
            "--obs-json" => opts.obs_json = Some(PathBuf::from(value("--obs-json")?)),
            "--max-cells" => {
                opts.budget_flag.get_or_insert("--max-cells");
                let n = value("--max-cells")?
                    .parse()
                    .map_err(|e| format!("--max-cells: {e}"))?;
                opts.budget = opts.budget.with_max_cells(n);
            }
            "--retries" => {
                opts.budget_flag.get_or_insert("--retries");
                let n = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
                opts.budget = opts.budget.with_retries(n);
            }
            "--wall-clock-secs" => {
                opts.budget_flag.get_or_insert("--wall-clock-secs");
                let secs: u64 = value("--wall-clock-secs")?
                    .parse()
                    .map_err(|e| format!("--wall-clock-secs: {e}"))?;
                opts.budget = opts.budget.with_wall_clock(Duration::from_secs(secs));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if opts.checkpoint.is_some() && opts.resume.is_some() {
        return Err("--checkpoint and --resume are mutually exclusive".into());
    }
    if let (Some(_), Some(flag)) = (&opts.resume, opts.budget_flag) {
        return Err(format!("--resume and {flag} are mutually exclusive"));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let observed = opts.trace.is_some() || opts.obs_json.is_some();
    let collector = Collector::new(observed);
    if observed {
        // The campaign exercises only the functional optical path, which
        // has no energy model. Fold in one analytical suite pass so the
        // exported trace and summary also carry the attribution-ledger
        // families (energy / cycles / bytes) that `obs-report` renders.
        if let Err(e) = refocus_arch::simulator::simulate_suite(
            &refocus_nn::models::evaluation_suite(),
            &refocus_arch::config::AcceleratorConfig::refocus_fb(),
        ) {
            eprintln!("attribution suite pass failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    let campaign = fault_study::campaign();
    let result = if let Some(path) = &opts.resume {
        campaign.resume(path)
    } else if let Some(path) = &opts.checkpoint {
        campaign.run_with_checkpoint(path, &opts.budget)
    } else {
        campaign.run_budgeted(&opts.budget)
    };

    let obs_report = collector.finish();
    if let Some(path) = &opts.trace {
        if let Err(e) = obs_report.write_chrome_trace(path) {
            eprintln!("cannot write chrome trace to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.obs_json {
        if let Err(e) = obs_report.write_json(path) {
            eprintln!("cannot write obs summary to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut t = Table::new(
        "output error vs fault severity (ReFOCUS-FB conv path)",
        &["severity", "seeds", "mean max |err|", "mean RMS err"],
    );
    for row in &report.rows {
        t.push_row(vec![
            format!("{:.1}x", row.severity),
            row.seeds.to_string(),
            format!("{:.3e}", row.mean_max_abs_error),
            format!("{:.3e}", row.mean_rms_error),
        ]);
    }
    println!("{t}");
    for failure in &report.failed {
        eprintln!(
            "failed cell: severity {:.1}x seed {} after {} attempt(s) ({}): {}",
            failure.severity, failure.seed, failure.attempts, failure.kind, failure.error
        );
    }
    if !report.skipped.is_empty() {
        eprintln!(
            "{} cell(s) skipped by the budget; re-run with the same --checkpoint to continue",
            report.skipped.len()
        );
    }
    if report.is_complete() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn resume_rejects_budget_flags() {
        for (flag, value) in [
            ("--max-cells", "3"),
            ("--retries", "2"),
            ("--wall-clock-secs", "10"),
        ] {
            for order in [
                args(&["--resume", "run.jsonl", flag, value]),
                args(&[flag, value, "--resume", "run.jsonl"]),
            ] {
                let Err(err) = parse(&order) else {
                    panic!("--resume with {flag} must be rejected");
                };
                assert_eq!(err, format!("--resume and {flag} are mutually exclusive"));
            }
        }
    }

    #[test]
    fn budget_flags_are_accepted_without_resume() {
        let opts = parse(&args(&["--checkpoint", "run.jsonl", "--max-cells", "3"])).unwrap();
        assert_eq!(opts.budget, RunBudget::default().with_max_cells(3));
        let opts = parse(&args(&["--resume", "run.jsonl", "--json"])).unwrap();
        assert_eq!(opts.resume, Some(PathBuf::from("run.jsonl")));
        assert_eq!(opts.budget, RunBudget::default());
    }
}
