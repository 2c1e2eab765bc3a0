//! `refocus`: the simulator, the paper report, the fault campaign and
//! the attribution-ledger renderer, as subcommands that share one
//! argument parser. `refocus --help` lists every flag.

use refocus::arch::campaign::RunBudget;
use refocus::arch::config::{AcceleratorConfig, OpticalBufferKind};
use refocus::arch::simulator::{simulate, simulate_suite, Report};
use refocus::experiments::render::Table;
use refocus::experiments::{all_experiments, experiment_by_id, fault_study, obs_report, REGISTRY};
use refocus::nn::models;
use refocus_obs::Collector;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::slice::Iter;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "\
refocus: simulate the ReFOCUS photonic CNN accelerator and reproduce its paper

USAGE:
    refocus sim [OPTIONS]
    refocus report [-e, --experiment <id>] [--json] [--list]
    refocus fault-study [--checkpoint <path> | --resume <path>] [--max-cells <n>]
                        [--retries <n>] [--wall-clock-secs <n>] [--json]
                        [--trace <path>] [--obs-json <path>]
    refocus obs render <summary.json>
    refocus obs diff <base.json> <new.json> [--threshold <frac>]

SIM OPTIONS:
    --variant <ff|fb|baseline|single>   accelerator preset  [default: fb]
    --network <name>                    one CNN (see --list-networks) [default: resnet34]
    --suite                             run all five paper CNNs instead
    --rfcus <n>                         override RFCU count
    --wavelengths <n>                   override WDM wavelength count
    --delay <cycles>                    override delay-line length (caps TA)
    --reuses <r>                        feedback-buffer reuse count
    --batch <n>                         weight-stationary batch size
    --dram                              charge HBM2 DRAM reads (Sec. 7.3)
    --weight-compression <x>            weight-sharing ratio (e.g. 4.5)
    --json                              emit the full report as JSON
    --list-networks                     list available workloads
    -h, --help                          show this help";

/// An argument error: the message, then the usage text.
fn usage(message: impl Display) -> String {
    format!("{message}\n{USAGE}")
}

fn unknown(arg: &str) -> String {
    usage(format!("unknown argument: {arg}"))
}

/// Reads the value that follows `flag` as a `T`.
fn value<T: FromStr>(flag: &str, rest: &mut Iter<String>) -> Result<T, String>
where
    T::Err: Display,
{
    match rest.next() {
        Some(raw) => raw.parse().map_err(|e| usage(format!("{flag}: {e}"))),
        None => Err(usage(format!("{flag} needs a value"))),
    }
}

/// Runs one subcommand. Each returns `Ok(false)` when it ran but did not
/// succeed (exit 1, like an error, but with its output printed).
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = argv.get(1..).unwrap_or_default();
    let result = match argv.first().map_or("", String::as_str) {
        "sim" => sim(args),
        "report" => report(args),
        "fault-study" => parse_fault_study(args).and_then(run_fault_study),
        "obs" => obs(args),
        "-h" | "--help" | "help" => Ok(help()),
        "" => Err(usage("missing command")),
        other => Err(usage(format!("unknown command: {other}"))),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn help() -> bool {
    println!("{USAGE}");
    true
}

/// `alexnet`, `vgg16`, `resnet18`, …: how `--network` names a suite CNN.
fn network_key(name: &str) -> String {
    name.to_ascii_lowercase().replace('-', "")
}

fn sim(args: &[String]) -> Result<bool, String> {
    let (mut variant, mut network) = ("fb".to_string(), "resnet34".to_string());
    let (mut suite, mut json, mut dram) = (false, false, false);
    let (mut rfcus, mut wavelengths, mut batch) = (None, None, None);
    let (mut delay, mut reuses, mut compression) = (None, None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(help()),
            "--list-networks" => {
                for n in models::evaluation_suite() {
                    println!("{}", network_key(n.name()));
                }
                return Ok(true);
            }
            "--variant" => variant = value(arg, &mut args)?,
            "--network" => network = value(arg, &mut args)?,
            "--suite" => suite = true,
            "--json" => json = true,
            "--dram" => dram = true,
            "--rfcus" => rfcus = Some(value(arg, &mut args)?),
            "--wavelengths" => wavelengths = Some(value(arg, &mut args)?),
            "--delay" => delay = Some(value(arg, &mut args)?),
            "--reuses" => reuses = Some(value(arg, &mut args)?),
            "--batch" => batch = Some(value(arg, &mut args)?),
            "--weight-compression" => compression = Some(value(arg, &mut args)?),
            other => return Err(unknown(other)),
        }
    }

    let mut config = match variant.as_str() {
        "ff" => AcceleratorConfig::refocus_ff(),
        "fb" => AcceleratorConfig::refocus_fb(),
        "baseline" => AcceleratorConfig::photofourier_baseline(),
        "single" => AcceleratorConfig::single_jtc(),
        other => return Err(format!("unknown variant: {other} (ff|fb|baseline|single)")),
    };
    config.rfcus = rfcus.unwrap_or(config.rfcus);
    config.wavelengths = wavelengths.unwrap_or(config.wavelengths);
    if let Some(m) = delay {
        config.delay_cycles = m;
        config.temporal_accumulation = config.temporal_accumulation.min(m.max(1));
    }
    if let Some(reuses) = reuses {
        config.optical_buffer = OpticalBufferKind::FeedBack { reuses };
        if config.delay_cycles == 0 {
            config.delay_cycles = 16;
        }
    }
    config.batch = batch.unwrap_or(config.batch);
    config.weight_compression = compression.unwrap_or(config.weight_compression);
    config.include_dram = dram;
    if let Err(e) = config.validate() {
        return Err(format!("invalid configuration: {e}"));
    }

    let networks = models::evaluation_suite();
    let network = networks
        .iter()
        .find(|n| network_key(n.name()) == network_key(&network))
        .ok_or_else(|| format!("unknown network: {network} (try --list-networks)"))?;

    if suite {
        let s =
            simulate_suite(&networks, &config).map_err(|e| format!("simulation failed: {e}"))?;
        if json {
            return print_json(serde_json::to_string_pretty(&s));
        }
        for r in &s.reports {
            print_report(r);
            println!();
        }
        println!(
            "geomean: {:.0} FPS | {:.0} FPS/W | {:.1} FPS/mm^2 | mean {:.2} W",
            s.geomean_fps(),
            s.geomean_fps_per_watt(),
            s.geomean_fps_per_mm2(),
            s.mean_power_w()
        );
    } else {
        let r = simulate(network, &config).map_err(|e| format!("simulation failed: {e}"))?;
        if json {
            return print_json(serde_json::to_string_pretty(&r));
        }
        print_report(&r);
    }
    Ok(true)
}

fn print_report(r: &Report) {
    println!(
        "{} on {}: {:.0} FPS | {:.2} W | {:.1} mm^2 | {:.0} FPS/W | {:.1} FPS/mm^2",
        r.config_name,
        r.network_name,
        r.metrics.fps,
        r.metrics.power_w,
        r.metrics.area_mm2,
        r.metrics.fps_per_watt(),
        r.metrics.fps_per_mm2()
    );
    println!("{}", r.energy);
}

fn report(args: &[String]) -> Result<bool, String> {
    let (mut json, mut list, mut wanted) = (false, false, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--experiment" | "-e" => wanted = Some(value::<String>(arg, &mut args)?),
            other => return Err(unknown(other)),
        }
    }

    if list {
        for e in &REGISTRY {
            println!("{:8}  {}", e.id, e.title);
        }
        return Ok(true);
    }
    let experiments = match wanted {
        Some(id) => vec![experiment_by_id(&id)
            .ok_or_else(|| format!("unknown experiment id: {id} (try --list)"))?],
        None => all_experiments(),
    };
    if json {
        return print_json(serde_json::to_string_pretty(&experiments));
    }
    for e in &experiments {
        println!("{e}");
    }
    Ok(true)
}

fn print_json(json: Result<String, serde_json::Error>) -> Result<bool, String> {
    println!(
        "{}",
        json.map_err(|e| format!("serialization failed: {e}"))?
    );
    Ok(true)
}

#[derive(Default)]
struct FaultStudy {
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    budget: RunBudget,
    json: bool,
    trace: Option<PathBuf>,
    obs_json: Option<PathBuf>,
}

fn parse_fault_study(args: &[String]) -> Result<FaultStudy, String> {
    let mut opts = FaultStudy::default();
    // The first budget flag given, so `--resume` can reject it.
    let mut budget_flag = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        match arg {
            "--json" => opts.json = true,
            "--checkpoint" => opts.checkpoint = Some(value(arg, &mut args)?),
            "--resume" => opts.resume = Some(value(arg, &mut args)?),
            "--trace" => opts.trace = Some(value(arg, &mut args)?),
            "--obs-json" => opts.obs_json = Some(value(arg, &mut args)?),
            "--max-cells" => opts.budget = opts.budget.with_max_cells(value(arg, &mut args)?),
            "--retries" => opts.budget = opts.budget.with_retries(value(arg, &mut args)?),
            "--wall-clock-secs" => {
                let secs = value(arg, &mut args)?;
                opts.budget = opts.budget.with_wall_clock(Duration::from_secs(secs));
            }
            other => return Err(unknown(other)),
        }
        if matches!(arg, "--max-cells" | "--retries" | "--wall-clock-secs") {
            budget_flag.get_or_insert(arg);
        }
    }
    if opts.checkpoint.is_some() && opts.resume.is_some() {
        return Err(usage("--checkpoint and --resume are mutually exclusive"));
    }
    if let (Some(_), Some(flag)) = (&opts.resume, budget_flag) {
        return Err(usage(format!("--resume and {flag} are mutually exclusive")));
    }
    Ok(opts)
}

fn run_fault_study(opts: FaultStudy) -> Result<bool, String> {
    let observed = opts.trace.is_some() || opts.obs_json.is_some();
    let collector = Collector::new(observed);
    if observed {
        // The campaign runs only the functional optical path, which has no
        // energy model. One analytical suite pass gives the artifacts the
        // ledger families (energy / cycles / bytes) that `obs render` prints.
        let suite = models::evaluation_suite();
        simulate_suite(&suite, &AcceleratorConfig::refocus_fb())
            .map_err(|e| format!("attribution suite pass failed: {e}"))?;
    }

    let campaign = fault_study::campaign();
    let result = if let Some(path) = &opts.resume {
        campaign.resume(path)
    } else if let Some(path) = &opts.checkpoint {
        campaign.run_with_checkpoint(path, &opts.budget)
    } else {
        campaign.run_budgeted(&opts.budget)
    };

    let obs = collector.finish();
    if let Some(path) = &opts.trace {
        obs.write_chrome_trace(path)
            .map_err(|e| format!("cannot write chrome trace to {}: {e}", path.display()))?;
    }
    if let Some(path) = &opts.obs_json {
        obs.write_json(path)
            .map_err(|e| format!("cannot write obs summary to {}: {e}", path.display()))?;
    }
    let report = result.map_err(|e| format!("campaign failed: {e}"))?;

    if opts.json {
        print_json(serde_json::to_string_pretty(&report))?;
        return Ok(report.is_complete());
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
    Ok(report.is_complete())
}

fn obs(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut threshold = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => threshold = Some(value::<f64>(arg, &mut args)?),
            other if other.starts_with('-') => return Err(unknown(other)),
            file => files.push(file),
        }
    }
    let load = |path: &str| -> Result<obs_report::Summary, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        obs_report::parse_summary(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (files.as_slice(), threshold) {
        (["render", path], None) => {
            print!("{}", obs_report::render(&load(path)?));
            Ok(true)
        }
        (["diff", base, new], threshold) => {
            let t = threshold.unwrap_or(0.0);
            if !(t >= 0.0 && t.is_finite()) {
                return Err(usage(format!(
                    "--threshold: not a non-negative number: {t}"
                )));
            }
            let report = obs_report::diff(&load(base)?, &load(new)?);
            print!("{}", obs_report::render_diff(&report, t));
            Ok(report.is_clean(t))
        }
        _ => Err(usage("obs takes `render <file>` or `diff <base> <new>`")),
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
                let Err(err) = parse_fault_study(&order) else {
                    panic!("--resume with {flag} must be rejected");
                };
                assert_eq!(
                    err,
                    usage(format!("--resume and {flag} are mutually exclusive"))
                );
            }
        }
    }

    #[test]
    fn budget_flags_are_accepted_without_resume() {
        let opts =
            parse_fault_study(&args(&["--checkpoint", "run.jsonl", "--max-cells", "3"])).unwrap();
        assert_eq!(opts.budget, RunBudget::default().with_max_cells(3));
        let opts = parse_fault_study(&args(&["--resume", "run.jsonl", "--json"])).unwrap();
        assert_eq!(opts.resume, Some(PathBuf::from("run.jsonl")));
        assert_eq!(opts.budget, RunBudget::default());
    }
}
