//! End-to-end and per-layer benchmark of the ReFOCUS simulator.
//!
//! ```text
//! refocus-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`): sets the workload up several times, then runs
//! whole rounds of it back to back for about `--seconds` and prints the
//! end-to-end metrics, timed in reference seconds (see `host.rs`). Traced (`--trace 1`): runs one untraced and one
//! traced round of every workload, exports their traces, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; see `perfbench/README.md`.

mod campaign;
mod dse;
mod host;
mod optical;
mod report;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use sys::{Metrics, Tally};

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_BUDGET_S` is spent, so that a set-up of microseconds is still
/// read from many samples. `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 201;
const SETUP_BUDGET_S: f64 = 1.0;
/// Rounds per untraced run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 1000;

pub const WORKLOADS: [&str; 4] = [
    optical::Optical::NAME,
    campaign::Campaign::NAME,
    report::Report::NAME,
    dse::Dse::NAME,
];

/// One benchmark workload: seeded set-up, a closed-loop round of calls
/// into the simulator's public API, and checks on the round's outputs.
pub trait Workload: Sized + Send {
    const NAME: &'static str;
    /// Worker threads of the `refocus-par` pool.
    const THREADS: usize;
    /// The calibration loop whose speed tracks this workload's.
    const KERNEL: host::Kernel;
    type Output;

    /// Builds the inputs from `seed`, and the references the checks use.
    fn setup(seed: u64) -> Self;
    /// One round of the workload; the timed region.
    fn round(&mut self) -> Self::Output;
    /// Checks a round's outputs and counts its operations and work.
    fn check(&self, out: &Self::Output) -> Tally;
    /// Adapts the round to the traced run: smaller where tracing a full
    /// round would take minutes, or with phases untraced runs leave out.
    fn for_trace(&mut self) {}
    /// Checks run once after the timed rounds of an untraced run.
    fn after_rounds(&mut self) -> Tally {
        Tally::default()
    }
    /// Deterministic lines to print with the results.
    fn report_lines(&self) -> Vec<String> {
        Vec::new()
    }
    /// Per-layer metrics from an untraced round (its outputs, wall and
    /// CPU seconds) and the obs report of a traced one; any further
    /// calls it makes are checked in the returned tally.
    fn layer_metrics(
        &mut self,
        untraced: &Self::Output,
        wall: f64,
        cpu: f64,
        traced: &refocus_obs::Report,
        m: &mut Metrics,
    ) -> Tally;
}

/// Where traces and campaign journals go: inside the benchmark's own
/// directory of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// `f` (a set-up) on a short-lived thread pinned like the workload `W`:
/// no thread-local cache it fills (FFT plans) outlives it, as none
/// outlives a user's process, and each set-up is placed afresh by the
/// scheduler.
fn on_own_thread<W: Workload, R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| refocus_par::with_threads(W::THREADS, f))
            .join()
            .expect("set-up does not panic")
    })
}

/// Sets `W` up several times (the first timed from process start) and
/// returns the last set-up with the median reference seconds, CPU seconds
/// and wall seconds of one (see `host.rs`).
fn set_up<W: Workload>(seed: u64, start: Instant) -> (W, f64, f64, f64) {
    let (mut refs, mut cpus, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut state = None;
    while walls.len() < SETUP_MIN_REPS
        || (walls.len() < SETUP_MAX_REPS && walls.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        // Calibration slices run on the set-up's own thread, so they
        // sample the vCPU it runs on.
        let setup = || W::setup(seed);
        let (t0, (s, cpu, ref_s)) = if walls.is_empty() {
            (
                start,
                on_own_thread::<W, _>(|| host::measure_from_start(setup)),
            )
        } else {
            (
                Instant::now(),
                on_own_thread::<W, _>(|| host::measure(setup)),
            )
        };
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu);
        refs.push(ref_s);
        state = Some(s);
    }
    let state = state.expect("at least one set-up");
    (
        state,
        sys::median(&refs),
        sys::median(&cpus),
        sys::median(&walls),
    )
}

/// The untraced run: end-to-end metrics.
fn run_untraced<W: Workload>(args: &Args, start: Instant, m: &mut Metrics) -> Tally {
    host::start(W::KERNEL, W::THREADS);
    refocus_par::with_threads(W::THREADS, || {
        let (mut state, setup_s, setup_cpu_s, setup_wall_s) = set_up::<W>(args.seed, start);
        for line in state.report_lines() {
            println!("{line}");
        }
        let (mut walls, mut cpus, mut refs) = (Vec::new(), Vec::new(), Vec::new());
        let mut tally = Tally::default();
        let loop_start = Instant::now();
        loop {
            let ((out, cpu, ref_s), wall) = sys::timed(|| host::measure(|| state.round()));
            walls.push(wall);
            cpus.push(cpu);
            refs.push(ref_s);
            let round = state.check(&out);
            if walls.len() == 1 {
                let work: Vec<String> =
                    round.work.iter().map(|(k, v)| format!("{k}={v}")).collect();
                println!("work per round: {}", work.join(" "));
            }
            tally.merge(round);
            let next_end = loop_start.elapsed().as_secs_f64() + sys::median(&walls);
            if walls.len() >= MAX_ROUNDS || (walls.len() >= MIN_ROUNDS && next_end > args.seconds) {
                break;
            }
        }
        tally.merge(state.after_rounds());
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("round wall_s: {}", list(&walls));
        println!("round cpu_s: {}", list(&cpus));
        println!("round ref_cpu_s: {}", list(&refs));
        println!(
            "workload {} threads {} seed {} rounds {}",
            W::NAME,
            W::THREADS,
            args.seed,
            walls.len()
        );
        // Wall and raw CPU times are printed but not gated: steal and the
        // host's drifting speed move them far more than any bound allows
        // (see README.md).
        println!("setup_wall_s {setup_wall_s} s");
        println!("setup_cpu_s {setup_cpu_s} s");
        println!("wall_s {} s", sys::median(&walls));
        println!("cpu_s {} s", sys::median(&cpus));
        m.set("setup_s", setup_s, "s");
        m.set("ref_cpu_s", sys::median(&refs), "s");
        m.set("peak_rss_mib", sys::peak_rss_mib(), "MiB");
        tally
    })
}

/// One untraced and one traced round of `W`, then its per-layer metrics.
fn run_traced<W: Workload>(seed: u64, m: &mut Metrics) -> Tally {
    refocus_par::with_threads(W::THREADS, || {
        let mut state = on_own_thread::<W, _>(|| W::setup(seed));
        state.for_trace();
        // An untimed round first: the per-layer numbers come from single
        // rounds, and on a shared host a vCPU left idle by the previous
        // workload can take a second to come back, which would halve a
        // 2-thread round measured at once.
        let warm_up = state.round();
        let mut tally = state.check(&warm_up);
        drop(warm_up);
        let (untraced, wall, cpu) = sys::measure(|| state.round());
        tally.merge(state.check(&untraced));
        let collector = refocus_obs::Collector::enabled();
        assert!(collector.is_enabled(), "no other trace session is active");
        let (traced, traced_wall) = sys::timed(|| state.round());
        let report = collector.finish();
        tally.merge(state.check(&traced));
        drop(traced);
        let dir = out_dir();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| report.write_chrome_trace(&dir.join(format!("{}.trace.json", W::NAME))))
            .and_then(|()| report.write_json(&dir.join(format!("{}.summary.json", W::NAME))));
        tally.op(written.is_ok(), || {
            format!("cannot write the {} trace: {written:?}", W::NAME)
        });
        m.set(
            format!("obs.overhead.{}", W::NAME),
            traced_wall / wall,
            "ratio",
        );
        println!(
            "workload {} threads {} traced {:.3} s untraced {:.3} s",
            W::NAME,
            W::THREADS,
            traced_wall,
            wall
        );
        tally.merge(state.layer_metrics(&untraced, wall, cpu, &report, m));
        tally
    })
}

fn run_workload(name: &str, args: &Args, start: Instant, m: &mut Metrics) -> Tally {
    macro_rules! dispatch {
        ($($w:ty),*) => {
            $(if name == <$w>::NAME {
                return if args.trace {
                    run_traced::<$w>(args.seed, m)
                } else {
                    run_untraced::<$w>(args, start, m)
                };
            })*
        };
    }
    dispatch!(
        optical::Optical,
        campaign::Campaign,
        report::Report,
        dse::Dse
    );
    unreachable!("workload names are validated by parse_args")
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: refocus-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    if args.trace {
        // Every per-layer metric comes from the workload that exercises
        // that layer, so the traced run covers all of them, the named
        // workload first.
        let mut order = vec![args.workload.as_str()];
        order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
        for name in order {
            tally.merge(run_workload(name, &args, start, &mut metrics));
        }
    } else {
        tally.merge(run_workload(&args.workload, &args, start, &mut metrics));
    }

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    for (name, value, unit) in metrics.iter() {
        println!("{name} {value} {unit}");
    }
    println!("failed_frac {failed_frac} ratio");
    for f in tally.failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number; a non-finite value (a metric that could not be
/// measured) prints as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_round<W: Workload>(seed: u64) -> Tally {
        refocus_par::with_threads(W::THREADS, || {
            let mut state = W::setup(seed);
            let out = state.round();
            let mut tally = state.check(&out);
            tally.merge(state.after_rounds());
            tally
        })
    }

    /// Seeds change the data, never the amount of work.
    fn same_work_for_two_seeds<W: Workload>() {
        let (a, b) = (one_round::<W>(1), one_round::<W>(2));
        assert_eq!(a.failures, Vec::<String>::new(), "{}", W::NAME);
        assert_eq!(b.failures, Vec::<String>::new(), "{}", W::NAME);
        assert!(!a.work.is_empty() && a.attempted > 0, "{}", W::NAME);
        assert_eq!(a.work, b.work, "{}", W::NAME);
        assert_eq!(a.attempted, b.attempted, "{}", W::NAME);
    }

    #[test]
    fn optical_network_work_is_seed_independent() {
        same_work_for_two_seeds::<optical::Optical>();
    }

    #[test]
    fn fault_campaign_work_is_seed_independent() {
        same_work_for_two_seeds::<campaign::Campaign>();
    }

    #[test]
    fn paper_report_work_is_seed_independent() {
        same_work_for_two_seeds::<report::Report>();
    }

    #[test]
    fn analytic_dse_work_is_seed_independent() {
        same_work_for_two_seeds::<dse::Dse>();
    }
}
