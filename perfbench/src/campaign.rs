//! `fault_campaign`: an 8-severity × 128-seed fault campaign. Timed rounds
//! run the plain grid; the checkpointed (512-cell budget, a run killed
//! mid-grid) and resumed phases run once after the rounds, and inside
//! the traced rounds.

use crate::sys::{self, Metrics, SplitMix, Tally};
use crate::{host, Workload};
use refocus_arch::campaign::{
    CampaignReport, FaultCampaign, RunBudget, SkipReason, Workload as Layer,
};
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::error::SimError;
use refocus_photonics::faults::FaultSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const SEVERITIES: [f64; 8] = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0];
const SEEDS: usize = 128;
/// Cells the checkpointed phase may compute before it stops.
const HALF: usize = 512;
/// Plain runs of the whole grid in one timed round.
const RUNS_PER_ROUND: usize = 2;

/// Stuck weight taps, dead detector pixels and laser drift: the fault
/// mix of the repository's substrate benchmark.
pub fn fault_spec() -> FaultSpec {
    FaultSpec::none()
        .with_stuck_weights(0.02, 0.0)
        .with_dead_pixel_rate(0.02)
        .with_laser_drift(0.002, 0.05)
}

pub struct Campaign {
    grid: FaultCampaign,
    /// The grid's rows: one campaign per severity, same seeds.
    rows: Vec<FaultCampaign>,
    /// A plain run made at set-up; every later report must equal it.
    reference: Result<CampaignReport, String>,
    journal_dir: PathBuf,
    journal: PathBuf,
    /// Whether rounds include the checkpointed and resumed phases.
    journaled: bool,
}

/// The checkpointed phase and the resume that completes it.
pub struct Journaled {
    partial: Result<CampaignReport, String>,
    resumed: Result<CampaignReport, String>,
    /// Seconds of the checkpointed and the resumed phase.
    secs: [f64; 2],
    journal_bytes: u64,
}

pub struct Phases {
    /// Each plain run with its seconds.
    plain: Vec<(Result<CampaignReport, String>, f64)>,
    journaled: Option<Journaled>,
}

fn text(r: Result<CampaignReport, SimError>) -> Result<CampaignReport, String> {
    r.map_err(|e| e.to_string())
}

impl Drop for Campaign {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space.
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

impl Campaign {
    /// A plain run of the grid, one `run()` per severity. Each cell is a
    /// pure function of its severity and seed, so the rows' reports,
    /// joined in severity order, are the report of a `run()` of the whole
    /// grid. Between rows the host's speed is sampled (see `host.rs`),
    /// which a single call of a second would not allow.
    fn plain_run(&self) -> Result<CampaignReport, String> {
        let mut joined: Option<CampaignReport> = None;
        for row in &self.rows {
            let part = text(row.run());
            host::tick();
            let part = part?;
            match joined.as_mut() {
                None => joined = Some(part),
                Some(all) => {
                    let same_run = all.config_name == part.config_name
                        && all.spec == part.spec
                        && all.workload == part.workload
                        && all.reference_peak.to_bits() == part.reference_peak.to_bits();
                    if !same_run {
                        return Err("rows disagree on the configuration or reference".into());
                    }
                    all.cells.extend(part.cells);
                    all.failed.extend(part.failed);
                    all.skipped.extend(part.skipped);
                    all.rows.extend(part.rows);
                }
            }
        }
        joined.ok_or_else(|| "no severities".into())
    }

    fn journal_phases(&self) -> Journaled {
        let (partial, p2) = sys::timed(|| {
            let _span = refocus_obs::span("bench.campaign.run_with_checkpoint");
            let budget = RunBudget::default().with_max_cells(HALF);
            text(self.grid.run_with_checkpoint(&self.journal, &budget))
        });
        let (resumed, p3) = sys::timed(|| {
            let _span = refocus_obs::span("bench.campaign.resume");
            text(self.grid.resume(&self.journal))
        });
        let journal_bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
        // The next checkpointed phase starts from an empty journal.
        let _ = std::fs::remove_file(&self.journal);
        Journaled {
            partial,
            resumed,
            secs: [p2, p3],
            journal_bytes,
        }
    }

    /// One operation per grid cell of `report`: it passes when the
    /// report equals the reference (Debug prints every f64 exactly, so
    /// equal text is bit-identical) and `phase_ok` holds.
    fn check_report(
        &self,
        what: &str,
        report: &Result<CampaignReport, String>,
        phase_ok: bool,
        tally: &mut Tally,
    ) {
        let grid = self.grid.grid_len();
        tally.add_work("cells", grid as u64);
        let verdict = match (&self.reference, report) {
            (Err(e), _) => Err(format!("reference run: {e}")),
            (_, Err(e)) => Err(e.clone()),
            (Ok(reference), Ok(report)) => {
                if !(reference.is_complete() && reference.errors_monotone_in_severity(1e-12)) {
                    Err("reference run incomplete or not monotone in severity".into())
                } else if format!("{report:?}") != format!("{reference:?}") {
                    Err("differs from the reference run".into())
                } else if !phase_ok {
                    Err("the checkpointed phase did not stop after exactly 512 cells".into())
                } else {
                    Ok(())
                }
            }
        };
        for _ in 0..grid {
            tally.op(verdict.is_ok(), || {
                format!("{what}: {}", verdict.as_ref().err().map_or("", |e| e))
            });
        }
    }

    fn check_journaled(&self, j: &Journaled, tally: &mut Tally) {
        let grid = self.grid.grid_len();
        let stopped_mid_grid = j.partial.as_ref().is_ok_and(|r| {
            r.cells.len() == HALF
                && r.failed.is_empty()
                && r.skipped.len() == grid - HALF
                && r.skipped.iter().all(|s| s.reason == SkipReason::CellLimit)
        });
        self.check_report("resumed run", &j.resumed, stopped_mid_grid, tally);
    }
}

impl Workload for Campaign {
    const NAME: &'static str = "fault_campaign";
    const THREADS: usize = 2;
    const KERNEL: host::Kernel = host::Kernel::Branchy;
    type Output = Phases;

    fn setup(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x6661_756c_7473_0000);
        let layer = Layer {
            in_channels: 4,
            out_channels: 8,
            height: 12,
            width: 12,
            kernel: 3,
            stride: 1,
            padding: 1,
            data_seed: rng.next_u64(),
        };
        let seeds: Vec<u64> = (0..SEEDS).map(|_| rng.next_u64()).collect();
        let grid = FaultCampaign::new(AcceleratorConfig::refocus_fb(), fault_spec())
            .with_severities(&SEVERITIES)
            .with_seeds(&seeds)
            .with_workload(layer);
        let rows = SEVERITIES
            .iter()
            .map(|&s| grid.clone().with_severities(&[s]))
            .collect();
        let reference = text(grid.run());
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        let journal_dir = crate::out_dir().join(format!("journal-{}-{n}", std::process::id()));
        // A directory left by an earlier process with the same pid.
        let _ = std::fs::remove_dir_all(&journal_dir);
        std::fs::create_dir_all(&journal_dir).expect("journal directory is writable");
        let journal = journal_dir.join("campaign.jsonl");
        Campaign {
            grid,
            rows,
            reference,
            journal_dir,
            journal,
            journaled: false,
        }
    }

    fn round(&mut self) -> Phases {
        let plain = (0..RUNS_PER_ROUND)
            .map(|_| {
                sys::timed(|| {
                    let _span = refocus_obs::span("bench.campaign.run");
                    self.plain_run()
                })
            })
            .collect();
        let journaled = self.journaled.then(|| self.journal_phases());
        Phases { plain, journaled }
    }

    fn check(&self, p: &Phases) -> Tally {
        let mut tally = Tally::default();
        for (report, _) in &p.plain {
            self.check_report("plain run", report, true, &mut tally);
        }
        if let Some(j) = &p.journaled {
            self.check_journaled(j, &mut tally);
        }
        tally
    }

    fn for_trace(&mut self) {
        self.journaled = true;
    }

    /// The journal phases rewrite and `fsync` the journal on every
    /// append, so on a VM disk their time follows the disk more than the
    /// program: they run and are checked once here, outside the timed
    /// rounds.
    fn after_rounds(&mut self) -> Tally {
        let mut tally = Tally::default();
        self.check_journaled(&self.journal_phases(), &mut tally);
        tally
    }

    fn layer_metrics(
        &mut self,
        untraced: &Phases,
        _wall: f64,
        _cpu: f64,
        traced: &refocus_obs::Report,
        m: &mut Metrics,
    ) -> Tally {
        let j = untraced
            .journaled
            .as_ref()
            .expect("traced rounds include the journal phases");
        let p1 = untraced.plain[0].1;
        let [p2, p3] = j.secs;
        let reports = untraced
            .plain
            .iter()
            .map(|(r, _)| r)
            .chain([&j.partial, &j.resumed]);
        let (mut done, mut failed, mut skipped) = (0, 0, 0);
        for r in reports.filter_map(|r| r.as_ref().ok()) {
            done += r.cells.len();
            failed += r.failed.len();
            skipped += r.skipped.len();
        }
        // The resume replays the partial run's cells from the journal.
        done -= j.partial.as_ref().map_or(0, |r| r.cells.len());
        let attempt = traced.span("campaign.cell.attempt");
        let attempts = attempt.map_or(0, |s| s.count) as f64;
        m.set("campaign.run_s", p1, "s");
        m.set(
            "campaign.cell_ms",
            attempt.map_or(0, |s| s.mean_ns()) as f64 * 1e-6,
            "ms",
        );
        m.set("campaign.cells_done", done as f64, "count");
        m.set("campaign.cells_failed", failed as f64, "count");
        m.set("campaign.cells_skipped", skipped as f64, "count");
        m.set(
            "campaign.retries",
            traced.counter("campaign.retries") as f64,
            "count",
        );
        m.set("campaign.useful_ratio", done as f64 / attempts, "ratio");
        m.set("checkpoint.write_half_s", p2, "s");
        m.set("checkpoint.resume_s", p3, "s");
        m.set("checkpoint.journal_s", p2 + p3 - p1, "s");
        m.set(
            "checkpoint.journal_kib",
            j.journal_bytes as f64 / 1024.0,
            "KiB",
        );
        m.set(
            "checkpoint.persists",
            traced.counter("checkpoint.persists") as f64,
            "count",
        );
        Tally::default()
    }
}
