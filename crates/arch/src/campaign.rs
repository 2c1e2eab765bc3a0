//! Fault-injection campaign runner.
//!
//! A [`FaultCampaign`] sweeps a base [`FaultSpec`] across a grid of
//! severities and seeds over the functional convolution path
//! ([`OpticalExecutor`]), measuring output error against the fault-free
//! reference on the same optics. The result is a serializable
//! [`CampaignReport`]: one [`CampaignCell`] per (severity, seed)
//! realization plus per-severity aggregate [`CampaignRow`]s.
//!
//! Because fault sites are chosen by thresholding per-site hashes (see
//! [`refocus_photonics::faults`]), the fault set at a higher severity is
//! a superset of the set at a lower severity under the same seed, so
//! mean error grows monotonically with severity — the campaign's basic
//! sanity check, exposed as
//! [`CampaignReport::errors_monotone_in_severity`].
//!
//! Every cell runs the same input through the same weights, so a run
//! computes the layer's clean lens-1 spectra once and shares them with
//! the reference conv and every cell, the way the optical buffer replays
//! light that was generated once (§4.1). A cell transforms only the
//! kernels its stuck taps change, and a fault-free cell runs no conv at
//! all; its results are bit-identical to [`OpticalExecutor::conv2d`]
//! under the same injector.
//!
//! # Resilient execution
//!
//! Cells run on the [`grid`] core, which gives each (severity, seed)
//! cell panic isolation, budgets, retries and journal replay:
//!
//! * a cell that panics or trips the numerical firewall becomes a
//!   [`CellFailure`] in [`CampaignReport::failed`] while every other cell
//!   completes;
//! * a transient failure is retried up to [`RunBudget::retries`] times,
//!   each attempt under a different reserved fault-injector epoch (see
//!   [`FaultInjector::with_reserved_epochs`]), so a retry sees a fresh
//!   stream realization, deterministically in the attempt index;
//! * cells past the [`RunBudget`] deadline or quota land in
//!   [`CampaignReport::skipped`], never silently dropped;
//! * [`FaultCampaign::run_with_checkpoint`] journals every completed
//!   cell through [`Checkpoint`], and [`FaultCampaign::resume`] replays
//!   them; each cell being a pure function of (severity, seed), the
//!   report is bit-identical to an uninterrupted run.
//!
//! [`ChaosSpec`] provides deterministic fail-point injection (panics and
//! NaN poisoning at chosen cells) so all of the above is testable.

use crate::checkpoint::Checkpoint;
use crate::config::AcceleratorConfig;
use crate::error::{FailureKind, SimError};
use crate::functional::{row_schedule, CleanSpectra, FunctionalError, OpticalExecutor};
use crate::grid::{self, Outcome};
pub use crate::grid::{RunBudget, SkipReason};
use refocus_nn::conv::ConvError;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::TilingError;
use refocus_photonics::faults::{FaultInjector, FaultSpec};
use refocus_photonics::jtc::Jtc;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The synthetic convolution layer a campaign stresses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Input channels.
    pub in_channels: usize,
    /// Output filters.
    pub out_channels: usize,
    /// Input height (pixels).
    pub height: usize,
    /// Input width (pixels).
    pub width: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Seed for the random activations/weights.
    pub data_seed: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            in_channels: 2,
            out_channels: 4,
            height: 10,
            width: 10,
            kernel: 3,
            stride: 1,
            padding: 1,
            data_seed: 42,
        }
    }
}

impl Workload {
    /// Checks that the layer has no empty dimension and tiles onto
    /// `config`'s JTC, before any tensor is built.
    fn validate(&self, config: &AcceleratorConfig) -> Result<(), TilingError> {
        let empty = [
            (self.in_channels, "zero input channels"),
            (self.out_channels, "zero output channels"),
            (self.height, "zero input height"),
            (self.width, "zero input width"),
        ];
        if let Some(&(_, what)) = empty.iter().find(|(n, _)| *n == 0) {
            return Err(TilingError::BadOperand(what));
        }
        let pad = self.padding.saturating_mul(2);
        row_schedule(
            (
                self.height.saturating_add(pad),
                self.width.saturating_add(pad),
            ),
            (self.kernel, self.kernel),
            config.tile,
            self.stride,
        )
        .map(|_| ())
    }

    fn input(&self) -> Tensor3 {
        Tensor3::random(
            self.in_channels,
            self.height,
            self.width,
            0.0,
            1.0,
            self.data_seed,
        )
    }

    fn weights(&self) -> Tensor4 {
        Tensor4::random(
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.kernel,
            -1.0,
            1.0,
            self.data_seed.wrapping_add(1),
        )
    }
}

/// One (severity, seed) measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Severity multiplier applied to the base spec.
    pub severity: f64,
    /// Injector seed of this realization.
    pub seed: u64,
    /// Max |faulted − reference| over all output elements.
    pub max_abs_error: f64,
    /// Root-mean-square error over all output elements.
    pub rms_error: f64,
}

/// Per-severity aggregate over the seeds that completed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Severity multiplier.
    pub severity: f64,
    /// Number of seeds that produced a successful cell at this severity.
    /// Zero means every cell failed or was skipped; the mean/worst
    /// fields below are then 0 and carry no information.
    pub seeds: usize,
    /// Mean of the per-seed max-abs errors.
    pub mean_max_abs_error: f64,
    /// Worst per-seed max-abs error.
    pub worst_max_abs_error: f64,
    /// Mean of the per-seed RMS errors.
    pub mean_rms_error: f64,
}

/// A cell that exhausted its retry budget without completing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Severity multiplier of the failed cell.
    pub severity: f64,
    /// Injector seed of the failed cell.
    pub seed: u64,
    /// Classification of the final error.
    pub kind: FailureKind,
    /// Rendered message of the final error (the typed [`SimError`]
    /// borrows `&'static str` diagnostics and cannot round-trip JSON).
    pub error: String,
    /// Attempts made, including the first (so `retries + 1` when the
    /// failure was transient and every retry failed too).
    pub attempts: u32,
}

/// A cell the budget did not allow to run in this invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkippedCell {
    /// Severity multiplier of the skipped cell.
    pub severity: f64,
    /// Injector seed of the skipped cell.
    pub seed: u64,
    /// Which budget bound stopped it.
    pub reason: SkipReason,
}

/// What a chaos fail-point does to its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Panic inside the worker (exercises panic isolation and
    /// [`SimError::WorkerPanic`]).
    Panic,
    /// Poison the cell's error statistics with NaN at the
    /// executor→metrics boundary (exercises the [`crate::guard`]
    /// firewall and [`SimError::NonFinite`]). The boundary guard is the
    /// last line of defense before aggregate rows — poisoning there
    /// proves no NaN can cross it, wherever it originated.
    PoisonNaN,
}

/// A deterministic fail-point at one (severity, seed) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPoint {
    /// Severity of the targeted cell (matched bit-exactly).
    pub severity: f64,
    /// Seed of the targeted cell.
    pub seed: u64,
    /// What happens at the cell.
    pub event: ChaosEvent,
    /// How many attempts fail before the cell is allowed to succeed.
    /// `u32::MAX` makes the failure permanent; `1` makes the first
    /// attempt fail and any retry succeed.
    pub fail_attempts: u32,
}

/// Deterministic fail-point injection for testing the resilient runner.
///
/// Chaos is configuration, not randomness: the same spec always fails
/// the same cells on the same attempts, at every thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSpec {
    points: Vec<ChaosPoint>,
}

impl ChaosSpec {
    /// No fail-points.
    pub fn none() -> Self {
        ChaosSpec::default()
    }

    /// Adds a fail-point that fails its cell on every attempt.
    pub fn failing_always(mut self, severity: f64, seed: u64, event: ChaosEvent) -> Self {
        self.points.push(ChaosPoint {
            severity,
            seed,
            event,
            fail_attempts: u32::MAX,
        });
        self
    }

    /// Adds a fail-point that fails the first `fail_attempts` attempts
    /// and then lets the cell succeed (for testing retry recovery).
    pub fn failing_transiently(
        mut self,
        severity: f64,
        seed: u64,
        event: ChaosEvent,
        fail_attempts: u32,
    ) -> Self {
        self.points.push(ChaosPoint {
            severity,
            seed,
            event,
            fail_attempts,
        });
        self
    }

    /// Whether any fail-point is registered.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn point_for(&self, severity: f64, seed: u64) -> Option<&ChaosPoint> {
        self.points
            .iter()
            .find(|p| p.severity.to_bits() == severity.to_bits() && p.seed == seed)
    }
}

/// Full results of one campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Name of the accelerator configuration swept.
    pub config_name: String,
    /// The base (severity = 1) fault specification.
    pub spec: FaultSpec,
    /// The workload stressed.
    pub workload: Workload,
    /// Peak |reference| output magnitude — the scale errors are read
    /// against.
    pub reference_peak: f64,
    /// Every successful (severity, seed) measurement, severity-major
    /// grid order (failed/skipped cells leave no entry here).
    pub cells: Vec<CampaignCell>,
    /// Cells that exhausted their retries without completing, grid
    /// order.
    pub failed: Vec<CellFailure>,
    /// Cells the budget did not allow to start, grid order.
    pub skipped: Vec<SkippedCell>,
    /// Per-severity aggregates over successful cells, in sweep order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignReport {
    /// Whether mean max-abs error is non-decreasing in severity (within
    /// `tolerance` of slack per step, to absorb float rounding in error
    /// accumulation). Rows are compared in ascending severity, whatever
    /// order the sweep listed them in.
    ///
    /// Severities with zero successful cells carry no measurement and
    /// are excluded from the comparison instead of being treated as
    /// zero-error rows (which would spuriously break monotonicity as
    /// soon as one severity's cells all failed or were skipped).
    pub fn errors_monotone_in_severity(&self, tolerance: f64) -> bool {
        let mut measured: Vec<&CampaignRow> = self.rows.iter().filter(|r| r.seeds > 0).collect();
        measured.sort_by(|a, b| a.severity.total_cmp(&b.severity));
        measured
            .windows(2)
            .all(|w| w[1].mean_max_abs_error >= w[0].mean_max_abs_error - tolerance)
    }

    /// The aggregate row at severity exactly `severity`, if present.
    pub fn row_at(&self, severity: f64) -> Option<&CampaignRow> {
        self.rows.iter().find(|r| r.severity == severity)
    }

    /// Whether every grid cell completed successfully.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty()
    }
}

/// Sweep driver: base spec × severities × seeds on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaign {
    config: AcceleratorConfig,
    spec: FaultSpec,
    severities: Vec<f64>,
    seeds: Vec<u64>,
    workload: Workload,
    chaos: ChaosSpec,
}

impl FaultCampaign {
    /// A campaign over `config` with base spec `spec`, the default
    /// severity grid `[0, 0.5, 1, 2, 4]`, three seeds, and the default
    /// [`Workload`].
    pub fn new(config: AcceleratorConfig, spec: FaultSpec) -> Self {
        FaultCampaign {
            config,
            spec,
            severities: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            seeds: vec![1, 2, 3],
            workload: Workload::default(),
            chaos: ChaosSpec::none(),
        }
    }

    /// Replaces the severity grid.
    pub fn with_severities(mut self, severities: &[f64]) -> Self {
        self.severities = severities.to_vec();
        self
    }

    /// Replaces the seed set.
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Replaces the workload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Installs deterministic fail-points (testing hook; see
    /// [`ChaosSpec`]).
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = chaos;
        self
    }

    /// Number of cells in the (severity × seed) grid.
    pub fn grid_len(&self) -> usize {
        self.severities.len() * self.seeds.len()
    }

    /// Fingerprint of everything that determines cell values, stamped
    /// into checkpoint journals so a resume with a different campaign
    /// configuration is rejected instead of splicing incompatible cells.
    pub fn fingerprint(&self) -> String {
        let spec = serde_json::to_string(&self.spec).expect("fault spec serializes");
        let workload = serde_json::to_string(&self.workload).expect("workload serializes");
        let severities: Vec<String> = self
            .severities
            .iter()
            .map(|s| format!("{:016x}", s.to_bits()))
            .collect();
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        format!(
            "campaign-v2|{}|{spec}|{workload}|{}|{}",
            self.config.name,
            severities.join(","),
            seeds.join(",")
        )
    }

    /// Runs the sweep with the default [`RunBudget`] and no journal.
    ///
    /// Per-cell failures no longer abort the run: they land in
    /// [`CampaignReport::failed`] while every other cell completes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for an invalid accelerator
    /// configuration, [`SimError::Fault`] for an out-of-range fault
    /// spec or non-finite/negative severity, [`SimError::Tiling`] naming
    /// the cause for a workload with an empty dimension, a zero stride or
    /// a layer that does not tile onto the JTC, and propagates a failure
    /// of the fault-free reference convolution (without which no cell
    /// can be measured).
    pub fn run(&self) -> Result<CampaignReport, SimError> {
        self.run_impl(&RunBudget::default(), None)
    }

    /// Runs the sweep under an explicit [`RunBudget`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FaultCampaign::run`].
    pub fn run_budgeted(&self, budget: &RunBudget) -> Result<CampaignReport, SimError> {
        self.run_impl(budget, None)
    }

    /// Runs the sweep journaling completed cells to `path`, resuming
    /// from the journal if it already exists (fingerprint permitting).
    ///
    /// Journaled cells are replayed verbatim, cost no budget, and —
    /// because each cell is a pure function of (severity, seed) — the
    /// final report is bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FaultCampaign::run`], plus
    /// [`SimError::Checkpoint`] for journal I/O failures or a
    /// fingerprint mismatch.
    pub fn run_with_checkpoint(
        &self,
        path: &Path,
        budget: &RunBudget,
    ) -> Result<CampaignReport, SimError> {
        let mut journal = Checkpoint::load_or_create(path, &self.fingerprint())?;
        self.run_impl(budget, Some(&mut journal))
    }

    /// Resumes a previously checkpointed run from `path`, which must
    /// exist.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FaultCampaign::run_with_checkpoint`], but a
    /// missing journal is an error rather than a fresh start.
    pub fn resume(&self, path: &Path) -> Result<CampaignReport, SimError> {
        let mut journal = Checkpoint::load(path, &self.fingerprint())?;
        self.run_impl(&RunBudget::default(), Some(&mut journal))
    }

    fn run_impl(
        &self,
        budget: &RunBudget,
        journal: Option<&mut Checkpoint<CampaignCell>>,
    ) -> Result<CampaignReport, SimError> {
        let _run = refocus_obs::span_with("campaign.run", || {
            format!(
                "severities={} seeds={}",
                self.severities.len(),
                self.seeds.len()
            )
        });
        self.config.validate()?;
        self.spec.validate()?;
        for &severity in &self.severities {
            // `FaultSpec::scaled` asserts on bad severities; check here
            // so a campaign returns a typed error instead of panicking.
            if !(severity >= 0.0 && severity.is_finite()) {
                return Err(SimError::Fault(
                    refocus_photonics::faults::FaultSpecError::InvalidSigma {
                        parameter: "severity",
                        value: severity,
                    },
                ));
            }
            self.spec.scaled(severity).validate()?;
        }

        self.workload.validate(&self.config)?;

        // The clean light is shared by the reference and every cell, and
        // dropped with the run.
        let clean = OpticalExecutor::new(&self.config, Jtc::ideal());
        let spectra = clean
            .clean_spectra(
                &self.workload.input(),
                &self.workload.weights(),
                self.workload.stride,
                self.workload.padding,
            )
            .map_err(sim_error_from_functional)?;
        let reference = clean
            .conv2d_with_spectra(&spectra)
            .map_err(sim_error_from_functional)?;
        let reference_peak = reference.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));

        // Every (severity, seed) cell is independent: each gets its own
        // executor and injector, so the whole grid fans out onto the
        // pool. Cell order in the report is grid order regardless of
        // which cell finishes first.
        let grid: Vec<(f64, u64)> = self
            .severities
            .iter()
            .flat_map(|&severity| self.seeds.iter().map(move |&seed| (severity, seed)))
            .collect();
        let outcomes = grid::run(
            "campaign.cell",
            &grid,
            |&(severity, seed)| cell_key(severity, seed),
            |_, &(severity, seed), attempt| {
                if attempt > 0 {
                    refocus_obs::counter("campaign.retries", 1);
                }
                let _attempt = refocus_obs::span_with("campaign.cell.attempt", || {
                    format!("severity={severity} seed={seed} attempt={attempt}")
                });
                self.run_cell(severity, seed, attempt, &spectra, &reference)
            },
            budget,
            journal,
        );

        let mut cells = Vec::new();
        let mut failed = Vec::new();
        let mut skipped = Vec::new();
        for (&(severity, seed), outcome) in grid.iter().zip(outcomes) {
            match outcome {
                Outcome::Done(cell) => cells.push(cell),
                Outcome::Failed {
                    kind,
                    error,
                    attempts,
                } => failed.push(CellFailure {
                    severity,
                    seed,
                    kind,
                    error,
                    attempts,
                }),
                Outcome::Skipped(reason) => skipped.push(SkippedCell {
                    severity,
                    seed,
                    reason,
                }),
            }
        }

        let rows: Vec<CampaignRow> = self
            .severities
            .iter()
            .map(|&severity| {
                let max_errors: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.severity == severity)
                    .map(|c| c.max_abs_error)
                    .collect();
                let rms_errors: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.severity == severity)
                    .map(|c| c.rms_error)
                    .collect();
                CampaignRow {
                    severity,
                    seeds: max_errors.len(),
                    mean_max_abs_error: mean(&max_errors),
                    worst_max_abs_error: max_errors.iter().fold(0.0f64, |m, &v| m.max(v)),
                    mean_rms_error: mean(&rms_errors),
                }
            })
            .collect();

        if refocus_obs::recording() {
            for &severity in &self.severities {
                crate::attribution::record_campaign_severity(
                    severity,
                    cells.iter().filter(|c| c.severity == severity).count() as u64,
                    failed.iter().filter(|f| f.severity == severity).count() as u64,
                    skipped.iter().filter(|s| s.severity == severity).count() as u64,
                );
            }
        }

        Ok(CampaignReport {
            config_name: self.config.name.clone(),
            spec: self.spec,
            workload: self.workload,
            reference_peak,
            cells,
            failed,
            skipped,
            rows,
        })
    }

    /// Computes one cell: attempt `attempt` of the (severity, seed)
    /// measurement. A pure function of its arguments — retries shift
    /// the injector's epoch origin, so attempt `k` sees streams
    /// disjoint from attempts `0..k` but identical across re-runs.
    fn run_cell(
        &self,
        severity: f64,
        seed: u64,
        attempt: u32,
        spectra: &CleanSpectra,
        reference: &Tensor3,
    ) -> Result<CampaignCell, SimError> {
        let chaos = self.chaos.point_for(severity, seed);
        if let Some(point) = chaos {
            if attempt < point.fail_attempts && point.event == ChaosEvent::Panic {
                panic!("chaos: injected panic at severity {severity} seed {seed}");
            }
        }
        let poisoned = chaos.is_some_and(|point| {
            attempt < point.fail_attempts && point.event == ChaosEvent::PoisonNaN
        });

        let scaled = self.spec.scaled(severity);
        // Each attempt's conv2d reserves exactly one epoch, so starting
        // attempt k at epoch k keeps attempts' streams disjoint.
        let injector = FaultInjector::new(scaled, seed).with_reserved_epochs(u64::from(attempt));
        let (mut max_abs, rms) = if injector.is_transparent() {
            // A transparent injector takes the clean path, whose conv is
            // the reference bit for bit, so the cell runs none.
            error_stats(reference, reference)
        } else {
            let exec = OpticalExecutor::new(&self.config, Jtc::ideal()).with_faults(injector);
            let faulted = exec
                .conv2d_with_spectra(spectra)
                .map_err(sim_error_from_functional)?;
            error_stats(&faulted, reference)
        };
        if poisoned {
            max_abs = f64::NAN;
        }
        // Executor→metrics firewall: error statistics about to enter
        // aggregate rows (and checkpoint journals) must be finite.
        crate::guard::check_finite("campaign-output", &[max_abs, rms])?;
        Ok(CampaignCell {
            severity,
            seed,
            max_abs_error: max_abs,
            rms_error: rms,
        })
    }
}

/// Journal key of one cell: severity bits (exact, unlike a formatted
/// float) and seed.
fn cell_key(severity: f64, seed: u64) -> String {
    format!("{:016x}:{seed}", severity.to_bits())
}

/// Maps an executor error to the campaign's, keeping its cause: a shape
/// error becomes the [`TilingError`] that names it.
fn sim_error_from_functional(e: FunctionalError) -> SimError {
    match e {
        FunctionalError::Tiling(t) => SimError::Tiling(t),
        FunctionalError::NonFinite { stage, index } => SimError::NonFinite { stage, index },
        FunctionalError::Shape(ConvError::KernelTooLarge { .. }) => {
            SimError::Tiling(TilingError::KernelTooLarge)
        }
        FunctionalError::Shape(ConvError::ZeroStride) => {
            SimError::Tiling(TilingError::BadOperand("zero stride"))
        }
        FunctionalError::Shape(ConvError::ChannelMismatch { .. }) => SimError::Tiling(
            TilingError::BadOperand("input and weight channel counts differ"),
        ),
        FunctionalError::NegativeActivation => {
            SimError::Tiling(TilingError::BadOperand("negative activation"))
        }
    }
}

fn error_stats(faulted: &Tensor3, reference: &Tensor3) -> (f64, f64) {
    let mut max_abs = 0.0f64;
    let mut sum_sq = 0.0f64;
    for (f, r) in faulted.data().iter().zip(reference.data()) {
        let d = (f - r).abs();
        max_abs = max_abs.max(d);
        sum_sq += d * d;
    }
    (max_abs, (sum_sq / reference.data().len() as f64).sqrt())
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn base_spec() -> FaultSpec {
        FaultSpec::none()
            .with_stuck_weights(0.02, 0.0)
            .with_dead_pixel_rate(0.02)
            .with_laser_drift(0.002, 0.05)
    }

    fn small_campaign() -> FaultCampaign {
        FaultCampaign::new(AcceleratorConfig::refocus_fb(), base_spec())
            .with_severities(&[0.0, 1.0, 4.0])
            .with_seeds(&[1, 2])
            .with_workload(Workload {
                height: 6,
                width: 6,
                out_channels: 2,
                ..Workload::default()
            })
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("refocus-campaign-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn fault_free_severity_reproduces_reference() {
        let report = small_campaign().run().expect("small campaign runs");
        let zero = report.row_at(0.0).expect("severity 0 row present");
        assert_eq!(zero.mean_max_abs_error, 0.0);
        assert_eq!(zero.mean_rms_error, 0.0);
        assert!(report.reference_peak > 0.0);
    }

    #[test]
    fn error_grows_monotonically_with_severity() {
        let report = small_campaign().run().expect("small campaign runs");
        assert!(
            report.errors_monotone_in_severity(1e-12),
            "{:?}",
            report.rows
        );
        let top = report.row_at(4.0).expect("severity 4 row present");
        assert!(top.mean_max_abs_error > 0.0);
    }

    #[test]
    fn monotonicity_is_judged_in_severity_order() {
        let report = small_campaign()
            .with_severities(&[4.0, 0.0, 1.0])
            .run()
            .expect("unsorted campaign runs");
        assert_eq!(report.rows[0].severity, 4.0, "rows keep sweep order");
        assert!(
            report.errors_monotone_in_severity(1e-12),
            "{:?}",
            report.rows
        );
        // Errors that really fall as severity grows are still caught,
        // whatever the sweep order.
        let mut falling = report.clone();
        for row in &mut falling.rows {
            row.mean_max_abs_error = 1.0 / (1.0 + row.severity);
        }
        assert!(!falling.errors_monotone_in_severity(1e-12));
        falling.rows.reverse();
        assert!(!falling.errors_monotone_in_severity(1e-12));
    }

    #[test]
    fn same_seed_produces_identical_report() {
        let a = small_campaign().run().expect("first run succeeds");
        let b = small_campaign().run().expect("second run succeeds");
        assert_eq!(a, b);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = small_campaign().run().expect("small campaign runs");
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: CampaignReport = serde_json::from_str(&json).expect("report deserializes");
        assert_eq!(report, back);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut cfg = AcceleratorConfig::refocus_fb();
        cfg.tile = 0;
        let err = FaultCampaign::new(cfg, base_spec())
            .run()
            .expect_err("zero tile must be rejected");
        assert!(matches!(err, SimError::Config(_)), "got {err:?}");
    }

    #[test]
    fn degenerate_workloads_are_typed_errors_naming_their_cause() {
        let base = small_campaign().workload;
        let cases = [
            (
                "zero input channels",
                Workload {
                    in_channels: 0,
                    ..base
                },
            ),
            (
                "zero output channels",
                Workload {
                    out_channels: 0,
                    ..base
                },
            ),
            ("zero input height", Workload { height: 0, ..base }),
            ("zero stride", Workload { stride: 0, ..base }),
            (
                "kernel larger than input",
                Workload {
                    kernel: 9,
                    padding: 0,
                    ..base
                },
            ),
        ];
        for (cause, workload) in cases {
            let run = std::panic::catch_unwind(|| small_campaign().with_workload(workload).run());
            let err = run
                .unwrap_or_else(|_| panic!("{cause}: the campaign panicked"))
                .expect_err(cause);
            assert!(matches!(err, SimError::Tiling(_)), "{cause}: got {err:?}");
            assert!(err.to_string().contains(cause), "{cause}: got {err}");
        }
    }

    #[test]
    fn executor_shape_errors_keep_their_cause() {
        let cases = [
            (ConvError::ZeroStride, "zero stride"),
            (
                ConvError::KernelTooLarge {
                    input: (4, 4),
                    kernel: (5, 5),
                },
                "kernel larger than input",
            ),
            (
                ConvError::ChannelMismatch {
                    input: 2,
                    weights: 3,
                },
                "channel counts differ",
            ),
        ];
        for (shape, cause) in cases {
            let err = sim_error_from_functional(FunctionalError::Shape(shape));
            assert!(matches!(err, SimError::Tiling(_)), "{cause}: got {err:?}");
            assert!(err.to_string().contains(cause), "{cause}: got {err}");
        }
    }

    #[test]
    fn invalid_spec_and_severity_are_typed_errors() {
        let bad = FaultSpec::none().with_dead_pixel_rate(1.5);
        let err = FaultCampaign::new(AcceleratorConfig::refocus_fb(), bad)
            .run()
            .expect_err("out-of-range rate must be rejected");
        assert!(matches!(err, SimError::Fault(_)), "got {err:?}");

        let err = small_campaign()
            .with_severities(&[-1.0])
            .run()
            .expect_err("negative severity must be rejected");
        assert!(matches!(err, SimError::Fault(_)), "got {err:?}");
    }

    #[test]
    fn cells_cover_the_full_grid() {
        let report = small_campaign().run().expect("small campaign runs");
        assert_eq!(report.cells.len(), 3 * 2);
        assert_eq!(report.rows.len(), 3);
        assert!(report.is_complete());
        for row in &report.rows {
            assert_eq!(row.seeds, 2);
        }
    }

    #[test]
    fn chaos_panic_is_isolated_to_its_cell() {
        let campaign = small_campaign().with_chaos(ChaosSpec::none().failing_always(
            1.0,
            2,
            ChaosEvent::Panic,
        ));
        let report = campaign.run().expect("campaign survives the panic");
        assert_eq!(report.cells.len(), 5, "only the chaotic cell is missing");
        assert_eq!(report.failed.len(), 1);
        let failure = &report.failed[0];
        assert_eq!(failure.kind, FailureKind::WorkerPanic);
        assert_eq!((failure.severity, failure.seed), (1.0, 2));
        assert!(failure.error.contains("chaos"), "{}", failure.error);
        // Transient classification: default budget retried once.
        assert_eq!(failure.attempts, 2);
        // The degraded severity-1 row still aggregates its surviving seed.
        assert_eq!(report.row_at(1.0).expect("row present").seeds, 1);
        assert!(report.errors_monotone_in_severity(1e-12));
    }

    #[test]
    fn chaos_nan_trips_the_firewall_others_complete() {
        let campaign = small_campaign().with_chaos(ChaosSpec::none().failing_always(
            4.0,
            1,
            ChaosEvent::PoisonNaN,
        ));
        let report = campaign.run().expect("campaign survives the NaN");
        assert_eq!(report.cells.len(), 5);
        let failure = &report.failed[0];
        assert_eq!(failure.kind, FailureKind::NonFinite);
        assert!(
            failure.error.contains("campaign-output"),
            "{}",
            failure.error
        );
        // No NaN leaked into any surviving cell or aggregate.
        for cell in &report.cells {
            assert!(cell.max_abs_error.is_finite() && cell.rms_error.is_finite());
        }
    }

    #[test]
    fn transient_chaos_recovers_via_retry() {
        let flaky = small_campaign().with_chaos(ChaosSpec::none().failing_transiently(
            0.0,
            1,
            ChaosEvent::Panic,
            1,
        ));
        let report = flaky.run().expect("retry recovers the cell");
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        // Severity 0 is a transparent injector: the retried attempt's
        // shifted epoch changes nothing, so the report matches a
        // chaos-free run bit-for-bit.
        let clean = small_campaign().run().expect("clean run succeeds");
        assert_eq!(report, clean);
        // With retries disabled the same chaos is a permanent failure.
        let strict = flaky
            .run_budgeted(&RunBudget::strict())
            .expect("strict run completes");
        assert_eq!(strict.failed.len(), 1);
        assert_eq!(strict.failed[0].attempts, 1);
    }

    #[test]
    fn retried_cells_are_deterministic() {
        let flaky = small_campaign().with_chaos(ChaosSpec::none().failing_transiently(
            4.0,
            2,
            ChaosEvent::Panic,
            1,
        ));
        let a = flaky.run().expect("first run");
        let b = flaky.run().expect("second run");
        assert_eq!(a, b, "retry epochs must be deterministic");
        // The retried attempt runs under epoch 1, so its stream differs
        // from the unretried cell's epoch-0 stream.
        let clean = small_campaign().run().expect("clean run");
        let cell = |r: &CampaignReport| {
            r.cells
                .iter()
                .find(|c| c.severity == 4.0 && c.seed == 2)
                .copied()
                .expect("cell present")
        };
        // max-abs can coincide (it is often dominated by a seed-based
        // dead-pixel site, which retries share); RMS aggregates every
        // element and exposes the shifted drift/noise streams.
        assert_ne!(cell(&a).rms_error, cell(&clean).rms_error);
    }

    #[test]
    fn cell_quota_skips_the_remainder() {
        let report = small_campaign()
            .run_budgeted(&RunBudget::default().with_max_cells(0))
            .expect("budgeted run completes");
        assert!(report.cells.is_empty());
        assert_eq!(report.skipped.len(), 6);
        assert!(report
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::CellLimit));
        for row in &report.rows {
            assert_eq!(row.seeds, 0);
        }
        // All-skipped rows carry no measurements; monotonicity must not
        // trip over them.
        assert!(report.errors_monotone_in_severity(1e-12));
    }

    #[test]
    fn expired_deadline_skips_every_cell() {
        let report = small_campaign()
            .run_budgeted(&RunBudget::default().with_wall_clock(Duration::ZERO))
            .expect("deadline run completes");
        assert_eq!(report.skipped.len(), 6);
        assert!(report
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::Deadline));
    }

    #[test]
    fn checkpoint_interrupt_and_resume_is_bit_identical() {
        let path = scratch("resume");
        let _ = std::fs::remove_file(&path);
        let campaign = small_campaign();
        let uninterrupted = campaign.run().expect("reference run");
        // "Kill" the run after 2 fresh cells.
        let partial = campaign
            .run_with_checkpoint(&path, &RunBudget::default().with_max_cells(2))
            .expect("partial run completes");
        assert_eq!(partial.cells.len(), 2);
        assert_eq!(partial.skipped.len(), 4);
        // Resume picks up the journal and finishes the rest.
        let resumed = campaign.resume(&path).expect("resume completes");
        assert_eq!(resumed, uninterrupted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_requires_an_existing_journal() {
        let path = scratch("missing");
        let _ = std::fs::remove_file(&path);
        let err = small_campaign()
            .resume(&path)
            .expect_err("missing journal must be an error");
        assert!(matches!(err, SimError::Checkpoint { .. }), "got {err:?}");
    }

    #[test]
    fn mismatched_campaign_cannot_resume_a_journal() {
        let path = scratch("mismatch");
        let _ = std::fs::remove_file(&path);
        small_campaign()
            .run_with_checkpoint(&path, &RunBudget::default())
            .expect("checkpointed run completes");
        let other = small_campaign().with_seeds(&[7, 8]);
        let err = other
            .resume(&path)
            .expect_err("different grid must be rejected");
        assert!(matches!(err, SimError::Checkpoint { .. }), "got {err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_from_before_the_spectral_fault_path_is_refused() {
        // Cells computed per pass differ from spectral-path cells in their
        // last bits, so a `campaign-v1` journal must not be resumed into a
        // mixed grid.
        let path = scratch("v1");
        let campaign = small_campaign();
        let fingerprint = campaign.fingerprint();
        let v1 = fingerprint.replacen("campaign-v2|", "campaign-v1|", 1);
        assert_ne!(v1, fingerprint);
        let mut journal = Checkpoint::create(&path, &v1).expect("v1 journal is written");
        let cell = CampaignCell {
            severity: 1.0,
            seed: 1,
            max_abs_error: 0.5,
            rms_error: 0.25,
        };
        journal
            .append(&cell_key(1.0, 1), cell)
            .expect("v1 cell is journaled");
        drop(journal);
        let err = campaign
            .resume(&path)
            .expect_err("a v1 journal must be refused");
        match err {
            SimError::Checkpoint { message } => {
                assert!(message.contains("fingerprint mismatch"), "{message}")
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
        // Refused, not rewritten: the v1 journal still holds its cell.
        let kept = Checkpoint::<CampaignCell>::load(&path, &v1).expect("v1 journal intact");
        assert_eq!(kept.get(&cell_key(1.0, 1)), Some(&cell));
        assert_eq!(kept.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
