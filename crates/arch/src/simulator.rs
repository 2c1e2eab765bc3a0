//! Top-level simulator: configuration + workload → report.
//!
//! [`simulate`] runs one network through the performance, energy, and area
//! models and returns a [`Report`]; [`simulate_suite`] covers a workload
//! suite and exposes per-network and geomean metrics — the shape of every
//! evaluation in the paper's §6. The config-only models (dynamic-range
//! fallback, energy model, area) are built once per call, however many
//! networks then run against them.

use crate::area::{area_breakdown, AreaBreakdown};
use crate::config::{AcceleratorConfig, OpticalBufferKind};
use crate::energy::{EnergyBreakdown, EnergyModel, EnergyOptions};
use crate::error::{FailureKind, SimError};
use crate::metrics::{geomean, Metrics};
use crate::perf::NetworkPerf;
use refocus_nn::layer::Network;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;

/// Record of a graceful-degradation fallback the scheduler applied to keep
/// an otherwise-infeasible configuration runnable (§5.4.2): the feedback
/// reuse count is lowered to the largest value whose replay dynamic range
/// still fits the photodetector/ADC budget, relying on the hardware-aware
/// weight rescaling to keep results exact at the reduced reuse depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Feedback reuses the configuration asked for.
    pub requested_reuses: u32,
    /// Feedback reuses actually simulated.
    pub applied_reuses: u32,
    /// Replay dynamic range the requested configuration would have
    /// needed, in dB (`10·log10` of the power ratio).
    pub requested_dynamic_range_db: f64,
    /// Replay dynamic range after the fallback, in dB.
    pub applied_dynamic_range_db: f64,
}

/// The replay dynamic range `ρ^-R` of a feedback config's buffer in dB,
/// computed in the log domain as `-10·R·log10(ρ)`: finite for every reuse
/// count the configuration accepts, while the ratio itself overflows to
/// infinity past R ≈ 27,700 at a 16-cycle delay line.
fn dynamic_range_db(config: &AcceleratorConfig) -> f64 {
    let buffer = config.feedback_buffer().expect("a feedback config");
    -10.0 * f64::from(buffer.reuses()) * buffer.retention_per_reuse().log10()
}

/// The full result of simulating one network on one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Configuration name.
    pub config_name: String,
    /// Workload name.
    pub network_name: String,
    /// Per-layer and total cycle counts.
    pub perf: NetworkPerf,
    /// Per-component energy of one inference.
    pub energy: EnergyBreakdown,
    /// Chip area breakdown.
    pub area: AreaBreakdown,
    /// Derived efficiency metrics.
    pub metrics: Metrics,
    /// Present when the scheduler degraded the configuration to keep its
    /// dynamic range feasible; `None` for configurations that ran as asked.
    pub degradation: Option<Degradation>,
}

/// Resolves an infeasible-dynamic-range configuration to a runnable one.
///
/// Returns `Ok(None)` when `config` is feasible as-is, or
/// `Ok(Some((degraded_config, record)))` when lowering the feedback reuse
/// count restores feasibility.
///
/// # Errors
///
/// Returns [`SimError::DynamicRange`] when no fallback exists — the buffer
/// is not a feedback buffer, or even one reuse through the configured delay
/// line overruns the detector budget.
fn resolve_dynamic_range(
    config: &AcceleratorConfig,
) -> Result<Option<(AcceleratorConfig, Degradation)>, SimError> {
    if config.dynamic_range_feasible() {
        return Ok(None);
    }
    let unrecoverable = || SimError::DynamicRange {
        required: config.signal_dynamic_range(),
        supported: refocus_photonics::components::Photodetector::new().dynamic_range(),
    };
    let OpticalBufferKind::FeedBack { reuses } = config.optical_buffer else {
        return Err(unrecoverable());
    };
    let with_reuses = |applied| AcceleratorConfig {
        optical_buffer: OpticalBufferKind::FeedBack { reuses: applied },
        ..config.clone()
    };
    // Dynamic range grows monotonically with R (at optimal split), so the
    // largest feasible R below the requested one is found by bisection:
    // `feasible` fits the budget (0 standing for "no count found yet")
    // and `infeasible` does not.
    let (mut feasible, mut infeasible) = (0, reuses);
    while infeasible - feasible > 1 {
        let mid = feasible + (infeasible - feasible) / 2;
        if with_reuses(mid).dynamic_range_feasible() {
            feasible = mid;
        } else {
            infeasible = mid;
        }
    }
    if feasible == 0 {
        return Err(unrecoverable());
    }
    let candidate = with_reuses(feasible);
    let record = Degradation {
        requested_reuses: reuses,
        applied_reuses: feasible,
        requested_dynamic_range_db: dynamic_range_db(config),
        applied_dynamic_range_db: dynamic_range_db(&candidate),
    };
    Ok(Some((candidate, record)))
}

/// Simulates `network` on `config` with default energy options.
///
/// # Errors
///
/// Returns [`SimError::Config`] for an invalid configuration,
/// [`SimError::EmptyNetwork`] for a network with no layers,
/// [`SimError::Tiling`] if a layer cannot map onto the configured JTC, and
/// [`SimError::DynamicRange`] if the optical buffer's replay spread cannot
/// be made feasible even by lowering the reuse count.
pub fn simulate(network: &Network, config: &AcceleratorConfig) -> Result<Report, SimError> {
    simulate_with_options(network, config, EnergyOptions::default())
}

/// Simulates with explicit [`EnergyOptions`].
///
/// The configuration is validated up front, and an infeasible feedback
/// dynamic range degrades gracefully to the largest feasible reuse count
/// (recorded in [`Report::degradation`]) rather than producing meaningless
/// numbers or panicking deep inside the models.
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_with_options(
    network: &Network,
    config: &AcceleratorConfig,
    options: EnergyOptions,
) -> Result<Report, SimError> {
    let _sim = simulate_span(network, config);
    simulate_prepared(network, &Prepared::new(config, options))
}

/// A config ready for any number of networks. Its costing runs at most
/// once, for the first network that reaches it, so every network meets
/// the errors of [`simulate`] in the same order: invalid config, empty
/// network, then dynamic range.
struct Prepared<'a> {
    config: &'a AcceleratorConfig,
    options: EnergyOptions,
    costed: OnceCell<Result<Costed, SimError>>,
}

/// The config-only models: the config after any dynamic-range fallback,
/// with its energy model and area.
struct Costed {
    config: AcceleratorConfig,
    degradation: Option<Degradation>,
    model: EnergyModel,
    area: AreaBreakdown,
}

impl<'a> Prepared<'a> {
    fn new(config: &'a AcceleratorConfig, options: EnergyOptions) -> Self {
        Prepared {
            config,
            options,
            costed: OnceCell::new(),
        }
    }

    fn costed(&self) -> Result<&Costed, SimError> {
        let costed = self.costed.get_or_init(|| {
            let (config, degradation) = match resolve_dynamic_range(self.config)? {
                Some((degraded, record)) => (degraded, Some(record)),
                None => (self.config.clone(), None),
            };
            Ok(Costed {
                model: EnergyModel::with_options(&config, self.options),
                area: area_breakdown(&config),
                config,
                degradation,
            })
        });
        costed.as_ref().map_err(SimError::clone)
    }
}

fn simulate_span(network: &Network, config: &AcceleratorConfig) -> refocus_obs::Span {
    refocus_obs::span_with("simulate", || {
        format!("net={} cfg={}", network.name(), config.name)
    })
}

/// The per-network half of a simulation.
fn simulate_prepared(network: &Network, prepared: &Prepared) -> Result<Report, SimError> {
    prepared.config.validate()?;
    if network.layers().is_empty() {
        return Err(SimError::EmptyNetwork {
            network: network.name().to_string(),
        });
    }
    let costed = prepared.costed()?;
    let (config, area) = (&costed.config, &costed.area);
    let perf = NetworkPerf::analyze(network, config)?;
    let energy = costed.model.network_energy(network, &perf);
    let latency = perf.latency(config);
    let metrics = Metrics {
        fps: perf.fps(config),
        power_w: energy.average_power(latency).value(),
        area_mm2: area.total().value(),
        latency_s: latency.value(),
        // Energy accounts one pass = `batch` images; report per inference.
        energy_j: energy.total().value() / config.batch.max(1) as f64,
        macs: network.total_macs(),
    };
    // Executor→metrics firewall: a NaN or divergent metric here would
    // poison every geomean aggregate downstream; fail the report with a
    // typed error instead.
    crate::guard::check_finite(
        "metrics",
        &[
            metrics.fps,
            metrics.power_w,
            metrics.area_mm2,
            metrics.latency_s,
            metrics.energy_j,
        ],
    )?;
    if refocus_obs::recording() {
        crate::attribution::record_area(&config.name, area);
        crate::attribution::record_metrics(&config.name, network.name(), &metrics);
    }
    Ok(Report {
        config_name: config.name.clone(),
        network_name: network.name().to_string(),
        perf,
        energy,
        area: *area,
        metrics,
        degradation: costed.degradation,
    })
}

/// A network whose simulation failed while the rest of the suite
/// completed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteFailure {
    /// Name of the failing network.
    pub network: String,
    /// Classification of the error.
    pub kind: FailureKind,
    /// Rendered message of the error.
    pub error: String,
}

/// Suite-level results: per-network reports plus geomean metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Configuration name.
    pub config_name: String,
    /// One report per network that completed, suite order.
    pub reports: Vec<Report>,
    /// Networks whose simulation failed (panic included), suite order.
    /// Geomean accessors aggregate the successful reports only.
    pub failed: Vec<SuiteFailure>,
}

impl SuiteReport {
    /// Geomean over `f(report)`; 0.0 for a report-less suite (a hand-built
    /// empty `SuiteReport` — [`simulate_suite`] itself refuses empty suites
    /// with [`SimError::EmptySuite`], so this default marks "no data"
    /// without poisoning downstream arithmetic with NaN).
    fn geomean_of(&self, f: impl Fn(&Report) -> f64) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        geomean(&self.reports.iter().map(f).collect::<Vec<_>>())
    }

    /// Geomean FPS across the suite (0.0 if the suite has no reports).
    pub fn geomean_fps(&self) -> f64 {
        self.geomean_of(|r| r.metrics.fps)
    }

    /// Geomean FPS/W across the suite (0.0 if the suite has no reports).
    pub fn geomean_fps_per_watt(&self) -> f64 {
        self.geomean_of(|r| r.metrics.fps_per_watt())
    }

    /// Geomean FPS/mm² across the suite (0.0 if the suite has no reports).
    pub fn geomean_fps_per_mm2(&self) -> f64 {
        self.geomean_of(|r| r.metrics.fps_per_mm2())
    }

    /// Geomean PAP across the suite (0.0 if the suite has no reports).
    pub fn geomean_pap(&self) -> f64 {
        self.geomean_of(|r| r.metrics.pap())
    }

    /// Geomean inverse EDP across the suite (0.0 if the suite has no
    /// reports).
    pub fn geomean_inverse_edp(&self) -> f64 {
        self.geomean_of(|r| r.metrics.inverse_edp())
    }

    /// Arithmetic-mean power across the suite (how §6.1 reports "average
    /// system power"); 0.0 if the suite has no reports.
    pub fn mean_power_w(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.metrics.power_w).sum::<f64>() / self.reports.len() as f64
    }

    /// Degradation records from every network whose configuration was
    /// degraded, paired with the network name.
    pub fn degradations(&self) -> Vec<(&str, &Degradation)> {
        self.reports
            .iter()
            .filter_map(|r| r.degradation.as_ref().map(|d| (r.network_name.as_str(), d)))
            .collect()
    }

    /// The report for a named network, if present.
    pub fn for_network(&self, name: &str) -> Option<&Report> {
        self.reports.iter().find(|r| r.network_name == name)
    }

    /// Whether every network in the suite completed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Simulates every network in `suite` on `config` with default energy
/// options.
///
/// Per-network failures — typed errors and worker panics alike — land
/// in [`SuiteReport::failed`] while every other network completes;
/// check [`SuiteReport::is_complete`] when partial suites are
/// unacceptable.
///
/// # Errors
///
/// Returns [`SimError::EmptySuite`] for an empty suite.
pub fn simulate_suite(
    suite: &[Network],
    config: &AcceleratorConfig,
) -> Result<SuiteReport, SimError> {
    if suite.is_empty() {
        return Err(SimError::EmptySuite);
    }
    let _suite = refocus_obs::span_with("simulate_suite", || format!("networks={}", suite.len()));
    // The config is costed once for every network. A network costs a few
    // microseconds, less than a parallel region's fixed cost, so the
    // networks run inline, each isolated from another's panic.
    let prepared = Prepared::new(config, EnergyOptions::default());
    let mut reports = Vec::new();
    let mut failed = Vec::new();
    for (item, net) in suite.iter().enumerate() {
        let _network = refocus_obs::span_with("simulate_suite.network", || net.name().to_string());
        let result = refocus_par::catch_item(|| {
            let _sim = simulate_span(net, config);
            simulate_prepared(net, &prepared)
        })
        .unwrap_or_else(|message| Err(SimError::WorkerPanic { item, message }));
        match result {
            Ok(report) => reports.push(report),
            Err(error) => failed.push(SuiteFailure {
                network: net.name().to_string(),
                kind: error.kind(),
                error: error.to_string(),
            }),
        }
    }
    Ok(SuiteReport {
        config_name: config.name.clone(),
        reports,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use refocus_nn::models;

    #[test]
    fn report_is_internally_consistent() {
        let net = models::resnet18();
        let cfg = AcceleratorConfig::refocus_fb();
        let r = simulate(&net, &cfg).unwrap();
        assert_eq!(r.network_name, "ResNet-18");
        // FPS, latency, energy, power all agree.
        assert!((r.metrics.fps * r.metrics.latency_s - 1.0).abs() < 1e-9);
        assert!(
            (r.metrics.power_w * r.metrics.latency_s - r.metrics.energy_j).abs()
                < 1e-9 * r.metrics.energy_j
        );
        assert!((r.metrics.area_mm2 - r.area.total().value()).abs() < 1e-9);
    }

    #[test]
    fn presets_run() {
        for cfg in [
            AcceleratorConfig::refocus_ff(),
            AcceleratorConfig::refocus_fb(),
            AcceleratorConfig::photofourier_baseline(),
            AcceleratorConfig::single_jtc(),
        ] {
            let r = simulate(&models::resnet18(), &cfg).unwrap();
            assert!(r.metrics.fps > 0.0, "{}", r.config_name);
        }
    }

    #[test]
    fn suite_report_exposes_networks() {
        let suite = models::evaluation_suite();
        let cfg = AcceleratorConfig::refocus_ff();
        let s = simulate_suite(&suite, &cfg).unwrap();
        assert_eq!(s.reports.len(), 5);
        assert!(s.for_network("VGG-16").is_some());
        assert!(s.for_network("nonexistent").is_none());
        assert!(s.geomean_fps() > 0.0);
        assert!(s.geomean_pap() > 0.0);
    }

    #[test]
    fn refocus_beats_baseline_on_fps_and_efficiency() {
        // The headline: ~2x FPS (WDM), ~2x energy efficiency for FB.
        let suite = models::evaluation_suite();
        let base = simulate_suite(&suite, &AcceleratorConfig::photofourier_baseline()).unwrap();
        let fb = simulate_suite(&suite, &AcceleratorConfig::refocus_fb()).unwrap();
        let fps_ratio = fb.geomean_fps() / base.geomean_fps();
        assert!(
            (1.8..2.2).contains(&fps_ratio),
            "FPS ratio = {fps_ratio} (paper ~2)"
        );
        let eff_ratio = fb.geomean_fps_per_watt() / base.geomean_fps_per_watt();
        assert!(
            (1.6..3.4).contains(&eff_ratio),
            "FPS/W ratio = {eff_ratio} (paper 2.2)"
        );
    }

    #[test]
    fn area_efficiency_improvement() {
        // Paper: 1.36x FPS/mm² vs PhotoFourier.
        let suite = models::evaluation_suite();
        let base = simulate_suite(&suite, &AcceleratorConfig::photofourier_baseline()).unwrap();
        let fb = simulate_suite(&suite, &AcceleratorConfig::refocus_fb()).unwrap();
        let ratio = fb.geomean_fps_per_mm2() / base.geomean_fps_per_mm2();
        assert!(
            (1.1..1.7).contains(&ratio),
            "FPS/mm2 ratio = {ratio} (paper 1.36)"
        );
    }

    #[test]
    fn reports_have_no_degradation_for_feasible_configs() {
        let r = simulate(&models::resnet18(), &AcceleratorConfig::refocus_fb()).unwrap();
        assert_eq!(r.degradation, None);
    }

    #[test]
    fn invalid_config_rejected_before_any_model_runs() {
        let mut cfg = AcceleratorConfig::refocus_fb();
        cfg.rfcus = 0;
        let err = simulate(&models::resnet18(), &cfg).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "got {err:?}");
    }

    #[test]
    fn empty_network_rejected() {
        // `Network::new` refuses empty layer lists, but deserialized
        // networks bypass it — the simulator must still catch them.
        let net: refocus_nn::layer::Network =
            serde_json::from_str(r#"{"name":"empty-net","layers":[]}"#).unwrap();
        let err = simulate(&net, &AcceleratorConfig::refocus_fb()).unwrap_err();
        assert!(
            matches!(err, SimError::EmptyNetwork { ref network } if network == "empty-net"),
            "got {err:?}"
        );
    }

    #[test]
    fn empty_suite_rejected_without_panicking() {
        let err = simulate_suite(&[], &AcceleratorConfig::refocus_fb()).unwrap_err();
        assert_eq!(err, SimError::EmptySuite);
    }

    #[test]
    fn infeasible_reuse_degrades_to_max_feasible_and_records_it() {
        // R = 200 at optimal split spreads replays far beyond the 256x
        // detector budget; the scheduler must fall back, not fail.
        let cfg = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 200 },
            ..AcceleratorConfig::refocus_fb()
        };
        assert!(!cfg.dynamic_range_feasible());
        let r = simulate(&models::resnet18(), &cfg).unwrap();
        let d = r.degradation.expect("fallback must be recorded");
        assert_eq!(d.requested_reuses, 200);
        assert!(d.applied_reuses >= 1 && d.applied_reuses < 200);
        let budget_db = 10.0 * 256f64.log10();
        assert!(d.applied_dynamic_range_db <= budget_db);
        assert!(d.requested_dynamic_range_db > budget_db);
        // Maximality: one more reuse would have been infeasible again.
        let plus_one = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack {
                reuses: d.applied_reuses + 1,
            },
            ..AcceleratorConfig::refocus_fb()
        };
        assert!(!plus_one.dynamic_range_feasible());
    }

    #[test]
    fn unrecoverable_dynamic_range_is_a_typed_error() {
        // A delay line thousands of cycles long is so lossy that even a
        // single reuse overruns the detector budget: nothing to degrade to.
        let cfg = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 1 },
            delay_cycles: 60_000,
            temporal_accumulation: 16,
            ..AcceleratorConfig::refocus_fb()
        };
        assert!(cfg.validate().is_ok());
        let err = simulate(&models::resnet18(), &cfg).unwrap_err();
        assert!(
            matches!(err, SimError::DynamicRange { required, supported }
                if required > supported),
            "got {err:?}"
        );
    }

    #[test]
    fn suite_surfaces_degradations() {
        let cfg = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 200 },
            ..AcceleratorConfig::refocus_fb()
        };
        let suite = [models::resnet18(), models::alexnet()];
        let s = simulate_suite(&suite, &cfg).unwrap();
        assert_eq!(s.degradations().len(), 2);
    }

    #[test]
    fn failing_network_is_isolated_from_the_suite() {
        // An empty (deserialized) network fails; the real ones complete.
        let empty: refocus_nn::layer::Network =
            serde_json::from_str(r#"{"name":"empty-net","layers":[]}"#)
                .expect("hand-written network JSON parses");
        let suite = [models::resnet18(), empty, models::alexnet()];
        let s = simulate_suite(&suite, &AcceleratorConfig::refocus_fb())
            .expect("suite survives the bad network");
        assert_eq!(s.reports.len(), 2);
        assert_eq!(s.failed.len(), 1);
        assert!(!s.is_complete());
        let failure = &s.failed[0];
        assert_eq!(failure.network, "empty-net");
        assert_eq!(failure.kind, crate::error::FailureKind::Empty);
        assert!(s.for_network("ResNet-18").is_some());
        assert!(s.for_network("AlexNet").is_some());
        assert!(s.geomean_fps() > 0.0, "geomeans aggregate the survivors");
    }

    /// `simulate_suite` as a plain loop of `simulate`.
    fn suite_oracle(suite: &[Network], config: &AcceleratorConfig) -> SuiteReport {
        let mut reports = Vec::new();
        let mut failed = Vec::new();
        for net in suite {
            match simulate(net, config) {
                Ok(report) => reports.push(report),
                Err(error) => failed.push(SuiteFailure {
                    network: net.name().to_string(),
                    kind: error.kind(),
                    error: error.to_string(),
                }),
            }
        }
        SuiteReport {
            config_name: config.name.clone(),
            reports,
            failed,
        }
    }

    #[test]
    fn suite_equals_a_loop_of_simulate_at_every_thread_count() {
        let empty: Network = serde_json::from_str(r#"{"name":"empty-net","layers":[]}"#)
            .expect("hand-written network JSON parses");
        let full = models::evaluation_suite();
        let mut with_empty = full.clone();
        with_empty.insert(2, empty);
        let fb = AcceleratorConfig::refocus_fb;
        let invalid = AcceleratorConfig { rfcus: 0, ..fb() };
        let degraded = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 2000 },
            ..fb()
        };
        let unresolvable = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 1 },
            delay_cycles: 60_000,
            temporal_accumulation: 16,
            ..fb()
        };
        let configs = [
            AcceleratorConfig::refocus_ff(),
            fb(),
            AcceleratorConfig::photofourier_baseline(),
            invalid.clone(),
            degraded.clone(),
            unresolvable.clone(),
        ];
        for cfg in &configs {
            for suite in [&full, &with_empty] {
                let want = suite_oracle(suite, cfg);
                for threads in [1, 2, 8] {
                    let got = refocus_par::with_threads(threads, || simulate_suite(suite, cfg))
                        .expect("non-empty suite");
                    let context = format!(
                        "{} networks on {} at {threads} threads",
                        suite.len(),
                        cfg.name
                    );
                    assert_eq!(got, want, "{context}");
                    // Bit for bit, signed zeros included.
                    assert_eq!(
                        serde_json::to_string(&got).unwrap(),
                        serde_json::to_string(&want).unwrap(),
                        "{context}"
                    );
                }
            }
        }

        // What the loop says, spelled out for the failing configs.
        let s = simulate_suite(&with_empty, &invalid).unwrap();
        assert!(s.reports.is_empty());
        assert_eq!(s.failed.len(), with_empty.len());
        for f in &s.failed {
            assert_eq!(f.kind, FailureKind::Config, "{}", f.network);
            assert_eq!(f.error, s.failed[0].error);
        }
        let s = simulate_suite(&full, &degraded).unwrap();
        assert!(s.is_complete());
        assert!(s.reports.iter().all(|r| r.degradation.is_some()));
        // The empty-network check comes before the dynamic-range one.
        let s = simulate_suite(&with_empty, &unresolvable).unwrap();
        let kinds: Vec<FailureKind> = s.failed.iter().map(|f| f.kind).collect();
        let mut want = vec![FailureKind::DynamicRange; with_empty.len()];
        want[2] = FailureKind::Empty;
        assert_eq!(kinds, want);
    }

    #[test]
    fn panicking_network_is_isolated_from_the_suite() {
        // A deserialized layer with no input channels bypasses
        // `ConvSpec::new`'s checks and divides by zero inside the models.
        let broken: Network = serde_json::from_str(
            r#"{"name":"broken","layers":[{"name":"c","in_channels":0,"out_channels":8,
                "kernel":3,"stride":1,"padding":1,"input_hw":[32,32]}]}"#,
        )
        .expect("hand-written network JSON parses");
        let suite = [models::alexnet(), broken, models::resnet18()];
        let s = simulate_suite(&suite, &AcceleratorConfig::refocus_fb()).unwrap();
        assert_eq!(s.reports.len(), 2);
        assert_eq!(s.failed.len(), 1);
        assert_eq!(s.failed[0].network, "broken");
        assert_eq!(s.failed[0].kind, FailureKind::WorkerPanic);
        assert!(
            s.failed[0].error.starts_with("worker panicked on item 1: "),
            "{}",
            s.failed[0].error
        );

        // `u32::MAX` reuses is not a count the buffer model can take, so
        // validation fails every network, the empty one included, before
        // any model runs.
        let empty: Network = serde_json::from_str(r#"{"name":"empty-net","layers":[]}"#)
            .expect("hand-written network JSON parses");
        let cfg = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: u32::MAX },
            ..AcceleratorConfig::refocus_fb()
        };
        let suite = [models::alexnet(), empty, models::resnet18()];
        let s = simulate_suite(&suite, &cfg).unwrap();
        assert!(s.reports.is_empty());
        let kinds: Vec<FailureKind> = s.failed.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FailureKind::Config; 3]);
    }

    #[test]
    fn unrecoverable_suite_records_dynamic_range_failures() {
        let cfg = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 1 },
            delay_cycles: 60_000,
            temporal_accumulation: 16,
            ..AcceleratorConfig::refocus_fb()
        };
        let suite = [models::resnet18(), models::alexnet()];
        let s = simulate_suite(&suite, &cfg).expect("suite itself completes");
        assert!(s.reports.is_empty());
        assert_eq!(s.failed.len(), 2);
        for failure in &s.failed {
            assert_eq!(failure.kind, crate::error::FailureKind::DynamicRange);
        }
    }

    #[test]
    fn bisection_finds_the_reuse_count_the_downward_walk_found() {
        use crate::dse::{design_point, Variant, TABLE4_DELAY_CYCLES};
        for m in TABLE4_DELAY_CYCLES {
            let with_reuses = |reuses| AcceleratorConfig {
                optical_buffer: OpticalBufferKind::FeedBack { reuses },
                ..design_point(Variant::FeedBack, m, 16)
            };
            // The fallback used to walk `(1..R).rev()` and take the first
            // feasible count: the largest feasible count below R, which
            // this loop tracks as R grows.
            let mut largest_feasible_below = None;
            for reuses in 1..=4096 {
                let config = with_reuses(reuses);
                let feasible = config.dynamic_range_feasible();
                let got = resolve_dynamic_range(&config).map(|resolved| {
                    resolved.map(|(degraded, record)| {
                        assert_eq!(degraded, with_reuses(record.applied_reuses));
                        assert_eq!(record.requested_reuses, reuses);
                        // The recorded dB are the ratios' logarithms.
                        for (db, c) in [
                            (record.requested_dynamic_range_db, &config),
                            (record.applied_dynamic_range_db, &degraded),
                        ] {
                            let want = 10.0 * c.signal_dynamic_range().log10();
                            assert!((db - want).abs() <= 1e-9 * want, "{db} dB vs {want} dB");
                        }
                        record.applied_reuses
                    })
                });
                let want = match (feasible, largest_feasible_below) {
                    (true, _) => Ok(None),
                    (false, Some(applied)) => Ok(Some(applied)),
                    (false, None) => Err(FailureKind::DynamicRange),
                };
                assert_eq!(got.map_err(|e| e.kind()), want, "M = {m}, R = {reuses}");
                if feasible {
                    largest_feasible_below = Some(reuses);
                }
            }
        }
    }

    #[test]
    fn largest_valid_reuse_count_degrades_without_panicking() {
        let cfg = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack {
                reuses: i32::MAX as u32,
            },
            ..AcceleratorConfig::refocus_fb()
        };
        cfg.validate().expect("i32::MAX reuses is a valid count");
        let report = simulate(&models::resnet18(), &cfg).expect("the count degrades");
        let d = report.degradation.expect("fallback must be recorded");
        assert_eq!(d.requested_reuses, i32::MAX as u32);
        // The ratio overflows at this count; its dB do not.
        assert!(cfg.signal_dynamic_range().is_infinite());
        assert!(d.requested_dynamic_range_db.is_finite());
        let default_fallback = simulate(
            &models::resnet18(),
            &AcceleratorConfig {
                optical_buffer: OpticalBufferKind::FeedBack { reuses: 200 },
                ..AcceleratorConfig::refocus_fb()
            },
        )
        .expect("200 reuses degrade")
        .degradation
        .expect("fallback must be recorded");
        assert_eq!(d.applied_reuses, default_fallback.applied_reuses);
    }

    #[test]
    fn fb_more_power_efficient_than_ff() {
        let suite = models::evaluation_suite();
        let ff = simulate_suite(&suite, &AcceleratorConfig::refocus_ff()).unwrap();
        let fb = simulate_suite(&suite, &AcceleratorConfig::refocus_fb()).unwrap();
        assert!(fb.geomean_fps_per_watt() > ff.geomean_fps_per_watt());
        // Same throughput (cycles identical).
        let fps_ratio = fb.geomean_fps() / ff.geomean_fps();
        assert!((fps_ratio - 1.0).abs() < 1e-9);
    }
}
