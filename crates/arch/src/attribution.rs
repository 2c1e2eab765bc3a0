//! Domain-telemetry attribution: per-layer × per-component ledger
//! recording and the shared breakdown math the experiments render.
//!
//! PR 4's spans say where wall-clock went in the *simulator*; this module
//! says where joules, cycles, and bytes went in the *modeled hardware*.
//! When a `refocus-obs` collector session is active, the models record
//! one ledger cell per `(layer, component)`:
//!
//! | family            | kind      | row                          | components |
//! |-------------------|-----------|------------------------------|------------|
//! | `energy.joules`   | sum f64   | `{cfg}/{net}/{iii}:{layer}`  | the 11 [`EnergyBreakdown`] categories |
//! | `latency.cycles`  | sum u64   | `{cfg}/{net}/{iii}:{layer}`  | `total`, `generation` |
//! | `memory.bytes`    | sum u64   | `{cfg}/{net}/{iii}:{layer}`  | the 5 [`refocus_memsim::hierarchy::Level`] ids |
//! | `laser.joules`    | sum f64   | `{cfg}/{net}/{iii}:{layer}`  | `loss_compensation` |
//! | `area.mm2`        | gauge f64 | `{cfg}`                      | the [`AreaBreakdown`] rows |
//! | `metrics`         | gauge f64 | `{cfg}/{net}`                | fps, power_w, area_mm2, latency_s, energy_j, macs |
//! | `campaign.cells`  | sum u64   | `severity={s}`               | `completed`, `failed`, `skipped` |
//! | `dse.relative`    | gauge f64 | `{variant}/M={m}`            | fps_per_watt, fps_per_mm2, pap (relative), rfcus |
//!
//! # Conservation
//!
//! The ledger is an *audit* of the aggregate models, so its sums must
//! reproduce them bit-exactly, not approximately. f64 addition is not
//! associative, which makes summation order part of the contract:
//!
//! - [`EnergyModel::network_energy`] folds layers component-wise in layer
//!   order (starting from zero) and [`EnergyBreakdown::total`] then adds
//!   the 11 components in declared order. [`ledger_energy_total`]
//!   replays exactly that **component-major** order — for each component
//!   in [`ENERGY_COMPONENTS`] order, cells are added in row order (the
//!   zero-padded layer index makes lexicographic row order the execution
//!   order), then the component subtotals are added in component order —
//!   so it equals `network_energy(..).total()` to the last bit.
//! - Cycles are `u64`, so [`ledger_cycles_total`] is exact in any order
//!   and equals [`NetworkPerf::total_cycles`]; dividing by the clock
//!   reproduces [`NetworkPerf::latency`] exactly (same two operands).
//!
//! The `laser.joules/loss_compensation` family is *derived* telemetry
//! (the §4.1 buffer-loss share of laser emission), not a conserved slice
//! of `energy.joules` — the laser component already contains it.
//!
//! # Determinism
//!
//! Each `(family, row, component)` cell is written by exactly one thread
//! per session — rows embed the config, network, and layer identity, and
//! the parallel runtime fans out over exactly those axes — so the merged
//! ledger is bit-identical at any `REFOCUS_THREADS` setting (pinned by
//! `crates/arch/tests/attribution.rs` at 1/2/8).
//!
//! [`EnergyModel::network_energy`]: crate::energy::EnergyModel::network_energy
//! [`NetworkPerf::total_cycles`]: crate::perf::NetworkPerf
//! [`NetworkPerf::latency`]: crate::perf::NetworkPerf::latency

use crate::area::AreaBreakdown;
use crate::energy::EnergyBreakdown;
use crate::metrics::Metrics;
use crate::perf::LayerPerf;
use crate::simulator::{Report as SimReport, SuiteReport};
use refocus_memsim::hierarchy::{Level, Traffic};
use refocus_nn::layer::Network;

/// Ledger family: per-layer joules by [`EnergyBreakdown`] component.
pub const ENERGY_FAMILY: &str = "energy.joules";
/// Ledger family: per-layer RFCU cycles (`total` and `generation`).
pub const CYCLES_FAMILY: &str = "latency.cycles";
/// Ledger family: per-layer memory traffic by hierarchy level, bytes.
pub const MEMORY_FAMILY: &str = "memory.bytes";
/// Ledger family: per-layer laser energy spent compensating optical-
/// buffer losses (derived telemetry; a share of `energy.joules/laser`).
pub const LASER_FAMILY: &str = "laser.joules";
/// Ledger family: per-config area gauges by [`AreaBreakdown`] row.
pub const AREA_FAMILY: &str = "area.mm2";
/// Ledger family: per-(config, network) derived metric gauges.
pub const METRICS_FAMILY: &str = "metrics";
/// Ledger family: fault-campaign cell outcomes per severity.
pub const CAMPAIGN_FAMILY: &str = "campaign.cells";
/// Ledger family: DSE design-point relative metrics (Table 4 rows).
pub const DSE_FAMILY: &str = "dse.relative";

/// The 11 energy components as `(ledger id, display label)`, in
/// [`EnergyBreakdown::total`] summation order. The ids are the struct
/// field names; the labels match [`EnergyBreakdown::rows`].
pub const ENERGY_COMPONENTS: [(&str, &str); 11] = [
    ("input_dac", "input DAC"),
    ("weight_dac", "weight DAC"),
    ("adc", "ADC"),
    ("mrr", "MRR"),
    ("laser", "laser"),
    ("activation_sram", "activation SRAM"),
    ("weight_sram", "weight SRAM"),
    ("data_buffers", "data buffers"),
    ("cmos", "CMOS"),
    ("leakage", "leakage"),
    ("dram", "DRAM"),
];

/// Component values of `energy` in [`ENERGY_COMPONENTS`] order.
pub fn energy_component_values(energy: &EnergyBreakdown) -> [f64; 11] {
    [
        energy.input_dac.value(),
        energy.weight_dac.value(),
        energy.adc.value(),
        energy.mrr.value(),
        energy.laser.value(),
        energy.activation_sram.value(),
        energy.weight_sram.value(),
        energy.data_buffers.value(),
        energy.cmos.value(),
        energy.leakage.value(),
        energy.dram.value(),
    ]
}

/// The ledger row for layer `idx` of `network` on `config_name`:
/// `"{config}/{network}/{idx:03}:{layer}"`.
pub fn row_key(config_name: &str, network: &Network, idx: usize) -> String {
    format!("{config_name}/{}/{}", network.name(), network.layer_id(idx))
}

/// The row prefix selecting every layer of `(config, network)` —
/// what [`ledger_energy_total`] and friends filter on.
pub fn row_prefix(config_name: &str, network_name: &str) -> String {
    format!("{config_name}/{network_name}/")
}

/// Records one layer's energy breakdown, memory traffic, and buffer
/// loss-compensation laser energy. No-op outside a collector session.
pub fn record_layer_energy(
    config_name: &str,
    network: &Network,
    idx: usize,
    energy: &EnergyBreakdown,
    traffic: &Traffic,
    laser_compensation_j: f64,
) {
    if !refocus_obs::recording() {
        return;
    }
    let row = row_key(config_name, network, idx);
    for ((id, _), value) in ENERGY_COMPONENTS
        .iter()
        .zip(energy_component_values(energy))
    {
        refocus_obs::ledger_add_f64(ENERGY_FAMILY, &row, id, value);
    }
    for level in Level::ALL {
        refocus_obs::ledger_add_u64(MEMORY_FAMILY, &row, level.id(), traffic.bytes(level));
    }
    refocus_obs::ledger_add_f64(
        LASER_FAMILY,
        &row,
        "loss_compensation",
        laser_compensation_j,
    );
}

/// Records one layer's cycle counts. No-op outside a collector session.
pub fn record_layer_cycles(config_name: &str, network: &Network, idx: usize, perf: &LayerPerf) {
    if !refocus_obs::recording() {
        return;
    }
    let row = row_key(config_name, network, idx);
    refocus_obs::ledger_add_u64(CYCLES_FAMILY, &row, "total", perf.cycles);
    refocus_obs::ledger_add_u64(CYCLES_FAMILY, &row, "generation", perf.generation_cycles);
}

/// Records a configuration's area breakdown as gauges (idempotent under
/// repeated simulation). No-op outside a collector session.
pub fn record_area(config_name: &str, area: &AreaBreakdown) {
    if !refocus_obs::recording() {
        return;
    }
    for (label, v) in area.rows() {
        refocus_obs::ledger_set_f64(AREA_FAMILY, config_name, label, v.value());
    }
}

/// Records one simulation's derived metrics as gauges. No-op outside a
/// collector session.
pub fn record_metrics(config_name: &str, network_name: &str, metrics: &Metrics) {
    if !refocus_obs::recording() {
        return;
    }
    let row = format!("{config_name}/{network_name}");
    refocus_obs::ledger_set_f64(METRICS_FAMILY, &row, "fps", metrics.fps);
    refocus_obs::ledger_set_f64(METRICS_FAMILY, &row, "power_w", metrics.power_w);
    refocus_obs::ledger_set_f64(METRICS_FAMILY, &row, "area_mm2", metrics.area_mm2);
    refocus_obs::ledger_set_f64(METRICS_FAMILY, &row, "latency_s", metrics.latency_s);
    refocus_obs::ledger_set_f64(METRICS_FAMILY, &row, "energy_j", metrics.energy_j);
    refocus_obs::ledger_set_f64(METRICS_FAMILY, &row, "macs", metrics.macs as f64);
}

/// Records one fault-campaign severity row's cell outcomes. No-op
/// outside a collector session.
pub fn record_campaign_severity(severity: f64, completed: u64, failed: u64, skipped: u64) {
    if !refocus_obs::recording() {
        return;
    }
    let row = format!("severity={severity}");
    refocus_obs::ledger_add_u64(CAMPAIGN_FAMILY, &row, "completed", completed);
    refocus_obs::ledger_add_u64(CAMPAIGN_FAMILY, &row, "failed", failed);
    refocus_obs::ledger_add_u64(CAMPAIGN_FAMILY, &row, "skipped", skipped);
}

/// Records one DSE design point's Table 4 relative metrics as gauges.
/// No-op outside a collector session.
pub fn record_dse_row(variant: &str, row: &crate::dse::DseRow) {
    if !refocus_obs::recording() {
        return;
    }
    let key = format!("{variant}/M={}", row.delay_cycles);
    refocus_obs::ledger_set_f64(DSE_FAMILY, &key, "fps_per_watt", row.relative_fps_per_watt);
    refocus_obs::ledger_set_f64(DSE_FAMILY, &key, "fps_per_mm2", row.relative_fps_per_mm2);
    refocus_obs::ledger_set_f64(DSE_FAMILY, &key, "pap", row.relative_pap);
    refocus_obs::ledger_set_f64(DSE_FAMILY, &key, "rfcus", row.rfcus as f64);
}

/// Sums the `u64` cells of `family`/`component` across every row starting
/// with `prefix`. `None` when no such cell exists.
pub fn ledger_sum_u64(
    report: &refocus_obs::Report,
    family: &str,
    prefix: &str,
    component: &str,
) -> Option<u64> {
    let mut any = false;
    let mut total = 0u64;
    for (f, row, c, value) in report.ledger_cells() {
        if f == family && c == component && row.starts_with(prefix) {
            if let refocus_obs::LedgerValue::SumU64(v) = value {
                total += v;
                any = true;
            }
        }
    }
    any.then_some(total)
}

/// Reconstructs `network_energy(..).total()` from the ledger for one
/// `(config, network)` — bit-exact (see the module docs for the
/// component-major summation order). `None` when the ledger holds no
/// energy cells for that pair.
pub fn ledger_energy_total(
    report: &refocus_obs::Report,
    config_name: &str,
    network_name: &str,
) -> Option<f64> {
    let prefix = row_prefix(config_name, network_name);
    let mut any = false;
    let mut total = 0.0f64;
    for (id, _) in ENERGY_COMPONENTS {
        let mut component_sum = 0.0f64;
        // `ledger_cells` iterates in (family, row, component) order and
        // rows embed the zero-padded layer index, so cells arrive in
        // execution order — the same fold order as `network_energy`.
        for (f, row, c, value) in report.ledger_cells() {
            if f == ENERGY_FAMILY && c == id && row.starts_with(&prefix) {
                component_sum += value.as_f64();
                any = true;
            }
        }
        total += component_sum;
    }
    any.then_some(total)
}

/// Reconstructs [`NetworkPerf::total_cycles`] from the ledger for one
/// `(config, network)` — exact (`u64`). `None` when the ledger holds no
/// cycle cells for that pair.
///
/// [`NetworkPerf::total_cycles`]: crate::perf::NetworkPerf
pub fn ledger_cycles_total(
    report: &refocus_obs::Report,
    config_name: &str,
    network_name: &str,
) -> Option<u64> {
    let prefix = row_prefix(config_name, network_name);
    ledger_sum_u64(report, CYCLES_FAMILY, &prefix, "total")
}

// ---------------------------------------------------------------------------
// Shared breakdown math (single source for the experiment modules)
// ---------------------------------------------------------------------------

/// Suite-averaged power and per-component energy shares of a suite
/// report: mean power over networks, shares from energies summed across
/// the suite (time-weighted by construction). The component taxonomy and
/// order are [`ENERGY_COMPONENTS`] — the same cells the ledger records.
pub fn suite_power_shares(report: &SuiteReport) -> (f64, Vec<(&'static str, f64)>) {
    let mean_power = report.mean_power_w();
    let mut totals = [0.0f64; ENERGY_COMPONENTS.len()];
    let mut grand = 0.0f64;
    for r in &report.reports {
        for (slot, value) in totals.iter_mut().zip(energy_component_values(&r.energy)) {
            *slot += value;
            grand += value;
        }
    }
    let shares = ENERGY_COMPONENTS
        .iter()
        .zip(totals)
        .map(|(&(_, label), v)| (label, v / grand))
        .collect();
    (mean_power, shares)
}

/// Geomean metrics of one suite relative to a baseline suite (the
/// Fig. 11 comparison rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeMetrics {
    /// Relative throughput.
    pub fps: f64,
    /// Relative power efficiency.
    pub fps_per_watt: f64,
    /// Relative area efficiency.
    pub fps_per_mm2: f64,
    /// Relative PAP.
    pub pap: f64,
    /// Relative inverse EDP.
    pub inverse_edp: f64,
}

/// Computes `new`'s geomean metrics relative to `base`.
pub fn relative_suite_metrics(new: &SuiteReport, base: &SuiteReport) -> RelativeMetrics {
    RelativeMetrics {
        fps: new.geomean_fps() / base.geomean_fps(),
        fps_per_watt: new.geomean_fps_per_watt() / base.geomean_fps_per_watt(),
        fps_per_mm2: new.geomean_fps_per_mm2() / base.geomean_fps_per_mm2(),
        pap: new.geomean_pap() / base.geomean_pap(),
        inverse_edp: new.geomean_inverse_edp() / base.geomean_inverse_edp(),
    }
}

/// Average converter (DAC + ADC) power of one simulation — the §6.2
/// quantity Fig. 10's optimization chain tracks.
pub fn converter_power_w(report: &SimReport) -> f64 {
    report.energy.converters().value() / report.metrics.latency_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use refocus_nn::models;

    #[test]
    fn energy_components_match_breakdown_rows() {
        // The ledger taxonomy must stay in lock-step with
        // `EnergyBreakdown::rows` (labels) and `total` (order).
        let cfg = AcceleratorConfig::refocus_fb();
        let net = models::alexnet();
        let perf = crate::perf::NetworkPerf::analyze(&net, &cfg).expect("network maps");
        let energy = crate::energy::EnergyModel::new(&cfg).network_energy(&net, &perf);
        let rows = energy.rows();
        assert_eq!(rows.len(), ENERGY_COMPONENTS.len());
        for ((_, label), (row_label, row_value)) in ENERGY_COMPONENTS.iter().zip(&rows) {
            assert_eq!(label, row_label);
            let values = energy_component_values(&energy);
            let idx = ENERGY_COMPONENTS
                .iter()
                .position(|(_, l)| l == row_label)
                .expect("label present");
            assert_eq!(values[idx], row_value.value());
        }
        // Component-major fold over one "layer" equals total().
        let folded: f64 = energy_component_values(&energy).iter().sum();
        assert_eq!(folded, energy.total().value());
    }

    #[test]
    fn row_keys_sort_in_execution_order() {
        let net = models::resnet50();
        let keys: Vec<String> = (0..net.layers().len())
            .map(|i| row_key("cfg", &net, i))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(
            keys, sorted,
            "zero-padded index must sort by execution order"
        );
        assert!(keys[0].starts_with("cfg/ResNet-50/000:"));
    }

    #[test]
    fn suite_power_shares_sum_to_one() {
        let suite = [models::alexnet(), models::resnet18()];
        let report = crate::simulator::simulate_suite(&suite, &AcceleratorConfig::refocus_fb())
            .expect("suite maps");
        let (power, shares) = suite_power_shares(&report);
        assert!(power > 0.0);
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum = {sum}");
        assert_eq!(shares.len(), 11);
        assert_eq!(shares[0].0, "input DAC");
    }

    #[test]
    fn relative_metrics_of_identical_suites_are_unity() {
        let suite = [models::alexnet()];
        let report = crate::simulator::simulate_suite(&suite, &AcceleratorConfig::refocus_ff())
            .expect("suite maps");
        let rel = relative_suite_metrics(&report, &report);
        for v in [
            rel.fps,
            rel.fps_per_watt,
            rel.fps_per_mm2,
            rel.pap,
            rel.inverse_edp,
        ] {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }
}
