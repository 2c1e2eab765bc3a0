//! Energy and power model (Fig. 3a, Fig. 8, Fig. 10).
//!
//! Every component's energy is activity × unit cost:
//!
//! * **DACs** charge per conversion at the Table 6 rate (35.71 mW @
//!   10 GHz). Input DACs only convert on *generation* cycles (optical reuse
//!   idles them); weight DACs convert every cycle for the non-zero kernel
//!   taps (≤ 25), scaled by the §7.3 channel-reordering factor if enabled.
//! * **ADCs** charge per readout; temporal accumulation divides the number
//!   of readouts by the effective accumulation depth.
//! * **SRAM** traffic follows the §5.2/§5.3.3 dataflow: with data buffers,
//!   the big activation SRAM is touched once per unique input element
//!   (buffer fills) while the small buffers absorb the per-cycle traffic;
//!   without them, every generation cycle hits the big SRAM directly.
//! * **Laser** power is the per-source-waveguide minimum (Table 6)
//!   multiplied by the optical buffer's loss-compensation factor (Table 5).
//! * **DRAM** (§7.3, off by default like the paper's headline numbers)
//!   charges one weight stream per inference at HBM2 rates.
//!
//! Unit costs depend only on the configuration, so [`EnergyModel`]
//! computes them once per model — converter and MRR energies, laser
//! power, leakage, and the per-byte energy of every fixed SRAM macro — and
//! each layer multiplies them by its activity. Only the bufferless
//! accumulator macro is sized per layer, by the layer's input reuses.

use crate::config::AcceleratorConfig;
use crate::perf::{LayerPerf, NetworkPerf};
use crate::rfcu::ComponentCounts;
use refocus_memsim::buffers::{BufferParams, DataBuffers, DataflowCase};
use refocus_memsim::dram::Dram;
use refocus_memsim::hierarchy::Traffic;
use refocus_memsim::sram::{Sram, KIB, MIB};
use refocus_nn::layer::{ConvSpec, Network};
use refocus_nn::tiling::MAX_ACTIVE_WEIGHT_TAPS;
use refocus_photonics::components::{Adc, Dac, Laser, Mrr};
use refocus_photonics::units::{Joules, PicoJoules, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Calibrated CMOS compute-unit power (Genus substitute; two per RFCU).
pub const CCU_POWER_W: f64 = 0.025;

/// Per-component energy of a layer or network, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Input DAC conversions.
    pub input_dac: Joules,
    /// Weight DAC conversions.
    pub weight_dac: Joules,
    /// ADC readouts.
    pub adc: Joules,
    /// MRR modulation/switching.
    pub mrr: Joules,
    /// Laser emission (including buffer loss compensation).
    pub laser: Joules,
    /// Activation SRAM accesses.
    pub activation_sram: Joules,
    /// Weight SRAM accesses.
    pub weight_sram: Joules,
    /// Input/output data-buffer accesses.
    pub data_buffers: Joules,
    /// CMOS compute units.
    pub cmos: Joules,
    /// SRAM leakage.
    pub leakage: Joules,
    /// DRAM weight streaming (zero unless enabled).
    pub dram: Joules,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Joules {
        self.input_dac
            + self.weight_dac
            + self.adc
            + self.mrr
            + self.laser
            + self.activation_sram
            + self.weight_sram
            + self.data_buffers
            + self.cmos
            + self.leakage
            + self.dram
    }

    /// All DAC energy.
    pub fn dac(&self) -> Joules {
        self.input_dac + self.weight_dac
    }

    /// All conversion (A/D + D/A) energy — the §6.2 "converter power".
    pub fn converters(&self) -> Joules {
        self.dac() + self.adc
    }

    /// All SRAM-related energy (main SRAMs + buffers + leakage).
    pub fn sram(&self) -> Joules {
        self.activation_sram + self.weight_sram + self.data_buffers + self.leakage
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            input_dac: self.input_dac + other.input_dac,
            weight_dac: self.weight_dac + other.weight_dac,
            adc: self.adc + other.adc,
            mrr: self.mrr + other.mrr,
            laser: self.laser + other.laser,
            activation_sram: self.activation_sram + other.activation_sram,
            weight_sram: self.weight_sram + other.weight_sram,
            data_buffers: self.data_buffers + other.data_buffers,
            cmos: self.cmos + other.cmos,
            leakage: self.leakage + other.leakage,
            dram: self.dram + other.dram,
        }
    }

    /// `(label, joules)` rows for rendering.
    pub fn rows(&self) -> Vec<(&'static str, Joules)> {
        vec![
            ("input DAC", self.input_dac),
            ("weight DAC", self.weight_dac),
            ("ADC", self.adc),
            ("MRR", self.mrr),
            ("laser", self.laser),
            ("activation SRAM", self.activation_sram),
            ("weight SRAM", self.weight_sram),
            ("data buffers", self.data_buffers),
            ("CMOS", self.cmos),
            ("leakage", self.leakage),
            ("DRAM", self.dram),
        ]
    }

    /// Average power over `duration`.
    pub fn average_power(&self, duration: Seconds) -> Watts {
        self.total().over(duration)
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total().value().max(1e-30);
        for (label, e) in self.rows() {
            writeln!(
                f,
                "{label:>17}: {:>10.3e} J ({:>5.1}%)",
                e.value(),
                100.0 * e.value() / total
            )?;
        }
        write!(f, "{:>17}: {:>10.3e} J", "total", self.total().value())
    }
}

/// Extra energy-model options beyond the config itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyOptions {
    /// Multiplier (≤ 1) on weight-DAC loads from §7.3 channel reordering.
    pub weight_dac_load_factor: f64,
}

impl Default for EnergyOptions {
    fn default() -> Self {
        Self {
            weight_dac_load_factor: 1.0,
        }
    }
}

/// The energy model for one configuration (pre-computed unit costs).
#[derive(Debug, Clone)]
pub struct EnergyModel {
    config: AcceleratorConfig,
    counts: ComponentCounts,
    options: EnergyOptions,
    dac_energy_per_conversion: f64,
    adc_energy_per_conversion: f64,
    mrr_energy_per_cycle: f64,
    laser_power: Watts,
    laser_compensation_power: Watts,
    activation_sram_per_byte: PicoJoules,
    weight_sram_per_byte: PicoJoules,
    /// Input and output data-buffer macros, when the config has them.
    buffers_per_byte: Option<(PicoJoules, PicoJoules)>,
    leakage: Watts,
    dram: Dram,
}

impl EnergyModel {
    /// Builds the model for `config` (buffer sizing uses the workload
    /// envelope of the paper's CNNs: up to 512 filters/channels).
    pub fn new(config: &AcceleratorConfig) -> Self {
        Self::with_options(config, EnergyOptions::default())
    }

    /// Builds the model with explicit [`EnergyOptions`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the load factor is not in
    /// `(0, 1]`.
    pub fn with_options(config: &AcceleratorConfig, options: EnergyOptions) -> Self {
        assert!(
            options.weight_dac_load_factor > 0.0 && options.weight_dac_load_factor <= 1.0,
            "weight DAC load factor must be in (0,1]"
        );
        let counts = ComponentCounts::of(config);
        let dac = Dac::at_clock(config.clock);
        // Energy per conversion is rate-independent (linear power scaling).
        let dac_energy_per_conversion = dac.power().to_watts().value() / config.clock.to_hertz();
        let adc = Adc::new();
        let adc_energy_per_conversion =
            adc.power().to_watts().value() / Adc::DEFAULT_CLOCK.to_hertz();
        let mrr_energy_per_cycle = Mrr::new().power().to_watts().value() / config.clock.to_hertz();

        // Laser: per-source-waveguide minimum power; inputs additionally
        // compensated for buffer losses (Table 5 / Eq. 4).
        let laser = Laser::new();
        let min = laser.min_power().to_watts().value();
        let input_sources = (config.tile * config.wavelengths) as f64;
        let weight_sources = (MAX_ACTIVE_WEIGHT_TAPS * config.wavelengths * config.rfcus) as f64;
        let laser_power =
            Watts::new(min * (input_sources * config.laser_overhead() + weight_sources));
        // The share of that emission spent purely on compensating the
        // optical buffer's losses (zero without a buffer) — booked in the
        // attribution ledger as the buffer's laser overhead.
        let laser_compensation_power = Watts::new(
            laser
                .compensation_power(config.laser_overhead())
                .to_watts()
                .value()
                * input_sources,
        );

        let activation_sram = Sram::new(4 * MIB);
        let weight_sram = Sram::new(512 * KIB);
        let buffers_per_byte = config.sram_buffers.then(|| {
            let buffers = DataBuffers::size(
                DataflowCase::NextFilter,
                &BufferParams {
                    tile: config.tile,
                    delay_cycles: config.delay_cycles.max(1) as usize,
                    wavelengths: config.wavelengths,
                    reuses: (config.max_input_uses() - 1) as usize,
                    rfcus: config.rfcus,
                    max_filters: 512,
                    max_channels: 512,
                    ping_pong: true,
                },
            );
            (
                buffers.input_macro().energy_per_byte(),
                buffers.output_macro().energy_per_byte(),
            )
        });
        let leakage = activation_sram.leakage() + weight_sram.leakage() * config.rfcus as f64;

        Self {
            config: config.clone(),
            counts,
            options,
            dac_energy_per_conversion,
            adc_energy_per_conversion,
            mrr_energy_per_cycle,
            laser_power,
            laser_compensation_power,
            activation_sram_per_byte: activation_sram.energy_per_byte(),
            weight_sram_per_byte: weight_sram.energy_per_byte(),
            buffers_per_byte,
            leakage,
            dram: Dram::hbm2(),
        }
    }

    /// The component counts underlying the model.
    pub fn counts(&self) -> &ComponentCounts {
        &self.counts
    }

    /// Static laser power (emission is continuous while the layer runs).
    pub fn laser_power(&self) -> Watts {
        self.laser_power
    }

    /// The share of [`EnergyModel::laser_power`] spent purely on
    /// compensating optical-buffer losses (zero without a buffer).
    pub fn laser_compensation_power(&self) -> Watts {
        self.laser_compensation_power
    }

    /// Energy of one layer plus the dataflow [`Traffic`] it was charged
    /// for — one pass over the models, so attribution never recomputes
    /// (or risks diverging from) the energies it records.
    pub fn layer_accounting(
        &self,
        layer: &ConvSpec,
        perf: &LayerPerf,
    ) -> (EnergyBreakdown, Traffic) {
        let cfg = &self.config;
        let time = perf.duration(cfg).value();
        let cycles = perf.cycles as f64;
        let gen_cycles = perf.generation_cycles as f64;

        // --- Converters ---
        let input_conversions = gen_cycles * self.counts.input_dacs as f64 * perf.input_duty;
        let input_dac = Joules::new(input_conversions * self.dac_energy_per_conversion);
        let weight_conversions = cycles
            * self.counts.weight_dacs as f64
            * perf.weight_duty
            * perf.weight_load_fraction
            * self.options.weight_dac_load_factor;
        let weight_dac = Joules::new(weight_conversions * self.dac_energy_per_conversion);
        let active_adcs = self.counts.adcs as f64 * perf.valid_output_fraction;
        let readouts = cycles / perf.effective_ta as f64 * active_adcs;
        let adc = Joules::new(readouts * self.adc_energy_per_conversion);

        // --- MRRs: modulators follow their drive duty; switch rings are
        // active whenever buffered light replays. ---
        let active_mrrs = self.counts.input_mrrs as f64 * perf.input_duty
            + self.counts.weight_mrrs as f64 * perf.weight_duty
            + self.counts.switch_mrrs as f64;
        let mrr = Joules::new(cycles * active_mrrs * self.mrr_energy_per_cycle);

        // --- Laser: continuous emission over the layer. ---
        let laser = self.laser_power.for_duration(Seconds::new(time));

        // --- Memory traffic: byte counts from the dataflow model. ---
        let traffic = crate::dataflow::layer_traffic(layer, perf, cfg);
        // `Sram::access_energy` is `energy_per_byte() * bytes`; the per-byte
        // costs were computed once in `with_options`.
        let weight_sram = (self.weight_sram_per_byte * traffic.weight_sram as f64).to_joules();
        let activation_sram =
            (self.activation_sram_per_byte * traffic.activation_sram as f64).to_joules();
        let data_buffers = if let Some((input, output)) = self.buffers_per_byte {
            (input * traffic.input_buffer as f64).to_joules()
                + (output * traffic.output_buffer as f64).to_joules()
        } else {
            // No staging data buffers configured: partials still park in
            // the small per-RFCU accumulator macro intrinsic to the optical
            // buffer (T x uses partial words), never in the big SRAM.
            let accumulator = Sram::new(
                (cfg.tile as u64 * perf.input_uses * crate::dataflow::PARTIAL_SUM_BYTES).max(1)
                    as usize,
            );
            accumulator.access_energy(traffic.output_buffer).to_joules()
        };

        // --- CMOS + leakage ---
        let cmos = Joules::new(CCU_POWER_W * self.counts.ccus as f64 * time);
        let leakage = self.leakage.for_duration(Seconds::new(time));

        // --- DRAM (optional): weights streamed once per pass. ---
        let dram = self.dram.read_energy_joules(traffic.dram);

        (
            EnergyBreakdown {
                input_dac,
                weight_dac,
                adc,
                mrr,
                laser,
                activation_sram,
                weight_sram,
                data_buffers,
                cmos,
                leakage,
                dram,
            },
            traffic,
        )
    }

    /// Energy of a whole network given its performance analysis.
    ///
    /// When a `refocus-obs` collector session is active, every layer's
    /// component energies, memory traffic, and buffer loss-compensation
    /// laser energy are additionally recorded into the attribution
    /// ledger ([`crate::attribution`]); the returned total is computed
    /// identically either way.
    ///
    /// # Panics
    ///
    /// Panics if `perf` was computed for a different network (layer-count
    /// mismatch).
    pub fn network_energy(&self, network: &Network, perf: &NetworkPerf) -> EnergyBreakdown {
        assert_eq!(
            network.layers().len(),
            perf.layers.len(),
            "perf/network mismatch"
        );
        let recording = refocus_obs::recording();
        let mut total = EnergyBreakdown::default();
        for (idx, (layer, lp)) in network.layers().iter().zip(&perf.layers).enumerate() {
            let (energy, traffic) = self.layer_accounting(layer, lp);
            if recording {
                let compensation = self
                    .laser_compensation_power
                    .for_duration(lp.duration(&self.config));
                crate::attribution::record_layer_energy(
                    &self.config.name,
                    network,
                    idx,
                    &energy,
                    &traffic,
                    compensation.value(),
                );
            }
            total = total.merged(&energy);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refocus_nn::models;

    fn run(config: &AcceleratorConfig, net: &Network) -> (EnergyBreakdown, Seconds, Watts) {
        let perf = NetworkPerf::analyze(net, config).unwrap();
        let model = EnergyModel::new(config);
        let energy = model.network_energy(net, &perf);
        let latency = perf.latency(config);
        let power = energy.average_power(latency);
        (energy, latency, power)
    }

    #[test]
    fn refocus_fb_power_near_paper() {
        // §6.1: ReFOCUS-FB averages 10.8 W over the 5 CNNs. Allow the
        // calibration tolerance documented in EXPERIMENTS.md.
        let cfg = AcceleratorConfig::refocus_fb();
        let mut total = 0.0;
        let suite = models::evaluation_suite();
        for net in &suite {
            total += run(&cfg, net).2.value();
        }
        let avg = total / suite.len() as f64;
        assert!(
            (7.0..16.0).contains(&avg),
            "FB avg power = {avg} (paper 10.8)"
        );
    }

    #[test]
    fn refocus_ff_power_near_paper_and_above_fb() {
        let ff_cfg = AcceleratorConfig::refocus_ff();
        let fb_cfg = AcceleratorConfig::refocus_fb();
        let suite = models::evaluation_suite();
        let mut ff_total = 0.0;
        let mut fb_total = 0.0;
        for net in &suite {
            ff_total += run(&ff_cfg, net).2.value();
            fb_total += run(&fb_cfg, net).2.value();
        }
        let ff = ff_total / suite.len() as f64;
        let fb = fb_total / suite.len() as f64;
        assert!(
            (9.0..19.0).contains(&ff),
            "FF avg power = {ff} (paper 14.0)"
        );
        // §6.1: FF consumes more than FB (less input-DAC reuse).
        assert!(ff > fb, "ff = {ff}, fb = {fb}");
    }

    #[test]
    fn baseline_power_near_paper() {
        let cfg = AcceleratorConfig::photofourier_baseline();
        let suite = models::evaluation_suite();
        let mut total = 0.0;
        for net in &suite {
            total += run(&cfg, net).2.value();
        }
        let avg = total / suite.len() as f64;
        assert!(
            (11.0..26.0).contains(&avg),
            "baseline power = {avg} (paper 15.7)"
        );
    }

    #[test]
    fn fb_weight_dac_dominates_dac_power() {
        // §7.3: weight DAC is ~90% of FB's DAC power on ResNet-34.
        let cfg = AcceleratorConfig::refocus_fb();
        let net = models::resnet34();
        let (energy, _, _) = run(&cfg, &net);
        let share = energy.weight_dac / energy.dac();
        assert!(
            (0.75..0.98).contains(&share),
            "share = {share} (paper 0.90)"
        );
    }

    #[test]
    fn ff_weight_dac_share_is_lower() {
        // §7.3: 53% for FF vs 90% for FB.
        let net = models::resnet34();
        let (ff, _, _) = run(&AcceleratorConfig::refocus_ff(), &net);
        let (fb, _, _) = run(&AcceleratorConfig::refocus_fb(), &net);
        let ff_share = ff.weight_dac / ff.dac();
        let fb_share = fb.weight_dac / fb.dac();
        assert!(ff_share < fb_share);
        assert!(
            (0.4..0.75).contains(&ff_share),
            "ff share = {ff_share} (paper 0.53)"
        );
    }

    #[test]
    fn single_jtc_dominated_by_converters() {
        // Fig. 3a: ADC+DAC > 85% for the single JTC (we accept >=70% with
        // our SRAM calibration).
        let cfg = AcceleratorConfig::single_jtc();
        let net = models::resnet34();
        let (energy, _, _) = run(&cfg, &net);
        let share = energy.converters() / energy.total();
        assert!(share > 0.7, "converter share = {share}");
    }

    #[test]
    fn temporal_accumulation_cuts_adc_energy() {
        let net = models::resnet34();
        let with_ta = AcceleratorConfig::photofourier_baseline();
        let mut without_ta = AcceleratorConfig::photofourier_baseline();
        without_ta.temporal_accumulation = 1;
        let (a, _, _) = run(&with_ta, &net);
        let (b, _, _) = run(&without_ta, &net);
        let ratio = b.adc / a.adc;
        assert!((10.0..17.0).contains(&ratio), "ratio = {ratio} (ideal 16)");
    }

    #[test]
    fn optical_reuse_cuts_input_dac_energy() {
        let net = models::resnet34();
        let (base, _, _) = run(
            &AcceleratorConfig {
                wavelengths: 2,
                sram_buffers: true,
                ..AcceleratorConfig::photofourier_baseline()
            },
            &net,
        );
        let (ff, _, _) = run(&AcceleratorConfig::refocus_ff(), &net);
        let (fb, _, _) = run(&AcceleratorConfig::refocus_fb(), &net);
        // FF halves it; FB cuts much deeper.
        let ff_ratio = base.input_dac / ff.input_dac;
        let fb_ratio = base.input_dac / fb.input_dac;
        assert!((1.9..2.1).contains(&ff_ratio), "ff ratio = {ff_ratio}");
        assert!(fb_ratio > 4.0, "fb ratio = {fb_ratio}");
    }

    #[test]
    fn sram_buffers_cut_memory_energy() {
        // The buffers matter most when inputs are regenerated often: on the
        // baseline-style dataflow (no optical reuse) every cycle would
        // otherwise hit the 4 MB SRAM directly.
        let net = models::resnet34();
        let mut with = AcceleratorConfig::photofourier_baseline();
        with.sram_buffers = true;
        let without = AcceleratorConfig::photofourier_baseline();
        let (a, _, _) = run(&with, &net);
        let (b, _, _) = run(&without, &net);
        assert!(
            a.sram().value() < b.sram().value() / 1.5,
            "with = {}, without = {}",
            a.sram().value(),
            b.sram().value()
        );
        // With heavy optical reuse (FB) the saving still exists but is
        // smaller — generation cycles are already rare.
        let fb_with = AcceleratorConfig::refocus_fb();
        let mut fb_without = AcceleratorConfig::refocus_fb();
        fb_without.sram_buffers = false;
        let (c, _, _) = run(&fb_with, &net);
        let (d, _, _) = run(&fb_without, &net);
        assert!(c.sram().value() < d.sram().value());
    }

    #[test]
    fn fb_laser_significantly_higher_than_ff() {
        // §6.1 / Fig. 8: FB's laser power compensates the feedback loss.
        let ff = EnergyModel::new(&AcceleratorConfig::refocus_ff());
        let fb = EnergyModel::new(&AcceleratorConfig::refocus_fb());
        let ratio = fb.laser_power() / ff.laser_power();
        assert!(ratio > 2.0, "ratio = {ratio}");
    }

    #[test]
    fn dram_disabled_by_default_enabled_on_request() {
        let net = models::resnet50();
        let (off, _, _) = run(&AcceleratorConfig::refocus_fb(), &net);
        assert_eq!(off.dram.value(), 0.0);
        let mut cfg = AcceleratorConfig::refocus_fb();
        cfg.include_dram = true;
        let (on, _, _) = run(&cfg, &net);
        assert!(on.dram.value() > 0.0);
        // §7.3: DRAM can exceed 50% of FB's total power.
        let share = on.dram / on.total();
        assert!(share > 0.3, "DRAM share = {share}");
    }

    #[test]
    fn weight_sharing_cuts_dram_and_weight_sram() {
        let net = models::resnet50();
        let mut plain = AcceleratorConfig::refocus_fb();
        plain.include_dram = true;
        let mut shared = plain.clone();
        shared.weight_compression = 4.5;
        let (a, _, _) = run(&plain, &net);
        let (b, _, _) = run(&shared, &net);
        let dram_ratio = a.dram / b.dram;
        assert!(
            (4.0..5.0).contains(&dram_ratio),
            "dram ratio = {dram_ratio}"
        );
        assert!(b.weight_sram.value() < a.weight_sram.value());
    }

    #[test]
    fn reordering_factor_scales_weight_dac() {
        let net = models::resnet34();
        let cfg = AcceleratorConfig::refocus_ff();
        let perf = NetworkPerf::analyze(&net, &cfg).unwrap();
        let base = EnergyModel::new(&cfg).network_energy(&net, &perf);
        let opts = EnergyOptions {
            weight_dac_load_factor: 0.85,
        };
        let opt = EnergyModel::with_options(&cfg, opts).network_energy(&net, &perf);
        let ratio = opt.weight_dac / base.weight_dac;
        assert!((ratio - 0.85).abs() < 1e-9);
    }

    #[test]
    fn breakdown_rows_sum_to_total() {
        let net = models::resnet18();
        let (e, _, _) = run(&AcceleratorConfig::refocus_fb(), &net);
        let sum: f64 = e.rows().iter().map(|(_, v)| v.value()).sum();
        assert!((sum - e.total().value()).abs() < 1e-12);
    }

    /// `network_energy` as charged before the fixed macros' per-byte
    /// energies were computed once per model: every layer calls
    /// `Sram::access_energy` on the activation and weight SRAMs and on the
    /// `DataBuffers` macros, all sized here the way `with_options` sizes them.
    fn network_energy_oracle(
        config: &AcceleratorConfig,
        net: &Network,
        perf: &NetworkPerf,
    ) -> EnergyBreakdown {
        let model = EnergyModel::new(config);
        let activation_sram = Sram::new(4 * MIB);
        let weight_sram = Sram::new(512 * KIB);
        let buffers = config.sram_buffers.then(|| {
            DataBuffers::size(
                DataflowCase::NextFilter,
                &BufferParams {
                    tile: config.tile,
                    delay_cycles: config.delay_cycles.max(1) as usize,
                    wavelengths: config.wavelengths,
                    reuses: (config.max_input_uses() - 1) as usize,
                    rfcus: config.rfcus,
                    max_filters: 512,
                    max_channels: 512,
                    ping_pong: true,
                },
            )
        });
        let mut total = EnergyBreakdown::default();
        for (layer, lp) in net.layers().iter().zip(&perf.layers) {
            let (mut energy, traffic) = model.layer_accounting(layer, lp);
            energy.weight_sram = weight_sram.access_energy(traffic.weight_sram).to_joules();
            energy.activation_sram = activation_sram
                .access_energy(traffic.activation_sram)
                .to_joules();
            if let Some(buffers) = &buffers {
                energy.data_buffers = buffers
                    .input_macro()
                    .access_energy(traffic.input_buffer)
                    .to_joules()
                    + buffers
                        .output_macro()
                        .access_energy(traffic.output_buffer)
                        .to_joules();
            }
            total = total.merged(&energy);
        }
        total
    }

    #[test]
    fn per_byte_energies_once_per_model_match_the_oracle_bit_for_bit() {
        use crate::config::OpticalBufferKind;
        use crate::dse::{design_point, Variant};
        use crate::simulator::simulate;
        let fb_2000 = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 2000 },
            ..AcceleratorConfig::refocus_fb()
        };
        // The config the simulator actually charges for `fb_2000`.
        let applied = simulate(&models::resnet18(), &fb_2000)
            .unwrap()
            .degradation
            .expect("2000 reuses overrun the detector budget")
            .applied_reuses;
        let fb_degraded = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: applied },
            ..AcceleratorConfig::refocus_fb()
        };
        let dram_batch4 = AcceleratorConfig {
            batch: 4,
            include_dram: true,
            ..design_point(Variant::FeedBack, 8, 2)
        };
        let configs = [
            AcceleratorConfig::refocus_ff(),
            AcceleratorConfig::refocus_fb(),
            AcceleratorConfig::photofourier_baseline(),
            AcceleratorConfig::single_jtc(),
            dram_batch4,
            fb_2000,
            fb_degraded,
        ];
        let bits = |e: &EnergyBreakdown| -> Vec<(&str, u64)> {
            e.rows()
                .into_iter()
                .map(|(label, j)| (label, j.value().to_bits()))
                .collect()
        };
        for cfg in &configs {
            cfg.validate().unwrap();
            for net in &models::evaluation_suite() {
                let perf = NetworkPerf::analyze(net, cfg).unwrap();
                let got = EnergyModel::new(cfg).network_energy(net, &perf);
                let want = network_energy_oracle(cfg, net, &perf);
                assert_eq!(bits(&got), bits(&want), "{} on {}", net.name(), cfg.name);
            }
        }
    }

    #[test]
    fn display_renders_percentages() {
        let net = models::resnet18();
        let (e, _, _) = run(&AcceleratorConfig::refocus_fb(), &net);
        let s = e.to_string();
        assert!(s.contains("weight DAC"));
        assert!(s.contains('%'));
    }
}
