//! # refocus-core
//!
//! The public facade of the ReFOCUS simulator workspace. Downstream users
//! depend on this crate (or the root `refocus` package) and get:
//!
//! * [`Accelerator`] — a builder-style entry point over the architecture
//!   simulator;
//! * [`prelude`] — the handful of types most programs need;
//! * re-exports of the substrate crates as [`photonics`], [`nn`],
//!   [`memsim`], and [`arch`].
//!
//! ## Quickstart
//!
//! ```
//! use refocus_core::prelude::*;
//!
//! // Simulate ReFOCUS-FB running ResNet-18.
//! let report = Accelerator::refocus_fb().run(&models::resnet18())?;
//! println!("{:.0} FPS at {:.1} W", report.metrics.fps, report.metrics.power_w);
//! assert!(report.metrics.fps_per_watt() > 100.0);
//! # Ok::<(), refocus_core::arch::error::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use refocus_arch as arch;
pub use refocus_memsim as memsim;
pub use refocus_nn as nn;
pub use refocus_photonics as photonics;

use refocus_arch::config::{AcceleratorConfig, OpticalBufferKind};
use refocus_arch::energy::EnergyOptions;
use refocus_arch::error::SimError;
use refocus_arch::simulator::{
    simulate_suite_with_options, simulate_with_options, Report, SuiteReport,
};
use refocus_nn::layer::Network;

/// Builder-style front door to the simulator.
///
/// Wraps an [`AcceleratorConfig`] plus [`EnergyOptions`] and runs
/// workloads. Construct from a preset and adjust:
///
/// ```
/// use refocus_core::Accelerator;
/// use refocus_core::nn::models;
///
/// let acc = Accelerator::refocus_ff()
///     .with_rfcus(8)
///     .with_weight_compression(4.5);
/// let report = acc.run(&models::alexnet())?;
/// assert!(report.metrics.fps > 0.0);
/// # Ok::<(), refocus_core::arch::error::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerator {
    config: AcceleratorConfig,
    options: EnergyOptions,
}

impl Accelerator {
    /// The ReFOCUS-FF preset.
    pub fn refocus_ff() -> Self {
        Self {
            config: AcceleratorConfig::refocus_ff(),
            options: EnergyOptions::default(),
        }
    }

    /// The ReFOCUS-FB preset.
    pub fn refocus_fb() -> Self {
        Self {
            config: AcceleratorConfig::refocus_fb(),
            options: EnergyOptions::default(),
        }
    }

    /// The PhotoFourier-NG-style baseline preset.
    pub fn photofourier_baseline() -> Self {
        Self {
            config: AcceleratorConfig::photofourier_baseline(),
            options: EnergyOptions::default(),
        }
    }

    /// A single unoptimized JTC.
    pub fn single_jtc() -> Self {
        Self {
            config: AcceleratorConfig::single_jtc(),
            options: EnergyOptions::default(),
        }
    }

    /// Builds from an explicit configuration.
    pub fn from_config(config: AcceleratorConfig) -> Self {
        Self {
            config,
            options: EnergyOptions::default(),
        }
    }

    /// Sets the RFCU count.
    pub fn with_rfcus(mut self, rfcus: usize) -> Self {
        self.config.rfcus = rfcus;
        self
    }

    /// Sets the WDM wavelength count.
    pub fn with_wavelengths(mut self, wavelengths: usize) -> Self {
        self.config.wavelengths = wavelengths;
        self
    }

    /// Sets the delay-line length (cycles); temporal accumulation is capped
    /// to it so the configuration stays valid (§4.1.4).
    pub fn with_delay_cycles(mut self, cycles: u32) -> Self {
        self.config.delay_cycles = cycles;
        self.config.temporal_accumulation = self.config.temporal_accumulation.min(cycles.max(1));
        self
    }

    /// Selects the optical buffer.
    pub fn with_optical_buffer(mut self, buffer: OpticalBufferKind) -> Self {
        self.config.optical_buffer = buffer;
        self
    }

    /// Enables/disables the SRAM data buffers.
    pub fn with_sram_buffers(mut self, enabled: bool) -> Self {
        self.config.sram_buffers = enabled;
        self
    }

    /// Charges HBM2 DRAM reads in the energy model (§7.3).
    pub fn with_dram(mut self, enabled: bool) -> Self {
        self.config.include_dram = enabled;
        self
    }

    /// Applies a §7.3 weight-sharing compression ratio to weight traffic.
    pub fn with_weight_compression(mut self, ratio: f64) -> Self {
        self.config.weight_compression = ratio;
        self
    }

    /// Applies a §7.3 channel-reordering weight-DAC load factor.
    pub fn with_weight_dac_load_factor(mut self, factor: f64) -> Self {
        self.options.weight_dac_load_factor = factor;
        self
    }

    /// The underlying configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Simulates one network.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`]: `Config` when the configuration is invalid,
    /// `Tiling` when a layer cannot map onto the JTC, `DynamicRange` when
    /// the optical buffer overruns the detector budget with no feasible
    /// fallback, and `EmptyNetwork` for a network with no layers.
    pub fn run(&self, network: &Network) -> Result<Report, SimError> {
        simulate_with_options(network, &self.config, self.options)
    }

    /// Simulates a workload suite.
    ///
    /// Per-network failures land in [`SuiteReport::failed`] while every
    /// other network completes (see [`Accelerator::run`] for the causes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptySuite`] for an empty suite.
    pub fn run_suite(&self, suite: &[Network]) -> Result<SuiteReport, SimError> {
        simulate_suite_with_options(suite, &self.config, self.options)
    }
}

/// The types most programs need.
pub mod prelude {
    pub use crate::Accelerator;
    pub use refocus_arch::config::{AcceleratorConfig, OpticalBufferKind};
    pub use refocus_arch::simulator::{Report, SuiteReport};
    pub use refocus_nn::layer::{ConvSpec, Network};
    pub use refocus_nn::models;
    pub use refocus_photonics::jtc::Jtc;
}

#[cfg(test)]
mod tests {
    use super::*;
    use refocus_nn::models;

    #[test]
    fn presets_run() {
        for acc in [
            Accelerator::refocus_ff(),
            Accelerator::refocus_fb(),
            Accelerator::photofourier_baseline(),
            Accelerator::single_jtc(),
        ] {
            let r = acc.run(&models::resnet18()).unwrap();
            assert!(r.metrics.fps > 0.0, "{}", r.config_name);
        }
    }

    #[test]
    fn builder_adjustments_apply() {
        let acc = Accelerator::refocus_ff()
            .with_rfcus(8)
            .with_wavelengths(1)
            .with_sram_buffers(false);
        assert_eq!(acc.config().rfcus, 8);
        assert_eq!(acc.config().wavelengths, 1);
        assert!(!acc.config().sram_buffers);
        let r = acc.run(&models::alexnet()).unwrap();
        assert!(r.metrics.fps > 0.0);
    }

    #[test]
    fn weight_compression_reduces_energy() {
        let net = models::resnet50();
        let plain = Accelerator::refocus_fb().with_dram(true);
        let shared = plain.clone().with_weight_compression(4.5);
        let a = plain.run(&net).unwrap();
        let b = shared.run(&net).unwrap();
        assert!(b.metrics.energy_j < a.metrics.energy_j);
    }

    #[test]
    fn suite_runs() {
        let s = Accelerator::refocus_fb()
            .run_suite(&models::evaluation_suite())
            .unwrap();
        assert_eq!(s.reports.len(), 5);
        assert!(s.geomean_fps_per_watt() > 0.0);
    }

    #[test]
    fn delay_builder_keeps_config_valid() {
        let acc = Accelerator::refocus_fb().with_delay_cycles(4);
        acc.config().validate().unwrap();
        assert_eq!(acc.config().temporal_accumulation, 4);
    }
}
