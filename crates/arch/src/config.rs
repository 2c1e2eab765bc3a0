//! Accelerator configuration (§5.1 and the baselines of §3).
//!
//! An [`AcceleratorConfig`] captures one point in the design space: which
//! optical buffer (if any), WDM width, delay-line length, RFCU count, and
//! which optimizations are enabled. Presets reproduce the paper's systems:
//!
//! * [`AcceleratorConfig::refocus_ff`] / [`AcceleratorConfig::refocus_fb`] —
//!   the two ReFOCUS variants (16 RFCUs, N_λ = 2, M = 16, R = 1 / 15);
//! * [`AcceleratorConfig::photofourier_baseline`] — the modified
//!   PhotoFourier-NG baseline (16 plain JTCs, temporal accumulation, no
//!   WDM, no optical buffer, no SRAM data buffers);
//! * [`AcceleratorConfig::single_jtc`] — one JTC with no optimizations at
//!   all (Fig. 3a's left bar).

use refocus_nn::tiling::TilingMode;
use refocus_photonics::buffer::{FeedbackBuffer, FeedforwardBuffer};
use refocus_photonics::units::GigaHertz;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which optical buffer an accelerator reuses light through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpticalBufferKind {
    /// No optical reuse.
    None,
    /// Feedforward buffer: reuse once, balanced copies (§4.1.2).
    FeedForward,
    /// Feedback buffer: reuse `R` times with weight rescaling (§4.1.1).
    FeedBack {
        /// Number of replays `R`.
        reuses: u32,
    },
}

impl OpticalBufferKind {
    /// Total uses of each generated input signal (`1 + R`).
    pub fn uses_per_generation(&self) -> u32 {
        match self {
            OpticalBufferKind::None => 1,
            OpticalBufferKind::FeedForward => 2,
            OpticalBufferKind::FeedBack { reuses } => reuses + 1,
        }
    }
}

impl fmt::Display for OpticalBufferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpticalBufferKind::None => write!(f, "none"),
            OpticalBufferKind::FeedForward => write!(f, "feedforward"),
            OpticalBufferKind::FeedBack { reuses } => write!(f, "feedback(R={reuses})"),
        }
    }
}

/// Errors from configuration validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural parameter was zero.
    ZeroParameter(&'static str),
    /// More wavelengths than the WDM photodetector limit.
    TooManyWavelengths(usize),
    /// Temporal accumulation longer than the delay line allows (§4.1.4).
    AccumulationExceedsDelay {
        /// Requested accumulation depth in cycles.
        accumulation: u32,
        /// Delay-line length in cycles.
        delay: u32,
    },
    /// An optical buffer requires a delay line.
    BufferWithoutDelay,
    /// More feedback reuses than the buffer model can count: `R` above
    /// `i32::MAX`, the largest exponent its replay-attenuation power
    /// `ρ^R` takes.
    TooManyReuses(u32),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParameter(p) => write!(f, "{p} must be positive"),
            ConfigError::TooManyWavelengths(n) => {
                write!(f, "{n} wavelengths exceed the shared-photodetector limit")
            }
            ConfigError::AccumulationExceedsDelay {
                accumulation,
                delay,
            } => write!(
                f,
                "temporal accumulation of {accumulation} cycles exceeds the {delay}-cycle delay line"
            ),
            ConfigError::BufferWithoutDelay => {
                write!(f, "an optical buffer requires a non-zero delay line")
            }
            ConfigError::TooManyReuses(reuses) => {
                write!(f, "{reuses} feedback reuses exceed the limit of {}", i32::MAX)
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A full accelerator design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Human-readable name.
    pub name: String,
    /// System clock (10 GHz in the paper).
    pub clock: GigaHertz,
    /// JTC input waveguides per RFCU (`T` = 256).
    pub tile: usize,
    /// Compute units.
    pub rfcus: usize,
    /// WDM wavelengths per RFCU (`N_λ`).
    pub wavelengths: usize,
    /// Delay-line length `M` in cycles (0 = no delay lines at all).
    pub delay_cycles: u32,
    /// Temporal-accumulation depth in cycles (1 = ADC reads every cycle).
    pub temporal_accumulation: u32,
    /// The optical buffer, if any.
    pub optical_buffer: OpticalBufferKind,
    /// SRAM data buffers between the shared SRAMs and converters (§5.2).
    pub sram_buffers: bool,
    /// Row-tiling mode for the perf model.
    pub tiling_mode: TilingMode,
    /// Charge HBM2 DRAM reads in the energy model (§7.3; the paper's
    /// headline numbers exclude DRAM like all prior photonic work).
    pub include_dram: bool,
    /// Weight-sharing compression factor applied to weight traffic
    /// (1.0 = off; §7.3 reports 4.5).
    pub weight_compression: f64,
    /// Inference batch size. `1` is the paper's setting. Larger batches
    /// switch the dataflow to *weight-stationary interleaving*: the same
    /// filter kernel serves `batch` images on consecutive cycles, cutting
    /// weight-DAC loads by `batch` — but the interleaved inputs change
    /// every cycle, which forfeits optical input reuse (an extension study;
    /// see the `ablations` experiment).
    pub batch: usize,
}

impl AcceleratorConfig {
    /// ReFOCUS-FF: feedforward buffer, 16 RFCUs, 2 wavelengths, M = 16.
    pub fn refocus_ff() -> Self {
        Self {
            name: "ReFOCUS-FF".into(),
            clock: GigaHertz::new(10.0),
            tile: 256,
            rfcus: 16,
            wavelengths: 2,
            delay_cycles: 16,
            temporal_accumulation: 16,
            optical_buffer: OpticalBufferKind::FeedForward,
            sram_buffers: true,
            tiling_mode: TilingMode::Approximate,
            include_dram: false,
            weight_compression: 1.0,
            batch: 1,
        }
    }

    /// ReFOCUS-FB: feedback buffer with R = 15, otherwise like FF.
    pub fn refocus_fb() -> Self {
        Self {
            name: "ReFOCUS-FB".into(),
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 15 },
            ..Self::refocus_ff()
        }
    }

    /// The §3 baseline: PhotoFourier-NG-like — 16 JTCs, temporal
    /// accumulation, but no WDM, no optical buffer, no SRAM data buffers.
    pub fn photofourier_baseline() -> Self {
        Self {
            name: "ReFOCUS-baseline (PhotoFourier-NG)".into(),
            wavelengths: 1,
            delay_cycles: 0,
            optical_buffer: OpticalBufferKind::None,
            sram_buffers: false,
            ..Self::refocus_ff()
        }
    }

    /// A single JTC with no optimizations (no temporal accumulation):
    /// Fig. 3a's "single JTC system".
    pub fn single_jtc() -> Self {
        Self {
            name: "single JTC".into(),
            rfcus: 1,
            wavelengths: 1,
            delay_cycles: 0,
            temporal_accumulation: 1,
            optical_buffer: OpticalBufferKind::None,
            sram_buffers: false,
            ..Self::refocus_ff()
        }
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero counts, too many wavelengths, more
    /// than `i32::MAX` feedback reuses, temporal accumulation exceeding
    /// the delay line (when an optical buffer is present, §4.1.4), or a
    /// buffer without a delay line.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tile == 0 {
            return Err(ConfigError::ZeroParameter("tile"));
        }
        if self.rfcus == 0 {
            return Err(ConfigError::ZeroParameter("rfcus"));
        }
        if self.wavelengths == 0 {
            return Err(ConfigError::ZeroParameter("wavelengths"));
        }
        if self.temporal_accumulation == 0 {
            return Err(ConfigError::ZeroParameter("temporal_accumulation"));
        }
        // Written as negated accepted ranges so NaN (and infinity) fail.
        if !(self.clock.value() > 0.0 && self.clock.value().is_finite()) {
            return Err(ConfigError::ZeroParameter("clock"));
        }
        if !(self.weight_compression >= 1.0 && self.weight_compression.is_finite()) {
            return Err(ConfigError::ZeroParameter("weight_compression"));
        }
        if self.batch == 0 {
            return Err(ConfigError::ZeroParameter("batch"));
        }
        if self.wavelengths > refocus_photonics::dispersion::MAX_WAVELENGTHS {
            return Err(ConfigError::TooManyWavelengths(self.wavelengths));
        }
        if let OpticalBufferKind::FeedBack { reuses } = self.optical_buffer {
            if reuses == 0 {
                return Err(ConfigError::ZeroParameter("reuses"));
            }
            if i32::try_from(reuses).is_err() {
                return Err(ConfigError::TooManyReuses(reuses));
            }
        }
        if self.optical_buffer != OpticalBufferKind::None {
            if self.delay_cycles == 0 {
                return Err(ConfigError::BufferWithoutDelay);
            }
            if self.temporal_accumulation > self.delay_cycles {
                return Err(ConfigError::AccumulationExceedsDelay {
                    accumulation: self.temporal_accumulation,
                    delay: self.delay_cycles,
                });
            }
        }
        Ok(())
    }

    /// Input-DAC duty-cycle factor from optical reuse: `1 / uses`, where
    /// `uses` is capped by how many distinct filter iterations actually
    /// consume the buffered signal (capped later, per layer).
    pub fn max_input_uses(&self) -> u32 {
        self.optical_buffer.uses_per_generation()
    }

    /// The feedback buffer model for this config, if it uses one.
    pub fn feedback_buffer(&self) -> Option<FeedbackBuffer> {
        match self.optical_buffer {
            OpticalBufferKind::FeedBack { reuses } => Some(
                FeedbackBuffer::with_optimal_split(reuses, self.delay_cycles.max(1), self.clock)
                    .expect("validated configuration"),
            ),
            _ => None,
        }
    }

    /// The feedforward buffer model for this config, if it uses one.
    pub fn feedforward_buffer(&self) -> Option<FeedforwardBuffer> {
        match self.optical_buffer {
            OpticalBufferKind::FeedForward => Some(FeedforwardBuffer::balanced(
                self.delay_cycles.max(1),
                self.clock,
            )),
            _ => None,
        }
    }

    /// Laser power overhead factor (relative to the minimum detectable
    /// power) imposed by the optical buffer's losses: Table 5 maths.
    pub fn laser_overhead(&self) -> f64 {
        match self.optical_buffer {
            OpticalBufferKind::None => 1.0,
            OpticalBufferKind::FeedForward => self
                .feedforward_buffer()
                .expect("kind checked")
                .relative_laser_power(),
            OpticalBufferKind::FeedBack { .. } => self
                .feedback_buffer()
                .expect("kind checked")
                .relative_laser_power(),
        }
    }

    /// Dynamic range the optical buffer imposes on input signals (ratio of
    /// strongest to weakest replay; 1.0 without a buffer).
    pub fn signal_dynamic_range(&self) -> f64 {
        match self.optical_buffer {
            OpticalBufferKind::None => 1.0,
            OpticalBufferKind::FeedForward => self
                .feedforward_buffer()
                .expect("kind checked")
                .dynamic_range(),
            OpticalBufferKind::FeedBack { .. } => self
                .feedback_buffer()
                .expect("kind checked")
                .dynamic_range(),
        }
    }

    /// Whether the buffer's dynamic range fits the photodetector/ADC
    /// budget (§5.4.2: a spread beyond the 8-bit converter's 256 levels
    /// destroys effective precision).
    pub fn dynamic_range_feasible(&self) -> bool {
        refocus_photonics::components::Photodetector::new()
            .fits_dynamic_range(self.signal_dynamic_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            AcceleratorConfig::refocus_ff(),
            AcceleratorConfig::refocus_fb(),
            AcceleratorConfig::photofourier_baseline(),
            AcceleratorConfig::single_jtc(),
        ] {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
    }

    #[test]
    fn refocus_matches_section_5_1() {
        let ff = AcceleratorConfig::refocus_ff();
        assert_eq!(ff.rfcus, 16);
        assert_eq!(ff.tile, 256);
        assert_eq!(ff.wavelengths, 2);
        assert_eq!(ff.delay_cycles, 16);
        assert_eq!(ff.temporal_accumulation, 16);
        assert_eq!(ff.clock.value(), 10.0);
        let fb = AcceleratorConfig::refocus_fb();
        assert_eq!(
            fb.optical_buffer,
            OpticalBufferKind::FeedBack { reuses: 15 }
        );
        assert_eq!(fb.max_input_uses(), 16);
    }

    #[test]
    fn baseline_has_no_refocus_optimizations() {
        let b = AcceleratorConfig::photofourier_baseline();
        assert_eq!(b.wavelengths, 1);
        assert_eq!(b.optical_buffer, OpticalBufferKind::None);
        assert!(!b.sram_buffers);
        assert_eq!(b.max_input_uses(), 1);
        // But it does keep temporal accumulation (§3).
        assert_eq!(b.temporal_accumulation, 16);
    }

    #[test]
    fn single_jtc_reads_adc_every_cycle() {
        let s = AcceleratorConfig::single_jtc();
        assert_eq!(s.temporal_accumulation, 1);
    }

    #[test]
    fn accumulation_beyond_delay_rejected() {
        let cfg = AcceleratorConfig {
            temporal_accumulation: 32,
            ..AcceleratorConfig::refocus_ff()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::AccumulationExceedsDelay {
                accumulation: 32,
                delay: 16
            })
        );
    }

    #[test]
    fn buffer_without_delay_rejected() {
        let cfg = AcceleratorConfig {
            delay_cycles: 0,
            ..AcceleratorConfig::refocus_ff()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::BufferWithoutDelay));
    }

    #[test]
    fn reuse_counts_above_i32_max_rejected() {
        let with_reuses = |reuses| AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses },
            ..AcceleratorConfig::refocus_fb()
        };
        assert_eq!(with_reuses(i32::MAX as u32).validate(), Ok(()));
        for reuses in [i32::MAX as u32 + 1, u32::MAX] {
            let err = with_reuses(reuses).validate().unwrap_err();
            assert_eq!(err, ConfigError::TooManyReuses(reuses));
            assert!(err.to_string().contains(&reuses.to_string()), "{err}");
        }
    }

    #[test]
    fn zero_parameters_rejected() {
        let mut cfg = AcceleratorConfig::refocus_ff();
        cfg.rfcus = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter("rfcus")));
        let mut cfg = AcceleratorConfig::refocus_ff();
        cfg.wavelengths = 9;
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyWavelengths(9)));
        // The shared-photodetector limit, N_λ < 4, at its edges.
        cfg.wavelengths = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("wavelengths"))
        );
        cfg.wavelengths = 3;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.wavelengths = 4;
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyWavelengths(4)));
        let mut cfg = AcceleratorConfig::refocus_fb();
        cfg.optical_buffer = OpticalBufferKind::FeedBack { reuses: 0 };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter("reuses")));
        for bad in [f64::NAN, f64::INFINITY, 0.5] {
            let mut cfg = AcceleratorConfig::refocus_fb();
            cfg.weight_compression = bad;
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::ZeroParameter("weight_compression")),
                "weight_compression = {bad}"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0] {
            let mut cfg = AcceleratorConfig::refocus_fb();
            cfg.clock = GigaHertz::new(bad);
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::ZeroParameter("clock")),
                "clock = {bad}"
            );
        }
    }

    #[test]
    fn laser_overhead_ordering() {
        // No buffer < FF (just above 1) < FB (3.87 at R=15, Table 5).
        let none = AcceleratorConfig::photofourier_baseline().laser_overhead();
        let ff = AcceleratorConfig::refocus_ff().laser_overhead();
        let fb = AcceleratorConfig::refocus_fb().laser_overhead();
        assert_eq!(none, 1.0);
        assert!(ff > 1.0 && ff < 1.1, "ff = {ff}");
        assert!((fb - 3.87).abs() < 0.02, "fb = {fb}");
    }

    #[test]
    fn shipped_configs_fit_the_adc_dynamic_range() {
        // §5.4.2: R = 15 with optimal alpha spreads signals 3.87x — fine
        // for an 8-bit ADC. Extreme reuse without the split-ratio fix would
        // not be.
        assert!(AcceleratorConfig::refocus_ff().dynamic_range_feasible());
        assert!(AcceleratorConfig::refocus_fb().dynamic_range_feasible());
        assert!((AcceleratorConfig::refocus_fb().signal_dynamic_range() - 3.87).abs() < 0.02);
        assert_eq!(
            AcceleratorConfig::photofourier_baseline().signal_dynamic_range(),
            1.0
        );
        // Even optimal-alpha reuse eventually outruns 256 levels.
        let extreme = AcceleratorConfig {
            optical_buffer: OpticalBufferKind::FeedBack { reuses: 2000 },
            ..AcceleratorConfig::refocus_fb()
        };
        assert!(!extreme.dynamic_range_feasible());
    }

    #[test]
    fn buffer_kind_uses() {
        assert_eq!(OpticalBufferKind::None.uses_per_generation(), 1);
        assert_eq!(OpticalBufferKind::FeedForward.uses_per_generation(), 2);
        assert_eq!(
            OpticalBufferKind::FeedBack { reuses: 15 }.uses_per_generation(),
            16
        );
    }

    #[test]
    fn error_display() {
        assert!(ConfigError::BufferWithoutDelay
            .to_string()
            .contains("delay"));
        assert!(ConfigError::ZeroParameter("tile")
            .to_string()
            .contains("tile"));
    }
}
