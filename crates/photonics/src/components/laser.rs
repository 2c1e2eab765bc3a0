//! Laser source model.
//!
//! Each waveguide needs a minimum optical power at the photodetector to be
//! detectable; the laser must additionally compensate for every loss between
//! source and detector (Y-junctions, delay lines). The *average* laser power
//! is therefore the minimum power scaled by the system's loss overhead
//! factor, which the optical-buffer models compute (paper Table 5, §5.4).

use crate::units::{MilliWatts, SquareMicrometers};
use serde::{Deserialize, Serialize};

/// An on-chip laser source (heterogeneously integrated III-V/Si DBR, \[13\]).
///
/// # Examples
///
/// ```
/// use refocus_photonics::components::Laser;
///
/// let laser = Laser::new();
/// // A system with a 3.87x loss-compensation factor (ReFOCUS-FB, R = 15):
/// let avg = laser.average_power(3.87);
/// assert!((avg.value() - 0.387).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Laser {
    min_power_per_waveguide: MilliWatts,
    area: SquareMicrometers,
}

impl Laser {
    /// Paper default: minimum 0.1 mW optical power per waveguide (Table 6).
    pub const DEFAULT_MIN_POWER: MilliWatts = MilliWatts::new(0.1);
    /// Paper default footprint (Table 6, \[13\]).
    pub const DEFAULT_AREA: SquareMicrometers = SquareMicrometers::new(1.2e5);

    /// Creates a laser with the paper's default parameters.
    pub fn new() -> Self {
        Self {
            min_power_per_waveguide: Self::DEFAULT_MIN_POWER,
            area: Self::DEFAULT_AREA,
        }
    }

    /// Minimum optical power required per waveguide for detection.
    pub fn min_power(&self) -> MilliWatts {
        self.min_power_per_waveguide
    }

    /// Chip footprint of one laser.
    pub fn area(&self) -> SquareMicrometers {
        self.area
    }

    /// Average per-waveguide power once the loss-compensation
    /// `overhead_factor` (≥ 1) of the optical path is applied.
    ///
    /// # Panics
    ///
    /// Panics if `overhead_factor < 1` — a passive optical path can never
    /// require *less* than the minimum detectable power.
    pub fn average_power(&self, overhead_factor: f64) -> MilliWatts {
        assert!(
            overhead_factor >= 1.0,
            "loss-compensation factor must be >= 1, got {overhead_factor}"
        );
        self.min_power_per_waveguide * overhead_factor
    }

    /// The *excess* per-waveguide power spent purely on compensating
    /// optical-buffer losses: [`Laser::average_power`] minus the unity-
    /// overhead minimum. Zero at `overhead_factor == 1` (no buffer, or a
    /// lossless path); this is the quantity the attribution ledger books
    /// as the buffer's laser overhead.
    ///
    /// # Panics
    ///
    /// Panics if `overhead_factor < 1` (same contract as
    /// [`Laser::average_power`]).
    pub fn compensation_power(&self, overhead_factor: f64) -> MilliWatts {
        self.average_power(overhead_factor) - self.min_power_per_waveguide
    }
}

impl Default for Laser {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table6() {
        let l = Laser::new();
        assert_eq!(l.min_power().value(), 0.1);
        assert_eq!(l.area().value(), 1.2e5);
    }

    #[test]
    fn unity_overhead_gives_minimum() {
        let l = Laser::new();
        assert_eq!(l.average_power(1.0), l.min_power());
    }

    #[test]
    fn overhead_scales_power() {
        let l = Laser::new();
        assert!((l.average_power(3.05).value() - 0.305).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_unity_overhead() {
        let _ = Laser::new().average_power(0.9);
    }
}
