//! Micro-ring resonator (MRR) model.
//!
//! MRRs play three roles in ReFOCUS: amplitude modulators that encode DAC
//! outputs onto light (input and weight generation), wavelength-selective
//! couplers in the WDM encoder, and the on/off *switch* that gates the
//! feedback optical buffer (§4.1.1).

use crate::units::{MilliWatts, SquareMicrometers};
use serde::{Deserialize, Serialize};

/// A micro-ring resonator.
///
/// # Examples
///
/// ```
/// use refocus_photonics::components::Mrr;
///
/// let mrr = Mrr::new();
/// assert_eq!(mrr.power().value(), 0.42);
/// // Modulate a normalized drive level onto a carrier:
/// let out = mrr.modulate(1.0, 0.5);
/// assert!((out - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mrr {
    power: MilliWatts,
    area: SquareMicrometers,
}

impl Mrr {
    /// Paper default power draw (Table 6, \[42\]).
    pub const DEFAULT_POWER: MilliWatts = MilliWatts::new(0.42);
    /// Paper default footprint (Table 6, \[32\]).
    pub const DEFAULT_AREA: SquareMicrometers = SquareMicrometers::new(255.0);

    /// Creates an MRR with the paper's default parameters.
    pub fn new() -> Self {
        Self {
            power: Self::DEFAULT_POWER,
            area: Self::DEFAULT_AREA,
        }
    }

    /// Power drawn while actively modulating.
    pub fn power(&self) -> MilliWatts {
        self.power
    }

    /// Chip footprint.
    pub fn area(&self) -> SquareMicrometers {
        self.area
    }

    /// Modulates a normalized drive level `level` in `[0, 1]` onto a carrier
    /// field amplitude, returning the output amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, 1]`.
    pub fn modulate(&self, carrier_amplitude: f64, level: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&level),
            "modulation level must be in [0,1], got {level}"
        );
        carrier_amplitude * level
    }
}

impl Default for Mrr {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table6() {
        let m = Mrr::new();
        assert_eq!(m.power().value(), 0.42);
        assert_eq!(m.area().value(), 255.0);
    }

    #[test]
    fn modulation_scales_amplitude() {
        let m = Mrr::new();
        assert_eq!(m.modulate(2.0, 0.25), 0.5);
        assert_eq!(m.modulate(2.0, 0.0), 0.0);
        assert_eq!(m.modulate(2.0, 1.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "modulation level must be in [0,1]")]
    fn modulation_rejects_out_of_range() {
        Mrr::new().modulate(1.0, 1.5);
    }
}
