//! Photodetector model.
//!
//! Photodetectors measure optical intensity (they are square-law devices) and
//! in ReFOCUS also perform two kinds of analog accumulation for free:
//! *temporal accumulation* — integrating the outputs of up to 16 cycles
//! before an ADC readout (§4.1.4) — and *WDM accumulation* — summing the
//! intensities of nearby wavelengths landing on the same detector (§4.2.2).
//! The detection itself is modelled in [`crate::jtc`] (the square law and
//! [`DetectorSum`](crate::jtc::DetectorSum)); this type carries the
//! detector's footprint and dynamic range.

use crate::units::SquareMicrometers;
use serde::{Deserialize, Serialize};

/// A waveguide-coupled photodetector.
///
/// # Examples
///
/// ```
/// use refocus_photonics::components::Photodetector;
///
/// let pd = Photodetector::new();
/// // A 3.87x signal spread fits the 8-bit-class dynamic range.
/// assert!(pd.fits_dynamic_range(3.87));
/// assert_eq!(pd.area().value(), 1920.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Photodetector {
    area: SquareMicrometers,
    /// Ratio of the largest to the smallest detectable intensity.
    dynamic_range: f64,
}

impl Photodetector {
    /// Paper default footprint (Table 6, \[32\]) — about 10× an MRR, which is
    /// why sharing photodetectors across wavelengths matters (§4.2.2).
    pub const DEFAULT_AREA: SquareMicrometers = SquareMicrometers::new(1920.0);
    /// Dynamic range consistent with 8-bit conversion headroom; §5.4.2 notes
    /// a >153× signal spread is "too large for an 8-bit ADC" (256 levels).
    pub const DEFAULT_DYNAMIC_RANGE: f64 = 256.0;

    /// Creates a photodetector with default parameters.
    pub fn new() -> Self {
        Self {
            area: Self::DEFAULT_AREA,
            dynamic_range: Self::DEFAULT_DYNAMIC_RANGE,
        }
    }

    /// Chip footprint.
    pub fn area(&self) -> SquareMicrometers {
        self.area
    }

    /// Usable dynamic range (max/min detectable intensity).
    pub fn dynamic_range(&self) -> f64 {
        self.dynamic_range
    }

    /// Returns `true` if a signal spanning `ratio` (max/min power) fits the
    /// detector's dynamic range.
    pub fn fits_dynamic_range(&self, ratio: f64) -> bool {
        ratio <= self.dynamic_range
    }
}

impl Default for Photodetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table6() {
        assert_eq!(Photodetector::new().area().value(), 1920.0);
    }

    #[test]
    fn dynamic_range_check() {
        let pd = Photodetector::new();
        assert!(pd.fits_dynamic_range(3.87)); // ReFOCUS-FB R=15 spread
        assert!(!pd.fits_dynamic_range(4.8e4)); // alpha=0.5, R=15 spread
    }

    #[test]
    fn photodetector_much_larger_than_mrr() {
        // §4.2.2: photodetectors are "around 10x larger than MRRs".
        let ratio = Photodetector::new().area().value() / super::super::Mrr::new().area().value();
        assert!(ratio > 5.0 && ratio < 15.0, "ratio = {ratio}");
    }
}
