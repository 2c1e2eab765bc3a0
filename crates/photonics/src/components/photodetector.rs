//! Photodetector model.
//!
//! Photodetectors measure optical intensity (they are square-law devices) and
//! in ReFOCUS also perform two kinds of analog accumulation for free:
//! *temporal accumulation* — integrating the outputs of up to 16 cycles
//! before an ADC readout (§4.1.4) — and *WDM accumulation* — summing the
//! intensities of nearby wavelengths landing on the same detector (§4.2.2).

use crate::units::SquareMicrometers;
use serde::{Deserialize, Serialize};

/// A waveguide-coupled photodetector.
///
/// # Examples
///
/// ```
/// use refocus_photonics::components::Photodetector;
/// use refocus_photonics::complex::Complex64;
///
/// let pd = Photodetector::new();
/// let field = Complex64::from_polar(2.0, 1.234);
/// // Detection is phase-insensitive: intensity = |field|^2.
/// assert!((pd.detect(field) - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Photodetector {
    area: SquareMicrometers,
    responsivity: f64,
    /// Ratio of the largest to the smallest detectable intensity.
    dynamic_range: f64,
}

impl Photodetector {
    /// Paper default footprint (Table 6, \[32\]) — about 10× an MRR, which is
    /// why sharing photodetectors across wavelengths matters (§4.2.2).
    pub const DEFAULT_AREA: SquareMicrometers = SquareMicrometers::new(1920.0);
    /// Default responsivity (A/W); detection math is normalized so this only
    /// matters relative to noise.
    pub const DEFAULT_RESPONSIVITY: f64 = 1.0;
    /// Dynamic range consistent with 8-bit conversion headroom; §5.4.2 notes
    /// a >153× signal spread is "too large for an 8-bit ADC" (256 levels).
    pub const DEFAULT_DYNAMIC_RANGE: f64 = 256.0;

    /// Creates a photodetector with default parameters.
    pub fn new() -> Self {
        Self {
            area: Self::DEFAULT_AREA,
            responsivity: Self::DEFAULT_RESPONSIVITY,
            dynamic_range: Self::DEFAULT_DYNAMIC_RANGE,
        }
    }

    /// Chip footprint.
    pub fn area(&self) -> SquareMicrometers {
        self.area
    }

    /// Detector responsivity (photocurrent per optical watt, normalized).
    pub fn responsivity(&self) -> f64 {
        self.responsivity
    }

    /// Usable dynamic range (max/min detectable intensity).
    pub fn dynamic_range(&self) -> f64 {
        self.dynamic_range
    }

    /// Detects a complex optical field, returning the photocurrent
    /// (∝ intensity). Phase information is destroyed.
    pub fn detect(&self, field: crate::complex::Complex64) -> f64 {
        self.responsivity * field.norm_sqr()
    }

    /// Temporally accumulates a sequence of per-cycle intensities before a
    /// single readout (temporal accumulation, §4.1.4).
    pub fn accumulate(&self, intensities: &[f64]) -> f64 {
        intensities.iter().sum()
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
    use crate::complex::Complex64;

    #[test]
    fn default_matches_table6() {
        assert_eq!(Photodetector::new().area().value(), 1920.0);
    }

    #[test]
    fn detection_is_square_law() {
        let pd = Photodetector::new();
        assert_eq!(pd.detect(Complex64::new(3.0, 4.0)), 25.0);
    }

    #[test]
    fn detection_discards_phase() {
        let pd = Photodetector::new();
        let a = pd.detect(Complex64::from_polar(1.5, 0.0));
        let b = pd.detect(Complex64::from_polar(1.5, 2.9));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn temporal_accumulation_sums() {
        let pd = Photodetector::new();
        let cycles = [0.5, 0.25, 0.25];
        assert_eq!(pd.accumulate(&cycles), 1.0);
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
