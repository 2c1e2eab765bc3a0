//! Chromatic walk-off of WDM channels at the output plane (§4.2.3).
//!
//! A lens's focal geometry is wavelength-dependent: each WDM channel's
//! correlation pattern lands on the shared photodetector array slightly
//! *rescaled* in space. The paper's simulations bound the usable channel
//! count at "less than 4" because the spread of the channels' outputs
//! becomes too large for a single detector; this module makes that bound
//! quantitative: [`max_walkoff_samples`] / [`max_feasible_wavelengths`]
//! are the design rule that reproduces the paper's `N_λ < 4` limit, and
//! [`walkoff_table`] tabulates it for reporting.

use serde::{Deserialize, Serialize};

/// Maximum number of wavelengths a shared photodetector can capture
/// (§4.2.3: "our simulation suggests the number of wavelengths should be
/// less than 4"); ReFOCUS uses `N_λ = 2`.
pub const MAX_WAVELENGTHS: usize = 3;

/// Relative spatial-scale error between adjacent WDM channels at the
/// output plane. Calibrated so the feasibility rule reproduces the paper's
/// `N_λ < 4` simulation result on a 256-waveguide plane.
pub const DEFAULT_CHANNEL_DELTA: f64 = 8.0e-4;

/// Maximum tolerable walk-off at the far edge of the plane, in detector
/// pitches: beyond half a pitch, a channel's sample leaks into the
/// neighbouring photodetector.
pub const MAX_WALKOFF_SAMPLES: f64 = 0.5;

/// Worst-case walk-off (in samples) of the `n`-th channel set on a plane of
/// `plane_size` detectors.
pub fn max_walkoff_samples(wavelengths: usize, plane_size: usize, delta: f64) -> f64 {
    if wavelengths <= 1 {
        return 0.0;
    }
    (wavelengths - 1) as f64 * delta * (plane_size - 1) as f64
}

/// Largest channel count whose worst-case walk-off stays under
/// [`MAX_WALKOFF_SAMPLES`] — the design rule behind `N_λ < 4`.
pub fn max_feasible_wavelengths(plane_size: usize, delta: f64) -> usize {
    let mut n = 1;
    while max_walkoff_samples(n + 1, plane_size, delta) <= MAX_WALKOFF_SAMPLES {
        n += 1;
    }
    n
}

/// A `(wavelengths, walkoff, feasible)` table for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WalkoffRow {
    /// Channel count.
    pub wavelengths: usize,
    /// Worst-case walk-off in detector pitches.
    pub walkoff_samples: f64,
    /// Whether it fits the shared-photodetector rule.
    pub feasible: bool,
}

/// Builds the walk-off table for 1..=`max` channels.
pub fn walkoff_table(max: usize, plane_size: usize, delta: f64) -> Vec<WalkoffRow> {
    (1..=max)
        .map(|n| {
            let w = max_walkoff_samples(n, plane_size, delta);
            WalkoffRow {
                wavelengths: n,
                walkoff_samples: w,
                feasible: w <= MAX_WALKOFF_SAMPLES,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_limit_reproduced() {
        // §4.2.3: "the number of wavelengths should be less than 4" for a
        // 256-waveguide plane.
        let n = max_feasible_wavelengths(256, DEFAULT_CHANNEL_DELTA);
        assert_eq!(n, 3, "feasible wavelengths = {n}");
        assert_eq!(
            n, MAX_WAVELENGTHS,
            "the wavelength limit must match the dispersion rule"
        );
    }

    #[test]
    fn walkoff_table_shape() {
        let table = walkoff_table(5, 256, DEFAULT_CHANNEL_DELTA);
        assert_eq!(table.len(), 5);
        assert!(table[0].feasible && table[1].feasible && table[2].feasible);
        assert!(!table[3].feasible && !table[4].feasible);
        // Walk-off strictly increases.
        for w in table.windows(2) {
            assert!(w[1].walkoff_samples > w[0].walkoff_samples);
        }
    }

    #[test]
    fn smaller_planes_tolerate_more_channels() {
        let small = max_feasible_wavelengths(64, DEFAULT_CHANNEL_DELTA);
        let large = max_feasible_wavelengths(1024, DEFAULT_CHANNEL_DELTA);
        assert!(small > large);
    }
}
