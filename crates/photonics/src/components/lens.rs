//! On-chip Fourier lens model.
//!
//! A 1-D metasurface lens computes a spatial Fourier transform of the field
//! on its front focal plane, passively and at time-of-flight latency. Two
//! lenses in series (with a nonlinearity between them) form the JTC. Lenses
//! are the single largest photonic area consumer (>50% of the baseline's
//! photonic area, Fig. 3b), which motivates sharing them across WDM
//! wavelengths (§4.2).

use crate::complex::Complex64;
use crate::fft::fft;
use crate::units::SquareMicrometers;
use serde::{Deserialize, Serialize};

/// A 1-D on-chip Fourier lens.
///
/// # Examples
///
/// ```
/// use refocus_photonics::components::Lens;
/// use refocus_photonics::complex::Complex64;
///
/// let lens = Lens::new();
/// let mut field = vec![Complex64::ONE; 8];
/// lens.transform(&mut field);
/// // A uniform field focuses to a single spot (DC bin).
/// assert!(field[0].norm() > 7.9);
/// assert!(field[1].norm() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Lens {
    area: SquareMicrometers,
}

impl Lens {
    /// Paper default footprint (Table 6): 2 mm² per lens.
    pub const DEFAULT_AREA: SquareMicrometers = SquareMicrometers::new(2e6);

    /// Creates a lens with the paper's default footprint.
    pub fn new() -> Self {
        Self {
            area: Self::DEFAULT_AREA,
        }
    }

    /// Chip footprint.
    pub fn area(&self) -> SquareMicrometers {
        self.area
    }

    /// Applies the lens's Fourier transform to a field in place.
    ///
    /// The optical transform is unitary up to scale; we use the unnormalized
    /// forward DFT, matching the convention in [`crate::fft`].
    ///
    /// # Panics
    ///
    /// Panics unless `field.len()` is 0 or a power of two.
    pub fn transform(&self, field: &mut [Complex64]) {
        fft(field);
    }
}

impl Default for Lens {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_area_matches_table6() {
        assert_eq!(Lens::new().area().value(), 2e6);
    }

    #[test]
    fn lens_pair_is_identity() {
        let lens = Lens::new();
        let original: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new(i as f64, (i as f64).cos()))
            .collect();
        let mut field = original.clone();
        lens.transform(&mut field);
        crate::fft::ifft(&mut field);
        for (a, b) in field.iter().zip(&original) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn transform_is_passive_linear() {
        let lens = Lens::new();
        let a: Vec<Complex64> = (0..8).map(|i| Complex64::from_real(i as f64)).collect();
        let b: Vec<Complex64> = (0..8).map(|i| Complex64::new(0.0, -(i as f64))).collect();
        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        lens.transform(&mut sum);
        lens.transform(&mut fa);
        lens.transform(&mut fb);
        for i in 0..8 {
            assert!((sum[i] - (fa[i] + fb[i])).norm() < 1e-9);
        }
    }
}
