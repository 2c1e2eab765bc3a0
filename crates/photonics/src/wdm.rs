//! Wavelength-division multiplexing (WDM) model (paper §4.2).
//!
//! WDM encodes several data channels onto one waveguide using different
//! wavelengths. Everything the waveguide does — phase shifts, delays, and
//! crucially the lens's Fourier transform — is applied to *all* wavelengths
//! at once, so the (huge) lenses are shared. At the output, ReFOCUS picks
//! wavelengths close enough together that a single photodetector captures
//! them all, *summing* their convolution results — exactly the channel
//! accumulation a CNN needs. No decoder MRRs are required.
//!
//! The paper's simulations bound the usable wavelength count at <4 (the
//! spatial spread of the correlation terms grows with wavelength spacing);
//! ReFOCUS uses `N_λ = 2`.

use crate::jtc::{Jtc, JtcError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of wavelengths a shared photodetector can capture
/// (paper §4.2.3: "our simulation suggests the number of wavelengths should
/// be less than 4").
pub const MAX_WAVELENGTHS: usize = 3;

/// Errors from WDM bus construction or use.
#[derive(Debug, Clone, PartialEq)]
pub enum WdmError {
    /// Requested more wavelengths than a shared photodetector supports.
    TooManyWavelengths {
        /// The rejected channel count.
        requested: usize,
    },
    /// No channels requested.
    NoChannels,
    /// Channel data count does not match the bus's wavelength count.
    ChannelCountMismatch {
        /// Channels the bus carries.
        expected: usize,
        /// Channels supplied.
        got: usize,
    },
    /// A per-channel JTC pass failed.
    Jtc(JtcError),
}

impl fmt::Display for WdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WdmError::TooManyWavelengths { requested } => write!(
                f,
                "{requested} wavelengths exceed the {MAX_WAVELENGTHS}-channel photodetector limit"
            ),
            WdmError::NoChannels => write!(f, "a WDM bus needs at least one wavelength"),
            WdmError::ChannelCountMismatch { expected, got } => {
                write!(f, "expected {expected} channel inputs, got {got}")
            }
            WdmError::Jtc(e) => write!(f, "per-channel JTC pass failed: {e}"),
        }
    }
}

impl std::error::Error for WdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WdmError::Jtc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JtcError> for WdmError {
    fn from(e: JtcError) -> Self {
        WdmError::Jtc(e)
    }
}

/// A WDM bus carrying `N_λ` independent channels through one shared JTC.
///
/// # Examples
///
/// ```
/// use refocus_photonics::wdm::WdmBus;
/// use refocus_photonics::jtc::Jtc;
///
/// let bus = WdmBus::new(2).unwrap();
/// let jtc = Jtc::ideal();
/// let ch0 = (vec![1.0, 2.0, 3.0, 4.0], vec![1.0, 1.0]);
/// let ch1 = (vec![0.5, 0.5, 0.5, 0.5], vec![2.0, 0.0]);
/// let out = bus.correlate_accumulate(&jtc, &[ch0, ch1]).unwrap();
/// // Detector sums both channels' valid correlations:
/// // ch0: [3,5,7]; ch1: [1,1,1] -> [4,6,8]
/// for (got, want) in out.iter().zip([4.0, 6.0, 8.0]) {
///     assert!((got - want).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WdmBus {
    wavelengths: usize,
    /// Channel spacing in nanometres around the 1550 nm carrier.
    spacing_nm_milli: u32,
}

impl WdmBus {
    /// Default channel spacing: 0.8 nm (100 GHz ITU grid).
    pub const DEFAULT_SPACING_NM: f64 = 0.8;

    /// Creates a bus with `wavelengths` channels.
    ///
    /// # Errors
    ///
    /// Returns [`WdmError`] if `wavelengths` is 0 or exceeds
    /// [`MAX_WAVELENGTHS`].
    pub fn new(wavelengths: usize) -> Result<Self, WdmError> {
        if wavelengths == 0 {
            return Err(WdmError::NoChannels);
        }
        if wavelengths > MAX_WAVELENGTHS {
            return Err(WdmError::TooManyWavelengths {
                requested: wavelengths,
            });
        }
        Ok(Self {
            wavelengths,
            spacing_nm_milli: (Self::DEFAULT_SPACING_NM * 1000.0) as u32,
        })
    }

    /// The ReFOCUS configuration: 2 wavelengths.
    pub fn refocus() -> Self {
        Self::new(2).expect("2 wavelengths is within the photodetector limit")
    }

    /// Number of channels carried.
    pub fn wavelengths(&self) -> usize {
        self.wavelengths
    }

    /// Channel spacing in nanometres.
    pub fn spacing_nm(&self) -> f64 {
        self.spacing_nm_milli as f64 / 1000.0
    }

    /// The carrier wavelengths, centred on 1550 nm.
    pub fn channel_wavelengths_nm(&self) -> Vec<f64> {
        let centre = 1550.0;
        let n = self.wavelengths as f64;
        (0..self.wavelengths)
            .map(|i| centre + (i as f64 - (n - 1.0) / 2.0) * self.spacing_nm())
            .collect()
    }

    /// Runs one JTC pass per channel and accumulates the *valid* correlation
    /// windows at the shared photodetector.
    ///
    /// Each channel is a `(signal, kernel)` pair; all channels must produce
    /// equally sized valid windows (same signal/kernel lengths), as they
    /// share one detector array.
    ///
    /// # Errors
    ///
    /// Returns [`WdmError::ChannelCountMismatch`] if the channel count does
    /// not equal [`WdmBus::wavelengths`], or forwards the underlying
    /// [`JtcError`].
    ///
    /// # Panics
    ///
    /// Panics if channels produce differently sized valid windows.
    pub fn correlate_accumulate(
        &self,
        jtc: &Jtc,
        channels: &[(Vec<f64>, Vec<f64>)],
    ) -> Result<Vec<f64>, WdmError> {
        if channels.len() != self.wavelengths {
            return Err(WdmError::ChannelCountMismatch {
                expected: self.wavelengths,
                got: channels.len(),
            });
        }
        let mut acc: Option<Vec<f64>> = None;
        for (signal, kernel) in channels {
            let out = jtc.correlate(signal, kernel)?;
            let valid = out.valid();
            match &mut acc {
                None => acc = Some(valid.to_vec()),
                Some(sum) => {
                    assert_eq!(
                        sum.len(),
                        valid.len(),
                        "WDM channels must produce equal-sized outputs"
                    );
                    for (s, v) in sum.iter_mut().zip(valid) {
                        *s += v;
                    }
                }
            }
        }
        Ok(acc.expect("at least one wavelength guaranteed by constructor"))
    }

    /// Throughput multiplier WDM provides: one pass computes `N_λ` channel
    /// convolutions.
    pub fn throughput_factor(&self) -> f64 {
        self.wavelengths as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::correlate_valid;

    #[test]
    fn rejects_invalid_channel_counts() {
        assert_eq!(WdmBus::new(0), Err(WdmError::NoChannels));
        assert_eq!(
            WdmBus::new(4),
            Err(WdmError::TooManyWavelengths { requested: 4 })
        );
        assert!(WdmBus::new(3).is_ok());
    }

    #[test]
    fn refocus_uses_two_wavelengths() {
        let bus = WdmBus::refocus();
        assert_eq!(bus.wavelengths(), 2);
        assert_eq!(bus.throughput_factor(), 2.0);
    }

    #[test]
    fn channel_wavelengths_centred_and_spaced() {
        let bus = WdmBus::refocus();
        let w = bus.channel_wavelengths_nm();
        assert_eq!(w.len(), 2);
        assert!((w[1] - w[0] - 0.8).abs() < 1e-9);
        assert!(((w[0] + w[1]) / 2.0 - 1550.0).abs() < 1e-9);
    }

    #[test]
    fn accumulation_equals_sum_of_channel_correlations() {
        let bus = WdmBus::refocus();
        let jtc = Jtc::ideal();
        let s0: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let k0 = vec![0.2, 0.5, 0.3];
        let s1: Vec<f64> = (0..12).map(|i| (i as f64 * 0.73).cos().abs()).collect();
        let k1 = vec![0.4, 0.1, 0.5];
        let got = bus
            .correlate_accumulate(&jtc, &[(s0.clone(), k0.clone()), (s1.clone(), k1.clone())])
            .unwrap();
        let want: Vec<f64> = correlate_valid(&s0, &k0)
            .iter()
            .zip(correlate_valid(&s1, &k1))
            .map(|(a, b)| a + b)
            .collect();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-8);
        }
    }

    #[test]
    fn channel_count_mismatch_detected() {
        let bus = WdmBus::refocus();
        let jtc = Jtc::ideal();
        let one = vec![(vec![1.0, 2.0], vec![1.0])];
        assert_eq!(
            bus.correlate_accumulate(&jtc, &one),
            Err(WdmError::ChannelCountMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn jtc_error_propagates() {
        let bus = WdmBus::new(1).unwrap();
        let jtc = Jtc::ideal();
        let bad = vec![(vec![-1.0], vec![1.0])];
        assert!(matches!(
            bus.correlate_accumulate(&jtc, &bad),
            Err(WdmError::Jtc(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(WdmError::NoChannels.to_string().contains("at least one"));
        assert!(WdmError::TooManyWavelengths { requested: 9 }
            .to_string()
            .contains("9"));
    }
}
