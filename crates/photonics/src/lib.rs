//! # refocus-photonics
//!
//! Fourier-optics substrate for the ReFOCUS photonic neural-network
//! accelerator simulator (Li et al., MICRO 2023).
//!
//! This crate provides everything below the architecture level:
//!
//! * [`complex`] / [`fft`] / [`signal`] — the math: complex fields,
//!   power-of-two radix-2 FFTs, and reference correlation.
//! * [`components`] — behavioural + cost models of every photonic component
//!   in the paper's Table 6 (MRR, Y-junction, delay line, laser,
//!   photodetector, lens) and the 8-bit data converters.
//! * [`jtc`] — the Joint Transform Correlator field simulation: input plane
//!   → lens → square-law nonlinearity → lens → photodetectors, validated
//!   against direct correlation. Its detector sums passes — temporal
//!   accumulation and WDM channels alike — before one lens-2 transform.
//! * [`buffer`] — the feedback / feedforward optical buffers that let
//!   ReFOCUS reuse light (paper Eq. 2–4, Table 5).
//! * [`dispersion`] — WDM channel walk-off and the `N_λ < 4` rule.
//! * [`noise`] — seeded relative and additive noise injection (§7.2).
//! * [`faults`] — structural device-fault models (stuck MRR taps, dead
//!   detector pixels, laser drift) composing with [`noise`].
//! * [`units`] — physical-unit newtypes (watts, mm², dB, …) used across the
//!   workspace.
//!
//! ## Quick example: an optical convolution
//!
//! ```
//! use refocus_photonics::jtc::Jtc;
//!
//! let jtc = Jtc::ideal();
//! let out = jtc.correlate(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0])?;
//! for (got, want) in out.valid().iter().zip([3.0, 5.0, 7.0]) {
//!     assert!((got - want).abs() < 1e-9);
//! }
//! # Ok::<(), refocus_photonics::jtc::JtcError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod complex;
pub mod components;
pub mod dispersion;
pub mod faults;
pub mod fft;
pub mod jtc;
pub mod noise;
pub mod signal;
pub mod units;

pub use buffer::{FeedbackBuffer, FeedforwardBuffer};
pub use complex::Complex64;
pub use faults::{FaultInjector, FaultSpec};
pub use jtc::{Jtc, JtcError, JtcOutput};
