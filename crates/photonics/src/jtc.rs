//! Joint Transform Correlator (JTC) field simulation.
//!
//! A 1-D on-chip JTC (paper §2.1) computes the correlation of two signals
//! with five photonic stages:
//!
//! 1. a multi-channel input beam carrying the signal `s` displaced to
//!    `+x_s` and the kernel `k` displaced to `-x_k`,
//! 2. a first on-chip lens — Fourier transform,
//! 3. a square-law nonlinearity at the Fourier plane (`|·|²`): a passive
//!    nonlinear material (ITO in its epsilon-near-zero region, graphene,
//!    AlN — refs [4, 6, 26, 41]) whose intensity response draws no
//!    electrical power, the "NG" option of PhotoFourier,
//! 4. a second lens — Fourier transform back,
//! 5. photodetectors reading the output plane.
//!
//! The output plane (paper Eq. 1) contains the two cross-correlation terms
//! at `±(x_s + x_k)` plus a central non-convolution term `N(x)` that is
//! spatially filtered out. This module simulates the full field pipeline
//! with [`Complex64`] arrays and extracts the correlation term, optionally
//! passing inputs/outputs through the 8-bit DAC/ADC models so end-to-end
//! numerics include quantization.
//!
//! # Examples
//!
//! ```
//! use refocus_photonics::jtc::Jtc;
//!
//! let jtc = Jtc::ideal();
//! let signal = [0.1, 0.5, 0.9, 0.3, 0.7];
//! let kernel = [0.2, 0.6, 0.2];
//! let out = jtc.correlate(&signal, &kernel).unwrap();
//! // out.valid() is the CNN-style "valid convolution" (cross-correlation):
//! let want: Vec<f64> = (0..3)
//!     .map(|i| (0..3).map(|j| signal[i + j] * kernel[j]).sum())
//!     .collect();
//! for (a, b) in out.valid().iter().zip(&want) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

use crate::complex::Complex64;
use crate::components::{Adc, Dac};
use crate::fft::{ifft_half_at, ifft_real, ifft_real_at, rfft, rfft_half, rfft_half_origin};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Errors produced when a JTC pass cannot be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JtcError {
    /// One of the inputs was empty.
    EmptyInput,
    /// An input value was negative — a JTC carries optical power, which is
    /// non-negative; negative weights must use pseudo-negative processing
    /// (see `refocus_nn::quant`).
    NegativeValue {
        /// Which input held the offending value.
        which: &'static str,
    },
}

impl fmt::Display for JtcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JtcError::EmptyInput => write!(f, "signal and kernel must be non-empty"),
            JtcError::NegativeValue { which } => {
                write!(
                    f,
                    "{which} contains a negative value; JTC inputs are optical powers"
                )
            }
        }
    }
}

impl std::error::Error for JtcError {}

/// A single 1-D JTC: square-law Fourier plane, auto-sized plane, and
/// either ideal analog I/O or the paper's 8-bit converters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Jtc {
    /// The input DAC and output ADC; `None` for ideal analog I/O.
    converters: Option<(Dac, Adc)>,
}

impl Jtc {
    /// An ideal JTC: no quantization. The baseline for correctness tests.
    pub fn ideal() -> Self {
        Self { converters: None }
    }

    /// A JTC with the paper's 8-bit converters on inputs and outputs.
    pub fn quantized() -> Self {
        Self {
            converters: Some((Dac::new(), Adc::new())),
        }
    }

    /// True if the JTC quantizes its passes. Its converters act on one
    /// pass at a time (the DAC normalizes by the joint peak of signal and
    /// kernel, the ADC by the pass's own full scale), so such a pass cannot
    /// share lens-1 spectra or detector sums with other passes, with or
    /// without a fault model.
    pub fn has_converters(&self) -> bool {
        self.converters.is_some()
    }

    /// Where one pass puts its operands on the input plane: the kernel at
    /// 0, the signal at `sep`, on an `n`-sample plane, the smallest power
    /// of two that keeps every output term separated. Every pass —
    /// [`Jtc::correlate`], [`Jtc::output_plane`] and the spectral path —
    /// takes its layout from here.
    ///
    /// # Errors
    ///
    /// [`JtcError::EmptyInput`] for a zero length.
    pub fn plane_geometry(
        &self,
        signal_len: usize,
        kernel_len: usize,
    ) -> Result<PlaneGeometry, JtcError> {
        if signal_len == 0 || kernel_len == 0 {
            return Err(JtcError::EmptyInput);
        }
        let (ls, lk) = (signal_len, kernel_len);
        // Separation between kernel origin and signal origin. With the
        // kernel at 0 and the signal at `sep`, the cross term sits at lags
        // `sep - (lk-1) ..= sep + (ls-1)` of the output autocorrelation,
        // while the central N(x) term spans `±(max(ls,lk)-1)`. Keeping them
        // disjoint requires sep >= max(ls,lk) + lk - 1; one extra guard
        // sample is added.
        let sep = ls.max(lk) + lk;
        // The autocorrelation is circular with period n; the +sep and -sep
        // terms must not wrap into each other.
        let n = (2 * (sep + ls.max(lk))).next_power_of_two();
        Ok(PlaneGeometry {
            signal_len,
            kernel_len,
            sep,
            n,
        })
    }

    /// Performs one optical pass, correlating `signal` with `kernel`.
    ///
    /// Both inputs must be non-negative (optical powers). The result's
    /// [`JtcOutput::full`] covers every lag of the cross-correlation;
    /// [`JtcOutput::valid`] is the CNN-style valid window.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError`] if an input is empty or negative.
    pub fn correlate(&self, signal: &[f64], kernel: &[f64]) -> Result<JtcOutput, JtcError> {
        let _pass = refocus_obs::span("jtc.correlate");
        refocus_obs::counter("jtc.passes", 1);
        let g = self.checked_geometry(signal, kernel)?;
        let (ls, lk, sep, n) = (signal.len(), kernel.len(), g.sep, g.n);

        // Stage 1: compose the joint input plane, quantizing through the DAC
        // if configured. DACs encode normalized values; normalize by the
        // joint maximum and rescale after readout.
        let peak = signal
            .iter()
            .chain(kernel.iter())
            .fold(0.0_f64, |m, &v| m.max(v));
        let scale = if peak > 0.0 { peak } else { 1.0 };
        let encode = |v: f64| -> f64 {
            match &self.converters {
                Some((dac, _)) => dac.quantize(v / scale) * scale,
                None => v,
            }
        };

        let input_plane = {
            let _s = refocus_obs::span("jtc.compose");
            let mut input_plane = vec![0.0_f64; n];
            for (i, &v) in kernel.iter().enumerate() {
                input_plane[i] = encode(v);
            }
            for (i, &v) in signal.iter().enumerate() {
                input_plane[sep + i] = encode(v);
            }
            input_plane
        };

        // Stage 2: first lens. The input plane carries optical power — a
        // real field — so the half-length real-input transform applies.
        let spectrum = {
            let _s = refocus_obs::span("jtc.lens1.fft");
            rfft(&input_plane)
        };
        // Stage 3: Fourier-plane square law. Its output is an intensity,
        // i.e. real (phase discarded), which makes the second lens
        // real-input too.
        let intensity: Vec<f64> = {
            let _s = refocus_obs::span("jtc.square_law");
            spectrum.iter().map(|v| v.norm_sqr()).collect()
        };
        // Stage 4: second lens. The inverse orientation recovers the
        // autocorrelation theorem directly: IFFT(|FFT(f)|^2) = autocorr(f).
        // Only the output-plane samples the detectors read are formed.
        let lags = -(lk as isize - 1)..ls as isize;
        let plane = {
            let _s = refocus_obs::span("jtc.lens2.ifft");
            ifft_real_at(&intensity, g.cross_term_samples(lags))
        };

        // Stage 5: photodetector readout of the cross term at +sep.
        // For non-negative inputs the term is real and non-negative;
        // detection reads its magnitude.
        let _s = refocus_obs::span("jtc.readout");
        let mut full = detect(&plane);

        // ADC quantization against the observed full-scale.
        if let Some((_, adc)) = &self.converters {
            let fs = full.iter().fold(0.0_f64, |m, &v| m.max(v));
            if fs > 0.0 {
                for v in full.iter_mut() {
                    *v = adc.reconstruct(adc.sample(*v, fs), fs);
                }
            }
        }

        Ok(JtcOutput {
            full,
            kernel_len: lk,
            signal_len: ls,
            plane_size: n,
        })
    }

    /// The plane geometry of one pass, after checking both operands are
    /// non-empty optical powers.
    fn checked_geometry(&self, signal: &[f64], kernel: &[f64]) -> Result<PlaneGeometry, JtcError> {
        if signal.is_empty() || kernel.is_empty() {
            return Err(JtcError::EmptyInput);
        }
        check_power("signal", signal)?;
        check_power("kernel", kernel)?;
        self.plane_geometry(signal.len(), kernel.len())
    }

    /// Lens 1 applied to the signal alone, placed at `geometry.sep` where
    /// [`Jtc::correlate`] puts it. Lens 1 is linear, so the spectrum of a
    /// composed plane is the signal spectrum plus the kernel spectrum: one
    /// signal spectrum serves every kernel it meets on this geometry.
    ///
    /// # Errors
    ///
    /// [`JtcError::NegativeValue`] if a sample is negative.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not `geometry.signal_len` samples long.
    pub fn signal_spectrum(
        &self,
        geometry: PlaneGeometry,
        signal: &[f64],
    ) -> Result<Spectrum, JtcError> {
        geometry.spectrum("signal", geometry.sep, geometry.signal_len, signal)
    }

    /// Lens 1 applied to the kernel alone, placed at 0 where
    /// [`Jtc::correlate`] puts it. Depends only on the kernel and the plane
    /// size, so one kernel spectrum serves every signal tile of that size.
    ///
    /// # Errors
    ///
    /// [`JtcError::NegativeValue`] if a sample is negative.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is not `geometry.kernel_len` samples long.
    pub fn kernel_spectrum(
        &self,
        geometry: PlaneGeometry,
        kernel: &[f64],
    ) -> Result<Spectrum, JtcError> {
        geometry.spectrum("kernel", 0, geometry.kernel_len, kernel)
    }

    /// A photodetector that sums many passes on `geometry` and runs lens 2
    /// once for the sum (see [`DetectorSum`]).
    pub fn detector(&self, geometry: PlaneGeometry) -> DetectorSum {
        DetectorSum {
            geometry,
            intensity: vec![0.0; geometry.n / 2 + 1],
        }
    }

    /// Performs one optical pass under a device-fault model.
    ///
    /// Applies, in physical order: stuck MRR weight-bank taps to the
    /// kernel, the laser power drift factor for this pass to both
    /// correlands (the bilinear output therefore moves by the factor
    /// squared), the regular optical pipeline, and dead-photodetector-pixel
    /// masking of the detected lags. With a transparent injector this is
    /// exactly [`Jtc::correlate`].
    ///
    /// This is the per-pass reference. Every fault here is fixed per
    /// kernel operand (stuck taps), a scale of the whole field (drift) or
    /// linear in the readout (dead pixels), so a layer without converters
    /// can run it on shared spectra and detector sums instead
    /// ([`DetectorSum`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Jtc::correlate`].
    pub fn correlate_with_faults(
        &self,
        signal: &[f64],
        kernel: &[f64],
        injector: &mut crate::faults::FaultInjector,
    ) -> Result<JtcOutput, JtcError> {
        if injector.is_transparent() {
            return self.correlate(signal, kernel);
        }
        let mut kernel = kernel.to_vec();
        injector.corrupt_kernel(&mut kernel);
        let drift = injector.laser_drift_step();
        let signal: Vec<f64> = signal.iter().map(|v| v * drift).collect();
        for tap in kernel.iter_mut() {
            *tap *= drift;
        }
        let mut out = self.correlate(&signal, &kernel)?;
        injector.mask_dead_pixels(0, &mut out.full);
        Ok(out)
    }

    /// Returns the detected intensity over the **entire** output plane —
    /// central `N(x)` term, both cross terms, and the guard gaps — for
    /// inspection/visualization of the JTC's term geometry (Eq. 1). Also
    /// returns the separation offset at which the `+` cross term is
    /// centred.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Jtc::correlate`].
    pub fn output_plane(
        &self,
        signal: &[f64],
        kernel: &[f64],
    ) -> Result<(Vec<f64>, usize), JtcError> {
        let g = self.checked_geometry(signal, kernel)?;
        let intensity: Vec<f64> = rfft(&g.compose(signal, kernel))
            .iter()
            .map(|v| v.norm_sqr())
            .collect();
        let plane = ifft_real(&intensity);
        Ok((plane.into_iter().map(|v| v.re.max(0.0)).collect(), g.sep))
    }
}

/// Rejects negative samples: a JTC operand is an optical power.
fn check_power(which: &'static str, values: &[f64]) -> Result<(), JtcError> {
    if values.iter().any(|&v| v < 0.0) {
        return Err(JtcError::NegativeValue { which });
    }
    Ok(())
}

/// The input-plane layout of one pass (see [`Jtc::plane_geometry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlaneGeometry {
    signal_len: usize,
    kernel_len: usize,
    sep: usize,
    n: usize,
}

impl PlaneGeometry {
    /// Samples on the plane.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The joint input plane: kernel at 0, signal at `sep`.
    fn compose(&self, signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        let mut plane = vec![0.0_f64; self.n];
        plane[..kernel.len()].copy_from_slice(kernel);
        plane[self.sep..self.sep + signal.len()].copy_from_slice(signal);
        plane
    }

    /// Lens-1 spectrum of one operand of `len` samples placed at `origin`.
    fn spectrum(
        &self,
        which: &'static str,
        origin: usize,
        len: usize,
        values: &[f64],
    ) -> Result<Spectrum, JtcError> {
        assert_eq!(
            values.len(),
            len,
            "{which} length differs from its plane geometry"
        );
        check_power(which, values)?;
        // A real field's spectrum is Hermitian: bins above n/2 are the
        // conjugates of those below and add nothing.
        let bins = if origin == 0 {
            rfft_half_origin(values, self.n)
        } else {
            let mut plane = vec![0.0_f64; self.n];
            plane[origin..origin + len].copy_from_slice(values);
            rfft_half(&plane)
        };
        Ok(Spectrum { origin, len, bins })
    }

    /// Lens 2 over a Fourier-plane intensity given as bins `0..=n/2` (the
    /// rest mirror them), then readout of the valid window.
    fn lens2_valid(&self, half: &[f64]) -> Vec<f64> {
        detect(&ifft_half_at(
            half,
            self.cross_term_samples(self.valid_lags()),
        ))
    }

    /// The lags of the valid window, `0 ..= S-K`.
    fn valid_lags(&self) -> Range<isize> {
        0..self.signal_len as isize - self.kernel_len as isize + 1
    }

    /// The output-plane samples of the `+sep` cross term at `lags`, wrapped
    /// onto the circular plane. `n` is a power of two, so masking the
    /// two's-complement index with `n - 1` is `rem_euclid(n)` without a
    /// division, negative indices included.
    fn cross_term_samples(&self, lags: Range<isize>) -> impl Iterator<Item = usize> {
        let (sep, mask) = (self.sep as isize, self.n - 1);
        lags.map(move |lag| (sep + lag) as usize & mask)
    }
}

/// Photodetector readout of output-plane samples, clipped at zero
/// (detection reads magnitude).
fn detect(samples: &[Complex64]) -> Vec<f64> {
    samples.iter().map(|v| v.re.max(0.0)).collect()
}

/// The lens-1 spectrum of one operand on its own (bins `0..=n/2`; the
/// rest are their conjugates). See [`Jtc::signal_spectrum`].
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    origin: usize,
    len: usize,
    bins: Vec<Complex64>,
}

/// Detector-side accumulation of passes that share one plane geometry
/// (temporal accumulation §4.1.4, WDM summing §4.2); reads the sum of the
/// passes' valid windows as [`Jtc::correlate`] would detect them one by
/// one.
///
/// Under the square law each pass's cross term is a correlation of
/// non-negative operands, so it is non-negative and the readout's clip at
/// zero commutes with the sum. Lens 2 is linear, so the detector sums the
/// passes' Fourier-plane intensities and transforms once.
#[derive(Debug, Clone)]
pub struct DetectorSum {
    geometry: PlaneGeometry,
    /// Summed Fourier-plane intensity, bins `0..=n/2`.
    intensity: Vec<f64>,
}

impl DetectorSum {
    /// Adds one pass: `signal` at `sep` and `kernel` at 0 on this
    /// detector's geometry, with the whole input field scaled by
    /// `field_scale` before the square law (a laser-power factor, e.g.
    /// [`FaultInjector::laser_drift_step`](crate::faults::FaultInjector::laser_drift_step);
    /// lens 1 is linear, so scaling the plane scales its spectrum). A
    /// clean pass uses 1.0, which leaves it unscaled.
    ///
    /// # Panics
    ///
    /// Panics if either spectrum was computed for another geometry.
    pub fn add(&mut self, signal: &Spectrum, kernel: &Spectrum, field_scale: f64) {
        self.check(signal, kernel);
        let fields = signal.bins.iter().zip(&kernel.bins).map(|(&s, &k)| s + k);
        // Scaling by 1.0 is exact but not free in this inner loop, so a
        // clean pass skips it.
        if field_scale == 1.0 {
            self.accumulate(fields.map(|f| f.norm_sqr()));
        } else {
            self.accumulate(fields.map(|f| (f * field_scale).norm_sqr()));
        }
    }

    /// Adds one pass to each detector of a pair that reads the same signal
    /// light, such as a filter's positive and negative pseudo-negative
    /// halves: `signal` meets `kernels[h]` on `pair[h]` with field scale
    /// `field_scales[h]`. One walk over the signal spectrum feeds both, and
    /// each detector takes exactly the additions of
    /// `pair[h].add(signal, kernels[h], field_scales[h])`.
    ///
    /// # Panics
    ///
    /// Panics if a spectrum was computed for another geometry than its
    /// detector's.
    pub fn add_pair(
        pair: &mut [DetectorSum; 2],
        signal: &Spectrum,
        kernels: [&Spectrum; 2],
        field_scales: [f64; 2],
    ) {
        let [a, b] = pair;
        a.check(signal, kernels[0]);
        b.check(signal, kernels[1]);
        let accs = [&mut a.intensity[..], &mut b.intensity[..]];
        let kernels = kernels.map(|k| &k.bins[..]);
        let plain = |f: Complex64| f.norm_sqr();
        let scaled = |scale: f64| move |f: Complex64| (f * scale).norm_sqr();
        // As in `add`, an unscaled half skips the multiply.
        match field_scales.map(|scale| scale == 1.0) {
            [true, true] => accumulate_pair(accs, &signal.bins, kernels, plain, plain),
            [true, false] => {
                accumulate_pair(accs, &signal.bins, kernels, plain, scaled(field_scales[1]));
            }
            [false, true] => {
                accumulate_pair(accs, &signal.bins, kernels, scaled(field_scales[0]), plain);
            }
            [false, false] => accumulate_pair(
                accs,
                &signal.bins,
                kernels,
                scaled(field_scales[0]),
                scaled(field_scales[1]),
            ),
        }
    }

    /// Asserts that `signal` and `kernel` were computed for this
    /// detector's geometry.
    fn check(&self, signal: &Spectrum, kernel: &Spectrum) {
        let g = &self.geometry;
        let bins = g.n / 2 + 1;
        assert!(
            signal.origin == g.sep
                && signal.len == g.signal_len
                && kernel.origin == 0
                && kernel.len == g.kernel_len
                && signal.bins.len() == bins
                && kernel.bins.len() == bins,
            "spectra computed for another plane geometry"
        );
    }

    /// Adds one pass's Fourier-plane intensity, bins `0..=n/2`.
    fn accumulate(&mut self, pass: impl Iterator<Item = f64>) {
        for (acc, v) in self.intensity.iter_mut().zip(pass) {
            *acc += v;
        }
    }

    /// The summed valid window (lags `0 ..= S-K`), as [`JtcOutput::valid`]
    /// reads one pass.
    pub fn read_valid(&self) -> Vec<f64> {
        self.geometry.lens2_valid(&self.intensity)
    }
}

/// Adds the intensities `a(s + k_a)` and `b(s + k_b)` of each bin to the
/// two accumulators, reading each signal bin once.
fn accumulate_pair(
    [acc_a, acc_b]: [&mut [f64]; 2],
    signal: &[Complex64],
    [kernel_a, kernel_b]: [&[Complex64]; 2],
    a: impl Fn(Complex64) -> f64,
    b: impl Fn(Complex64) -> f64,
) {
    let accs = acc_a.iter_mut().zip(acc_b.iter_mut());
    let kernels = kernel_a.iter().zip(kernel_b);
    for (((sum_a, sum_b), &s), (&ka, &kb)) in accs.zip(signal).zip(kernels) {
        *sum_a += a(s + ka);
        *sum_b += b(s + kb);
    }
}

/// The detected output of one JTC pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JtcOutput {
    full: Vec<f64>,
    kernel_len: usize,
    signal_len: usize,
    plane_size: usize,
}

impl JtcOutput {
    /// The full cross-correlation, lags `-(K-1) ..= S-1` (length `S+K-1`).
    pub fn full(&self) -> &[f64] {
        &self.full
    }

    /// The "valid" window — lags `0 ..= S-K` — which is exactly a CNN's
    /// valid cross-correlation of the signal with the kernel; empty when
    /// the kernel is longer than the signal.
    ///
    /// The lags outside this window are the circular-padding artifacts the
    /// paper discards as invalid output rows (§2.2).
    pub fn valid(&self) -> &[f64] {
        let start = self.kernel_len - 1;
        let len = (self.signal_len + 1).saturating_sub(self.kernel_len);
        &self.full[start..start + len]
    }

    /// Number of spatial samples the simulated plane used.
    pub fn plane_size(&self) -> usize {
        self.plane_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::oracle;
    use crate::signal::{correlate, correlate_valid, max_abs_diff};

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        // Simple deterministic LCG in [0, 1); no RNG dependency needed here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn ideal_jtc_matches_direct_correlation() {
        let jtc = Jtc::ideal();
        for (ls, lk, seed) in [(8usize, 3usize, 1u64), (16, 5, 2), (33, 7, 3), (64, 25, 4)] {
            let s = pseudo_random(ls, seed);
            let k = pseudo_random(lk, seed + 100);
            let out = jtc.correlate(&s, &k).unwrap();
            let want = correlate(&s, &k);
            assert_eq!(out.full().len(), want.len());
            assert!(
                max_abs_diff(out.full(), &want) < 1e-8,
                "ls={ls} lk={lk}: diff {}",
                max_abs_diff(out.full(), &want)
            );
        }
    }

    #[test]
    fn valid_window_matches_cnn_convolution() {
        let jtc = Jtc::ideal();
        let s = pseudo_random(20, 7);
        let k = pseudo_random(3, 8);
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate_valid(&s, &k);
        assert_eq!(out.valid().len(), want.len());
        assert!(max_abs_diff(out.valid(), &want) < 1e-9);
    }

    #[test]
    fn valid_window_is_empty_for_a_kernel_longer_than_the_signal() {
        let out = Jtc::ideal().correlate(&[1.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.full().len(), 3);
        assert!(out.valid().is_empty());
        // One sample short of a full overlap: still empty; a full overlap
        // is one sample.
        let out = Jtc::ideal()
            .correlate(&[1.0, 1.0], &[1.0, 2.0, 3.0])
            .unwrap();
        assert!(out.valid().is_empty());
        let out = Jtc::ideal()
            .correlate(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0])
            .unwrap();
        assert_eq!(out.valid().len(), 1);
        assert!((out.valid()[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantized_jtc_within_lsb_error() {
        let jtc = Jtc::quantized();
        let s = pseudo_random(16, 11);
        let k = pseudo_random(3, 12);
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate(&s, &k);
        let peak = want.iter().fold(0.0_f64, |m, &v| m.max(v));
        // 8-bit DAC on both inputs plus 8-bit ADC: error stays within a few
        // percent of full scale.
        let err = max_abs_diff(out.full(), &want);
        assert!(err < 0.05 * peak, "err = {err}, peak = {peak}");
    }

    #[test]
    fn rejects_negative_inputs() {
        let jtc = Jtc::ideal();
        assert_eq!(
            jtc.correlate(&[1.0, -0.5], &[1.0]),
            Err(JtcError::NegativeValue { which: "signal" })
        );
        assert_eq!(
            jtc.correlate(&[1.0], &[-1.0]),
            Err(JtcError::NegativeValue { which: "kernel" })
        );
    }

    #[test]
    fn rejects_empty_inputs() {
        let jtc = Jtc::ideal();
        assert_eq!(jtc.correlate(&[], &[1.0]), Err(JtcError::EmptyInput));
        assert_eq!(jtc.correlate(&[1.0], &[]), Err(JtcError::EmptyInput));
    }

    #[test]
    fn plane_geometry_is_the_plane_correlate_uses() {
        let jtc = Jtc::ideal();
        for (ls, lk) in [(8usize, 3usize), (3, 8), (64, 25), (1, 1)] {
            let g = jtc.plane_geometry(ls, lk).unwrap();
            let (s, k) = (pseudo_random(ls, 3), pseudo_random(lk, 4));
            assert_eq!(jtc.correlate(&s, &k).unwrap().plane_size(), g.n);
            let (plane, sep) = jtc.output_plane(&s, &k).unwrap();
            assert_eq!((plane.len(), sep), (g.n, g.sep));
            assert!(g.sep >= ls.max(lk) + lk - 1 && 2 * (g.sep + ls.max(lk)) <= g.n);
        }
        assert_eq!(jtc.plane_geometry(0, 3), Err(JtcError::EmptyInput));
    }

    #[test]
    fn detector_sum_matches_summed_correlate_passes() {
        // The detector sums intensities before one lens-2 transform; it
        // must equal the per-pass readouts added up. A field scale is the
        // per-pass path's laser drift: both operands scaled.
        let jtc = Jtc::ideal();
        let g = jtc.plane_geometry(40, 7).unwrap();
        let mut detector = jtc.detector(g);
        let mut want = vec![0.0; 34];
        for (seed, scale) in [(0, 1.0), (1, 1.03), (2, 0.96)] {
            let s = pseudo_random(40, 60 + seed);
            let k = pseudo_random(7, 70 + seed);
            detector.add(
                &jtc.signal_spectrum(g, &s).unwrap(),
                &jtc.kernel_spectrum(g, &k).unwrap(),
                scale,
            );
            let scaled = |v: &[f64]| v.iter().map(|x| x * scale).collect::<Vec<_>>();
            let pass = jtc.correlate(&scaled(&s), &scaled(&k)).unwrap();
            for (w, v) in want.iter_mut().zip(pass.valid()) {
                *w += v;
            }
        }
        let got = detector.read_valid();
        let peak = want.iter().fold(0.0_f64, |m, &v| m.max(v));
        assert!(max_abs_diff(&got, &want) < 1e-12 * peak);
    }

    #[test]
    fn spectra_reject_negative_operands() {
        let jtc = Jtc::ideal();
        let g = jtc.plane_geometry(4, 2).unwrap();
        assert_eq!(
            jtc.signal_spectrum(g, &[1.0, -1.0, 0.0, 0.0]),
            Err(JtcError::NegativeValue { which: "signal" })
        );
        assert_eq!(
            jtc.kernel_spectrum(g, &[-1.0, 0.0]),
            Err(JtcError::NegativeValue { which: "kernel" })
        );
    }

    #[test]
    fn kernel_longer_than_signal_still_works() {
        let jtc = Jtc::ideal();
        let s = pseudo_random(3, 9);
        let k = pseudo_random(8, 10);
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate(&s, &k);
        assert!(max_abs_diff(out.full(), &want) < 1e-9);
    }

    #[test]
    fn delta_kernel_is_identity() {
        let jtc = Jtc::ideal();
        let s = pseudo_random(10, 21);
        let out = jtc.correlate(&s, &[1.0]).unwrap();
        assert!(max_abs_diff(out.valid(), &s) < 1e-9);
    }

    #[test]
    fn output_scales_quadratically_with_input_scale() {
        // Both correlands scale together => output scales as the product.
        let jtc = Jtc::ideal();
        let s = pseudo_random(10, 31);
        let k = pseudo_random(3, 32);
        let s2: Vec<f64> = s.iter().map(|v| v * 2.0).collect();
        let k2: Vec<f64> = k.iter().map(|v| v * 2.0).collect();
        let a = jtc.correlate(&s, &k).unwrap();
        let b = jtc.correlate(&s2, &k2).unwrap();
        for (x, y) in a.full().iter().zip(b.full()) {
            assert!((y - 4.0 * x).abs() < 1e-8);
        }
    }

    #[test]
    fn transparent_injector_reproduces_correlate() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(16, 41);
        let k = pseudo_random(3, 42);
        let mut inj = FaultInjector::new(FaultSpec::none(), 1);
        let clean = jtc.correlate(&s, &k).unwrap();
        let faulted = jtc.correlate_with_faults(&s, &k, &mut inj).unwrap();
        assert_eq!(clean, faulted);
        assert_eq!(inj.passes(), 0, "transparent path must not consume state");
    }

    #[test]
    fn dead_pixels_zero_detected_lags() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(16, 43);
        let k = pseudo_random(3, 44);
        let mut inj = FaultInjector::new(FaultSpec::none().with_dead_pixel_rate(0.3), 5);
        let clean = jtc.correlate(&s, &k).unwrap();
        let faulted = jtc.correlate_with_faults(&s, &k, &mut inj).unwrap();
        let mut dead = 0;
        for (i, (f, c)) in faulted.full().iter().zip(clean.full()).enumerate() {
            if inj.pixel_is_dead(i) {
                assert_eq!(*f, 0.0);
                dead += 1;
            } else {
                assert!((f - c).abs() < 1e-12);
            }
        }
        assert!(dead > 0, "seed killed no pixels at rate 0.3");
    }

    #[test]
    fn laser_drift_scales_output_quadratically() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(12, 45);
        let k = pseudo_random(3, 46);
        // Single pass: the drift walk takes exactly one step.
        let mut inj = FaultInjector::new(FaultSpec::none().with_laser_drift(0.05, 0.2), 7);
        let faulted = jtc.correlate_with_faults(&s, &k, &mut inj).unwrap();
        let mut probe = FaultInjector::new(FaultSpec::none().with_laser_drift(0.05, 0.2), 7);
        let d = probe.laser_drift_step();
        let clean = jtc.correlate(&s, &k).unwrap();
        for (f, c) in faulted.full().iter().zip(clean.full()) {
            assert!((f - c * d * d).abs() < 1e-9, "expected d² scaling");
        }
    }

    #[test]
    fn faulted_correlate_is_deterministic_per_seed() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(16, 47);
        let k = pseudo_random(4, 48);
        let spec = FaultSpec::none()
            .with_stuck_weights(0.3, 0.5)
            .with_dead_pixel_rate(0.1)
            .with_laser_drift(0.01, 0.1);
        let mut a = FaultInjector::new(spec, 99);
        let mut b = FaultInjector::new(spec, 99);
        let out_a = jtc.correlate_with_faults(&s, &k, &mut a).unwrap();
        let out_b = jtc.correlate_with_faults(&s, &k, &mut b).unwrap();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn error_display_messages() {
        assert!(JtcError::EmptyInput.to_string().contains("non-empty"));
        assert!(JtcError::NegativeValue { which: "signal" }
            .to_string()
            .contains("negative"));
    }

    /// Operand pairs the oracle tests run: random powers of several
    /// shapes (kernel shorter, equal, longer; one tap), and operands
    /// holding signed zeros and subnormals.
    fn operand_pairs() -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut pairs: Vec<(Vec<f64>, Vec<f64>)> =
            [(1, 1), (5, 3), (40, 7), (3, 8), (10, 1), (256, 25)]
                .into_iter()
                .enumerate()
                .map(|(i, (ls, lk))| {
                    let i = i as u64;
                    (pseudo_random(ls, 80 + i), pseudo_random(lk, 90 + i))
                })
                .collect();
        let odd = [-0.0, 5e-324, 0.0, f64::MIN_POSITIVE / 2.0, 0.75, -0.0, 1.0];
        pairs.push((
            odd.iter().cycle().take(30).copied().collect(),
            odd[..5].to_vec(),
        ));
        pairs
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: lag {i}: {a} vs oracle {b}"
            );
        }
    }

    /// The oracle's lens-1 bins `0..=n/2` of one operand at `origin`.
    fn oracle_bins(g: PlaneGeometry, origin: usize, values: &[f64]) -> Vec<Complex64> {
        let mut plane = vec![0.0; g.n];
        plane[origin..origin + values.len()].copy_from_slice(values);
        let mut bins = oracle::rfft(&plane);
        bins.truncate(g.n / 2 + 1);
        bins
    }

    #[test]
    fn correlate_matches_the_oracle_bit_for_bit() {
        for jtc in [Jtc::ideal(), Jtc::quantized()] {
            for (signal, kernel) in operand_pairs() {
                let (ls, lk) = (signal.len(), kernel.len());
                let g = jtc.plane_geometry(ls, lk).unwrap();
                // The pass as `correlate` composed it, on the oracle's
                // transforms and readout.
                let peak = signal.iter().chain(&kernel).fold(0.0_f64, |m, &v| m.max(v));
                let scale = if peak > 0.0 { peak } else { 1.0 };
                let encode = |v: f64| match &jtc.converters {
                    Some((dac, _)) => dac.quantize(v / scale) * scale,
                    None => v,
                };
                let encoded = |v: &[f64]| v.iter().map(|&x| encode(x)).collect::<Vec<_>>();
                let input_plane = g.compose(&encoded(&signal), &encoded(&kernel));
                let intensity: Vec<f64> = oracle::rfft(&input_plane)
                    .iter()
                    .map(|v| v.norm_sqr())
                    .collect();
                let plane = oracle::ifft_real(&intensity);
                let lags = -(lk as isize - 1)..ls as isize;
                let mut want = oracle::read_cross_term(&plane, g.sep, g.n, lags);
                if let Some((_, adc)) = &jtc.converters {
                    let fs = want.iter().fold(0.0_f64, |m, &v| m.max(v));
                    if fs > 0.0 {
                        for v in want.iter_mut() {
                            *v = adc.reconstruct(adc.sample(*v, fs), fs);
                        }
                    }
                }
                let got = jtc.correlate(&signal, &kernel).unwrap();
                let what = format!("quantized={} S={ls} K={lk}", jtc.has_converters());
                assert_same_bits(got.full(), &want, &what);
            }
        }
    }

    #[test]
    fn detector_read_matches_the_oracle_bit_for_bit() {
        let jtc = Jtc::ideal();
        for (signal, kernel) in operand_pairs() {
            let (ls, lk) = (signal.len(), kernel.len());
            if lk > ls {
                continue;
            }
            let g = jtc.plane_geometry(ls, lk).unwrap();
            let mut detector = jtc.detector(g);
            let mut want = vec![0.0; g.n / 2 + 1];
            for (pass, field_scale) in [1.0, 1.03, 0.96].into_iter().enumerate() {
                let seed = 100 + pass as u64;
                let s: Vec<f64> = signal
                    .iter()
                    .zip(pseudo_random(ls, seed))
                    .map(|(a, b)| a * b)
                    .collect();
                let k: Vec<f64> = kernel
                    .iter()
                    .zip(pseudo_random(lk, seed + 50))
                    .map(|(a, b)| a * b)
                    .collect();
                let (s_bins, k_bins) = (oracle_bins(g, g.sep, &s), oracle_bins(g, 0, &k));
                let signal_spectrum = jtc.signal_spectrum(g, &s).unwrap();
                let kernel_spectrum = jtc.kernel_spectrum(g, &k).unwrap();
                for (got, want) in [(&signal_spectrum, &s_bins), (&kernel_spectrum, &k_bins)] {
                    let bits = |b: &[Complex64]| {
                        b.iter()
                            .map(|v| (v.re.to_bits(), v.im.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&got.bins), bits(want), "S={ls} K={lk} lens-1 bins");
                }
                detector.add(&signal_spectrum, &kernel_spectrum, field_scale);
                for (acc, (&sb, &kb)) in want.iter_mut().zip(s_bins.iter().zip(&k_bins)) {
                    let field = sb + kb;
                    *acc += if field_scale == 1.0 {
                        field.norm_sqr()
                    } else {
                        (field * field_scale).norm_sqr()
                    };
                }
            }
            let n = g.n;
            let mirrored: Vec<f64> = (0..n).map(|k| want[k.min(n - k)]).collect();
            let plane = oracle::ifft_real(&mirrored);
            let want = oracle::read_cross_term(&plane, g.sep, n, g.valid_lags());
            assert_same_bits(&detector.read_valid(), &want, &format!("S={ls} K={lk}"));
        }
    }

    /// One pair add takes, per detector, exactly the additions of one
    /// `add`, for every combination of unit and non-unit field scales.
    #[test]
    fn detector_pair_add_matches_two_adds_bit_for_bit() {
        let jtc = Jtc::ideal();
        let bits = |d: &DetectorSum| d.intensity.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (signal, kernel) in operand_pairs() {
            let (ls, lk) = (signal.len(), kernel.len());
            let g = jtc.plane_geometry(ls, lk).unwrap();
            let negative: Vec<f64> = kernel.iter().rev().map(|v| v * 0.5).collect();
            let kernels = [&kernel, &negative].map(|k| jtc.kernel_spectrum(g, k).unwrap());
            let signal = jtc.signal_spectrum(g, &signal).unwrap();
            for s in [1.03, 0.96] {
                for field_scales in [[1.0, 1.0], [1.0, s], [s, 1.0], [s, s]] {
                    let mut pair = [jtc.detector(g), jtc.detector(g)];
                    let mut singles = pair.clone();
                    // Three passes, so each accumulator adds onto a sum.
                    for _ in 0..3 {
                        DetectorSum::add_pair(
                            &mut pair,
                            &signal,
                            [&kernels[0], &kernels[1]],
                            field_scales,
                        );
                        for ((single, kernel), scale) in
                            singles.iter_mut().zip(&kernels).zip(field_scales)
                        {
                            single.add(&signal, kernel, scale);
                        }
                    }
                    for (got, want) in pair.iter().zip(&singles) {
                        assert_eq!(bits(got), bits(want), "S={ls} K={lk} {field_scales:?}");
                    }
                }
            }
        }
    }

    /// The masked readout index is `rem_euclid` at every power-of-two
    /// plane, for every lag a pass reads, where `sep + lag` wraps below
    /// zero and past `n`.
    #[test]
    fn cross_term_samples_match_rem_euclid() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            for sep in [0, 1, n / 2, n - 1, n, 3 * n + 1] {
                for (ls, lk) in [(1, 1), (n, 1), (n + 3, n + 2), (3, 2 * n + 1)] {
                    let g = PlaneGeometry {
                        signal_len: ls,
                        kernel_len: lk,
                        sep,
                        n,
                    };
                    let lags = -(lk as isize - 1)..ls as isize;
                    let want = lags
                        .clone()
                        .map(|lag| (sep as isize + lag).rem_euclid(n as isize) as usize);
                    assert!(
                        g.cross_term_samples(lags).eq(want),
                        "n={n} sep={sep} S={ls} K={lk}"
                    );
                }
            }
        }
    }
}
