//! Analog noise models (paper §7.2).
//!
//! Photonic computing is analog computing: shot noise at the photodetector,
//! thermal (Johnson) noise in the readout, and quantization error in the
//! converters all perturb results. The paper mitigates these by noise-aware
//! training; this module provides the seeded injection models such a flow
//! needs, plus a composite [`NoiseModel`] the functional simulator can apply
//! to detected outputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A composed additive/relative noise model for detected intensities.
///
/// # Examples
///
/// ```
/// use refocus_photonics::noise::NoiseModel;
///
/// let mut noisy = NoiseModel::new(42).with_relative_sigma(0.01);
/// let clean = vec![1.0; 1000];
/// let out = noisy.apply(&clean);
/// let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
/// assert!((mean - 1.0).abs() < 0.01); // unbiased
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct NoiseModel {
    seed: u64,
    #[serde(skip)]
    rng: Option<StdRng>,
    /// Std-dev of multiplicative Gaussian noise (fraction of signal).
    relative_sigma: f64,
    /// Std-dev of additive Gaussian noise (absolute, detector-referred).
    additive_sigma: f64,
}

impl Clone for NoiseModel {
    /// Cloning restarts the random stream from the seed (the in-flight
    /// generator state is not cloneable), so a clone replays the model's
    /// noise sequence from the beginning.
    ///
    /// **Footgun:** a clone therefore draws the *same* noise values as the
    /// original drew from its own start — two clones perturbing two
    /// signals apply perfectly correlated noise, which silently understates
    /// (or overstates) the combined error. When you need a second,
    /// statistically independent stream, build a model with another seed
    /// instead of cloning.
    fn clone(&self) -> Self {
        Self {
            seed: self.seed,
            rng: None,
            relative_sigma: self.relative_sigma,
            additive_sigma: self.additive_sigma,
        }
    }
}

impl NoiseModel {
    /// Creates a noiseless model with the given seed (noise terms default
    /// to zero; enable them with the builder methods).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: None,
            relative_sigma: 0.0,
            additive_sigma: 0.0,
        }
    }

    /// Enables multiplicative Gaussian noise of the given relative sigma.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_relative_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        self.relative_sigma = sigma;
        self
    }

    /// Enables additive Gaussian noise of the given absolute sigma.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_additive_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        self.additive_sigma = sigma;
        self
    }

    /// Returns `true` if every noise source is disabled.
    pub fn is_noiseless(&self) -> bool {
        self.relative_sigma == 0.0 && self.additive_sigma == 0.0
    }

    /// Draws one standard normal sample (Box–Muller).
    fn standard_normal(&mut self) -> f64 {
        let rng = self
            .rng
            .get_or_insert_with(|| StdRng::seed_from_u64(self.seed));
        let u1: f64 = rng.random::<f64>().max(1e-300);
        let u2: f64 = rng.random::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Perturbs one detected intensity.
    pub fn perturb(&mut self, value: f64) -> f64 {
        if self.is_noiseless() {
            return value;
        }
        let mut v = value;
        if self.relative_sigma > 0.0 {
            v *= 1.0 + self.relative_sigma * self.standard_normal();
        }
        if self.additive_sigma > 0.0 {
            v += self.additive_sigma * self.standard_normal();
        }
        v
    }

    /// Applies the model to a whole detected output vector.
    pub fn apply(&mut self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&v| self.perturb(v)).collect()
    }

    /// Resets the random stream so the same noise sequence replays —
    /// required for noise-aware training reproducibility.
    pub fn reset(&mut self) {
        self.rng = Some(StdRng::seed_from_u64(self.seed));
    }
}

/// Signal-to-noise ratio in dB between a clean and noisy realization.
///
/// # Panics
///
/// Panics if lengths differ or `clean` has zero energy.
pub fn snr_db(clean: &[f64], noisy: &[f64]) -> f64 {
    assert_eq!(clean.len(), noisy.len(), "length mismatch");
    let signal: f64 = clean.iter().map(|v| v * v).sum();
    assert!(signal > 0.0, "clean signal has zero energy");
    let noise: f64 = clean
        .iter()
        .zip(noisy)
        .map(|(c, n)| (c - n) * (c - n))
        .sum();
    if noise == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (signal / noise).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_model_is_identity() {
        let mut m = NoiseModel::new(1);
        assert!(m.is_noiseless());
        assert_eq!(m.perturb(3.25), 3.25);
        assert_eq!(m.apply(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn seeded_noise_is_reproducible() {
        let mut a = NoiseModel::new(99).with_relative_sigma(0.1);
        let mut b = NoiseModel::new(99).with_relative_sigma(0.1);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(a.apply(&x), b.apply(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseModel::new(1).with_relative_sigma(0.1);
        let mut b = NoiseModel::new(2).with_relative_sigma(0.1);
        assert_ne!(a.perturb(1.0), b.perturb(1.0));
    }

    #[test]
    fn reset_replays_sequence() {
        let mut m = NoiseModel::new(7).with_additive_sigma(0.5);
        let first = m.apply(&[1.0, 1.0, 1.0]);
        m.reset();
        let second = m.apply(&[1.0, 1.0, 1.0]);
        assert_eq!(first, second);
    }

    #[test]
    fn relative_noise_statistics() {
        let mut m = NoiseModel::new(3).with_relative_sigma(0.05);
        let clean = vec![2.0; 20_000];
        let noisy = m.apply(&clean);
        let mean: f64 = noisy.iter().sum::<f64>() / noisy.len() as f64;
        let var: f64 =
            noisy.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / noisy.len() as f64;
        assert!((mean - 2.0).abs() < 0.01, "mean = {mean}");
        // Expected std = 0.05 * 2.0 = 0.1 -> var = 0.01.
        assert!((var - 0.01).abs() < 0.002, "var = {var}");
    }

    #[test]
    fn clone_replays_parent_stream() {
        let mut parent = NoiseModel::new(13).with_relative_sigma(0.1);
        let mut clone = parent.clone();
        // The documented (and footgun-prone) behavior: identical draws.
        assert_eq!(parent.perturb(1.0), clone.perturb(1.0));
    }

    #[test]
    fn snr_computation() {
        let clean = vec![1.0, 1.0, 1.0, 1.0];
        let noisy = vec![1.1, 0.9, 1.1, 0.9];
        // signal = 4, noise = 4 * 0.01 = 0.04 -> SNR = 20 dB.
        assert!((snr_db(&clean, &noisy) - 20.0).abs() < 1e-9);
        assert_eq!(snr_db(&clean, &clean), f64::INFINITY);
    }

    #[test]
    fn higher_sigma_lowers_snr() {
        let clean: Vec<f64> = (0..1000).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
        let mut low = NoiseModel::new(11).with_relative_sigma(0.01);
        let mut high = NoiseModel::new(11).with_relative_sigma(0.1);
        let snr_low = snr_db(&clean, &low.apply(&clean));
        let snr_high = snr_db(&clean, &high.apply(&clean));
        assert!(snr_low > snr_high + 10.0);
    }
}
