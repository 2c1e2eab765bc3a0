//! Device-fault models for the photonic datapath.
//!
//! The paper's noise treatment (§7.2) assumes every device works; real
//! photonic accelerators also suffer *structural* imperfections that a
//! well-behaved Gaussian cannot represent: MRR weight taps stuck by
//! trimming errors, dead photodetector pixels and slow laser power
//! drift. This module defines a declarative [`FaultSpec`] for those
//! mechanisms and a seeded [`FaultInjector`] that applies them
//! deterministically to the functional JTC path.
//!
//! Design principles:
//!
//! * **Determinism** — every fault decision derives from the injector
//!   seed by counter-based hashing, never from shared mutable RNG
//!   state, so the same seed always produces the same fault pattern
//!   regardless of call interleaving.
//! * **Monotonic severity** — [`FaultSpec::scaled`] scales rates and
//!   sigmas by a severity factor. Because fault *sites* are chosen by
//!   thresholding a per-site hash (`hash(site) < rate`), the fault set
//!   at a higher rate is a superset of the set at a lower rate, and
//!   continuous perturbations scale linearly; output error therefore
//!   grows monotonically with severity — the property the fault
//!   campaign asserts.
//! * **Composability** — an injector can carry a [`NoiseModel`], so
//!   analog noise and structural faults are applied in one pass.
//!
//! # Examples
//!
//! ```
//! use refocus_photonics::faults::{FaultInjector, FaultSpec};
//! use refocus_photonics::jtc::Jtc;
//!
//! let spec = FaultSpec::none().with_dead_pixel_rate(0.2);
//! let mut inj = FaultInjector::new(spec, 7);
//! let jtc = Jtc::ideal();
//! let clean = jtc.correlate(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0]).unwrap();
//! let faulty = jtc
//!     .correlate_with_faults(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0], &mut inj)
//!     .unwrap();
//! // Some detector pixels read zero; the rest are untouched.
//! assert!(faulty
//!     .full()
//!     .iter()
//!     .zip(clean.full())
//!     .all(|(f, c)| *f == 0.0 || (f - c).abs() < 1e-12));
//! ```

use crate::noise::NoiseModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors validating a fault specification.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpecError {
    /// A rate/probability parameter was outside `[0, 1]`.
    RateOutOfRange {
        /// Which parameter.
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A sigma/severity parameter was negative or non-finite.
    InvalidSigma {
        /// Which parameter.
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::RateOutOfRange { parameter, value } => {
                write!(f, "{parameter} must be in [0, 1], got {value}")
            }
            FaultSpecError::InvalidSigma { parameter, value } => {
                write!(
                    f,
                    "{parameter} must be finite and non-negative, got {value}"
                )
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Declarative description of which device faults are present and how
/// severe they are. All fields default to zero (fault-free).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Fraction of MRR weight-bank taps stuck at a fixed level
    /// (trimming/aging failures).
    pub stuck_weight_rate: f64,
    /// The level stuck taps are frozen at, as a fraction of the
    /// kernel's maximum tap (0 models *dead* taps).
    pub stuck_weight_level: f64,
    /// Fraction of photodetector pixels that read zero.
    pub dead_pixel_rate: f64,
    /// Per-pass relative step of the laser power random walk.
    pub laser_drift_sigma: f64,
    /// Clamp on the cumulative relative laser drift (e.g. `0.1` bounds
    /// the excursion to ±10 %); models the laser's power-control loop.
    pub laser_drift_limit: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSpec {
    /// A fault-free specification.
    pub const fn none() -> Self {
        FaultSpec {
            stuck_weight_rate: 0.0,
            stuck_weight_level: 0.0,
            dead_pixel_rate: 0.0,
            laser_drift_sigma: 0.0,
            laser_drift_limit: 0.0,
        }
    }

    /// Sets the stuck-tap rate.
    pub fn with_stuck_weights(mut self, rate: f64, level: f64) -> Self {
        self.stuck_weight_rate = rate;
        self.stuck_weight_level = level;
        self
    }

    /// Sets the dead-pixel rate.
    pub fn with_dead_pixel_rate(mut self, rate: f64) -> Self {
        self.dead_pixel_rate = rate;
        self
    }

    /// Sets the laser power drift random walk: per-pass `sigma`, total
    /// excursion clamped to ±`limit`.
    pub fn with_laser_drift(mut self, sigma: f64, limit: f64) -> Self {
        self.laser_drift_sigma = sigma;
        self.laser_drift_limit = limit;
        self
    }

    /// Checks every parameter is in its legal range.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        let rates = [
            ("stuck_weight_rate", self.stuck_weight_rate),
            ("dead_pixel_rate", self.dead_pixel_rate),
            ("laser_drift_limit", self.laser_drift_limit),
        ];
        for (parameter, value) in rates {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(FaultSpecError::RateOutOfRange { parameter, value });
            }
        }
        let sigmas = [
            ("stuck_weight_level", self.stuck_weight_level),
            ("laser_drift_sigma", self.laser_drift_sigma),
        ];
        for (parameter, value) in sigmas {
            if value < 0.0 || !value.is_finite() {
                return Err(FaultSpecError::InvalidSigma { parameter, value });
            }
        }
        Ok(())
    }

    /// Returns `true` if every fault mechanism is disabled.
    pub fn is_fault_free(&self) -> bool {
        self.stuck_weight_rate == 0.0
            && self.dead_pixel_rate == 0.0
            && self.laser_drift_sigma == 0.0
    }

    /// Scales every fault *intensity* by `severity` (rates clamp at 1.0;
    /// the stuck level and drift limit are structural and stay fixed).
    /// `scaled(0.0)` is fault-free; fault sites at lower severities are
    /// subsets of those at higher severities.
    pub fn scaled(&self, severity: f64) -> Self {
        assert!(
            severity >= 0.0 && severity.is_finite(),
            "severity must be finite and non-negative, got {severity}"
        );
        FaultSpec {
            stuck_weight_rate: (self.stuck_weight_rate * severity).min(1.0),
            stuck_weight_level: self.stuck_weight_level,
            dead_pixel_rate: (self.dead_pixel_rate * severity).min(1.0),
            laser_drift_sigma: self.laser_drift_sigma * severity,
            laser_drift_limit: self.laser_drift_limit,
        }
    }

    /// Laser over-provisioning factor the energy model should budget so
    /// the worst-case negative drift still delivers minimum detectable
    /// power: `1 / (1 - limit)`.
    pub fn laser_margin(&self) -> f64 {
        1.0 / (1.0 - self.laser_drift_limit.min(0.99))
    }
}

/// Counter-based hash → uniform in `[0, 1)`. The workhorse for all
/// fault-site decisions: every (seed, salt, index) triple maps to one
/// fixed uniform draw.
fn uniform_hash(seed: u64, salt: u64, index: u64) -> f64 {
    let mut z = seed ^ salt.rotate_left(32) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard normal draw for (seed, salt, index), via Box–Muller over
/// two decorrelated uniform hashes.
fn normal_hash(seed: u64, salt: u64, index: u64) -> f64 {
    let u1 = uniform_hash(seed, salt, index).max(1e-300);
    let u2 = uniform_hash(seed, salt ^ 0x5DEE_CE66_D161_4A0B, index);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

const SALT_STUCK: u64 = 0x5354_5543_4b21;
const SALT_PIXEL: u64 = 0x5049_5845_4c21;
const SALT_DRIFT: u64 = 0x4452_4946_5421;

/// Seeded applicator of a [`FaultSpec`] to the functional datapath.
///
/// Stateful only in its *pass counter* (which drives the laser drift
/// random walk) and the optional composed [`NoiseModel`]; all fault
/// site decisions are pure functions of `(seed, site)`.
///
/// # Parallel execution and work-item streams
///
/// Fault *sites* (stuck taps, dead pixels) are pure functions of
/// `(seed, site index)`, so they are identical no matter which thread
/// evaluates them. The *sequential* state — the drift
/// walk and composed noise stream — is order-dependent, so parallel
/// fan-outs must not share one injector. Instead, the owning executor
/// calls [`FaultInjector::reserve_epochs`] once per fan-out and derives
/// one child per work item with [`FaultInjector::for_work_item`]. The
/// child keeps the parent's seed (same fault sites) but walks an
/// independent drift/noise stream determined purely by
/// `(seed, epoch, item)` — never by scheduling order — so serial and
/// parallel execution produce bit-identical results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultInjector {
    spec: FaultSpec,
    seed: u64,
    /// Optical passes observed so far (drives the drift walk).
    passes: u64,
    /// Cumulative relative laser drift, clamped to ±`laser_drift_limit`.
    drift: f64,
    /// Optional composed analog noise, applied after structural faults.
    noise: Option<NoiseModel>,
    /// Stream discriminator mixed into the drift salt. Zero on every
    /// directly-constructed injector (preserving the original drift
    /// sequence); nonzero on [`FaultInjector::for_work_item`] children.
    /// Runtime-only: not part of the persisted fault configuration.
    #[serde(skip)]
    stream: u64,
    /// Fan-out epochs reserved so far (see [`FaultInjector::reserve_epochs`]).
    /// Runtime-only: not part of the persisted fault configuration.
    #[serde(skip)]
    epochs: u64,
}

impl FaultInjector {
    /// Creates an injector for `spec`, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`FaultSpec::validate`]; use the
    /// validating constructor path in callers handling untrusted specs.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid fault spec: {e}");
        }
        FaultInjector {
            spec,
            seed,
            passes: 0,
            drift: 0.0,
            noise: None,
            stream: 0,
            epochs: 0,
        }
    }

    /// Composes a seeded analog [`NoiseModel`], applied to detected
    /// outputs after the structural faults.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = Some(noise);
        self
    }

    /// The fault specification being applied.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The injector's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of optical passes this injector has faulted so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Rewinds all stream state (drift walk, pass counter, reserved
    /// epochs, composed noise) so the exact fault sequence replays.
    pub fn reset(&mut self) {
        self.passes = 0;
        self.drift = 0.0;
        self.epochs = 0;
        if let Some(noise) = &mut self.noise {
            noise.reset();
        }
    }

    /// Reserves `count` fan-out epochs and returns the first reserved
    /// epoch index.
    ///
    /// An *epoch* labels one parallel fan-out (e.g. one convolution
    /// layer's sweep over output channels). Reserving from the parent
    /// injector is the only sequential step; everything derived from the
    /// returned index via [`FaultInjector::for_work_item`] is a pure
    /// function, so the fan-out itself can run in any order on any
    /// number of threads. [`FaultInjector::reset`] rewinds the epoch
    /// counter along with the rest of the stream state, so a replayed
    /// run reserves — and therefore derives — the same streams.
    pub fn reserve_epochs(&mut self, count: u64) -> u64 {
        let first = self.epochs;
        self.epochs += count;
        first
    }

    /// An injector whose epoch counter starts at `count` instead of 0,
    /// as if `count` epochs had already been reserved.
    ///
    /// Retry logic uses this to give attempt *k* of a failed work item
    /// fault/noise streams disjoint from attempts `0..k`: rebuilding the
    /// injector with `k` burned epochs shifts every subsequent
    /// [`FaultInjector::reserve_epochs`] call, deterministically in `k`
    /// and independent of thread count or wall-clock ordering.
    pub fn with_reserved_epochs(mut self, count: u64) -> Self {
        self.epochs = count;
        self
    }

    /// Derives the injector for work item `item` of fan-out `epoch`.
    ///
    /// The child shares `spec` and `seed` — so stuck-tap and dead-pixel
    /// *sites* are identical to the parent's — but walks its own drift
    /// and noise streams, derived purely from `(seed, epoch, item)`. Distinct `(epoch, item)` pairs get
    /// decorrelated streams; the same pair always gets the same stream.
    pub fn for_work_item(&self, epoch: u64, item: u64) -> FaultInjector {
        // splitmix64-style avalanche of (epoch, item) into a stream id.
        // The +1 offset keeps (0, 0) from colliding with the parent's
        // stream 0 except with negligible probability.
        let mut z = epoch
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(item)
            .wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultInjector {
            spec: self.spec,
            seed: self.seed,
            passes: 0,
            drift: 0.0,
            noise: self.noise.as_ref().map(|n| n.split_indexed(z)),
            stream: z,
            epochs: 0,
        }
    }

    /// True if neither structural faults nor analog noise are active.
    pub fn is_transparent(&self) -> bool {
        self.spec.is_fault_free() && !self.has_noise()
    }

    /// True if a composed [`NoiseModel`] perturbs detected outputs. Noise
    /// draws from a sequential stream over every detected sample of every
    /// pass, so a noisy pass cannot share its readout with other passes.
    pub fn has_noise(&self) -> bool {
        self.noise.as_ref().is_some_and(|n| !n.is_noiseless())
    }

    /// Whether weight-bank tap `index` is stuck.
    pub fn weight_is_stuck(&self, index: usize) -> bool {
        uniform_hash(self.seed, SALT_STUCK, index as u64) < self.spec.stuck_weight_rate
    }

    /// Whether photodetector pixel `index` is dead.
    pub fn pixel_is_dead(&self, index: usize) -> bool {
        uniform_hash(self.seed, SALT_PIXEL, index as u64) < self.spec.dead_pixel_rate
    }

    /// Applies stuck-tap faults to a kernel in place. Stuck taps freeze
    /// at `stuck_weight_level × max(kernel)` (the weight bank's
    /// full-scale reference), so a level of 0 models dead taps.
    pub fn corrupt_kernel(&self, kernel: &mut [f64]) {
        if self.spec.stuck_weight_rate == 0.0 {
            return;
        }
        let full_scale = kernel.iter().fold(0.0_f64, |m, &v| m.max(v));
        let stuck_value = self.spec.stuck_weight_level * full_scale;
        for (i, tap) in kernel.iter_mut().enumerate() {
            if self.weight_is_stuck(i) {
                *tap = stuck_value;
            }
        }
    }

    /// Zeroes dead-pixel positions of a detected output in place.
    /// Index `i` of the slice is detector pixel `first_pixel + i` (the
    /// same physical array is reused every pass, so the dead set is
    /// static).
    pub fn mask_dead_pixels(&self, first_pixel: usize, detected: &mut [f64]) {
        if self.spec.dead_pixel_rate == 0.0 {
            return;
        }
        for (i, v) in detected.iter_mut().enumerate() {
            if self.pixel_is_dead(first_pixel + i) {
                *v = 0.0;
            }
        }
    }

    /// Advances the laser drift random walk by one optical pass and
    /// returns the current relative power factor (≈ 1 ± limit).
    pub fn laser_drift_step(&mut self) -> f64 {
        // `stream` is already avalanche-mixed, so XOR-ing it into the
        // salt decorrelates work-item walks; stream 0 (every directly
        // constructed injector) leaves the original sequence untouched.
        let step = self.spec.laser_drift_sigma
            * normal_hash(self.seed, SALT_DRIFT ^ self.stream, self.passes);
        self.passes += 1;
        let limit = self.spec.laser_drift_limit;
        self.drift = (self.drift + step).clamp(-limit, limit);
        1.0 + self.drift
    }

    /// Applies the composed analog noise (if any) to a detected output
    /// in place.
    pub fn apply_noise(&mut self, detected: &mut [f64]) {
        if let Some(noise) = &mut self.noise {
            for v in detected.iter_mut() {
                *v = noise.perturb(*v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_fault_free() {
        let spec = FaultSpec::default();
        assert!(spec.is_fault_free());
        assert!(spec.validate().is_ok());
        assert_eq!(spec.laser_margin(), 1.0);
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let spec = FaultSpec::none().with_dead_pixel_rate(1.5);
        assert!(matches!(
            spec.validate(),
            Err(FaultSpecError::RateOutOfRange {
                parameter: "dead_pixel_rate",
                ..
            })
        ));
        let spec = FaultSpec::none().with_laser_drift(-0.1, 0.1);
        assert!(matches!(
            spec.validate(),
            Err(FaultSpecError::InvalidSigma {
                parameter: "laser_drift_sigma",
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "invalid fault spec")]
    fn injector_panics_on_invalid_spec() {
        let _ = FaultInjector::new(FaultSpec::none().with_dead_pixel_rate(2.0), 1);
    }

    #[test]
    fn fault_sites_are_deterministic() {
        let spec = FaultSpec::none()
            .with_stuck_weights(0.3, 0.5)
            .with_dead_pixel_rate(0.2);
        let a = FaultInjector::new(spec, 42);
        let b = FaultInjector::new(spec, 42);
        for i in 0..256 {
            assert_eq!(a.weight_is_stuck(i), b.weight_is_stuck(i));
            assert_eq!(a.pixel_is_dead(i), b.pixel_is_dead(i));
        }
    }

    #[test]
    fn different_seeds_fault_different_sites() {
        let spec = FaultSpec::none().with_dead_pixel_rate(0.5);
        let a = FaultInjector::new(spec, 1);
        let b = FaultInjector::new(spec, 2);
        let differs = (0..256).any(|i| a.pixel_is_dead(i) != b.pixel_is_dead(i));
        assert!(differs);
    }

    #[test]
    fn higher_rate_faults_superset_of_sites() {
        let lo = FaultInjector::new(FaultSpec::none().with_dead_pixel_rate(0.1), 9);
        let hi = FaultInjector::new(FaultSpec::none().with_dead_pixel_rate(0.4), 9);
        for i in 0..1024 {
            if lo.pixel_is_dead(i) {
                assert!(hi.pixel_is_dead(i), "site {i} lost at higher rate");
            }
        }
    }

    #[test]
    fn fault_rates_approximate_requested_fraction() {
        let inj = FaultInjector::new(FaultSpec::none().with_dead_pixel_rate(0.25), 3);
        let dead = (0..10_000).filter(|&i| inj.pixel_is_dead(i)).count();
        let fraction = dead as f64 / 10_000.0;
        assert!((fraction - 0.25).abs() < 0.02, "fraction {fraction}");
    }

    #[test]
    fn corrupt_kernel_freezes_taps_at_level() {
        let spec = FaultSpec::none().with_stuck_weights(0.5, 0.25);
        let inj = FaultInjector::new(spec, 17);
        let mut kernel = vec![0.1, 0.9, 0.4, 0.8, 0.2, 0.6, 0.3, 0.7];
        let original = kernel.clone();
        inj.corrupt_kernel(&mut kernel);
        let stuck_value = 0.25 * 0.9;
        let mut stuck = 0;
        for (i, (&now, &before)) in kernel.iter().zip(&original).enumerate() {
            if inj.weight_is_stuck(i) {
                assert_eq!(now, stuck_value);
                stuck += 1;
            } else {
                assert_eq!(now, before);
            }
        }
        assert!(stuck > 0, "seed produced no stuck taps in 8 at rate 0.5");
    }

    #[test]
    fn drift_walk_respects_limit_and_scales_with_sigma() {
        let mut small = FaultInjector::new(FaultSpec::none().with_laser_drift(0.001, 0.05), 5);
        let mut large = FaultInjector::new(FaultSpec::none().with_laser_drift(0.002, 0.05), 5);
        let mut max_small: f64 = 0.0;
        for _ in 0..500 {
            let s = small.laser_drift_step();
            let l = large.laser_drift_step();
            assert!((0.95..=1.05).contains(&s), "drift {s} out of limit");
            assert!((0.95..=1.05).contains(&l));
            max_small = max_small.max((s - 1.0).abs());
            // Same walk, doubled sigma ⇒ excursion at least as large
            // until both saturate at the clamp.
            assert!((l - 1.0).abs() >= (s - 1.0).abs() - 1e-12);
        }
        assert!(max_small > 0.0, "walk never moved");
    }

    #[test]
    fn scaled_zero_is_fault_free_and_scaling_is_monotone() {
        let base = FaultSpec::none()
            .with_stuck_weights(0.05, 0.5)
            .with_dead_pixel_rate(0.05)
            .with_laser_drift(0.001, 0.1);
        assert!(base.scaled(0.0).is_fault_free());
        let lo = base.scaled(1.0);
        let hi = base.scaled(4.0);
        assert!(hi.dead_pixel_rate > lo.dead_pixel_rate);
        assert!(hi.laser_drift_sigma > lo.laser_drift_sigma);
        assert_eq!(hi.stuck_weight_level, lo.stuck_weight_level);
        // Rates clamp at 1.
        assert_eq!(base.scaled(1000.0).dead_pixel_rate, 1.0);
    }

    #[test]
    fn reset_replays_drift_walk() {
        let mut inj = FaultInjector::new(FaultSpec::none().with_laser_drift(0.01, 0.2), 13);
        let first: Vec<f64> = (0..10).map(|_| inj.laser_drift_step()).collect();
        inj.reset();
        let second: Vec<f64> = (0..10).map(|_| inj.laser_drift_step()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn work_item_children_keep_fault_sites_but_diverge_in_drift() {
        let spec = FaultSpec::none()
            .with_dead_pixel_rate(0.3)
            .with_stuck_weights(0.3, 0.5)
            .with_laser_drift(0.01, 0.2);
        let mut parent = FaultInjector::new(spec, 42);
        let epoch = parent.reserve_epochs(1);
        let mut a = parent.for_work_item(epoch, 0);
        let mut b = parent.for_work_item(epoch, 1);
        // Same seed ⇒ identical structural fault sites.
        for i in 0..256 {
            assert_eq!(a.pixel_is_dead(i), parent.pixel_is_dead(i));
            assert_eq!(a.weight_is_stuck(i), parent.weight_is_stuck(i));
            assert_eq!(b.pixel_is_dead(i), parent.pixel_is_dead(i));
        }
        // Distinct items ⇒ decorrelated drift walks (and from the parent).
        let wa: Vec<f64> = (0..16).map(|_| a.laser_drift_step()).collect();
        let wb: Vec<f64> = (0..16).map(|_| b.laser_drift_step()).collect();
        let wp: Vec<f64> = (0..16).map(|_| parent.laser_drift_step()).collect();
        assert_ne!(wa, wb);
        assert_ne!(wa, wp);
        // Pure in (epoch, item): re-derivation replays the same walk.
        let mut a2 = parent.for_work_item(epoch, 0);
        let wa2: Vec<f64> = (0..16).map(|_| a2.laser_drift_step()).collect();
        assert_eq!(wa, wa2);
    }

    #[test]
    fn reserve_epochs_advances_and_reset_rewinds() {
        let mut inj = FaultInjector::new(FaultSpec::none().with_laser_drift(0.01, 0.2), 7);
        assert_eq!(inj.reserve_epochs(3), 0);
        assert_eq!(inj.reserve_epochs(1), 3);
        inj.reset();
        assert_eq!(inj.reserve_epochs(3), 0);
        // Distinct epochs derive distinct streams for the same item.
        let mut e0 = inj.for_work_item(0, 0);
        let mut e1 = inj.for_work_item(1, 0);
        let w0: Vec<f64> = (0..16).map(|_| e0.laser_drift_step()).collect();
        let w1: Vec<f64> = (0..16).map(|_| e1.laser_drift_step()).collect();
        assert_ne!(w0, w1);
    }

    #[test]
    fn with_reserved_epochs_shifts_streams_deterministically() {
        let spec = FaultSpec::none().with_laser_drift(0.01, 0.2);
        // Attempt 0: fresh injector, first fan-out gets epoch 0.
        let mut attempt0 = FaultInjector::new(spec, 11);
        let e0 = attempt0.reserve_epochs(1);
        assert_eq!(e0, 0);
        // Attempt 1: one burned epoch; the same fan-out now gets epoch 1
        // and therefore a decorrelated stream for the same item.
        let mut attempt1 = FaultInjector::new(spec, 11).with_reserved_epochs(1);
        let e1 = attempt1.reserve_epochs(1);
        assert_eq!(e1, 1);
        let mut w0 = attempt0.for_work_item(e0, 0);
        let mut w1 = attempt1.for_work_item(e1, 0);
        let d0: Vec<f64> = (0..16).map(|_| w0.laser_drift_step()).collect();
        let d1: Vec<f64> = (0..16).map(|_| w1.laser_drift_step()).collect();
        assert_ne!(d0, d1, "retry attempts must see different streams");
        // Rebuilding attempt 1 replays it exactly.
        let mut again = FaultInjector::new(spec, 11).with_reserved_epochs(1);
        let e1b = again.reserve_epochs(1);
        let mut w1b = again.for_work_item(e1b, 0);
        let d1b: Vec<f64> = (0..16).map(|_| w1b.laser_drift_step()).collect();
        assert_eq!(d1, d1b, "same attempt index must replay identically");
    }

    #[test]
    fn work_item_noise_streams_are_independent() {
        let noise = NoiseModel::new(5).with_relative_sigma(0.1);
        let parent = FaultInjector::new(FaultSpec::none(), 3).with_noise(noise);
        let mut a = parent.for_work_item(0, 0);
        let mut b = parent.for_work_item(0, 1);
        let mut a2 = parent.for_work_item(0, 0);
        let sig = vec![1.0; 8];
        let mut va = sig.clone();
        let mut vb = sig.clone();
        let mut va2 = sig.clone();
        a.apply_noise(&mut va);
        b.apply_noise(&mut vb);
        a2.apply_noise(&mut va2);
        assert_ne!(va, vb, "items must see independent noise");
        assert_eq!(va, va2, "same item must replay the same noise");
    }

    #[test]
    fn transparent_injector_detected() {
        let inj = FaultInjector::new(FaultSpec::none(), 0);
        assert!(inj.is_transparent());
        let inj = FaultInjector::new(FaultSpec::none().with_dead_pixel_rate(0.01), 0);
        assert!(!inj.is_transparent());
        assert!(!inj.has_noise());
        let quiet = inj.clone().with_noise(NoiseModel::new(1));
        assert!(!quiet.has_noise());
        let noisy = quiet.with_noise(NoiseModel::new(1).with_relative_sigma(0.01));
        assert!(noisy.has_noise() && !noisy.is_transparent());
    }
}
