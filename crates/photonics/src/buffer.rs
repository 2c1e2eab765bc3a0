//! Optical buffer models: reusing light through delay lines (paper §4.1).
//!
//! There is no optical memory, but a delay line makes light *come back
//! later*. ReFOCUS exploits that in two buffer designs:
//!
//! * **Feedback** ([`FeedbackBuffer`], §4.1.1): a Y-junction splits the DAC
//!   output; one arm computes, the other circulates through a delay line and
//!   re-enters before the junction through a switch MRR. Light can be reused
//!   `R` times, but each loop attenuates by `(1-l_d)·(1-α)` (paper Eq. 2-3),
//!   so the laser must over-provision and filters must be rescaled.
//! * **Feedforward** ([`FeedforwardBuffer`], §4.1.2): the delayed arm joins
//!   the compute path *after* the junction, so light is reused exactly once,
//!   and choosing `α = (1-l_d)/(2-l_d)` (Eq. 4) makes the original and
//!   delayed copies equally strong — no rescaling needed.
//!
//! The laser-power / dynamic-range trade-off of the feedback design is the
//! paper's Table 5; [`FeedbackBuffer::relative_laser_power`] and
//! [`FeedbackBuffer::dynamic_range`] regenerate it exactly (the table
//! assumes the final 16-cycle delay line).

use crate::components::{DelayLine, YJunction};
use crate::units::GigaHertz;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors constructing an optical buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferError {
    /// Split ratio outside `(0, 1)`.
    InvalidSplitRatio {
        /// The rejected value.
        alpha: f64,
    },
    /// Zero reuses requested — use no buffer instead.
    ZeroReuse,
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::InvalidSplitRatio { alpha } => {
                write!(f, "split ratio must be in (0, 1), got {alpha}")
            }
            BufferError::ZeroReuse => write!(f, "a buffer with zero reuses is pointless"),
        }
    }
}

impl std::error::Error for BufferError {}

/// Feedback optical buffer: reuse light `R` times through a loop.
///
/// # Examples
///
/// ```
/// use refocus_photonics::buffer::FeedbackBuffer;
/// use refocus_photonics::units::GigaHertz;
///
/// // ReFOCUS-FB: R = 15 reuses, optimal split, 16-cycle delay at 10 GHz.
/// let buf = FeedbackBuffer::refocus_fb();
/// assert!((buf.relative_laser_power() - 3.87).abs() < 0.02);
/// assert!((buf.dynamic_range() - 3.87).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedbackBuffer {
    alpha: f64,
    reuses: u32,
    delay_line: DelayLine,
}

impl FeedbackBuffer {
    /// Creates a feedback buffer.
    ///
    /// * `alpha` — Y-junction split ratio (power fraction to the JTC).
    /// * `reuses` — how many times each generated signal is replayed (`R`).
    /// * `delay_cycles` — delay line length `M` in cycles at `clock`.
    ///
    /// # Errors
    ///
    /// Returns [`BufferError`] if `alpha` is not in `(0, 1)` or `reuses`
    /// is 0.
    pub fn new(
        alpha: f64,
        reuses: u32,
        delay_cycles: u32,
        clock: GigaHertz,
    ) -> Result<Self, BufferError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(BufferError::InvalidSplitRatio { alpha });
        }
        if reuses == 0 {
            return Err(BufferError::ZeroReuse);
        }
        Ok(Self {
            alpha,
            reuses,
            delay_line: DelayLine::for_cycles(delay_cycles, clock),
        })
    }

    /// The optimal split ratio `α = 1/(R+1)` (§5.4.2) for `reuses` replays.
    pub fn optimal_split_ratio(reuses: u32) -> f64 {
        1.0 / (f64::from(reuses) + 1.0)
    }

    /// Creates a buffer with the optimal `α = 1/(R+1)` split.
    ///
    /// # Errors
    ///
    /// Returns [`BufferError::ZeroReuse`] if `reuses` is 0.
    pub fn with_optimal_split(
        reuses: u32,
        delay_cycles: u32,
        clock: GigaHertz,
    ) -> Result<Self, BufferError> {
        Self::new(
            Self::optimal_split_ratio(reuses),
            reuses,
            delay_cycles,
            clock,
        )
    }

    /// The exact ReFOCUS-FB configuration: R = 15 optimal-split reuses on a
    /// 16-cycle delay line at 10 GHz (§5.1, §5.4.2).
    pub fn refocus_fb() -> Self {
        Self::with_optimal_split(15, 16, GigaHertz::new(10.0))
            .expect("the paper configuration is valid")
    }

    /// Split ratio `α`.
    pub fn split_ratio(&self) -> f64 {
        self.alpha
    }

    /// Number of replays `R`.
    pub fn reuses(&self) -> u32 {
        self.reuses
    }

    /// The delay line this buffer is built on.
    pub fn delay_line(&self) -> &DelayLine {
        &self.delay_line
    }

    /// Per-loop power retention `(1-l_d)·(1-α)` — the factor between
    /// consecutive `X_i` in paper Eq. 2.
    pub fn retention_per_reuse(&self) -> f64 {
        self.delay_line.transmission() * (1.0 - self.alpha)
    }

    /// Power reaching the JTC at iteration `i` for unit laser power:
    /// `X_i = α · ((1-l_d)(1-α))^i` (paper Eq. 3, including the initial
    /// Y-junction split).
    pub fn power_at_iteration(&self, i: u32) -> f64 {
        self.alpha * self.retention_per_reuse().powi(i as i32)
    }

    /// Dynamic range `X_0 / X_R` the photodetector and ADC must absorb.
    pub fn dynamic_range(&self) -> f64 {
        self.retention_per_reuse().powi(-(self.reuses as i32))
    }

    /// Average laser power relative to a bufferless system (Table 5).
    ///
    /// The laser must be sized so the *weakest* (last) replay is still at
    /// the minimum detectable power, but only fires once per `R+1` cycles:
    /// `LP_rel = 1 / (α · (R+1) · ρ^R)` with `ρ` the per-loop retention.
    pub fn relative_laser_power(&self) -> f64 {
        1.0 / (self.alpha
            * (f64::from(self.reuses) + 1.0)
            * self.retention_per_reuse().powi(self.reuses as i32))
    }

    /// Duty cycle of the input DACs: new light is generated once per `R+1`
    /// cycles of use.
    pub fn dac_duty_cycle(&self) -> f64 {
        1.0 / (f64::from(self.reuses) + 1.0)
    }

    /// Weight rescaling factors for the hardware-aware scheduler (§4.1.1):
    /// filters processed at iteration `i` see inputs attenuated by
    /// `ρ^i`, so their outputs must be scaled back by `ρ^{-i}` digitally.
    pub fn weight_rescale_factors(&self) -> Vec<f64> {
        let rho = self.retention_per_reuse();
        (0..=self.reuses).map(|i| rho.powi(-(i as i32))).collect()
    }

    /// Simulates the replay power sequence step by step through the actual
    /// component models (Y-junction + delay line), for unit input power.
    /// Cross-validates the closed forms above.
    pub fn simulate_replays(&self) -> Vec<f64> {
        let junction =
            YJunction::with_split_ratio(self.alpha).expect("alpha validated at construction");
        let mut outputs = Vec::with_capacity(self.reuses as usize + 1);
        let mut circulating = 1.0;
        for _ in 0..=self.reuses {
            let (to_jtc, to_loop) = junction.split_power(circulating);
            outputs.push(to_jtc);
            circulating = self.delay_line.propagate_power(to_loop);
        }
        outputs
    }
}

/// Feedforward optical buffer: reuse light exactly once, losslessly in
/// *balance* (both copies equally strong).
///
/// # Examples
///
/// ```
/// use refocus_photonics::buffer::FeedforwardBuffer;
/// use refocus_photonics::units::GigaHertz;
///
/// let buf = FeedforwardBuffer::refocus_ff();
/// // Eq. 4 split ratio makes both copies identical:
/// let (direct, delayed) = buf.copy_powers(1.0);
/// assert!((direct - delayed).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedforwardBuffer {
    alpha: f64,
    delay_line: DelayLine,
}

impl FeedforwardBuffer {
    /// Creates a feedforward buffer with the Eq. 4 balanced split ratio
    /// `α = (1-l_d)/(2-l_d)` for a delay line of `delay_cycles` at `clock`.
    pub fn balanced(delay_cycles: u32, clock: GigaHertz) -> Self {
        let delay_line = DelayLine::for_cycles(delay_cycles, clock);
        let l_d = 1.0 - delay_line.transmission();
        Self {
            alpha: (1.0 - l_d) / (2.0 - l_d),
            delay_line,
        }
    }

    /// The exact ReFOCUS-FF configuration: balanced split on a 16-cycle
    /// delay line at 10 GHz.
    pub fn refocus_ff() -> Self {
        Self::balanced(16, GigaHertz::new(10.0))
    }

    /// Split ratio `α` (fraction of power going directly to the JTC).
    pub fn split_ratio(&self) -> f64 {
        self.alpha
    }

    /// The delay line this buffer is built on.
    pub fn delay_line(&self) -> &DelayLine {
        &self.delay_line
    }

    /// Number of replays: always 1 for the feedforward design.
    pub fn reuses(&self) -> u32 {
        1
    }

    /// Powers of the `(direct, delayed)` copies for a given input power.
    pub fn copy_powers(&self, power_in: f64) -> (f64, f64) {
        let direct = self.alpha * power_in;
        let delayed = self
            .delay_line
            .propagate_power((1.0 - self.alpha) * power_in);
        (direct, delayed)
    }

    /// Average laser power relative to a bufferless system: the laser must
    /// emit `1/α` to deliver minimum power on the compute arm, but fires
    /// only every other cycle — `1/(2α)` (§5.4.1).
    pub fn relative_laser_power(&self) -> f64 {
        1.0 / (2.0 * self.alpha)
    }

    /// Dynamic range across copies: 1 by construction of the balanced split.
    pub fn dynamic_range(&self) -> f64 {
        let (a, b) = self.copy_powers(1.0);
        a.max(b) / a.min(b)
    }

    /// Duty cycle of the input DACs: new light every other cycle.
    pub fn dac_duty_cycle(&self) -> f64 {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: GigaHertz = GigaHertz::new(10.0);

    /// Paper Table 5, α = 1/(R+1) rows.
    const TABLE5_OPTIMAL: [(u32, f64); 6] = [
        (1, 2.05),
        (3, 2.56),
        (7, 3.05),
        (15, 3.87),
        (31, 5.96),
        (63, 13.7),
    ];

    /// Paper Table 5, α = 0.5 rows: (R, relative LP, dynamic range).
    const TABLE5_HALF: [(u32, f64, f64); 6] = [
        (1, 2.05, 2.05),
        (3, 4.32, 8.64),
        (7, 38.4, 153.0),
        (15, 6.0e3, 4.8e4),
        (31, 3.0e8, 4.8e9),
        (63, 1.5e18, 4.7e19),
    ];

    fn assert_rel(actual: f64, expected: f64, tol: f64, ctx: &str) {
        let rel = (actual - expected).abs() / expected;
        assert!(
            rel < tol,
            "{ctx}: got {actual}, want {expected} (rel {rel})"
        );
    }

    #[test]
    fn table5_optimal_alpha_rows() {
        for (r, want) in TABLE5_OPTIMAL {
            let buf = FeedbackBuffer::with_optimal_split(r, 16, CLOCK).unwrap();
            assert_rel(buf.relative_laser_power(), want, 0.02, &format!("LP R={r}"));
            // The paper reports identical LP and dynamic range for optimal α.
            assert_rel(buf.dynamic_range(), want, 0.02, &format!("DR R={r}"));
        }
    }

    #[test]
    fn table5_half_alpha_rows() {
        for (r, lp, dr) in TABLE5_HALF {
            let buf = FeedbackBuffer::new(0.5, r, 16, CLOCK).unwrap();
            assert_rel(buf.relative_laser_power(), lp, 0.06, &format!("LP R={r}"));
            assert_rel(buf.dynamic_range(), dr, 0.06, &format!("DR R={r}"));
        }
    }

    #[test]
    fn closed_form_matches_component_simulation() {
        let buf = FeedbackBuffer::with_optimal_split(7, 4, CLOCK).unwrap();
        let sim = buf.simulate_replays();
        assert_eq!(sim.len(), 8);
        for (i, &p) in sim.iter().enumerate() {
            let want = buf.power_at_iteration(i as u32);
            assert!((p - want).abs() < 1e-12, "iteration {i}: {p} vs {want}");
        }
    }

    #[test]
    fn power_decays_monotonically() {
        let buf = FeedbackBuffer::refocus_fb();
        let seq = buf.simulate_replays();
        for w in seq.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn weight_rescale_compensates_decay() {
        let buf = FeedbackBuffer::refocus_fb();
        let factors = buf.weight_rescale_factors();
        assert_eq!(factors.len(), 16);
        for (i, &f) in factors.iter().enumerate() {
            // Attenuated input x rescaled output == constant.
            let effective = buf.power_at_iteration(i as u32) * f;
            assert!((effective - buf.power_at_iteration(0)).abs() < 1e-12);
        }
    }

    #[test]
    fn refocus_fb_matches_paper_configuration() {
        let buf = FeedbackBuffer::refocus_fb();
        assert_eq!(buf.reuses(), 15);
        assert!((buf.split_ratio() - 1.0 / 16.0).abs() < 1e-12);
        assert_eq!(buf.delay_line().cycles(), 16);
        assert!((buf.dac_duty_cycle() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn feedforward_balanced_split_matches_eq4() {
        let buf = FeedforwardBuffer::refocus_ff();
        let l_d = 1.0 - buf.delay_line().transmission();
        let want = (1.0 - l_d) / (2.0 - l_d);
        assert!((buf.split_ratio() - want).abs() < 1e-15);
        // Slightly below 0.5 because the delayed arm loses a little power.
        assert!(buf.split_ratio() < 0.5);
        assert!(buf.split_ratio() > 0.49);
    }

    #[test]
    fn feedforward_copies_are_balanced() {
        for cycles in [1, 4, 16, 64] {
            let buf = FeedforwardBuffer::balanced(cycles, CLOCK);
            let (a, b) = buf.copy_powers(2.5);
            assert!((a - b).abs() < 1e-12, "cycles={cycles}");
            assert!((buf.dynamic_range() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn feedforward_laser_power_slightly_above_one() {
        let buf = FeedforwardBuffer::refocus_ff();
        let lp = buf.relative_laser_power();
        // 1/(2α) with α just under 0.5: a hair above 1.
        assert!(lp > 1.0 && lp < 1.05, "lp = {lp}");
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert_eq!(
            FeedbackBuffer::new(0.0, 1, 1, CLOCK),
            Err(BufferError::InvalidSplitRatio { alpha: 0.0 })
        );
        assert_eq!(
            FeedbackBuffer::new(1.0, 1, 1, CLOCK),
            Err(BufferError::InvalidSplitRatio { alpha: 1.0 })
        );
        assert_eq!(
            FeedbackBuffer::new(0.5, 0, 1, CLOCK),
            Err(BufferError::ZeroReuse)
        );
    }

    #[test]
    fn more_reuse_lowers_dac_duty() {
        let few = FeedbackBuffer::with_optimal_split(3, 16, CLOCK).unwrap();
        let many = FeedbackBuffer::with_optimal_split(15, 16, CLOCK).unwrap();
        assert!(many.dac_duty_cycle() < few.dac_duty_cycle());
    }

    #[test]
    fn optimal_alpha_beats_half_for_large_r() {
        // §5.4.2: without optimizing α, reusing 7+ times is infeasible.
        let opt = FeedbackBuffer::with_optimal_split(15, 16, CLOCK).unwrap();
        let half = FeedbackBuffer::new(0.5, 15, 16, CLOCK).unwrap();
        assert!(opt.relative_laser_power() < 5.0);
        assert!(half.relative_laser_power() > 1e3);
    }

    #[test]
    fn error_display() {
        assert!(BufferError::ZeroReuse.to_string().contains("zero reuses"));
        assert!(BufferError::InvalidSplitRatio { alpha: 2.0 }
            .to_string()
            .contains("2"));
    }
}
