//! Slow-light delay lines (paper §7.5 — a future-work direction).
//!
//! A "slow light" waveguide (e.g. an SiN Bragg-grating structure, Chen et
//! al. \[9\]) reduces the group velocity by an engineered factor, so the same
//! delay needs proportionally less length and area. The paper declines to
//! use them because current demonstrations have "relatively large loss";
//! this module models that trade-off so the design-space exploration can
//! quantify it (see the `slow_light` ablation experiment).

use crate::components::delay_line::{DelayLine, GROUP_INDEX, SPEED_OF_LIGHT_M_PER_S};
use crate::units::{Decibels, GigaHertz, Millimeters, Nanoseconds, SquareMillimeters};
use serde::{Deserialize, Serialize};

/// A slow-light delay line: `slowdown`× shorter than a conventional spiral
/// for the same delay, at `loss_db_per_mm` propagation loss.
///
/// # Examples
///
/// ```
/// use refocus_photonics::components::slow_light::SlowLightDelayLine;
/// use refocus_photonics::units::GigaHertz;
///
/// // A 10x slowdown line from [9]-class gratings.
/// let sl = SlowLightDelayLine::for_cycles(16, GigaHertz::new(10.0), 10.0, 0.05);
/// // 10x less area than the conventional line...
/// assert!(sl.area().value() < 0.02);
/// // ...but much lossier.
/// assert!(sl.loss().value() > 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowLightDelayLine {
    delay: Nanoseconds,
    cycles: u32,
    slowdown: f64,
    loss_db_per_mm: f64,
}

impl SlowLightDelayLine {
    /// Representative slowdown factor from \[9\]-class SiN Bragg gratings.
    pub const REFERENCE_SLOWDOWN: f64 = 10.0;
    /// Representative propagation loss (dB/mm) — orders of magnitude above
    /// the ultra-low-loss spiral's 8.1e-4 dB/mm, which is the paper's
    /// reason to hold off.
    pub const REFERENCE_LOSS_DB_PER_MM: f64 = 0.05;

    /// Creates a slow-light line delaying `cycles` cycles at `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero, `slowdown < 1`, or the loss is negative.
    pub fn for_cycles(cycles: u32, clock: GigaHertz, slowdown: f64, loss_db_per_mm: f64) -> Self {
        assert!(cycles > 0, "a delay line must delay by at least one cycle");
        assert!(slowdown >= 1.0, "slowdown must be >= 1, got {slowdown}");
        assert!(loss_db_per_mm >= 0.0, "loss must be non-negative");
        Self {
            delay: clock.period() * cycles as f64,
            cycles,
            slowdown,
            loss_db_per_mm,
        }
    }

    /// The reference \[9\]-class line.
    pub fn reference(cycles: u32, clock: GigaHertz) -> Self {
        Self::for_cycles(
            cycles,
            clock,
            Self::REFERENCE_SLOWDOWN,
            Self::REFERENCE_LOSS_DB_PER_MM,
        )
    }

    /// The delay imposed.
    pub fn delay(&self) -> Nanoseconds {
        self.delay
    }

    /// Delay in whole cycles.
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Engineered slowdown factor (group-index multiplier).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Physical length: the conventional length divided by the slowdown.
    pub fn length(&self) -> Millimeters {
        let metres = SPEED_OF_LIGHT_M_PER_S / (GROUP_INDEX * self.slowdown)
            * self.delay.to_seconds().value();
        Millimeters::new(metres * 1e3)
    }

    /// Footprint, assuming the same area-per-length as the spiral.
    pub fn area(&self) -> SquareMillimeters {
        let per_mm =
            DelayLine::AREA_PER_CYCLE_10GHZ.value() / DelayLine::LENGTH_PER_CYCLE_10GHZ.value();
        SquareMillimeters::new(self.length().value() * per_mm)
    }

    /// Total propagation loss.
    pub fn loss(&self) -> Decibels {
        Decibels::new(self.length().value() * self.loss_db_per_mm)
    }

    /// Linear power transmission.
    pub fn transmission(&self) -> f64 {
        self.loss().transmission()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: GigaHertz = GigaHertz::new(10.0);

    #[test]
    fn slowdown_shrinks_length_proportionally() {
        let conventional = DelayLine::for_cycles(16, CLOCK);
        let slow = SlowLightDelayLine::for_cycles(16, CLOCK, 10.0, 0.05);
        let ratio = conventional.length().value() / slow.length().value();
        assert!((ratio - 10.0).abs() < 1e-9);
        let area_ratio = conventional.area().value() / slow.area().value();
        assert!((area_ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reference_line_is_lossier_despite_being_shorter() {
        // §7.5's caveat: the loss *rate* overwhelms the length saving.
        let conventional = DelayLine::for_cycles(16, CLOCK);
        let slow = SlowLightDelayLine::reference(16, CLOCK);
        assert!(slow.length().value() < conventional.length().value());
        assert!(slow.loss().value() > conventional.loss().value());
    }

    #[test]
    fn unity_slowdown_recovers_spiral_geometry() {
        let slow = SlowLightDelayLine::for_cycles(4, CLOCK, 1.0, 0.0);
        let spiral = DelayLine::for_cycles(4, CLOCK);
        assert!((slow.length().value() - spiral.length().value()).abs() < 1e-9);
        assert!((slow.area().value() - spiral.area().value()).abs() < 1e-12);
        assert_eq!(slow.transmission(), 1.0);
    }

    #[test]
    fn transmission_consistent_with_loss() {
        let slow = SlowLightDelayLine::reference(16, CLOCK);
        let t = slow.transmission();
        assert!((Decibels::from_transmission(t).value() - slow.loss().value()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "slowdown must be >= 1")]
    fn rejects_speedup() {
        let _ = SlowLightDelayLine::for_cycles(1, CLOCK, 0.5, 0.0);
    }
}
