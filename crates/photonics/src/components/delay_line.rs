//! Optical delay line model.
//!
//! A delay line is a spiral waveguide long enough that light takes a chosen
//! number of clock cycles to traverse it — the only way to "buffer" light,
//! since there is no optical memory (§4.1). Geometry and loss follow the
//! paper's Table 1: a 0.1 ns delay (one cycle at 10 GHz) costs 8.57 mm of
//! waveguide, 0.01 mm² of area, and 6.94·10⁻³ dB of loss, using the
//! ultra-low-loss silicon delay lines of Lee et al. \[28\].

use crate::units::{Decibels, GigaHertz, Millimeters, Nanoseconds, SquareMillimeters};
use serde::{Deserialize, Serialize};

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 2.998e8;

/// Group index implied by Table 1: 8.57 mm of waveguide delays light by
/// 0.1 ns, i.e. the light travels at `c / n_g` with `n_g ≈ 3.50`.
pub const GROUP_INDEX: f64 = SPEED_OF_LIGHT_M_PER_S * 0.1e-9 / 8.57e-3;

/// An on-chip spiral waveguide delay line.
///
/// # Examples
///
/// ```
/// use refocus_photonics::components::DelayLine;
/// use refocus_photonics::units::GigaHertz;
///
/// // One-cycle delay at 10 GHz: the paper's Table 1 row.
/// let dl = DelayLine::for_cycles(1, GigaHertz::new(10.0));
/// assert!((dl.length().value() - 8.57).abs() < 0.01);
/// assert!((dl.area().value() - 0.01).abs() < 1e-4);
/// assert!((dl.loss().value() - 6.94e-3).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayLine {
    delay: Nanoseconds,
    cycles: u32,
}

impl DelayLine {
    /// Table 1 anchor: area per 0.1 ns of delay.
    pub const AREA_PER_CYCLE_10GHZ: SquareMillimeters = SquareMillimeters::new(0.01);
    /// Table 1 anchor: loss per 0.1 ns of delay.
    pub const LOSS_PER_CYCLE_10GHZ: Decibels = Decibels::new(6.94e-3);
    /// Table 1 anchor: length per 0.1 ns of delay.
    pub const LENGTH_PER_CYCLE_10GHZ: Millimeters = Millimeters::new(8.57);

    /// Creates a delay line that delays light by `cycles` clock cycles at
    /// clock frequency `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or `clock` is not positive.
    pub fn for_cycles(cycles: u32, clock: GigaHertz) -> Self {
        assert!(cycles > 0, "a delay line must delay by at least one cycle");
        let delay = clock.period() * cycles as f64;
        Self { delay, cycles }
    }

    /// The delay this line imposes.
    pub fn delay(&self) -> Nanoseconds {
        self.delay
    }

    /// The delay in whole clock cycles.
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Physical waveguide length: `c / n_g * delay`.
    pub fn length(&self) -> Millimeters {
        let metres = SPEED_OF_LIGHT_M_PER_S / GROUP_INDEX * self.delay.to_seconds().value();
        Millimeters::new(metres * 1e3)
    }

    /// Spiral footprint, scaling linearly with length per Table 1.
    pub fn area(&self) -> SquareMillimeters {
        let per_mm = Self::AREA_PER_CYCLE_10GHZ.value() / Self::LENGTH_PER_CYCLE_10GHZ.value();
        SquareMillimeters::new(self.length().value() * per_mm)
    }

    /// Total propagation loss, scaling linearly with length.
    pub fn loss(&self) -> Decibels {
        let per_mm = Self::LOSS_PER_CYCLE_10GHZ.value() / Self::LENGTH_PER_CYCLE_10GHZ.value();
        Decibels::new(self.length().value() * per_mm)
    }

    /// Linear power transmission through the line (`1 - l_d` in the paper's
    /// Eq. 2 notation).
    pub fn transmission(&self) -> f64 {
        self.loss().transmission()
    }

    /// Propagates an optical *power* through the line.
    pub fn propagate_power(&self, power: f64) -> f64 {
        power * self.transmission()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: GigaHertz = GigaHertz::new(10.0);

    #[test]
    fn table1_row_reproduced() {
        let dl = DelayLine::for_cycles(1, CLOCK);
        assert!((dl.length().value() - 8.57).abs() < 1e-2, "{}", dl.length());
        assert!((dl.area().value() - 0.01).abs() < 1e-5, "{}", dl.area());
        assert!((dl.loss().value() - 6.94e-3).abs() < 1e-5, "{}", dl.loss());
    }

    #[test]
    fn scaling_is_linear_in_cycles() {
        let one = DelayLine::for_cycles(1, CLOCK);
        let sixteen = DelayLine::for_cycles(16, CLOCK);
        assert!((sixteen.length().value() - 16.0 * one.length().value()).abs() < 1e-9);
        assert!((sixteen.area().value() - 16.0 * one.area().value()).abs() < 1e-9);
        assert!((sixteen.loss().value() - 16.0 * one.loss().value()).abs() < 1e-9);
    }

    #[test]
    fn sixteen_cycle_delay_area_matches_paper() {
        // §4.2.1: 256 waveguides × 16-cycle delay lines ≈ 41 mm² (Fig. 9).
        let dl = DelayLine::for_cycles(16, CLOCK);
        let total = dl.area().value() * 256.0;
        assert!((total - 40.96).abs() < 0.1, "total = {total}");
    }

    #[test]
    fn transmission_is_high_for_short_lines() {
        let dl = DelayLine::for_cycles(1, CLOCK);
        let t = dl.transmission();
        assert!(t > 0.998 && t < 1.0, "t = {t}");
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn rejects_zero_cycles() {
        let _ = DelayLine::for_cycles(0, CLOCK);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn group_index_is_physical() {
        // Silicon waveguide group indices are ~3.5-4.3; Table 1 implies ~3.5.
        assert!(
            GROUP_INDEX > 3.0 && GROUP_INDEX < 4.5,
            "n_g = {GROUP_INDEX}"
        );
    }
}
