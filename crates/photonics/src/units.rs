//! Physical-unit newtypes used throughout the simulator.
//!
//! The energy/area/power bookkeeping in an accelerator simulator is an
//! endless source of unit bugs (mW vs W, µm² vs mm², dB vs linear). Each
//! quantity gets its own newtype ([C-NEWTYPE]) so the compiler rejects a
//! `MilliWatts` where `Watts` is expected, and conversions are explicit.
//!
//! All newtypes are thin wrappers over `f64`, `Copy`, ordered, and support
//! the arithmetic that is physically meaningful for them (adding two powers
//! is fine; multiplying two powers is not exposed).
//!
//! # Examples
//!
//! ```
//! use refocus_photonics::units::{MilliWatts, Watts};
//!
//! let dac = MilliWatts::new(35.71);
//! let total: Watts = (dac * 800.0).to_watts();
//! assert!((total.value() - 28.568).abs() < 1e-9);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for a scalar physical unit newtype.
macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $unit:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value in this unit.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in this unit.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (not NaN/inf).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

scalar_unit!(
    /// Power in watts.
    Watts,
    "W"
);
scalar_unit!(
    /// Power in milliwatts (the natural unit for photonic components).
    MilliWatts,
    "mW"
);
scalar_unit!(
    /// Energy in joules.
    Joules,
    "J"
);
scalar_unit!(
    /// Energy in picojoules (the natural unit for per-access memory energy).
    PicoJoules,
    "pJ"
);
scalar_unit!(
    /// Area in square millimeters (chip-level areas).
    SquareMillimeters,
    "mm^2"
);
scalar_unit!(
    /// Area in square micrometers (component-level areas).
    SquareMicrometers,
    "um^2"
);
scalar_unit!(
    /// Length in millimeters.
    Millimeters,
    "mm"
);
scalar_unit!(
    /// Time in nanoseconds.
    Nanoseconds,
    "ns"
);
scalar_unit!(
    /// Time in seconds.
    Seconds,
    "s"
);
scalar_unit!(
    /// Frequency in gigahertz.
    GigaHertz,
    "GHz"
);
scalar_unit!(
    /// Loss/gain in decibels. Positive values denote loss in this codebase.
    Decibels,
    "dB"
);

impl Watts {
    /// Converts to milliwatts.
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts::new(self.0 * 1e3)
    }
}

impl MilliWatts {
    /// Converts to watts.
    pub fn to_watts(self) -> Watts {
        Watts::new(self.0 * 1e-3)
    }
}

impl From<MilliWatts> for Watts {
    fn from(mw: MilliWatts) -> Self {
        mw.to_watts()
    }
}

impl From<Watts> for MilliWatts {
    fn from(w: Watts) -> Self {
        w.to_milliwatts()
    }
}

impl Joules {
    /// Converts to picojoules.
    pub fn to_picojoules(self) -> PicoJoules {
        PicoJoules::new(self.0 * 1e12)
    }

    /// Average power when this energy is spent over `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero or negative.
    pub fn over(self, duration: Seconds) -> Watts {
        assert!(
            duration.value() > 0.0,
            "duration must be positive, got {duration}"
        );
        Watts::new(self.0 / duration.value())
    }
}

impl PicoJoules {
    /// Converts to joules.
    pub fn to_joules(self) -> Joules {
        Joules::new(self.0 * 1e-12)
    }
}

impl From<PicoJoules> for Joules {
    fn from(pj: PicoJoules) -> Self {
        pj.to_joules()
    }
}

impl From<Joules> for PicoJoules {
    fn from(j: Joules) -> Self {
        j.to_picojoules()
    }
}

impl SquareMicrometers {
    /// Converts to square millimeters.
    pub fn to_square_millimeters(self) -> SquareMillimeters {
        SquareMillimeters::new(self.0 * 1e-6)
    }
}

impl SquareMillimeters {
    /// Converts to square micrometers.
    pub fn to_square_micrometers(self) -> SquareMicrometers {
        SquareMicrometers::new(self.0 * 1e6)
    }
}

impl From<SquareMicrometers> for SquareMillimeters {
    fn from(um2: SquareMicrometers) -> Self {
        um2.to_square_millimeters()
    }
}

impl Nanoseconds {
    /// Converts to seconds.
    pub fn to_seconds(self) -> Seconds {
        Seconds::new(self.0 * 1e-9)
    }
}

impl GigaHertz {
    /// The period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero or negative.
    pub fn period(self) -> Nanoseconds {
        assert!(self.0 > 0.0, "frequency must be positive, got {self}");
        Nanoseconds::new(1.0 / self.0)
    }

    /// Frequency in hertz.
    pub fn to_hertz(self) -> f64 {
        self.0 * 1e9
    }
}

impl Decibels {
    /// Converts a loss in dB to the linear *transmission* factor in (0, 1].
    ///
    /// A loss of 3.01 dB transmits ~50% of the power. Zero dB transmits
    /// everything.
    pub fn transmission(self) -> f64 {
        10f64.powf(-self.0 / 10.0)
    }

    /// Builds a dB loss from a linear transmission factor.
    ///
    /// # Panics
    ///
    /// Panics if `transmission` is not in (0, 1].
    pub fn from_transmission(transmission: f64) -> Self {
        assert!(
            transmission > 0.0 && transmission <= 1.0,
            "transmission must be in (0, 1], got {transmission}"
        );
        Self(-10.0 * transmission.log10())
    }
}

impl Watts {
    /// Energy consumed at this power over `duration`.
    pub fn for_duration(self, duration: Seconds) -> Joules {
        Joules::new(self.0 * duration.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milliwatts_to_watts_round_trip() {
        let p = MilliWatts::new(35.71);
        let w: Watts = p.into();
        assert!((w.value() - 0.03571).abs() < 1e-12);
        let back: MilliWatts = w.into();
        assert!((back.value() - 35.71).abs() < 1e-12);
    }

    #[test]
    fn unit_arithmetic() {
        let a = Watts::new(1.5);
        let b = Watts::new(0.5);
        assert_eq!((a + b).value(), 2.0);
        assert_eq!((a - b).value(), 1.0);
        assert_eq!((a * 2.0).value(), 3.0);
        assert_eq!((a / 3.0).value(), 0.5);
        assert_eq!(a / b, 3.0);
        assert_eq!((-b).value(), -0.5);
    }

    #[test]
    fn sum_of_powers() {
        let total: Watts = (0..4).map(|i| Watts::new(i as f64)).sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    fn db_transmission_half_power() {
        let half = Decibels::new(10.0 * 2f64.log10());
        assert!((half.transmission() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn db_round_trip() {
        for t in [1.0, 0.9, 0.5, 0.123, 1e-3] {
            let db = Decibels::from_transmission(t);
            assert!((db.transmission() - t).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "transmission must be in (0, 1]")]
    fn db_rejects_gain() {
        let _ = Decibels::from_transmission(1.5);
    }

    #[test]
    fn zero_db_is_lossless() {
        assert_eq!(Decibels::ZERO.transmission(), 1.0);
    }

    #[test]
    fn frequency_period() {
        let f = GigaHertz::new(10.0);
        assert!((f.period().value() - 0.1).abs() < 1e-12);
        assert_eq!(f.to_hertz(), 1e10);
    }

    #[test]
    fn energy_power_duality() {
        let e = Watts::new(2.0).for_duration(Seconds::new(3.0));
        assert_eq!(e.value(), 6.0);
        let p = e.over(Seconds::new(3.0));
        assert_eq!(p.value(), 2.0);
    }

    #[test]
    fn area_conversion() {
        let lens = SquareMicrometers::new(2e6);
        let mm2: SquareMillimeters = lens.into();
        assert!((mm2.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn picojoules_round_trip() {
        let e = PicoJoules::new(12.5);
        let j = e.to_joules();
        assert!((j.value() - 12.5e-12).abs() < 1e-24);
        assert!((j.to_picojoules().value() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn display_with_precision() {
        assert_eq!(format!("{:.2}", Watts::new(1.23456)), "1.23 W");
        assert_eq!(format!("{}", MilliWatts::new(0.42)), "0.42 mW");
    }

    #[test]
    fn min_max_abs() {
        let a = Watts::new(-2.0);
        let b = Watts::new(1.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.abs().value(), 2.0);
    }
}
