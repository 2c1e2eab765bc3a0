//! Numerical firewall at simulator stage boundaries.
//!
//! The functional path multiplies long chains of floating-point factors
//! (JTC correlation planes, drift/noise realizations, metric ratios), and
//! one NaN anywhere poisons every downstream geomean silently — the
//! aggregate still prints a number, just a meaningless one. The guards
//! here sit at the JTC→executor and executor→metrics boundaries and turn
//! a poisoned value into a typed [`SimError::NonFinite`] naming the stage
//! and element index, so a fault campaign records the cell as failed
//! instead of folding garbage into its error statistics.
//!
//! Guards check two things: finiteness (no NaN, no ±∞) and a magnitude
//! ceiling ([`MAX_MAGNITUDE`]). The ceiling catches values that are still
//! technically finite but have clearly left the physical regime — an
//! optical intensity of 1e300 means an upstream model diverged, and it
//! would overflow to infinity a few multiplications later anyway.

use crate::error::SimError;
use std::fmt;

/// Largest magnitude a guarded value may take.
///
/// Every physically meaningful quantity in the simulator — normalized
/// intensities, pre-activation sums, FPS/W-style metrics — sits many
/// orders of magnitude below this. The bound is deliberately loose so it
/// never trips on legitimate dynamic range, only on divergence.
pub const MAX_MAGNITUDE: f64 = 1e12;

/// A guard violation: where it happened and what the value was.
///
/// Converts into [`SimError::NonFinite`] (dropping the value, which may
/// itself be NaN and therefore useless in comparisons) via `From`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardViolation {
    /// The guarded boundary (e.g. `"jtc-output"`, `"metrics"`).
    pub stage: &'static str,
    /// Index of the offending element within the guarded slice.
    pub index: usize,
    /// The offending value (NaN, ±∞, or out of bounds).
    pub value: f64,
}

impl fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {} at index {} failed the {} guard",
            self.value, self.index, self.stage
        )
    }
}

impl std::error::Error for GuardViolation {}

impl From<GuardViolation> for SimError {
    fn from(v: GuardViolation) -> Self {
        SimError::NonFinite {
            stage: v.stage,
            index: v.index,
        }
    }
}

/// Checks that every element of `values` is finite and within
/// [`MAX_MAGNITUDE`].
///
/// Returns the first violation in index order, so the same poisoned
/// buffer always reports the same index regardless of thread count.
///
/// # Errors
///
/// Returns [`GuardViolation`] naming `stage`, the first offending index,
/// and the value found there.
pub fn check_finite(stage: &'static str, values: &[f64]) -> Result<(), GuardViolation> {
    for (index, &value) in values.iter().enumerate() {
        if !value.is_finite() || value.abs() > MAX_MAGNITUDE {
            return Err(GuardViolation {
                stage,
                index,
                value,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_buffers_pass() {
        let v = [0.0, 1.5, -3.0e9, f64::MIN_POSITIVE];
        assert_eq!(check_finite("jtc-output", &v), Ok(()));
        assert_eq!(check_finite("metrics", &[42.0]), Ok(()));
        assert_eq!(check_finite("jtc-output", &[]), Ok(()));
    }

    #[test]
    fn nan_reports_first_offending_index() {
        let v = [1.0, 2.0, f64::NAN, f64::NAN];
        let err = check_finite("jtc-output", &v).expect_err("NaN must trip the guard");
        assert_eq!(err.stage, "jtc-output");
        assert_eq!(err.index, 2);
        assert!(err.value.is_nan());
    }

    #[test]
    fn infinities_and_overflow_trip() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, 2.0 * MAX_MAGNITUDE] {
            let err = check_finite("metrics", &[0.0, bad]).expect_err("must trip");
            assert_eq!(err.index, 1);
        }
        // The boundary itself is allowed.
        assert_eq!(check_finite("metrics", &[MAX_MAGNITUDE]), Ok(()));
    }

    #[test]
    fn violation_converts_to_sim_error() {
        let err = check_finite("campaign-output", &[f64::NAN]).expect_err("trips");
        let sim: SimError = err.into();
        assert_eq!(
            sim,
            SimError::NonFinite {
                stage: "campaign-output",
                index: 0
            }
        );
        assert!(err.to_string().contains("campaign-output"));
    }
}
