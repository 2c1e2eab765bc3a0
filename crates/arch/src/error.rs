//! Unified simulation error hierarchy.
//!
//! Every fallible entry point of the simulator — [`simulate`],
//! [`simulate_suite`] and the [`FaultCampaign`](crate::campaign) runner —
//! returns [`SimError`], one enum covering
//! configuration, mapping, and dynamic-range failures. Callers match on
//! the variant instead of juggling per-layer error types; the underlying
//! typed errors stay reachable through [`std::error::Error::source`] and
//! the `From` conversions.
//!
//! [`simulate`]: crate::simulator::simulate
//! [`simulate_suite`]: crate::simulator::simulate_suite

use crate::config::ConfigError;
use refocus_nn::tiling::TilingError;
use refocus_photonics::faults::FaultSpecError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Any error the simulator's entry points can return.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The accelerator configuration violates a structural invariant
    /// (caught by [`AcceleratorConfig::validate`](crate::config::AcceleratorConfig::validate)
    /// before any model runs).
    Config(ConfigError),
    /// A layer cannot map onto the configured JTC geometry.
    Tiling(TilingError),
    /// A fault-campaign specification has an out-of-range parameter.
    Fault(FaultSpecError),
    /// The optical buffer's replay dynamic range exceeds what the
    /// photodetector/ADC can absorb, and no feasible degradation exists
    /// (§5.4.2) — e.g. even a single reuse through the configured delay
    /// line spreads signals beyond the converter's levels.
    DynamicRange {
        /// Spread (max/min replay power) the configuration demands.
        required: f64,
        /// Spread the photodetector/ADC budget supports.
        supported: f64,
    },
    /// The network has no layers; latency would be zero and every derived
    /// metric undefined.
    EmptyNetwork {
        /// The offending network's name.
        network: String,
    },
    /// A suite simulation was asked to aggregate zero networks; geomean
    /// metrics would be undefined.
    EmptySuite,
    /// A worker panicked while computing one cell of a parallel fan-out.
    /// The [`grid`](crate::grid) core confines the panic to that cell's
    /// outcome instead of aborting the whole grid.
    WorkerPanic {
        /// Index of the work item in its fan-out (grid order).
        item: usize,
        /// The panic payload's message.
        message: String,
    },
    /// The numerical firewall (see [`crate::guard`]) found a NaN,
    /// infinity, or out-of-bounds magnitude crossing a simulator
    /// boundary. Surfacing this as a typed error keeps one poisoned
    /// value from silently propagating into geomean aggregates.
    NonFinite {
        /// Which guarded boundary tripped (e.g. `"jtc-output"`,
        /// `"campaign-output"`, `"metrics"`).
        stage: &'static str,
        /// Index of the offending element within the guarded slice.
        index: usize,
    },
    /// A checkpoint journal could not be created, read, or appended to,
    /// or it belongs to a different run configuration.
    Checkpoint {
        /// What went wrong (includes the journal path).
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Tiling(e) => write!(f, "layer mapping failed: {e}"),
            SimError::Fault(e) => write!(f, "invalid fault specification: {e}"),
            SimError::DynamicRange {
                required,
                supported,
            } => write!(
                f,
                "optical buffer dynamic range {required:.3e} exceeds the \
                 {supported:.0}x photodetector/ADC budget and no feasible \
                 reuse fallback exists"
            ),
            SimError::EmptyNetwork { network } => {
                write!(f, "network '{network}' has no layers to simulate")
            }
            SimError::EmptySuite => write!(f, "cannot simulate an empty workload suite"),
            SimError::WorkerPanic { item, message } => {
                write!(f, "worker panicked on item {item}: {message}")
            }
            SimError::NonFinite { stage, index } => {
                write!(
                    f,
                    "non-finite or out-of-bounds value at index {index} of the \
                     {stage} boundary"
                )
            }
            SimError::Checkpoint { message } => write!(f, "checkpoint journal error: {message}"),
        }
    }
}

/// Serializable classification of a [`SimError`] — the form failure
/// records take inside persisted reports, where the full typed error
/// (which borrows `&'static str` diagnostics from several crates) cannot
/// round-trip through JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// [`SimError::WorkerPanic`].
    WorkerPanic,
    /// [`SimError::NonFinite`].
    NonFinite,
    /// [`SimError::DynamicRange`].
    DynamicRange,
    /// [`SimError::Config`].
    Config,
    /// [`SimError::Tiling`].
    Tiling,
    /// [`SimError::Fault`].
    Fault,
    /// [`SimError::Checkpoint`].
    Checkpoint,
    /// [`SimError::EmptyNetwork`] / [`SimError::EmptySuite`].
    Empty,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            FailureKind::WorkerPanic => "worker-panic",
            FailureKind::NonFinite => "non-finite",
            FailureKind::DynamicRange => "dynamic-range",
            FailureKind::Config => "config",
            FailureKind::Tiling => "tiling",
            FailureKind::Fault => "fault",
            FailureKind::Checkpoint => "checkpoint",
            FailureKind::Empty => "empty",
        };
        f.write_str(label)
    }
}

impl SimError {
    /// The serializable classification of this error.
    pub fn kind(&self) -> FailureKind {
        match self {
            SimError::Config(_) => FailureKind::Config,
            SimError::Tiling(_) => FailureKind::Tiling,
            SimError::Fault(_) => FailureKind::Fault,
            SimError::DynamicRange { .. } => FailureKind::DynamicRange,
            SimError::EmptyNetwork { .. } | SimError::EmptySuite => FailureKind::Empty,
            SimError::WorkerPanic { .. } => FailureKind::WorkerPanic,
            SimError::NonFinite { .. } => FailureKind::NonFinite,
            SimError::Checkpoint { .. } => FailureKind::Checkpoint,
        }
    }

    /// Whether a retry with a different reserved fault-injector epoch
    /// could plausibly succeed. Panics and non-finite blowups can come
    /// from one pathological stream realization; configuration, mapping,
    /// and spec errors are deterministic in the inputs and never retried.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::WorkerPanic { .. }
                | SimError::NonFinite { .. }
                | SimError::DynamicRange { .. }
        )
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Tiling(e) => Some(e),
            SimError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<TilingError> for SimError {
    fn from(e: TilingError) -> Self {
        SimError::Tiling(e)
    }
}

impl From<FaultSpecError> for SimError {
    fn from(e: FaultSpecError) -> Self {
        SimError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = SimError::from(ConfigError::ZeroParameter("tile"));
        assert!(e.to_string().contains("invalid configuration"));
        let e = SimError::DynamicRange {
            required: 4.8e4,
            supported: 256.0,
        };
        assert!(e.to_string().contains("256"));
        assert!(SimError::EmptySuite.to_string().contains("empty"));
        let e = SimError::EmptyNetwork {
            network: "x".into(),
        };
        assert!(e.to_string().contains("no layers"));
    }

    #[test]
    fn resilience_variants_display_and_classify() {
        let e = SimError::WorkerPanic {
            item: 3,
            message: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("item 3"));
        assert_eq!(e.kind(), FailureKind::WorkerPanic);
        assert!(e.is_transient());

        let e = SimError::NonFinite {
            stage: "jtc-output",
            index: 17,
        };
        assert!(e.to_string().contains("jtc-output"));
        assert_eq!(e.kind(), FailureKind::NonFinite);
        assert!(e.is_transient());

        let e = SimError::Checkpoint {
            message: "bad journal".into(),
        };
        assert!(e.to_string().contains("bad journal"));
        assert!(!e.is_transient());

        assert!(!SimError::EmptySuite.is_transient());
        assert_eq!(
            SimError::from(ConfigError::ZeroParameter("tile")).kind(),
            FailureKind::Config
        );
    }

    #[test]
    fn failure_kind_round_trips_through_json() {
        for kind in [
            FailureKind::WorkerPanic,
            FailureKind::NonFinite,
            FailureKind::DynamicRange,
            FailureKind::Config,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: FailureKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
    }

    #[test]
    fn sources_reach_underlying_errors() {
        use std::error::Error;
        let e = SimError::from(ConfigError::BufferWithoutDelay);
        assert!(e.source().is_some());
        assert!(SimError::EmptySuite.source().is_none());
    }
}
