//! # refocus-arch
//!
//! Architecture simulator for ReFOCUS (Li et al., MICRO 2023): the layer
//! that turns photonic component models, the row-tiling algorithm, and the
//! memory hierarchy into throughput / power / area numbers.
//!
//! * [`config`] — design points and the paper's presets (ReFOCUS-FF/FB,
//!   PhotoFourier-NG baseline, single JTC).
//! * [`rfcu`] — component inventories.
//! * [`perf`] — cycle counts and activity factors per layer.
//! * [`energy`] — per-component energy (Fig. 3a / 8 / 10).
//! * [`area`] — chip-area breakdown (Fig. 3b / 9, Table 2).
//! * [`metrics`] — FPS/W, FPS/mm², PAP, EDP.
//! * [`simulator`] — end-to-end reports per network and suite.
//! * [`dse`] — Table 4 design-space exploration under the area budget.
//! * [`baselines`] — cited external accelerators (Fig. 12 / 13).
//! * [`functional`] — run real numbers through the optical path and check
//!   them against digital convolution.
//! * [`schedule`] — static VLIW-style instruction scheduling (§7.1).
//! * [`error`] — the unified [`error::SimError`] hierarchy.
//! * [`campaign`] — fault-injection campaign runner over the functional
//!   conv path.
//! * [`guard`] — numerical firewall at stage boundaries (NaN/∞ →
//!   [`error::SimError::NonFinite`]).
//! * [`grid`] — the one grid-execution core (journal replay, budgets,
//!   panic isolation, retries) behind the campaign, DSE and suite runners.
//! * [`checkpoint`] — append-only JSON-lines journals for resumable
//!   fault campaigns.
//! * [`attribution`] — per-layer × per-component telemetry ledger
//!   (joules / cycles / bytes) recorded into `refocus-obs`, plus the
//!   shared breakdown math the experiments render.
//!
//! ```
//! use refocus_arch::config::AcceleratorConfig;
//! use refocus_arch::simulator::simulate;
//! use refocus_nn::models;
//!
//! let report = simulate(&models::resnet18(), &AcceleratorConfig::refocus_fb())?;
//! assert!(report.metrics.fps_per_watt() > 100.0);
//! # Ok::<(), refocus_arch::error::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod area;
pub mod attribution;
pub mod baselines;
pub mod campaign;
pub mod checkpoint;
pub mod config;
pub mod dataflow;
pub mod dse;
pub mod energy;
pub mod error;
pub mod functional;
pub mod grid;
pub mod guard;
pub mod metrics;
pub mod perf;
pub mod rfcu;
pub mod schedule;
pub mod simulator;

pub use campaign::{CampaignReport, FaultCampaign};
pub use config::{AcceleratorConfig, OpticalBufferKind};
pub use error::SimError;
pub use simulator::{simulate, simulate_suite, Degradation, Report, SuiteReport};
