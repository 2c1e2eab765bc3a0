//! # refocus
//!
//! A from-scratch Rust reproduction of **ReFOCUS: Reusing Light for
//! Efficient Fourier Optics-Based Photonic Neural Network Accelerator**
//! (Li, Yang, Wong, Sorger, Gupta — MICRO 2023).
//!
//! This root crate re-exports the whole workspace:
//!
//! * [`photonics`] — FFTs, the JTC field model, photonic components,
//!   optical buffers, WDM, noise.
//! * [`nn`] — tensors, reference convolution, the CNN workload zoo, row
//!   tiling, quantization, weight sharing, channel reordering.
//! * [`memsim`] — SRAM/DRAM/data-buffer energy and area models.
//! * [`arch`] — the architecture simulator (perf/energy/area/DSE) and
//!   baselines.
//! * [`experiments`] — regenerates every table and figure of the paper.
//! * [`prelude`] — the handful of items most programs need.
//!
//! ```
//! use refocus::prelude::*;
//!
//! let report = simulate(&models::resnet34(), &AcceleratorConfig::refocus_fb())?;
//! println!(
//!     "ReFOCUS-FB, ResNet-34: {:.0} FPS / {:.1} W",
//!     report.metrics.fps, report.metrics.power_w
//! );
//! # Ok::<(), refocus::arch::error::SimError>(())
//! ```

#![warn(missing_docs)]

pub use refocus_arch as arch;
pub use refocus_experiments as experiments;
pub use refocus_memsim as memsim;
pub use refocus_nn as nn;
pub use refocus_photonics as photonics;

/// The items most programs need: the simulator entry points, the
/// configuration, the reports, the workload zoo and the JTC.
pub mod prelude {
    pub use refocus_arch::config::{AcceleratorConfig, OpticalBufferKind};
    pub use refocus_arch::simulator::{simulate, simulate_suite, Report, SuiteReport};
    pub use refocus_nn::layer::{ConvSpec, Network};
    pub use refocus_nn::models;
    pub use refocus_photonics::jtc::Jtc;
}
