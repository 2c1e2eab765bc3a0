//! RFCU component inventory.
//!
//! Translates an [`AcceleratorConfig`] into concrete component counts — how
//! many DACs, ADCs, MRRs, lenses, photodetectors, delay lines, lasers, and
//! Y-junctions the system instantiates. The energy and area models consume
//! these counts.
//!
//! Two counts need justification (see DESIGN.md §2):
//!
//! * **Input DACs = `T`** (not `T·N_λ`): Table 7 books WDM as 2× *input
//!   reuse*, and the §7.3 DAC-share percentages (90%/53% weight share for
//!   FB/FF) only reproduce with one input DAC per waveguide — each DAC's
//!   output is shared by the per-wavelength modulator MRRs.
//! * **Weight DACs = `25·N_RFCU`** (not ×`N_λ`), for the same reason.
//!
//! MRRs *do* scale with `N_λ` (Fig. 5 shows one ring per wavelength), as do
//! laser wavelengths.

use crate::config::{AcceleratorConfig, OpticalBufferKind};
use refocus_nn::tiling::MAX_ACTIVE_WEIGHT_TAPS;
use serde::{Deserialize, Serialize};

/// Concrete component counts for a configured system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentCounts {
    /// High-speed input DACs (shared across RFCUs via broadcasting).
    pub input_dacs: usize,
    /// High-speed weight DACs (25 per RFCU).
    pub weight_dacs: usize,
    /// ADCs (one per output waveguide per RFCU; shared across wavelengths).
    pub adcs: usize,
    /// Input modulator MRRs (per waveguide per wavelength).
    pub input_mrrs: usize,
    /// Weight modulator MRRs (per weight waveguide per wavelength per RFCU).
    pub weight_mrrs: usize,
    /// Switch MRRs gating feedback buffers (per buffered waveguide).
    pub switch_mrrs: usize,
    /// Photodetectors (shared across wavelengths).
    pub photodetectors: usize,
    /// On-chip lenses (two per RFCU, shared across wavelengths by WDM).
    pub lenses: usize,
    /// Delay lines (one per input waveguide, before the broadcast tree).
    pub delay_lines: usize,
    /// Y-junctions in the broadcast trees and optical buffers.
    pub y_junctions: usize,
    /// Laser sources (one per wavelength).
    pub lasers: usize,
    /// Laser-fed optical channels: input waveguides × wavelengths ×
    /// broadcast fan-out, plus weight waveguides × wavelengths. Sets the
    /// minimum-detectable-power budget.
    pub laser_channels: usize,
    /// CMOS compute units (two per RFCU: input generation and output
    /// processing).
    pub ccus: usize,
}

impl ComponentCounts {
    /// Derives the counts from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`AcceleratorConfig::validate`] first).
    pub fn of(config: &AcceleratorConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let t = config.tile;
        let n = config.rfcus;
        let w = MAX_ACTIVE_WEIGHT_TAPS;
        let nl = config.wavelengths;

        let has_buffer = config.optical_buffer != OpticalBufferKind::None;
        let switch_mrrs = match config.optical_buffer {
            // One switch ring per buffered input waveguide per wavelength.
            OpticalBufferKind::FeedBack { .. } => t * nl,
            _ => 0,
        };
        // Broadcast tree: each input waveguide splits 1->N with N-1
        // junctions. Buffers add 1 (FB) or 2 (FF) junctions per waveguide.
        let buffer_junctions = match config.optical_buffer {
            OpticalBufferKind::None => 0,
            OpticalBufferKind::FeedBack { .. } => t,
            OpticalBufferKind::FeedForward => 2 * t,
        };
        let y_junctions = t * (n.saturating_sub(1)) + buffer_junctions;
        // Delay lines sit before the broadcast tree and are shared by all
        // wavelengths on a waveguide.
        let delay_lines = if has_buffer { t } else { 0 };

        Self {
            input_dacs: t,
            weight_dacs: w * n,
            adcs: t * n,
            input_mrrs: t * nl,
            weight_mrrs: w * nl * n,
            switch_mrrs,
            photodetectors: t * n,
            lenses: 2 * n,
            delay_lines,
            y_junctions,
            lasers: nl,
            laser_channels: t * nl * n + w * nl * n,
            ccus: 2 * n,
        }
    }

    /// Total high-speed DACs.
    pub fn total_dacs(&self) -> usize {
        self.input_dacs + self.weight_dacs
    }

    /// Total MRRs of every role.
    pub fn total_mrrs(&self) -> usize {
        self.input_mrrs + self.weight_mrrs + self.switch_mrrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;

    #[test]
    fn refocus_fb_counts() {
        let c = ComponentCounts::of(&AcceleratorConfig::refocus_fb());
        assert_eq!(c.input_dacs, 256);
        assert_eq!(c.weight_dacs, 400);
        assert_eq!(c.adcs, 4096);
        assert_eq!(c.input_mrrs, 512);
        assert_eq!(c.weight_mrrs, 800);
        assert_eq!(c.switch_mrrs, 512);
        assert_eq!(c.photodetectors, 4096);
        assert_eq!(c.lenses, 32);
        assert_eq!(c.delay_lines, 256);
        assert_eq!(c.lasers, 2);
        assert_eq!(c.ccus, 32);
    }

    #[test]
    fn baseline_has_no_buffer_hardware() {
        let c = ComponentCounts::of(&AcceleratorConfig::photofourier_baseline());
        assert_eq!(c.switch_mrrs, 0);
        assert_eq!(c.delay_lines, 0);
        assert_eq!(c.input_mrrs, 256); // one wavelength
        assert_eq!(c.weight_mrrs, 400);
        // Broadcast tree only.
        assert_eq!(c.y_junctions, 256 * 15);
    }

    #[test]
    fn feedforward_doubles_buffer_junctions() {
        let ff = ComponentCounts::of(&AcceleratorConfig::refocus_ff());
        let fb = ComponentCounts::of(&AcceleratorConfig::refocus_fb());
        assert_eq!(ff.y_junctions - 256 * 15, 512);
        assert_eq!(fb.y_junctions - 256 * 15, 256);
        assert_eq!(ff.switch_mrrs, 0);
        assert_eq!(fb.switch_mrrs, 512);
    }

    #[test]
    fn single_jtc_is_minimal() {
        let c = ComponentCounts::of(&AcceleratorConfig::single_jtc());
        assert_eq!(c.lenses, 2);
        assert_eq!(c.adcs, 256);
        assert_eq!(c.y_junctions, 0);
        assert_eq!(c.laser_channels, 256 + 25);
    }

    #[test]
    fn dacs_do_not_scale_with_wavelengths() {
        // The DESIGN.md §2 calibration decision.
        let one = ComponentCounts::of(&AcceleratorConfig::photofourier_baseline());
        let two = ComponentCounts::of(&AcceleratorConfig::refocus_ff());
        assert_eq!(one.input_dacs, two.input_dacs);
        assert_eq!(one.weight_dacs, two.weight_dacs);
        // But MRRs do.
        assert_eq!(two.input_mrrs, 2 * one.input_mrrs);
    }

    #[test]
    fn totals() {
        let c = ComponentCounts::of(&AcceleratorConfig::refocus_fb());
        assert_eq!(c.total_dacs(), 656);
        assert_eq!(c.total_mrrs(), 512 + 800 + 512);
    }
}
