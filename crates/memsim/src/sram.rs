//! Analytical SRAM model (the repo's CACTI substitute).
//!
//! The paper uses CACTI 6.0 \[43\] to model the area, leakage, and access
//! energy of every SRAM and buffer. CACTI is a closed C++ tool; this module
//! substitutes an analytical model with CACTI-like scaling laws, anchored to
//! the facts the paper states:
//!
//! * the 4 MB shared activation SRAM has **>4× the access energy** of a
//!   512 KB weight SRAM (§5.2) — reproduced by an `(capacity)^(2/3)`
//!   per-byte energy law (8× capacity → 4× energy);
//! * SRAM + buffers together occupy **12.4 mm²** for ~12.4 MB of storage
//!   (Fig. 9) — ≈1 mm² per MB at the paper's monolithic node.
//!
//! Absolute per-access energies are set to representative 14 nm values;
//! the experiments report *relative* behaviour.

use refocus_photonics::units::{PicoJoules, SquareMillimeters, Watts};
use serde::{Deserialize, Serialize};

/// One kibibyte.
pub const KIB: usize = 1024;
/// One mebibyte.
pub const MIB: usize = 1024 * 1024;

/// An SRAM macro of a given capacity.
///
/// # Examples
///
/// ```
/// use refocus_memsim::sram::{Sram, KIB, MIB};
///
/// let weight = Sram::new(512 * KIB);
/// let activation = Sram::new(4 * MIB);
/// // §5.2: the big shared SRAM costs >4x per access.
/// let ratio = activation.energy_per_byte().value() / weight.energy_per_byte().value();
/// assert!(ratio > 3.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sram {
    capacity_bytes: usize,
    /// Per-byte access energy at the 512 KB reference point.
    reference_energy: PicoJoules,
    /// Capacity scaling exponent for access energy.
    energy_exponent: f64,
    /// Area density in mm² per MiB.
    density_mm2_per_mib: f64,
    /// Leakage power per MiB.
    leakage_per_mib: Watts,
}

impl Sram {
    /// Reference capacity the energy anchor is specified at.
    pub const REFERENCE_CAPACITY: usize = 512 * KIB;
    /// Per-byte access energy of a 512 KB macro. Calibrated (DESIGN.md §2)
    /// so the baseline system's §3 total of 15.7 W reproduces: 0.2 pJ/B
    /// at 512 KB → 0.8 pJ/B at 4 MB, i.e. ~25 fJ/bit burst reads, an
    /// aggressive but plausible 14 nm banked-SRAM figure.
    pub const REFERENCE_ENERGY: PicoJoules = PicoJoules::new(0.2);
    /// Energy ∝ capacity^(2/3): 8× capacity → 4× per-access energy,
    /// matching the §5.2 ">4×" statement.
    pub const DEFAULT_ENERGY_EXPONENT: f64 = 2.0 / 3.0;
    /// ≈1 mm²/MiB, matching Fig. 9's 12.4 mm² for ~12.4 MB.
    pub const DEFAULT_DENSITY: f64 = 1.0;
    /// Leakage per MiB (14 nm-class, ~5 mW/MiB).
    pub const DEFAULT_LEAKAGE_PER_MIB: Watts = Watts::new(5e-3);

    /// Creates an SRAM of `capacity_bytes` with default scaling parameters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "SRAM capacity must be positive");
        Self {
            capacity_bytes,
            reference_energy: Self::REFERENCE_ENERGY,
            energy_exponent: Self::DEFAULT_ENERGY_EXPONENT,
            density_mm2_per_mib: Self::DEFAULT_DENSITY,
            leakage_per_mib: Self::DEFAULT_LEAKAGE_PER_MIB,
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Per-byte access energy:
    /// `E_ref · (capacity / 512 KiB)^(2/3)`, floored at small sizes by the
    /// bitline/periphery cost (10% of the reference).
    pub fn energy_per_byte(&self) -> PicoJoules {
        let ratio = self.capacity_bytes as f64 / Self::REFERENCE_CAPACITY as f64;
        let scaled = self.reference_energy.value() * ratio.powf(self.energy_exponent);
        PicoJoules::new(scaled.max(self.reference_energy.value() * 0.1))
    }

    /// Energy for accessing `bytes` bytes (reads and writes modelled alike).
    pub fn access_energy(&self, bytes: u64) -> PicoJoules {
        self.energy_per_byte() * bytes as f64
    }

    /// Macro area.
    pub fn area(&self) -> SquareMillimeters {
        SquareMillimeters::new(self.capacity_bytes as f64 / MIB as f64 * self.density_mm2_per_mib)
    }

    /// Static leakage power.
    pub fn leakage(&self) -> Watts {
        self.leakage_per_mib * (self.capacity_bytes as f64 / MIB as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_energy_ratio_anchor() {
        let weight = Sram::new(512 * KIB);
        let act = Sram::new(4 * MIB);
        let ratio = act.energy_per_byte().value() / weight.energy_per_byte().value();
        assert!((ratio - 4.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn energy_monotone_in_capacity() {
        let mut prev = 0.0;
        for cap in [16 * KIB, 64 * KIB, 512 * KIB, MIB, 4 * MIB] {
            let e = Sram::new(cap).energy_per_byte().value();
            assert!(e >= prev, "cap {cap}");
            prev = e;
        }
    }

    #[test]
    fn tiny_buffers_hit_the_floor() {
        // A 1 KB buffer is far cheaper than main SRAM but not free.
        let buf = Sram::new(KIB);
        assert!(buf.energy_per_byte().value() >= 0.1 * Sram::REFERENCE_ENERGY.value());
        assert!(buf.energy_per_byte().value() < Sram::new(512 * KIB).energy_per_byte().value());
    }

    #[test]
    fn area_matches_fig9_scale() {
        // 4 MB activation + 16x512 KB weight = 12 MB -> ~12 mm² (Fig. 9
        // reports 12.4 mm² including buffers).
        let total = Sram::new(4 * MIB).area().value() + 16.0 * Sram::new(512 * KIB).area().value();
        assert!((11.0..13.0).contains(&total), "area = {total}");
    }

    #[test]
    fn access_energy_scales_linearly_with_bytes() {
        let s = Sram::new(MIB);
        let one = s.access_energy(1).value();
        let many = s.access_energy(1000).value();
        assert!((many - 1000.0 * one).abs() < 1e-9);
    }

    #[test]
    fn leakage_proportional_to_capacity() {
        let a = Sram::new(MIB).leakage().value();
        let b = Sram::new(4 * MIB).leakage().value();
        assert!((b - 4.0 * a).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Sram::new(0);
    }
}
