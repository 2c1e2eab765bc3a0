//! DRAM (HBM2) access-energy model (paper §7.3).
//!
//! The paper profiles DRAM with the HBM2 access energy of O'Connor et al.
//! \[44\] — ~3.9 pJ/bit end to end — and observes that once computation and
//! on-chip SRAM are optimized, DRAM can exceed 50% of ReFOCUS-FB's total
//! power. ReFOCUS never *writes* DRAM during inference (activations live in
//! the 4 MB SRAM); reads stream weights (and the initial input image).

use refocus_photonics::units::{Joules, PicoJoules};
use serde::{Deserialize, Serialize};

/// An HBM2-class DRAM interface.
///
/// # Examples
///
/// ```
/// use refocus_memsim::dram::Dram;
///
/// let dram = Dram::hbm2();
/// // Streaming 1 MB of weights:
/// let e = dram.read_energy(1 << 20);
/// assert!((e.value() - (1 << 20) as f64 * 31.2).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dram {
    energy_per_byte: PicoJoules,
}

impl Dram {
    /// HBM2 access energy: 3.9 pJ/bit = 31.2 pJ/byte \[44\].
    pub const HBM2_ENERGY_PER_BYTE: PicoJoules = PicoJoules::new(31.2);
    /// HBM3-class improvement the paper mentions as future relief (~2x).
    pub const HBM3_ENERGY_PER_BYTE: PicoJoules = PicoJoules::new(15.6);

    /// Creates an HBM2 interface.
    pub fn hbm2() -> Self {
        Self {
            energy_per_byte: Self::HBM2_ENERGY_PER_BYTE,
        }
    }

    /// Per-byte access energy.
    pub fn energy_per_byte(&self) -> PicoJoules {
        self.energy_per_byte
    }

    /// Energy to read `bytes` bytes.
    pub fn read_energy(&self, bytes: u64) -> PicoJoules {
        self.energy_per_byte * bytes as f64
    }

    /// Energy to read `bytes` bytes, in joules.
    pub fn read_energy_joules(&self, bytes: u64) -> Joules {
        self.read_energy(bytes).to_joules()
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::hbm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2_per_bit_value() {
        // 3.9 pJ/bit.
        assert!((Dram::hbm2().energy_per_byte().value() / 8.0 - 3.9).abs() < 1e-12);
    }

    #[test]
    fn hbm3_halves_energy() {
        assert!(
            (Dram::HBM3_ENERGY_PER_BYTE.value() * 2.0 - Dram::hbm2().energy_per_byte().value())
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn read_energy_linear() {
        let d = Dram::hbm2();
        assert_eq!(d.read_energy(0).value(), 0.0);
        assert!((d.read_energy(100).value() - 3120.0).abs() < 1e-9);
    }

    #[test]
    fn dram_dwarfs_sram_per_byte() {
        // The §7.3 observation only makes sense if DRAM/byte >> SRAM/byte.
        let sram = crate::sram::Sram::new(4 * crate::sram::MIB);
        let ratio = Dram::hbm2().energy_per_byte().value() / sram.energy_per_byte().value();
        assert!(ratio > 3.0, "ratio = {ratio}");
    }

    #[test]
    fn joules_conversion() {
        let j = Dram::hbm2().read_energy_joules(1);
        assert!((j.value() - 31.2e-12).abs() < 1e-20);
    }
}
