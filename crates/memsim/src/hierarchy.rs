//! Access-count ledger: turning traffic into energy.
//!
//! The dataflow model counts *accesses* (bytes moved per level); this module
//! turns those counts into energy using the SRAM/DRAM/buffer models, and
//! keeps a per-level breakdown the experiments can render.

use crate::buffers::DataBuffers;
use crate::dram::Dram;
use crate::sram::Sram;
use refocus_photonics::units::Joules;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A memory level traffic is charged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// The 4 MB shared activation SRAM.
    ActivationSram,
    /// A per-RFCU 512 KB weight SRAM.
    WeightSram,
    /// The shared input data buffer.
    InputBuffer,
    /// A per-RFCU output data buffer.
    OutputBuffer,
    /// Off-chip DRAM (HBM2).
    Dram,
}

impl Level {
    /// All levels, in reporting order.
    pub const ALL: [Level; 5] = [
        Level::ActivationSram,
        Level::WeightSram,
        Level::InputBuffer,
        Level::OutputBuffer,
        Level::Dram,
    ];

    /// Stable snake_case identifier used as the attribution-ledger
    /// component key for this level (the human-facing label is
    /// [`fmt::Display`]).
    pub fn id(&self) -> &'static str {
        match self {
            Level::ActivationSram => "activation_sram",
            Level::WeightSram => "weight_sram",
            Level::InputBuffer => "input_buffer",
            Level::OutputBuffer => "output_buffer",
            Level::Dram => "dram",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::ActivationSram => "activation SRAM",
            Level::WeightSram => "weight SRAM",
            Level::InputBuffer => "input buffer",
            Level::OutputBuffer => "output buffer",
            Level::Dram => "DRAM",
        };
        f.write_str(s)
    }
}

/// Byte-traffic totals per memory level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Traffic {
    /// Bytes into/out of the activation SRAM.
    pub activation_sram: u64,
    /// Bytes into/out of the weight SRAMs.
    pub weight_sram: u64,
    /// Bytes through the input buffer.
    pub input_buffer: u64,
    /// Bytes through the output buffers.
    pub output_buffer: u64,
    /// Bytes read from DRAM.
    pub dram: u64,
}

impl Traffic {
    /// Element-wise sum of two traffic records.
    pub fn merged(self, other: Traffic) -> Traffic {
        Traffic {
            activation_sram: self.activation_sram + other.activation_sram,
            weight_sram: self.weight_sram + other.weight_sram,
            input_buffer: self.input_buffer + other.input_buffer,
            output_buffer: self.output_buffer + other.output_buffer,
            dram: self.dram + other.dram,
        }
    }

    /// Bytes for one level.
    pub fn bytes(&self, level: Level) -> u64 {
        match level {
            Level::ActivationSram => self.activation_sram,
            Level::WeightSram => self.weight_sram,
            Level::InputBuffer => self.input_buffer,
            Level::OutputBuffer => self.output_buffer,
            Level::Dram => self.dram,
        }
    }
}

/// The memory hierarchy: macro models for every level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hierarchy {
    activation_sram: Sram,
    weight_sram: Sram,
    buffers: Option<DataBuffers>,
    dram: Dram,
}

impl Hierarchy {
    /// Builds the ReFOCUS hierarchy: 4 MB activation SRAM, 512 KB weight
    /// SRAMs, optional data buffers, HBM2 DRAM.
    pub fn new(buffers: Option<DataBuffers>) -> Self {
        Self {
            activation_sram: Sram::new(4 * crate::sram::MIB),
            weight_sram: Sram::new(512 * crate::sram::KIB),
            buffers,
            dram: Dram::hbm2(),
        }
    }

    /// Energy for one level's traffic.
    ///
    /// # Panics
    ///
    /// Panics if buffer traffic is charged while no buffers are configured.
    pub fn energy(&self, level: Level, bytes: u64) -> Joules {
        match level {
            Level::ActivationSram => self.activation_sram.access_energy(bytes).to_joules(),
            Level::WeightSram => self.weight_sram.access_energy(bytes).to_joules(),
            Level::InputBuffer => self
                .buffers
                .as_ref()
                .expect("input-buffer traffic without buffers configured")
                .input_macro()
                .access_energy(bytes)
                .to_joules(),
            Level::OutputBuffer => self
                .buffers
                .as_ref()
                .expect("output-buffer traffic without buffers configured")
                .output_macro()
                .access_energy(bytes)
                .to_joules(),
            Level::Dram => self.dram.read_energy_joules(bytes),
        }
    }

    /// Total energy of a traffic record, with per-level breakdown.
    pub fn total_energy(&self, traffic: &Traffic) -> (Joules, Vec<(Level, Joules)>) {
        let mut parts = Vec::with_capacity(Level::ALL.len());
        let mut total = Joules::ZERO;
        for level in Level::ALL {
            let e = self.energy(level, traffic.bytes(level));
            total += e;
            parts.push((level, e));
        }
        (total, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::{BufferParams, DataflowCase};

    fn hierarchy() -> Hierarchy {
        let buffers = DataBuffers::size(
            DataflowCase::NextFilter,
            &BufferParams::refocus(512, 512, 15),
        );
        Hierarchy::new(Some(buffers))
    }

    #[test]
    fn breakdown_sums_to_total() {
        let h = hierarchy();
        let t = Traffic {
            activation_sram: 1000,
            weight_sram: 2000,
            input_buffer: 3000,
            output_buffer: 4000,
            dram: 500,
        };
        let (total, parts) = h.total_energy(&t);
        let sum: Joules = parts.iter().map(|(_, e)| *e).sum();
        assert!((total.value() - sum.value()).abs() < 1e-18);
        assert_eq!(parts.len(), 5);
    }

    #[test]
    fn buffered_path_cheaper_than_direct_sram() {
        // Moving a byte through the input buffer costs less than hitting
        // the activation SRAM — the Fig. 10 "SB" optimization's premise.
        let h = hierarchy();
        let via_buffer = h.energy(Level::InputBuffer, 1_000_000);
        let via_sram = h.energy(Level::ActivationSram, 1_000_000);
        assert!(via_buffer.value() < via_sram.value() / 3.0);
    }

    #[test]
    fn dram_is_most_expensive_per_byte() {
        let h = hierarchy();
        let bytes = 1_000_000;
        let dram = h.energy(Level::Dram, bytes).value();
        for level in [
            Level::ActivationSram,
            Level::WeightSram,
            Level::InputBuffer,
            Level::OutputBuffer,
        ] {
            assert!(dram > h.energy(level, bytes).value(), "{level}");
        }
    }

    #[test]
    fn traffic_merge() {
        let a = Traffic {
            activation_sram: 1,
            weight_sram: 2,
            input_buffer: 3,
            output_buffer: 4,
            dram: 5,
        };
        let b = a.merged(a);
        assert_eq!(b.bytes(Level::ActivationSram), 2);
        assert_eq!(b.bytes(Level::Dram), 10);
    }

    #[test]
    #[should_panic(expected = "without buffers configured")]
    fn bufferless_hierarchy_rejects_buffer_traffic() {
        let h = Hierarchy::new(None);
        let _ = h.energy(Level::InputBuffer, 1);
    }

    #[test]
    fn level_display() {
        assert_eq!(Level::Dram.to_string(), "DRAM");
        assert_eq!(Level::ActivationSram.to_string(), "activation SRAM");
    }
}
