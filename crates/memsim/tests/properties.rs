//! Property-based invariants of the memory models.

use proptest::prelude::*;
use refocus_memsim::buffers::{BufferParams, DataBuffers, DataflowCase};
use refocus_memsim::dram::Dram;
use refocus_memsim::hierarchy::{Hierarchy, Level, Traffic};
use refocus_memsim::sram::{Sram, KIB};

proptest! {
    #[test]
    fn sram_energy_monotone_in_capacity(a in 1usize..4096, b in 1usize..4096) {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        let es = Sram::new(small * KIB).energy_per_byte().value();
        let el = Sram::new(large * KIB).energy_per_byte().value();
        prop_assert!(es <= el + 1e-15);
    }

    #[test]
    fn sram_area_and_leakage_linear(cap in 1usize..64) {
        let one = Sram::new(cap * KIB);
        let four = Sram::new(4 * cap * KIB);
        prop_assert!((four.area().value() - 4.0 * one.area().value()).abs() < 1e-9);
        prop_assert!((four.leakage().value() - 4.0 * one.leakage().value()).abs() < 1e-12);
    }

    #[test]
    fn access_energy_additive(cap in 1usize..1024, x in 0u64..1_000_000, y in 0u64..1_000_000) {
        let s = Sram::new(cap * KIB);
        let both = s.access_energy(x + y).value();
        let split = s.access_energy(x).value() + s.access_energy(y).value();
        prop_assert!((both - split).abs() < 1e-9 * both.max(1.0));
    }

    #[test]
    fn dram_always_beats_no_one(bytes in 0u64..10_000_000) {
        // DRAM per-byte cost exceeds any on-chip SRAM's for equal bytes.
        let dram = Dram::hbm2().read_energy(bytes).value();
        let sram = Sram::new(4096 * KIB).access_energy(bytes).value();
        prop_assert!(dram >= sram);
    }

    #[test]
    fn buffer_sizes_scale_with_parameters(
        tile in prop::sample::select(vec![64usize, 128, 256]),
        m in 1usize..33,
        filters in 16usize..1024,
    ) {
        let params = BufferParams {
            tile,
            delay_cycles: m,
            wavelengths: 2,
            reuses: 15,
            rfcus: 16,
            max_filters: filters,
            max_channels: filters,
            ping_pong: false,
        };
        let b = DataBuffers::size(DataflowCase::NextFilter, &params);
        prop_assert_eq!(b.input_bytes(), tile * m * 2);
        prop_assert_eq!(b.output_bytes(), tile * filters.div_ceil(16));
    }

    #[test]
    fn hierarchy_total_is_sum_of_levels(
        a in 0u64..1_000_000,
        w in 0u64..1_000_000,
        i in 0u64..1_000_000,
        o in 0u64..1_000_000,
        d in 0u64..1_000_000,
    ) {
        let buffers = DataBuffers::size(
            DataflowCase::NextFilter,
            &BufferParams::refocus(512, 512, 15),
        );
        let h = Hierarchy::new(Some(buffers));
        let t = Traffic {
            activation_sram: a,
            weight_sram: w,
            input_buffer: i,
            output_buffer: o,
            dram: d,
        };
        let (total, parts) = h.total_energy(&t);
        let sum: f64 = parts.iter().map(|(_, e)| e.value()).sum();
        prop_assert!((total.value() - sum).abs() < 1e-15 * total.value().max(1.0));
        // Per-level energies match direct queries.
        for (level, e) in parts {
            prop_assert!((h.energy(level, t.bytes(level)).value() - e.value()).abs() < 1e-18);
        }
        let _ = Level::ALL;
    }
}
