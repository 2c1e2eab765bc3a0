//! §7.3: DRAM, weight sharing, and channel reordering.
//!
//! Three claims reproduced:
//! 1. With HBM2 profiling, DRAM can exceed 50% of ReFOCUS-FB's power.
//! 2. Sharing 3×3 kernels against a 256-entry codebook compresses 8-bit
//!    weights ~4.5×, cutting DRAM energy accordingly (up to 52% total).
//! 3. Simulated-annealing channel reordering cuts weight-DAC loads ~15%
//!    under a typical setup, worth ~4.7% system power for ReFOCUS-FF.

use crate::render::{fmt_f, Experiment, Table};
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::energy::EnergyOptions;
use refocus_arch::simulator::{simulate, simulate_with_options};
use refocus_nn::models;
use refocus_nn::reorder::{anneal_channel_order, synthetic_assignments, AnnealingSchedule};
use refocus_nn::tensor::Tensor4;
use refocus_nn::weight_sharing::SharedWeights;

/// Results of the §7.3 study.
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    /// DRAM share of ReFOCUS-FB power with HBM2 profiling.
    pub dram_share: f64,
    /// Weight-sharing compression ratio (8-bit, 3×3, 256-entry codebook).
    pub compression_ratio: f64,
    /// Total-energy reduction from weight sharing with DRAM enabled.
    pub energy_reduction_with_sharing: f64,
    /// Weight-DAC load reduction from SA channel reordering.
    pub reorder_reduction: f64,
    /// System-power reduction that reordering buys ReFOCUS-FF.
    pub system_power_reduction: f64,
}

/// Runs the study (deterministic seeds).
pub fn compute() -> Study {
    let net = models::resnet50();

    // (1) DRAM share.
    let mut with_dram = AcceleratorConfig::refocus_fb();
    with_dram.include_dram = true;
    let r = simulate(&net, &with_dram).expect("maps");
    let dram_share = r.energy.dram / r.energy.total();

    // (2) Weight sharing.
    let weights = Tensor4::random(128, 128, 3, 3, -1.0, 1.0, 7);
    let shared = SharedWeights::cluster(&weights, 256, 2, 11).expect("clusterable");
    let compression_ratio = shared.compression_ratio(8);
    let mut compressed = with_dram.clone();
    compressed.weight_compression = compression_ratio;
    let rc = simulate(&net, &compressed).expect("maps");
    let energy_reduction_with_sharing = 1.0 - rc.metrics.energy_j / r.metrics.energy_j;

    // (3) Channel reordering.
    let assignments = synthetic_assignments(64, 64, 16, 3);
    let reorder = anneal_channel_order(&assignments, AnnealingSchedule::default(), 5)
        .expect("valid assignments");
    let reorder_reduction = reorder.reduction();
    let ff = AcceleratorConfig::refocus_ff();
    let ff34 = simulate(&models::resnet34(), &ff).expect("maps");
    let opts = EnergyOptions {
        weight_dac_load_factor: 1.0 - reorder_reduction,
        ..EnergyOptions::default()
    };
    let ff34_opt = simulate_with_options(&models::resnet34(), &ff, opts).expect("maps");
    let system_power_reduction = 1.0 - ff34_opt.metrics.power_w / ff34.metrics.power_w;

    Study {
        dram_share,
        compression_ratio,
        energy_reduction_with_sharing,
        reorder_reduction,
        system_power_reduction,
    }
}

/// Regenerates the §7.3 numbers.
pub fn run() -> Experiment {
    let s = compute();
    let mut t = Table::new(
        "DRAM, weight sharing, channel reordering",
        &["quantity", "measured", "paper"],
    );
    t.push_row(vec![
        "DRAM share of FB power (HBM2)".into(),
        format!("{:.1}%", s.dram_share * 100.0),
        ">50% (can reach)".into(),
    ]);
    t.push_row(vec![
        "weight-sharing compression".into(),
        format!("{}x", fmt_f(s.compression_ratio)),
        "4.5x".into(),
    ]);
    t.push_row(vec![
        "total energy cut w/ sharing".into(),
        format!("{:.0}%", s.energy_reduction_with_sharing * 100.0),
        "up to 52%".into(),
    ]);
    t.push_row(vec![
        "weight-DAC loads cut by SA reordering".into(),
        format!("{:.0}%", s.reorder_reduction * 100.0),
        "~15%".into(),
    ]);
    t.push_row(vec![
        "FF system power cut".into(),
        format!("{:.1}%", s.system_power_reduction * 100.0),
        "~4.7%".into(),
    ]);
    Experiment::new(
        "sec7_3",
        "Sec. 7.3: DRAM, weight sharing, channel reordering",
    )
    .with_table(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_can_dominate() {
        let s = compute();
        assert!(s.dram_share > 0.3, "share = {}", s.dram_share);
    }

    #[test]
    fn compression_near_4_5x() {
        let s = compute();
        assert!(
            (3.4..4.7).contains(&s.compression_ratio),
            "ratio = {}",
            s.compression_ratio
        );
    }

    #[test]
    fn sharing_cuts_total_energy_substantially() {
        let s = compute();
        assert!(
            (0.2..0.6).contains(&s.energy_reduction_with_sharing),
            "cut = {} (paper up to 0.52)",
            s.energy_reduction_with_sharing
        );
    }

    #[test]
    fn sharing_cut_uses_the_measured_compression() {
        let s = compute();
        let net = models::resnet50();
        let mut with_dram = AcceleratorConfig::refocus_fb();
        with_dram.include_dram = true;
        let mut compressed = with_dram.clone();
        compressed.weight_compression = s.compression_ratio;
        let plain = simulate(&net, &with_dram).expect("maps");
        let shared = simulate(&net, &compressed).expect("maps");
        let cut = 1.0 - shared.metrics.energy_j / plain.metrics.energy_j;
        assert_eq!(
            cut.to_bits(),
            s.energy_reduction_with_sharing.to_bits(),
            "cut {} != {} from the measured {}x compression",
            s.energy_reduction_with_sharing,
            cut,
            s.compression_ratio
        );
    }

    #[test]
    fn reordering_double_digit_reduction() {
        let s = compute();
        assert!(
            (0.08..0.4).contains(&s.reorder_reduction),
            "reduction = {} (paper ~0.15)",
            s.reorder_reduction
        );
    }

    #[test]
    fn system_power_benefit_is_single_digit_percent() {
        let s = compute();
        assert!(
            (0.01..0.12).contains(&s.system_power_reduction),
            "cut = {} (paper 0.047)",
            s.system_power_reduction
        );
    }
}
