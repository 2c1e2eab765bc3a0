//! Per-layer performance model: cycles, passes, and activity factors.
//!
//! One RFCU cycle performs one JTC pass per wavelength. For a conv layer
//! the loop nest (alternating OS/IS dataflow, §5.3) is:
//!
//! ```text
//! for spatial chunk (plan.passes)            # row tiling, §2.2
//!   for channel group (ceil(C_in / N_λ))     # OS: temporal accumulation
//!     for filter iteration (ceil(C_out / N_RFCU) × 2 pseudo-negative)
//!       one cycle per RFCU (all RFCUs in parallel, N_λ channels each)
//! ```
//!
//! Optical reuse does not change the cycle count — it lets the input DACs
//! idle while buffered light replays for the next filter iteration — so
//! throughput depends only on the tiling plan and parallelism, while the
//! energy model consumes the *activity factors* derived here.

use crate::config::AcceleratorConfig;
use refocus_nn::layer::ConvSpec;
use refocus_nn::quant::PSEUDO_NEGATIVE_LATENCY_FACTOR;
use refocus_nn::tiling::{TilingError, TilingPlan, MAX_ACTIVE_WEIGHT_TAPS};
use refocus_photonics::units::Seconds;
use serde::{Deserialize, Serialize};

/// Performance analysis of one conv layer on one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// The row-tiling plan (per channel).
    pub plan: TilingPlan,
    /// `ceil(C_in / N_λ)` — channel groups iterated per spatial chunk.
    pub channel_iterations: u64,
    /// `ceil(C_out / N_RFCU) × 2` — filter iterations including
    /// pseudo-negative doubling.
    pub filter_iterations: u64,
    /// Total RFCU cycles for the layer.
    pub cycles: u64,
    /// Cycles in which the input DACs generate *new* light (the rest replay
    /// buffered light).
    pub generation_cycles: u64,
    /// Effective uses of each generated input signal:
    /// `min(1 + R, filter_iterations)`.
    pub input_uses: u64,
    /// Effective temporal-accumulation depth:
    /// `min(config.TA, channel_iterations)` (a 3-channel first layer cannot
    /// accumulate 16 channel cycles).
    pub effective_ta: u64,
    /// Fraction of the tile's waveguides carrying data (DAC-active inputs).
    pub input_duty: f64,
    /// Fraction of weight waveguides carrying non-zero taps.
    pub weight_duty: f64,
    /// Fraction of output waveguides holding valid (kept) results.
    pub valid_output_fraction: f64,
    /// Fraction of cycles the weight DACs load *new* values. 1.0 at batch
    /// size 1; `1/batch` under weight-stationary batch interleaving.
    pub weight_load_fraction: f64,
    /// Images processed per pass through the layer (the batch size).
    pub images: u64,
}

impl LayerPerf {
    /// Analyzes `layer` on `config`.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError`] when the layer cannot be tiled onto the
    /// configured JTC at all.
    pub fn analyze(layer: &ConvSpec, config: &AcceleratorConfig) -> Result<Self, TilingError> {
        refocus_obs::counter("perf.layer_analyze.calls", 1);
        let plan = TilingPlan::plan(
            layer.input_hw,
            layer.kernel,
            layer.stride,
            layer.padding,
            config.tile,
            config.tiling_mode,
        )?;
        let channel_iterations = (layer.in_channels as u64).div_ceil(config.wavelengths as u64);
        let filter_iterations = (layer.out_channels as u64).div_ceil(config.rfcus as u64)
            * PSEUDO_NEGATIVE_LATENCY_FACTOR as u64;
        let batch = config.batch.max(1) as u64;
        let cycles = plan.passes as u64 * channel_iterations * filter_iterations * batch;

        // Batch > 1 switches to weight-stationary interleaving: weights
        // load once per batch group, but the interleaved inputs change
        // every cycle, so optical input reuse is forfeited.
        let (input_uses, weight_load_fraction) = if batch > 1 {
            (1, 1.0 / batch as f64)
        } else {
            ((config.max_input_uses() as u64).min(filter_iterations), 1.0)
        };
        let generation_cycles = cycles.div_ceil(input_uses);
        let effective_ta = (config.temporal_accumulation as u64).min(channel_iterations);

        let (_, ow) = layer.output_hw();
        let valid_elems = plan.valid_rows_per_pass * ow.min(plan.row_len);
        Ok(Self {
            plan,
            channel_iterations,
            filter_iterations,
            cycles,
            generation_cycles,
            input_uses,
            effective_ta,
            input_duty: plan.input_conversions_per_pass as f64 / config.tile as f64,
            weight_duty: plan.weight_conversions_per_pass as f64 / MAX_ACTIVE_WEIGHT_TAPS as f64,
            valid_output_fraction: (valid_elems as f64 / config.tile as f64).min(1.0),
            weight_load_fraction,
            images: batch,
        })
    }

    /// Wall-clock time of the layer at the configured clock.
    pub fn duration(&self, config: &AcceleratorConfig) -> Seconds {
        Seconds::new(self.cycles as f64 / config.clock.to_hertz())
    }
}

/// Whole-network performance: per-layer results plus totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPerf {
    /// Per-layer analyses, in execution order.
    pub layers: Vec<LayerPerf>,
    /// Total cycles for one inference (batch 1).
    pub total_cycles: u64,
}

impl NetworkPerf {
    /// Analyzes every conv layer of `network` on `config`.
    ///
    /// # Errors
    ///
    /// Returns the first layer's [`TilingError`] if any layer cannot map.
    pub fn analyze(
        network: &refocus_nn::layer::Network,
        config: &AcceleratorConfig,
    ) -> Result<Self, TilingError> {
        let _perf = refocus_obs::span_with("perf.network_analyze", || network.name().to_string());
        let recording = refocus_obs::recording();
        let mut layers = Vec::with_capacity(network.layers().len());
        let mut total_cycles = 0u64;
        for (idx, layer) in network.layers().iter().enumerate() {
            let perf = LayerPerf::analyze(layer, config)?;
            if recording {
                crate::attribution::record_layer_cycles(&config.name, network, idx, &perf);
            }
            total_cycles += perf.cycles;
            layers.push(perf);
        }
        Ok(Self {
            layers,
            total_cycles,
        })
    }

    /// Latency of one pass through the network — `batch` images.
    pub fn latency(&self, config: &AcceleratorConfig) -> Seconds {
        Seconds::new(self.total_cycles as f64 / config.clock.to_hertz())
    }

    /// Frames per second (`batch` images per pass, no pipelining across
    /// passes).
    pub fn fps(&self, config: &AcceleratorConfig) -> f64 {
        config.batch.max(1) as f64 / self.latency(config).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refocus_nn::models;

    fn layer_56() -> ConvSpec {
        ConvSpec::new("c", 64, 64, 3, 1, 1, (56, 56))
    }

    #[test]
    fn cycle_count_structure() {
        let cfg = AcceleratorConfig::refocus_ff();
        let perf = LayerPerf::analyze(&layer_56(), &cfg).expect("56x56 layer maps");
        assert_eq!(perf.channel_iterations, 32); // 64 / 2 wavelengths
        assert_eq!(perf.filter_iterations, 8); // 64/16 * 2 pseudo-negative
        assert_eq!(
            perf.cycles,
            perf.plan.passes as u64 * perf.channel_iterations * perf.filter_iterations
        );
    }

    #[test]
    fn wdm_halves_cycles() {
        let two = AcceleratorConfig::refocus_ff();
        let mut one = AcceleratorConfig::refocus_ff();
        one.wavelengths = 1;
        let p2 = LayerPerf::analyze(&layer_56(), &two).expect("56x56 layer maps");
        let p1 = LayerPerf::analyze(&layer_56(), &one).expect("56x56 layer maps");
        assert_eq!(p1.cycles, 2 * p2.cycles);
    }

    #[test]
    fn optical_reuse_does_not_change_cycles_but_cuts_generation() {
        let ff = AcceleratorConfig::refocus_ff();
        let fb = AcceleratorConfig::refocus_fb();
        let base = AcceleratorConfig {
            wavelengths: 2,
            sram_buffers: true,
            ..AcceleratorConfig::photofourier_baseline()
        };
        let pf = LayerPerf::analyze(&layer_56(), &ff).expect("56x56 layer maps");
        let pb = LayerPerf::analyze(&layer_56(), &fb).expect("56x56 layer maps");
        let p0 = LayerPerf::analyze(&layer_56(), &base).expect("56x56 layer maps");
        assert_eq!(pf.cycles, pb.cycles);
        assert_eq!(pf.cycles, p0.cycles);
        // FF halves generation; FB cuts it by min(16, filter iterations)=8.
        assert_eq!(pf.input_uses, 2);
        assert_eq!(pb.input_uses, 8);
        assert!(pb.generation_cycles < pf.generation_cycles);
        assert!(pf.generation_cycles < p0.generation_cycles);
    }

    #[test]
    fn reuse_capped_by_filter_iterations() {
        // A 64-filter layer on 16 RFCUs: 4*2 = 8 filter iterations, so FB's
        // R=15 cannot be fully exploited (§4.1.3's caveat inverted).
        let fb = AcceleratorConfig::refocus_fb();
        let p = LayerPerf::analyze(&layer_56(), &fb).expect("56x56 layer maps");
        assert_eq!(p.input_uses, 8);
        // A 512-filter layer: 64 iterations >= 16 -> full reuse.
        let big = ConvSpec::new("c", 64, 512, 3, 1, 1, (14, 14));
        let p = LayerPerf::analyze(&big, &fb).expect("large layer maps");
        assert_eq!(p.input_uses, 16);
    }

    #[test]
    fn first_layer_limits_temporal_accumulation() {
        let cfg = AcceleratorConfig::refocus_ff();
        let stem = ConvSpec::new("conv1", 3, 64, 7, 2, 3, (224, 224));
        let p = LayerPerf::analyze(&stem, &cfg).expect("stem layer maps");
        // ceil(3/2) = 2 channel iterations < 16.
        assert_eq!(p.effective_ta, 2);
    }

    #[test]
    fn weight_duty_reflects_kernel_size() {
        let cfg = AcceleratorConfig::refocus_ff();
        let k3 = LayerPerf::analyze(&layer_56(), &cfg).expect("56x56 layer maps");
        assert!((k3.weight_duty - 9.0 / 25.0).abs() < 1e-12);
        let k1 = ConvSpec::new("c", 64, 128, 1, 2, 0, (56, 56));
        let p1 = LayerPerf::analyze(&k1, &cfg).expect("1x1 layer maps");
        assert!((p1.weight_duty - 1.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn network_perf_sums_layers() {
        let cfg = AcceleratorConfig::refocus_ff();
        let net = models::resnet18();
        let perf = NetworkPerf::analyze(&net, &cfg).expect("network maps");
        assert_eq!(perf.layers.len(), net.layers().len());
        let sum: u64 = perf.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(perf.total_cycles, sum);
        assert!(perf.fps(&cfg) > 0.0);
    }

    #[test]
    fn refocus_fps_in_plausible_range() {
        // Sanity anchor: JTC-based systems reach thousands of FPS on
        // ResNet-scale networks (PhotoFourier reports O(1e3-1e4)).
        let cfg = AcceleratorConfig::refocus_ff();
        for (net, lo, hi) in [(models::resnet18(), 2e3, 3e5), (models::vgg16(), 5e2, 1e5)] {
            let fps = NetworkPerf::analyze(&net, &cfg)
                .expect("network maps")
                .fps(&cfg);
            assert!((lo..hi).contains(&fps), "{}: {fps}", net.name());
        }
    }

    #[test]
    fn more_rfcus_increase_fps() {
        let net = models::resnet34();
        let mut small = AcceleratorConfig::refocus_ff();
        small.rfcus = 8;
        let big = AcceleratorConfig::refocus_ff();
        let f_small = NetworkPerf::analyze(&net, &small)
            .expect("network maps")
            .fps(&small);
        let f_big = NetworkPerf::analyze(&net, &big)
            .expect("network maps")
            .fps(&big);
        assert!(f_big > f_small);
    }

    #[test]
    fn duration_consistent_with_cycles() {
        let cfg = AcceleratorConfig::refocus_ff();
        let p = LayerPerf::analyze(&layer_56(), &cfg).expect("56x56 layer maps");
        let d = p.duration(&cfg).value();
        assert!((d - p.cycles as f64 / 1e10).abs() < 1e-15);
    }
}
