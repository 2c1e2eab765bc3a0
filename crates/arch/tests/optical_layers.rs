//! The optical path on real network layers: every conv layer of ResNet-18
//! and AlexNet at 1/8 of the channels and 1/4 of the input size, seeded
//! the way the benchmark's `optical_network` workload seeds them.
//!
//! - Each layer's `conv2d` output is pinned bit for bit by an FNV-1a hash
//!   of its `f64` bits, through the ideal executor (every layer) and the
//!   8-bit quantized one (AlexNet). A change to the optical path that
//!   moves any output bit of any layer fails here by name.
//! - Every layer runs the lens-1 floor: one transform per (input channel,
//!   pass) signal and one per (o, i, half, kernel slot) kernel, the
//!   row-partitioned `conv1` layers included.
//! - A fault campaign on the benchmark's campaign layer keeps the bits of
//!   every cell and its lens transform counts.

use refocus_arch::config::AcceleratorConfig;
use refocus_arch::functional::OpticalExecutor;
use refocus_nn::layer::ConvSpec;
use refocus_nn::models;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::{RowSchedule, TilingMode};
use refocus_photonics::jtc::Jtc;
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

/// The obs sinks are process-global, so the counting test must not
/// overlap another conv. Every test in this file funnels through here.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// SplitMix64, the benchmark's seed stream.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A network's layer at 1/8 of the channels and 1/4 of the input size.
fn scaled(spec: &ConvSpec) -> ConvSpec {
    let ch = |c: usize| (c / 8).max(1);
    let hw = |x: usize| (x / 4).max(1);
    ConvSpec::new(
        spec.name.clone(),
        ch(spec.in_channels),
        ch(spec.out_channels),
        spec.kernel,
        spec.stride,
        spec.padding,
        (hw(spec.input_hw.0), hw(spec.input_hw.1)),
    )
}

/// One scaled layer with its seeded input and weights.
struct Layer {
    net: &'static str,
    spec: ConvSpec,
    input: Tensor3,
    weights: Tensor4,
}

impl Layer {
    fn conv(&self, exec: &OpticalExecutor) -> Tensor3 {
        exec.conv2d(
            &self.input,
            &self.weights,
            self.spec.stride,
            self.spec.padding,
        )
        .unwrap_or_else(|e| panic!("{}.{}: {e}", self.net, self.spec.name))
    }
}

/// Every ResNet-18 layer, then every AlexNet layer, drawn from one seed
/// stream in that order, as the benchmark draws them for `seed`.
fn layers(seed: u64) -> Vec<Layer> {
    let mut rng = SplitMix(seed ^ 0x6f70_7469_6361_6c00);
    let mut layers = Vec::new();
    for (net, network) in [
        ("resnet18", models::resnet18()),
        ("alexnet", models::alexnet()),
    ] {
        for spec in network.layers().iter().map(scaled) {
            let (h, w) = spec.input_hw;
            let input = Tensor3::random(spec.in_channels, h, w, 0.0, 1.0, rng.next_u64());
            let weights = Tensor4::random(
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
                -1.0,
                1.0,
                rng.next_u64(),
            );
            layers.push(Layer {
                net,
                spec,
                input,
                weights,
            });
        }
    }
    layers
}

/// FNV-1a over the shape and the bits of every element.
fn fingerprint(t: &Tensor3) -> u64 {
    let (c, h, w) = t.shape();
    let words = [c, h, w].map(|d| d as u64);
    let bits = t.data().iter().map(|v| v.to_bits());
    words
        .into_iter()
        .chain(bits)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// (network, layer, executor, fingerprint) at seed 11.
const FINGERPRINTS: &[(&str, &str, &str, u64)] = &[
    ("resnet18", "conv1", "ideal", 0xc069c6ec06fd5b46),
    ("resnet18", "layer1.0.conv1", "ideal", 0xfd1af70d8c5d1ac2),
    ("resnet18", "layer1.0.conv2", "ideal", 0xcb13def2d01d6af3),
    ("resnet18", "layer1.1.conv1", "ideal", 0x1fb131786e73f71e),
    ("resnet18", "layer1.1.conv2", "ideal", 0x851fc7c76bc7d5f9),
    ("resnet18", "layer2.0.conv1", "ideal", 0x83c81e3c15483ff8),
    ("resnet18", "layer2.0.conv2", "ideal", 0x7225e1a5cd21626b),
    (
        "resnet18",
        "layer2.0.downsample",
        "ideal",
        0x1a57091774d3ed5f,
    ),
    ("resnet18", "layer2.1.conv1", "ideal", 0x74736a6470c5cbc6),
    ("resnet18", "layer2.1.conv2", "ideal", 0xfd8510c437bc59d1),
    ("resnet18", "layer3.0.conv1", "ideal", 0xe616ebe5565ce38b),
    ("resnet18", "layer3.0.conv2", "ideal", 0xa982d03aa83e7f5e),
    (
        "resnet18",
        "layer3.0.downsample",
        "ideal",
        0x67d7cd14308592c0,
    ),
    ("resnet18", "layer3.1.conv1", "ideal", 0x183df7a9614fc135),
    ("resnet18", "layer3.1.conv2", "ideal", 0x03fe128e98f5a535),
    ("resnet18", "layer4.0.conv1", "ideal", 0x8d4a04641ce0f78d),
    ("resnet18", "layer4.0.conv2", "ideal", 0x662624b81fed3d25),
    (
        "resnet18",
        "layer4.0.downsample",
        "ideal",
        0x9cf2d3fb69dee54a,
    ),
    ("resnet18", "layer4.1.conv1", "ideal", 0x45e8ccb6d34319a0),
    ("resnet18", "layer4.1.conv2", "ideal", 0x0b9cbeba7f09e2d8),
    ("alexnet", "conv1", "ideal", 0x2dd3defd95dfed36),
    ("alexnet", "conv1", "quantized", 0x722123349bd0ddd6),
    ("alexnet", "conv2", "ideal", 0xfa83f95ce43ee382),
    ("alexnet", "conv2", "quantized", 0xa4143b290aec0f2e),
    ("alexnet", "conv3", "ideal", 0xadc71b81dd6d7b9a),
    ("alexnet", "conv3", "quantized", 0x81ecbce4dccbba31),
    ("alexnet", "conv4", "ideal", 0xce6c9f8b1f814326),
    ("alexnet", "conv4", "quantized", 0x0513049438d17436),
    ("alexnet", "conv5", "ideal", 0xab698b2017ad9c5e),
    ("alexnet", "conv5", "quantized", 0x15df8da61c9827f6),
];

#[test]
fn conv2d_outputs_keep_their_bits_on_every_layer() {
    let _gate = serial();
    let (ideal, quantized) = (OpticalExecutor::ideal(), OpticalExecutor::quantized());
    let mut got = Vec::new();
    for layer in layers(11) {
        let mut executors = vec![("ideal", &ideal)];
        if layer.net == "alexnet" {
            executors.push(("quantized", &quantized));
        }
        for (name, exec) in executors {
            let hash = fingerprint(&layer.conv(exec));
            got.push((layer.net, layer.spec.name.clone(), name, hash));
        }
    }
    let listing: String = got
        .iter()
        .map(|(net, layer, exec, hash)| {
            format!("    (\"{net}\", \"{layer}\", \"{exec}\", {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(got.len(), FINGERPRINTS.len(), "layers:\n{listing}");
    for ((net, layer, exec, hash), want) in got.iter().zip(FINGERPRINTS) {
        assert_eq!(
            (*net, layer.as_str(), *exec, *hash),
            *want,
            "{net}.{layer} through {exec} moved; all layers:\n{listing}"
        );
    }
}

/// One `conv2d` through the ideal executor runs `C_in·P + 2·C_out·C_in·S`
/// lens-1 transforms on every layer: one per (input channel, pass) signal
/// and one per (o, i, half, kernel slot) kernel, where a slot is a set of
/// kernel rows on one plane size. In the row-partitioned `conv1` layers
/// each pass carries a slice of the kernel window and a slot's passes span
/// several blocks: ResNet-18 `conv1` is 84 passes over 3 slots, 132
/// transforms.
#[test]
fn every_layer_runs_the_lens1_floor() {
    let _gate = serial();
    let (jtc, tile) = (Jtc::ideal(), AcceleratorConfig::refocus_ff().tile);
    for layer in layers(11) {
        let (spec, net) = (&layer.spec, layer.net);
        let padded = (
            spec.input_hw.0 + 2 * spec.padding,
            spec.input_hw.1 + 2 * spec.padding,
        );
        let schedule = RowSchedule::new(
            padded,
            (spec.kernel, spec.kernel),
            tile,
            TilingMode::Exact,
            spec.stride,
        )
        .expect("scaled layers tile onto the JTC");
        let passes = schedule.passes();
        let slots: HashSet<_> = passes
            .iter()
            .map(|pass| {
                let (signal_len, kernel_len) = schedule.operand_lens(pass);
                let n = jtc.plane_geometry(signal_len, kernel_len).unwrap().n();
                (pass.kernel_rows(), n)
            })
            .collect();
        let (c_in, c_out) = (spec.in_channels, spec.out_channels);
        let floor = (c_in * passes.len() + 2 * c_out * c_in * slots.len()) as u64;
        if spec.name == "conv1" {
            assert!(
                passes.iter().any(|p| p.kernel_rows().len() < spec.kernel),
                "{net}.conv1 is row-partitioned"
            );
        }
        if (net, spec.name.as_str()) == ("resnet18", "conv1") {
            assert_eq!(floor, 132, "{net}.conv1: {} passes", passes.len());
        }
        let collector = refocus_obs::Collector::enabled();
        layer.conv(&OpticalExecutor::ideal());
        let obs = collector.finish();
        assert_eq!(
            obs.counter("jtc.lens1.transforms"),
            floor,
            "{net}.{}",
            spec.name
        );
    }
}

/// The benchmark's fault-campaign layer (4 → 8 channels, 12×12, 3×3,
/// pad 1, ReFOCUS-FB) with its fault mix at up to 4× severity, so stuck
/// taps and dead pixels reach 8%: FNV-1a over the bits of the reference
/// peak, every cell and every row, plus the run's lens-1 and lens-2
/// transform counts.
#[test]
fn campaign_cells_keep_their_bits_at_benchmark_shape() {
    use refocus_arch::campaign::{FaultCampaign, Workload};
    use refocus_photonics::faults::FaultSpec;

    let _gate = serial();
    let spec = FaultSpec::none()
        .with_stuck_weights(0.02, 0.0)
        .with_dead_pixel_rate(0.02)
        .with_laser_drift(0.002, 0.05);
    let layer = Workload {
        in_channels: 4,
        out_channels: 8,
        height: 12,
        width: 12,
        kernel: 3,
        stride: 1,
        padding: 1,
        data_seed: 0x5eed_0004_0008,
    };
    let seeds: Vec<u64> = (1..=8).map(|s| s * 0x9E37_79B9).collect();
    let campaign = FaultCampaign::new(AcceleratorConfig::refocus_fb(), spec)
        .with_severities(&[0.25, 1.0, 4.0])
        .with_seeds(&seeds)
        .with_workload(layer);
    let collector = refocus_obs::Collector::enabled();
    let report = campaign.run().expect("campaign runs");
    let obs = collector.finish();
    assert!(report.is_complete());
    let cells = report.cells.iter().flat_map(|c| {
        [
            c.severity.to_bits(),
            c.seed,
            c.max_abs_error.to_bits(),
            c.rms_error.to_bits(),
        ]
    });
    let rows = report.rows.iter().flat_map(|r| {
        [
            r.severity.to_bits(),
            r.seeds as u64,
            r.mean_max_abs_error.to_bits(),
            r.worst_max_abs_error.to_bits(),
            r.mean_rms_error.to_bits(),
        ]
    });
    let hash = std::iter::once(report.reference_peak.to_bits())
        .chain(cells)
        .chain(rows)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    let counts = (
        obs.counter("jtc.lens1.transforms"),
        obs.counter("jtc.lens2.transforms"),
    );
    assert_eq!(
        (hash, counts),
        (0x5c5c_3dd5_5783_72ad, (201, 400)),
        "{hash:#018x} {counts:?}"
    );
}
