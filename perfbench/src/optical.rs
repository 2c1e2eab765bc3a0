//! `optical_network`: every conv layer of ResNet-18 through the ideal
//! optical executor and every conv layer of AlexNet through the 8-bit
//! quantized one, at 1/8 of the channels and 1/4 of the input size.

use crate::sys::{self, Metrics, SplitMix, Tally};
use crate::{host, Workload};
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::functional::OpticalExecutor;
use refocus_nn::conv::conv2d;
use refocus_nn::layer::{ConvSpec, Network};
use refocus_nn::models;
use refocus_nn::quant::PseudoNegativeSplit;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::{tiled_conv2d_with, TilingMode};
use refocus_photonics::faults::FaultInjector;
use refocus_photonics::fft::{ifft_real, rfft};
use refocus_photonics::jtc::Jtc;
use std::hint::black_box;

/// Sweeps over all 25 layers in one timed round.
const SWEEPS_PER_ROUND: usize = 5;
/// Ideal layers must match the digital reference to this share of the
/// layer's reference peak.
const IDEAL_REL_TOL: f64 = 1e-9;
/// Quantized layers must stay within this many 8-bit steps (1/255 of the
/// layer's reference peak) of the digital reference.
const QUANTIZED_LSB_TOL: f64 = 4.0;

/// One scaled conv layer with its seeded inputs and digital reference.
struct Layer {
    net: &'static str,
    spec: ConvSpec,
    quantized: bool,
    input: Tensor3,
    weights: Tensor4,
    reference: Tensor3,
    peak: f64,
}

/// One execution of one layer.
struct LayerRun {
    out: Result<Tensor3, String>,
    secs: f64,
}

pub struct Sweep {
    runs: Vec<LayerRun>,
    passes: u64,
}

pub struct Optical {
    layers: Vec<Layer>,
    tile: usize,
    sweeps: usize,
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

fn max_abs_diff(a: &Tensor3, b: &Tensor3) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn net_key(net: &Network) -> &'static str {
    match net.name() {
        "ResNet-18" => "resnet18",
        "AlexNet" => "alexnet",
        other => panic!("no metric key for network {other}"),
    }
}

impl Optical {
    fn sweep(&self) -> Sweep {
        let ideal = OpticalExecutor::ideal();
        let quantized = OpticalExecutor::quantized();
        let runs = self
            .layers
            .iter()
            .map(|l| {
                let exec = if l.quantized { &quantized } else { &ideal };
                let _span = refocus_obs::span("bench.functional.conv2d");
                let (out, secs) =
                    sys::timed(|| exec.conv2d(&l.input, &l.weights, l.spec.stride, l.spec.padding));
                host::tick();
                LayerRun {
                    out: out.map_err(|e| e.to_string()),
                    secs,
                }
            })
            .collect();
        Sweep {
            runs,
            passes: ideal.passes() + quantized.passes(),
        }
    }

    /// The same layers through row tiling with a digital 1-D correlator:
    /// the tiling and recombine cost without the optics. Returns the
    /// seconds spent and whether every layer matched its reference.
    fn digital_tiling(&self) -> (f64, bool) {
        let mut ok = true;
        let mut secs = 0.0;
        for l in &self.layers {
            let (out, s) = sys::timed(|| {
                let _span = refocus_obs::span("bench.tiling.tiled_conv2d_with");
                digital_tiled_conv(
                    &l.input,
                    &l.weights,
                    l.spec.stride,
                    l.spec.padding,
                    self.tile,
                )
            });
            secs += s;
            ok &= max_abs_diff(&out, &l.reference) <= IDEAL_REL_TOL * l.peak;
        }
        (secs, ok)
    }
}

/// `out[i] = Σ_k sig[i+k]·ker[k]`, the valid 1-D correlation an optical
/// pass computes.
fn correlate_valid(sig: &[f64], ker: &[f64]) -> Vec<f64> {
    (0..=sig.len() - ker.len())
        .map(|i| {
            sig[i..i + ker.len()]
                .iter()
                .zip(ker)
                .map(|(s, k)| s * k)
                .sum()
        })
        .collect()
}

/// A conv layer computed like the optical executor does (pseudo-negative
/// split, row tiling, channel accumulation, recombine and stride), with
/// each 1-D pass done digitally.
fn digital_tiled_conv(
    input: &Tensor3,
    weights: &Tensor4,
    stride: usize,
    padding: usize,
    tile: usize,
) -> Tensor3 {
    let split = PseudoNegativeSplit::of(weights);
    let padded = input.pad_spatial(padding);
    let rows: Vec<Vec<Vec<f64>>> = (0..input.channels())
        .map(|i| padded.channel_rows(i).iter().map(|r| r.to_vec()).collect())
        .collect();
    let full_h = padded.height() - weights.kernel_h() + 1;
    let full_w = padded.width() - weights.kernel_w() + 1;
    let (out_h, out_w) = ((full_h - 1) / stride + 1, (full_w - 1) / stride + 1);
    let mut out = Tensor3::zeros(weights.out_channels(), out_h, out_w);
    for o in 0..weights.out_channels() {
        let mut acc = vec![vec![0.0; full_w]; full_h];
        for (i, channel_rows) in rows.iter().enumerate() {
            for (sign, half) in [(1.0, &split.positive), (-1.0, &split.negative)] {
                let partial = tiled_conv2d_with(
                    channel_rows,
                    &half.kernel(o, i),
                    tile,
                    TilingMode::Exact,
                    correlate_valid,
                )
                .expect("scaled layers tile onto the JTC");
                for (ar, pr) in acc.iter_mut().zip(&partial) {
                    for (a, p) in ar.iter_mut().zip(pr) {
                        *a += sign * p;
                    }
                }
            }
        }
        for oy in 0..out_h {
            for ox in 0..out_w {
                out.set(o, oy, ox, acc[oy * stride][ox * stride]);
            }
        }
    }
    out
}

impl Workload for Optical {
    const NAME: &'static str = "optical_network";
    const THREADS: usize = 2;
    const KERNEL: host::Kernel = host::Kernel::Arithmetic;
    type Output = Vec<Sweep>;

    fn setup(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x6f70_7469_6361_6c00);
        let mut layers = Vec::new();
        for (net, quantized) in [(models::resnet18(), false), (models::alexnet(), true)] {
            for spec in net.layers().iter().map(scaled) {
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
                let reference = conv2d(&input, &weights, spec.stride, spec.padding)
                    .expect("scaled layer shapes are valid");
                let peak = reference.max_abs();
                layers.push(Layer {
                    net: net_key(&net),
                    spec,
                    quantized,
                    input,
                    weights,
                    reference,
                    peak,
                });
            }
        }
        Optical {
            layers,
            tile: AcceleratorConfig::refocus_ff().tile,
            sweeps: SWEEPS_PER_ROUND,
        }
    }

    fn round(&mut self) -> Vec<Sweep> {
        (0..self.sweeps).map(|_| self.sweep()).collect()
    }

    fn for_trace(&mut self) {
        self.sweeps = 1;
    }

    fn check(&self, sweeps: &Vec<Sweep>) -> Tally {
        let mut tally = Tally::default();
        for sweep in sweeps {
            tally.add_work("passes", sweep.passes);
            for (l, run) in self.layers.iter().zip(&sweep.runs) {
                tally.add_work("layers", 1);
                let (err, tol) = match &run.out {
                    Ok(out) if out.shape() == l.reference.shape() => {
                        let err = max_abs_diff(out, &l.reference);
                        let tol = if l.quantized {
                            QUANTIZED_LSB_TOL * l.peak / 255.0
                        } else {
                            IDEAL_REL_TOL * l.peak
                        };
                        (err, tol)
                    }
                    Ok(out) => {
                        let msg = format!("{:?} != {:?}", out.shape(), l.reference.shape());
                        tally.op(false, || format!("{}.{}: shape {msg}", l.net, l.spec.name));
                        continue;
                    }
                    Err(e) => {
                        tally.op(false, || format!("{}.{}: {e}", l.net, l.spec.name));
                        continue;
                    }
                };
                tally.op(err <= tol, || {
                    format!("{}.{}: error {err:e} above {tol:e}", l.net, l.spec.name)
                });
            }
        }
        tally
    }

    fn layer_metrics(
        &mut self,
        untraced: &Vec<Sweep>,
        wall: f64,
        cpu: f64,
        traced: &refocus_obs::Report,
        m: &mut Metrics,
    ) -> Tally {
        let mut tally = Tally::default();
        let sweeps = untraced.len() as f64;
        let passes: u64 = untraced.iter().map(|s| s.passes).sum();
        m.set("functional.passes", untraced[0].passes as f64, "count");
        m.set("functional.ns_per_pass", wall * 1e9 / passes as f64, "ns");
        let (mut rel, mut lsb) = (0.0f64, 0.0f64);
        for (i, l) in self.layers.iter().enumerate() {
            let secs: f64 = untraced.iter().map(|s| s.runs[i].secs).sum();
            m.set(
                format!("functional.{}.{}_ms", l.net, l.spec.name),
                secs * 1e3 / sweeps,
                "ms",
            );
            for s in untraced {
                if let Ok(out) = &s.runs[i].out {
                    let err = max_abs_diff(out, &l.reference);
                    if l.quantized {
                        lsb = lsb.max(err * 255.0 / l.peak);
                    } else {
                        rel = rel.max(err / l.peak);
                    }
                }
            }
        }
        m.set("functional.max_rel_err", rel, "ratio");
        m.set("functional.max_err_lsb", lsb, "count");
        m.set("par.cpu_per_wall", cpu / wall, "ratio");

        let pass_ns = traced.span("jtc.correlate").map_or(0, |s| s.total_ns) as f64;
        for (span, key) in [
            ("jtc.compose", "compose"),
            ("jtc.lens1.fft", "lens1_fft"),
            ("jtc.square_law", "square_law"),
            ("jtc.lens2.ifft", "lens2_ifft"),
            ("jtc.readout", "readout"),
        ] {
            let ns = traced.span(span).map_or(0, |s| s.total_ns) as f64;
            m.set(format!("jtc.share.{key}"), ns / pass_ns, "ratio");
        }
        let hits = traced.counter("fft.plan_cache.hit") as f64;
        let misses = traced.counter("fft.plan_cache.miss") as f64;
        m.set("fft.plan_cache_hit_ratio", hits / (hits + misses), "ratio");

        let (digital_secs, digital_ok) = self.digital_tiling();
        tally.op(digital_ok, || "digital tiling disagrees with conv2d".into());
        m.set("tiling.digital_ms", digital_secs * 1e3, "ms");

        // The ideal ResNet-18 half at one and at two threads.
        let resnet: Vec<&Layer> = self.layers.iter().filter(|l| !l.quantized).collect();
        let half = || {
            let exec = OpticalExecutor::ideal();
            for l in &resnet {
                black_box(exec.conv2d(&l.input, &l.weights, l.spec.stride, l.spec.padding))
                    .expect("ideal layers run");
            }
        };
        // Alternating, three times each: a single pair moves with the host.
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            one.push(refocus_par::with_threads(1, || sys::timed(half)).1);
            two.push(refocus_par::with_threads(2, || sys::timed(half)).1);
        }
        m.set(
            "par.conv2d_speedup",
            sys::median(&one) / sys::median(&two),
            "ratio",
        );

        probe_fft_jtc(m);
        tally
    }
}

/// Microbenchmarks of single FFTs and single JTC passes.
fn probe_fft_jtc(m: &mut Metrics) {
    let mut rng = SplitMix::new(0x1024);
    let mut uniform = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect()
    };
    let x = uniform(1024);
    let ns = |s: f64| s * 1e9;
    m.set(
        "fft.rfft_1024_ns",
        ns(sys::per_call_seconds(9, 2000, || {
            black_box(rfft(black_box(&x)));
        })),
        "ns",
    );
    m.set(
        "fft.ifft_real_1024_ns",
        ns(sys::per_call_seconds(9, 2000, || {
            black_box(ifft_real(black_box(&x)));
        })),
        "ns",
    );

    // One pass of a 256-sample signal row against a 64-sample kernel.
    let signal = uniform(256);
    let kernel = uniform(64);
    let pass = |jtc: &Jtc| {
        sys::per_call_seconds(9, 500, || {
            black_box(jtc.correlate(black_box(&signal), black_box(&kernel))).expect("valid pass");
        })
    };
    let ideal = pass(&Jtc::ideal());
    m.set("jtc.pass_ns", ns(ideal), "ns");
    m.set("jtc.quantized_pass_ns", ns(pass(&Jtc::quantized())), "ns");

    let jtc = Jtc::ideal();
    let mut injector = FaultInjector::new(crate::campaign::fault_spec(), 7);
    let faulted = sys::per_call_seconds(9, 500, || {
        black_box(jtc.correlate_with_faults(black_box(&signal), black_box(&kernel), &mut injector))
            .expect("valid pass");
    });
    m.set("faults.pass_overhead", faulted / ideal, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digital_tiling_matches_conv2d() {
        let input = Tensor3::random(2, 9, 9, 0.0, 1.0, 1);
        let weights = Tensor4::random(3, 2, 3, 3, -1.0, 1.0, 2);
        let out = digital_tiled_conv(&input, &weights, 2, 1, 256);
        let reference = conv2d(&input, &weights, 2, 1).expect("valid shapes");
        assert_eq!(out.shape(), reference.shape());
        assert!(max_abs_diff(&out, &reference) < 1e-12);
    }

    #[test]
    fn scaling_keeps_every_layer_valid() {
        for net in [models::resnet18(), models::alexnet()] {
            for spec in net.layers() {
                let s = scaled(spec);
                assert!(s.in_channels >= 1 && s.output_hw().0 >= 1, "{s}");
            }
        }
    }
}
