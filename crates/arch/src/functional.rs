//! Functional execution: real numbers through the optical path.
//!
//! The performance/energy models trust that the optics compute the right
//! thing; this module proves it. [`OpticalExecutor`] runs a convolution
//! layer exactly the way the architecture does — pseudo-negative filter
//! split, row tiling onto the JTC plane, one optical pass per
//! (chunk, channel, filter, half), channel accumulation, digital recombine
//! — with every 1-D pass going through the *field-level* JTC model of
//! [`refocus_photonics::jtc`], optionally with 8-bit converters and
//! feedback-buffer attenuation + weight rescaling (§4.1.1).
//!
//! Only the output rows a strided layer keeps are computed. When no pass
//! carries state of its own (no converter, no analog noise), passes share
//! lens-1 spectra and detector sums the way the hardware reuses light,
//! with or without stuck taps, dead pixels and laser drift; see DESIGN.md
//! §3, "Functional path: spectral reuse".

use crate::config::AcceleratorConfig;
use refocus_nn::conv::ConvError;
use refocus_nn::quant::PseudoNegativeSplit;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::{tiled_conv2d_strided_with, RowSchedule, TilingError, TilingMode};
use refocus_photonics::buffer::FeedbackBuffer;
use refocus_photonics::faults::FaultInjector;
use refocus_photonics::jtc::{DetectorSum, Jtc, JtcError, PlaneGeometry, Spectrum};
use std::fmt;
use std::ops::Range;

/// Errors from functional execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionalError {
    /// Input activations must be non-negative (optical powers); run the
    /// preceding ReLU first.
    NegativeActivation,
    /// Shape mismatch between input and weights.
    Shape(ConvError),
    /// The layer cannot tile onto the configured JTC.
    Tiling(TilingError),
    /// A pass does not fit the configured JTC plane.
    Jtc(JtcError),
    /// The numerical firewall caught a NaN, infinity, or out-of-bounds
    /// magnitude leaving the optical path (see [`crate::guard`]).
    NonFinite {
        /// Which guarded boundary tripped (e.g. `"jtc-output"`).
        stage: &'static str,
        /// Flat index of the offending element within the channel.
        index: usize,
    },
}

impl fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionalError::NegativeActivation => {
                write!(
                    f,
                    "activations must be non-negative to modulate optical power"
                )
            }
            FunctionalError::Shape(e) => write!(f, "shape error: {e}"),
            FunctionalError::Tiling(e) => write!(f, "tiling error: {e}"),
            FunctionalError::Jtc(e) => write!(f, "JTC error: {e}"),
            FunctionalError::NonFinite { stage, index } => write!(
                f,
                "non-finite or out-of-bounds value at index {index} of the \
                 {stage} boundary"
            ),
        }
    }
}

impl std::error::Error for FunctionalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FunctionalError::Shape(e) => Some(e),
            FunctionalError::Tiling(e) => Some(e),
            FunctionalError::Jtc(e) => Some(e),
            FunctionalError::NegativeActivation | FunctionalError::NonFinite { .. } => None,
        }
    }
}

impl From<ConvError> for FunctionalError {
    fn from(e: ConvError) -> Self {
        FunctionalError::Shape(e)
    }
}

impl From<TilingError> for FunctionalError {
    fn from(e: TilingError) -> Self {
        FunctionalError::Tiling(e)
    }
}

impl From<JtcError> for FunctionalError {
    fn from(e: JtcError) -> Self {
        FunctionalError::Jtc(e)
    }
}

/// Executes convolution layers on the simulated optics.
#[derive(Debug, Clone)]
pub struct OpticalExecutor {
    jtc: Jtc,
    tile: usize,
    mode: TilingMode,
    /// Count of optical passes performed (for cross-checking the perf
    /// model's pass accounting).
    passes: std::cell::Cell<u64>,
    /// Device-fault model applied to every optical pass, if any. Interior
    /// mutability because fault state (the laser drift walk, composed
    /// noise) advances per pass while `conv2d` takes `&self`.
    faults: Option<std::cell::RefCell<FaultInjector>>,
}

impl OpticalExecutor {
    /// Builds an executor for `config` running passes through `jtc`.
    pub fn new(config: &AcceleratorConfig, jtc: Jtc) -> Self {
        Self {
            jtc,
            tile: config.tile,
            // Exact mode keeps the functional result bit-identical to the
            // digital reference irrespective of column bookkeeping.
            mode: TilingMode::Exact,
            passes: std::cell::Cell::new(0),
            faults: None,
        }
    }

    /// Attaches a device-fault model (stuck weight taps, dead detector
    /// pixels, laser drift, composed analog noise) to every subsequent
    /// optical pass, with the result [`Jtc::correlate_with_faults`] gives
    /// pass by pass. Without noise or converters the layer still runs on
    /// the spectral path (see [`Self::conv2d`]); a transparent injector
    /// leaves results bit-identical.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(std::cell::RefCell::new(injector));
        self
    }

    /// Rewinds the attached fault model's stream state (drift walk, noise)
    /// so a layer can be re-run under the identical fault realization.
    /// No-op without an attached injector.
    pub fn reset_faults(&self) {
        if let Some(faults) = &self.faults {
            faults.borrow_mut().reset();
        }
    }

    /// An executor with an ideal (noise/quantization-free) JTC and the
    /// default ReFOCUS geometry.
    pub fn ideal() -> Self {
        Self::new(&AcceleratorConfig::refocus_ff(), Jtc::ideal())
    }

    /// An executor with 8-bit DAC/ADC converters in the loop.
    pub fn quantized() -> Self {
        Self::new(&AcceleratorConfig::refocus_ff(), Jtc::quantized())
    }

    /// Optical passes performed so far.
    pub fn passes(&self) -> u64 {
        self.passes.get()
    }

    /// Computes `conv2d(input, weights)` (stride/padding like
    /// [`refocus_nn::conv::conv2d`]) entirely through optical passes.
    ///
    /// Only the kept output rows (`oy % stride == 0`) are computed. With
    /// no DAC, no ADC and no analog noise, passes share lens-1 spectra and
    /// each (output channel, pass, half) detector sums its input channels
    /// before one lens-2 transform; [`Self::passes`] still counts one pass
    /// per (o, i, half, tile). A fault model rides along: stuck taps
    /// corrupt the shared kernel spectra, each pass's laser drift scales
    /// its field at the detector, and dead pixels mask the summed readout.
    /// Noisy or quantized layers run pass by pass through
    /// [`Jtc::correlate_with_faults`] / [`Jtc::correlate`].
    ///
    /// Output channels execute in parallel on the [`refocus_par`] pool.
    /// Results are bit-identical at every thread count: each channel
    /// derives its fault/noise stream purely from the layer's fan-out
    /// epoch and its own index (see [`FaultInjector::for_work_item`]),
    /// never from execution order.
    ///
    /// # Errors
    ///
    /// Returns [`FunctionalError`] for negative activations, shape
    /// mismatches, or untileable layers.
    pub fn conv2d(
        &self,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor3, FunctionalError> {
        // Reserving the epoch is the only sequential fault-state step;
        // everything downstream is a pure function of (seed, epoch, o).
        let epoch = self
            .faults
            .as_ref()
            .map_or(0, |f| f.borrow_mut().reserve_epochs(1));
        let snapshot: Option<FaultInjector> = self.faults.as_ref().map(|f| f.borrow().clone());
        let (out, passes) = Self::conv2d_core(
            &self.jtc,
            self.tile,
            self.mode,
            input,
            weights,
            stride,
            padding,
            snapshot.as_ref(),
            epoch,
        )?;
        self.passes.set(self.passes.get() + passes);
        Ok(out)
    }

    /// The cell-free convolution kernel shared by [`OpticalExecutor::conv2d`]
    /// and [`OpticalExecutor::conv2d_with_feedback_reuse`]: no interior
    /// mutability, so per-channel workers can run on pool threads. Returns
    /// the output tensor and the number of optical passes performed.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_core(
        jtc: &Jtc,
        tile: usize,
        mode: TilingMode,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
        faults: Option<&FaultInjector>,
        epoch: u64,
    ) -> Result<(Tensor3, u64), FunctionalError> {
        if input.data().iter().any(|&v| v < 0.0) {
            return Err(FunctionalError::NegativeActivation);
        }
        if stride == 0 {
            return Err(FunctionalError::Shape(ConvError::ZeroStride));
        }
        if input.channels() != weights.in_channels() {
            return Err(FunctionalError::Shape(ConvError::ChannelMismatch {
                input: input.channels(),
                weights: weights.in_channels(),
            }));
        }

        let _conv = refocus_obs::span_with("conv2d", || {
            format!(
                "in={}x{}x{} out_ch={}",
                input.channels(),
                input.height(),
                input.width(),
                weights.out_channels()
            )
        });
        let split = PseudoNegativeSplit::of(weights);
        let padded = input.pad_spatial(padding);
        let (kh, kw) = (weights.kernel_h(), weights.kernel_w());
        if kh > padded.height() || kw > padded.width() {
            return Err(FunctionalError::Shape(ConvError::KernelTooLarge {
                input: (padded.height(), padded.width()),
                kernel: (kh, kw),
            }));
        }

        // Row extraction is identical for every output channel; hoist it
        // out of the fan-out instead of repeating it per (o, i).
        let channel_rows: Vec<Vec<Vec<f64>>> = (0..input.channels())
            .map(|i| padded.channel_rows(i).iter().map(|r| r.to_vec()).collect())
            .collect();

        let schedule = RowSchedule::new(
            (padded.height(), padded.width()),
            (kh, kw),
            tile,
            mode,
            stride,
        )?;
        // Every pass must fit the plane: a fixed plane size may be too small.
        let geometries = schedule
            .passes()
            .iter()
            .map(|pass| {
                let (signal_len, kernel_len) = schedule.operand_lens(pass);
                jtc.plane_geometry(signal_len, kernel_len)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (out_h, out_w) = schedule.output_hw();

        // A transparent injector changes nothing, so it takes the clean
        // path untouched.
        let faults = faults.filter(|f| !f.is_transparent());
        // With no converter and no noise, a pass differs from the others
        // only in its light and in faults that are linear in it: lens 1
        // and lens 2 are linear, so passes may share spectra and detector
        // sums.
        let results = if !jtc.has_converters() && !faults.is_some_and(FaultInjector::has_noise) {
            let faults = faults.map(|injector| {
                SpectralFaults::new(
                    injector,
                    epoch,
                    weights.out_channels(),
                    input.channels(),
                    schedule.passes().len(),
                )
            });
            spectral_channels(
                jtc,
                &schedule,
                &geometries,
                &channel_rows,
                &split,
                faults.as_ref(),
            )
        } else {
            let channels: Vec<usize> = (0..weights.out_channels()).collect();
            refocus_par::par_map(&channels, |&o| {
                // One span per output-channel worker: this is the unit the
                // row-tiling fan-out distributes over pool threads.
                let _chan = refocus_obs::span_with("conv2d.channel", || format!("oc={o}"));
                let mut worker_faults = faults.map(|f| f.for_work_item(epoch, o as u64));
                let mut local_passes = 0u64;
                // Accumulate positive and negative halves over channels.
                let mut pos = vec![vec![0.0; out_w]; out_h];
                let mut neg = vec![vec![0.0; out_w]; out_h];
                for (i, rows) in channel_rows.iter().enumerate() {
                    for (half, acc) in [
                        (split.positive.kernel(o, i), &mut pos),
                        (split.negative.kernel(o, i), &mut neg),
                    ] {
                        let partial =
                            tiled_conv2d_strided_with(rows, &half, tile, mode, stride, |s, k| {
                                local_passes += 1;
                                let out = match worker_faults.as_mut() {
                                    Some(fi) => jtc.correlate_with_faults(s, k, fi),
                                    None => jtc.correlate(s, k),
                                }
                                .expect("operands are non-negative and fit the checked plane");
                                out.valid().to_vec()
                            })?;
                        for (ar, pr) in acc.iter_mut().zip(&partial) {
                            for (a, p) in ar.iter_mut().zip(pr) {
                                *a += p;
                            }
                        }
                    }
                }
                Ok((recombine(&pos, &neg)?, local_passes))
            })
        };

        let mut out = Tensor3::zeros(weights.out_channels(), out_h, out_w);
        let mut total_passes = 0u64;
        for (o, result) in results.into_iter().enumerate() {
            // First error in channel order — deterministic regardless of
            // which worker hit it first on the wall clock.
            let (flat, local_passes) = result?;
            total_passes += local_passes;
            refocus_obs::counter("conv2d.optical_passes", local_passes);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    out.set(o, oy, ox, flat[oy * out_w + ox]);
                }
            }
        }
        Ok((out, total_passes))
    }

    /// Like [`OpticalExecutor::conv2d`], but models the feedback buffer's
    /// per-replay attenuation and the §4.1.1 hardware-aware compensation:
    /// each filter `o` sees inputs attenuated by `ρ^(o mod (R+1))` and its
    /// outputs are rescaled digitally. With exact arithmetic the result
    /// equals the unattenuated convolution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OpticalExecutor::conv2d`].
    pub fn conv2d_with_feedback_reuse(
        &self,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
        buffer: &FeedbackBuffer,
    ) -> Result<Tensor3, FunctionalError> {
        let rescale = buffer.weight_rescale_factors();
        let period = rescale.len();
        let out_channels = weights.out_channels();
        // One epoch per single-filter convolution — the same reservation
        // the serial per-filter conv2d calls would have made, so fault
        // streams agree between this path and a filter-at-a-time run.
        let first_epoch = self
            .faults
            .as_ref()
            .map_or(0, |f| f.borrow_mut().reserve_epochs(out_channels as u64));
        let snapshot: Option<FaultInjector> = self.faults.as_ref().map(|f| f.borrow().clone());
        let jtc = &self.jtc;
        let (tile, mode) = (self.tile, self.mode);

        let channels: Vec<usize> = (0..out_channels).collect();
        let results: Vec<Result<(Tensor3, u64), FunctionalError>> =
            refocus_par::par_map(&channels, |&o| {
                let iteration = o % period;
                // Replayed light: attenuated input relative to iteration 0.
                let attenuation =
                    buffer.power_at_iteration(iteration as u32) / buffer.power_at_iteration(0);
                let mut attenuated = input.clone();
                attenuated.map_inplace(|v| v * attenuation);
                // Single-filter weight tensor.
                let mut single = Tensor4::zeros(
                    1,
                    weights.in_channels(),
                    weights.kernel_h(),
                    weights.kernel_w(),
                );
                for i in 0..weights.in_channels() {
                    for ky in 0..weights.kernel_h() {
                        for kx in 0..weights.kernel_w() {
                            single.set(0, i, ky, kx, weights.get(o, i, ky, kx));
                        }
                    }
                }
                let (mut partial, local_passes) = Self::conv2d_core(
                    jtc,
                    tile,
                    mode,
                    &attenuated,
                    &single,
                    stride,
                    padding,
                    snapshot.as_ref(),
                    first_epoch + o as u64,
                )?;
                // Digital rescale: ρ^-iteration relative to iteration 0.
                let factor = rescale[iteration] / rescale[0];
                partial.map_inplace(|v| v * factor);
                Ok((partial, local_passes))
            });

        let mut out: Option<Tensor3> = None;
        let mut total_passes = 0u64;
        for (o, result) in results.into_iter().enumerate() {
            let (partial, local_passes) = result?;
            total_passes += local_passes;
            let result = out.get_or_insert_with(|| {
                Tensor3::zeros(out_channels, partial.height(), partial.width())
            });
            for y in 0..partial.height() {
                for x in 0..partial.width() {
                    result.set(o, y, x, partial.get(0, y, x));
                }
            }
        }
        self.passes.set(self.passes.get() + total_passes);
        Ok(out.expect("at least one output filter"))
    }
}

/// Bytes of lens-1 spectra one spectral block may hold: the shared signal
/// spectra plus one worker's detector sums. Bounds the path's memory on
/// row-partitioned layers, whose passes run into the hundreds.
const SPECTRAL_BLOCK_BYTES: usize = 128 * 1024;

/// A noiseless fault model on the spectral path. Stuck taps and dead
/// pixels are fixed sites of the injector: a stuck tap corrupts the kernel
/// operand before its one lens-1 spectrum, and the dead-pixel mask, linear
/// and the same for every pass of one geometry, zeroes the summed readout.
/// Laser drift is one factor per pass that scales the whole field.
struct SpectralFaults<'a> {
    injector: &'a FaultInjector,
    passes: usize,
    /// Per output channel, the drift factor of each (input channel, half,
    /// pass) in the per-pass path's order; empty when the spec has no
    /// drift, where every factor is exactly 1.
    drift: Vec<Vec<f64>>,
}

impl<'a> SpectralFaults<'a> {
    /// Walks each output channel's drift for layer fan-out `epoch` the way
    /// the per-pass path does: one step per pass, (i, half, pass) order,
    /// on [`FaultInjector::for_work_item`]`(epoch, o)`.
    fn new(
        injector: &'a FaultInjector,
        epoch: u64,
        out_channels: usize,
        in_channels: usize,
        passes: usize,
    ) -> Self {
        let drift = if injector.spec().laser_drift_sigma == 0.0 {
            Vec::new()
        } else {
            (0..out_channels)
                .map(|o| {
                    let mut walk = injector.for_work_item(epoch, o as u64);
                    (0..in_channels * 2 * passes)
                        .map(|_| walk.laser_drift_step())
                        .collect()
                })
                .collect()
        };
        Self {
            injector,
            passes,
            drift,
        }
    }

    /// The field scale of output channel `o`'s pass `pass` of input
    /// channel `i`, pseudo-negative half `half` (0 positive, 1 negative).
    fn drift(&self, o: usize, i: usize, half: usize, pass: usize) -> f64 {
        self.drift
            .get(o)
            .map_or(1.0, |d| d[(i * 2 + half) * self.passes + pass])
    }
}

/// The spectral path of [`OpticalExecutor::conv2d`] for every output
/// channel: each (input channel, pass) signal spectrum is computed once and
/// shared by all output-channel workers (the optical buffer, §4.1); each
/// (o, i, half) kernel spectrum, stuck taps applied, once per block of
/// passes; and each (o, pass, half) detector sums its input channels,
/// each scaled by its pass's laser drift, before one lens-2 transform
/// (temporal accumulation §4.1.4, WDM §4.2) and the dead-pixel mask.
/// Passes are still counted one per (o, i, half, pass).
fn spectral_channels(
    jtc: &Jtc,
    schedule: &RowSchedule,
    geometries: &[PlaneGeometry],
    channel_rows: &[Vec<Vec<f64>>],
    split: &PseudoNegativeSplit,
    faults: Option<&SpectralFaults>,
) -> Vec<Result<(Vec<f64>, u64), FunctionalError>> {
    let in_channels = channel_rows.len();
    let out_channels = split.positive.out_channels();
    let passes = schedule.passes();
    let served = (out_channels * in_channels * 2 * passes.len()) as u64;
    refocus_obs::counter("jtc.spectra_reused", served);

    let (out_h, out_w) = schedule.output_hw();
    let mut pos = vec![vec![vec![0.0; out_w]; out_h]; out_channels];
    let mut neg = pos.clone();
    let channels: Vec<usize> = (0..out_channels).collect();
    let mut start = 0;
    while start < passes.len() {
        // Grow the block while its spectra fit the budget; one pass always
        // fits.
        let mut end = start + 1;
        let mut bins = geometries[start].n() / 2 + 1;
        while end < passes.len() {
            bins += geometries[end].n() / 2 + 1;
            if (in_channels + 1) * bins * 16 > SPECTRAL_BLOCK_BYTES {
                break;
            }
            end += 1;
        }
        let block = &passes[start..end];
        let geoms = &geometries[start..end];

        // Serial: one transform per operand is a small share of the layer,
        // and a second pool region per block costs more peak memory than it
        // saves time.
        let signals: Vec<Spectrum> = {
            let _s = refocus_obs::span("jtc.spectral.lens1");
            channel_rows
                .iter()
                .flat_map(|rows| {
                    block
                        .iter()
                        .zip(geoms)
                        .map(move |(pass, &g)| (rows, pass, g))
                })
                .map(|(rows, pass, g)| {
                    jtc.signal_spectrum(g, &schedule.signal(rows, pass))
                        .expect("activations are non-negative")
                })
                .collect()
        };
        let valid: Vec<Vec<[Vec<f64>; 2]>> = refocus_par::par_map(&channels, |&o| {
            let _chan = refocus_obs::span_with("conv2d.channel", || format!("oc={o}"));
            spectral_block(
                jtc,
                schedule,
                geometries,
                start..end,
                &signals,
                split,
                faults,
                o,
            )
        });

        for (o, windows) in valid.iter().enumerate() {
            for (pass, [p, n]) in block.iter().zip(windows) {
                schedule.scatter(pass, p, &mut pos[o]);
                schedule.scatter(pass, n, &mut neg[o]);
            }
        }
        start = end;
    }
    let local_passes = (in_channels * 2 * passes.len()) as u64;
    pos.iter()
        .zip(&neg)
        .map(|(p, n)| Ok((recombine(p, n)?, local_passes)))
        .collect()
}

/// One output channel's share of a spectral block: the valid windows of
/// its positive and negative detector sums, one per pass of `range`.
/// `signals` holds the block's signal spectra, input-channel major.
#[allow(clippy::too_many_arguments)]
fn spectral_block(
    jtc: &Jtc,
    schedule: &RowSchedule,
    geometries: &[PlaneGeometry],
    range: Range<usize>,
    signals: &[Spectrum],
    split: &PseudoNegativeSplit,
    faults: Option<&SpectralFaults>,
    o: usize,
) -> Vec<[Vec<f64>; 2]> {
    let start = range.start;
    let block = &schedule.passes()[range.clone()];
    let geoms = &geometries[range];
    let mut detectors: Vec<[DetectorSum; 2]> = geoms
        .iter()
        .map(|&g| [jtc.detector(g), jtc.detector(g)])
        .collect();
    // Kernel spectra depend on the kernel rows and the plane size only,
    // so passes that agree on both share one.
    let mut kernel_of = Vec::with_capacity(block.len());
    let mut kernel_slots: Vec<usize> = Vec::new();
    for (p, pass) in block.iter().enumerate() {
        let slot = kernel_slots.iter().position(|&q| {
            block[q].kernel_rows() == pass.kernel_rows() && geoms[q].n() == geoms[p].n()
        });
        kernel_of.push(slot.unwrap_or_else(|| {
            kernel_slots.push(p);
            kernel_slots.len() - 1
        }));
    }
    for (i, signals) in signals.chunks(block.len()).enumerate() {
        let spectra: Vec<[Spectrum; 2]> = {
            let _s = refocus_obs::span("jtc.spectral.lens1");
            let halves = [split.positive.kernel(o, i), split.negative.kernel(o, i)];
            kernel_slots
                .iter()
                .map(|&q| {
                    halves.each_ref().map(|half| {
                        let mut kernel = schedule.kernel(half, &block[q]);
                        if let Some(faults) = faults {
                            faults.injector.corrupt_kernel(&mut kernel);
                        }
                        jtc.kernel_spectrum(geoms[q], &kernel)
                            .expect("pseudo-negative halves are non-negative")
                    })
                })
                .collect()
        };
        let _s = refocus_obs::span("jtc.spectral.detect");
        for (p, ((pair, signal), &slot)) in detectors
            .iter_mut()
            .zip(signals)
            .zip(&kernel_of)
            .enumerate()
        {
            for (half, (detector, kernel)) in pair.iter_mut().zip(&spectra[slot]).enumerate() {
                let drift = faults.map_or(1.0, |f| f.drift(o, i, half, start + p));
                detector.add(signal, kernel, drift);
            }
        }
    }
    let _s = refocus_obs::span("jtc.spectral.lens2");
    detectors
        .iter()
        .zip(block)
        .map(|(pair, pass)| {
            pair.each_ref().map(|detector| {
                let mut valid = detector.read_valid();
                if let Some(faults) = faults {
                    // Valid lag `v` is pixel `v + lk − 1` of the full
                    // window `Jtc::correlate_with_faults` masks.
                    let lk = schedule.operand_lens(pass).1;
                    faults.injector.mask_dead_pixels(lk - 1, &mut valid);
                }
                valid
            })
        })
        .collect()
}

/// Digital recombination of the pseudo-negative halves into one flat
/// channel, behind the JTC→executor firewall: a poisoned optical pass must
/// surface as a typed error here, not as NaN folded into downstream
/// accumulations and geomeans.
fn recombine(pos: &[Vec<f64>], neg: &[Vec<f64>]) -> Result<Vec<f64>, FunctionalError> {
    let flat: Vec<f64> = pos
        .iter()
        .zip(neg)
        .flat_map(|(p, n)| p.iter().zip(n).map(|(a, b)| a - b))
        .collect();
    crate::guard::check_finite("jtc-output", &flat).map_err(|v| FunctionalError::NonFinite {
        stage: v.stage,
        index: v.index,
    })?;
    Ok(flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refocus_nn::conv::conv2d;

    fn max_diff(a: &Tensor3, b: &Tensor3) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn ideal_optics_match_digital_conv() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(3, 10, 10, 0.0, 1.0, 1);
        let weights = Tensor4::random(4, 3, 3, 3, -1.0, 1.0, 2);
        let optical = exec
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        let digital = conv2d(&input, &weights, 1, 1).expect("digital reference runs");
        assert_eq!(optical.shape(), digital.shape());
        assert!(
            max_diff(&optical, &digital) < 1e-7,
            "diff = {}",
            max_diff(&optical, &digital)
        );
        assert!(exec.passes() > 0);
    }

    #[test]
    fn strided_optical_conv_matches() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(2, 12, 12, 0.0, 1.0, 3);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 4);
        let optical = exec
            .conv2d(&input, &weights, 2, 1)
            .expect("strided conv runs");
        let digital = conv2d(&input, &weights, 2, 1).expect("digital reference runs");
        assert_eq!(optical.shape(), digital.shape());
        assert!(max_diff(&optical, &digital) < 1e-7);
    }

    #[test]
    fn quantized_optics_stay_close() {
        let exec = OpticalExecutor::quantized();
        let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 5);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 6);
        let optical = exec
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        let digital = conv2d(&input, &weights, 1, 1).expect("digital reference runs");
        let peak = digital.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // 8-bit converters on every pass: a few percent of peak.
        assert!(max_diff(&optical, &digital) < 0.12 * peak);
    }

    #[test]
    fn feedback_reuse_with_rescaling_matches() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(2, 6, 6, 0.0, 1.0, 7);
        // 6 filters over an R=3 buffer: iterations 0..3 wrap.
        let weights = Tensor4::random(6, 2, 3, 3, -1.0, 1.0, 8);
        let buffer = FeedbackBuffer::with_optimal_split(
            3,
            4,
            refocus_photonics::units::GigaHertz::new(10.0),
        )
        .expect("R=3 split fits the buffer");
        let reused = exec
            .conv2d_with_feedback_reuse(&input, &weights, 1, 1, &buffer)
            .expect("feedback-reuse conv runs");
        let digital = conv2d(&input, &weights, 1, 1).expect("digital reference runs");
        assert!(
            max_diff(&reused, &digital) < 1e-7,
            "diff = {}",
            max_diff(&reused, &digital)
        );
    }

    /// The per-pass reference: every (o, i, half) convolution through the
    /// public stride-1 tiling with [`Jtc::correlate`] as the 1-D pass, then
    /// recombined and subsampled at `stride`.
    fn per_pass_oracle(
        jtc: &Jtc,
        tile: usize,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
    ) -> Tensor3 {
        let split = PseudoNegativeSplit::of(weights);
        let padded = input.pad_spatial(padding);
        let full_h = padded.height() - weights.kernel_h() + 1;
        let full_w = padded.width() - weights.kernel_w() + 1;
        let (out_h, out_w) = ((full_h - 1) / stride + 1, (full_w - 1) / stride + 1);
        let mut out = Tensor3::zeros(weights.out_channels(), out_h, out_w);
        for o in 0..weights.out_channels() {
            let mut acc = vec![vec![0.0; full_w]; full_h];
            for i in 0..input.channels() {
                let rows: Vec<Vec<f64>> =
                    padded.channel_rows(i).iter().map(|r| r.to_vec()).collect();
                for (sign, half) in [(1.0, &split.positive), (-1.0, &split.negative)] {
                    let partial = refocus_nn::tiling::tiled_conv2d_with(
                        &rows,
                        &half.kernel(o, i),
                        tile,
                        TilingMode::Exact,
                        |s, k| jtc.correlate(s, k).unwrap().valid().to_vec(),
                    )
                    .unwrap();
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

    #[test]
    fn spectral_path_matches_per_pass_oracle() {
        use refocus_photonics::components::NonlinearMaterial;
        let saturating = Jtc::ideal().with_nonlinearity(NonlinearMaterial::saturating(2_000));
        // (what, jtc, tile, C_in, C_out, h, w, k, stride, padding)
        let cases = [
            ("short last tile", Jtc::ideal(), 128, 2, 3, 20, 20, 3, 1, 1),
            ("stride 2", Jtc::ideal(), 256, 3, 2, 16, 16, 3, 2, 1),
            ("1x1 stride 2", Jtc::ideal(), 256, 4, 3, 14, 14, 1, 2, 0),
            (
                "fixed plane",
                Jtc::ideal().with_plane_size(1536),
                256,
                2,
                2,
                12,
                12,
                3,
                1,
                1,
            ),
            ("saturating", saturating, 128, 2, 2, 10, 10, 3, 1, 1),
            ("row-partitioned", Jtc::ideal(), 50, 2, 2, 13, 20, 5, 2, 0),
        ];
        for (seed, (what, jtc, tile, c_in, c_out, h, w, k, stride, padding)) in
            cases.into_iter().enumerate()
        {
            let seed = 40 + 2 * seed as u64;
            let input = Tensor3::random(c_in, h, w, 0.0, 1.0, seed);
            let weights = Tensor4::random(c_out, c_in, k, k, -1.0, 1.0, seed + 1);
            let config = AcceleratorConfig {
                tile,
                ..AcceleratorConfig::refocus_ff()
            };
            let exec = OpticalExecutor::new(&config, jtc.clone());
            let got = exec.conv2d(&input, &weights, stride, padding).unwrap();
            let want = per_pass_oracle(&jtc, tile, &input, &weights, stride, padding);
            assert_eq!(got.shape(), want.shape(), "{what}");
            let peak = want.max_abs();
            assert!(
                max_diff(&got, &want) <= 1e-9 * peak,
                "{what}: diff {} vs peak {peak}",
                max_diff(&got, &want)
            );
            let passes = refocus_nn::tiling::RowSchedule::new(
                (h + 2 * padding, w + 2 * padding),
                (k, k),
                tile,
                TilingMode::Exact,
                stride,
            )
            .unwrap()
            .passes()
            .len();
            assert_eq!(exec.passes(), (passes * c_in * c_out * 2) as u64, "{what}");
        }
    }

    /// The faulted per-pass reference: each output channel's injector
    /// derived for `epoch` and walked pass by pass, in (i, half, pass)
    /// order, through [`Jtc::correlate_with_faults`].
    #[allow(clippy::too_many_arguments)]
    fn faulted_per_pass_oracle(
        jtc: &Jtc,
        tile: usize,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
        injector: &FaultInjector,
        epoch: u64,
    ) -> Tensor3 {
        let split = PseudoNegativeSplit::of(weights);
        let padded = input.pad_spatial(padding);
        let mut out: Option<Tensor3> = None;
        for o in 0..weights.out_channels() {
            let mut worker = injector.for_work_item(epoch, o as u64);
            let mut acc: Vec<Vec<f64>> = Vec::new();
            for i in 0..input.channels() {
                let rows: Vec<Vec<f64>> =
                    padded.channel_rows(i).iter().map(|r| r.to_vec()).collect();
                for (sign, half) in [(1.0, &split.positive), (-1.0, &split.negative)] {
                    let partial = tiled_conv2d_strided_with(
                        &rows,
                        &half.kernel(o, i),
                        tile,
                        TilingMode::Exact,
                        stride,
                        |s, k| {
                            jtc.correlate_with_faults(s, k, &mut worker)
                                .unwrap()
                                .valid()
                                .to_vec()
                        },
                    )
                    .unwrap();
                    if acc.is_empty() {
                        acc = vec![vec![0.0; partial[0].len()]; partial.len()];
                    }
                    for (ar, pr) in acc.iter_mut().zip(&partial) {
                        for (a, p) in ar.iter_mut().zip(pr) {
                            *a += sign * p;
                        }
                    }
                }
            }
            let out = out.get_or_insert_with(|| {
                Tensor3::zeros(weights.out_channels(), acc.len(), acc[0].len())
            });
            for (oy, row) in acc.iter().enumerate() {
                for (ox, &v) in row.iter().enumerate() {
                    out.set(o, oy, ox, v);
                }
            }
        }
        out.unwrap()
    }

    #[test]
    fn faulted_spectral_path_matches_per_pass_oracle() {
        use refocus_photonics::components::NonlinearMaterial;
        use refocus_photonics::faults::FaultSpec;
        let saturating = Jtc::ideal().with_nonlinearity(NonlinearMaterial::saturating(2_000));
        // (what, jtc, tile, C_in, C_out, h, w, k, stride, padding)
        let cases = [
            ("one pass", Jtc::ideal(), 256, 2, 2, 8, 8, 3, 1, 1),
            ("multi-tile", Jtc::ideal(), 64, 2, 3, 12, 12, 3, 1, 1),
            ("stride 2", Jtc::ideal(), 128, 3, 2, 16, 16, 3, 2, 1),
            ("row-partitioned", Jtc::ideal(), 50, 2, 2, 13, 20, 5, 2, 0),
            ("saturating", saturating, 128, 2, 2, 10, 10, 3, 1, 1),
        ];
        // Dead taps (level 0) and taps stuck above zero, which also hits
        // the zero gaps of a tiled kernel; each with dead pixels and drift.
        let specs = [
            (
                "dead taps",
                FaultSpec::none()
                    .with_stuck_weights(0.1, 0.0)
                    .with_dead_pixel_rate(0.05)
                    .with_laser_drift(0.01, 0.1),
            ),
            (
                "stuck taps",
                FaultSpec::none()
                    .with_stuck_weights(0.1, 0.5)
                    .with_dead_pixel_rate(0.05)
                    .with_laser_drift(0.01, 0.1),
            ),
            ("drift only", FaultSpec::none().with_laser_drift(0.02, 0.2)),
        ];
        for (n, (what, jtc, tile, c_in, c_out, h, w, k, stride, padding)) in
            cases.into_iter().enumerate()
        {
            let data = 60 + 2 * n as u64;
            let input = Tensor3::random(c_in, h, w, 0.0, 1.0, data);
            let weights = Tensor4::random(c_out, c_in, k, k, -1.0, 1.0, data + 1);
            let config = AcceleratorConfig {
                tile,
                ..AcceleratorConfig::refocus_ff()
            };
            for (faults, spec) in specs {
                for seed in [1, 2, 3] {
                    let injector = FaultInjector::new(spec, seed);
                    let exec =
                        OpticalExecutor::new(&config, jtc.clone()).with_faults(injector.clone());
                    let got = exec.conv2d(&input, &weights, stride, padding).unwrap();
                    let want = faulted_per_pass_oracle(
                        &jtc, tile, &input, &weights, stride, padding, &injector, 0,
                    );
                    assert_eq!(got.shape(), want.shape(), "{what}, {faults}");
                    let peak = want.max_abs();
                    assert!(
                        max_diff(&got, &want) <= 1e-9 * peak,
                        "{what}, {faults}, seed {seed}: diff {} vs peak {peak}",
                        max_diff(&got, &want)
                    );
                    // The faults moved the output: the comparison is not
                    // between two clean layers.
                    let clean = OpticalExecutor::new(&config, jtc.clone())
                        .conv2d(&input, &weights, stride, padding)
                        .unwrap();
                    assert!(max_diff(&got, &clean) > 1e-9 * peak, "{what}, {faults}");
                }
            }
        }
    }

    #[test]
    fn too_small_a_plane_is_an_error() {
        let input = Tensor3::random(1, 8, 8, 0.0, 1.0, 30);
        let weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 31);
        for jtc in [Jtc::ideal(), Jtc::quantized()] {
            let exec =
                OpticalExecutor::new(&AcceleratorConfig::refocus_ff(), jtc.with_plane_size(64));
            assert!(matches!(
                exec.conv2d(&input, &weights, 1, 1),
                Err(FunctionalError::Jtc(JtcError::PlaneTooSmall {
                    available: 64,
                    ..
                }))
            ));
        }
    }

    #[test]
    fn negative_activations_rejected() {
        let exec = OpticalExecutor::ideal();
        let mut input = Tensor3::zeros(1, 4, 4);
        input.set(0, 0, 0, -0.5);
        let weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 9);
        assert_eq!(
            exec.conv2d(&input, &weights, 1, 1),
            Err(FunctionalError::NegativeActivation)
        );
    }

    #[test]
    fn shape_errors_propagate() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(2, 4, 4, 0.0, 1.0, 10);
        let weights = Tensor4::random(1, 3, 3, 3, -1.0, 1.0, 11);
        assert!(matches!(
            exec.conv2d(&input, &weights, 1, 0),
            Err(FunctionalError::Shape(ConvError::ChannelMismatch { .. }))
        ));
        let huge = Tensor4::random(1, 2, 7, 7, -1.0, 1.0, 12);
        assert!(matches!(
            exec.conv2d(&input, &huge, 1, 0),
            Err(FunctionalError::Shape(ConvError::KernelTooLarge { .. }))
        ));
    }

    #[test]
    fn pass_count_scales_with_work() {
        let small = OpticalExecutor::ideal();
        let big = OpticalExecutor::ideal();
        let input = Tensor3::random(1, 8, 8, 0.0, 1.0, 13);
        let w1 = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 14);
        let w4 = Tensor4::random(4, 1, 3, 3, -1.0, 1.0, 15);
        small.conv2d(&input, &w1, 1, 0).expect("1-filter conv runs");
        big.conv2d(&input, &w4, 1, 0).expect("4-filter conv runs");
        assert_eq!(big.passes(), 4 * small.passes());
    }

    #[test]
    fn error_display() {
        let e = FunctionalError::NegativeActivation;
        assert!(e.to_string().contains("non-negative"));
    }

    #[test]
    fn diverging_noise_trips_the_jtc_output_guard() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        use refocus_photonics::noise::NoiseModel;
        // A pathological noise model overflows detected outputs to ±∞;
        // the firewall must surface that as a typed error instead of
        // letting infinities (or the NaNs born of ∞ − ∞ recombination)
        // reach the caller as output data.
        let noise = NoiseModel::new(9).with_relative_sigma(f64::MAX);
        let exec = OpticalExecutor::ideal()
            .with_faults(FaultInjector::new(FaultSpec::none(), 1).with_noise(noise));
        let input = Tensor3::random(1, 6, 6, 0.0, 1.0, 22);
        let weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 23);
        let err = exec
            .conv2d(&input, &weights, 1, 0)
            .expect_err("divergent optics must be caught");
        assert!(
            matches!(
                err,
                FunctionalError::NonFinite {
                    stage: "jtc-output",
                    ..
                }
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("jtc-output"));
    }

    #[test]
    fn transparent_faults_leave_conv_bit_identical() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        let clean = OpticalExecutor::ideal();
        let faulted =
            OpticalExecutor::ideal().with_faults(FaultInjector::new(FaultSpec::none(), 1));
        let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 16);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 17);
        let a = clean
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        let b = faulted
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn fault_severity_increases_conv_error() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 18);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 19);
        let run = |spec: FaultSpec, seed: u64| {
            OpticalExecutor::ideal()
                .with_faults(FaultInjector::new(spec, seed))
                .conv2d(&input, &weights, 1, 1)
                .expect("optical conv runs")
        };
        // One spec per fault knob, each set alone. Error is measured
        // against the fault-free optical output, so severity 0 scores
        // exactly 0; it must not shrink as severity grows, and every knob
        // must move the output by far more than float rounding (both run
        // on the spectral path, where a drift factor of 1 is exact).
        let knobs = [
            (
                "stuck taps",
                FaultSpec::none().with_stuck_weights(0.05, 0.0),
            ),
            ("dead pixels", FaultSpec::none().with_dead_pixel_rate(0.02)),
            (
                "laser drift",
                FaultSpec::none().with_laser_drift(0.005, 0.1),
            ),
        ];
        for (knob, base) in knobs {
            let mut moved = false;
            for seed in [77, 78, 79] {
                let clean = run(base.scaled(0.0), seed);
                let mut prev = 0.0;
                for severity in [1.0, 4.0] {
                    let err = max_diff(&run(base.scaled(severity), seed), &clean);
                    assert!(
                        err >= prev,
                        "{knob}, seed {seed}, severity {severity}: error {err} < {prev}"
                    );
                    prev = err;
                }
                moved |= prev > 1e-9;
            }
            assert!(moved, "{knob} never changed the conv output");
        }
    }

    #[test]
    fn reset_faults_replays_identical_realization() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        let exec = OpticalExecutor::ideal().with_faults(FaultInjector::new(
            FaultSpec::none().with_laser_drift(0.01, 0.1),
            5,
        ));
        let input = Tensor3::random(1, 6, 6, 0.0, 1.0, 20);
        let weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 21);
        let first = exec
            .conv2d(&input, &weights, 1, 0)
            .expect("unpadded conv runs");
        let unreset = exec
            .conv2d(&input, &weights, 1, 0)
            .expect("unpadded conv runs");
        // Drift walk continued: second run differs.
        assert_ne!(first.data(), unreset.data());
        exec.reset_faults();
        let replayed = exec
            .conv2d(&input, &weights, 1, 0)
            .expect("unpadded conv runs");
        assert_eq!(first.data(), replayed.data());
    }
}
