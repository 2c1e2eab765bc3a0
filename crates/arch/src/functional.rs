//! Functional execution: real numbers through the optical path.
//!
//! The performance/energy models trust that the optics compute the right
//! thing; this module proves it. [`OpticalExecutor`] runs a convolution
//! layer exactly the way the architecture does — pseudo-negative filter
//! split, row tiling onto the JTC plane, one optical pass per
//! (chunk, channel, filter, half), channel accumulation, digital recombine
//! — with every 1-D pass going through the *field-level* JTC model of
//! [`refocus_photonics::jtc`], optionally with 8-bit converters.
//!
//! Only the output rows a strided layer keeps are computed. Without
//! converters, passes share lens-1 spectra and detector sums the way the
//! hardware reuses light, with or without stuck taps, dead pixels and
//! laser drift; see DESIGN.md §3, "Functional path: spectral reuse".

use crate::config::AcceleratorConfig;
use refocus_nn::conv::ConvError;
use refocus_nn::quant::PseudoNegativeSplit;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::{RowSchedule, TilingError, TilingMode};
use refocus_photonics::faults::FaultInjector;
use refocus_photonics::jtc::{DetectorSum, Jtc, PlaneGeometry, Spectrum};
use std::borrow::Cow;
use std::fmt;
use std::sync::Mutex;

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

/// Executes convolution layers on the simulated optics.
#[derive(Debug, Clone)]
pub struct OpticalExecutor {
    jtc: Jtc,
    tile: usize,
    /// Count of optical passes performed (for cross-checking the perf
    /// model's pass accounting).
    passes: std::cell::Cell<u64>,
    /// Device-fault model applied to every optical pass, if any. Interior
    /// mutability because its epoch counter advances per conv while
    /// `conv2d` takes `&self`.
    faults: Option<std::cell::RefCell<FaultInjector>>,
}

impl OpticalExecutor {
    /// Builds an executor for `config` running passes through `jtc`.
    pub fn new(config: &AcceleratorConfig, jtc: Jtc) -> Self {
        Self {
            jtc,
            tile: config.tile,
            passes: std::cell::Cell::new(0),
            faults: None,
        }
    }

    /// Attaches a device-fault model (stuck weight taps, dead detector
    /// pixels, laser drift) to every subsequent optical pass, with the
    /// result [`Jtc::correlate_with_faults`] gives pass by pass. Without
    /// converters the layer still runs on the spectral path (see
    /// [`Self::conv2d`]); a transparent injector leaves results
    /// bit-identical.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(std::cell::RefCell::new(injector));
        self
    }

    /// Rewinds the attached fault model's stream state (epochs, drift walk)
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
    /// no DAC and no ADC, passes share lens-1 spectra and each (output
    /// channel, pass, half) detector sums its input channels before one
    /// lens-2 transform; [`Self::passes`] still counts one pass per (o, i,
    /// half, tile). A fault model rides along: stuck taps corrupt the
    /// shared kernel spectra, each pass's laser drift scales its field at
    /// the detector, and dead pixels mask the summed readout. Quantized
    /// layers run the same row schedule pass by pass through
    /// [`Jtc::correlate_with_faults`] / [`Jtc::correlate`].
    ///
    /// Output channels execute in parallel on the [`refocus_par`] pool.
    /// Results are bit-identical at every thread count: each channel
    /// derives its drift walk purely from the layer's fan-out epoch and
    /// its own index (see [`FaultInjector::for_work_item`]), never from
    /// execution order.
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
        let (epoch, snapshot) = self.reserve_epoch();
        let layer = Layer::new(&self.jtc, self.tile, input, weights, stride, padding)?;
        let (out, passes) = run_layer(&self.jtc, &layer, snapshot.as_ref(), epoch, None)?;
        self.passes.set(self.passes.get() + passes);
        Ok(out)
    }

    /// Lays `conv2d(input, weights, stride, padding)` out on this
    /// executor's JTC and computes its clean lens-1 light once: the signal
    /// spectrum of each (input channel, pass) and the kernel operand and
    /// spectrum of each (o, i, half, kernel slot). Any number of
    /// [`Self::conv2d_with_spectra`] calls, faulted or not, then share it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::conv2d`].
    pub(crate) fn clean_spectra(
        &self,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
    ) -> Result<CleanSpectra, FunctionalError> {
        let layer = Layer::new(&self.jtc, self.tile, input, weights, stride, padding)?;
        Ok(CleanSpectra::new(&self.jtc, layer))
    }

    /// [`Self::conv2d`] of the layer `spectra` was built for, with the
    /// same result bit for bit, reusing its clean light: signal spectra
    /// are read from `spectra`, and a kernel spectrum is borrowed whenever
    /// the attached stuck taps leave its operand unchanged. Reserves one
    /// fault epoch, as [`Self::conv2d`] does.
    ///
    /// # Errors
    ///
    /// [`FunctionalError::NonFinite`] if the firewall trips.
    pub(crate) fn conv2d_with_spectra(
        &self,
        spectra: &CleanSpectra,
    ) -> Result<Tensor3, FunctionalError> {
        let (epoch, snapshot) = self.reserve_epoch();
        let (out, passes) = run_layer(
            &self.jtc,
            &spectra.layer,
            snapshot.as_ref(),
            epoch,
            Some(spectra),
        )?;
        self.passes.set(self.passes.get() + passes);
        Ok(out)
    }

    /// Reserves one fan-out epoch on the attached fault model and
    /// snapshots it. Reserving is the only sequential fault-state step;
    /// everything downstream is a pure function of (seed, epoch, o).
    fn reserve_epoch(&self) -> (u64, Option<FaultInjector>) {
        match &self.faults {
            Some(faults) => {
                let epoch = faults.borrow_mut().reserve_epochs(1);
                (epoch, Some(faults.borrow().clone()))
            }
            None => (0, None),
        }
    }
}

/// One conv layer laid out on the JTC: its pseudo-negative halves, padded
/// input rows, row schedule and plane geometries. Built once per layer;
/// [`CleanSpectra`] keeps it for every conv that reuses its light.
#[derive(Debug)]
struct Layer {
    /// Unpadded input height and width (for the `conv2d` span label).
    input_hw: (usize, usize),
    split: PseudoNegativeSplit,
    /// Padded rows of each input channel.
    channel_rows: Vec<Vec<Vec<f64>>>,
    schedule: RowSchedule,
    /// The plane geometry of each pass.
    geometries: Vec<PlaneGeometry>,
    /// The kernel slot of each pass. A kernel spectrum depends on the
    /// kernel rows and the plane size only, so passes that agree on both
    /// share a slot, and one spectrum per (o, i, half).
    kernel_slot: Vec<usize>,
    /// The first pass of each kernel slot.
    slot_pass: Vec<usize>,
}

impl Layer {
    /// Lays out `conv2d(input, weights, stride, padding)` on `tile`
    /// waveguides along its [`row_schedule`].
    fn new(
        jtc: &Jtc,
        tile: usize,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
    ) -> Result<Self, FunctionalError> {
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
        let schedule = row_schedule((padded.height(), padded.width()), (kh, kw), tile, stride)?;
        let passes = schedule.passes();
        let geometries: Vec<PlaneGeometry> = passes
            .iter()
            .map(|pass| {
                let (signal_len, kernel_len) = schedule.operand_lens(pass);
                jtc.plane_geometry(signal_len, kernel_len)
                    .expect("a scheduled pass has non-empty operands")
            })
            .collect();
        let mut slot_pass: Vec<usize> = Vec::new();
        let kernel_slot = (0..passes.len())
            .map(|p| {
                let slot = slot_pass.iter().position(|&q| {
                    passes[q].kernel_rows() == passes[p].kernel_rows()
                        && geometries[q].n() == geometries[p].n()
                });
                slot.unwrap_or_else(|| {
                    slot_pass.push(p);
                    slot_pass.len() - 1
                })
            })
            .collect();
        Ok(Self {
            input_hw: (input.height(), input.width()),
            split: PseudoNegativeSplit::of(weights),
            channel_rows,
            schedule,
            geometries,
            kernel_slot,
            slot_pass,
        })
    }

    fn in_channels(&self) -> usize {
        self.channel_rows.len()
    }

    fn out_channels(&self) -> usize {
        self.split.positive.out_channels()
    }

    /// The clean 1-D kernel of output channel `o`, input channel `i`,
    /// pseudo-negative half `half` (0 positive, 1 negative) in kernel slot
    /// `slot`, tiled straight from the half's OIHW weights.
    fn kernel(&self, o: usize, i: usize, half: usize, slot: usize) -> Vec<f64> {
        let split = [&self.split.positive, &self.split.negative][half];
        let (kw, taps) = (split.kernel_w(), split.kernel_h() * split.kernel_w());
        let start = (o * split.in_channels() + i) * taps;
        let rows: Vec<&[f64]> = split.data()[start..start + taps].chunks_exact(kw).collect();
        let pass = &self.schedule.passes()[self.slot_pass[slot]];
        self.schedule.kernel(&rows, pass)
    }

    /// The plane geometry of kernel slot `slot`.
    fn slot_geometry(&self, slot: usize) -> PlaneGeometry {
        self.geometries[self.slot_pass[slot]]
    }
}

/// The row schedule of a valid convolution of a `padded_hw` input with a
/// `kernel_hw` kernel on `tile` waveguides. It is always
/// [`TilingMode::Exact`], which keeps the functional result bit-identical
/// to the digital reference irrespective of column bookkeeping; every
/// functional layer and the campaign's workload check plan through here.
///
/// # Errors
///
/// [`TilingError`] as [`RowSchedule::new`] returns it.
pub(crate) fn row_schedule(
    padded_hw: (usize, usize),
    kernel_hw: (usize, usize),
    tile: usize,
    stride: usize,
) -> Result<RowSchedule, TilingError> {
    RowSchedule::new(padded_hw, kernel_hw, tile, TilingMode::Exact, stride)
}

/// Runs `layer` under `faults` for fan-out `epoch`, reusing `spectra`
/// (built for this layer) on the spectral path. Returns the output tensor
/// and the optical pass count.
fn run_layer(
    jtc: &Jtc,
    layer: &Layer,
    faults: Option<&FaultInjector>,
    epoch: u64,
    spectra: Option<&CleanSpectra>,
) -> Result<(Tensor3, u64), FunctionalError> {
    let (in_channels, out_channels) = (layer.in_channels(), layer.out_channels());
    let _conv = refocus_obs::span_with("conv2d", || {
        let (h, w) = layer.input_hw;
        format!("in={in_channels}x{h}x{w} out_ch={out_channels}")
    });
    let (out_h, out_w) = layer.schedule.output_hw();

    // A transparent injector changes nothing, so it takes the clean
    // path untouched.
    let faults = faults.filter(|f| !f.is_transparent());
    // Without converters, a pass differs from the others only in its
    // light and in faults that are linear in it: lens 1 and lens 2 are
    // linear, so passes may share spectra and detector sums.
    let results = if !jtc.has_converters() {
        let faults = faults.map(|injector| SpectralFaults::new(injector, epoch, layer));
        Spectral {
            jtc,
            layer,
            spectra,
            faults: faults.as_ref(),
        }
        .channels()
    } else {
        per_pass_channels(jtc, layer, faults, epoch)
    };

    let mut out = Tensor3::zeros(out_channels, out_h, out_w);
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

/// Every output channel of `layer`, pass by pass through
/// [`Jtc::correlate_with_faults`] / [`Jtc::correlate`], whose converters
/// act on one pass at a time. Output channel `o` walks its injector
/// derived for (`epoch`, `o`) in (input channel, half, pass) order. Each
/// (o, i, half) sums its passes into a zeroed partial before the partial
/// joins the half's accumulator, so every output takes its additions in
/// one fixed order.
fn per_pass_channels(
    jtc: &Jtc,
    layer: &Layer,
    faults: Option<&FaultInjector>,
    epoch: u64,
) -> Vec<Result<(Vec<f64>, u64), FunctionalError>> {
    let schedule = &layer.schedule;
    let passes = schedule.passes();
    let (out_h, out_w) = schedule.output_hw();
    let local_passes = (layer.in_channels() * 2 * passes.len()) as u64;
    let channels: Vec<usize> = (0..layer.out_channels()).collect();
    refocus_par::par_map(&channels, |&o| {
        // One span per output-channel worker: this is the unit the
        // row-tiling fan-out distributes over pool threads.
        let _chan = refocus_obs::span_with("conv2d.channel", || format!("oc={o}"));
        let mut worker_faults = faults.map(|f| f.for_work_item(epoch, o as u64));
        let mut acc = [0, 1].map(|_| vec![vec![0.0; out_w]; out_h]);
        let mut partial = vec![vec![0.0; out_w]; out_h];
        for (i, rows) in layer.channel_rows.iter().enumerate() {
            let signals: Vec<Vec<f64>> = passes.iter().map(|p| schedule.signal(rows, p)).collect();
            for (half, acc) in acc.iter_mut().enumerate() {
                let kernels: Vec<Vec<f64>> = (0..layer.slot_pass.len())
                    .map(|slot| layer.kernel(o, i, half, slot))
                    .collect();
                partial.iter_mut().for_each(|row| row.fill(0.0));
                for ((pass, signal), &slot) in passes.iter().zip(&signals).zip(&layer.kernel_slot) {
                    let kernel = &kernels[slot];
                    let out = match worker_faults.as_mut() {
                        Some(fi) => jtc.correlate_with_faults(signal, kernel, fi),
                        None => jtc.correlate(signal, kernel),
                    }
                    .expect("scheduled operands are non-empty and non-negative");
                    schedule.scatter(pass, out.valid(), &mut partial);
                }
                for (ar, pr) in acc.iter_mut().zip(&partial) {
                    for (a, p) in ar.iter_mut().zip(pr) {
                        *a += p;
                    }
                }
            }
        }
        let [pos, neg] = &acc;
        Ok((recombine(pos, neg)?, local_passes))
    })
}

/// The clean lens-1 light of one layer, computed once and shared by every
/// conv of that layer, the way the optical buffer replays light that was
/// generated once (§4.1): a fault campaign runs the same input through
/// the same weights in every cell. Holds `(C_in·P + 2·C_out·C_in·S)`
/// spectra of `n/2 + 1` bins (P passes, S kernel slots, 16 B per bin).
#[derive(Debug)]
pub(crate) struct CleanSpectra {
    layer: Layer,
    /// The signal spectrum of each (input channel, pass), input-channel
    /// major.
    signals: Vec<Spectrum>,
    /// The clean kernel operand and its spectrum of each (o, i, half,
    /// kernel slot), in that order.
    kernels: Vec<(Vec<f64>, Spectrum)>,
}

impl CleanSpectra {
    fn new(jtc: &Jtc, layer: Layer) -> Self {
        let _s = refocus_obs::span("jtc.spectral.lens1");
        let slots = layer.slot_pass.len();
        let passes: Vec<usize> = (0..layer.geometries.len()).collect();
        let signals = signal_spectra(jtc, &layer, &passes);
        let mut kernels =
            Vec::with_capacity(layer.out_channels() * layer.in_channels() * 2 * slots);
        for o in 0..layer.out_channels() {
            for i in 0..layer.in_channels() {
                for half in 0..2 {
                    for slot in 0..slots {
                        let kernel = layer.kernel(o, i, half, slot);
                        let spectrum = jtc
                            .kernel_spectrum(layer.slot_geometry(slot), &kernel)
                            .expect("pseudo-negative halves are non-negative");
                        kernels.push((kernel, spectrum));
                    }
                }
            }
        }
        refocus_obs::counter(
            "jtc.lens1.transforms",
            (signals.len() + kernels.len()) as u64,
        );
        Self {
            layer,
            signals,
            kernels,
        }
    }

    /// The signal spectrum of input channel `i`, pass `pass`.
    fn signal(&self, i: usize, pass: usize) -> &Spectrum {
        &self.signals[i * self.layer.geometries.len() + pass]
    }

    /// The clean kernel operand and spectrum of (o, i, half, slot).
    fn kernel(&self, o: usize, i: usize, half: usize, slot: usize) -> &(Vec<f64>, Spectrum) {
        let slots = self.layer.slot_pass.len();
        &self.kernels[((o * self.layer.in_channels() + i) * 2 + half) * slots + slot]
    }
}

/// The signal spectrum of each (input channel, pass of `passes`) of
/// `layer`, input-channel major.
fn signal_spectra(jtc: &Jtc, layer: &Layer, passes: &[usize]) -> Vec<Spectrum> {
    let schedule = &layer.schedule;
    layer
        .channel_rows
        .iter()
        .flat_map(|rows| passes.iter().map(move |&p| (rows, p)))
        .map(|(rows, p)| {
            let signal = schedule.signal(rows, &schedule.passes()[p]);
            jtc.signal_spectrum(layer.geometries[p], &signal)
                .expect("activations are non-negative")
        })
        .collect()
}

/// A noiseless fault model on the spectral path. Stuck taps and dead
/// pixels are fixed sites of the injector: a stuck tap corrupts the kernel
/// operand before its one lens-1 spectrum, and the dead-pixel mask, linear
/// and the same for every pass of one geometry, zeroes the summed readout.
/// Laser drift is one factor per pass that scales the whole field.
struct SpectralFaults {
    sites: FaultSites,
    passes: usize,
    /// Per output channel, the drift factor of each (input channel, half,
    /// pass) in the per-pass path's order; empty when the spec has no
    /// drift, where every factor is exactly 1.
    drift: Vec<Vec<f64>>,
}

impl SpectralFaults {
    /// Draws the injector's fault sites once for `layer` and walks each
    /// output channel's drift for layer fan-out `epoch` the way the
    /// per-pass path does: one step per pass, (i, half, pass) order, on
    /// [`FaultInjector::for_work_item`]`(epoch, o)`.
    fn new(injector: &FaultInjector, epoch: u64, layer: &Layer) -> Self {
        let schedule = &layer.schedule;
        let (signals, kernels): (Vec<usize>, Vec<usize>) = schedule
            .passes()
            .iter()
            .map(|pass| schedule.operand_lens(pass))
            .unzip();
        let longest = |lens: Vec<usize>| lens.into_iter().max().unwrap_or(0);
        let passes = schedule.passes().len();
        let drift = if injector.spec().laser_drift_sigma == 0.0 {
            Vec::new()
        } else {
            (0..layer.out_channels())
                .map(|o| {
                    let mut walk = injector.for_work_item(epoch, o as u64);
                    (0..layer.in_channels() * 2 * passes)
                        .map(|_| walk.laser_drift_step())
                        .collect()
                })
                .collect()
        };
        Self {
            sites: FaultSites::new(injector, longest(kernels), longest(signals)),
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

/// An injector's stuck taps and dead pixels over one layer's operands,
/// drawn once per conv. Sites are pure functions of the injector's seed
/// and the site index, the same for every
/// [`FaultInjector::for_work_item`] child, so applying them equals
/// [`FaultInjector::corrupt_kernel`] and
/// [`FaultInjector::mask_dead_pixels`] bit for bit, without a hash per
/// tap and pixel of every operand.
#[derive(Debug)]
struct FaultSites {
    /// Stuck weight-bank taps below the layer's longest kernel operand,
    /// ascending.
    stuck: Vec<usize>,
    stuck_level: f64,
    /// Dead detector pixels below the layer's longest signal (the last
    /// pixel a valid window reads), ascending.
    dead: Vec<usize>,
}

impl FaultSites {
    fn new(injector: &FaultInjector, taps: usize, pixels: usize) -> Self {
        let spec = injector.spec();
        // A zero rate draws no site, as the per-index methods return early.
        let sites = |rate: f64, len: usize, hit: fn(&FaultInjector, usize) -> bool| {
            if rate == 0.0 {
                Vec::new()
            } else {
                (0..len).filter(|&i| hit(injector, i)).collect()
            }
        };
        Self {
            stuck: sites(spec.stuck_weight_rate, taps, FaultInjector::weight_is_stuck),
            stuck_level: spec.stuck_weight_level,
            dead: sites(spec.dead_pixel_rate, pixels, FaultInjector::pixel_is_dead),
        }
    }

    /// The stuck taps of `kernel` and the value they freeze at.
    fn stuck_taps(&self, kernel: &[f64]) -> (&[usize], f64) {
        let stuck = &self.stuck[..self.stuck.partition_point(|&i| i < kernel.len())];
        if stuck.is_empty() {
            return (stuck, 0.0);
        }
        let full_scale = kernel.iter().fold(0.0_f64, |m, &v| m.max(v));
        (stuck, self.stuck_level * full_scale)
    }

    /// Whether [`FaultInjector::corrupt_kernel`] leaves every bit of
    /// `kernel` in place: each stuck tap already holds the stuck value.
    fn leaves_kernel(&self, kernel: &[f64]) -> bool {
        let (stuck, value) = self.stuck_taps(kernel);
        stuck
            .iter()
            .all(|&i| kernel[i].to_bits() == value.to_bits())
    }

    /// [`FaultInjector::corrupt_kernel`] on a kernel no longer than the
    /// layer's longest.
    fn corrupt_kernel(&self, kernel: &mut [f64]) {
        let (stuck, value) = self.stuck_taps(kernel);
        for &i in stuck {
            kernel[i] = value;
        }
    }

    /// [`FaultInjector::mask_dead_pixels`] on a readout that ends at or
    /// before the layer's longest signal.
    fn mask_dead_pixels(&self, first_pixel: usize, detected: &mut [f64]) {
        let from = self.dead.partition_point(|&p| p < first_pixel);
        let end = first_pixel + detected.len();
        for &p in self.dead[from..].iter().take_while(|&&p| p < end) {
            detected[p - first_pixel] = 0.0;
        }
    }
}

/// Bytes of lens-1 spectra one spectral block may hold: the shared signal
/// spectra plus one worker's detector sums. Bounds the path's memory on
/// row-partitioned layers, whose passes run into the hundreds. An output
/// channel keeps its `2·C_in` kernel spectra of one slot across that
/// slot's blocks when they fit this budget too.
const SPECTRAL_BLOCK_BYTES: usize = 128 * 1024;

/// One output channel's state across the blocks of a spectral layer.
struct Channel<'a> {
    /// The positive and negative accumulators, one row per output row.
    acc: [Vec<Vec<f64>>; 2],
    /// The current kernel slot's spectra, a (positive, negative) pair per
    /// input channel with stuck taps applied, kept while more blocks of
    /// the slot follow; empty otherwise.
    kernels: Vec<[Cow<'a, Spectrum>; 2]>,
}

/// A run of passes of one kernel slot, small enough for
/// [`SPECTRAL_BLOCK_BYTES`], with its signal spectra.
struct Block<'s> {
    slot: usize,
    /// Pass indices, ascending.
    passes: &'s [usize],
    /// The signal spectrum of each (input channel, pass of `passes`),
    /// input-channel major.
    signals: Vec<&'s Spectrum>,
    /// Whether a worker keeps the kernel spectra it transforms for the
    /// blocks of the slot that follow.
    keep: bool,
}

/// A layer on the spectral path of [`OpticalExecutor::conv2d`], with the
/// clean light and the fault model it runs under.
struct Spectral<'a> {
    jtc: &'a Jtc,
    layer: &'a Layer,
    /// The layer's clean light, when a campaign computed it once.
    spectra: Option<&'a CleanSpectra>,
    faults: Option<&'a SpectralFaults>,
}

impl<'a> Spectral<'a> {
    /// Every output channel of the layer: each (input channel, pass) signal
    /// spectrum is computed once and shared by all output-channel workers
    /// (the optical buffer, §4.1); each (o, i, half, kernel slot) kernel
    /// spectrum, stuck taps applied, once per layer when a worker's slot
    /// spectra fit the block budget, else once per block; and each (o,
    /// pass, half) detector sums its input channels, each scaled by its
    /// pass's laser drift, before one lens-2 transform (temporal
    /// accumulation §4.1.4, WDM §4.2) and the dead-pixel mask. With
    /// `spectra`, signal spectra are read from it and kernel spectra
    /// borrowed from it where the stuck taps leave the kernel unchanged.
    /// Passes are still counted one per (o, i, half, pass).
    fn channels(&self) -> Vec<Result<(Vec<f64>, u64), FunctionalError>> {
        let layer = self.layer;
        let (in_channels, out_channels) = (layer.in_channels(), layer.out_channels());
        let schedule = &layer.schedule;
        let passes = schedule.passes();
        let served = (out_channels * in_channels * 2 * passes.len()) as u64;
        refocus_obs::counter("jtc.spectra_reused", served);

        let (out_h, out_w) = schedule.output_hw();
        let channels: Vec<Mutex<Channel>> = (0..out_channels)
            .map(|_| {
                Mutex::new(Channel {
                    acc: [vec![vec![0.0; out_w]; out_h], vec![vec![0.0; out_w]; out_h]],
                    kernels: Vec::new(),
                })
            })
            .collect();
        // Blocks run slot by slot, so a worker needs one slot's kernels at
        // a time. Each worker scatters its valid windows at once, which
        // keeps every output sample's additions in pass order: a tiled
        // layer's passes write disjoint output rows, and the sub-passes
        // of a row-partitioned output row are its kernel slices, in slot
        // order (slots are numbered in first-use order).
        for slot in 0..layer.slot_pass.len() {
            let slot_passes: Vec<usize> = (0..passes.len())
                .filter(|&p| layer.kernel_slot[p] == slot)
                .collect();
            let bytes = (layer.slot_geometry(slot).n() / 2 + 1) * 16;
            // As many passes as fit the budget; one pass always fits.
            let per_block = (SPECTRAL_BLOCK_BYTES / ((in_channels + 1) * bytes)).max(1);
            let blocks = slot_passes.chunks(per_block);
            let (count, keep) = (
                blocks.len(),
                blocks.len() > 1 && 2 * in_channels * bytes <= SPECTRAL_BLOCK_BYTES,
            );
            for (b, block_passes) in blocks.enumerate() {
                let owned: Vec<Spectrum>;
                let signals = match self.spectra {
                    Some(spectra) => (0..in_channels)
                        .flat_map(|i| block_passes.iter().map(move |&p| spectra.signal(i, p)))
                        .collect(),
                    None => {
                        // Serial: one transform per operand is a small
                        // share of the layer, and a second pool region per
                        // block costs more peak memory than it saves time.
                        let _s = refocus_obs::span("jtc.spectral.lens1");
                        owned = signal_spectra(self.jtc, layer, block_passes);
                        refocus_obs::counter("jtc.lens1.transforms", owned.len() as u64);
                        owned.iter().collect()
                    }
                };
                let block = Block {
                    slot,
                    passes: block_passes,
                    signals,
                    keep,
                };
                refocus_par::par_map_indexed(&channels, |o, channel| {
                    let _chan = refocus_obs::span_with("conv2d.channel", || format!("oc={o}"));
                    let mut channel = channel.lock().expect("channel lock");
                    let Channel { acc, kernels } = &mut *channel;
                    let windows = self.block(&block, o, kernels);
                    for (&p, halves) in block.passes.iter().zip(&windows) {
                        for (acc, valid) in acc.iter_mut().zip(halves) {
                            schedule.scatter(&passes[p], valid, acc);
                        }
                    }
                    if b + 1 == count {
                        kernels.clear();
                    }
                });
            }
        }
        let local_passes = (in_channels * 2 * passes.len()) as u64;
        channels
            .into_iter()
            .map(|channel| {
                let [pos, neg] = channel.into_inner().expect("channel lock").acc;
                Ok((recombine(&pos, &neg)?, local_passes))
            })
            .collect()
    }

    /// Output channel `o`'s share of `block`: the valid windows of its
    /// positive and negative detector sums, one per pass. `kernels` holds
    /// the channel's kernel spectra of the block's slot that earlier
    /// blocks kept; the rest are transformed here, and kept if
    /// `block.keep`.
    fn block(
        &self,
        block: &Block,
        o: usize,
        kernels: &mut Vec<[Cow<'a, Spectrum>; 2]>,
    ) -> Vec<[Vec<f64>; 2]> {
        let layer = self.layer;
        let mut detectors: Vec<[DetectorSum; 2]> = block
            .passes
            .iter()
            .map(|&p| [0, 1].map(|_| self.jtc.detector(layer.geometries[p])))
            .collect();
        for (i, signals) in block.signals.chunks(block.passes.len()).enumerate() {
            let fresh;
            let pair = if i < kernels.len() {
                &kernels[i]
            } else if block.keep {
                kernels.push(self.kernel_pair(block.slot, o, i));
                &kernels[i]
            } else {
                fresh = self.kernel_pair(block.slot, o, i);
                &fresh
            };
            let _s = refocus_obs::span("jtc.spectral.detect");
            let kernels = [&*pair[0], &*pair[1]];
            for ((detectors, signal), &p) in detectors.iter_mut().zip(signals).zip(block.passes) {
                let drift = [0, 1].map(|half| self.faults.map_or(1.0, |f| f.drift(o, i, half, p)));
                DetectorSum::add_pair(detectors, signal, kernels, drift);
            }
        }
        let _s = refocus_obs::span("jtc.spectral.lens2");
        refocus_obs::counter("jtc.lens2.transforms", 2 * block.passes.len() as u64);
        detectors
            .iter()
            .zip(block.passes)
            .map(|(pair, &p)| {
                pair.each_ref().map(|detector| {
                    let mut valid = detector.read_valid();
                    if let Some(faults) = self.faults {
                        // Valid lag `v` is pixel `v + lk − 1` of the full
                        // window `Jtc::correlate_with_faults` masks.
                        let lk = layer.schedule.operand_lens(&layer.schedule.passes()[p]).1;
                        faults.sites.mask_dead_pixels(lk - 1, &mut valid);
                    }
                    valid
                })
            })
            .collect()
    }

    /// The (positive, negative) kernel spectra of (o, i) in kernel slot
    /// `slot`, stuck taps applied: borrowed from the clean light where the
    /// taps leave every bit of the operand in place, transformed
    /// otherwise.
    fn kernel_pair(&self, slot: usize, o: usize, i: usize) -> [Cow<'a, Spectrum>; 2] {
        let _s = refocus_obs::span("jtc.spectral.lens1");
        let layer = self.layer;
        let sites = self.faults.map(|f| &f.sites);
        let mut transforms = 0;
        let pair = [0, 1].map(|half| {
            let clean = self.spectra.map(|s| s.kernel(o, i, half, slot));
            match clean {
                Some((operand, spectrum)) if sites.is_none_or(|s| s.leaves_kernel(operand)) => {
                    Cow::Borrowed(spectrum)
                }
                _ => {
                    let mut kernel = match clean {
                        Some((operand, _)) => operand.clone(),
                        None => layer.kernel(o, i, half, slot),
                    };
                    if let Some(sites) = sites {
                        sites.corrupt_kernel(&mut kernel);
                    }
                    transforms += 1;
                    Cow::Owned(
                        self.jtc
                            .kernel_spectrum(layer.slot_geometry(slot), &kernel)
                            .expect("pseudo-negative halves are non-negative"),
                    )
                }
            }
        });
        refocus_obs::counter("jtc.lens1.transforms", transforms);
        pair
    }
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
    use refocus_nn::tiling::tiled_conv2d_strided_with;

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
        let jtc = Jtc::ideal();
        // (what, data seed, tile, C_in, C_out, h, w, k, stride, padding)
        let cases = [
            ("short last tile", 40, 128, 2, 3, 20, 20, 3, 1, 1),
            ("stride 2", 42, 256, 3, 2, 16, 16, 3, 2, 1),
            ("1x1 stride 2", 44, 256, 4, 3, 14, 14, 1, 2, 0),
            ("row-partitioned", 50, 50, 2, 2, 13, 20, 5, 2, 0),
        ];
        for (what, seed, tile, c_in, c_out, h, w, k, stride, padding) in cases {
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

    /// The faulted per-pass reference: every (o, i, half) convolution
    /// through the public strided tiling, each output channel's injector
    /// derived for `epoch` and walked pass by pass, in (i, half, pass)
    /// order, through [`Jtc::correlate_with_faults`] ([`Jtc::correlate`]
    /// without one). Each half sums its (o, i) partials on its own before
    /// the two are subtracted, as the executor sums them.
    #[allow(clippy::too_many_arguments)]
    fn faulted_per_pass_oracle(
        jtc: &Jtc,
        tile: usize,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
        injector: Option<&FaultInjector>,
        epoch: u64,
    ) -> Tensor3 {
        let split = PseudoNegativeSplit::of(weights);
        let padded = input.pad_spatial(padding);
        let mut out: Option<Tensor3> = None;
        for o in 0..weights.out_channels() {
            let mut worker = injector.map(|f| f.for_work_item(epoch, o as u64));
            let mut acc: [Vec<Vec<f64>>; 2] = Default::default();
            for i in 0..input.channels() {
                let rows: Vec<Vec<f64>> =
                    padded.channel_rows(i).iter().map(|r| r.to_vec()).collect();
                for (acc, half) in acc.iter_mut().zip([&split.positive, &split.negative]) {
                    let partial = tiled_conv2d_strided_with(
                        &rows,
                        &half.kernel(o, i),
                        tile,
                        TilingMode::Exact,
                        stride,
                        |s, k| {
                            match worker.as_mut() {
                                Some(fi) => jtc.correlate_with_faults(s, k, fi),
                                None => jtc.correlate(s, k),
                            }
                            .unwrap()
                            .valid()
                            .to_vec()
                        },
                    )
                    .unwrap();
                    if acc.is_empty() {
                        *acc = vec![vec![0.0; partial[0].len()]; partial.len()];
                    }
                    for (ar, pr) in acc.iter_mut().zip(&partial) {
                        for (a, p) in ar.iter_mut().zip(pr) {
                            *a += p;
                        }
                    }
                }
            }
            let [pos, neg] = &acc;
            let out = out.get_or_insert_with(|| {
                Tensor3::zeros(weights.out_channels(), pos.len(), pos[0].len())
            });
            for (oy, (p, n)) in pos.iter().zip(neg).enumerate() {
                for (ox, (a, b)) in p.iter().zip(n).enumerate() {
                    out.set(o, oy, ox, a - b);
                }
            }
        }
        out.unwrap()
    }

    /// Faulted layers against the per-pass oracle: within rounding on the
    /// ideal JTC's spectral path, and bit for bit on the quantized JTC,
    /// which runs the oracle's passes in the oracle's order, with and
    /// without an injector.
    #[test]
    fn faulted_spectral_path_matches_per_pass_oracle() {
        use refocus_photonics::faults::FaultSpec;
        // (what, tile, C_in, C_out, h, w, k, stride, padding)
        let cases = [
            ("one pass", 256, 2, 2, 8, 8, 3, 1, 1),
            ("multi-tile", 64, 2, 3, 12, 12, 3, 1, 1),
            ("stride 2", 128, 3, 2, 16, 16, 3, 2, 1),
            ("row-partitioned", 50, 2, 2, 13, 20, 5, 2, 0),
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
        for (n, (what, tile, c_in, c_out, h, w, k, stride, padding)) in
            cases.into_iter().enumerate()
        {
            let data = 60 + 2 * n as u64;
            let input = Tensor3::random(c_in, h, w, 0.0, 1.0, data);
            let weights = Tensor4::random(c_out, c_in, k, k, -1.0, 1.0, data + 1);
            let config = AcceleratorConfig {
                tile,
                ..AcceleratorConfig::refocus_ff()
            };
            let bits = |t: &Tensor3| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for jtc in [Jtc::ideal(), Jtc::quantized()] {
                let clean = OpticalExecutor::new(&config, jtc.clone())
                    .conv2d(&input, &weights, stride, padding)
                    .unwrap();
                if jtc.has_converters() {
                    let want = faulted_per_pass_oracle(
                        &jtc, tile, &input, &weights, stride, padding, None, 0,
                    );
                    assert_eq!(bits(&clean), bits(&want), "{what}, no injector");
                }
                for (faults, spec) in specs {
                    for seed in [1, 2, 3] {
                        let injector = FaultInjector::new(spec, seed);
                        let exec = OpticalExecutor::new(&config, jtc.clone())
                            .with_faults(injector.clone());
                        let got = exec.conv2d(&input, &weights, stride, padding).unwrap();
                        let want = faulted_per_pass_oracle(
                            &jtc,
                            tile,
                            &input,
                            &weights,
                            stride,
                            padding,
                            Some(&injector),
                            0,
                        );
                        assert_eq!(got.shape(), want.shape(), "{what}, {faults}");
                        let peak = want.max_abs();
                        if jtc.has_converters() {
                            assert_eq!(bits(&got), bits(&want), "{what}, {faults}, seed {seed}");
                        } else {
                            assert!(
                                max_diff(&got, &want) <= 1e-9 * peak,
                                "{what}, {faults}, seed {seed}: diff {} vs peak {peak}",
                                max_diff(&got, &want)
                            );
                        }
                        // The faults moved the output: the comparison is
                        // not between two clean layers.
                        assert!(max_diff(&got, &clean) > 1e-9 * peak, "{what}, {faults}");
                    }
                }
            }
        }
    }

    /// Fault sites drawn once apply bit for bit as the per-index
    /// `corrupt_kernel` and `mask_dead_pixels` do, and "leaves the kernel"
    /// holds exactly when the per-index corruption moves no bit.
    #[test]
    fn fault_sites_match_the_per_index_injector() {
        use refocus_photonics::faults::FaultSpec;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Signed zeros, repeated taps and taps equal to half the peak, so
        // a stuck tap sometimes already holds its stuck value.
        let kernels: [&[f64]; 5] = [
            &[0.0, -0.0, 1.0, 1.0, 0.5, 0.0, 0.0, 1.0, -0.0, 0.5],
            &[-0.0; 7],
            &[0.25, 0.5, 0.25, 0.5, 0.25, 0.0, 0.5, 0.5, 0.5],
            &[0.0; 12],
            &[
                2.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0,
            ],
        ];
        let (mut unchanged, mut changed) = (0, 0);
        for rate in [0.0, 0.3, 1.0] {
            for level in [0.0, 0.5] {
                for seed in 0..16 {
                    let spec = FaultSpec::none()
                        .with_stuck_weights(rate, level)
                        .with_dead_pixel_rate(rate);
                    let injector = FaultInjector::new(spec, seed);
                    let sites = FaultSites::new(&injector, 13, 40);
                    for kernel in kernels {
                        let (mut want, mut got) = (kernel.to_vec(), kernel.to_vec());
                        injector.corrupt_kernel(&mut want);
                        sites.corrupt_kernel(&mut got);
                        assert_eq!(bits(&got), bits(&want), "rate {rate} level {level}");
                        let same = bits(&want) == bits(kernel);
                        assert_eq!(sites.leaves_kernel(kernel), same, "{kernel:?} {want:?}");
                        if rate > 0.0 && same {
                            unchanged += 1;
                        } else if !same {
                            changed += 1;
                        }
                    }
                    for first in [0, 1, 7, 12] {
                        for len in [0, 1, 5, 40 - first] {
                            let readout: Vec<f64> = (0..len).map(|v| 1.0 + v as f64).collect();
                            let (mut want, mut got) = (readout.clone(), readout);
                            injector.mask_dead_pixels(first, &mut want);
                            sites.mask_dead_pixels(first, &mut got);
                            assert_eq!(bits(&got), bits(&want), "rate {rate} at {first}+{len}");
                        }
                    }
                }
            }
        }
        // Both answers occur at nonzero rates.
        assert!(unchanged > 0 && changed > 0, "{unchanged} {changed}");
    }

    #[test]
    fn shared_spectra_conv_is_bit_identical_to_conv2d() {
        use refocus_photonics::faults::FaultSpec;
        let jtc = Jtc::ideal();
        // (what, tile, C_in, C_out, h, w, k, stride, padding)
        let layers = [
            ("one pass", 256, 2, 3, 8, 8, 3, 1, 1),
            ("multi-tile stride 2", 64, 2, 3, 16, 16, 3, 2, 1),
            ("row-partitioned stride 2", 50, 2, 2, 13, 20, 5, 2, 0),
        ];
        // Taps stuck above zero also hit the zero gaps of a tiled kernel.
        let specs = [
            ("transparent", FaultSpec::none()),
            ("dead taps", FaultSpec::none().with_stuck_weights(0.1, 0.0)),
            (
                "taps stuck at 0.5",
                FaultSpec::none().with_stuck_weights(0.1, 0.5),
            ),
            (
                "stuck rate 0.3",
                FaultSpec::none().with_stuck_weights(0.3, 0.25),
            ),
            (
                "stuck rate 1",
                FaultSpec::none().with_stuck_weights(1.0, 0.25),
            ),
            (
                "dead pixels and drift",
                FaultSpec::none()
                    .with_dead_pixel_rate(0.05)
                    .with_laser_drift(0.01, 0.1),
            ),
        ];
        // The first element whose bits differ, if any.
        let differs = |a: &Tensor3, b: &Tensor3| {
            assert_eq!(a.shape(), b.shape());
            (a.data().iter().zip(b.data())).position(|(x, y)| x.to_bits() != y.to_bits())
        };
        for (n, (what, tile, c_in, c_out, h, w, k, stride, padding)) in
            layers.into_iter().enumerate()
        {
            let data = 80 + 2 * n as u64;
            let input = Tensor3::random(c_in, h, w, 0.0, 1.0, data);
            let weights = Tensor4::random(c_out, c_in, k, k, -1.0, 1.0, data + 1);
            let config = AcceleratorConfig {
                tile,
                ..AcceleratorConfig::refocus_ff()
            };
            let clean = OpticalExecutor::new(&config, jtc.clone());
            let spectra = clean
                .clean_spectra(&input, &weights, stride, padding)
                .unwrap();
            let want = clean.conv2d(&input, &weights, stride, padding).unwrap();
            let got = clean.conv2d_with_spectra(&spectra).unwrap();
            assert_eq!(differs(&got, &want), None, "{what}, no injector");
            for (faults, spec) in specs {
                for seed in [1, 2] {
                    let injector = FaultInjector::new(spec, seed);
                    let want =
                        OpticalExecutor::new(&config, jtc.clone()).with_faults(injector.clone());
                    let got = OpticalExecutor::new(&config, jtc.clone()).with_faults(injector);
                    // Two convs each: both reserve one epoch per conv.
                    for conv in 0..2 {
                        let a = got.conv2d_with_spectra(&spectra).unwrap();
                        let b = want.conv2d(&input, &weights, stride, padding).unwrap();
                        assert_eq!(
                            differs(&a, &b),
                            None,
                            "{what}, {faults}, seed {seed}, conv {conv}"
                        );
                    }
                    assert_eq!(got.passes(), want.passes(), "{what}, {faults}");
                }
            }
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
    fn diverging_weights_trip_the_jtc_output_guard() {
        // Weights of 1e100 drive the detected outputs some 88 orders of
        // magnitude past `guard::MAX_MAGNITUDE`: the firewall must surface
        // that as a typed error on the spectral and the per-pass path
        // instead of handing the caller a diverged layer as output data.
        // (Weights that overflow to ∞ do not serve: the detector clips
        // the NaNs of ∞ − ∞ to zero, see `jtc::detect`.)
        let input = Tensor3::random(1, 6, 6, 0.0, 1.0, 22);
        let mut weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 23);
        weights.map_inplace(|w| w * 1e100);
        for exec in [OpticalExecutor::ideal(), OpticalExecutor::quantized()] {
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
