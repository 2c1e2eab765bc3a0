//! Host-speed calibration for the untraced run.
//!
//! On a shared host the speed of a vCPU drifts by ±20% over seconds, in
//! CPU time as much as in wall time: other tenants on the sibling
//! hyperthreads change what a CPU second buys. A run of 20 s sees a
//! different mix of fast and slow stretches than the next one, so medians
//! of raw CPU time spread by a quarter or more between runs.
//!
//! The untraced run therefore samples the host's speed as it goes. Between
//! calls into the simulator, at most every [`SLICE_EVERY`], the driving
//! thread runs a calibration slice: a fixed loop that belongs to the
//! benchmark, not to the simulator. Each stretch of simulator CPU time
//! between two slices is divided by the speed those two slices measured
//! (their mean CPU time over the slice's reference time). The sum is
//! *reference seconds*: the CPU seconds the same work takes on a host where
//! one slice takes its reference time. Slices run between the stretches
//! they measure, so their own CPU time counts in neither total.
//!
//! Slices are only taken between calls, while no pool worker runs: on the
//! thread that makes the calls and, for a workload of two threads, at the
//! same time on a second thread, so that both vCPUs the workload runs on
//! are sampled. The speed is the mean over those threads of each one's
//! own CPU time for the slice. A call that lasts a second is one stretch.

use crate::sys;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Least wall time between two slices taken by [`tick`].
const SLICE_EVERY: Duration = Duration::from_millis(50);
/// Elements of the arithmetic slice's L2-resident buffer (128 KiB), and
/// of its L1-resident one (16 KiB).
const L2_VALUES: usize = 1 << 14;
const L1_VALUES: usize = 1 << 11;
/// Rows and columns of the branchy slice's code table (4 KiB).
const TABLE: usize = 64;

/// The calibration loop a workload is measured against: the one whose
/// speed moves most like the workload's as the host's speed drifts. Over
/// a four-minute series on a 2-vCPU Xeon VM, `paper_report`'s calls
/// varied 1.02× as much as `Branchy` slices (correlation 0.87) but 1.6×
/// as much as `Arithmetic` ones, and `dse::sweep` calls 1.1× as much as
/// `Arithmetic` slices (correlation 0.9) but 0.6× as much as `Branchy`.
/// `fault_campaign`'s rounds, within one run, read 3.8–5.6 reference
/// seconds against `Arithmetic` slices and 4.8–5.2 against `Branchy`
/// ones (raw CPU time: 4.3–6.1 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Multiply-adds and square roots over an L2- and an L1-resident
    /// buffer, as in the FFTs and the analytic models.
    Arithmetic,
    /// `dac_loads`-like: counting code transitions along a channel order
    /// through an L1-resident table, a data-dependent branch per element,
    /// as in annealing.
    Branchy,
}

impl Kernel {
    /// CPU seconds one slice takes on the reference host: near its
    /// median on a 2-vCPU Xeon VM, so reference seconds read close to
    /// CPU seconds.
    fn reference_s(self) -> f64 {
        match self {
            Kernel::Arithmetic => 1.8e-3,
            Kernel::Branchy => 1.4e-3,
        }
    }
}

/// The calibration slice's data.
struct Slice {
    kernel: Kernel,
    l2_values: Vec<f64>,
    l1_values: Vec<f64>,
    /// A `TABLE` x `TABLE` table of codes in `0..4`, and a channel order.
    table: Vec<u8>,
    channels: Vec<usize>,
}

impl Slice {
    fn new(kernel: Kernel) -> Self {
        let mut rng = sys::SplitMix::new(0x5eed);
        let values = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| (i as f64 * 0.618_033_988_75).fract())
                .collect()
        };
        Slice {
            kernel,
            l2_values: values(L2_VALUES),
            l1_values: values(L1_VALUES),
            table: (0..TABLE * TABLE)
                .map(|_| (rng.next_u64() % 4) as u8)
                .collect(),
            channels: (0..TABLE).collect(),
        }
    }

    /// One slice: a fixed amount of work, about 1.5 ms on the reference
    /// host. Returns a value that depends on all of it.
    fn run(&mut self) -> f64 {
        match self.kernel {
            Kernel::Arithmetic => {
                multiply_adds(&mut self.l2_values, 6) + multiply_adds(&mut self.l1_values, 48)
            }
            Kernel::Branchy => {
                let mut changes = 0u64;
                for rep in 0..280 {
                    self.channels.swap(rep % TABLE, (rep * 13 + 5) % TABLE);
                    for row in self.table.chunks_exact(TABLE) {
                        let mut prev = u8::MAX;
                        for &c in &self.channels {
                            if row[c] != prev {
                                changes += 1;
                            }
                            prev = row[c];
                        }
                    }
                }
                changes as f64
            }
        }
    }
}

fn multiply_adds(values: &mut [f64], passes: usize) -> f64 {
    let mask = values.len() - 1;
    let mut acc = 0.0;
    for pass in 0..passes {
        for i in 0..values.len() {
            let j = (i * 7 + pass) & mask;
            let x = values[i] * 1.000_000_1 + values[j] * 0.499_999_9;
            values[i] = x - x.floor();
            acc += x.sqrt();
        }
    }
    acc
}

struct Clock {
    /// One slice per thread the workload runs on.
    slices: Vec<Slice>,
    /// CPU seconds of the last slice; `None` before the first.
    last_slice: Option<f64>,
    /// Process CPU seconds when the current stretch began.
    stretch_start: f64,
    /// CPU seconds inside the current stretch that are not the
    /// simulator's: building the slice's buffers.
    excluded: f64,
    last_tick: Instant,
    /// Simulator CPU seconds and reference seconds of closed stretches.
    cpu_total: f64,
    ref_total: f64,
}

impl Clock {
    fn close_stretch(&mut self) {
        let t0 = sys::cpu_seconds();
        let cpu = t0 - self.stretch_start - std::mem::take(&mut self.excluded);
        let slice = run_slices(&mut self.slices);
        let t1 = sys::cpu_seconds();
        let speed = match self.last_slice {
            Some(last) => (last + slice) / 2.0,
            None => slice,
        } / self.slices[0].kernel.reference_s();
        self.cpu_total += cpu;
        self.ref_total += cpu / speed;
        self.last_slice = Some(slice);
        self.stretch_start = t1;
        self.last_tick = Instant::now();
    }
}

/// Runs one slice per entry of `slices` at once, the first on this
/// thread and the others on threads of their own, and returns the mean of
/// their threads' CPU seconds.
fn run_slices(slices: &mut [Slice]) -> f64 {
    fn timed(slice: &mut Slice) -> f64 {
        let t0 = sys::thread_cpu_seconds();
        black_box(slice.run());
        sys::thread_cpu_seconds() - t0
    }
    let (first, others) = slices.split_first_mut().expect("at least one slice");
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = others.iter_mut().map(|o| s.spawn(|| timed(o))).collect();
        let mine = timed(first);
        mine + handles
            .into_iter()
            .map(|h| h.join().expect("a slice does not panic"))
            .sum::<f64>()
    });
    total / slices.len() as f64
}

static CLOCK: Mutex<Option<Clock>> = Mutex::new(None);

/// Starts calibrating against `kernel` on `threads` threads. The first
/// stretch begins at process start (zero CPU seconds), so the first
/// set-up is measured from there.
pub fn start(kernel: Kernel, threads: usize) {
    let t0 = sys::cpu_seconds();
    let mut slices: Vec<Slice> = (0..threads.max(1)).map(|_| Slice::new(kernel)).collect();
    // One untimed round of slices faults the buffers in.
    run_slices(&mut slices);
    *CLOCK.lock().expect("no slice panics") = Some(Clock {
        slices,
        last_slice: None,
        stretch_start: 0.0,
        excluded: sys::cpu_seconds() - t0,
        last_tick: Instant::now(),
        cpu_total: 0.0,
        ref_total: 0.0,
    });
}

/// Closes the current stretch with a slice if [`SLICE_EVERY`] has passed
/// since the last one. Call it between calls into the simulator, never
/// from inside a parallel region. A no-op unless calibrating.
pub fn tick() {
    let mut clock = CLOCK.lock().expect("no slice panics");
    if let Some(c) = clock.as_mut() {
        if c.last_tick.elapsed() >= SLICE_EVERY {
            c.close_stretch();
        }
    }
}

/// Runs `f` as whole stretches and returns its result with the CPU
/// seconds and reference seconds it took.
///
/// # Panics
/// If [`start`] was not called.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = close_stretch();
    let out = f();
    let after = close_stretch();
    (out, after.0 - before.0, after.1 - before.1)
}

/// Like [`measure`], but the measured region began at process start: the
/// stretch open since then is not closed first.
pub fn measure_from_start<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let out = f();
    let after = close_stretch();
    (out, after.0, after.1)
}

fn close_stretch() -> (f64, f64) {
    let mut clock = CLOCK.lock().expect("no slice panics");
    let c = clock.as_mut().expect("host::start was called");
    c.close_stretch();
    (c.cpu_total, c.ref_total)
}
