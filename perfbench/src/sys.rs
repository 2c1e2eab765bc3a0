//! Process measurements (CPU time, peak RSS), small statistics helpers,
//! and the metric sink the workloads report into.

use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals followed by fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

/// `struct timespec` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as Linux's `struct
    // timespec`, and CLOCK_THREAD_CPUTIME_ID is a valid clock;
    // clock_gettime only writes into the struct it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, including pool workers that have already exited.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as Linux's
    // `struct rusage`, and RUSAGE_SELF is a valid `who`; getrusage only
    // writes into the struct it is given.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// Wall and CPU seconds spent in `f`, with its result.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - cpu0)
}

/// Seconds spent in `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median seconds per call of `f`, over `batches` batches of `calls`
/// calls each.
pub fn per_call_seconds(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

/// SplitMix64: the benchmark's own seeded stream for input seeds and
/// visiting orders.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Operations attempted and failed, plus the work they stand for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Work counts by kind (`layers`, `passes`, `cells`, ...). Identical
    /// for every seed: only the data differs between seeds.
    pub work: BTreeMap<&'static str, u64>,
    /// One line per failed check, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn add_work(&mut self, kind: &'static str, n: u64) {
        *self.work.entry(kind).or_insert(0) += n;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.work {
            self.add_work(k, v);
        }
        self.failures.extend(other.failures);
    }
}

/// Named metrics with units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, (v, u))| (k.as_str(), *v, *u))
    }
}
