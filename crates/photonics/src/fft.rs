//! Discrete Fourier transforms.
//!
//! An on-chip Fourier lens computes a continuous Fourier transform of the
//! field on its front focal plane "at the speed of light". The discrete
//! analog used by the functional JTC model is the DFT, computed here with an
//! iterative radix-2 Cooley–Tukey FFT. Every JTC plane is a power of two
//! long ([`Jtc::plane_geometry`](crate::jtc::Jtc::plane_geometry) rounds
//! up), so the transforms take power-of-two lengths only and panic on any
//! other length; lengths 0 and 1 are no-ops.
//!
//! The JTC's lenses run crate-private variants that compute only what the
//! detectors use, bit for bit the same: lens 1 forms bins `0..=N/2` only,
//! and for an operand at the plane's origin (a kernel) it reads the
//! operand in place and skips the first stages, which would only copy
//! (`rfft_half_origin`); lens 2 unpacks only the samples read.
//!
//! Convention: `fft` computes `X[k] = sum_n x[n] * e^(-2*pi*i*k*n/N)` and
//! `ifft` divides by `N`, so `ifft(fft(x)) == x`.
//!
//! # Examples
//!
//! ```
//! use refocus_photonics::complex::Complex64;
//! use refocus_photonics::fft::{fft, ifft};
//!
//! let mut x: Vec<Complex64> = (0..8).map(|n| Complex64::from_real(n as f64)).collect();
//! let original = x.clone();
//! fft(&mut x);
//! ifft(&mut x);
//! for (a, b) in x.iter().zip(&original) {
//!     assert!((*a - *b).norm() < 1e-9);
//! }
//! ```

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Returns `n` after checking it is a length the transforms take: 0 or a
/// power of two.
///
/// # Panics
///
/// Panics, naming `n`, for any other length.
fn checked_len(n: usize) -> usize {
    assert!(
        n == 0 || n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    n
}

/// Computes the forward DFT of `x` in place. Lengths 0 and 1 are no-ops.
///
/// # Panics
///
/// Panics unless `x.len()` is 0 or a power of two.
pub fn fft(x: &mut [Complex64]) {
    if checked_len(x.len()) > 1 {
        // The functional simulator transforms the same plane sizes
        // thousands of times; a thread-local plan cache amortizes twiddle
        // and permutation setup.
        with_plan(x.len(), |plan| plan.forward(x));
    }
}

/// Computes the inverse DFT of `x` in place, including the `1/N` scaling.
/// Lengths 0 and 1 are no-ops.
///
/// # Panics
///
/// Panics unless `x.len()` is 0 or a power of two.
pub fn ifft(x: &mut [Complex64]) {
    if checked_len(x.len()) > 1 {
        with_plan(x.len(), |plan| plan.inverse(x));
    }
}

/// Forward DFT of a real-valued signal via the packed half-length
/// transform: the `N` reals are folded into an `N/2`-point complex FFT and
/// unpacked with one twiddle pass, roughly halving the work of a complex
/// [`fft`]. This is the fast path for the JTC's photodetector-bound
/// planes, which are always real-valued fields.
///
/// # Panics
///
/// Panics unless `x.len()` is 0 or a power of two.
///
/// # Examples
///
/// ```
/// use refocus_photonics::complex::Complex64;
/// use refocus_photonics::fft::{fft, rfft};
///
/// let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
/// let mut full: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
/// fft(&mut full);
/// for (a, b) in rfft(&x).iter().zip(&full) {
///     assert!((*a - *b).norm() < 1e-9);
/// }
/// ```
pub fn rfft(x: &[f64]) -> Vec<Complex64> {
    match checked_len(x.len()) {
        0 | 1 => x.iter().map(|&v| Complex64::from_real(v)).collect(),
        n => spectrum(x, n),
    }
}

/// Bins `0..=N/2` of [`rfft`], bit for bit, for a power-of-two `N >= 2`:
/// the half of a real signal's spectrum the rest mirrors, computed
/// without the upper bins.
pub(crate) fn rfft_half(x: &[f64]) -> Vec<Complex64> {
    spectrum(x, x.len() / 2 + 1)
}

/// Bins `0..=n/2` of [`rfft`] of the `n`-sample plane that holds `x` from
/// sample 0 and zeros after it, bit for bit, for a power-of-two `n >= 2`
/// and `x.len() <= n`. The plane is never built: the samples are read
/// where they are.
///
/// `x` fills the first `m = ⌈len/2⌉` packed inputs. In a stage of length
/// `L <= (n/2) / m.next_power_of_two()`, each block of the bit-reversed
/// buffer holds at most one of them, in its first slot, so each of its
/// butterflies computes `u ± (+0)·w = u ± (±0.0)`, which is `u` unless a
/// lane of `u` is `-0.0`. Those stages copy each block's first input
/// across the block; the transform fills the blocks and runs only the
/// stages after them. An `x` holding a `-0.0` or a non-finite value (whose
/// NaN payloads the copy argument does not cover) takes every stage.
pub(crate) fn rfft_half_origin(x: &[f64], n: usize) -> Vec<Complex64> {
    debug_assert!(n.is_power_of_two() && n >= 2 && x.len() <= n);
    let bins = n / 2 + 1;
    let copies = x
        .iter()
        .all(|v| v.is_finite() && (*v != 0.0 || v.is_sign_positive()));
    let copied = if copies {
        n / 2 / x.len().div_ceil(2).next_power_of_two()
    } else {
        1
    };
    let sample = |j: usize| x.get(j).copied().unwrap_or(0.0);
    unpacked(packed(n, sample, bins, copied), n, bins)
}

/// Bins `0..bins` of the DFT of real `x` (power-of-two length >= 2),
/// `bins` being `N/2 + 1` or `N`, in one buffer of `bins` elements.
fn spectrum(x: &[f64], bins: usize) -> Vec<Complex64> {
    let n = x.len();
    unpacked(packed(n, |j| x[j], bins, 1), n, bins)
}

/// Samples `at` of [`ifft_real`]`(x)`, bit for bit, for a power-of-two
/// `x.len() >= 2`: the half-length transform runs whole, but only the
/// samples read are unpacked, conjugated and scaled.
pub(crate) fn ifft_real_at(x: &[f64], at: impl Iterator<Item = usize>) -> Vec<Complex64> {
    let n = x.len();
    unpacked_at(&packed(n, |j| x[j], n / 2, 1), n, at)
}

/// Samples `at` of [`ifft_real`] over the `N`-sample real spectrum whose
/// bins `0..=N/2` are `half` and whose bins above `N/2` mirror them
/// (`x[k] = x[N-k]`, the spectrum of a real field's intensity), for a
/// power-of-two `N >= 2`; the mirrored bins are never stored.
pub(crate) fn ifft_half_at(half: &[f64], at: impl Iterator<Item = usize>) -> Vec<Complex64> {
    let (bins, n) = (half.len(), 2 * (half.len() - 1));
    let mirrored = |j: usize| if j < bins { half[j] } else { half[n - j] };
    unpacked_at(&packed(n, mirrored, n / 2, 1), n, at)
}

/// The half-length DFT `Z` of the packed sequence `z[i] = x[2i] + i·x[2i+1]`
/// (`x[j]` = `sample(j)`, `n` a power of two >= 2), in a buffer with room
/// for `capacity` bins. The pack writes each sample straight to its
/// bit-reversed slot, which is the permutation [`FftPlan::forward`]
/// would apply first.
///
/// With `copied > 1` (a power of two) the caller vouches that the stages
/// of length up to `copied` only copy each block's first input across the
/// block (see [`rfft_half_origin`]): the pack fills each block with it and
/// those stages do not run.
fn packed(
    n: usize,
    sample: impl Fn(usize) -> f64,
    capacity: usize,
    copied: usize,
) -> Vec<Complex64> {
    debug_assert!(n.is_power_of_two() && n >= 2);
    let half = n / 2;
    let mut z = Vec::with_capacity(capacity);
    if half == 1 {
        z.push(Complex64::new(sample(0), sample(1)));
        return z;
    }
    let packed = |i: u32| {
        let i = i as usize;
        Complex64::new(sample(2 * i), sample(2 * i + 1))
    };
    with_plan(half, |plan| {
        if copied == 1 {
            z.extend(plan.rev.iter().map(|&i| packed(i)));
        } else {
            for &i in plan.rev.iter().step_by(copied) {
                z.extend(std::iter::repeat_n(packed(i), copied));
            }
        }
        plan.stages(&mut z, &plan.twiddles, copied);
    });
    z
}

/// Runs `f` with the unpack twiddles `W^k = e^(-2πik/n)`, `k < n/2`.
/// They are exactly the full-length plan's last butterfly stage, so the
/// unpack borrows them from the plan cache instead of paying `n/2`
/// sin/cos evaluations per call.
fn with_unpack_twiddles<R>(n: usize, f: impl FnOnce(&[Complex64]) -> R) -> R {
    with_plan(n, |plan| {
        let (_, offset) = *plan
            .stage_offsets
            .last()
            .expect("plans always have at least one stage");
        f(&plan.twiddles[offset..offset + n / 2])
    })
}

/// Bins `k` and `k + N/2` of a real signal's DFT from its packed
/// transform: `zk = Z[k]`, `zm = Z[-k]`, `w = W^k`. With E/O the
/// half-length DFTs of the even/odd samples,
///   `E[k] = (Z[k] + conj(Z[-k])) / 2`,   `O[k] = (Z[k] - conj(Z[-k])) / 2i`,
///   `X[k] = E[k] + W^k O[k]`,  `X[k+N/2] = E[k] - W^k O[k]`,  `W = e^(-2πi/N)`.
/// The multiply by `-i/2` stays a full complex multiply: swapping the
/// lanes instead would change the sign of some zeros.
fn unpack(zk: Complex64, zm: Complex64, w: Complex64) -> (Complex64, Complex64) {
    let zc = zm.conj();
    let even = (zk + zc).scale(0.5);
    let odd = (zk - zc) * Complex64::new(0.0, -0.5);
    let t = w * odd;
    (even + t, even - t)
}

/// Unpacks the packed transform `z` of `n` real samples in place into
/// bins `0..bins` of their DFT (`bins` is `n/2 + 1` or `n`). Bins `k` and
/// `N/2 - k` read the same two packed bins, so each pair is unpacked
/// before either is overwritten.
fn unpacked(mut z: Vec<Complex64>, n: usize, bins: usize) -> Vec<Complex64> {
    let half = n / 2;
    z.resize(bins, Complex64::ZERO);
    with_unpack_twiddles(n, |w| {
        let (x0, xh) = unpack(z[0], z[0], w[0]);
        z[0] = x0;
        z[half] = xh;
        for k in 1..=half / 2 {
            let m = half - k;
            let (xk, xkh) = unpack(z[k], z[m], w[k]);
            let (xm, xmh) = unpack(z[m], z[k], w[m]);
            z[k] = xk;
            z[m] = xm;
            if bins == n {
                z[k + half] = xkh;
                z[m + half] = xmh;
            }
        }
    });
    z
}

/// Samples `at` of the inverse DFT of the `n` real values whose packed
/// transform is `z`: for real `x`, `ifft(x)[j] = conj(X[j]) / n`. `n` is a
/// power of two, so `& (half - 1)` is `% half` without a division.
fn unpacked_at(z: &[Complex64], n: usize, at: impl Iterator<Item = usize>) -> Vec<Complex64> {
    let half = n / 2;
    let (mask, inv_n) = (half - 1, 1.0 / n as f64);
    with_unpack_twiddles(n, |w| {
        at.map(|j| {
            let k = j & mask;
            let (lo, hi) = unpack(z[k], z[(half - k) & mask], w[k]);
            let v = if j < half { lo } else { hi };
            v.conj().scale(inv_n)
        })
        .collect()
    })
}

/// Inverse DFT (including the `1/N` scaling) of a **real-valued**
/// spectrum, via [`rfft`]: for real `x`, `ifft(x) = conj(fft(x)) / N`.
/// The JTC's second lens runs on exactly this shape — the Fourier-plane
/// intensity `|E|²` after the square-law nonlinearity is real.
///
/// # Panics
///
/// Panics unless `x.len()` is 0 or a power of two.
pub fn ifft_real(x: &[f64]) -> Vec<Complex64> {
    let inv_n = 1.0 / x.len() as f64;
    rfft(x).into_iter().map(|v| v.conj().scale(inv_n)).collect()
}

thread_local! {
    static PLAN_CACHE: std::cell::RefCell<std::collections::HashMap<usize, std::rc::Rc<FftPlan>>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Runs `f` with the cached [`FftPlan`] for power-of-two length `n`,
/// building and caching the plan on first use. The cache is bounded:
/// plane sizes in this workspace are small powers of two.
fn with_plan<R>(n: usize, f: impl FnOnce(&FftPlan) -> R) -> R {
    debug_assert!(n.is_power_of_two() && n >= 2);
    let plan = PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(plan) = cache.get(&n) {
            refocus_obs::counter("fft.plan_cache.hit", 1);
            plan.clone()
        } else {
            // Plan caches are thread-local, so every freshly spawned pool
            // worker starts cold; the miss counter is how a trace shows
            // that cost (DESIGN.md §10).
            refocus_obs::counter("fft.plan_cache.miss", 1);
            cache
                .entry(n)
                .or_insert_with(|| std::rc::Rc::new(FftPlan::new(n)))
                .clone()
        }
    });
    f(&plan)
}

/// A reusable FFT plan for one power-of-two length: twiddle factors and the
/// bit-reversal permutation are computed once, which matters when the JTC
/// simulator transforms the same plane size thousands of times.
#[derive(Debug)]
struct FftPlan {
    n: usize,
    /// Forward twiddles, laid out stage by stage: for stage length `len`,
    /// the `len/2` roots `e^(-2πik/len)`.
    twiddles: Vec<Complex64>,
    /// Inverse twiddles: the same table conjugated at build time, so the
    /// inverse butterfly loop carries no per-element `conj` branch.
    inv_twiddles: Vec<Complex64>,
    /// Per-stage offsets into `twiddles`.
    stage_offsets: Vec<(usize, usize)>, // (len, offset)
    /// The bit-reversal permutation: `rev[i]` is `i` with its bits
    /// reversed. It is its own inverse.
    rev: Vec<u32>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two and at least 2, and (for the
    /// compact permutation table) `n <= 2^32`.
    fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "plan length must be a power of two >= 2, got {n}"
        );
        assert!(n <= (1usize << 32), "plan length too large");
        let mut twiddles = Vec::new();
        let mut stage_offsets = Vec::new();
        let mut len = 2;
        while len <= n {
            stage_offsets.push((len, twiddles.len()));
            let ang = -2.0 * PI / len as f64;
            for k in 0..len / 2 {
                twiddles.push(Complex64::cis(ang * k as f64));
            }
            len <<= 1;
        }
        let shift = n.leading_zeros() + 1;
        let rev = (0..n).map(|i| (i.reverse_bits() >> shift) as u32).collect();
        let inv_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        Self {
            n,
            twiddles,
            inv_twiddles,
            stage_offsets,
            rev,
        }
    }

    fn run(&self, x: &mut [Complex64], twiddles: &[Complex64]) {
        assert_eq!(
            x.len(),
            self.n,
            "plan is for length {}, got {}",
            self.n,
            x.len()
        );
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                x.swap(i, j);
            }
        }
        self.stages(x, twiddles, 1);
    }

    /// The butterfly stages longer than `copied` (a power of two; 1 runs
    /// them all) over `x`, already in bit-reversed order. Each stage walks
    /// its blocks and twiddles by iterator, so no operand is
    /// bounds-checked; when they both run, the first two stages (lengths 2
    /// and 4) run as one pass over groups of four, with the same
    /// multiplies and adds.
    fn stages(&self, x: &mut [Complex64], twiddles: &[Complex64], copied: usize) {
        let skipped = copied.trailing_zeros() as usize;
        let mut stages = &self.stage_offsets[skipped..];
        if skipped == 0 && self.n >= 4 {
            stages = &stages[2..];
            let (w2, w4) = (twiddles[0], [twiddles[1], twiddles[2]]);
            for group in x.chunks_exact_mut(4) {
                let [x0, x1, x2, x3] = group else {
                    unreachable!("chunks of four")
                };
                let v = *x1 * w2;
                let (a0, a1) = (*x0 + v, *x0 - v);
                let v = *x3 * w2;
                let (a2, a3) = (*x2 + v, *x2 - v);
                let v = a2 * w4[0];
                (*x0, *x2) = (a0 + v, a0 - v);
                let v = a3 * w4[1];
                (*x1, *x3) = (a1 + v, a1 - v);
            }
        }
        for &(len, offset) in stages {
            let half = len / 2;
            let w = &twiddles[offset..offset + half];
            for block in x.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
                    let t = *v * w;
                    let a = *u;
                    *u = a + t;
                    *v = a - t;
                }
            }
        }
    }

    /// Forward DFT in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the planned length.
    fn forward(&self, x: &mut [Complex64]) {
        self.run(x, &self.twiddles);
    }

    /// Inverse DFT in place, including the `1/N` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the planned length.
    fn inverse(&self, x: &mut [Complex64]) {
        self.run(x, &self.inv_twiddles);
        let inv = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }
}

/// The power-of-two transforms and the cross-term readout exactly as they
/// stood before the stage loop lost its bounds checks, lens 1 its upper
/// bins and lens 2 its unread samples: the bit-for-bit reference the
/// tests hold the fast paths to. Plans are built per call, not cached.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::complex::Complex64;
    use std::f64::consts::PI;
    use std::ops::Range;

    pub(crate) struct FftPlan {
        n: usize,
        twiddles: Vec<Complex64>,
        inv_twiddles: Vec<Complex64>,
        stage_offsets: Vec<(usize, usize)>, // (len, offset)
        swaps: Vec<(u32, u32)>,
    }

    impl FftPlan {
        pub(crate) fn new(n: usize) -> Self {
            assert!(
                n.is_power_of_two() && n >= 2,
                "plan length must be a power of two >= 2, got {n}"
            );
            assert!(n <= (1usize << 32), "plan length too large");
            let mut twiddles = Vec::new();
            let mut stage_offsets = Vec::new();
            let mut len = 2;
            while len <= n {
                stage_offsets.push((len, twiddles.len()));
                let ang = -2.0 * PI / len as f64;
                for k in 0..len / 2 {
                    twiddles.push(Complex64::cis(ang * k as f64));
                }
                len <<= 1;
            }
            let shift = n.leading_zeros() + 1;
            let swaps = (0..n)
                .filter_map(|i| {
                    let j = i.reverse_bits() >> shift;
                    (i < j).then_some((i as u32, j as u32))
                })
                .collect();
            let inv_twiddles = twiddles.iter().map(|w| w.conj()).collect();
            Self {
                n,
                twiddles,
                inv_twiddles,
                stage_offsets,
                swaps,
            }
        }

        fn run(&self, x: &mut [Complex64], twiddles: &[Complex64]) {
            assert_eq!(
                x.len(),
                self.n,
                "plan is for length {}, got {}",
                self.n,
                x.len()
            );
            for &(i, j) in &self.swaps {
                x.swap(i as usize, j as usize);
            }
            for &(len, offset) in &self.stage_offsets {
                let half = len / 2;
                for start in (0..self.n).step_by(len) {
                    for k in 0..half {
                        let w = twiddles[offset + k];
                        let u = x[start + k];
                        let v = x[start + k + half] * w;
                        x[start + k] = u + v;
                        x[start + k + half] = u - v;
                    }
                }
            }
        }

        pub(crate) fn forward(&self, x: &mut [Complex64]) {
            self.run(x, &self.twiddles);
        }

        pub(crate) fn inverse(&self, x: &mut [Complex64]) {
            self.run(x, &self.inv_twiddles);
            let inv = 1.0 / self.n as f64;
            for v in x.iter_mut() {
                *v = v.scale(inv);
            }
        }
    }

    /// `fft` at a power-of-two length (length 1 is a no-op).
    pub(crate) fn fft(x: &mut [Complex64]) {
        if x.len() > 1 {
            FftPlan::new(x.len()).forward(x);
        }
    }

    /// `ifft` at a power-of-two length (length 1 is a no-op).
    pub(crate) fn ifft(x: &mut [Complex64]) {
        if x.len() > 1 {
            FftPlan::new(x.len()).inverse(x);
        }
    }

    /// `rfft` at a power-of-two length >= 2.
    pub(crate) fn rfft(x: &[f64]) -> Vec<Complex64> {
        let n = x.len();
        assert!(n >= 2 && n.is_power_of_two());
        let half = n / 2;
        let mut z: Vec<Complex64> = (0..half)
            .map(|i| Complex64::new(x[2 * i], x[2 * i + 1]))
            .collect();
        fft(&mut z);
        let mut out = vec![Complex64::ZERO; n];
        let plan = FftPlan::new(n);
        let (_, offset) = *plan
            .stage_offsets
            .last()
            .expect("plans always have at least one stage");
        let w = &plan.twiddles[offset..offset + half];
        for k in 0..half {
            let zk = z[k];
            let zc = z[(half - k) % half].conj();
            let even = (zk + zc).scale(0.5);
            let odd = (zk - zc) * Complex64::new(0.0, -0.5);
            let t = w[k] * odd;
            out[k] = even + t;
            out[k + half] = even - t;
        }
        out
    }

    /// `ifft_real` at a power-of-two length >= 2.
    pub(crate) fn ifft_real(x: &[f64]) -> Vec<Complex64> {
        let n = x.len();
        let inv_n = 1.0 / n as f64;
        rfft(x).into_iter().map(|v| v.conj().scale(inv_n)).collect()
    }

    /// The photodetector readout of the `+sep` cross term at `lags` of an
    /// `n`-sample output plane, clipped at zero.
    pub(crate) fn read_cross_term(
        plane: &[Complex64],
        sep: usize,
        n: usize,
        lags: Range<isize>,
    ) -> Vec<f64> {
        lags.map(|lag| {
            let idx = (sep as isize + lag).rem_euclid(n as isize) as usize;
            plane[idx].re.max(0.0)
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).norm() < tol,
                "index {i}: {x} vs {y} (diff {})",
                (*x - *y).norm()
            );
        }
    }

    /// Naive O(N^2) DFT as ground truth.
    fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| x[j] * Complex64::cis(-2.0 * PI * (k * j) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new(i as f64, (i as f64 * 0.3).sin()))
            .collect()
    }

    /// The forward DFT of `x`, leaving `x` unchanged.
    fn fft_of(x: &[Complex64]) -> Vec<Complex64> {
        let mut y = x.to_vec();
        fft(&mut y);
        y
    }

    /// The inverse DFT of `x`, leaving `x` unchanged.
    fn ifft_of(x: &[Complex64]) -> Vec<Complex64> {
        let mut y = x.to_vec();
        ifft(&mut y);
        y
    }

    /// `x` as a complex field with zero imaginary parts.
    fn complexified(x: &[f64]) -> Vec<Complex64> {
        x.iter().map(|&v| Complex64::from_real(v)).collect()
    }

    fn energy(x: &[Complex64]) -> f64 {
        x.iter().map(|v| v.norm_sqr()).sum()
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [2usize, 4, 8, 16, 64] {
            let x = ramp(n);
            let want = dft_naive(&x);
            let got = fft_of(&x);
            assert_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn real_transforms_match_naive_dft() {
        for n in [1usize, 2, 4, 16, 128] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let want = dft_naive(&complexified(&x));
            assert_close(&rfft(&x), &want, 1e-9 * n as f64);
            // For real x, ifft(x) = conj(fft(x)) / N.
            let want_inverse: Vec<Complex64> = want
                .iter()
                .map(|v| v.conj().scale(1.0 / n as f64))
                .collect();
            assert_close(&ifft_real(&x), &want_inverse, 1e-9);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [1usize, 2, 8, 32, 256] {
            let x = ramp(n);
            let y = ifft_of(&fft_of(&x));
            assert_close(&y, &x, 1e-9 * (n.max(1)) as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft(&mut x);
        for v in &x {
            assert!((*v - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let mut x = vec![Complex64::ONE; 8];
        fft(&mut x);
        assert!((x[0] - Complex64::from_real(8.0)).norm() < 1e-12);
        for v in &x[1..] {
            assert!(v.norm() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let k0 = 5;
        let mut x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert!((v.norm() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.norm() < 1e-9, "leakage at bin {k}: {}", v.norm());
            }
        }
    }

    #[test]
    fn parseval_theorem() {
        for n in [8usize, 16, 64] {
            let x = ramp(n);
            let time_energy = energy(&x);
            let freq_energy = energy(&fft_of(&x)) / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0),
                "n={n}: {time_energy} vs {freq_energy}"
            );
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a = ramp(n);
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, -(i as f64))).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        let fa = fft_of(&a);
        let fb = fft_of(&b);
        let fsum = fft_of(&sum);
        let want: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(2.0)).collect();
        assert_close(&fsum, &want, 1e-8);
    }

    #[test]
    fn real_signal_hermitian_symmetry() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.77).cos()).collect();
        let f = rfft(&x);
        let n = f.len();
        for k in 1..n {
            let diff = (f[k] - f[n - k].conj()).norm();
            assert!(diff < 1e-10, "bin {k} breaks Hermitian symmetry");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty: Vec<Complex64> = vec![];
        fft(&mut empty);
        ifft(&mut empty);
        assert!(empty.is_empty());
        assert!(rfft(&[]).is_empty());
        assert!(ifft_real(&[]).is_empty());
        let mut one = vec![Complex64::new(3.0, -1.0)];
        fft(&mut one);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));
        ifft(&mut one);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));
        assert_eq!(rfft(&[2.5]), [Complex64::from_real(2.5)]);
        assert_eq!(ifft_real(&[2.5]), [Complex64::new(2.5, -0.0)]);
    }

    #[test]
    fn non_power_of_two_lengths_panic_naming_the_length() {
        fn message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
            let payload = std::panic::catch_unwind(f).expect_err("the transform must panic");
            match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(payload) => payload
                    .downcast_ref::<&str>()
                    .map_or_else(String::new, |m| m.to_string()),
            }
        }
        for n in [3usize, 12, 100] {
            let want = format!("FFT length must be a power of two, got {n}");
            let messages = [
                message(|| fft(&mut vec![Complex64::ONE; n])),
                message(|| ifft(&mut vec![Complex64::ONE; n])),
                message(|| drop(rfft(&vec![1.0; n]))),
                message(|| drop(ifft_real(&vec![1.0; n]))),
            ];
            for got in messages {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn plan_matches_direct_fft_all_sizes() {
        for n in [2usize, 4, 8, 32, 128, 512] {
            let plan = FftPlan::new(n);
            let x = ramp(n);
            let mut planned = x.clone();
            plan.forward(&mut planned);
            let direct = fft_of(&x);
            assert_close(&planned, &direct, 1e-8 * n as f64);
        }
    }

    #[test]
    fn plan_round_trip() {
        let plan = FftPlan::new(256);
        let x = ramp(256);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        assert_close(&y, &x, 1e-8);
    }

    #[test]
    fn plan_is_reusable() {
        let plan = FftPlan::new(64);
        for seed in 0..4 {
            let x: Vec<Complex64> = (0..64)
                .map(|i| Complex64::new((i + seed) as f64, (i * seed) as f64 * 0.01))
                .collect();
            let mut y = x.clone();
            plan.forward(&mut y);
            assert_close(&y, &fft_of(&x), 1e-8);
        }
        assert_eq!(plan.n, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(48);
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn plan_rejects_wrong_length_input() {
        let plan = FftPlan::new(8);
        let mut x = ramp(16);
        plan.forward(&mut x);
    }

    #[test]
    fn rfft_matches_complex_fft_on_real_input() {
        for n in [2usize, 4, 8, 16, 64, 256, 1024] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let fast = rfft(&x);
            let slow = fft_of(&complexified(&x));
            assert_close(&fast, &slow, 1e-9 * n as f64);
        }
    }

    #[test]
    fn ifft_real_matches_complex_ifft() {
        for n in [1usize, 2, 8, 64, 512] {
            let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.21).sin()).collect();
            let xc = complexified(&x);
            assert_close(&ifft_real(&x), &ifft_of(&xc), 1e-9 * n.max(1) as f64);
        }
        assert!(ifft_real(&[]).is_empty());
    }

    #[test]
    fn real_round_trip() {
        // rfft → ifft and ifft_real → fft both recover their input to
        // spectral accuracy.
        for n in [128usize, 1024] {
            let x: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.31).sin()).collect();
            let xc = complexified(&x);

            let back = ifft_of(&rfft(&x));
            assert_close(&back, &xc, 1e-8 * n as f64);

            // ifft_real treats its input as a real spectrum; the forward
            // transform of its output must recover that spectrum.
            let spectrum = fft_of(&ifft_real(&x));
            assert_close(&spectrum, &xc, 1e-8 * n as f64);
        }
    }

    #[test]
    fn all_zero_signal_round_trips_to_exact_zero() {
        for n in [128usize, 1024] {
            let zeros = vec![0.0; n];
            assert!(rfft(&zeros).iter().all(|v| v.norm() == 0.0), "n={n}");
            assert!(ifft_real(&zeros).iter().all(|v| v.norm() == 0.0), "n={n}");
            let back = ifft_of(&rfft(&zeros));
            assert!(back.iter().all(|v| v.norm() == 0.0), "n={n}");
        }
    }

    #[test]
    fn single_impulse_round_trips() {
        for n in [128usize, 1024] {
            // Impulse at the origin: flat unit spectrum.
            let mut x = vec![0.0; n];
            x[0] = 1.0;
            for (k, v) in rfft(&x).iter().enumerate() {
                assert!((*v - Complex64::ONE).norm() < 1e-9, "n={n} bin {k}");
            }

            // Impulse off the origin: unit-magnitude bins, and the
            // round trip restores the impulse to its position.
            let mut shifted = vec![0.0; n];
            shifted[n / 3] = 1.0;
            let spectrum = rfft(&shifted);
            for (k, v) in spectrum.iter().enumerate() {
                assert!((v.norm() - 1.0).abs() < 1e-9, "n={n} bin {k}");
            }
            let back = ifft_of(&spectrum);
            for (i, v) in back.iter().enumerate() {
                let want = if i == n / 3 { 1.0 } else { 0.0 };
                assert!(
                    (*v - Complex64::from_real(want)).norm() < 1e-9,
                    "n={n} sample {i}"
                );
            }
        }
    }

    #[test]
    fn time_shift_is_frequency_phase_ramp() {
        // x[(n-1) mod N] should transform to X[k] * e^(-2 pi i k / N).
        let n = 16;
        let x = ramp(n);
        let mut shifted = vec![Complex64::ZERO; n];
        for i in 0..n {
            shifted[(i + 1) % n] = x[i];
        }
        let fx = fft_of(&x);
        let fs = fft_of(&shifted);
        for k in 0..n {
            let want = fx[k] * Complex64::cis(-2.0 * PI * k as f64 / n as f64);
            assert!((fs[k] - want).norm() < 1e-9);
        }
    }

    #[test]
    fn plan_forward_matches_fft_of() {
        let plan = FftPlan::new(64);
        let x: Vec<Complex64> = (0..64).map(|i| Complex64::from_real(i as f64)).collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        let reference = fft_of(&x);
        for (a, b) in y.iter().zip(&reference) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    /// Deterministic uniform draws in `[lo, hi)`.
    fn uniform(n: usize, seed: u64, lo: f64, hi: f64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    /// Real inputs of length `n` the fast paths must reproduce bit for
    /// bit: dense random values of both signs, JTC-like planes (zeros
    /// around two non-negative operands), a mix of signed zeros,
    /// subnormals and ordinary values, and signed zeros alone, whose
    /// transform is all zeros of either sign.
    fn real_inputs(n: usize) -> Vec<Vec<f64>> {
        let dense = uniform(n, n as u64, -1.0, 1.0);
        let mut plane = vec![0.0; n];
        let taps = (n / 8).max(1);
        for (i, v) in uniform(taps, 3 * n as u64, 0.0, 1.0)
            .into_iter()
            .enumerate()
        {
            plane[i] = v;
        }
        for (i, v) in uniform(2 * taps, 5 * n as u64, 0.0, 1.0)
            .into_iter()
            .enumerate()
        {
            plane[(n / 2 + i) % n] = v;
        }
        let specials = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            5e-324,
            -f64::MIN_POSITIVE,
            1.5,
            -0.25,
        ];
        let picks = uniform(n, 7 * n as u64, 0.0, specials.len() as f64);
        let special = picks.iter().map(|&p| specials[p as usize]).collect();
        let zeros = picks.iter().map(|&p| specials[p as usize % 2]).collect();
        vec![dense, plane, special, zeros, vec![-0.0; n]]
    }

    fn assert_bits(got: &[Complex64], want: &[Complex64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{what}: sample {k}: {a:?} vs oracle {b:?}"
            );
        }
    }

    /// Samples of an `n`-sample plane the lens-2 readouts ask for: every
    /// sample once, then a scattered, repeating, out-of-order subset.
    fn sample_sets(n: usize) -> [Vec<usize>; 2] {
        let scattered = (0..n.min(64)).map(|i| (i * 37 + n / 3) % n).rev().collect();
        [(0..n).collect(), scattered]
    }

    #[test]
    fn real_transforms_match_the_oracle_bit_for_bit() {
        for n in (1..=12).map(|p| 1usize << p) {
            for (case, x) in real_inputs(n).iter().enumerate() {
                let what = |f: &str| format!("{f} n={n} input {case}");
                let spectrum = oracle::rfft(x);
                assert_bits(&rfft(x), &spectrum, &what("rfft"));
                assert_bits(&rfft_half(x), &spectrum[..=n / 2], &what("rfft_half"));
                let plane = oracle::ifft_real(x);
                assert_bits(&ifft_real(x), &plane, &what("ifft_real"));
                // The lens-2 input: a mirrored half spectrum.
                let half = &x[..=n / 2];
                let mirrored: Vec<f64> = (0..n).map(|k| half[k.min(n - k)]).collect();
                let mirrored_plane = oracle::ifft_real(&mirrored);
                for at in sample_sets(n) {
                    let pick = |p: &[Complex64]| at.iter().map(|&j| p[j]).collect::<Vec<_>>();
                    let got = ifft_real_at(x, at.iter().copied());
                    assert_bits(&got, &pick(&plane), &what("ifft_real_at"));
                    let got = ifft_half_at(half, at.iter().copied());
                    assert_bits(&got, &pick(&mirrored_plane), &what("ifft_half_at"));
                }
            }
        }
    }

    /// Operands at the plane's origin, `len` samples each: dense powers,
    /// values of both signs, all `+0.0`, and a mix of `+0.0`, subnormals,
    /// huge and ordinary values, all of which take the copied stages; then
    /// that mix with one `-0.0`, `+inf` or `-inf`, which take every stage.
    fn origin_operands(len: usize) -> Vec<Vec<f64>> {
        let specials = [0.0, 5e-324, f64::MIN_POSITIVE / 4.0, 1e300, 0.75, -2.5];
        let picks = uniform(len, 11 * len as u64, 0.0, specials.len() as f64);
        let mix: Vec<f64> = picks.iter().map(|&p| specials[p as usize]).collect();
        let with = |v: f64| {
            let mut x = mix.clone();
            x[len / 2] = v;
            x
        };
        vec![
            uniform(len, len as u64, 0.0, 1.0),
            uniform(len, 3 * len as u64, -1.0, 1.0),
            vec![0.0; len],
            mix.clone(),
            with(-0.0),
            with(f64::INFINITY),
            with(f64::NEG_INFINITY),
        ]
    }

    #[test]
    fn origin_transform_matches_the_oracle_bit_for_bit() {
        for n in (1..=12).map(|p| 1usize << p) {
            // Every length up to 40, and each power of two up to n/2 with
            // its neighbours, where the number of copied stages changes.
            let near_power = |l: usize| (l - 1..=l + 1).any(usize::is_power_of_two);
            for len in (1..=n / 2).filter(|&l| l <= 40 || near_power(l)) {
                for (case, x) in origin_operands(len).iter().enumerate() {
                    let mut plane = vec![0.0; n];
                    plane[..len].copy_from_slice(x);
                    let want = oracle::rfft(&plane);
                    let what = format!("rfft_half_origin n={n} len={len} input {case}");
                    assert_bits(&rfft_half_origin(x, n), &want[..=n / 2], &what);
                }
            }
        }
    }

    #[test]
    fn complex_transforms_match_the_oracle_bit_for_bit() {
        for n in (1..=12).map(|p| 1usize << p) {
            let inputs = real_inputs(2 * n);
            for (case, lanes) in inputs.iter().enumerate() {
                let x: Vec<Complex64> = lanes
                    .chunks_exact(2)
                    .map(|c| Complex64::new(c[0], c[1]))
                    .collect();
                let (mut got, mut want) = (x.clone(), x.clone());
                fft(&mut got);
                oracle::fft(&mut want);
                assert_bits(&got, &want, &format!("fft n={n} input {case}"));
                ifft(&mut got);
                oracle::ifft(&mut want);
                assert_bits(&got, &want, &format!("ifft n={n} input {case}"));
            }
        }
    }
}
