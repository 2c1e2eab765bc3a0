//! Row tiling: computing 2-D convolutions on a 1-D JTC (paper §2.2).
//!
//! On-chip lenses are 1-D, so the JTC natively computes 1-D convolutions.
//! The row-tiling algorithm concatenates `R_i` input rows (optionally
//! separated by `k-1` zeros) into one long 1-D signal, tiles the kernel rows
//! at matching offsets, and reads the 2-D convolution out of the 1-D result:
//! output `(r, c)` appears at 1-D position `r·L + c`. Each pass yields
//! `R_i - k + 1` valid output rows (the paper's worked example: 8 rows in,
//! 6 out for a 3×3 kernel); rows beyond that are circular-padding artifacts
//! and are discarded.
//!
//! Two modes:
//! * [`TilingMode::Exact`] — rows are padded with `k-1` zeros, so every
//!   retained output is exact. The padding occupies waveguides but costs no
//!   conversions (zero-valued DACs are switched off).
//! * [`TilingMode::Approximate`] — no inter-row or image-border padding;
//!   more rows fit per pass. Retained *valid* columns are still exact (the
//!   seam corruption lands only on discarded columns); the approximation
//!   relative to a digital "same" convolution is at the image borders. This
//!   is the accounting the paper's §2.2 example uses (8×32 = 256
//!   waveguides, 6 passes, 1590 conversions).
//!
//! [`TilingPlan`] is the *performance* view (rows/pass, passes, conversion
//! counts) consumed by the architecture simulator. [`RowSchedule`] lists
//! the passes that compute a layer's kept (strided) output rows, and
//! [`tiled_conv2d_strided_with`] runs them: the *functional* view,
//! validated against direct 2-D convolution and able to route each 1-D
//! pass through the real optical JTC model. [`tiled_conv2d_with`] is its
//! stride-1 form.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Whether rows are zero-padded for exactness or packed for density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TilingMode {
    /// Zero-pad each row with `k-1` zeros: exact, fewer rows per pass.
    #[default]
    Exact,
    /// No padding: denser packing; border columns approximate a "same"
    /// convolution (the paper's example accounting).
    Approximate,
}

/// Errors from tiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingError {
    /// The JTC tile cannot hold even one padded row.
    RowTooWide {
        /// Waveguides needed for one row.
        row_len: usize,
        /// Waveguides available.
        tile: usize,
    },
    /// Kernel is larger than the input.
    KernelTooLarge,
    /// Empty or ragged operand.
    BadOperand(&'static str),
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::RowTooWide { row_len, tile } => {
                write!(
                    f,
                    "row of {row_len} samples exceeds the {tile}-waveguide tile"
                )
            }
            TilingError::KernelTooLarge => write!(f, "kernel larger than input"),
            TilingError::BadOperand(which) => write!(f, "bad operand: {which}"),
        }
    }
}

impl std::error::Error for TilingError {}

/// Maximum non-zero kernel taps a single RFCU pass supports — the 25
/// active weight waveguides of §4 (a 5×5 kernel). Larger kernels split
/// into chunks accumulated digitally.
pub const MAX_ACTIVE_WEIGHT_TAPS: usize = 25;

/// The performance plan for executing one conv layer's single channel on a
/// `tile`-waveguide JTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilingPlan {
    /// Padding mode used.
    pub mode: TilingMode,
    /// Waveguides per tiled row (`L`).
    pub row_len: usize,
    /// Input rows loaded per pass (`R_i`).
    pub rows_per_pass: usize,
    /// Valid output rows produced per pass (`R_i - k + 1`, stride-adjusted).
    pub valid_rows_per_pass: usize,
    /// JTC passes per input channel (including row-partitioning repeats and
    /// kernel chunking, but *not* pseudo-negative doubling).
    pub passes: usize,
    /// Input-DAC conversions per pass (zero padding costs nothing).
    pub input_conversions_per_pass: usize,
    /// Weight-DAC conversions per pass (`min(k², 25)` active taps).
    pub weight_conversions_per_pass: usize,
    /// `true` if the tile cannot hold `k` rows and each output row takes
    /// multiple cycles (row partitioning, first-layer territory).
    pub row_partitioned: bool,
    /// Kernel chunks when `k² > 25` active taps.
    pub kernel_chunks: usize,
    /// Output rows this plan produces in total.
    pub output_rows: usize,
}

impl TilingPlan {
    /// Plans the execution of one channel of a conv layer.
    ///
    /// * `input_hw` — the layer's raw input resolution (before conv padding).
    /// * `kernel` — square kernel size `k`.
    /// * `stride` — convolution stride.
    /// * `padding` — conv zero padding per side (ignored by
    ///   [`TilingMode::Approximate`], which is the point).
    /// * `tile` — JTC input waveguides `T`.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError`] when a single row cannot fit the tile or the
    /// kernel exceeds the (padded) input.
    pub fn plan(
        input_hw: (usize, usize),
        kernel: usize,
        stride: usize,
        padding: usize,
        tile: usize,
        mode: TilingMode,
    ) -> Result<Self, TilingError> {
        if kernel == 0 || stride == 0 || tile == 0 {
            return Err(TilingError::BadOperand("zero kernel/stride/tile"));
        }
        let (h, w) = input_hw;
        let (eff_h, eff_w, row_len) = match mode {
            TilingMode::Exact => (
                h + 2 * padding,
                w + 2 * padding,
                w + 2 * padding + kernel - 1,
            ),
            TilingMode::Approximate => (h, w, w),
        };
        if kernel > eff_h || kernel > eff_w {
            return Err(TilingError::KernelTooLarge);
        }
        if row_len > tile {
            return Err(TilingError::RowTooWide { row_len, tile });
        }

        // Output rows the layer needs. Approximate mode still targets the
        // "same"-style output the padded convolution would give.
        let padded_h = h + 2 * padding;
        let output_rows = (padded_h - kernel) / stride + 1;

        let max_rows = tile / row_len;
        let rows_per_pass = max_rows.min(eff_h);
        let kernel_chunks = (kernel * kernel).div_ceil(MAX_ACTIVE_WEIGHT_TAPS);

        if rows_per_pass < kernel {
            // Row partitioning: each output row needs k input rows streamed
            // through the tile over several cycles, with digital
            // accumulation of partial products.
            let cycles_per_output_row = (kernel * row_len).div_ceil(tile);
            let passes = output_rows * cycles_per_output_row * kernel_chunks;
            return Ok(Self {
                mode,
                row_len,
                rows_per_pass,
                valid_rows_per_pass: 1,
                passes,
                input_conversions_per_pass: tile.min(kernel * eff_w),
                weight_conversions_per_pass: (kernel * kernel).min(MAX_ACTIVE_WEIGHT_TAPS),
                row_partitioned: true,
                kernel_chunks,
                output_rows,
            });
        }

        // Stride-aware valid rows: output rows whose k-row receptive field
        // fits inside the pass's rows.
        let valid_rows_per_pass = (rows_per_pass - kernel) / stride + 1;
        let passes = output_rows.div_ceil(valid_rows_per_pass) * kernel_chunks;
        // Only real (non-padding) samples cost DAC conversions.
        let data_cols = w; // horizontal conv padding is zeros too
        Ok(Self {
            mode,
            row_len,
            rows_per_pass,
            valid_rows_per_pass,
            passes,
            input_conversions_per_pass: rows_per_pass * data_cols,
            weight_conversions_per_pass: (kernel * kernel).min(MAX_ACTIVE_WEIGHT_TAPS),
            row_partitioned: false,
            kernel_chunks,
            output_rows,
        })
    }

    /// Total input + weight conversions over all passes — the JTC
    /// "operation count" of §2.2.
    pub fn total_conversions(&self) -> u64 {
        self.passes as u64
            * (self.input_conversions_per_pass + self.weight_conversions_per_pass) as u64
    }
}

/// Tiles a chunk of input rows into one 1-D signal.
///
/// Each row is `row_len` samples: the row's data followed by zeros.
///
/// # Panics
///
/// Panics if a row exceeds `row_len`.
pub fn tile_rows(rows: &[&[f64]], row_len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len() * row_len);
    for row in rows {
        assert!(row.len() <= row_len, "row longer than row_len");
        out.extend_from_slice(row);
        out.extend(std::iter::repeat_n(0.0, row_len - row.len()));
    }
    out
}

/// Tiles a `k×kw` kernel into the matching 1-D kernel: row `j` of the
/// kernel at offset `j*row_len`. Length `(k-1)*row_len + kw`.
///
/// # Panics
///
/// Panics if the kernel is empty/ragged or wider than `row_len`.
pub fn tile_kernel<R: AsRef<[f64]>>(kernel: &[R], row_len: usize) -> Vec<f64> {
    assert!(!kernel.is_empty(), "empty kernel");
    let kw = kernel[0].as_ref().len();
    assert!(
        kernel.iter().all(|r| r.as_ref().len() == kw),
        "ragged kernel"
    );
    assert!(kw <= row_len, "kernel wider than row_len");
    let k = kernel.len();
    let mut out = Vec::with_capacity((k - 1) * row_len + kw);
    for (j, row) in kernel.iter().enumerate() {
        out.extend_from_slice(row.as_ref());
        if j + 1 < k {
            out.extend(std::iter::repeat_n(0.0, row_len - kw));
        }
    }
    out
}

/// One pass of a row-tiled convolution: the input rows its 1-D signal
/// carries, the kernel rows its 1-D kernel carries, and the (strided)
/// output rows its valid window feeds.
#[derive(Debug, Clone)]
pub struct RowPass {
    /// Input rows tiled into the signal.
    input_rows: Range<usize>,
    /// Kernel rows tiled into the kernel: all of them, unless the layer is
    /// row-partitioned and the pass carries one slice of the window.
    kernel_rows: Range<usize>,
    /// Strided output rows the pass contributes to.
    output_rows: Range<usize>,
}

impl RowPass {
    /// Kernel rows tiled into the pass's kernel.
    pub fn kernel_rows(&self) -> Range<usize> {
        self.kernel_rows.clone()
    }
}

/// The passes of one row-tiled valid convolution at a given stride.
///
/// Only output rows `oy % stride == 0` are computed. A tiled pass holds as
/// many strided output rows as fit its receptive field
/// ([`TilingPlan::valid_rows_per_pass`]); a row-partitioned layer streams
/// each kept output row's `k`-row window through the tile in slices and
/// accumulates them digitally.
#[derive(Debug, Clone)]
pub struct RowSchedule {
    row_len: usize,
    stride: usize,
    kernel_w: usize,
    out_hw: (usize, usize),
    passes: Vec<RowPass>,
}

impl RowSchedule {
    /// Schedules a valid convolution of an `input_hw` input with a
    /// `kernel_hw` kernel on a `tile`-waveguide JTC.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError`] for a zero stride or size, a kernel larger
    /// than the input, or a row wider than the tile.
    pub fn new(
        input_hw: (usize, usize),
        kernel_hw: (usize, usize),
        tile: usize,
        mode: TilingMode,
        stride: usize,
    ) -> Result<Self, TilingError> {
        let ((h, w), (kh, kw)) = (input_hw, kernel_hw);
        if stride == 0 {
            return Err(TilingError::BadOperand("zero stride"));
        }
        if h == 0 || w == 0 {
            return Err(TilingError::BadOperand("empty input"));
        }
        if kh == 0 || kw == 0 {
            return Err(TilingError::BadOperand("empty kernel"));
        }
        if kh > h || kw > w {
            return Err(TilingError::KernelTooLarge);
        }
        let row_len = match mode {
            TilingMode::Exact => w + kw - 1,
            TilingMode::Approximate => w,
        };
        if row_len > tile {
            return Err(TilingError::RowTooWide { row_len, tile });
        }

        let out_h = (h - kh) / stride + 1;
        let out_w = (w - kw) / stride + 1;
        let rows_per_pass = (tile / row_len).min(h);
        let mut passes = Vec::new();
        if rows_per_pass < kh {
            // Row partitioning: each output row's k-row window is split
            // into sub-passes that each fit the tile.
            for oy in 0..out_h {
                let top = oy * stride;
                let mut j0 = 0;
                while j0 < kh {
                    let j1 = (j0 + rows_per_pass).min(kh);
                    passes.push(RowPass {
                        input_rows: top + j0..top + j1,
                        kernel_rows: j0..j1,
                        output_rows: oy..oy + 1,
                    });
                    j0 = j1;
                }
            }
        } else {
            let valid_per_pass = (rows_per_pass - kh) / stride + 1;
            let mut oy = 0;
            while oy < out_h {
                let rows_out = valid_per_pass.min(out_h - oy);
                let top = oy * stride;
                passes.push(RowPass {
                    input_rows: top..top + (rows_out - 1) * stride + kh,
                    kernel_rows: 0..kh,
                    output_rows: oy..oy + rows_out,
                });
                oy += rows_out;
            }
        }
        Ok(Self {
            row_len,
            stride,
            kernel_w: kw,
            out_hw: (out_h, out_w),
            passes,
        })
    }

    /// The passes, in execution order.
    pub fn passes(&self) -> &[RowPass] {
        &self.passes
    }

    /// The strided output size.
    pub fn output_hw(&self) -> (usize, usize) {
        self.out_hw
    }

    /// Lengths of the 1-D signal and kernel of `pass`.
    pub fn operand_lens(&self, pass: &RowPass) -> (usize, usize) {
        (
            pass.input_rows.len() * self.row_len,
            (pass.kernel_rows.len() - 1) * self.row_len + self.kernel_w,
        )
    }

    /// The 1-D signal of `pass`: its input rows, tiled.
    pub fn signal(&self, input: &[Vec<f64>], pass: &RowPass) -> Vec<f64> {
        let rows: Vec<&[f64]> = input[pass.input_rows.clone()]
            .iter()
            .map(Vec::as_slice)
            .collect();
        tile_rows(&rows, self.row_len)
    }

    /// The 1-D kernel of `pass`: its kernel rows, tiled.
    pub fn kernel<R: AsRef<[f64]>>(&self, kernel: &[R], pass: &RowPass) -> Vec<f64> {
        tile_kernel(&kernel[pass.kernel_rows.clone()], self.row_len)
    }

    /// Adds the strided outputs in `valid`, the valid 1-D correlation of
    /// `pass`, into the output rows `out`.
    ///
    /// # Panics
    ///
    /// Panics if `valid` or `out` is smaller than the schedule's shapes.
    pub fn scatter(&self, pass: &RowPass, valid: &[f64], out: &mut [Vec<f64>]) {
        let step = self.stride * self.row_len;
        for (r, row) in out[pass.output_rows.clone()].iter_mut().enumerate() {
            let line = &valid[r * step..];
            for (ox, o) in row.iter_mut().enumerate() {
                *o += line[ox * self.stride];
            }
        }
    }
}

/// Computes the **valid** 2-D convolution of `input` rows with `kernel` at
/// `stride`, using row tiling over a `tile`-waveguide 1-D correlator, where
/// each 1-D pass of the [`RowSchedule`] is executed by `correlate_1d` (a
/// valid 1-D cross-correlation: `out[i] = Σ_k sig[i+k]·ker[k]`). Only the
/// kept output rows are ever computed.
///
/// This is the hook the architecture's functional path uses to route passes
/// through the *optical* JTC model instead of digital math.
///
/// # Errors
///
/// Returns [`TilingError`] on shape problems.
pub fn tiled_conv2d_strided_with<F>(
    input: &[Vec<f64>],
    kernel: &[Vec<f64>],
    tile: usize,
    mode: TilingMode,
    stride: usize,
    mut correlate_1d: F,
) -> Result<Vec<Vec<f64>>, TilingError>
where
    F: FnMut(&[f64], &[f64]) -> Vec<f64>,
{
    if input.is_empty() || input[0].is_empty() {
        return Err(TilingError::BadOperand("empty input"));
    }
    if kernel.is_empty() || kernel[0].is_empty() {
        return Err(TilingError::BadOperand("empty kernel"));
    }
    let w = input[0].len();
    if input.iter().any(|r| r.len() != w) {
        return Err(TilingError::BadOperand("ragged input"));
    }
    let kw = kernel[0].len();
    if kernel.iter().any(|r| r.len() != kw) {
        return Err(TilingError::BadOperand("ragged kernel"));
    }
    let schedule = RowSchedule::new((input.len(), w), (kernel.len(), kw), tile, mode, stride)?;
    let (out_h, out_w) = schedule.output_hw();
    let mut out = vec![vec![0.0; out_w]; out_h];
    for pass in schedule.passes() {
        let corr = correlate_1d(
            &schedule.signal(input, pass),
            &schedule.kernel(kernel, pass),
        );
        schedule.scatter(pass, &corr, &mut out);
    }
    Ok(out)
}

/// [`tiled_conv2d_strided_with`] at stride 1.
///
/// # Errors
///
/// Returns [`TilingError`] on shape problems.
pub fn tiled_conv2d_with<F>(
    input: &[Vec<f64>],
    kernel: &[Vec<f64>],
    tile: usize,
    mode: TilingMode,
    correlate_1d: F,
) -> Result<Vec<Vec<f64>>, TilingError>
where
    F: FnMut(&[f64], &[f64]) -> Vec<f64>,
{
    tiled_conv2d_strided_with(input, kernel, tile, mode, 1, correlate_1d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_valid_single;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use refocus_photonics::signal::correlate_valid;

    fn random_matrix(h: usize, w: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..h)
            .map(|_| (0..w).map(|_| rng.random::<f64>()).collect())
            .collect()
    }

    fn assert_matrix_close(a: &[Vec<f64>], b: &[Vec<f64>], tol: f64) {
        assert_eq!(a.len(), b.len(), "row count");
        for (ra, rb) in a.iter().zip(b) {
            assert_eq!(ra.len(), rb.len(), "col count");
            for (x, y) in ra.iter().zip(rb) {
                assert!((x - y).abs() < tol, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn paper_worked_example_section_2_2() {
        // 32x32 input, 3x3 kernel (same padding), T = 256, approximate mode:
        // 8 rows/pass, 6 valid rows, 6 passes, 1590 conversions; GPU: 9216.
        let plan = TilingPlan::plan((32, 32), 3, 1, 1, 256, TilingMode::Approximate).unwrap();
        assert_eq!(plan.row_len, 32);
        assert_eq!(plan.rows_per_pass, 8);
        assert_eq!(plan.valid_rows_per_pass, 6);
        assert_eq!(plan.output_rows, 32);
        assert_eq!(plan.passes, 6);
        assert_eq!(plan.input_conversions_per_pass, 256);
        assert_eq!(plan.weight_conversions_per_pass, 9);
        assert_eq!(plan.total_conversions(), 1590);
        // >5x fewer "operations" than the 9216-MAC GPU baseline.
        assert!(9216 / plan.total_conversions() >= 5);
    }

    #[test]
    fn exact_mode_reserves_padding_waveguides() {
        let plan = TilingPlan::plan((32, 32), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        // Row = 32 + 2 (conv pad) + 2 (inter-row pad) = 36 -> 7 rows.
        assert_eq!(plan.row_len, 36);
        assert_eq!(plan.rows_per_pass, 7);
        assert_eq!(plan.valid_rows_per_pass, 5);
        assert_eq!(plan.output_rows, 32);
        assert_eq!(plan.passes, 7);
        // Conversions still only charge real data.
        assert_eq!(plan.input_conversions_per_pass, 7 * 32);
    }

    #[test]
    fn small_activation_fits_single_pass() {
        // ResNet later layers: 14x14 inputs fully fit a 256-wide tile.
        let plan = TilingPlan::plan((14, 14), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        // Row = 14 + 2 + 2 = 18; 256/18 = 14 rows: whole (unpadded) image.
        assert_eq!(plan.rows_per_pass, 14);
        assert!(!plan.row_partitioned);
    }

    #[test]
    fn first_layer_row_partitioning() {
        // 224-wide first layer on a 128-waveguide tile: a single padded row
        // (224+2*3+6=236) exceeds the tile -> RowTooWide; on a 256 tile one
        // row fits but not 7 -> partitioned.
        assert!(matches!(
            TilingPlan::plan((224, 224), 7, 2, 3, 128, TilingMode::Exact),
            Err(TilingError::RowTooWide { .. })
        ));
        let plan = TilingPlan::plan((224, 224), 7, 2, 3, 256, TilingMode::Exact).unwrap();
        assert!(plan.row_partitioned);
        assert_eq!(plan.output_rows, 112);
        assert!(plan.passes > plan.output_rows);
    }

    #[test]
    fn large_kernel_chunks() {
        // 11x11 AlexNet stem: 121 taps -> 5 chunks of <=25.
        let plan = TilingPlan::plan((224, 224), 11, 4, 2, 256, TilingMode::Approximate).unwrap();
        assert_eq!(plan.kernel_chunks, 5);
        let small = TilingPlan::plan((56, 56), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        assert_eq!(small.kernel_chunks, 1);
    }

    #[test]
    fn stride_reduces_output_rows() {
        let s1 = TilingPlan::plan((56, 56), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        let s2 = TilingPlan::plan((56, 56), 3, 2, 1, 256, TilingMode::Exact).unwrap();
        assert_eq!(s1.output_rows, 56);
        assert_eq!(s2.output_rows, 28);
        // Fewer output rows, but each pass also yields fewer strided rows,
        // so passes shrink at most proportionally.
        assert!(s2.passes <= s1.passes);
    }

    #[test]
    fn tile_rows_layout() {
        let r0 = [1.0, 2.0];
        let r1 = [3.0, 4.0];
        let tiled = tile_rows(&[&r0, &r1], 4);
        assert_eq!(tiled, vec![1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn tile_kernel_layout() {
        let k = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        // row_len 5: row0 + 3 zeros + row1 (no trailing pad on last row).
        assert_eq!(tile_kernel(&k, 5), vec![1.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn tiled_exact_matches_direct_conv2d() {
        for (h, w, k, tile, seed) in [
            (8usize, 8usize, 3usize, 64usize, 1u64),
            (16, 12, 3, 64, 2),
            (10, 10, 5, 128, 3),
            (7, 9, 2, 32, 4),
            (32, 32, 3, 256, 5),
        ] {
            let input = random_matrix(h, w, seed);
            let kernel = random_matrix(k, k, seed + 50);
            let want = conv2d_valid_single(&input, &kernel);
            let got = tiled_conv2d_with(&input, &kernel, tile, TilingMode::Exact, correlate_valid)
                .unwrap();
            assert_matrix_close(&got, &want, 1e-9);
        }
    }

    #[test]
    fn tiled_approximate_valid_columns_also_exact() {
        // With valid-column extraction, approximate mode is numerically
        // exact too (seam corruption only hits discarded columns).
        let input = random_matrix(16, 16, 9);
        let kernel = random_matrix(3, 3, 10);
        let want = conv2d_valid_single(&input, &kernel);
        let got = tiled_conv2d_with(
            &input,
            &kernel,
            128,
            TilingMode::Approximate,
            correlate_valid,
        )
        .unwrap();
        assert_matrix_close(&got, &want, 1e-9);
    }

    #[test]
    fn tiled_with_partitioning_matches_direct() {
        // Tile holds fewer rows than the kernel height: partitioned path.
        let input = random_matrix(12, 20, 11);
        let kernel = random_matrix(5, 5, 12);
        let want = conv2d_valid_single(&input, &kernel);
        // Row len exact = 24; tile 50 holds 2 rows < k=5.
        let got =
            tiled_conv2d_with(&input, &kernel, 50, TilingMode::Exact, correlate_valid).unwrap();
        assert_matrix_close(&got, &want, 1e-9);
    }

    #[test]
    fn tiled_single_row_per_pass_partitioning() {
        let input = random_matrix(6, 10, 13);
        let kernel = random_matrix(3, 3, 14);
        let want = conv2d_valid_single(&input, &kernel);
        // Tile of 12 holds exactly one exact row (12).
        let got =
            tiled_conv2d_with(&input, &kernel, 12, TilingMode::Exact, correlate_valid).unwrap();
        assert_matrix_close(&got, &want, 1e-9);
    }

    #[test]
    fn functional_hook_is_used() {
        // Count 1-D passes through the hook and compare to the plan.
        let input = random_matrix(32, 32, 15);
        let kernel = random_matrix(3, 3, 16);
        let mut passes = 0usize;
        let got = tiled_conv2d_with(&input, &kernel, 256, TilingMode::Approximate, |s, k| {
            passes += 1;
            correlate_valid(s, k)
        })
        .unwrap();
        let want = conv2d_valid_single(&input, &kernel);
        assert_matrix_close(&got, &want, 1e-9);
        // Valid conv: 30 output rows, 6 per pass -> 5 passes.
        assert_eq!(passes, 5);
    }

    /// Every `stride`-th row and column of a stride-1 result.
    fn subsample(full: &[Vec<f64>], stride: usize) -> Vec<Vec<f64>> {
        full.iter()
            .step_by(stride)
            .map(|r| r.iter().step_by(stride).copied().collect())
            .collect()
    }

    #[test]
    fn strided_tiling_matches_subsampled_conv2d() {
        // (h, w, k, tile, stride): several tiles with a short last one, a
        // 1x1 stride-2 downsample, and a row-partitioned stride-2 layer.
        for (h, w, k, tile, stride, seed) in [
            (16usize, 16usize, 3usize, 128usize, 2usize, 21u64),
            (14, 14, 1, 256, 2, 22),
            (21, 20, 5, 50, 2, 23),
            (23, 9, 3, 64, 3, 24),
        ] {
            let input = random_matrix(h, w, seed);
            let kernel = random_matrix(k, k, seed + 50);
            let want = subsample(&conv2d_valid_single(&input, &kernel), stride);
            let got = tiled_conv2d_strided_with(
                &input,
                &kernel,
                tile,
                TilingMode::Exact,
                stride,
                correlate_valid,
            )
            .unwrap();
            assert_matrix_close(&got, &want, 1e-9);
        }
    }

    #[test]
    fn strided_rows_are_bit_identical_to_stride_one_rows() {
        // Row-partitioned layers run the same passes for every kept row,
        // so skipping the others changes nothing that is kept.
        let input = random_matrix(21, 20, 25);
        let kernel = random_matrix(5, 5, 26);
        let full =
            tiled_conv2d_with(&input, &kernel, 50, TilingMode::Exact, correlate_valid).unwrap();
        let strided =
            tiled_conv2d_strided_with(&input, &kernel, 50, TilingMode::Exact, 2, correlate_valid)
                .unwrap();
        assert_eq!(strided, subsample(&full, 2));
    }

    #[test]
    fn strided_schedule_pass_count_matches_plan() {
        for (hw, k, stride, pad) in [
            (14usize, 3usize, 2usize, 1usize),
            (14, 1, 2, 0),
            (56, 3, 2, 1),
            (28, 3, 1, 1),
            (7, 5, 2, 2),
        ] {
            let plan = TilingPlan::plan((hw, hw), k, stride, pad, 256, TilingMode::Exact).unwrap();
            assert!(!plan.row_partitioned);
            let padded = hw + 2 * pad;
            let schedule =
                RowSchedule::new((padded, padded), (k, k), 256, TilingMode::Exact, stride).unwrap();
            assert_eq!(schedule.passes().len(), plan.passes, "{hw} k{k} s{stride}");
            assert_eq!(schedule.output_hw().0, plan.output_rows);
            for pass in schedule.passes() {
                assert!(pass.input_rows.len() <= plan.rows_per_pass);
                assert!(pass.output_rows.len() <= plan.valid_rows_per_pass);
            }
        }
    }

    #[test]
    fn shape_errors() {
        let input = random_matrix(4, 4, 1);
        let kernel = random_matrix(5, 5, 2);
        assert_eq!(
            tiled_conv2d_with(&input, &kernel, 64, TilingMode::Exact, correlate_valid),
            Err(TilingError::KernelTooLarge)
        );
        assert!(matches!(
            tiled_conv2d_with(
                &input,
                &random_matrix(2, 2, 3),
                4,
                TilingMode::Exact,
                correlate_valid
            ),
            Err(TilingError::RowTooWide { .. })
        ));
        assert!(matches!(
            tiled_conv2d_with(&[], &kernel, 64, TilingMode::Exact, correlate_valid),
            Err(TilingError::BadOperand(_))
        ));
        assert_eq!(
            tiled_conv2d_strided_with(&input, &input, 64, TilingMode::Exact, 0, correlate_valid),
            Err(TilingError::BadOperand("zero stride"))
        );
    }

    #[test]
    fn error_display() {
        assert!(TilingError::KernelTooLarge.to_string().contains("larger"));
        assert!(TilingError::RowTooWide {
            row_len: 300,
            tile: 256
        }
        .to_string()
        .contains("300"));
    }
}
