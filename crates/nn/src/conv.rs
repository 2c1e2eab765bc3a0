//! Reference 2-D convolution (the digital ground truth).
//!
//! "Convolution" here follows machine-learning convention — it is
//! cross-correlation (no kernel flip), matching what the JTC's cross term
//! computes. [`conv2d`] is the direct O(HWK²C) implementation every optical
//! and tiled path in this workspace is validated against.

use crate::tensor::{Tensor3, Tensor4};
use std::fmt;

/// Errors from convolution shape checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvError {
    /// Input channel count does not match the weight tensor.
    ChannelMismatch {
        /// Channels in the input tensor.
        input: usize,
        /// Channels per filter in the weight tensor.
        weights: usize,
    },
    /// The kernel does not fit inside the (padded) input.
    KernelTooLarge {
        /// Padded input size (h, w).
        input: (usize, usize),
        /// Kernel size (h, w).
        kernel: (usize, usize),
    },
    /// Stride must be positive.
    ZeroStride,
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::ChannelMismatch { input, weights } => {
                write!(f, "input has {input} channels but filters expect {weights}")
            }
            ConvError::KernelTooLarge { input, kernel } => write!(
                f,
                "kernel {}x{} exceeds padded input {}x{}",
                kernel.0, kernel.1, input.0, input.1
            ),
            ConvError::ZeroStride => write!(f, "stride must be positive"),
        }
    }
}

impl std::error::Error for ConvError {}

/// Output spatial size of a convolution: `(in + 2*pad - k) / stride + 1`.
///
/// Returns `None` when the kernel does not fit.
pub fn conv_output_size(
    input: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Option<usize> {
    let padded = input + 2 * padding;
    if kernel > padded || stride == 0 {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

/// Direct multi-channel 2-D convolution (cross-correlation).
///
/// `input` is CHW, `weights` is OIHW; output is `(O, H', W')` with
/// `H' = (H + 2p - kh)/s + 1`.
///
/// # Errors
///
/// Returns [`ConvError`] on shape mismatches or zero stride.
///
/// # Examples
///
/// ```
/// use refocus_nn::tensor::{Tensor3, Tensor4};
/// use refocus_nn::conv::conv2d;
///
/// let input = Tensor3::random(3, 8, 8, 0.0, 1.0, 1);
/// let weights = Tensor4::random(4, 3, 3, 3, -1.0, 1.0, 2);
/// let out = conv2d(&input, &weights, 1, 1)?;
/// assert_eq!(out.shape(), (4, 8, 8)); // "same" padding
/// # Ok::<(), refocus_nn::conv::ConvError>(())
/// ```
pub fn conv2d(
    input: &Tensor3,
    weights: &Tensor4,
    stride: usize,
    padding: usize,
) -> Result<Tensor3, ConvError> {
    if stride == 0 {
        return Err(ConvError::ZeroStride);
    }
    if input.channels() != weights.in_channels() {
        return Err(ConvError::ChannelMismatch {
            input: input.channels(),
            weights: weights.in_channels(),
        });
    }
    let (kh, kw) = (weights.kernel_h(), weights.kernel_w());
    let out_h =
        conv_output_size(input.height(), kh, stride, padding).ok_or(ConvError::KernelTooLarge {
            input: (input.height() + 2 * padding, input.width() + 2 * padding),
            kernel: (kh, kw),
        })?;
    let out_w =
        conv_output_size(input.width(), kw, stride, padding).ok_or(ConvError::KernelTooLarge {
            input: (input.height() + 2 * padding, input.width() + 2 * padding),
            kernel: (kh, kw),
        })?;

    let mut out = Tensor3::zeros(weights.out_channels(), out_h, out_w);
    for o in 0..weights.out_channels() {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0;
                for i in 0..input.channels() {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let y = (oy * stride + ky) as isize - padding as isize;
                            let x = (ox * stride + kx) as isize - padding as isize;
                            acc += input.get_padded(i, y, x) * weights.get(o, i, ky, kx);
                        }
                    }
                }
                out.set(o, oy, ox, acc);
            }
        }
    }
    Ok(out)
}

/// Single-channel valid 2-D convolution on raw row-major matrices — used by
/// the tiling tests where building full tensors is overkill.
///
/// # Panics
///
/// Panics if the kernel is larger than the input or either is empty/ragged.
pub fn conv2d_valid_single(input: &[Vec<f64>], kernel: &[Vec<f64>]) -> Vec<Vec<f64>> {
    assert!(!input.is_empty() && !kernel.is_empty(), "empty operands");
    let (h, w) = (input.len(), input[0].len());
    let (kh, kw) = (kernel.len(), kernel[0].len());
    assert!(input.iter().all(|r| r.len() == w), "ragged input");
    assert!(kernel.iter().all(|r| r.len() == kw), "ragged kernel");
    assert!(kh <= h && kw <= w, "kernel larger than input");
    let mut out = vec![vec![0.0; w - kw + 1]; h - kh + 1];
    for oy in 0..=h - kh {
        for ox in 0..=w - kw {
            let mut acc = 0.0;
            for ky in 0..kh {
                for kx in 0..kw {
                    acc += input[oy + ky][ox + kx] * kernel[ky][kx];
                }
            }
            out[oy][ox] = acc;
        }
    }
    out
}

/// Multiply-accumulate count of one convolution layer — the digital-system
/// "operations" number used for conversion-count comparisons (§2.2).
pub fn conv_macs(
    out_channels: usize,
    in_channels: usize,
    kernel: usize,
    out_h: usize,
    out_w: usize,
) -> u64 {
    out_channels as u64
        * in_channels as u64
        * (kernel * kernel) as u64
        * out_h as u64
        * out_w as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_formula() {
        assert_eq!(conv_output_size(32, 3, 1, 1), Some(32));
        assert_eq!(conv_output_size(32, 3, 1, 0), Some(30));
        assert_eq!(conv_output_size(224, 7, 2, 3), Some(112));
        assert_eq!(conv_output_size(224, 11, 4, 2), Some(55));
        assert_eq!(conv_output_size(2, 5, 1, 0), None);
        assert_eq!(conv_output_size(8, 3, 0, 0), None);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let input = Tensor3::random(1, 5, 5, 0.0, 1.0, 3);
        let mut w = Tensor4::zeros(1, 1, 3, 3);
        w.set(0, 0, 1, 1, 1.0);
        let out = conv2d(&input, &w, 1, 1).unwrap();
        assert_eq!(out.shape(), (1, 5, 5));
        for y in 0..5 {
            for x in 0..5 {
                assert!((out.get(0, y, x) - input.get(0, y, x)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hand_computed_example() {
        // 1-channel 3x3 input, 2x2 kernel, valid.
        let input =
            Tensor3::from_data(1, 3, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        let mut w = Tensor4::zeros(1, 1, 2, 2);
        w.set(0, 0, 0, 0, 1.0);
        w.set(0, 0, 1, 1, 1.0);
        let out = conv2d(&input, &w, 1, 0).unwrap();
        // out[y][x] = in[y][x] + in[y+1][x+1]
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 6.0);
        assert_eq!(out.get(0, 0, 1), 8.0);
        assert_eq!(out.get(0, 1, 0), 12.0);
        assert_eq!(out.get(0, 1, 1), 14.0);
    }

    #[test]
    fn multi_channel_accumulates() {
        // Two identical channels with an averaging kernel = 2x single channel.
        let ch = Tensor3::random(1, 4, 4, 0.0, 1.0, 9);
        let mut both = Tensor3::zeros(2, 4, 4);
        for y in 0..4 {
            for x in 0..4 {
                both.set(0, y, x, ch.get(0, y, x));
                both.set(1, y, x, ch.get(0, y, x));
            }
        }
        let w1 = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 10);
        let mut w2 = Tensor4::zeros(1, 2, 3, 3);
        for ky in 0..3 {
            for kx in 0..3 {
                w2.set(0, 0, ky, kx, w1.get(0, 0, ky, kx));
                w2.set(0, 1, ky, kx, w1.get(0, 0, ky, kx));
            }
        }
        let single = conv2d(&ch, &w1, 1, 0).unwrap();
        let double = conv2d(&both, &w2, 1, 0).unwrap();
        for y in 0..2 {
            for x in 0..2 {
                assert!((double.get(0, y, x) - 2.0 * single.get(0, y, x)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn stride_subsamples() {
        let input = Tensor3::random(1, 8, 8, 0.0, 1.0, 11);
        let w = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 12);
        let s1 = conv2d(&input, &w, 1, 0).unwrap();
        let s2 = conv2d(&input, &w, 2, 0).unwrap();
        assert_eq!(s1.shape(), (1, 6, 6));
        assert_eq!(s2.shape(), (1, 3, 3));
        for y in 0..3 {
            for x in 0..3 {
                assert!((s2.get(0, y, x) - s1.get(0, 2 * y, 2 * x)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn padding_matches_explicit_pad() {
        let input = Tensor3::random(2, 6, 6, 0.0, 1.0, 13);
        let w = Tensor4::random(3, 2, 3, 3, -1.0, 1.0, 14);
        let implicit = conv2d(&input, &w, 1, 1).unwrap();
        let explicit = conv2d(&input.pad_spatial(1), &w, 1, 0).unwrap();
        assert_eq!(implicit, explicit);
    }

    #[test]
    fn shape_errors_reported() {
        let input = Tensor3::zeros(2, 4, 4);
        let w = Tensor4::zeros(1, 3, 3, 3);
        assert_eq!(
            conv2d(&input, &w, 1, 0),
            Err(ConvError::ChannelMismatch {
                input: 2,
                weights: 3
            })
        );
        let big = Tensor4::zeros(1, 2, 7, 7);
        assert!(matches!(
            conv2d(&input, &big, 1, 0),
            Err(ConvError::KernelTooLarge { .. })
        ));
        let ok = Tensor4::zeros(1, 2, 3, 3);
        assert_eq!(conv2d(&input, &ok, 0, 0), Err(ConvError::ZeroStride));
    }

    #[test]
    fn single_channel_helper_matches_tensor_path() {
        let input = Tensor3::random(1, 6, 7, 0.0, 1.0, 21);
        let w = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 22);
        let a = conv2d(&input, &w, 1, 0).unwrap();
        let rows: Vec<Vec<f64>> = input.channel_rows(0).iter().map(|r| r.to_vec()).collect();
        let b = conv2d_valid_single(&rows, &w.kernel(0, 0));
        assert_eq!((b.len(), b[0].len()), (a.height(), a.width()));
        for (y, brow) in b.iter().enumerate() {
            for (x, bv) in brow.iter().enumerate() {
                assert!((a.get(0, y, x) - bv).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn macs_count_section_2_2_example() {
        // §2.2: GPU needs 9216 MACs for a 32x32 input, 3x3 kernel, 1 channel.
        assert_eq!(conv_macs(1, 1, 3, 32, 32), 9216);
    }

    #[test]
    fn error_display() {
        assert!(ConvError::ZeroStride.to_string().contains("positive"));
        assert!(ConvError::ChannelMismatch {
            input: 1,
            weights: 2
        }
        .to_string()
        .contains("1"));
    }
}
