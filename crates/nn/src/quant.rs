//! Quantization and pseudo-negative filter processing.
//!
//! ReFOCUS operates at 8-bit precision (§5.1), and — because a JTC carries
//! optical *power* — can only process **positive** weights. The paper's
//! answer is *pseudo-negative processing* (§6): split every filter into a
//! positive part and a (negated) negative part, run both as positive-valued
//! convolutions, and subtract digitally. This doubles inference latency,
//! which the performance model charges via
//! [`PSEUDO_NEGATIVE_LATENCY_FACTOR`].

use crate::tensor::{Tensor3, Tensor4};
use serde::{Deserialize, Serialize};

/// Latency multiplier for pseudo-negative processing: every filter runs
/// twice (positive and negative halves).
pub const PSEUDO_NEGATIVE_LATENCY_FACTOR: u32 = 2;

/// A symmetric linear quantizer mapping `[-max_abs, max_abs]` to signed
/// integer codes.
///
/// # Examples
///
/// ```
/// use refocus_nn::quant::Quantizer;
///
/// let q = Quantizer::int8(1.0);
/// let (code, back) = (q.quantize(0.5), q.dequantize(q.quantize(0.5)));
/// assert_eq!(code, 64);
/// assert!((back - 0.5).abs() <= q.step() / 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    bits: u8,
    max_abs: f64,
}

impl Quantizer {
    /// Creates a quantizer with the given bit width and full-scale range.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16` and `max_abs > 0`.
    pub fn new(bits: u8, max_abs: f64) -> Self {
        assert!(
            (2..=16).contains(&bits),
            "bits must be in [2,16], got {bits}"
        );
        assert!(max_abs > 0.0, "max_abs must be positive, got {max_abs}");
        Self { bits, max_abs }
    }

    /// An 8-bit quantizer (the ReFOCUS precision).
    pub fn int8(max_abs: f64) -> Self {
        Self::new(8, max_abs)
    }

    /// A quantizer calibrated to a weight tensor's observed range.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is identically zero.
    pub fn calibrated(bits: u8, weights: &Tensor4) -> Self {
        let m = weights.max_abs();
        assert!(m > 0.0, "cannot calibrate to an all-zero tensor");
        Self::new(bits, m)
    }

    /// Bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Largest positive code (e.g. 127 for int8).
    pub fn max_code(&self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Quantization step size.
    pub fn step(&self) -> f64 {
        self.max_abs / self.max_code() as f64
    }

    /// Quantizes a value to its integer code (clamping to range).
    pub fn quantize(&self, value: f64) -> i32 {
        let code = (value / self.step()).round() as i64;
        code.clamp(-(self.max_code() as i64), self.max_code() as i64) as i32
    }

    /// Reconstructs the value a code represents.
    pub fn dequantize(&self, code: i32) -> f64 {
        code as f64 * self.step()
    }

    /// Quantize-dequantize in one step (the "fake quantization" a simulator
    /// applies to mimic 8-bit hardware on real-valued data).
    pub fn fake_quantize(&self, value: f64) -> f64 {
        self.dequantize(self.quantize(value))
    }
}

/// A filter bank split for pseudo-negative processing: `weights ==
/// positive - negative`, with both parts non-negative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PseudoNegativeSplit {
    /// The positive half (negative weights zeroed).
    pub positive: Tensor4,
    /// The negated negative half (positive weights zeroed, sign flipped).
    pub negative: Tensor4,
}

impl PseudoNegativeSplit {
    /// Splits a signed weight tensor into two non-negative halves.
    pub fn of(weights: &Tensor4) -> Self {
        let mut positive = weights.clone();
        positive.map_inplace(|v| v.max(0.0));
        let mut negative = weights.clone();
        negative.map_inplace(|v| (-v).max(0.0));
        Self { positive, negative }
    }

    /// Recombines the two halves' convolution outputs: `pos - neg`.
    ///
    /// # Panics
    ///
    /// Panics if the two outputs have different shapes.
    pub fn combine(positive_out: &Tensor3, negative_out: &Tensor3) -> Tensor3 {
        assert_eq!(
            positive_out.shape(),
            negative_out.shape(),
            "halves must have identical output shapes"
        );
        let (c, h, w) = positive_out.shape();
        let data = positive_out
            .data()
            .iter()
            .zip(negative_out.data())
            .map(|(p, n)| p - n)
            .collect();
        Tensor3::from_data(c, h, w, data).expect("shape preserved")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;

    #[test]
    fn int8_codes() {
        let q = Quantizer::int8(1.0);
        assert_eq!(q.max_code(), 127);
        assert_eq!(q.quantize(1.0), 127);
        assert_eq!(q.quantize(-1.0), -127);
        assert_eq!(q.quantize(0.0), 0);
        // Clamping beyond range.
        assert_eq!(q.quantize(5.0), 127);
        assert_eq!(q.quantize(-5.0), -127);
    }

    #[test]
    fn round_trip_error_within_half_step() {
        let q = Quantizer::int8(2.0);
        for i in 0..100 {
            let v = -2.0 + 4.0 * i as f64 / 99.0;
            let err = (q.fake_quantize(v) - v).abs();
            assert!(err <= q.step() / 2.0 + 1e-12, "v={v}, err={err}");
        }
    }

    #[test]
    fn lower_bits_coarser_steps() {
        let q8 = Quantizer::new(8, 1.0);
        let q4 = Quantizer::new(4, 1.0);
        assert!(q4.step() > q8.step());
        assert_eq!(q4.max_code(), 7);
    }

    #[test]
    fn calibrated_covers_range() {
        let w = Tensor4::random(2, 2, 3, 3, -0.7, 0.7, 3);
        let q = Quantizer::calibrated(8, &w);
        // The largest weight maps to the largest code without clipping.
        assert_eq!(q.quantize(w.max_abs()), 127);
    }

    #[test]
    #[should_panic(expected = "bits must be in [2,16]")]
    fn rejects_silly_bit_widths() {
        let _ = Quantizer::new(1, 1.0);
    }

    #[test]
    fn pseudo_negative_parts_are_non_negative() {
        let w = Tensor4::random(3, 2, 3, 3, -1.0, 1.0, 8);
        let split = PseudoNegativeSplit::of(&w);
        assert!(split.positive.data().iter().all(|&v| v >= 0.0));
        assert!(split.negative.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pseudo_negative_reconstructs_weights() {
        let w = Tensor4::random(3, 2, 3, 3, -1.0, 1.0, 9);
        let split = PseudoNegativeSplit::of(&w);
        for (i, &orig) in w.data().iter().enumerate() {
            let rebuilt = split.positive.data()[i] - split.negative.data()[i];
            assert!((rebuilt - orig).abs() < 1e-15);
        }
    }

    #[test]
    fn pseudo_negative_convolution_identity() {
        // conv(x, w) == conv(x, w+) - conv(x, w-): the §6 execution scheme.
        let x = Tensor3::random(2, 8, 8, 0.0, 1.0, 10);
        let w = Tensor4::random(3, 2, 3, 3, -1.0, 1.0, 11);
        let split = PseudoNegativeSplit::of(&w);
        let direct = conv2d(&x, &w, 1, 1).unwrap();
        let pos = conv2d(&x, &split.positive, 1, 1).unwrap();
        let neg = conv2d(&x, &split.negative, 1, 1).unwrap();
        let combined = PseudoNegativeSplit::combine(&pos, &neg);
        for (a, b) in combined.data().iter().zip(direct.data()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn latency_factor_is_two() {
        assert_eq!(PSEUDO_NEGATIVE_LATENCY_FACTOR, 2);
    }
}
