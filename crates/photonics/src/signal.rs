//! 1-D digital reference correlation and convolution.
//!
//! The JTC computes correlations optically; this module provides the
//! direct O(N·K) digital references the optical model is validated
//! against, and the valid-window correlation `refocus_nn`'s row tiling
//! builds on.
//!
//! Conventions:
//! * `convolve_direct` is **linear convolution**: `y[n] = sum_k a[k] * b[n-k]`,
//!   output length `a.len() + b.len() - 1`.
//! * `correlate` is **cross-correlation**: `y[n] = sum_k a[k+n] * b[k]` for
//!   lag `n` in `[-(b.len()-1), a.len()-1]`, which is what a CNN "convolution"
//!   actually computes and what the JTC's cross term produces.

/// Linear convolution by direct summation: output length `a.len()+b.len()-1`.
///
/// Returns an empty vector if either input is empty.
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let n = a.len() + b.len() - 1;
    let mut y = vec![0.0; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0.0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            y[i + j] += ai * bj;
        }
    }
    y
}

/// Full cross-correlation `y[n] = sum_k a[k+n] * b[k]`.
///
/// The output covers lags `-(b.len()-1) ..= a.len()-1`, so its length is
/// `a.len() + b.len() - 1` and index `i` corresponds to lag
/// `i - (b.len() - 1)`.
pub fn correlate(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    // corr(a, b)[lag] = conv(a, reverse(b))[lag + b.len() - 1].
    let rev: Vec<f64> = b.iter().rev().copied().collect();
    convolve_direct(a, &rev)
}

/// "Valid" cross-correlation: only lags where `b` fully overlaps `a`.
///
/// Output length is `a.len() - b.len() + 1`; element `i` is
/// `sum_k a[i+k] * b[k]`. This is a CNN's valid "convolution".
///
/// # Panics
///
/// Panics if `b` is longer than `a` or either is empty.
pub fn correlate_valid(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert!(!a.is_empty() && !b.is_empty(), "inputs must be non-empty");
    assert!(
        b.len() <= a.len(),
        "kernel ({}) longer than signal ({})",
        b.len(),
        a.len()
    );
    (0..=a.len() - b.len())
        .map(|i| b.iter().enumerate().map(|(k, &bk)| a[i + k] * bk).sum())
        .collect()
}

/// Maximum absolute difference between two signals.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convolve_known_values() {
        // [1,2,3] * [1,1] = [1,3,5,3]
        assert_eq!(
            convolve_direct(&[1.0, 2.0, 3.0], &[1.0, 1.0]),
            vec![1.0, 3.0, 5.0, 3.0]
        );
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [1.0, -2.0, 0.5];
        let b = [3.0, 0.0, 1.0, 2.0];
        assert_eq!(convolve_direct(&a, &b), convolve_direct(&b, &a));
    }

    #[test]
    fn empty_inputs_give_empty_outputs() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_direct(&[1.0], &[]).is_empty());
        assert!(correlate(&[], &[]).is_empty());
    }

    #[test]
    fn correlate_valid_known_values() {
        // a = [1,2,3,4], b = [1,1]: [3, 5, 7]
        assert_eq!(
            correlate_valid(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0]),
            vec![3.0, 5.0, 7.0]
        );
    }

    #[test]
    fn full_correlation_contains_valid_part() {
        let a = [0.5, -1.0, 2.0, 3.0, 1.0];
        let b = [1.0, 0.5, -0.5];
        let full = correlate(&a, &b);
        let valid = correlate_valid(&a, &b);
        // Valid region starts at lag 0, i.e. index b.len()-1 of the full output.
        let start = b.len() - 1;
        assert!(max_abs_diff(&full[start..start + valid.len()], &valid) < 1e-12);
    }

    #[test]
    fn correlation_vs_convolution_reversal() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        let corr = correlate(&a, &b);
        let rev: Vec<f64> = b.iter().rev().copied().collect();
        let conv = convolve_direct(&a, &rev);
        assert_eq!(corr, conv);
    }

    #[test]
    fn max_diff() {
        let a = [1.0, 2.0];
        let b = [1.0, 4.0];
        assert_eq!(max_abs_diff(&a, &b), 2.0);
    }
}
