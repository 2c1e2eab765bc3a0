//! Simulated-annealing channel reordering (paper §7.3).
//!
//! With weight sharing, many `(filter, channel)` kernels map to the same
//! codebook entry. ReFOCUS processes input channels in sequence, loading
//! each channel's kernel into the weight DACs; if two *consecutive* channels
//! of a filter share the same codebook entry, the weight DACs need not
//! toggle, saving weight-DAC energy (90% / 53% of DAC power for FB / FF).
//! Reordering the input channels — one permutation applied to every filter,
//! since channels are physically shared — groups equal assignments
//! together. The paper reports ≈15% weight-DAC power reduction under a
//! typical setup via a simulated-annealing search; this module implements
//! that search.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from reordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReorderError {
    /// No filters supplied.
    Empty,
    /// Filters disagree on channel count.
    RaggedAssignments,
}

impl fmt::Display for ReorderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReorderError::Empty => write!(f, "assignment matrix is empty"),
            ReorderError::RaggedAssignments => {
                write!(f, "all filters must have the same channel count")
            }
        }
    }
}

impl std::error::Error for ReorderError {}

/// Counts the weight-DAC *loads*: for each filter, the first channel plus
/// every transition where the codebook assignment changes between
/// consecutive channels (in `order`).
///
/// # Panics
///
/// Panics if `order` is not a permutation of the channel indices.
pub fn dac_loads(assignments: &[Vec<usize>], order: &[usize]) -> u64 {
    let channels = assignments.first().map_or(0, Vec::len);
    assert_eq!(order.len(), channels, "order length mismatch");
    let mut seen = vec![false; channels];
    for &c in order {
        assert!(c < channels && !seen[c], "order is not a permutation");
        seen[c] = true;
    }
    let mut loads = 0u64;
    for filter in assignments {
        let mut prev: Option<usize> = None;
        for &c in order {
            let a = filter[c];
            if prev != Some(a) {
                loads += 1;
            }
            prev = Some(a);
        }
    }
    loads
}

/// Result of a reordering search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderResult {
    /// The channel permutation found.
    pub order: Vec<usize>,
    /// Weight-DAC loads with the identity order.
    pub baseline_loads: u64,
    /// Weight-DAC loads with [`ReorderResult::order`].
    pub optimized_loads: u64,
}

impl ReorderResult {
    /// Fractional reduction in weight-DAC loads, in `[0, 1)`.
    pub fn reduction(&self) -> f64 {
        if self.baseline_loads == 0 {
            return 0.0;
        }
        1.0 - self.optimized_loads as f64 / self.baseline_loads as f64
    }
}

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealingSchedule {
    /// Starting temperature (in units of "loads").
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per step.
    pub cooling: f64,
    /// Total proposal steps.
    pub steps: usize,
}

impl Default for AnnealingSchedule {
    fn default() -> Self {
        Self {
            initial_temperature: 10.0,
            cooling: 0.999,
            steps: 20_000,
        }
    }
}

/// Searches for a channel order minimizing weight-DAC loads with simulated
/// annealing (swap moves, geometric cooling), seeded for reproducibility.
///
/// `assignments[o][i]` is the codebook index of filter `o`, channel `i`
/// (see [`crate::weight_sharing::SharedWeights::assignments`]).
///
/// # Errors
///
/// Returns [`ReorderError`] for empty or ragged input.
pub fn anneal_channel_order(
    assignments: &[Vec<usize>],
    schedule: AnnealingSchedule,
    seed: u64,
) -> Result<ReorderResult, ReorderError> {
    if assignments.is_empty() || assignments[0].is_empty() {
        return Err(ReorderError::Empty);
    }
    let channels = assignments[0].len();
    if assignments.iter().any(|f| f.len() != channels) {
        return Err(ReorderError::RaggedAssignments);
    }

    let identity: Vec<usize> = (0..channels).collect();
    let baseline_loads = dac_loads(assignments, &identity);

    // `mismatch[c * channels + d]` counts the filters whose codebook entry
    // differs between channels `c` and `d`, so an order costs
    // `filters + Σ mismatch[order[p]][order[p + 1]]` loads and a swap of
    // positions `a, b` changes only the pairs starting at `a - 1, a, b - 1, b`.
    let mut mismatch = vec![0u64; channels * channels];
    for c in 0..channels {
        for d in 0..c {
            let n = assignments.iter().filter(|f| f[c] != f[d]).count() as u64;
            mismatch[c * channels + d] = n;
            mismatch[d * channels + c] = n;
        }
    }
    let touched_cost = |order: &[usize], pairs: &[usize]| -> u64 {
        pairs
            .iter()
            .map(|&p| mismatch[order[p] * channels + order[p + 1]])
            .sum()
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut order = identity;
    let mut cost = baseline_loads;
    let mut best_order = order.clone();
    let mut best_cost = cost;
    let mut temperature = schedule.initial_temperature;

    if channels > 1 {
        let mut pairs = Vec::with_capacity(4);
        for _ in 0..schedule.steps {
            let a = rng.random_range(0..channels);
            let mut b = rng.random_range(0..channels);
            while b == a {
                b = rng.random_range(0..channels);
            }
            pairs.clear();
            pairs.extend(
                [a.wrapping_sub(1), a, b.wrapping_sub(1), b]
                    .into_iter()
                    .filter(|&p| p < channels - 1),
            );
            pairs.sort_unstable();
            pairs.dedup();
            let before = touched_cost(&order, &pairs);
            order.swap(a, b);
            // Exact integer arithmetic: equals `dac_loads` of the new order.
            let new_cost = cost - before + touched_cost(&order, &pairs);
            let accept = new_cost <= cost
                || rng.random::<f64>()
                    < ((cost as f64 - new_cost as f64) / temperature.max(1e-12)).exp();
            if accept {
                cost = new_cost;
                if cost < best_cost {
                    best_cost = cost;
                    best_order.copy_from_slice(&order);
                }
            } else {
                order.swap(a, b); // revert
            }
            temperature *= schedule.cooling;
        }
    }

    Ok(ReorderResult {
        optimized_loads: best_cost,
        order: best_order,
        baseline_loads,
    })
}

/// Generates a synthetic assignment matrix with the structure real
/// weight-shared CNN layers show: each input *channel* has a preferred
/// codebook entry (channels carry a characteristic feature that most
/// filters probe the same way), taken with probability `affinity`;
/// otherwise a skewed random entry is drawn. Reordering pays off exactly
/// because of this cross-filter channel correlation.
pub fn synthetic_assignments(
    filters: usize,
    channels: usize,
    codebook_size: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let affinity = 0.5;
    let preferred: Vec<usize> = (0..channels)
        .map(|_| rng.random_range(0..codebook_size))
        .collect();
    (0..filters)
        .map(|_| {
            (0..channels)
                .map(|c| {
                    if rng.random::<f64>() < affinity {
                        preferred[c]
                    } else {
                        // Skewed: square a uniform to favour low indices,
                        // mimicking the popularity skew real codebooks show.
                        let u: f64 = rng.random();
                        ((u * u) * codebook_size as f64) as usize % codebook_size
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference annealer: the same search, recounting every load with
    /// [`dac_loads`] after each swap. [`anneal_channel_order`] must return
    /// exactly what it returns.
    fn reference_anneal(
        assignments: &[Vec<usize>],
        schedule: AnnealingSchedule,
        seed: u64,
    ) -> ReorderResult {
        let channels = assignments[0].len();
        let identity: Vec<usize> = (0..channels).collect();
        let baseline_loads = dac_loads(assignments, &identity);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order = identity.clone();
        let mut cost = baseline_loads as f64;
        let mut best_order = order.clone();
        let mut best_cost = cost;
        let mut temperature = schedule.initial_temperature;
        if channels > 1 {
            for _ in 0..schedule.steps {
                let a = rng.random_range(0..channels);
                let mut b = rng.random_range(0..channels);
                while b == a {
                    b = rng.random_range(0..channels);
                }
                order.swap(a, b);
                let new_cost = dac_loads(assignments, &order) as f64;
                let accept = new_cost <= cost
                    || rng.random::<f64>() < ((cost - new_cost) / temperature.max(1e-12)).exp();
                if accept {
                    cost = new_cost;
                    if cost < best_cost {
                        best_cost = cost;
                        best_order = order.clone();
                    }
                } else {
                    order.swap(a, b);
                }
                temperature *= schedule.cooling;
            }
        }
        ReorderResult {
            optimized_loads: best_cost as u64,
            order: best_order,
            baseline_loads,
        }
    }

    #[test]
    fn swap_deltas_match_the_full_recount_oracle() {
        let cases: Vec<(&str, Vec<Vec<usize>>, u64)> = vec![
            ("sec7_3 input", synthetic_assignments(64, 64, 16, 3), 5),
            ("two channels", synthetic_assignments(16, 2, 4, 21), 1),
            ("three channels", synthetic_assignments(16, 3, 4, 22), 2),
            ("single filter", synthetic_assignments(1, 24, 6, 23), 3),
            ("one-entry codebook", synthetic_assignments(8, 16, 1, 24), 4),
            ("128 x 32", synthetic_assignments(128, 32, 16, 25), 6),
        ];
        for (name, assignments, seed) in cases {
            let schedule = AnnealingSchedule::default();
            assert_eq!(
                anneal_channel_order(&assignments, schedule, seed).unwrap(),
                reference_anneal(&assignments, schedule, seed),
                "{name}"
            );
        }
    }

    #[test]
    fn loads_counting_basics() {
        // One filter, assignments [0,0,1,1]: loads = 1 (first) + 1 (0->1).
        let a = vec![vec![0, 0, 1, 1]];
        assert_eq!(dac_loads(&a, &[0, 1, 2, 3]), 2);
        // Interleaved order doubles the loads.
        assert_eq!(dac_loads(&a, &[0, 2, 1, 3]), 4);
    }

    #[test]
    fn loads_sum_over_filters() {
        let a = vec![vec![0, 1], vec![1, 1]];
        // filter0: 2 loads; filter1: 1 load.
        assert_eq!(dac_loads(&a, &[0, 1]), 3);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn loads_rejects_bad_order() {
        dac_loads(&[vec![0, 1]], &[0, 0]);
    }

    #[test]
    fn annealing_finds_perfect_grouping() {
        // Two clusters interleaved: perfect order halves the loads.
        // filter: [0,1,0,1,0,1] -> identity loads = 6; sorted = 2.
        let a = vec![vec![0, 1, 0, 1, 0, 1]; 4];
        let result = anneal_channel_order(&a, AnnealingSchedule::default(), 7).unwrap();
        assert_eq!(result.baseline_loads, 24);
        assert_eq!(result.optimized_loads, 8);
        assert!((result.reduction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn annealing_never_worse_than_identity() {
        let a = synthetic_assignments(16, 32, 8, 3);
        let result = anneal_channel_order(&a, AnnealingSchedule::default(), 4).unwrap();
        assert!(result.optimized_loads <= result.baseline_loads);
    }

    #[test]
    fn typical_setup_reaches_double_digit_reduction() {
        // §7.3: "a 15% reduction in weight DAC power ... under a typical
        // setup". A skewed 64x64 layer with a 16-entry effective codebook
        // should comfortably reach >=10%.
        let a = synthetic_assignments(64, 64, 16, 11);
        let result = anneal_channel_order(&a, AnnealingSchedule::default(), 12).unwrap();
        assert!(
            result.reduction() >= 0.10,
            "reduction = {}",
            result.reduction()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = synthetic_assignments(8, 16, 4, 5);
        let r1 = anneal_channel_order(&a, AnnealingSchedule::default(), 9).unwrap();
        let r2 = anneal_channel_order(&a, AnnealingSchedule::default(), 9).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn single_channel_is_trivial() {
        let a = vec![vec![3]; 5];
        let r = anneal_channel_order(&a, AnnealingSchedule::default(), 0).unwrap();
        assert_eq!(r.order, vec![0]);
        assert_eq!(r.baseline_loads, 5);
        assert_eq!(r.optimized_loads, 5);
        assert_eq!(r.reduction(), 0.0);
    }

    #[test]
    fn errors_reported() {
        assert_eq!(
            anneal_channel_order(&[], AnnealingSchedule::default(), 0),
            Err(ReorderError::Empty)
        );
        assert_eq!(
            anneal_channel_order(&[vec![0, 1], vec![0]], AnnealingSchedule::default(), 0),
            Err(ReorderError::RaggedAssignments)
        );
    }

    #[test]
    fn synthetic_assignments_in_range_and_seeded() {
        let a = synthetic_assignments(4, 8, 5, 42);
        let b = synthetic_assignments(4, 8, 5, 42);
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|&v| v < 5));
    }
}
