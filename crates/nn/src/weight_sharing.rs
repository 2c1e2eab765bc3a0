//! Weight sharing via kernel clustering (paper §7.3).
//!
//! Sharing 2-D convolution kernels through a small codebook plus a
//! per-kernel scaling factor (Son et al. \[55\]) compresses 8-bit weights by
//! ~4.5×: a 3×3 kernel costs 72 bits raw, but only an 8-bit codebook index
//! plus an 8-bit scale when shared against a 256-entry codebook. The paper
//! uses this to cut DRAM traffic (up to 52% total energy on DRAM-bound
//! layers) and to enable channel reordering (see [`crate::reorder`]).
//!
//! The clustering itself is Lloyd's k-means over unit-normalized kernels,
//! seeded deterministically.

use crate::tensor::Tensor4;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from codebook construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharingError {
    /// Requested more clusters than kernels exist.
    TooManyClusters {
        /// Clusters requested.
        clusters: usize,
        /// Kernels available.
        kernels: usize,
    },
    /// Zero clusters requested.
    ZeroClusters,
}

impl fmt::Display for SharingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingError::TooManyClusters { clusters, kernels } => {
                write!(
                    f,
                    "{clusters} clusters requested but only {kernels} kernels exist"
                )
            }
            SharingError::ZeroClusters => write!(f, "codebook needs at least one entry"),
        }
    }
}

impl std::error::Error for SharingError {}

/// A shared-kernel codebook: each `(filter, channel)` kernel is an index
/// into [`SharedWeights::codebook`] plus a scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedWeights {
    /// Cluster centroids, each a flattened `k×k` kernel of unit L2 norm.
    codebook: Vec<Vec<f64>>,
    /// `assignments[o][i]` — codebook index of filter `o`, channel `i`.
    assignments: Vec<Vec<usize>>,
    /// `scales[o][i]` — per-kernel scaling factor.
    scales: Vec<Vec<f64>>,
    kernel_elems: usize,
}

impl SharedWeights {
    /// Clusters the kernels of `weights` into a `clusters`-entry codebook
    /// using `iterations` of Lloyd's algorithm (seeded).
    ///
    /// # Errors
    ///
    /// Returns [`SharingError`] if `clusters` is zero or exceeds the number
    /// of kernels.
    pub fn cluster(
        weights: &Tensor4,
        clusters: usize,
        iterations: usize,
        seed: u64,
    ) -> Result<Self, SharingError> {
        let (o, i, kh, kw) = weights.shape();
        let n = o * i;
        if clusters == 0 {
            return Err(SharingError::ZeroClusters);
        }
        if clusters > n {
            return Err(SharingError::TooManyClusters {
                clusters,
                kernels: n,
            });
        }
        let elems = kh * kw;

        // Normalize each kernel; the scale carries the magnitude (and sign
        // convention: scale >= 0, direction in the codebook). Kernel
        // `(fo, fi)` is chunk `fo * i + fi` of the OIHW data, and of `vectors`.
        let kernels = weights.data().chunks_exact(elems);
        let mut vectors = Vec::with_capacity(n * elems);
        for flat in kernels.clone() {
            let norm = flat.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                vectors.extend(flat.iter().map(|v| v / norm));
            } else {
                vectors.resize(vectors.len() + elems, 0.0);
            }
        }

        // k-means++-lite init: pick distinct seeded random kernels.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(clusters);
        let mut chosen = std::collections::HashSet::new();
        while centroids.len() < clusters {
            let idx = rng.random_range(0..n);
            if chosen.insert(idx) {
                centroids.push(vectors[idx * elems..(idx + 1) * elems].to_vec());
            }
        }

        let mut assignment = vec![0usize; n];
        for _ in 0..iterations.max(1) {
            assign_nearest(&vectors, elems, &centroids, &mut assignment);
            // Update.
            let mut sums = vec![vec![0.0; elems]; clusters];
            let mut counts = vec![0usize; clusters];
            for (v, &a) in vectors.chunks_exact(elems).zip(&assignment) {
                counts[a] += 1;
                for (s, x) in sums[a].iter_mut().zip(v) {
                    *s += x;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    let mean: Vec<f64> = sum.iter().map(|s| s / count as f64).collect();
                    let norm = mean.iter().map(|v| v * v).sum::<f64>().sqrt();
                    if norm > 0.0 {
                        *c = mean.iter().map(|v| v / norm).collect();
                    }
                }
            }
        }
        assign_nearest(&vectors, elems, &centroids, &mut assignment);

        // Optimal per-kernel scale: projection of the original kernel onto
        // its (unit) centroid.
        let scales_flat: Vec<f64> = kernels
            .zip(&assignment)
            .map(|(orig, &a)| orig.iter().zip(&centroids[a]).map(|(x, c)| x * c).sum())
            .collect();
        let assignments = assignment.chunks_exact(i).map(<[usize]>::to_vec).collect();
        let scales = scales_flat.chunks_exact(i).map(<[f64]>::to_vec).collect();

        Ok(Self {
            codebook: centroids,
            assignments,
            scales,
            kernel_elems: elems,
        })
    }

    /// The codebook centroids.
    pub fn codebook(&self) -> &[Vec<f64>] {
        &self.codebook
    }

    /// Codebook index of filter `o`, channel `i`.
    pub fn assignment(&self, o: usize, i: usize) -> usize {
        self.assignments[o][i]
    }

    /// All assignments as `[filter][channel]`.
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Scale of filter `o`, channel `i`.
    pub fn scale(&self, o: usize, i: usize) -> f64 {
        self.scales[o][i]
    }

    /// Reconstructs the full (lossy) weight tensor.
    pub fn reconstruct(&self, kernel_h: usize, kernel_w: usize) -> Tensor4 {
        let o = self.assignments.len();
        let i = self.assignments[0].len();
        assert_eq!(
            kernel_h * kernel_w,
            self.kernel_elems,
            "kernel shape mismatch"
        );
        let mut out = Tensor4::zeros(o, i, kernel_h, kernel_w);
        for fo in 0..o {
            for fi in 0..i {
                let c = &self.codebook[self.assignments[fo][fi]];
                let s = self.scales[fo][fi];
                for ky in 0..kernel_h {
                    for kx in 0..kernel_w {
                        out.set(fo, fi, ky, kx, s * c[ky * kernel_w + kx]);
                    }
                }
            }
        }
        out
    }

    /// Mean relative reconstruction error (L2, per kernel with non-zero
    /// norm).
    pub fn relative_error(&self, original: &Tensor4) -> f64 {
        let (o, i, kh, kw) = original.shape();
        let rebuilt = self.reconstruct(kh, kw);
        let mut total = 0.0;
        let mut count = 0usize;
        for fo in 0..o {
            for fi in 0..i {
                let a = original.kernel_flat(fo, fi);
                let b = rebuilt.kernel_flat(fo, fi);
                let norm: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 0.0 {
                    let err: f64 = a
                        .iter()
                        .zip(&b)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                        .sqrt();
                    total += err / norm;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Compression ratio vs. `bits`-wide dense weights; see
    /// [`compression_ratio`].
    pub fn compression_ratio(&self, bits: u32) -> f64 {
        let kernels: usize = self.assignments.iter().map(Vec::len).sum();
        compression_ratio(kernels, self.kernel_elems, self.codebook.len(), bits)
    }
}

/// Compression ratio of `kernels` shared kernels of `kernel_elems` weights
/// each vs. `bits`-wide dense weights: raw `kernel_elems·bits` per kernel
/// vs. a `log2(codebook)` index + `bits` scale, with the `codebook`
/// centroids' storage amortized over the kernels.
///
/// This is a storage count: it does not depend on what the clustering
/// found, only on how many kernels and codebook entries there are.
pub fn compression_ratio(kernels: usize, kernel_elems: usize, codebook: usize, bits: u32) -> f64 {
    let raw_bits = kernels as f64 * kernel_elems as f64 * bits as f64;
    let index_bits = (codebook as f64).log2().ceil().max(1.0);
    let codebook_bits = codebook as f64 * kernel_elems as f64 * bits as f64;
    let shared_bits = kernels as f64 * (index_bits + bits as f64) + codebook_bits;
    raw_bits / shared_bits
}

/// Centroids scored together in one block of [`assign_nearest`].
const LANES: usize = 8;

/// Sets `assignment[j]` to the index of the centroid nearest (squared L2)
/// to vector `j`, the `j`-th `elems`-wide chunk of `vectors`; ties go to
/// the lowest index.
///
/// The centroids are laid out centroid-major in blocks of [`LANES`],
/// `table[(block * elems + e) * LANES + lane]`, so the inner loop runs
/// across a block's lanes and vectorizes. Each lane still adds its
/// `(x_e - c_e)²` terms in element order from zero, so every distance — and
/// hence every assignment — is bit-identical to a per-centroid scan.
fn assign_nearest(vectors: &[f64], elems: usize, centroids: &[Vec<f64>], assignment: &mut [usize]) {
    let k = centroids.len();
    let mut table = vec![f64::INFINITY; k.div_ceil(LANES) * elems * LANES];
    for (c, centroid) in centroids.iter().enumerate() {
        let (block, lane) = (c / LANES, c % LANES);
        for (e, &x) in centroid.iter().enumerate() {
            table[(block * elems + e) * LANES + lane] = x;
        }
    }
    for (v, a) in vectors.chunks_exact(elems).zip(assignment.iter_mut()) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (block, columns) in table.chunks_exact(elems * LANES).enumerate() {
            let mut acc = [0.0f64; LANES];
            for (&x, column) in v.iter().zip(columns.chunks_exact(LANES)) {
                for (s, &c) in acc.iter_mut().zip(column) {
                    let d = x - c;
                    *s += d * d;
                }
            }
            let first = block * LANES;
            for (lane, &d) in acc.iter().enumerate().take(k - first) {
                if d < best_d {
                    best_d = d;
                    best = first + lane;
                }
            }
        }
        *a = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-centroid nearest search, the oracle for [`assign_nearest`].
    fn nearest(v: &[f64], centroids: &[Vec<f64>]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d: f64 = v.iter().zip(c).map(|(x, y)| (x - y) * (x - y)).sum();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    fn assert_scan_matches_oracle(vectors: &[f64], elems: usize, centroids: &[Vec<f64>]) {
        let mut got = vec![usize::MAX; vectors.len() / elems];
        assign_nearest(vectors, elems, centroids, &mut got);
        for (j, (v, &a)) in vectors.chunks_exact(elems).zip(&got).enumerate() {
            assert_eq!(
                a,
                nearest(v, centroids),
                "vector {j}, k = {}",
                centroids.len()
            );
        }
    }

    #[test]
    fn blocked_scan_matches_per_centroid_oracle() {
        let w = Tensor4::random(32, 16, 3, 3, -1.0, 1.0, 31);
        let centroids = |k: usize, stride: usize| -> Vec<Vec<f64>> {
            w.data()
                .chunks_exact(9)
                .step_by(stride)
                .take(k)
                .map(<[f64]>::to_vec)
                .collect()
        };
        // Cluster counts off a multiple of the block width.
        for k in [1, 4, 8, 17, 255] {
            assert_scan_matches_oracle(w.data(), 9, &centroids(k, 2));
        }
        // 5x5 kernels.
        let big = Tensor4::random(8, 8, 5, 5, -1.0, 1.0, 32);
        let big_centroids: Vec<Vec<f64>> = big
            .data()
            .chunks_exact(25)
            .step_by(3)
            .map(<[f64]>::to_vec)
            .collect();
        assert_scan_matches_oracle(big.data(), 25, &big_centroids);
        // Exact duplicates in the codebook: every vector ties between
        // equal centroids, and the lowest index must win.
        let mut dup = centroids(12, 5);
        dup.extend(centroids(12, 5));
        dup.rotate_left(3);
        assert_scan_matches_oracle(w.data(), 9, &dup);
        // All-zero kernels: about equally far from every unit centroid, and
        // at distance zero from a zero centroid.
        let zeros = vec![0.0; 9 * 40];
        let mut unit: Vec<Vec<f64>> = centroids(20, 7)
            .into_iter()
            .map(|c| {
                let norm = c.iter().map(|v| v * v).sum::<f64>().sqrt();
                c.iter().map(|v| v / norm).collect()
            })
            .collect();
        assert_scan_matches_oracle(&zeros, 9, &unit);
        unit.insert(9, vec![0.0; 9]);
        assert_scan_matches_oracle(&zeros, 9, &unit);
        assert_scan_matches_oracle(w.data(), 9, &unit);
    }

    #[test]
    fn clustering_identical_kernels_is_lossless() {
        // All kernels identical -> 1 cluster reconstructs exactly.
        let mut w = Tensor4::zeros(4, 4, 3, 3);
        for o in 0..4 {
            for i in 0..4 {
                for ky in 0..3 {
                    for kx in 0..3 {
                        w.set(o, i, ky, kx, (ky * 3 + kx) as f64 + 1.0);
                    }
                }
            }
        }
        let shared = SharedWeights::cluster(&w, 1, 5, 0).unwrap();
        assert!(shared.relative_error(&w) < 1e-12);
    }

    #[test]
    fn scaled_copies_share_one_centroid() {
        // Kernels that are scalar multiples of each other cluster together
        // losslessly — the scale factor absorbs the magnitude.
        let base = [1.0, 2.0, -1.0, 0.5];
        let mut w = Tensor4::zeros(3, 1, 2, 2);
        for (o, s) in [(0usize, 1.0f64), (1, 2.5), (2, 0.3)] {
            for ky in 0..2 {
                for kx in 0..2 {
                    w.set(o, 0, ky, kx, s * base[ky * 2 + kx]);
                }
            }
        }
        let shared = SharedWeights::cluster(&w, 1, 5, 1).unwrap();
        assert!(shared.relative_error(&w) < 1e-12);
        assert!((shared.scale(1, 0) / shared.scale(0, 0) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn more_clusters_reduce_error() {
        let w = Tensor4::random(16, 8, 3, 3, -1.0, 1.0, 7);
        let coarse = SharedWeights::cluster(&w, 4, 10, 3).unwrap();
        let fine = SharedWeights::cluster(&w, 64, 10, 3).unwrap();
        assert!(fine.relative_error(&w) < coarse.relative_error(&w));
    }

    #[test]
    fn paper_compression_ratio() {
        // §7.3: ~4.5x compression for 8-bit 3x3 kernels with a 256-entry
        // codebook (amortized over many kernels).
        let w = Tensor4::random(64, 64, 3, 3, -1.0, 1.0, 9);
        let shared = SharedWeights::cluster(&w, 256, 3, 4).unwrap();
        let ratio = shared.compression_ratio(8);
        assert!((3.4..4.6).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn compression_ratio_approaches_4_5_asymptotically() {
        // Ignore codebook amortization: 72 bits -> 16 bits = 4.5x. With a
        // big kernel population the ratio approaches that.
        let w = Tensor4::random(128, 128, 3, 3, -1.0, 1.0, 10);
        let shared = SharedWeights::cluster(&w, 256, 1, 5).unwrap();
        let ratio = shared.compression_ratio(8);
        assert!(ratio > 4.0, "ratio = {ratio}");
    }

    #[test]
    fn closed_form_ratio_is_the_clustered_ratio() {
        // §7.3's 128x128 layer of 3x3 kernels against a 256-entry codebook:
        // the closed form is the same f64 as counting a real clustering.
        let w = Tensor4::random(128, 128, 3, 3, -1.0, 1.0, 7);
        let shared = SharedWeights::cluster(&w, 256, 2, 11).unwrap();
        let ratio = compression_ratio(128 * 128, 9, 256, 8);
        assert_eq!(ratio.to_bits(), shared.compression_ratio(8).to_bits());
        assert_eq!(ratio.to_bits(), 0x4010_d148_e03b_cbae, "ratio = {ratio}");
    }

    #[test]
    fn shared_weights_are_bit_identical_to_parent() {
        // The compression ratio sees only the codebook size, not what
        // k-means found, so pin the clustering itself: an FNV-1a hash of
        // every assignment, scale and codebook value, captured before the
        // nearest-centroid scan moved to its blocked form.
        let weights = Tensor4::random(128, 128, 3, 3, -1.0, 1.0, 7);
        let shared = SharedWeights::cluster(&weights, 256, 2, 11).expect("clusterable");
        let shared = &shared;
        let scales = (0..128).flat_map(|o| (0..128).map(move |i| shared.scale(o, i)));
        let words = shared
            .assignments()
            .iter()
            .flatten()
            .map(|&a| a as u64)
            .chain(scales.map(f64::to_bits))
            .chain(shared.codebook().iter().flatten().map(|c| c.to_bits()));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.flat_map(u64::to_le_bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(hash, 0xefd2_0b6f_06f3_ce21);
    }

    #[test]
    fn errors_reported() {
        let w = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 11);
        assert_eq!(
            SharedWeights::cluster(&w, 0, 1, 0),
            Err(SharingError::ZeroClusters)
        );
        assert_eq!(
            SharedWeights::cluster(&w, 5, 1, 0),
            Err(SharingError::TooManyClusters {
                clusters: 5,
                kernels: 4
            })
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let w = Tensor4::random(8, 8, 3, 3, -1.0, 1.0, 13);
        let a = SharedWeights::cluster(&w, 16, 5, 99).unwrap();
        let b = SharedWeights::cluster(&w, 16, 5, 99).unwrap();
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn reconstruct_shape_matches() {
        let w = Tensor4::random(4, 2, 5, 5, -1.0, 1.0, 17);
        let shared = SharedWeights::cluster(&w, 4, 3, 1).unwrap();
        assert_eq!(shared.reconstruct(5, 5).shape(), (4, 2, 5, 5));
    }

    #[test]
    fn error_display() {
        assert!(SharingError::ZeroClusters
            .to_string()
            .contains("at least one"));
    }
}
