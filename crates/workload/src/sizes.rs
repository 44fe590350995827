//! Rank–size models: the paper's "inverse Zipf-like" file-size law.
//!
//! Table 1 gives only the endpoints (188 MB minimum, 20 GB maximum) and the
//! footprint (12.86 TB over 40 000 files). A power law over size-rank,
//!
//! ```text
//! s_k = s_max · k^(−β),   k = 1..n  (k = 1 the largest file)
//! ```
//!
//! with `β` chosen so that `s_n = s_min` reproduces all three published
//! numbers at once: `β = ln(s_max/s_min)/ln n ≈ 0.4404` gives
//! `s_n ≈ 188 MB` and `Σ s_k ≈ 13 TB ≈ 12.86 TB`. This is also consistent
//! with the text: "the distribution of their sizes follows inverse Zipf-like
//! distribution".

/// A deterministic rank→size power law (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct RankSizeModel {
    /// Size of the largest file (size-rank 1), bytes.
    pub max_bytes: u64,
    /// Power-law decay exponent β ≥ 0.
    pub beta: f64,
    /// Number of files.
    pub n: usize,
}

impl RankSizeModel {
    /// Model with endpoints pinned: rank 1 has `max_bytes`, rank `n` has
    /// (approximately, up to rounding) `min_bytes`.
    ///
    /// # Panics
    /// If `n == 0`, `max_bytes < min_bytes`, or `min_bytes == 0`.
    pub fn with_endpoints(n: usize, min_bytes: u64, max_bytes: u64) -> Self {
        assert!(n >= 1, "need at least one file");
        assert!(min_bytes >= 1, "min size must be positive");
        assert!(max_bytes >= min_bytes, "max must be >= min");
        let beta = if n == 1 {
            0.0
        } else {
            (max_bytes as f64 / min_bytes as f64).ln() / (n as f64).ln()
        };
        RankSizeModel { max_bytes, beta, n }
    }

    /// The paper's Table 1 model: 40 000 files, 188 MB – 20 GB.
    pub fn paper_table1(n: usize) -> Self {
        Self::with_endpoints(n, 188 * crate::MB, 20 * crate::GB)
    }

    /// Size (bytes) of the file at size-rank `k` (1-based; rank 1 largest).
    ///
    /// # Panics
    /// If `k` is 0 or out of range.
    pub fn size_of_rank(&self, k: usize) -> u64 {
        assert!(k >= 1 && k <= self.n, "size rank out of range");
        (self.max_bytes as f64 * (k as f64).powf(-self.beta)).round() as u64
    }

    /// Total bytes across all ranks.
    pub fn total_bytes(&self) -> u64 {
        (1..=self.n).map(|k| self.size_of_rank(k)).sum()
    }

    /// All sizes by rank (index 0 = rank 1 = largest).
    pub fn sizes(&self) -> Vec<u64> {
        (1..=self.n).map(|k| self.size_of_rank(k)).collect()
    }
}

/// Statistics helper: arithmetic mean size of a model, bytes.
pub fn mean_bytes(model: &RankSizeModel) -> f64 {
    model.total_bytes() as f64 / model.n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GB, MB, TB};

    /// Find, by bisection on β, the model over `n` files with fixed `max_bytes`
    /// whose total footprint is within `tol_bytes` of `target_total` (larger β ⇒
    /// faster decay ⇒ smaller total).
    ///
    /// Returns the calibrated model. Useful when reproducing a corpus for which
    /// only the aggregate footprint is published.
    fn calibrate_beta_for_total(
        n: usize,
        max_bytes: u64,
        target_total: u64,
        tol_bytes: u64,
    ) -> RankSizeModel {
        assert!(n >= 1);
        assert!(
            target_total >= max_bytes,
            "target must fit at least the largest file"
        );
        let mut lo = 0.0_f64; // total = n * max (largest possible)
        let mut hi = 8.0_f64; // total ≈ max (fastest practical decay)
        let model_with = |beta: f64| RankSizeModel { max_bytes, beta, n };
        // Ensure the target is bracketed; with beta=0 total = n·max ≥ target.
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let total = model_with(mid).total_bytes();
            if total.abs_diff(target_total) <= tol_bytes {
                return model_with(mid);
            }
            if total > target_total {
                lo = mid; // decay too slow, total too big → increase beta
            } else {
                hi = mid;
            }
        }
        model_with(0.5 * (lo + hi))
    }

    #[test]
    fn paper_model_reproduces_table1_endpoints() {
        let m = RankSizeModel::paper_table1(40_000);
        assert_eq!(m.size_of_rank(1), 20 * GB);
        let min = m.size_of_rank(40_000);
        // β is pinned so rank n lands on 188 MB exactly (up to rounding).
        assert!(
            (min as f64 - 188.0e6).abs() < 2.0e6,
            "smallest file {min} ≉ 188 MB"
        );
    }

    #[test]
    fn paper_model_reproduces_table1_footprint() {
        // Table 1: "Space requirement for all files: 12.86 TB". The pure
        // power law with pinned endpoints lands within a few percent.
        let m = RankSizeModel::paper_table1(40_000);
        let total = m.total_bytes();
        assert!(
            total > 12 * TB && total < 15 * TB,
            "total {} TB not in the Table 1 ballpark",
            total / TB
        );
    }

    #[test]
    fn sizes_decrease_with_rank() {
        let m = RankSizeModel::paper_table1(1000);
        let sizes = m.sizes();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn single_file_model() {
        let m = RankSizeModel::with_endpoints(1, 100, 100);
        assert_eq!(m.size_of_rank(1), 100);
        assert_eq!(m.beta, 0.0);
    }

    #[test]
    fn equal_endpoints_give_constant_sizes() {
        let m = RankSizeModel::with_endpoints(10, 5 * MB, 5 * MB);
        for k in 1..=10 {
            assert_eq!(m.size_of_rank(k), 5 * MB);
        }
    }

    #[test]
    fn calibration_hits_target_total() {
        let target = 2 * TB;
        let m = calibrate_beta_for_total(10_000, 20 * GB, target, 10 * MB);
        let total = m.total_bytes();
        assert!(
            total.abs_diff(target) <= 10 * MB,
            "calibrated total {total} vs target {target}"
        );
    }

    #[test]
    fn calibration_monotonicity_sanity() {
        let loose = RankSizeModel {
            max_bytes: GB,
            beta: 0.2,
            n: 100,
        };
        let tight = RankSizeModel {
            max_bytes: GB,
            beta: 1.5,
            n: 100,
        };
        assert!(loose.total_bytes() > tight.total_bytes());
    }

    #[test]
    fn mean_bytes_matches_total() {
        let m = RankSizeModel::paper_table1(100);
        assert!((mean_bytes(&m) * 100.0 - m.total_bytes() as f64).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "size rank out of range")]
    fn rank_out_of_range_panics() {
        let m = RankSizeModel::paper_table1(10);
        let _ = m.size_of_rank(11);
    }
}
