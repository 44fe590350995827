//! Logarithmic size binning — the paper's 80-bin analysis (§5.1).
//!
//! "We classified the 88,631 files into 80 bins by their size … the
//! distribution of file sizes is closely related to a Zipf distribution
//! because the proportion decreases almost linearly in the log-log scale."
//! [`SizeBins`] reproduces that classification; this module's tests (and
//! the NERSC generator's) check the log-log linearity.

/// A set of logarithmically spaced size bins over `[min_bytes, max_bytes]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeBins {
    edges: Vec<f64>, // len = bins + 1, ascending, log-spaced
    counts: Vec<u64>,
}

impl SizeBins {
    /// Create `bins ≥ 1` log-spaced bins spanning `[min_bytes, max_bytes]`.
    ///
    /// # Panics
    /// If `bins == 0` or the range is degenerate.
    pub fn new(bins: usize, min_bytes: u64, max_bytes: u64) -> Self {
        assert!(bins >= 1, "need at least one bin");
        assert!(min_bytes >= 1 && max_bytes > min_bytes, "degenerate range");
        let lo = (min_bytes as f64).ln();
        let hi = (max_bytes as f64).ln();
        let edges = (0..=bins)
            .map(|i| (lo + (hi - lo) * i as f64 / bins as f64).exp())
            .collect();
        SizeBins {
            edges,
            counts: vec![0; bins],
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when there are no bins (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Index of the bin containing `bytes` (clamped to the outermost bins).
    pub fn bin_of(&self, bytes: u64) -> usize {
        let b = bytes as f64;
        if b <= self.edges[0] {
            return 0;
        }
        let last = self.counts.len() - 1;
        if b >= self.edges[self.edges.len() - 1] {
            return last;
        }
        // first edge strictly greater than b, minus one
        let idx = self.edges.partition_point(|&e| e <= b);
        (idx - 1).min(last)
    }

    /// Record one file of the given size.
    pub fn record(&mut self, bytes: u64) {
        let b = self.bin_of(bytes);
        self.counts[b] += 1;
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Geometric midpoint (bytes) of bin `i`.
    pub fn midpoint(&self, i: usize) -> f64 {
        (self.edges[i] * self.edges[i + 1]).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GB, MB};

    impl SizeBins {
        /// Per-bin proportions of the total population (0 for an empty bin set).
        pub(crate) fn proportions(&self) -> Vec<f64> {
            let total: u64 = self.counts.iter().sum();
            if total == 0 {
                return vec![0.0; self.counts.len()];
            }
            self.counts
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect()
        }

        /// Least-squares fit of `ln(proportion)` against `ln(bin midpoint)` over
        /// non-empty bins; returns `(slope, r2)`. A clearly negative slope with
        /// good `r²` is the paper's "decreases almost linearly in the log-log
        /// scale" observation.
        pub(crate) fn log_log_fit(&self) -> Option<(f64, f64)> {
            let props = self.proportions();
            let pts: Vec<(f64, f64)> = props
                .iter()
                .enumerate()
                .filter(|(_, &p)| p > 0.0)
                .map(|(i, &p)| (self.midpoint(i).ln(), p.ln()))
                .collect();
            if pts.len() < 3 {
                return None;
            }
            let n = pts.len() as f64;
            let sx: f64 = pts.iter().map(|p| p.0).sum();
            let sy: f64 = pts.iter().map(|p| p.1).sum();
            let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
            let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
            let syy: f64 = pts.iter().map(|p| p.1 * p.1).sum();
            let denom = n * sxx - sx * sx;
            if denom.abs() < 1e-12 {
                return None;
            }
            let slope = (n * sxy - sx * sy) / denom;
            let r_num = n * sxy - sx * sy;
            let r_den = (denom * (n * syy - sy * sy)).sqrt();
            let r2 = if r_den > 0.0 {
                (r_num / r_den).powi(2)
            } else {
                0.0
            };
            Some((slope, r2))
        }
    }

    #[test]
    fn edges_are_log_spaced() {
        let b = SizeBins::new(4, MB, 16 * MB);
        // ratios between consecutive edges are equal (2x each here)
        for w in b.edges.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bin_of_respects_edges() {
        let b = SizeBins::new(4, MB, 16 * MB);
        assert_eq!(b.bin_of(MB), 0);
        assert_eq!(b.bin_of(3 * MB), 1);
        assert_eq!(b.bin_of(5 * MB), 2);
        assert_eq!(b.bin_of(9 * MB), 3);
        // clamping
        assert_eq!(b.bin_of(1), 0);
        assert_eq!(b.bin_of(100 * MB), 3);
    }

    #[test]
    fn record_and_proportions() {
        let mut b = SizeBins::new(2, MB, 4 * MB);
        for bytes in [MB, MB, 3 * MB] {
            b.record(bytes);
        }
        assert_eq!(b.counts(), &[2, 1]);
        let p = b.proportions();
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bins_have_zero_proportions() {
        let b = SizeBins::new(3, MB, 8 * MB);
        assert_eq!(b.proportions(), vec![0.0, 0.0, 0.0]);
        assert!(b.log_log_fit().is_none());
    }

    #[test]
    fn log_log_fit_detects_power_law() {
        // Population with count ∝ size^-1 per log bin (empty bins at the
        // large end simply drop out of the fit).
        let mut b = SizeBins::new(80, MB, 100 * GB);
        for i in 0..80 {
            let mid = b.midpoint(i);
            let count = (1e9 / mid) as u64;
            for _ in 0..count {
                b.record(mid as u64);
            }
        }
        let (slope, r2) = b.log_log_fit().unwrap();
        assert!(slope < -0.5, "slope {slope}");
        assert!(r2 > 0.9, "r2 {r2}");
    }

    #[test]
    fn paper_80_has_80_bins() {
        assert_eq!(SizeBins::new(80, MB, GB).len(), 80);
    }

    #[test]
    #[should_panic(expected = "degenerate range")]
    fn degenerate_range_rejected() {
        let _ = SizeBins::new(4, MB, MB);
    }
}
