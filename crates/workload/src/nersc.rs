//! Synthetic NERSC workload (§5.1) — a documented substitution.
//!
//! The paper replays 30 days of real read logs from NERSC (May 31 – Jun 29,
//! 2008). Those logs are not public, so this module synthesizes a workload
//! matching every statistic the paper publishes about them:
//!
//! - 88 631 distinct files, 115 832 read requests → every file is requested
//!   at least once and the remaining ≈ 27 000 requests follow a Zipf law;
//! - average arrival rate 0.044683 /s over 30 days (Poisson count check:
//!   0.044683 × 2 592 000 ≈ 115 818 ✓);
//! - mean file size 544 MB ("which incurred about 7.56 sec of service time
//!   \[at\] 72 MBps") — bin-level Zipf calibrated to hit this mean exactly in
//!   expectation;
//! - file sizes fall into 80 log-spaced bins whose proportions "decrease
//!   almost linearly in the log-log scale";
//! - **no** correlation between file size and access frequency;
//! - total footprint ⇒ "minimum space required … is 95 disks" of 500 GB
//!   (88 631 × 544 MB ≈ 48.2 TB ≈ 96 drives — the paper's 95/96);
//! - optionally, batched same-size bursts (§3.2) for the `Pack_Disks_v`
//!   experiments.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::arrivals::BatchConfig;
use crate::bins::SizeBins;
use crate::catalog::{fisher_yates, FileCatalog, FileId};
use crate::trace::{Request, Trace};
use crate::zipf::ZipfDistribution;
use crate::{GB, MB};

/// Configuration of the synthetic NERSC workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NerscConfig {
    /// Number of distinct files (paper: 88 631).
    pub n_files: usize,
    /// Total read requests (paper: 115 832).
    pub n_requests: usize,
    /// Observation window, seconds (paper: 30 days).
    pub duration_s: f64,
    /// Target mean file size, bytes (paper: 544 MB).
    pub mean_size_bytes: u64,
    /// Smallest representable file size.
    pub min_size_bytes: u64,
    /// Largest representable file size.
    pub max_size_bytes: u64,
    /// Number of log-spaced size bins (paper: 80).
    pub size_bins: usize,
    /// Zipf exponent for the *extra* requests beyond one-per-file.
    pub popularity_exponent: f64,
}

impl NerscConfig {
    /// The paper's §5.1 parameters.
    pub fn paper() -> Self {
        NerscConfig {
            n_files: 88_631,
            n_requests: 115_832,
            duration_s: 30.0 * 24.0 * 3600.0,
            mean_size_bytes: 544 * MB,
            min_size_bytes: MB,
            max_size_bytes: 100 * GB,
            size_bins: 80,
            popularity_exponent: 0.8,
        }
    }

    /// A proportionally scaled-down instance (for tests and CI): `factor`
    /// divides file and request counts; time window is kept.
    pub fn paper_scaled(factor: usize) -> Self {
        assert!(factor >= 1);
        let paper = Self::paper();
        NerscConfig {
            n_files: (paper.n_files / factor).max(1),
            n_requests: (paper.n_requests / factor).max(1),
            ..paper
        }
    }

    /// Mean request arrival rate implied by the configuration.
    pub fn arrival_rate(&self) -> f64 {
        self.n_requests as f64 / self.duration_s
    }

    fn validate(&self) {
        assert!(self.n_files >= 1);
        assert!(
            self.n_requests >= self.n_files,
            "need at least one request per distinct file"
        );
        assert!(self.duration_s > 0.0);
        assert!(self.min_size_bytes >= 1);
        assert!(self.max_size_bytes > self.min_size_bytes);
        assert!(
            (self.min_size_bytes..=self.max_size_bytes).contains(&self.mean_size_bytes),
            "target mean outside size range"
        );
        assert!(self.size_bins >= 2);
        assert!(self.popularity_exponent >= 0.0);
    }
}

/// A generated NERSC-like workload: the file population plus the request
/// trace over it.
#[derive(Debug, Clone, PartialEq)]
pub struct NerscWorkload {
    /// The file population (sizes + *empirical* popularities from the trace).
    pub catalog: FileCatalog,
    /// The 30-day request trace.
    pub trace: Trace,
}

/// Calibrate the bin-level Zipf exponent so the expected file size equals
/// `cfg.mean_size_bytes`. Bin 1 holds the smallest files; a larger exponent
/// shifts weight toward small files, so the mean is monotone decreasing in
/// the exponent and bisection applies.
pub fn calibrate_bin_exponent(cfg: &NerscConfig) -> f64 {
    let bins = SizeBins::new(cfg.size_bins, cfg.min_size_bytes, cfg.max_size_bytes);
    let mids: Vec<f64> = (0..cfg.size_bins).map(|i| bins.midpoint(i)).collect();
    let mean_for = |a: f64| -> f64 {
        let z = ZipfDistribution::new(cfg.size_bins, a);
        mids.iter()
            .enumerate()
            .map(|(i, &m)| z.pmf(i + 1) * m)
            .sum()
    };
    let target = cfg.mean_size_bytes as f64;
    let (mut lo, mut hi) = (0.0_f64, 6.0_f64);
    assert!(
        mean_for(lo) >= target && mean_for(hi) <= target,
        "target mean {target} out of calibration range [{}, {}]",
        mean_for(hi),
        mean_for(lo)
    );
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if mean_for(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Generate the workload. Deterministic in `(cfg, seed)`.
pub fn generate(cfg: &NerscConfig, seed: u64) -> NerscWorkload {
    generate_with_batches(cfg, None, seed)
}

/// Like [`generate`], but replacing a fraction of the single-request tail
/// with §3.2-style bursts of similar-size files when `batches` is given.
pub fn generate_with_batches(
    cfg: &NerscConfig,
    batches: Option<&BatchConfig>,
    seed: u64,
) -> NerscWorkload {
    cfg.validate();
    let mut rng = SmallRng::seed_from_u64(seed);

    // --- sizes: Zipf over log-spaced bins, log-uniform within a bin -------
    let exponent = calibrate_bin_exponent(cfg);
    let bin_dist = ZipfDistribution::new(cfg.size_bins, exponent);
    let bins = SizeBins::new(cfg.size_bins, cfg.min_size_bytes, cfg.max_size_bytes);
    let log_min = (cfg.min_size_bytes as f64).ln();
    let log_max = (cfg.max_size_bytes as f64).ln();
    let bin_width = (log_max - log_min) / cfg.size_bins as f64;
    let sizes: Vec<u64> = (0..cfg.n_files)
        .map(|_| {
            let bin = bin_dist.sample(&mut rng) - 1; // bin index, 0 = smallest
            let lo = log_min + bin as f64 * bin_width;
            let u: f64 = rng.random();
            ((lo + u * bin_width).exp()).round().max(1.0) as u64
        })
        .collect();
    let _ = bins; // bins are reconstructed by analyses; kept for clarity

    // --- request mix: one per file + Zipf extras ---------------------------
    // Popularity ranks are assigned to file ids by a seeded shuffle, which
    // breaks any correlation with size (the paper's observation).
    let mut rank_to_file: Vec<u32> = (0..cfg.n_files as u32).collect();
    fisher_yates(&mut rank_to_file, seed.wrapping_add(17));
    let extra = cfg.n_requests - cfg.n_files;
    let extra_dist = ZipfDistribution::new(cfg.n_files, cfg.popularity_exponent);
    let mut per_file_requests = vec![1u64; cfg.n_files];
    for _ in 0..extra {
        let rank = extra_dist.sample(&mut rng);
        per_file_requests[rank_to_file[rank - 1] as usize] += 1;
    }

    // --- arrival times: order statistics of U(0, duration) ----------------
    // (a Poisson process conditioned on its count is iid uniforms, sorted)
    let mut times: Vec<f64> = (0..cfg.n_requests)
        .map(|_| rng.random::<f64>() * cfg.duration_s)
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));

    // --- assign files to arrival slots -------------------------------------
    let mut slots: Vec<u32> = Vec::with_capacity(cfg.n_requests);
    for (file, &count) in per_file_requests.iter().enumerate() {
        for _ in 0..count {
            slots.push(file as u32);
        }
    }
    fisher_yates(&mut slots, seed.wrapping_add(29));
    let mut requests: Vec<Request> = times
        .iter()
        .zip(&slots)
        .map(|(&time, &file)| Request {
            time,
            file: FileId(file),
        })
        .collect();

    // --- optional bursty rewrite (§3.2) ------------------------------------
    if let Some(bc) = batches {
        rewrite_as_bursts(&mut requests, &sizes, bc, cfg.duration_s, seed);
    }

    // --- empirical popularities --------------------------------------------
    let total = requests.len() as f64;
    let mut counts = vec![0u64; cfg.n_files];
    for r in &requests {
        counts[r.file.index()] += 1;
    }
    let popularity: Vec<f64> = counts.iter().map(|&c| c as f64 / total).collect();

    let catalog = FileCatalog::from_parts(sizes, popularity);
    let trace = Trace::new(requests, cfg.duration_s);
    NerscWorkload { catalog, trace }
}

/// Rewrite a fraction of requests into same-size bursts: pick burst anchors,
/// then retarget runs of consecutive requests at files adjacent in size.
fn rewrite_as_bursts(
    requests: &mut [Request],
    sizes: &[u64],
    cfg: &BatchConfig,
    duration: f64,
    seed: u64,
) {
    cfg.validate();
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(43));
    let mut by_size: Vec<u32> = (0..sizes.len() as u32).collect();
    by_size.sort_by_key(|&i| sizes[i as usize]);
    let n_bursts = (cfg.burst_rate * duration).round() as usize;
    if requests.is_empty() || n_bursts == 0 {
        return;
    }
    for _ in 0..n_bursts {
        let at = rng.random_range(0..requests.len());
        let len = rng
            .random_range(cfg.min_batch..=cfg.max_batch)
            .min(requests.len() - at);
        let anchor = rng.random_range(0..by_size.len());
        for k in 0..len {
            let rank = (anchor + k).min(by_size.len() - 1);
            requests[at + k].file = FileId(by_size[rank]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::popularity_slope;
    use crate::TB;

    fn small_cfg() -> NerscConfig {
        NerscConfig::paper_scaled(40) // ~2 215 files, ~2 895 requests
    }

    #[test]
    fn request_and_file_counts_match_config() {
        let cfg = small_cfg();
        let w = generate(&cfg, 1);
        assert_eq!(w.catalog.len(), cfg.n_files);
        assert_eq!(w.trace.len(), cfg.n_requests);
        // every file requested at least once (the paper's "distinct" count)
        assert_eq!(w.trace.distinct_files(), cfg.n_files);
    }

    #[test]
    fn mean_size_close_to_544mb() {
        let cfg = small_cfg();
        let w = generate(&cfg, 2);
        let mean = w.catalog.mean_bytes();
        let target = cfg.mean_size_bytes as f64;
        assert!(
            (mean - target).abs() / target < 0.15,
            "mean {mean:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn paper_scale_footprint_matches_95_disks() {
        // Full-size generation is fast enough to test directly.
        let cfg = NerscConfig::paper();
        let w = generate(&cfg, 3);
        let disks = (w.catalog.total_bytes() as f64 / (500.0 * 1e9)).ceil() as u64;
        assert!(
            (90..=105).contains(&disks),
            "footprint {} TB → {disks} disks, paper says 95",
            w.catalog.total_bytes() / TB
        );
        let rate = w.trace.mean_rate();
        assert!(
            (rate - 0.044683).abs() / 0.044683 < 0.01,
            "arrival rate {rate}"
        );
    }

    #[test]
    fn sizes_are_zipf_across_bins() {
        let cfg = small_cfg();
        let w = generate(&cfg, 4);
        let mut bins = SizeBins::new(cfg.size_bins, cfg.min_size_bytes, cfg.max_size_bytes);
        bins.record_all(w.catalog.iter().map(|f| f.size_bytes));
        let (slope, r2) = bins.log_log_fit().expect("fit");
        assert!(slope < -0.2, "slope {slope} not decreasing");
        assert!(r2 > 0.6, "log-log fit too poor: r2 {r2}");
    }

    #[test]
    fn size_and_frequency_uncorrelated() {
        let cfg = small_cfg();
        let w = generate(&cfg, 5);
        let counts = w.trace.per_file_counts(cfg.n_files);
        // Pearson correlation between size and request count ≈ 0.
        let n = cfg.n_files as f64;
        let mean_s = w.catalog.mean_bytes();
        let mean_c = counts.iter().sum::<u64>() as f64 / n;
        let mut cov = 0.0;
        let mut var_s = 0.0;
        let mut var_c = 0.0;
        for (f, &c) in w.catalog.iter().zip(&counts) {
            let ds = f.size_bytes as f64 - mean_s;
            let dc = c as f64 - mean_c;
            cov += ds * dc;
            var_s += ds * ds;
            var_c += dc * dc;
        }
        let corr = cov / (var_s.sqrt() * var_c.sqrt());
        assert!(corr.abs() < 0.1, "size/frequency correlation {corr}");
    }

    #[test]
    fn extra_requests_are_skewed() {
        let cfg = NerscConfig {
            n_files: 500,
            n_requests: 5000,
            ..small_cfg()
        };
        let w = generate(&cfg, 6);
        let counts = w.trace.per_file_counts(cfg.n_files);
        let slope = popularity_slope(&counts);
        assert!(slope > 0.2, "expected Zipf-ish counts, slope {slope}");
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = small_cfg();
        let a = generate(&cfg, 9);
        let b = generate(&cfg, 9);
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.trace, b.trace);
        let c = generate(&cfg, 10);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn calibration_hits_mean_in_expectation() {
        let cfg = NerscConfig::paper();
        let a = calibrate_bin_exponent(&cfg);
        assert!(a > 0.0 && a < 6.0);
        // Recompute the expectation at the calibrated exponent.
        let bins = SizeBins::new(cfg.size_bins, cfg.min_size_bytes, cfg.max_size_bytes);
        let z = ZipfDistribution::new(cfg.size_bins, a);
        let mean: f64 = (0..cfg.size_bins)
            .map(|i| z.pmf(i + 1) * bins.midpoint(i))
            .sum();
        let target = cfg.mean_size_bytes as f64;
        assert!(
            (mean - target).abs() / target < 1e-6,
            "calibrated mean {mean} target {target}"
        );
    }

    #[test]
    fn batched_generation_creates_same_size_runs() {
        let cfg = small_cfg();
        let bc = BatchConfig {
            burst_rate: 20.0 / cfg.duration_s, // 20 bursts over the window
            min_batch: 5,
            max_batch: 5,
            intra_batch_gap_s: 0.0,
        };
        let plain = generate(&cfg, 11);
        let bursty = generate_with_batches(&cfg, Some(&bc), 11);
        assert_eq!(plain.trace.len(), bursty.trace.len());
        assert_ne!(plain.trace, bursty.trace);
    }

    #[test]
    fn arrival_times_ordered_and_within_window() {
        let cfg = small_cfg();
        let w = generate(&cfg, 12);
        let reqs = w.trace.requests();
        for pair in reqs.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert!(reqs.last().unwrap().time <= cfg.duration_s);
    }

    #[test]
    #[should_panic(expected = "at least one request per distinct file")]
    fn too_few_requests_rejected() {
        let cfg = NerscConfig {
            n_files: 100,
            n_requests: 50,
            ..NerscConfig::paper()
        };
        let _ = generate(&cfg, 0);
    }
}
