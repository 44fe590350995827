//! Paper-constant invariants: every number the paper states that our model
//! *derives* (rather than hard-codes) must fall out correctly. These tests
//! are the wiring check between Table 1/Table 2 and the implementation.

use spindown::disk::{break_even_threshold, transition_energy_overhead, DiskSpec};
use spindown::workload::bins::SizeBins;
use spindown::workload::nersc::{calibrate_bin_exponent, NerscConfig};
use spindown::workload::sizes::RankSizeModel;
use spindown::workload::zipf::ZipfDistribution;
use spindown::workload::{paper_popularity_exponent, paper_theta, FileCatalog};

#[test]
fn table2_derives_the_53_3s_idleness_threshold() {
    // (10 s × 9.3 W + 15 s × 24 W) / (9.3 W − 0.8 W) = 453 / 8.5 = 53.3 s
    let spec = DiskSpec::seagate_st3500630as();
    assert!((transition_energy_overhead(&spec) - 453.0).abs() < 1e-9);
    assert!((break_even_threshold(&spec) - 53.2941).abs() < 1e-3);
}

#[test]
fn table1_theta_and_exponent() {
    assert!((paper_theta() - 0.557_46).abs() < 1e-4);
    assert!((paper_popularity_exponent() - 0.442_54).abs() < 1e-4);
}

#[test]
fn table1_size_law_hits_all_three_published_numbers() {
    let model = RankSizeModel::paper_table1(40_000);
    // max 20 GB
    assert_eq!(model.size_of_rank(1), 20_000_000_000);
    // min ≈ 188 MB
    let min = model.size_of_rank(40_000) as f64;
    assert!((min - 188.0e6).abs() < 2.0e6, "min {min}");
    // total ≈ 12.86 TB (the pure power law gives ~13.4 TB; same ballpark)
    let total = model.total_bytes() as f64 / 1e12;
    assert!((12.0..15.0).contains(&total), "total {total} TB");
}

#[test]
fn nersc_paper_statistics_reproduced() {
    let cfg = NerscConfig::paper();
    // 0.044683/s × 30 days ≈ 115 818 ≈ 115 832 requests: self-consistent.
    assert!((cfg.arrival_rate() - 0.044683).abs() < 1e-4);
    // mean-size calibration: expectation equals 544 MB.
    let a = calibrate_bin_exponent(&cfg);
    let bins = SizeBins::new(cfg.size_bins, cfg.min_size_bytes, cfg.max_size_bytes);
    let z = ZipfDistribution::new(cfg.size_bins, a);
    let mean: f64 = (0..cfg.size_bins)
        .map(|i| z.pmf(i + 1) * bins.midpoint(i))
        .sum();
    assert!((mean / 1e6 - 544.0).abs() < 0.5, "calibrated mean {mean}");
}

/// Least-squares fit of `ln y` against `ln x`: `(slope, r²)`.
fn log_log_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let logged: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logged.len() as f64;
    let sx: f64 = logged.iter().map(|p| p.0).sum();
    let sy: f64 = logged.iter().map(|p| p.1).sum();
    let sxx: f64 = logged.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logged.iter().map(|p| p.0 * p.1).sum();
    let syy: f64 = logged.iter().map(|p| p.1 * p.1).sum();
    let cov = n * sxy - sx * sy;
    let var_x = n * sxx - sx * sx;
    (cov / var_x, cov * cov / (var_x * (n * syy - sy * sy)))
}

#[test]
fn catalog_size_distribution_is_power_law_in_the_tail() {
    // The §5.1 log-log linearity, applied to the Table 1 catalog: file size
    // versus size-rank follows a clean power law by construction.
    let catalog = FileCatalog::paper_table1(10_000, 0);
    let mut sizes: Vec<u64> = catalog.iter().map(|f| f.size_bytes).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let pts: Vec<(f64, f64)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| ((i + 1) as f64, s as f64))
        .collect();
    let (slope, r2) = log_log_fit(&pts);
    assert!(slope < -0.3, "slope {slope}");
    assert!(r2 > 0.99, "r2 {r2}");
}

#[test]
fn zipf_head_concentration_enables_the_two_group_story() {
    // §1's motivating split: a small popular group carries an outsized
    // share of accesses. For the Table 1 law (exponent ≈ 0.44, a mild
    // Zipf), the most popular 10% of 40 000 files carry ≈ 27.6% of
    // accesses — 2.8× their uniform share.
    let z = ZipfDistribution::paper_popularity(40_000);
    let head: f64 = (1..=4_000).map(|r| z.pmf(r)).sum();
    assert!(head > 0.25, "head share {head}");
    // ... while carrying under 10% of the bytes (they are the small files).
    let catalog = FileCatalog::paper_table1(40_000, 0);
    let head_bytes: u64 = catalog.files()[..4_000].iter().map(|f| f.size_bytes).sum();
    let frac = head_bytes as f64 / catalog.total_bytes() as f64;
    assert!(frac < 0.10, "head byte share {frac}");
}

#[test]
fn service_time_of_mean_nersc_file_is_7_56s() {
    use spindown::disk::mechanics::ServiceTimer;
    let timer = ServiceTimer::new(&DiskSpec::seagate_st3500630as());
    let t = timer.transfer_time(544_000_000);
    assert!((t - 7.5555).abs() < 0.01, "{t}");
}
