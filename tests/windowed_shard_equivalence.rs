//! Windowed shard-equivalence (tier-1): the windowed time series of an
//! S-shard replay is **bit-identical** to the single-threaded engine for
//! every shard count — per-disk event sequences are shard-invariant, so
//! the per-disk collectors are too, and the fleet rows are re-derived by
//! the same ascending-global-disk-order fold either way.
//!
//! Pinned here:
//!
//! 1. **Golden-trace windowed bit-identity** — the golden fixture with
//!    60 s windows at S ∈ {1, 2, 3, 8}: identical `WindowedReport`
//!    (rows *and* per-disk collectors), identical legacy aggregates.
//! 2. **Non-stationary windowed bit-identity** — a seeded diurnal and a
//!    seeded flash-crowd replay streamed through the demux at
//!    S ∈ {1, 2, 8}.
//! 3. **Dead-interval contract** — a trace with a silent middle renders
//!    its empty windows as explicit zeros, never NaN.
//! 4. **Faulted windowed equivalence** — per-window availability counters
//!    (shed/failed/retried) merge shard-invariantly and reconcile with
//!    the run-level availability block; fault-free runs keep
//!    `faulted = false` so the CSV schema stays pinned.
//! 5. **Conservation** — window completions sum to the run's response
//!    count and window energy sums to the run's total joules.

use std::io::BufReader;

use spindown::core::FaultChoice;
use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::metrics::{MetricsMode, SimReport};
use spindown::sim::windows::WindowedReport;
use spindown::workload::{FileCatalog, RateCurve, SyntheticSource, Trace};

const MB: u64 = 1_000_000;

fn catalog(n: usize) -> FileCatalog {
    let sizes: Vec<u64> = (0..n).map(|i| (1 + (i % 96) as u64) * MB).collect();
    FileCatalog::from_parts(sizes, vec![1.0 / n as f64; n])
}

fn assignment(files: usize, disks: usize) -> Assignment {
    let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
    for f in 0..files {
        bins[f % disks].items.push(f);
    }
    Assignment { disks: bins }
}

fn golden_fixture() -> (FileCatalog, Trace, Assignment) {
    let sizes = vec![72 * MB, 8 * MB, 300 * MB, 2 * MB, 100 * MB, 50 * MB];
    let catalog = FileCatalog::from_parts(sizes, vec![1.0 / 6.0; 6]);
    let layout = [0usize, 0, 1, 1, 2, 2];
    let mut bins: Vec<DiskBin> = (0..3).map(|_| DiskBin::default()).collect();
    for (file, &d) in layout.iter().enumerate() {
        bins[d].items.push(file);
    }
    let raw = std::fs::File::open("tests/fixtures/golden_trace.csv").expect("fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    (catalog, trace, Assignment { disks: bins })
}

fn windows_of(r: &SimReport) -> &WindowedReport {
    r.windows.as_ref().expect("windowed run carries the series")
}

#[test]
fn golden_windowed_series_is_bit_identical_across_shard_counts() {
    let (catalog, trace, layout) = golden_fixture();
    let base = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram)
        .with_windows(60.0);
    let solo = Simulator::run(&catalog, &trace, &layout, &base).unwrap();
    let w = windows_of(&solo);
    // 600 s horizon in 60 s windows, padded through the t_end instant.
    assert_eq!(w.rows.len(), 11);
    assert!(!w.faulted);
    for shards in [1usize, 2, 3, 8] {
        let cfg = base.clone().with_shards(shards);
        let sharded = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
        assert_eq!(
            windows_of(&solo),
            windows_of(&sharded),
            "windowed series diverged at S={shards}"
        );
        // The legacy aggregates stay bit-identical alongside.
        assert_eq!(solo.responses, sharded.responses, "S={shards}");
        assert_eq!(
            solo.energy.total_joules(),
            sharded.energy.total_joules(),
            "S={shards}"
        );
    }
}

#[test]
fn windows_off_leaves_the_report_field_absent() {
    let (catalog, trace, layout) = golden_fixture();
    let base = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram);
    for shards in [1usize, 4] {
        let cfg = base.clone().with_shards(shards);
        let report = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
        assert!(report.windows.is_none(), "windows must default off");
    }
}

#[test]
fn non_stationary_windowed_series_is_shard_invariant() {
    let cat = catalog(64);
    let layout = assignment(64, 16);
    let curves = [
        RateCurve::diurnal(2.0, 1.5, 200.0),
        RateCurve::FlashCrowd {
            base: 1.0,
            peak: 10.0,
            start_s: 150.0,
            ramp_s: 20.0,
            hold_s: 60.0,
            decay_s: 40.0,
        },
    ];
    for curve in curves {
        let base = SimConfig::paper_default()
            .with_metrics(MetricsMode::Histogram)
            .with_windows(30.0);
        let run = |shards: usize| {
            let source = SyntheticSource::non_stationary(&cat, curve.clone(), 600.0, 0xD1A);
            let cfg = base.clone().with_shards(shards);
            Simulator::run_from_source(&cat, source, &layout, &cfg, 16).unwrap()
        };
        let solo = run(1);
        let w = windows_of(&solo);
        assert!(
            w.rows.iter().map(|r| r.completions).sum::<u64>() > 0,
            "curve {} produced no arrivals",
            curve.label()
        );
        for shards in [2usize, 8] {
            let sharded = run(shards);
            assert_eq!(
                windows_of(&solo),
                windows_of(&sharded),
                "{} diverged at S={shards}",
                curve.label()
            );
        }
    }
}

// Satellite 1: a trace that goes silent mid-run must render its empty
// windows as explicit zeros (the `ResponseStats` empty contract) — never
// NaN — while the surrounding windows still carry their completions.
#[test]
fn dead_interval_windows_render_as_zeros_not_nan() {
    let cat = catalog(8);
    let layout = assignment(8, 4);
    // Bursts in [0, 50] and [250, 300]; windows 1..=3 of a 60 s grid see
    // no completions at all.
    let mut reqs = Vec::new();
    for i in 0..40u32 {
        reqs.push(spindown::workload::Request {
            time: f64::from(i) * 1.25,
            file: spindown::workload::FileId(i % 8),
        });
    }
    for i in 0..40u32 {
        reqs.push(spindown::workload::Request {
            time: 250.0 + f64::from(i) * 1.25,
            file: spindown::workload::FileId(i % 8),
        });
    }
    let trace = Trace::new(reqs, 300.0);
    let cfg = SimConfig::paper_default()
        .with_metrics(MetricsMode::Histogram)
        .with_windows(60.0);
    let report = Simulator::run(&cat, &trace, &layout, &cfg).unwrap();
    let w = windows_of(&report);
    assert_eq!(w.rows.len(), 6);
    assert!(w.rows[0].completions > 0, "first burst lands in window 0");
    let dead: Vec<_> = w.rows.iter().filter(|r| r.completions == 0).collect();
    assert!(!dead.is_empty(), "the silent middle must surface");
    for row in dead {
        assert_eq!(row.mean_s, 0.0, "empty window mean");
        assert_eq!(row.p95_s, 0.0, "empty window p95");
        assert_eq!(row.p99_s, 0.0, "empty window p99");
        assert!(row.energy_j.is_finite() && row.energy_j >= 0.0);
    }
    for row in &w.rows {
        assert!(row.mean_s.is_finite() && row.p95_s.is_finite() && row.p99_s.is_finite());
    }
}

// Satellite 2: per-window availability counters exist exactly when a
// fault plan is active, merge shard-invariantly, and reconcile with the
// run-level availability block.
#[test]
fn faulted_windowed_counters_are_shard_invariant_and_reconcile() {
    let cat = catalog(32);
    let tr = Trace::poisson(&cat, 2.0, 500.0, 0xFA17);
    let layout = assignment(32, 8);
    let mut base = SimConfig::paper_default()
        .with_metrics(MetricsMode::Histogram)
        .with_windows(50.0);
    base.faults = FaultChoice::parse("transient:p=0.02 | wakefail:p=0.1")
        .expect("fault spec parses")
        .plan();
    let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
    let w = windows_of(&solo);
    assert!(w.faulted, "an active plan must flag the series");
    let avail = solo.availability.as_ref().expect("faulted run");
    let retried: u64 = w.rows.iter().map(|r| r.retried).sum();
    let failed: u64 = w.rows.iter().map(|r| r.failed).sum();
    let shed: u64 = w.rows.iter().map(|r| r.shed).sum();
    let completed: u64 = w.rows.iter().map(|r| r.completions).sum();
    assert_eq!(retried, avail.retried, "windowed retries vs run total");
    assert_eq!(failed, avail.failed, "windowed failures vs run total");
    assert_eq!(shed, avail.shed, "windowed sheds vs run total");
    assert_eq!(completed, avail.completed, "windowed completions");
    assert!(retried > 0, "2% flake over ~1000 requests must retry");
    for shards in [2usize, 8] {
        let cfg = base.clone().with_shards(shards);
        let sharded = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
        assert_eq!(
            windows_of(&solo),
            windows_of(&sharded),
            "faulted series diverged at S={shards}"
        );
    }
}

// Conservation: the windowed series partitions the run — completions sum
// to the response count and energy sums to the per-state total.
#[test]
fn windowed_series_sums_to_the_run_totals() {
    let (catalog, trace, layout) = golden_fixture();
    let cfg = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram)
        .with_windows(60.0);
    let report = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
    let w = windows_of(&report);
    let completions: u64 = w.rows.iter().map(|r| r.completions).sum();
    assert_eq!(completions as usize, report.responses.len());
    let energy: f64 = w.rows.iter().map(|r| r.energy_j).sum();
    let total = report.energy.total_joules();
    assert!(
        (energy - total).abs() <= 1e-9 * total,
        "windowed energy {energy} J vs run total {total} J"
    );
}
