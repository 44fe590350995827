//! Golden windowed-series fixture (tier-1): the fleet window rows of four
//! small replays, rendered with shortest round-trip floats, are pinned
//! byte for byte in `tests/fixtures/golden_windows_expected.csv`.
//!
//! The cases cover both metrics modes, the fault counters and a
//! non-stationary stream:
//!
//! - `golden_hist` / `golden_exact` — the golden trace (see
//!   `golden_trace.rs`) in 60 s windows, histogram and exact metrics;
//! - `faulted` — a seeded Poisson stream under transient errors and wake
//!   failures in 50 s windows (shed/failed/retried columns populated);
//! - `diurnal` — a seeded `SyntheticSource::non_stationary` diurnal
//!   stream in 30 s windows.
//!
//! Every case also runs at two shards and must render the same bytes.
//!
//! ## Updating the fixture (deliberate semantics changes only)
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_windows
//! git diff tests/fixtures/golden_windows_expected.csv   # review, then commit
//! ```

use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;

use spindown::core::FaultChoice;
use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::metrics::{MetricsMode, SimReport};
use spindown::workload::{FileCatalog, RateCurve, SyntheticSource, Trace};

const MB: u64 = 1_000_000;
const EXPECTED: &str = "tests/fixtures/golden_windows_expected.csv";

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

fn catalog(n: usize) -> FileCatalog {
    let sizes: Vec<u64> = (0..n).map(|i| (1 + (i % 96) as u64) * MB).collect();
    FileCatalog::from_parts(sizes, vec![1.0 / n as f64; n])
}

fn round_robin(files: usize, disks: usize) -> Assignment {
    let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
    for f in 0..files {
        bins[f % disks].items.push(f);
    }
    Assignment { disks: bins }
}

/// Append one case's window rows; `{}` prints the shortest string that
/// parses back to the same f64, so equal text means equal bits.
fn render_case(out: &mut String, case: &str, report: &SimReport) {
    let w = report
        .windows
        .as_ref()
        .expect("windowed run carries the series");
    for r in &w.rows {
        writeln!(
            out,
            "{case},{},{},{},{},{},{},{},{},{},{},{}",
            r.start_s,
            r.end_s,
            r.completions,
            r.mean_s,
            r.p95_s,
            r.p99_s,
            r.energy_j,
            r.peak_queue,
            r.shed,
            r.failed,
            r.retried
        )
        .unwrap();
    }
}

/// Render every case at `shards` shards.
fn render(shards: usize) -> String {
    let mut out = String::from(
        "case,start_s,end_s,completions,mean_s,p95_s,p99_s,energy_j,peak_queue,shed,failed,retried\n",
    );
    let (cat, trace, layout) = golden_fixture();
    for (case, mode) in [
        ("golden_hist", MetricsMode::Histogram),
        ("golden_exact", MetricsMode::Exact),
    ] {
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Fixed(20.0))
            .with_metrics(mode)
            .with_windows(60.0)
            .with_shards(shards);
        let report = Simulator::run(&cat, &trace, &layout, &cfg).expect("golden replay");
        render_case(&mut out, case, &report);
    }

    let cat = catalog(32);
    let trace = Trace::poisson(&cat, 2.0, 500.0, 0xFA17);
    let layout = round_robin(32, 8);
    let mut cfg = SimConfig::paper_default()
        .with_metrics(MetricsMode::Histogram)
        .with_windows(50.0)
        .with_shards(shards);
    cfg.faults = FaultChoice::parse("transient:p=0.02 | wakefail:p=0.1")
        .expect("fault spec parses")
        .plan();
    let report = Simulator::run(&cat, &trace, &layout, &cfg).expect("faulted replay");
    render_case(&mut out, "faulted", &report);

    let cat = catalog(64);
    let layout = round_robin(64, 16);
    let source =
        SyntheticSource::non_stationary(&cat, RateCurve::diurnal(2.0, 1.5, 200.0), 600.0, 0xD1A);
    let cfg = SimConfig::paper_default()
        .with_metrics(MetricsMode::Histogram)
        .with_windows(30.0)
        .with_shards(shards);
    let report =
        Simulator::run_from_source(&cat, source, &layout, &cfg, 16).expect("diurnal replay");
    render_case(&mut out, "diurnal", &report);
    out
}

#[test]
fn window_rows_match_the_golden_fixture_byte_for_byte() {
    let actual = render(1);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(Path::new(EXPECTED), &actual).expect("fixture writable");
        panic!(
            "golden windows fixture rewritten from the current engine; review the \
             diff, commit it, and rerun without UPDATE_GOLDEN"
        );
    }
    let expected = std::fs::read_to_string(EXPECTED).expect("golden windows fixture present");
    assert_eq!(
        actual, expected,
        "window rows diverged from the golden fixture; regenerate only for a \
         deliberate semantics change (UPDATE_GOLDEN=1 cargo test --test golden_windows)"
    );
    assert_eq!(render(2), expected, "two shards render different rows");
}
