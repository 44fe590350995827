//! The benchmark measures the shipped `experiments replay` path, not a fork
//! of it: on a small instance of each workload, the benchmark's summary row
//! (and window rows and completion log) equal what `replay::replay` makes of
//! the same input. Benchmark seed 0 is the stream `replay` generates.

use std::path::{Path, PathBuf};
use std::time::Instant;

use perfbench::{
    replay_timed, summary_columns, summary_row, window_rows, write_csv_trace, Workload,
};
use spindown_core::LadderChoice;
use spindown_experiments::replay::replay;
use spindown_experiments::{Figure, Scale};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The benchmark pipeline's run of `workload` over `horizon` simulated seconds.
fn bench_replay(
    workload: Workload,
    horizon: f64,
    csv: &Path,
    log: &Path,
) -> spindown_sim::SimReport {
    let spec = workload.spec(log);
    let input = workload.input(0, horizon, csv);
    replay_timed(&spec, &input, Instant::now())
        .expect("benchmark replay runs")
        .report
}

fn assert_same_row(fig: &Figure, report: &spindown_sim::SimReport) {
    assert_eq!(fig.columns, summary_columns(report));
    assert_eq!(fig.rows, vec![summary_row(report)]);
}

#[test]
fn poisson_s1_matches_replay() {
    let report = bench_replay(
        Workload::PoissonS1,
        2000.0,
        &scratch("unused.csv"),
        &scratch("unused.log"),
    );
    let figs = replay(
        Scale::Quick,
        None,
        Some(2000.0),
        0,
        LadderChoice::TwoState,
        1,
        Workload::PoissonS1.spec(&scratch("unused.log")).cache,
        spindown_core::FaultChoice::None,
        None,
        None,
        None,
    )
    .expect("replay runs");
    assert_eq!(figs.len(), 1);
    assert!(report.responses.len() > 1000);
    assert_same_row(&figs[0], &report);
}

#[test]
fn csv_log_s2_matches_replay_row_and_log() {
    let csv = scratch("csv_log_s2.csv");
    write_csv_trace(0, 1000.0, &csv).expect("trace written");
    let (bench_log, replay_log) = (scratch("bench.log"), scratch("replay.log"));
    let report = bench_replay(Workload::CsvLogS2, 1000.0, &csv, &bench_log);
    let figs = replay(
        Scale::Quick,
        Some(&csv),
        None,
        0,
        LadderChoice::TwoState,
        2,
        spindown_core::CacheChoice::None,
        spindown_core::FaultChoice::None,
        Some(&replay_log),
        None,
        None,
    )
    .expect("replay runs");
    assert_same_row(&figs[0], &report);
    let (a, b) = (
        std::fs::read(&bench_log).expect("benchmark log"),
        std::fs::read(&replay_log).expect("replay log"),
    );
    assert!(!a.is_empty());
    assert!(a == b, "completion logs differ");
    for f in [&csv, &bench_log, &replay_log] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn diurnal_cached_windowed_matches_replay_rows_and_windows() {
    let log = scratch("unused.log");
    let spec = Workload::DiurnalCachedWindowed.spec(&log);
    let report = bench_replay(
        Workload::DiurnalCachedWindowed,
        7200.0,
        &scratch("unused.csv"),
        &log,
    );
    let figs = replay(
        Scale::Quick,
        None,
        Some(7200.0),
        0,
        LadderChoice::TwoState,
        1,
        spec.cache,
        spec.faults.clone(),
        None,
        spec.window,
        Some(&Workload::diurnal_curve()),
    )
    .expect("replay runs");
    assert_same_row(&figs[0], &report);
    let ours = window_rows(&report);
    assert!(ours.len() >= 2, "two hours in 3600 s windows");
    let theirs: Vec<Vec<f64>> = figs[1].rows.iter().map(|r| r[..8].to_vec()).collect();
    assert_eq!(ours, theirs);
    assert!(report.availability.is_some() && report.cache.is_some());
}
