//! Streamed trace replay: drive the full paper pipeline (Table 1 catalog →
//! planner allocation → simulation) from a [`TraceSource`] instead of a
//! materialised trace — the `experiments replay` command.
//!
//! Two sources:
//!
//! - `--trace-file FILE` streams a `time_s,file_id` CSV through a buffered
//!   reader (O(1) memory however large the file; the horizon is pre-scanned
//!   unless `--horizon` is given, in which case it is a hard bound and
//!   rows beyond it error out).
//! - `--workload SPEC` generates non-stationary arrivals from a
//!   [`RateCurve`] (diurnal cycle, flash crowd, tenant ramps) by
//!   Lewis–Shedler thinning, again without materialising them.
//! - otherwise a seeded synthetic Poisson generator produces `--requests N`
//!   expected arrivals without ever materialising them.
//!
//! `--window SECS` adds a second figure, `replay_windows`: the tumbling
//! windowed time series (completions, mean/p95/p99 response, energy, peak
//! backlog per window — plus availability counters when a fault regime is
//! active), bit-identical at any `--shards` count.
//!
//! Responses aggregate into the streaming histogram, so resident memory is
//! O(disks + histogram buckets) end to end regardless of the request count
//! — the configuration that makes multi-billion-request replays feasible.

use std::path::Path;

use spindown_core::{
    CacheChoice, FaultChoice, LadderChoice, MetricsMode, Planner, PlannerConfig, RateCurve,
};
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::SimReport;
use spindown_sim::windows::WindowedReport;
use spindown_sim::CompletionLogMode;
use spindown_workload::{CsvTraceSource, FileCatalog, SyntheticSource, TraceSource};

use crate::{grid_seed, Figure, Scale};

/// Arrival rate of the synthetic generator (requests per second) — the
/// paper's R = 4 planning point, which is also the rate the allocation is
/// planned for. (Table 1 files run to hundreds of MB, so rates far above
/// the planning point just measure an ever-growing backlog.)
const SYNTHETIC_RATE: f64 = 4.0;

/// Run the replay and summarise it as a one-row [`Figure`] (plus, with
/// `window`, the `replay_windows` time-series figure).
///
/// `trace_file == None` replays `requests` expected synthetic arrivals;
/// `Some(path)` streams the CSV at `path` (with `horizon` overriding the
/// pre-scan pass). `workload` swaps the synthetic generator for a
/// non-stationary [`RateCurve`] sampled by thinning (conflicts with
/// `trace_file` — the curve would be ignored, so the pair is an error
/// naming both flags). `ladder` selects the fleet's power-state ladder
/// (two-state reproduces the pre-ladder engine bit-identically), `shards`
/// the number of parallel replay shards (1 = the single-threaded engine;
/// any count reports bit-identical histogram metrics and energy), and
/// `cache` an optional cache hierarchy fronting the fleet
/// ([`CacheChoice::None`] replays cache-free), `faults` a fault
/// regime to replay under ([`FaultChoice::None`] keeps the legacy
/// fault-free path and columns bit-identical), and `completion_log` an
/// optional CSV path the per-request completion records stream to in
/// canonical `(time, request)` order — O(buffer) resident, bit-identical
/// at every shard count. `window` enables tumbling windowed metrics of
/// that width in seconds and appends the `replay_windows` figure — one
/// row per window, bit-identical at any shard count (`None` keeps the
/// legacy single-figure output byte-for-byte).
///
/// Caches and the completion log compose with `shards > 1` (the global
/// cache partitions its budget by file residency; per-shard logs k-way
/// merge), and so do windows (each closed window folds in global disk
/// order).
#[allow(clippy::too_many_arguments)]
pub fn replay(
    scale: Scale,
    trace_file: Option<&Path>,
    horizon: Option<f64>,
    requests: u64,
    ladder: LadderChoice,
    shards: usize,
    cache: CacheChoice,
    faults: FaultChoice,
    completion_log: Option<&Path>,
    window: Option<f64>,
    workload: Option<&RateCurve>,
) -> Result<Vec<Figure>, Box<dyn std::error::Error>> {
    if trace_file.is_some() && workload.is_some() {
        return Err(
            "--workload is unsupported with --trace-file: the trace fixes every arrival, \
             so the curve would be silently ignored; drop one of the two flags"
                .into(),
        );
    }
    if let Some(w) = window {
        if !(w.is_finite() && w > 0.0) {
            return Err(
                format!("--window needs a finite positive number of seconds, got {w}").into(),
            );
        }
    }
    let catalog = FileCatalog::paper_table1(scale.n_files(), 0);
    let mut cfg = PlannerConfig::default();
    cfg.sim = cfg
        .sim
        .with_metrics(MetricsMode::Histogram)
        .with_shards(shards)
        .with_cache_hierarchy(cache.hierarchy());
    if let Some(w) = window {
        cfg.sim = cfg.sim.with_windows(w);
    }
    if let Some(path) = completion_log {
        cfg.sim = cfg.sim.with_completion_log_mode(CompletionLogMode::Csv {
            path: path.display().to_string(),
        });
    }
    cfg.sim.faults = faults.plan();
    ladder.apply(&mut cfg.sim.disk);
    let planner = Planner::new(cfg);
    let plan_rate = workload.map_or(SYNTHETIC_RATE, RateCurve::mean_rate_hint);
    let plan = planner.plan(&catalog, plan_rate)?;
    let fleet = scale.fleet().max(plan.disks_used());

    let (report, source_note) = match (trace_file, workload) {
        (Some(path), _) => {
            let source = CsvTraceSource::open(path, horizon)?;
            let report = run(&planner, &catalog, source, &plan.assignment, fleet)?;
            (report, format!("source: csv {}", path.display()))
        }
        (None, Some(curve)) => {
            let horizon = horizon.unwrap_or(requests as f64 / curve.mean_rate_hint());
            let seed = grid_seed(92, 0, 0);
            let source = SyntheticSource::non_stationary(&catalog, curve.clone(), horizon, seed);
            let report = run(&planner, &catalog, source, &plan.assignment, fleet)?;
            (
                report,
                format!("source: synthetic {} seed={seed:#x}", curve.label()),
            )
        }
        (None, None) => {
            let horizon = horizon.unwrap_or(requests as f64 / SYNTHETIC_RATE);
            let seed = grid_seed(92, 0, 0);
            let source = SyntheticSource::poisson(&catalog, SYNTHETIC_RATE, horizon, seed);
            let report = run(&planner, &catalog, source, &plan.assignment, fleet)?;
            (
                report,
                format!("source: synthetic poisson R={SYNTHETIC_RATE}/s seed={seed:#x}"),
            )
        }
    };

    // The legacy (fault-free) CSV schema is pinned; availability columns
    // exist only when a fault regime is active.
    let mut columns: Vec<String> = vec![
        "requests".into(),
        "resp_s".into(),
        "resp_p95_s".into(),
        "resp_p99_s".into(),
        "energy_j".into(),
        "peak_event_queue".into(),
    ];
    if report.availability.is_some() {
        for col in [
            "completed",
            "retried",
            "shed",
            "failed",
            "availability",
            "degraded_p95_s",
        ] {
            columns.push(col.into());
        }
    }
    let mut fig = Figure::new(
        "replay",
        "Streamed trace replay (histogram metrics: O(disks + buckets) resident)",
        columns,
    );
    let quantiles = report.response_quantiles(&[0.95, 0.99]);
    let mut row = vec![
        report.responses.len() as f64,
        report.responses.mean(),
        quantiles[0],
        quantiles[1],
        report.energy.total_joules(),
        report.peak_event_queue_max() as f64,
    ];
    if let Some(a) = report.availability.as_ref() {
        row.extend([
            a.completed as f64,
            a.retried as f64,
            a.shed as f64,
            a.failed as f64,
            a.availability,
            a.degraded_p95(),
        ]);
    }
    fig.push_row(row);
    fig.notes.push(source_note);
    fig.notes.push(format!(
        "fleet {fleet} disks, Pack_Disks allocation, break-even threshold, \
         {} ladder, {} shard(s); p95/p99 within relative error {:.4} \
         (streaming histogram)",
        ladder.label(),
        shards.max(1),
        report.responses.quantile_error_bound()
    ));
    if let Some(a) = report.availability.as_ref() {
        fig.notes.push(format!(
            "faults {}: {} wake failure(s), {} crash(es), {:.1} s total downtime",
            faults.label(),
            a.wake_failures,
            a.crashes,
            a.total_downtime_s(),
        ));
    }
    if cache != CacheChoice::None {
        let stats = report.cache.unwrap_or_default();
        fig.notes.push(format!(
            "cache {}: {} hits / {} misses (hit ratio {:.4}), {} oversize rejection(s)",
            cache.label(),
            stats.hits,
            stats.misses,
            stats.hit_ratio(),
            stats.oversize_rejections,
        ));
    }
    if let (Some(path), Some(log)) = (completion_log, report.completion_log.as_ref()) {
        fig.notes.push(format!(
            "completion log {}: {} record(s), {} bytes, fnv1a {:#018x}",
            path.display(),
            log.records,
            log.bytes,
            log.fnv1a,
        ));
    }
    let mut figures = vec![fig];
    if let Some(w) = report.windows.as_ref() {
        figures.push(windows_figure(w));
    }
    Ok(figures)
}

/// Render a [`WindowedReport`] as the `replay_windows` figure: one row
/// per tumbling window. The availability columns (completed/shed/failed/
/// retried) appear only when a fault regime was active, mirroring the
/// run-level figure's pinned fault-free schema; empty windows render as
/// explicit zeros (the `ResponseStats` empty contract), never NaN.
fn windows_figure(w: &WindowedReport) -> Figure {
    let mut columns: Vec<String> = vec![
        "window_start_s".into(),
        "window_end_s".into(),
        "completions".into(),
        "resp_mean_s".into(),
        "resp_p95_s".into(),
        "resp_p99_s".into(),
        "energy_j".into(),
        "peak_backlog".into(),
    ];
    if w.faulted {
        for col in ["completed", "shed", "failed", "retried"] {
            columns.push(col.into());
        }
    }
    let mut fig = Figure::new(
        "replay_windows",
        "Windowed replay time series (tumbling windows, shard-invariant)",
        columns,
    );
    for row in &w.rows {
        let mut vals = vec![
            row.start_s,
            row.end_s,
            row.completions as f64,
            row.mean_s,
            row.p95_s,
            row.p99_s,
            row.energy_j,
            row.peak_queue as f64,
        ];
        if w.faulted {
            vals.extend([
                row.completions as f64,
                row.shed as f64,
                row.failed as f64,
                row.retried as f64,
            ]);
        }
        fig.push_row(vals);
    }
    fig.notes.push(format!(
        "{} windows of {} s; each closed window folds in ascending global \
         disk order, so the series is bit-identical at any shard count",
        w.rows.len(),
        w.width_s,
    ));
    fig
}

fn run<S: TraceSource + Send>(
    planner: &Planner,
    catalog: &FileCatalog,
    source: S,
    assignment: &spindown_packing::Assignment,
    fleet: usize,
) -> Result<SimReport, Box<dyn std::error::Error>> {
    Ok(Simulator::run_from_source(
        catalog,
        source,
        assignment,
        &planner.config().sim,
        fleet,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_workload::Trace;

    #[test]
    fn synthetic_replay_summarises_the_streamed_run() {
        let fig = replay(
            Scale::Quick,
            None,
            Some(500.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .expect("replay runs")
        .remove(0);
        assert_eq!(fig.rows.len(), 1);
        let requests = fig.rows[0][0];
        assert!(requests > 1_000.0, "4/s for 500 s: got {requests}");
        let peak = fig.rows[0][fig.column("peak_event_queue").unwrap()];
        assert!(
            peak <= 8.0 * Scale::Quick.fleet() as f64,
            "streamed replay must keep the heap fleet-bound, got {peak}"
        );
        assert!(fig.notes.iter().any(|n| n.contains("synthetic poisson")));
    }

    #[test]
    fn csv_replay_matches_the_equivalent_in_memory_summary() {
        let catalog = FileCatalog::paper_table1(Scale::Quick.n_files(), 0);
        let trace = Trace::poisson(&catalog, 5.0, 60.0, 77);
        let dir = std::env::temp_dir().join("spindown_replay_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let fig = replay(
            Scale::Quick,
            Some(&path),
            Some(60.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .expect("csv replay runs")
        .remove(0);
        assert_eq!(fig.rows[0][0] as usize, trace.len());
        assert!(fig.notes.iter().any(|n| n.contains("csv")));
        // Horizon pre-scan path agrees on the request count.
        let fig2 = replay(
            Scale::Quick,
            Some(&path),
            None,
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .expect("pre-scan replay runs")
        .remove(0);
        assert_eq!(fig2.rows[0][0] as usize, trace.len());
    }

    #[test]
    fn cached_replay_reports_tier_traffic_and_serves_faster() {
        let cache = CacheChoice::parse("lru:16").unwrap();
        let cached = replay(
            Scale::Quick,
            None,
            Some(500.0),
            0,
            LadderChoice::TwoState,
            1,
            cache,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .expect("cached replay runs")
        .remove(0);
        let bare = replay(
            Scale::Quick,
            None,
            Some(500.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .expect("bare replay runs")
        .remove(0);
        // Same seeded trace either way; the 16 GB front absorbs reuse.
        assert_eq!(cached.rows[0][0], bare.rows[0][0]);
        let mean = cached.rows[0][cached.column("resp_s").unwrap()];
        let bare_mean = bare.rows[0][bare.column("resp_s").unwrap()];
        assert!(
            mean < bare_mean,
            "cache hits must lower the mean: {mean} vs {bare_mean}"
        );
        assert!(cached.notes.iter().any(|n| n.contains("cache lru:16")));
        assert!(bare.notes.iter().all(|n| !n.contains("cache ")));
    }

    #[test]
    fn fault_free_replay_keeps_the_legacy_columns() {
        let fig = replay(
            Scale::Quick,
            None,
            Some(200.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .expect("replay runs")
        .remove(0);
        assert!(fig.column("availability").is_none());
        assert!(fig.column("degraded_p95_s").is_none());
        assert!(fig.notes.iter().all(|n| !n.starts_with("faults ")));
    }

    #[test]
    fn faulted_replay_reports_availability_and_is_deterministic() {
        let faults = FaultChoice::parse("transient:p=0.01 | wakefail:p=0.1").unwrap();
        let run = || {
            replay(
                Scale::Quick,
                None,
                Some(500.0),
                0,
                LadderChoice::TwoState,
                1,
                CacheChoice::None,
                faults.clone(),
                None,
                None,
                None,
            )
            .expect("faulted replay runs")
            .remove(0)
        };
        let fig = run();
        let avail = fig.rows[0][fig.column("availability").unwrap()];
        assert!((0.0..=1.0).contains(&avail), "availability {avail}");
        let retried = fig.rows[0][fig.column("retried").unwrap()];
        assert!(retried > 0.0, "1% flake over ~2000 requests must retry");
        assert!(fig.notes.iter().any(|n| n.starts_with("faults ")));
        // The seeded fault draws make the whole replay reproducible.
        assert_eq!(fig.rows, run().rows);
    }

    #[test]
    fn sharded_replay_under_faults_stays_deterministic() {
        let faults = FaultChoice::parse("transient:p=0.01 | wakefail:p=0.1").unwrap();
        let run = |shards| {
            replay(
                Scale::Quick,
                None,
                Some(500.0),
                0,
                LadderChoice::TwoState,
                shards,
                CacheChoice::None,
                faults.clone(),
                None,
                None,
                None,
            )
            .expect("faulted replay runs")
            .remove(0)
        };
        // Per-disk fault streams are keyed by global disk id, so the
        // merged sharded report is bit-identical to the solo run — except
        // peak_event_queue, which reports each event loop's own heap peak.
        let (solo, sharded) = (run(1), run(4));
        let peak = solo.column("peak_event_queue").unwrap();
        let strip = |fig: &super::Figure| {
            let mut row = fig.rows[0].clone();
            row.remove(peak);
            row
        };
        assert_eq!(strip(&solo), strip(&sharded));
    }

    // A global cache composes with explicit shards — same rows as the
    // solo cached run (modulo the per-event-loop peak column) and the
    // same cache note. The trace
    // touches only the two hottest (smallest) files, so the working set
    // fits every budget slice and the partitioned cache is byte-equivalent
    // to the pooled one (the regime the sharded global cache guarantees —
    // see `spindown_sim::hierarchy` on eviction pressure).
    #[test]
    fn sharded_replay_with_a_global_cache_matches_the_solo_run() {
        let dir = std::env::temp_dir().join("spindown_replay_cached_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hot_trace.csv");
        let mut rows = String::new();
        for i in 0..2000u32 {
            use std::fmt::Write as _;
            writeln!(rows, "{:.2},{}", f64::from(i) * 0.25, i % 2).unwrap();
        }
        std::fs::write(&path, rows).unwrap();
        let run = |shards| {
            replay(
                Scale::Quick,
                Some(&path),
                Some(500.0),
                0,
                LadderChoice::TwoState,
                shards,
                CacheChoice::parse("lru:2+lru:16").unwrap(),
                FaultChoice::None,
                None,
                None,
                None,
            )
            .expect("cached sharded replay runs")
            .remove(0)
        };
        let (solo, sharded) = (run(1), run(4));
        let peak = solo.column("peak_event_queue").unwrap();
        let strip = |fig: &super::Figure| {
            let mut row = fig.rows[0].clone();
            row.remove(peak);
            row
        };
        assert_eq!(strip(&solo), strip(&sharded));
        let cache_note = |fig: &super::Figure| {
            fig.notes
                .iter()
                .find(|n| n.starts_with("cache "))
                .cloned()
                .expect("cache note present")
        };
        assert_eq!(cache_note(&solo), cache_note(&sharded));
    }

    // The streamed completion log composes too: same digest note (records,
    // bytes, FNV-1a) at any shard count, and the CSV on disk is
    // byte-identical.
    #[test]
    fn sharded_completion_log_csv_is_byte_identical_to_solo() {
        let dir = std::env::temp_dir().join("spindown_replay_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |shards: usize, name: &str| {
            let path = dir.join(name);
            let fig = replay(
                Scale::Quick,
                None,
                Some(200.0),
                0,
                LadderChoice::TwoState,
                shards,
                CacheChoice::None,
                FaultChoice::None,
                Some(&path),
                None,
                None,
            )
            .expect("logged replay runs")
            .remove(0);
            (fig, std::fs::read(&path).expect("log written"))
        };
        let (solo_fig, solo_log) = run(1, "solo.csv");
        let (sharded_fig, sharded_log) = run(4, "sharded.csv");
        assert!(!solo_log.is_empty());
        assert_eq!(solo_log, sharded_log, "log bytes diverged");
        let log_note = |fig: &Figure| {
            fig.notes
                .iter()
                .find(|n| n.starts_with("completion log "))
                .cloned()
                .expect("log note present")
        };
        // The notes embed the paths; compare the record/byte/digest tail.
        let tail = |note: String| note.split(": ").last().unwrap().to_owned();
        assert_eq!(tail(log_note(&solo_fig)), tail(log_note(&sharded_fig)));
    }

    #[test]
    fn windowed_replay_appends_a_series_that_sums_to_the_run_totals() {
        let figs = replay(
            Scale::Quick,
            None,
            Some(500.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            Some(60.0),
            None,
        )
        .expect("windowed replay runs");
        assert_eq!(figs.len(), 2);
        let (fig, windows) = (&figs[0], &figs[1]);
        assert_eq!(windows.id, "replay_windows");
        // 500 s horizon in 60 s windows: events land in windows 0..=8, and
        // the t_end pad guarantees window 8 exists on every shard.
        assert_eq!(windows.rows.len(), 9);
        let col = |name: &str| windows.column(name).unwrap();
        let total: f64 = windows.rows.iter().map(|r| r[col("completions")]).sum();
        assert_eq!(total, fig.rows[0][0], "window completions sum to the run");
        let energy: f64 = windows.rows.iter().map(|r| r[col("energy_j")]).sum();
        let run_energy = fig.rows[0][fig.column("energy_j").unwrap()];
        assert!(
            (energy - run_energy).abs() <= 1e-6 * run_energy,
            "window energy {energy} J must sum to the run total {run_energy} J"
        );
        // Fault-free windowed schema has no availability columns.
        assert!(windows.column("shed").is_none());
        assert!(
            windows.rows.iter().flatten().all(|v| v.is_finite()),
            "empty windows must render as zeros, never NaN"
        );
    }

    #[test]
    fn windowless_replay_keeps_the_single_legacy_figure() {
        let figs = replay(
            Scale::Quick,
            None,
            Some(200.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .expect("replay runs");
        assert_eq!(figs.len(), 1, "windows off must not grow the output");
    }

    #[test]
    fn faulted_windowed_replay_adds_availability_columns() {
        let faults = FaultChoice::parse("transient:p=0.01 | wakefail:p=0.1").unwrap();
        let figs = replay(
            Scale::Quick,
            None,
            Some(500.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            faults,
            None,
            Some(60.0),
            None,
        )
        .expect("faulted windowed replay runs");
        let windows = &figs[1];
        for col in ["completed", "shed", "failed", "retried"] {
            assert!(windows.column(col).is_some(), "missing {col}");
        }
        let retried = windows.column("retried").unwrap();
        let total: f64 = windows.rows.iter().map(|r| r[retried]).sum();
        assert!(total > 0.0, "1% flake over ~2000 requests must retry");
    }

    #[test]
    fn non_stationary_replay_notes_the_curve_and_moves_the_windows() {
        let curve = RateCurve::diurnal(4.0, 3.0, 250.0);
        let figs = replay(
            Scale::Quick,
            None,
            Some(500.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            Some(125.0),
            Some(&curve),
        )
        .expect("non-stationary replay runs");
        assert!(figs[0].notes.iter().any(|n| n.contains("diurnal")));
        // Two diurnal periods in four 125 s windows: the sine's positive
        // lobes (windows 0 and 2) must out-complete the negative lobes.
        let windows = &figs[1];
        let col = windows.column("completions").unwrap();
        let c: Vec<f64> = windows.rows.iter().map(|r| r[col]).collect();
        assert!(c.len() >= 4);
        assert!(
            c[0] > c[1] && c[2] > c[3],
            "diurnal lobes must show up in the series: {c:?}"
        );
    }

    #[test]
    fn workload_with_trace_file_and_bad_window_are_clean_errors() {
        let curve = RateCurve::diurnal(4.0, 3.0, 250.0);
        let err = replay(
            Scale::Quick,
            Some(Path::new("/tmp/whatever.csv")),
            Some(1.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            Some(&curve),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("--workload") && err.contains("--trace-file"));
        let err = replay(
            Scale::Quick,
            None,
            Some(100.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            Some(0.0),
            None,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("--window"), "got '{err}'");
    }

    #[test]
    fn missing_trace_file_is_a_clean_error() {
        let missing = Path::new("/nonexistent/spindown/trace.csv");
        assert!(replay(
            Scale::Quick,
            Some(missing),
            Some(1.0),
            0,
            LadderChoice::TwoState,
            1,
            CacheChoice::None,
            FaultChoice::None,
            None,
            None,
            None,
        )
        .is_err());
    }
}
