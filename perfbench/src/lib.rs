//! The replay benchmark's pipeline: the three workloads and the pipeline that
//! times them.
//!
//! [`replay_timed`] makes the public calls `experiments replay` makes, in
//! the same order — `FileCatalog::paper_table1` → `Planner::plan` → source
//! open → `Simulator::run_from_source` — and times each one from outside.
//! [`summary_row`] renders the report exactly as the `replay` figure's row,
//! so a test can hold the two paths equal (`tests/matches_replay.rs`).

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spindown_core::{
    CacheChoice, FaultChoice, LadderChoice, MetricsMode, Planner, PlannerConfig, RateCurve,
};
use spindown_experiments::{grid_seed, Scale};
use spindown_sim::{CompletionLogMode, SimReport, Simulator};
use spindown_workload::{FileCatalog, TraceSource};

/// Error type of every fallible benchmark step.
pub type BoxError = Box<dyn Error>;

/// Rate of the stationary Poisson stream: the paper's R = 4/s planning
/// point, the rate `experiments replay` generates and plans for.
pub const POISSON_RATE: f64 = 4.0;

/// The benchmark's workloads (see `perfbench/README.md` for why each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// R = 4/s Poisson, one shard, no optional layer: the engine core.
    PoissonS1,
    /// The same stream as a CSV file, two shards, CSV completion log.
    CsvLogS2,
    /// Diurnal load on the planned fleet with a two-tier cache, windows
    /// and faults: the only workload using those layers.
    DiurnalCachedWindowed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PoissonS1,
        Workload::CsvLogS2,
        Workload::DiurnalCachedWindowed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PoissonS1 => "poisson_s1",
            Workload::CsvLogS2 => "csv_log_s2",
            Workload::DiurnalCachedWindowed => "diurnal_cached_windowed",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds one replay covers: 2M requests at 4/s for
    /// `poisson_s1`, the first 1M of the same stream for `csv_log_s2`, and
    /// the rising half of the diurnal period (load from 40/s to the 70/s
    /// peak and back, ≈2.55M requests) for the diurnal workload. Each replay
    /// takes well under 2 s, so a timed run holds many replays.
    pub fn default_horizon(self) -> f64 {
        match self {
            Workload::PoissonS1 => 500_000.0,
            Workload::CsvLogS2 => 250_000.0,
            Workload::DiurnalCachedWindowed => 43_200.0,
        }
    }

    /// The diurnal workload's rate curve, `diurnal:base=40,amp=30,period=86400`.
    pub fn diurnal_curve() -> RateCurve {
        RateCurve::diurnal(40.0, 30.0, 86_400.0)
    }

    /// The layers the workload switches on. `log_path` receives the CSV
    /// completion log of the workload that writes one.
    pub fn spec(self, log_path: &Path) -> Spec {
        match self {
            Workload::PoissonS1 => Spec::bare(),
            Workload::CsvLogS2 => Spec {
                shards: 2,
                log: CompletionLogMode::Csv {
                    path: log_path.display().to_string(),
                },
                ..Spec::bare()
            },
            Workload::DiurnalCachedWindowed => Spec {
                cache: CacheChoice::parse("lru:2+lru:16").expect("valid cache spec"),
                faults: FaultChoice::parse("transient:p=1e-4 | wakefail:p=0.02 | mttr=60")
                    .expect("valid fault spec"),
                window: Some(3600.0),
                ..Spec::bare()
            },
        }
    }

    /// The workload's request stream for benchmark seed `seed`. `csv` is
    /// the trace file [`Workload::CsvLogS2`] replays (written beforehand by
    /// `perfbench gen` from the same seed).
    pub fn input(self, seed: u64, horizon: f64, csv: &Path) -> Input {
        let seed = stream_seed(seed);
        match self {
            Workload::PoissonS1 => Input::Poisson { horizon, seed },
            Workload::CsvLogS2 => Input::Csv(csv.to_path_buf()),
            Workload::DiurnalCachedWindowed => Input::Curve {
                curve: Self::diurnal_curve(),
                horizon,
                seed,
            },
        }
    }
}

/// The generator seed for benchmark seed `seed`. Seed 0 is the stream
/// `experiments replay` generates.
pub fn stream_seed(seed: u64) -> u64 {
    grid_seed(92, seed, 0)
}

/// The replay options a run switches on, as `experiments replay` takes
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Parallel replay shards.
    pub shards: usize,
    /// Cache hierarchy fronting the fleet.
    pub cache: CacheChoice,
    /// Fault regime.
    pub faults: FaultChoice,
    /// Tumbling window width, seconds.
    pub window: Option<f64>,
    /// Completion log destination.
    pub log: CompletionLogMode,
}

impl Spec {
    /// One shard and every optional layer off.
    pub fn bare() -> Self {
        Spec {
            shards: 1,
            cache: CacheChoice::None,
            faults: FaultChoice::None,
            window: None,
            log: CompletionLogMode::Off,
        }
    }
}

/// Where a run's requests come from.
#[derive(Debug, Clone)]
pub enum Input {
    /// Seeded stationary Poisson stream at [`POISSON_RATE`].
    Poisson {
        /// Simulated seconds.
        horizon: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Seeded non-stationary stream following `curve`.
    Curve {
        /// Rate curve sampled by thinning.
        curve: RateCurve,
        /// Simulated seconds.
        horizon: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A `time_s,file_id` CSV file, opened without a horizon so the open
    /// pre-scans it.
    Csv(PathBuf),
}

impl Input {
    /// The arrival rate the planner sizes the fleet for.
    pub fn plan_rate(&self) -> f64 {
        match self {
            Input::Curve { curve, .. } => curve.mean_rate_hint(),
            Input::Poisson { .. } | Input::Csv(_) => POISSON_RATE,
        }
    }
}

/// Opens `$input`'s source, binds it to `$src` and the open's wall seconds
/// to `$open_s`, then evaluates `$body` — once per concrete source type, so
/// the source is statically dispatched exactly as in `experiments replay`.
/// The enclosing function must return a `Result` whose error converts from
/// `TraceIoError`.
#[macro_export]
macro_rules! with_source {
    ($input:expr, $catalog:expr, |$src:ident, $open_s:ident| $body:expr) => {{
        let t = ::std::time::Instant::now();
        match $input {
            $crate::Input::Csv(path) => {
                let $src = ::spindown_workload::CsvTraceSource::open(path, None)?;
                let $open_s = t.elapsed().as_secs_f64();
                $body
            }
            $crate::Input::Poisson { horizon, seed } => {
                let $src = ::spindown_workload::SyntheticSource::poisson(
                    $catalog,
                    $crate::POISSON_RATE,
                    *horizon,
                    *seed,
                );
                let $open_s = t.elapsed().as_secs_f64();
                $body
            }
            $crate::Input::Curve {
                curve,
                horizon,
                seed,
            } => {
                let $src = ::spindown_workload::SyntheticSource::non_stationary(
                    $catalog,
                    curve.clone(),
                    *horizon,
                    *seed,
                );
                let $open_s = t.elapsed().as_secs_f64();
                $body
            }
        }
    }};
}

/// The catalog every replay runs on: the quick-scale Table 1 catalog.
pub fn catalog() -> FileCatalog {
    FileCatalog::paper_table1(Scale::Quick.n_files(), 0)
}

/// The planner `experiments replay` builds for these options.
pub fn planner(spec: &Spec) -> Planner {
    let mut cfg = PlannerConfig::default();
    cfg.sim = cfg
        .sim
        .with_metrics(MetricsMode::Histogram)
        .with_shards(spec.shards)
        .with_cache_hierarchy(spec.cache.hierarchy())
        .with_completion_log_mode(spec.log.clone());
    if let Some(w) = spec.window {
        cfg.sim = cfg.sim.with_windows(w);
    }
    cfg.sim.faults = spec.faults.plan();
    LadderChoice::TwoState.apply(&mut cfg.sim.disk);
    Planner::new(cfg)
}

/// One timed replay.
#[derive(Debug)]
pub struct Timed {
    /// Wall seconds in `Planner::plan`.
    pub plan_s: f64,
    /// Wall seconds opening the source (the CSV horizon pre-scan included).
    pub open_s: f64,
    /// Wall seconds from `start` to the call into `run_from_source`.
    pub setup_s: f64,
    /// Wall seconds inside `run_from_source`.
    pub run_s: f64,
    /// Disks simulated.
    pub fleet: usize,
    /// The engine's report.
    pub report: SimReport,
}

/// Run `input` under `spec` through the `experiments replay` pipeline,
/// timing set-up from `start` (taken when the process began).
pub fn replay_timed(spec: &Spec, input: &Input, start: Instant) -> Result<Timed, BoxError> {
    let catalog = catalog();
    let planner = planner(spec);
    let t = Instant::now();
    let plan = planner.plan(&catalog, input.plan_rate())?;
    let plan_s = t.elapsed().as_secs_f64();
    let fleet = Scale::Quick.fleet().max(plan.disks_used());
    let cfg = &planner.config().sim;
    with_source!(input, &catalog, |source, open_s| {
        let setup_s = start.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = Simulator::run_from_source(&catalog, source, &plan.assignment, cfg, fleet)?;
        Ok(Timed {
            plan_s,
            open_s,
            setup_s,
            run_s: t.elapsed().as_secs_f64(),
            fleet,
            report,
        })
    })
}

/// Column names of [`summary_row`] — the `replay` figure's columns.
pub fn summary_columns(report: &SimReport) -> Vec<&'static str> {
    let mut columns = vec![
        "requests",
        "resp_s",
        "resp_p95_s",
        "resp_p99_s",
        "energy_j",
        "peak_event_queue",
    ];
    if report.availability.is_some() {
        columns.extend([
            "completed",
            "retried",
            "shed",
            "failed",
            "availability",
            "degraded_p95_s",
        ]);
    }
    columns
}

/// The report as the `replay` figure's summary row.
pub fn summary_row(report: &SimReport) -> Vec<f64> {
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
    row
}

/// Window rows as the `replay_windows` figure renders them (without the
/// fault columns): start, end, completions, mean, p95, p99, energy, peak
/// backlog.
pub fn window_rows(report: &SimReport) -> Vec<Vec<f64>> {
    report.windows.as_ref().map_or_else(Vec::new, |w| {
        w.rows
            .iter()
            .map(|r| {
                vec![
                    r.start_s,
                    r.end_s,
                    r.completions as f64,
                    r.mean_s,
                    r.p95_s,
                    r.p99_s,
                    r.energy_j,
                    r.peak_queue as f64,
                ]
            })
            .collect()
    })
}

/// Largest shard's share of served requests over the mean shard's, with
/// disks grouped by shard the way the demux routes them (`disk % shards`).
pub fn shard_imbalance(report: &SimReport, shards: usize) -> f64 {
    let shards = shards.max(1);
    let mut served = vec![0u64; shards];
    for (disk, &n) in report.per_disk_served.iter().enumerate() {
        served[disk % shards] += n;
    }
    let total: u64 = served.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = served.iter().copied().max().unwrap_or(0);
    max as f64 * shards as f64 / total as f64
}

/// Write the CSV trace of [`Workload::CsvLogS2`] for benchmark seed `seed`
/// with the repository's generator: `Trace::poisson` at [`POISSON_RATE`],
/// serialised by `Trace::write_csv`.
pub fn write_csv_trace(seed: u64, horizon: f64, path: &Path) -> Result<usize, BoxError> {
    use std::io::Write as _;
    let trace =
        spindown_workload::Trace::poisson(&catalog(), POISSON_RATE, horizon, stream_seed(seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace.write_csv(&mut out)?;
    out.flush()?;
    Ok(trace.len())
}

/// Drain `source` to the end, handing each request to `visit`; returns the
/// request count and the wall seconds it took.
pub fn drain<S: TraceSource>(
    mut source: S,
    mut visit: impl FnMut(spindown_workload::Request),
) -> Result<(u64, f64), BoxError> {
    let t = Instant::now();
    let mut n = 0u64;
    while let Some(r) = source.next_request()? {
        visit(std::hint::black_box(r));
        n += 1;
    }
    Ok((n, t.elapsed().as_secs_f64()))
}
