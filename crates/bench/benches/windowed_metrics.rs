//! Windowed-metrics overhead: the same 1M-request generator replay with
//! windows off (must cost what the legacy path costs — the collectors are
//! `None` and every hook is a no-op branch), with 60 s tumbling windows
//! on (per-window energy/response/backlog accounting on the engine hot
//! path, each window closed and folded as the clock passes it), and
//! windowed at 4 shards (every shard ships its closed-window partials to
//! the calling thread's fold). A non-stationary diurnal variant prices the
//! thinned-arrival generator against the homogeneous one. Results are
//! tracked in BENCHMARKS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_sim::MetricsMode;
use spindown_workload::{FileCatalog, RateCurve, SyntheticSource};
use std::hint::black_box;

const FILES: usize = 64;
const DISKS: usize = 8;
/// The `trace_streaming` fixture rate: 40 req/s over 8 disks of 8 MB
/// files ≈ 0.62 utilisation, so the backlog stays bounded and the timing
/// measures accounting overhead, not queue growth.
const RATE: f64 = 40.0;
const SEED: u64 = 1_000_003;
const REQUESTS: f64 = 1_000_000.0;

fn fixture() -> (FileCatalog, Assignment) {
    let catalog = FileCatalog::from_parts(vec![8_000_000; FILES], vec![1.0 / FILES as f64; FILES]);
    let mut bins: Vec<DiskBin> = (0..DISKS).map(|_| DiskBin::default()).collect();
    for file in 0..FILES {
        bins[file % DISKS].items.push(file);
    }
    (catalog, Assignment { disks: bins })
}

fn streaming_cfg() -> SimConfig {
    SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::BreakEven)
        .with_metrics(MetricsMode::Histogram)
}

fn bench(c: &mut Criterion) {
    let (catalog, assignment) = fixture();
    let horizon = REQUESTS / RATE;

    let mut group = c.benchmark_group("windowed_metrics");
    group.sample_size(10);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    // Windows off ≡ legacy cost: the baseline every other variant is
    // compared against (and the regression guard for the zero-cost-off
    // claim — the windowed refactor must not tax the default path).
    let variants: [(&str, SimConfig); 3] = [
        ("off", streaming_cfg()),
        ("60s", streaming_cfg().with_windows(60.0)),
        (
            "60s_4shards",
            streaming_cfg().with_windows(60.0).with_shards(4),
        ),
    ];
    for (label, cfg) in variants {
        group.bench_with_input(BenchmarkId::new("poisson_1M", label), &cfg, |b, cfg| {
            b.iter(|| {
                let source = SyntheticSource::poisson(&catalog, RATE, horizon, SEED);
                let report = Simulator::run_from_source(
                    &catalog,
                    source,
                    &assignment,
                    black_box(cfg),
                    DISKS,
                )
                .unwrap();
                black_box((report.responses.len(), report.windows.map(|w| w.rows.len())))
            })
        });
    }

    // Non-stationary diurnal arrivals via thinning, windowed: the
    // generator draws one extra uniform per accepted arrival (plus the
    // rejected candidates), so this prices the workload leg of the PR.
    let curve = RateCurve::diurnal(RATE, 0.75 * RATE, 3600.0);
    let windowed = streaming_cfg().with_windows(60.0);
    group.bench_with_input(
        BenchmarkId::new("diurnal_1M", "60s"),
        &windowed,
        |b, cfg| {
            b.iter(|| {
                let source =
                    SyntheticSource::non_stationary(&catalog, curve.clone(), horizon, SEED);
                let report = Simulator::run_from_source(
                    &catalog,
                    source,
                    &assignment,
                    black_box(cfg),
                    DISKS,
                )
                .unwrap();
                black_box(report.windows.map(|w| w.rows.len()))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
