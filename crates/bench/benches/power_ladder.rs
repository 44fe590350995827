//! Power-ladder hot path: replay cost of the two-state (paper) ladder vs
//! the three-level (idle / low-RPM / standby) ladder, under the fixed
//! break-even timeout and the lower-envelope descent policies, on a
//! spin-up-heavy bursty trace — the workload where descent/wake machinery
//! dominates. Guards the per-level generalisation of the engine's timer
//! and transition path; `scripts/bench_diff.py` diffs the means against
//! `BENCH_BASELINE.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spindown_core::PolicyChoice;
use spindown_disk::LadderChoice;
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::SimConfig;
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::MetricsMode;
use spindown_workload::arrivals::BatchConfig;
use spindown_workload::{FileCatalog, InMemorySource, Trace};
use std::hint::black_box;

const FILES: usize = 256;
const DISKS: usize = 8;

fn fixture() -> (FileCatalog, Assignment) {
    let catalog = FileCatalog::paper_table1(FILES, 7);
    let mut bins: Vec<DiskBin> = (0..DISKS).map(|_| DiskBin::default()).collect();
    for file in 0..FILES {
        bins[file % DISKS].items.push(file);
    }
    (catalog, Assignment { disks: bins })
}

fn bench(c: &mut Criterion) {
    let (catalog, assignment) = fixture();
    // Sparse bursts: disks descend and wake constantly, so the run is
    // dominated by ladder transitions rather than service time.
    let bursty = Trace::batched(
        &catalog,
        &BatchConfig {
            burst_rate: 1.0 / 120.0,
            min_batch: 4,
            max_batch: 10,
            intra_batch_gap_s: 0.5,
        },
        20_000.0,
        777,
    );

    let mut group = c.benchmark_group("power_ladder/spin_up_bursts");
    group.sample_size(10);
    group.throughput(Throughput::Elements(bursty.len() as u64));
    for ladder in LadderChoice::all() {
        for policy in [PolicyChoice::break_even(), PolicyChoice::lower_envelope()] {
            let mut cfg = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
            ladder.apply(&mut cfg.disk);
            group.bench_with_input(
                BenchmarkId::new("replay", format!("{}_{}", ladder.label(), policy.label())),
                &cfg,
                |b, cfg| {
                    b.iter(|| {
                        let report = Simulator::replay(
                            &catalog,
                            InMemorySource::new(&bursty),
                            &assignment,
                            black_box(cfg),
                            DISKS,
                            |_| policy.build(&cfg.disk),
                        )
                        .unwrap();
                        black_box(report.spin_downs)
                    })
                },
            );
        }
    }
    group.finish();

    // One-shot energy report so `cargo bench` records the power story
    // alongside the timing story (the three-state ladder trades deeper
    // descents against extra transition overhead).
    for ladder in LadderChoice::all() {
        for policy in [PolicyChoice::break_even(), PolicyChoice::lower_envelope()] {
            let mut cfg = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
            ladder.apply(&mut cfg.disk);
            let report = Simulator::replay(
                &catalog,
                InMemorySource::new(&bursty),
                &assignment,
                &cfg,
                DISKS,
                |_| policy.build(&cfg.disk),
            )
            .unwrap();
            println!(
                "power_ladder/energy/{}_{}: {:.0} J, {} spin-downs, {} spin-ups, mean resp {:.3} s",
                ladder.label(),
                policy.label(),
                report.energy.total_joules(),
                report.spin_downs,
                report.spin_ups,
                report.responses.mean(),
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
