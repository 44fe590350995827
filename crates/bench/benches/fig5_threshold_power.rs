//! Figure 5 (E6): NERSC-trace power saving at a fixed idleness threshold —
//! Pack_Disks vs random on the (shrunken) synthetic NERSC workload.

use criterion::{criterion_group, criterion_main, Criterion};
use spindown_core::{Planner, PlannerConfig};
use spindown_packing::Allocator;
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_workload::nersc::{self, NerscConfig};
use spindown_workload::InMemorySource;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cfg = NerscConfig::paper_scaled(40);
    let workload = nersc::generate(&cfg, 21);
    let rate = cfg.arrival_rate();
    let planner = Planner::new(PlannerConfig::default());
    let pack = planner.plan(&workload.catalog, rate).unwrap();
    let fleet = pack.disk_slots() + 1;
    let mut rnd_cfg = PlannerConfig::default();
    rnd_cfg.allocator = Allocator::RandomFixed {
        disks: fleet as u32,
        seed: 2,
    };
    let random = Planner::new(rnd_cfg).plan(&workload.catalog, rate).unwrap();

    let sim = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(1_800.0));
    let never = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
    let saving = |assignment| {
        let e = Simulator::run_from_source(
            &workload.catalog,
            InMemorySource::new(&workload.trace),
            assignment,
            &sim,
            fleet,
        )
        .unwrap()
        .energy
        .total_joules();
        let e0 = Simulator::run_from_source(
            &workload.catalog,
            InMemorySource::new(&workload.trace),
            assignment,
            &never,
            fleet,
        )
        .unwrap()
        .energy
        .total_joules();
        1.0 - e / e0
    };
    println!(
        "[fig5] threshold 0.5 h: Pack_Disk saving {:.3}, RND saving {:.3} (paper: ~0.85 vs 0.3–0.9)",
        saving(&pack.assignment),
        saving(&random.assignment)
    );

    let mut group = c.benchmark_group("fig5_threshold_power");
    group.sample_size(10);
    group.bench_function("nersc_pack_threshold_0_5h", |b| {
        b.iter(|| {
            black_box(
                Simulator::run_from_source(
                    &workload.catalog,
                    InMemorySource::new(&workload.trace),
                    &pack.assignment,
                    &sim,
                    fleet,
                )
                .unwrap()
                .energy
                .total_joules(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
