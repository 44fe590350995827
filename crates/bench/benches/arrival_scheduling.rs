//! Streamed arrival scheduling on a million-request synthetic trace: the
//! engine reads arrivals from a cursor instead of the event heap, which
//! stays at O(disks) entries instead of O(requests). Results are recorded
//! in BENCHMARKS.md to track the trajectory across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_workload::{FileCatalog, Trace};
use std::hint::black_box;

const FILES: usize = 64;
const DISKS: usize = 8;

fn fixture() -> (FileCatalog, Trace, Assignment) {
    // 64 equally popular 8 MB files round-robined over 8 disks; 250 req/s
    // for 4000 s ≈ one million requests.
    let catalog = FileCatalog::from_parts(vec![8_000_000; FILES], vec![1.0 / FILES as f64; FILES]);
    let trace = Trace::poisson(&catalog, 250.0, 4_000.0, 1_000_003);
    let mut bins: Vec<DiskBin> = (0..DISKS).map(|_| DiskBin::default()).collect();
    for file in 0..FILES {
        bins[file % DISKS].items.push(file);
    }
    (catalog, trace, Assignment { disks: bins })
}

fn bench(c: &mut Criterion) {
    let (catalog, trace, assignment) = fixture();
    assert!(
        trace.len() > 900_000,
        "want ~1M requests, got {}",
        trace.len()
    );

    let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::BreakEven);
    let mut group = c.benchmark_group("arrival_scheduling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("1M_requests", "streamed"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                let report = Simulator::run(&catalog, &trace, &assignment, black_box(cfg)).unwrap();
                black_box((report.responses.len(), report.peak_event_queue_max()))
            })
        },
    );
    group.finish();

    // One-shot peak-queue report so `cargo bench` output records the
    // memory story alongside the timing story.
    let report = Simulator::run(&catalog, &trace, &assignment, &cfg).unwrap();
    println!(
        "arrival_scheduling/peak_event_queue/streamed: {} entries ({} requests, {} disks)",
        report.peak_event_queue_max(),
        trace.len(),
        report.disks
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
