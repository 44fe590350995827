//! Trace-source streaming at scale: generator-backed and CSV-backed
//! replays in histogram-metrics mode, where resident memory is
//! O(disks + histogram buckets) regardless of request count — no
//! materialised trace, no response vector. The criterion loop times a
//! 10M-request generator replay, a 1M-request CSV file replay, and the
//! same generator replay across 1/2/4/8 shards (the `--shards` scaling
//! curve — wall clock tracks the host's core count, the report is
//! bit-identical), and the 10M replay with the streaming completion log
//! in digest mode (the per-completion canonicalise/hash overhead) next to
//! the encode+hash layer alone over 1M precomputed completions; a
//! one-shot 100M-request replay (10M under `CRITERION_QUICK=1`) records
//! wall time, throughput and the tracked-structure sizes alongside.
//! Results are tracked in BENCHMARKS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::complog::CompletionSink;
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::Completion;
use spindown_sim::{CompletionLogMode, MetricsMode, StreamingHistogram};
use spindown_workload::{CsvTraceSource, FileCatalog, SyntheticSource, Trace};
use std::hint::black_box;

const FILES: usize = 64;
const DISKS: usize = 8;
/// 40 req/s over 8 disks of 8 MB files ≈ 0.62 utilisation — a stable
/// queueing system, so the pending backlog (the one structure whose size
/// the workload controls) stays bounded however long the replay runs. The
/// `arrival_scheduling` fixture deliberately overloads the same fleet;
/// here the point is the memory story, not the drain throughput.
const RATE: f64 = 40.0;
const SEED: u64 = 1_000_003;

/// The `arrival_scheduling` fixture shape: 64 equally popular 8 MB files
/// round-robined over 8 disks.
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
    let cfg = streaming_cfg();

    // Criterion-timed: 10M requests straight from the generator.
    let requests_10m = 10_000_000f64;
    let mut group = c.benchmark_group("trace_streaming");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests_10m as u64));
    group.bench_with_input(
        BenchmarkId::new("generator", "10M_requests"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                let source = SyntheticSource::poisson(&catalog, RATE, requests_10m / RATE, SEED);
                let report = Simulator::run_from_source(
                    &catalog,
                    source,
                    &assignment,
                    black_box(cfg),
                    DISKS,
                )
                .unwrap();
                black_box((report.responses.len(), report.peak_event_queue_max()))
            })
        },
    );

    // Criterion-timed: 1M requests streamed from a CSV file on disk
    // through the buffered reader (parse cost included, memory O(1)).
    let csv_path = std::env::temp_dir().join("spindown_trace_streaming_1m.csv");
    let csv_horizon = 1_000_000.0 / RATE;
    {
        let trace = Trace::poisson(&catalog, RATE, csv_horizon, SEED);
        let file = std::fs::File::create(&csv_path).expect("temp CSV writable");
        trace
            .write_csv(std::io::BufWriter::new(file))
            .expect("trace written");
        group.throughput(Throughput::Elements(trace.len() as u64));
    }
    group.bench_with_input(
        BenchmarkId::new("csv_file", "1M_requests"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                let source = CsvTraceSource::open(&csv_path, Some(csv_horizon)).unwrap();
                let report = Simulator::run_from_source(
                    &catalog,
                    source,
                    &assignment,
                    black_box(cfg),
                    DISKS,
                )
                .unwrap();
                black_box(report.responses.len())
            })
        },
    );
    // Criterion-timed: the same 10M-request generator replay across 1, 2,
    // 4 and 8 shards (8 disks round-robined, so 8 shards = one disk per
    // shard). The merged report is bit-identical whatever the count (see
    // tests/shard_equivalence.rs); what this measures is wall-clock
    // scaling, which tracks the host's core count.
    for shards in [1usize, 2, 4, 8] {
        let sharded_cfg = cfg.clone().with_shards(shards);
        group.throughput(Throughput::Elements(requests_10m as u64));
        group.bench_with_input(
            BenchmarkId::new("sharded", format!("{shards}_shards")),
            &sharded_cfg,
            |b, cfg| {
                b.iter(|| {
                    let source =
                        SyntheticSource::poisson(&catalog, RATE, requests_10m / RATE, SEED);
                    let report = Simulator::run_from_source(
                        &catalog,
                        source,
                        &assignment,
                        black_box(cfg),
                        DISKS,
                    )
                    .unwrap();
                    black_box((report.responses.len(), report.peak_disk_queue))
                })
            },
        );
    }
    // Criterion-timed: the same 10M-request generator replay with the
    // streaming completion log on in digest mode — every completion
    // canonicalised, hashed and counted without materialising any of them.
    // Measures the writer/tie-buffer overhead on the engine hot path.
    {
        let logged_cfg = cfg
            .clone()
            .with_completion_log_mode(CompletionLogMode::Digest);
        group.throughput(Throughput::Elements(requests_10m as u64));
        group.bench_with_input(
            BenchmarkId::new("completion_log", "digest_10M"),
            &logged_cfg,
            |b, cfg| {
                b.iter(|| {
                    let source =
                        SyntheticSource::poisson(&catalog, RATE, requests_10m / RATE, SEED);
                    let report = Simulator::run_from_source(
                        &catalog,
                        source,
                        &assignment,
                        black_box(cfg),
                        DISKS,
                    )
                    .unwrap();
                    black_box(report.completion_log.map(|l| l.fnv1a))
                })
            },
        );
    }
    // Criterion-timed: the completion log's encode+hash layer alone — 1M
    // precomputed completion-like records (R = 4/s Poisson times, 100
    // disks) through a digest-mode sink, with no engine around it.
    {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut t = 0.0;
        let completions: Vec<Completion> = (0..1_000_000)
            .map(|req| {
                t += -(1.0 - rng.random::<f64>()).ln() / 4.0;
                Completion {
                    req,
                    disk: req % 100,
                    time_s: t,
                }
            })
            .collect();
        group.throughput(Throughput::Elements(completions.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("completion_log", "encode_hash_1M"),
            &completions,
            |b, completions| {
                b.iter(|| {
                    let mut sink = CompletionSink::from_mode(&CompletionLogMode::Digest)
                        .unwrap()
                        .unwrap();
                    for c in black_box(completions) {
                        sink.emit(c).unwrap();
                    }
                    black_box(sink.finish(0).unwrap().1.fnv1a)
                })
            },
        );
    }
    group.finish();
    let _ = std::fs::remove_file(&csv_path);

    // One-shot scale demonstration: 100M generator-backed requests (10M in
    // the CI quick lane), with the constant-memory story recorded next to
    // the wall time.
    let requests = if criterion::quick_mode() { 10e6 } else { 100e6 };
    let source = SyntheticSource::poisson(&catalog, RATE, requests / RATE, SEED);
    let start = std::time::Instant::now();
    let report = Simulator::run_from_source(&catalog, source, &assignment, &cfg, DISKS).unwrap();
    let dt = start.elapsed().as_secs_f64();
    println!(
        "trace_streaming/one_shot/generator_{:.0}M_requests: {:.3} s wall ({:.2} M req/s), \
         peak event-queue {} entries over {} disks, peak pending queue {} requests, \
         histogram bucket cap {} — tracked structures independent of request count",
        requests / 1e6,
        dt,
        report.responses.len() as f64 / dt / 1e6,
        report.peak_event_queue_max(),
        report.disks,
        report.peak_disk_queue,
        StreamingHistogram::max_buckets(),
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
