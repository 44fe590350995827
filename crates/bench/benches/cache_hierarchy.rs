//! Cache-hierarchy hot path: replay cost of the tier walk in front of the
//! engine — no cache vs a flat 16 GB front (one per replacement policy)
//! vs a two-tier DRAM→SSD stack — on a Zipf-skewed Poisson trace where
//! the Table 1 popularity/size coupling gives the front real reuse to
//! absorb. A second group replays the two-tier stack across 1/2/4/8
//! event-loop shards, the reader thread walking the one cache ahead of
//! routing. A third group drives the tier walk alone over a miss storm:
//! a Zipf stream over the full 40k-file quick catalog, far larger than
//! both tiers, so nearly every access misses and evicts in each tier (the
//! regime of the overloaded diurnal replay). Guards the `CachePolicy`
//! dispatch, the per-tier promote and evict paths and the sharded
//! replay; `scripts/bench_diff.py` diffs the means against
//! `BENCH_BASELINE.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spindown_core::PolicyChoice;
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_sim::hierarchy::CacheChoice;
use spindown_sim::metrics::MetricsMode;
use spindown_workload::{FileCatalog, FileId, InMemorySource, Trace};
use std::hint::black_box;

const FILES: usize = 512;
const DISKS: usize = 8;
/// The quick-scale catalog size the CLI and the replay benchmark use.
const MISS_STORM_FILES: usize = 40_000;

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
    // Dense Zipf arrivals: most requests target the small hot head, so the
    // run cost is dominated by the cache lookup/admit path under test.
    let trace = Trace::poisson(&catalog, 4.0, 5_000.0, 777);
    // (id, spec): the id avoids `:`/`+`, which `scripts/bench_diff.py`
    // rejects from benchmark names to keep one-shot prints out.
    let fronts = [
        ("none", "none"),
        ("lru16", "lru:16"),
        ("slru80_16", "slru80:16"),
        ("lfu16", "lfu:16"),
        ("lru2_lru16", "lru:2+lru:16"), // DRAM front + SSD behind it
    ];

    let mut group = c.benchmark_group("cache_hierarchy/zipf_poisson");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (id, front) in fronts {
        let cache = CacheChoice::parse(front).expect("valid cache spec");
        let cfg = SimConfig::paper_default()
            .with_metrics(MetricsMode::Histogram)
            .with_cache_hierarchy(cache.hierarchy());
        group.bench_with_input(BenchmarkId::new("replay", id), &cfg, |b, cfg| {
            b.iter(|| {
                let report = Simulator::replay(
                    &catalog,
                    InMemorySource::new(&trace),
                    &assignment,
                    black_box(cfg),
                    DISKS,
                    |_| PolicyChoice::break_even().build(&cfg.disk),
                )
                .unwrap();
                black_box(report.energy.total_joules())
            })
        });
    }
    group.finish();

    // The sharded replay behind the tier walk: the same two-tier DRAM→SSD
    // front, walked once by the reader thread, ahead of 1/2/4/8
    // event-loop shards. The merged report is bit-identical at every
    // count (see tests/cached_shard_equivalence.rs), so this measures
    // wall clock.
    let mut sharded_group = c.benchmark_group("cache_hierarchy/sharded");
    sharded_group.sample_size(10);
    sharded_group.throughput(Throughput::Elements(trace.len() as u64));
    for shards in [1usize, 2, 4, 8] {
        let cache = CacheChoice::parse("lru:2+lru:16").expect("valid cache spec");
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::BreakEven)
            .with_metrics(MetricsMode::Histogram)
            .with_cache_hierarchy(cache.hierarchy())
            .with_shards(shards);
        sharded_group.bench_with_input(
            BenchmarkId::new("lru2_lru16", format!("{shards}_shards")),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let report =
                        Simulator::run(&catalog, &trace, &assignment, black_box(cfg)).unwrap();
                    black_box((report.energy.total_joules(), report.cache))
                })
            },
        );
    }
    sharded_group.finish();

    // The miss path in isolation: `CacheHierarchy::access` over a stream
    // whose catalog (~40k files) dwarfs the 2 GB + 16 GB stack, so almost
    // every access misses both tiers and evicts from both. No engine runs,
    // so the row is the tier walk's own cost.
    let big = FileCatalog::paper_table1(MISS_STORM_FILES, 7);
    let storm: Vec<(FileId, u64)> = Trace::poisson(&big, 40.0, 12_500.0, 778)
        .requests()
        .iter()
        .map(|r| (r.file, big.file(r.file).size_bytes))
        .collect();
    let stack = CacheChoice::parse("lru:2+lru:16")
        .expect("valid cache spec")
        .hierarchy()
        .expect("a cached choice has a hierarchy");
    let mut storm_group = c.benchmark_group("cache_hierarchy/miss_storm");
    storm_group.sample_size(10);
    storm_group.throughput(Throughput::Elements(storm.len() as u64));
    storm_group.bench_function("lru2_lru16", |b| {
        b.iter(|| {
            let mut h = stack.build(1);
            let mut hits = 0u64;
            for &(file, size) in black_box(&storm) {
                hits += u64::from(h.access(file, size).is_some());
            }
            black_box((hits, h.aggregate_stats()))
        })
    });
    storm_group.finish();
    let mut h = stack.build(1);
    for &(file, size) in &storm {
        h.access(file, size);
    }
    let stats = h.aggregate_stats();
    println!(
        "cache_hierarchy/traffic/miss_storm: {} accesses, hit ratio {:.4}, {:.1} GB evicted",
        storm.len(),
        stats.hit_ratio(),
        stats.evicted_bytes as f64 / 1e9,
    );

    // One-shot hit-ratio report so `cargo bench` records the absorption
    // story alongside the timing story (the tier walk only earns its cost
    // when the front actually serves traffic).
    for (_, front) in fronts {
        let cache = CacheChoice::parse(front).expect("valid cache spec");
        let cfg = SimConfig::paper_default()
            .with_metrics(MetricsMode::Histogram)
            .with_cache_hierarchy(cache.hierarchy());
        let report = Simulator::replay(
            &catalog,
            InMemorySource::new(&trace),
            &assignment,
            &cfg,
            DISKS,
            |_| PolicyChoice::break_even().build(&cfg.disk),
        )
        .unwrap();
        let stats = report.cache.unwrap_or_default();
        println!(
            "cache_hierarchy/traffic/{front}: hit ratio {:.4}, {:.0} J, mean resp {:.3} s",
            stats.hit_ratio(),
            report.energy.total_joules(),
            report.responses.mean(),
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
