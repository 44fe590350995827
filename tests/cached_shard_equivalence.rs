//! Cached + logged sharding equivalence (tier-1): the composition matrix
//! that makes `--shards N` a pure wall-clock lever even with a global
//! cache hierarchy and the streaming completion log enabled.
//!
//! Pinned here:
//!
//! 1. **Paper global cache** — `CacheHierarchyConfig::paper_16gb` (and the
//!    same cache written out as an explicit single DRAM tier) replayed
//!    on the golden fixture and a seeded Poisson fleet is bit-identical
//!    at S ∈ {1, 2, 3, 8}: responses, energy, per-disk tables, merged
//!    `CacheStats` and the per-tier rows.
//! 2. **Multi-tier global hierarchy** — a DRAM→SSD stack shards
//!    bit-identically, tier rows included.
//! 3. **Completion log** — `Memory` mode yields the same `Vec<Completion>`
//!    in canonical `(time, req)` order at every shard count; `Digest`
//!    mode yields the same record count, byte count and FNV-1a hash.
//! 4. **Cache × log** — both features on at once still merge exactly.
//! 5. **Eviction pressure** — a 256 MB LRU against a 2.1 GB working set
//!    churns hard, and the run is still bit-identical at every shard
//!    count: the reader thread walks the one hierarchy in stream order
//!    before routing (documented in `hierarchy.rs` "Sharding"), so no
//!    shard count changes a hit or an eviction.

use std::io::BufReader;

use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::hierarchy::{CacheHierarchyConfig, CachePolicyChoice, CacheTierConfig};
use spindown::sim::metrics::{MetricsMode, SimReport};
use spindown::sim::CompletionLogMode;
use spindown::workload::{FileCatalog, Trace};

const MB: u64 = 1_000_000;
const GB: u64 = 1_000_000_000;
const QS: [f64; 7] = [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0];
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn catalog(n: usize) -> FileCatalog {
    let sizes: Vec<u64> = (0..n).map(|i| (1 + (i % 96) as u64) * MB).collect();
    FileCatalog::from_parts(sizes, vec![1.0 / n as f64; n])
}

fn assignment(files: usize, disks: usize) -> Assignment {
    let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
    for f in 0..files {
        bins[f % disks].items.push(f);
    }
    Assignment { disks: bins }
}

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

/// Bit-exact comparison of the merged report *plus* the cache and
/// completion-log surfaces (the shard/fault-equivalence twin, extended;
/// `per_shard_event_peaks` is excluded by design — see
/// `shard_equivalence`).
fn assert_reports_bit_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.sim_time_s, b.sim_time_s, "{what}: sim time");
    assert_eq!(a.disks, b.disks, "{what}: fleet size");
    assert_eq!(
        a.energy.total_joules(),
        b.energy.total_joules(),
        "{what}: total energy"
    );
    assert_eq!(
        a.energy.per_state(),
        b.energy.per_state(),
        "{what}: per-state"
    );
    assert_eq!(a.responses, b.responses, "{what}: responses");
    for q in QS {
        assert_eq!(
            a.response_quantile(q),
            b.response_quantile(q),
            "{what}: q={q}"
        );
    }
    assert_eq!(a.spin_downs, b.spin_downs, "{what}: spin-downs");
    assert_eq!(a.spin_ups, b.spin_ups, "{what}: spin-ups");
    assert_eq!(a.per_disk_served, b.per_disk_served, "{what}: served");
    assert_eq!(
        a.per_disk_responses, b.per_disk_responses,
        "{what}: per-disk responses"
    );
    for (d, (x, y)) in a.per_disk_energy.iter().zip(&b.per_disk_energy).enumerate() {
        assert_eq!(x.per_state(), y.per_state(), "{what}: disk {d} energy");
    }
    assert_eq!(a.cache, b.cache, "{what}: merged cache counters");
    assert_eq!(a.cache_tiers, b.cache_tiers, "{what}: per-tier counters");
    assert_eq!(a.completions, b.completions, "{what}: completion records");
    match (&a.completion_log, &b.completion_log) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.records, y.records, "{what}: log records");
            assert_eq!(x.bytes, y.bytes, "{what}: log bytes");
            assert_eq!(x.fnv1a, y.fnv1a, "{what}: log digest");
        }
        other => panic!("{what}: log summary presence diverged: {other:?}"),
    }
}

/// The legacy 16 GB global cache (both spellings), which holds the golden
/// fixture's whole 532 MB working set, replays identically at every
/// shard count.
#[test]
fn legacy_global_cache_is_bit_identical_across_shard_counts_on_the_golden_trace() {
    let (catalog, trace, layout) = golden_fixture();
    let legacy = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram)
        .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()));
    let explicit = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram)
        .with_cache_hierarchy(Some(CacheHierarchyConfig::single(CacheTierConfig::dram(
            16 * GB,
            CachePolicyChoice::Lru,
        ))));
    for (what, base) in [("legacy", legacy), ("explicit single tier", explicit)] {
        let solo = Simulator::run(&catalog, &trace, &layout, &base).unwrap();
        let stats = solo.cache.as_ref().expect("cached run reports stats");
        assert!(stats.hits > 0, "{what}: repeated reads must hit");
        assert_eq!(stats.evicted_bytes, 0, "{what}: no-eviction regime");
        assert_eq!(stats.oversize_rejections, 0, "{what}: nothing oversize");
        for shards in SHARD_COUNTS {
            let cfg = base.clone().with_shards(shards);
            let sharded = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
            assert_reports_bit_identical(&solo, &sharded, &format!("golden {what} S={shards}"));
        }
    }
}

/// Same pin on a 16-disk seeded Poisson fleet: 2.1 GB of catalog under
/// the 16 GB front.
#[test]
fn legacy_global_cache_is_bit_identical_across_shard_counts_on_seeded_poisson() {
    let cat = catalog(64);
    let tr = Trace::poisson(&cat, 2.0, 600.0, 0xCAC4E);
    let layout = assignment(64, 16);
    let base = SimConfig::paper_default()
        .with_metrics(MetricsMode::Histogram)
        .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()));
    let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
    let stats = solo.cache.as_ref().expect("stats");
    assert!(stats.hits > 0, "Poisson reuse must hit");
    assert_eq!(stats.evicted_bytes, 0, "no-eviction regime");
    for shards in SHARD_COUNTS {
        let cfg = base.clone().with_shards(shards);
        let sharded = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
        assert_reports_bit_identical(&solo, &sharded, &format!("poisson S={shards}"));
    }
}

/// A two-tier DRAM→SSD global stack: the 1.2 GB DRAM front holds the
/// golden fixture's working set, so the tier walk, promote path and
/// per-tier counters are exercised with no evictions.
#[test]
fn two_tier_global_hierarchy_is_bit_identical_across_shard_counts() {
    let (catalog, trace, layout) = golden_fixture();
    let stack = CacheHierarchyConfig::new(vec![
        CacheTierConfig::dram(1_200 * MB, CachePolicyChoice::Lru),
        CacheTierConfig::ssd(4 * GB, CachePolicyChoice::Lru),
    ]);
    let base = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram)
        .with_cache_hierarchy(Some(stack));
    let solo = Simulator::run(&catalog, &trace, &layout, &base).unwrap();
    let tiers = solo.cache_tiers.as_ref().expect("per-tier rows");
    assert_eq!(tiers.len(), 2, "both tiers reported");
    assert!(tiers[0].hits > 0, "the DRAM front absorbs reuse");
    assert_eq!(tiers[0].evicted_bytes, 0, "no-eviction regime");
    for shards in SHARD_COUNTS {
        let cfg = base.clone().with_shards(shards);
        let sharded = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
        assert_reports_bit_identical(&solo, &sharded, &format!("two-tier S={shards}"));
    }
}

/// `Memory`-mode completion records come back in canonical `(time, req)`
/// order whatever the shard count, and the `Digest` summary (records,
/// bytes, FNV-1a over the canonical lines) matches too — with and
/// without a cache in front.
#[test]
fn completion_log_is_bit_identical_across_shard_counts() {
    let (catalog, trace, layout) = golden_fixture();
    let plain = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram);
    let variants = [
        ("memory", plain.clone().with_completion_log()),
        (
            "digest",
            plain
                .clone()
                .with_completion_log_mode(CompletionLogMode::Digest),
        ),
        (
            "cache and memory log",
            plain
                .clone()
                .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()))
                .with_completion_log(),
        ),
        (
            "cache and digest log",
            plain
                .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()))
                .with_completion_log_mode(CompletionLogMode::Digest),
        ),
    ];
    for (what, base) in variants {
        let solo = Simulator::run(&catalog, &trace, &layout, &base).unwrap();
        let summary = solo.completion_log.as_ref().expect("summary present");
        assert!(summary.records > 0, "{what}: records flowed");
        if let Some(completions) = &solo.completions {
            assert_eq!(completions.len() as u64, summary.records, "{what}: count");
            for w in completions.windows(2) {
                assert!(
                    w[0].time_s < w[1].time_s
                        || (w[0].time_s == w[1].time_s && w[0].req < w[1].req),
                    "{what}: canonical order"
                );
            }
        }
        for shards in SHARD_COUNTS {
            let cfg = base.clone().with_shards(shards);
            let sharded = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
            assert_reports_bit_identical(&solo, &sharded, &format!("{what} S={shards}"));
        }
    }
}

/// With a cache in front, the log records *disk* completions only — cache
/// hits never reach a platter — so the record count equals the miss
/// count, at every shard count.
#[test]
fn cached_completion_log_records_only_the_misses() {
    let (catalog, trace, layout) = golden_fixture();
    let base = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram)
        .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()))
        .with_completion_log();
    for shards in SHARD_COUNTS {
        let cfg = base.clone().with_shards(shards);
        let report = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
        let stats = report.cache.as_ref().expect("stats");
        let summary = report.completion_log.as_ref().expect("summary");
        assert_eq!(
            summary.records, stats.misses,
            "S={shards}: log records = cache misses"
        );
        assert_eq!(
            stats.hits + stats.misses,
            report.responses.len() as u64,
            "S={shards}: every request classified once"
        );
    }
}

/// A cache under genuine eviction pressure is still bit-identical at
/// every shard count: one hierarchy sees the whole stream in arrival
/// order, so hits, evictions, per-disk served counts and energy do not
/// depend on how the fleet is sharded.
#[test]
fn eviction_pressure_is_bit_identical_across_shard_counts() {
    let cat = catalog(64); // 2.1 GB working set…
    let tr = Trace::poisson(&cat, 2.0, 600.0, 0xE71C);
    let layout = assignment(64, 16);
    let base = SimConfig::paper_default()
        .with_metrics(MetricsMode::Histogram)
        // …against a 256 MB budget: heavy churn.
        .with_cache_hierarchy(Some(CacheHierarchyConfig::single(CacheTierConfig::dram(
            256 * MB,
            CachePolicyChoice::Lru,
        ))));
    let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
    let stats = solo.cache.as_ref().expect("stats");
    assert!(stats.evicted_bytes > 0, "the fixture must actually evict");
    assert!(stats.hits > 0, "the fixture must still hit");
    for shards in SHARD_COUNTS {
        let cfg = base.clone().with_shards(shards);
        let sharded = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
        assert_reports_bit_identical(&solo, &sharded, &format!("eviction S={shards}"));
    }
}
