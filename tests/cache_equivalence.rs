//! Cache-path equivalence fixture (tier-1): the golden trace replayed
//! through a deliberately tight cache (150 MB — small enough that the
//! fixture exercises hits, misses, multi-eviction admissions *and* an
//! oversize rejection of the 300 MB file) was captured from the engine
//! *before* the `CachePolicy` trait / `CacheHierarchy` refactor, from the
//! flat LRU that the single-tier LRU hierarchy replaced. That hierarchy,
//! configured through `SimConfig::with_cache_hierarchy` and replayed
//! through `Simulator::run` or `Simulator::replay` with an explicit
//! policy, must land on this table bit-for-bit (to printed precision):
//! the refactor moved the LRU behind a trait object and the dispatch
//! behind a tier walk, and neither move is allowed to be a semantic
//! change.
//!
//! ## Updating the fixture (deliberate engine-semantics changes only)
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test cache_equivalence
//! git diff tests/fixtures/golden_cache_expected.csv   # review, then commit
//! ```
//!
//! Like `golden_trace.rs`, the update run rewrites the fixture from the
//! current engine and fails once so it can never silently pass CI.
//!
//! Fixture history: regenerated once when global-cache hits started
//! recording into the per-disk response stats of the disk holding the
//! file (the attribution that makes per-disk tables shard-invariant under
//! the sharded global cache) — `disk2_mean_response_s` dropped because
//! disk 2's cache hits now count toward its own mean.

use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;

use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::hierarchy::{CacheHierarchyConfig, CachePolicyChoice, CacheTierConfig};
use spindown::sim::metrics::{MetricsMode, SimReport};
use spindown::sim::policy::TimeoutPolicy;
use spindown::workload::{FileCatalog, InMemorySource, Trace};

const MB: u64 = 1_000_000;
const TRACE: &str = "tests/fixtures/golden_trace.csv";
const EXPECTED: &str = "tests/fixtures/golden_cache_expected.csv";
/// Values are compared to the printed precision of the fixture.
const TOL: f64 = 1e-6;

/// 150 MB holds a working set but not the whole catalog, and rejects the
/// 300 MB file outright; 2 GB/s keeps hit latencies distinct from every
/// disk-service time in the trace.
fn tight_cache() -> CacheHierarchyConfig {
    CacheHierarchyConfig::single(CacheTierConfig {
        capacity_bytes: 150 * MB,
        bandwidth_bps: 2.0e9,
        policy: CachePolicyChoice::Lru,
    })
}

/// The golden fixture of `golden_trace.rs`, with the tight cache in front.
fn fixture() -> (FileCatalog, Assignment, SimConfig) {
    let sizes = vec![72 * MB, 8 * MB, 300 * MB, 2 * MB, 100 * MB, 50 * MB];
    let catalog = FileCatalog::from_parts(sizes, vec![1.0 / 6.0; 6]);
    let layout = [0usize, 0, 1, 1, 2, 2];
    let mut bins: Vec<DiskBin> = (0..3).map(|_| DiskBin::default()).collect();
    for (file, &d) in layout.iter().enumerate() {
        bins[d].items.push(file);
    }
    let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(20.0));
    (catalog, Assignment { disks: bins }, cfg)
}

fn golden_trace() -> Trace {
    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses")
}

/// Everything the cache path can perturb, flattened to one CSV row set:
/// the global response distribution, total + per-disk energy, and the
/// cache counters themselves.
fn render(report: &SimReport) -> String {
    let mut s = String::from("metric,value\n");
    writeln!(s, "responses,{}", report.responses.len()).unwrap();
    writeln!(s, "mean_response_s,{:.9}", report.responses.mean()).unwrap();
    writeln!(s, "p95_response_s,{:.9}", report.response_p95()).unwrap();
    writeln!(s, "p99_response_s,{:.9}", report.response_quantile(0.99)).unwrap();
    writeln!(s, "energy_j,{:.9}", report.energy.total_joules()).unwrap();
    let cache = report.cache.expect("cache stats present");
    writeln!(s, "cache_hits,{}", cache.hits).unwrap();
    writeln!(s, "cache_misses,{}", cache.misses).unwrap();
    writeln!(s, "cache_resident_bytes,{}", cache.resident_bytes).unwrap();
    writeln!(s, "cache_evicted_bytes,{}", cache.evicted_bytes).unwrap();
    writeln!(s, "cache_oversize_rejections,{}", cache.oversize_rejections).unwrap();
    writeln!(s, "cache_hit_ratio,{:.9}", cache.hit_ratio()).unwrap();
    for d in 0..report.disks {
        writeln!(
            s,
            "disk{d}_energy_j,{:.9}",
            report.per_disk_energy[d].total_joules()
        )
        .unwrap();
        writeln!(
            s,
            "disk{d}_mean_response_s,{:.9}",
            report.per_disk_responses[d].mean()
        )
        .unwrap();
        writeln!(
            s,
            "disk{d}_p95_response_s,{:.9}",
            report.per_disk_responses[d].clone().quantile(0.95)
        )
        .unwrap();
    }
    s
}

fn assert_matches_fixture(report: &SimReport, context: &str) {
    let text = std::fs::read_to_string(EXPECTED).expect("golden cache fixture present");
    let actual = render(report);
    let mut diff = String::new();
    for (exp_line, act_line) in text.lines().skip(1).zip(actual.lines().skip(1)) {
        let (ek, ev) = exp_line.split_once(',').expect("fixture row");
        let (ak, av) = act_line.split_once(',').expect("actual row");
        assert_eq!(ek, ak, "fixture metric order");
        let (e, a): (f64, f64) = (ev.parse().unwrap(), av.parse().unwrap());
        if (e - a).abs() > TOL * e.abs().max(1.0) {
            writeln!(diff, "  {ek}: expected {ev}, got {av}").unwrap();
        }
    }
    assert_eq!(
        text.lines().count(),
        actual.lines().count(),
        "fixture row count ({context})"
    );
    assert!(
        diff.is_empty(),
        "{context} diverged from the recorded cache-path behaviour:\n{diff}\n\
         If this change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test cache_equivalence"
    );
}

/// The flat-LRU cache is the fixture's source of truth: captured before
/// the trait refactor, pinned ever since — here replayed through
/// `Simulator::replay` with the fixture's timeout policy built explicitly.
#[test]
fn legacy_lru_path_matches_the_pre_trait_fixture() {
    let (catalog, assignment, cfg) = fixture();
    let cfg = cfg.with_cache_hierarchy(Some(tight_cache()));
    let trace = golden_trace();
    let report = Simulator::replay(
        &catalog,
        InMemorySource::new(&trace),
        &assignment,
        &cfg,
        assignment.disk_slots(),
        |_| Box::new(TimeoutPolicy::fixed(20.0)),
    )
    .expect("simulates");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(Path::new(EXPECTED), render(&report)).expect("fixture writable");
        panic!(
            "golden cache fixture rewritten from the current engine; review the diff, \
             commit it, and rerun without UPDATE_GOLDEN"
        );
    }
    assert_matches_fixture(&report, "replay with an explicit policy");
    // The flat cache reports itself as a one-tier hierarchy.
    assert_eq!(report.cache_tiers, Some(vec![report.cache.unwrap()]));
}

/// The tentpole pin: a single-tier LRU `CacheHierarchy` configured through
/// `with_cache_hierarchy` is the *same cache* as the original flat LRU —
/// the trait object, the tier walk and the new recording plumbing change
/// no observable number on the fixture.
#[test]
fn single_tier_lru_hierarchy_matches_the_legacy_fixture() {
    let (catalog, assignment, cfg) = fixture();
    let cfg = cfg.with_cache_hierarchy(Some(tight_cache()));
    let report = Simulator::run(&catalog, &golden_trace(), &assignment, &cfg).expect("simulates");
    assert_matches_fixture(&report, "single-tier hierarchy path");
    assert_eq!(report.cache_tiers, Some(vec![report.cache.unwrap()]));
}

/// A hit must not touch the disk: with every re-access served from cache,
/// the disk's idle clock keeps running, it spins down on schedule and
/// never wakes again — the whole point of a cache tier in the power model.
#[test]
fn cache_hits_leave_the_idle_clock_running() {
    let catalog = FileCatalog::from_parts(vec![72 * MB], vec![1.0]);
    let assignment = Assignment {
        disks: vec![DiskBin {
            items: vec![0],
            total_s: 0.0,
            total_l: 0.0,
        }],
    };
    let requests = [0.0, 30.0, 100.0, 300.0]
        .iter()
        .map(|&time| spindown::workload::trace::Request {
            time,
            file: spindown::workload::FileId(0),
        })
        .collect();
    let trace = Trace::new(requests, 600.0);
    let cfg = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_cache_hierarchy(Some(CacheHierarchyConfig::single(CacheTierConfig::dram(
            100 * MB,
            CachePolicyChoice::Lru,
        ))));
    let report = Simulator::run(&catalog, &trace, &assignment, &cfg).expect("simulates");
    let stats = report.cache.unwrap();
    assert_eq!(stats.misses, 1, "only the cold access reaches the disk");
    assert_eq!(stats.hits, 3);
    assert_eq!(report.responses.len(), 4, "every request answered");
    assert_eq!(report.spin_downs, 1, "idle clock ran out exactly once");
    assert_eq!(report.spin_ups, 0, "no hit ever woke the disk");
}

/// A second, slower tier catches what the first evicts: the hierarchy's
/// hit count exceeds the flat cache's at equal first-tier size, and the
/// per-tier stats partition the aggregate.
#[test]
fn two_tier_hierarchy_strictly_beats_its_first_tier_alone() {
    let (catalog, assignment, cfg) = fixture();
    let two_tier = CacheHierarchyConfig::new(vec![
        CacheTierConfig::dram(150 * MB, CachePolicyChoice::Lru),
        CacheTierConfig::ssd(400 * MB, CachePolicyChoice::Lru),
    ]);
    let report = Simulator::run(
        &catalog,
        &golden_trace(),
        &assignment,
        &cfg.clone().with_cache_hierarchy(Some(two_tier)),
    )
    .expect("simulates");
    let flat = Simulator::run(
        &catalog,
        &golden_trace(),
        &assignment,
        &cfg.with_cache_hierarchy(Some(tight_cache())),
    )
    .expect("simulates");
    let agg = report.cache.unwrap();
    let tiers = report.cache_tiers.unwrap();
    assert_eq!(tiers.len(), 2);
    assert_eq!(agg.hits, tiers[0].hits + tiers[1].hits);
    assert_eq!(
        agg.misses, tiers[1].misses,
        "aggregate misses = deepest tier's"
    );
    assert!(
        agg.hits > flat.cache.unwrap().hits,
        "the SSD tier must convert some first-tier evictions into hits \
         ({} vs {})",
        agg.hits,
        flat.cache.unwrap().hits
    );
}

/// A tight two-tier hierarchy under eviction pressure composes with
/// `--shards`: the reader walks it once in stream order, so the merged
/// report is bit-identical at S ∈ {1, 2, 4} — histogram metrics, energy
/// totals, per-disk tables and every cache counter.
#[test]
fn tight_two_tier_hierarchy_is_bit_identical_across_shard_counts() {
    let (catalog, assignment, cfg) = fixture();
    let hierarchy = CacheHierarchyConfig::new(vec![
        CacheTierConfig::dram(150 * MB, CachePolicyChoice::Lru),
        CacheTierConfig::ssd(300 * MB, CachePolicyChoice::slru()),
    ]);
    let cfg = cfg
        .with_metrics(MetricsMode::Histogram)
        .with_cache_hierarchy(Some(hierarchy));
    let run = |shards: usize| {
        Simulator::run(
            &catalog,
            &golden_trace(),
            &assignment,
            &cfg.clone().with_shards(shards),
        )
        .expect("simulates")
    };
    let solo = run(1);
    let stats = solo.cache.unwrap();
    assert!(stats.hits > 0, "fixture must exercise hits");
    assert!(stats.evicted_bytes > 0, "fixture must evict");
    for shards in [2usize, 4] {
        let sharded = run(shards);
        assert_eq!(solo.cache, sharded.cache, "{shards} shards: cache stats");
        assert_eq!(
            solo.cache_tiers, sharded.cache_tiers,
            "{shards} shards: per-tier stats"
        );
        assert_eq!(solo.responses.len(), sharded.responses.len());
        assert_eq!(solo.responses.mean(), sharded.responses.mean());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                solo.response_quantile(q),
                sharded.response_quantile(q),
                "{shards} shards: q{q}"
            );
        }
        assert_eq!(
            solo.energy.total_joules(),
            sharded.energy.total_joules(),
            "{shards} shards: fleet energy"
        );
        assert_eq!(solo.spin_downs, sharded.spin_downs);
        assert_eq!(solo.spin_ups, sharded.spin_ups);
        for d in 0..solo.disks {
            assert_eq!(
                solo.per_disk_energy[d].total_joules(),
                sharded.per_disk_energy[d].total_joules(),
                "{shards} shards: disk {d} energy"
            );
            assert_eq!(
                solo.per_disk_responses[d], sharded.per_disk_responses[d],
                "{shards} shards: disk {d} responses"
            );
        }
    }
}
