//! Sharded-replay equivalence (tier-1): the merged report of an S-shard
//! parallel replay is **bit-identical** to the single-threaded engine for
//! every shard count — the determinism contract that makes `--shards` a
//! pure wall-clock lever.
//!
//! Pinned here:
//!
//! 1. **Golden-trace bit-identity** — the golden fixture replayed in
//!    histogram mode at S ∈ {1, 2, 3, 8} produces the same total energy,
//!    per-state energy table, response histogram (PartialEq is bit-exact),
//!    quantiles, per-disk vectors, spin counters and peak disk queue as
//!    the unsharded run.
//! 2. **Seeded Poisson bit-identity** — the same across a 16-disk fleet
//!    with a randomised-looking seeded workload, plus the three-level
//!    ladder.
//! 3. **Exact-mode sharding** — quantiles bit-equal (same sample multiset,
//!    nearest-rank), mean within float-summation slack.
//! 4. **Degenerate shapes** — more shards than disks, a single-request
//!    trace and an undersized fleet error; caches and the completion log
//!    compose (see also `cached_shard_equivalence`).
//! 5. **Streaming demux** — `run_from_source` over a CSV reader splits the
//!    stream once and still merges bit-identically, as in-memory traces
//!    do through the same demux.
//!
//! `per_shard_event_peaks` is deliberately *not* compared: each shard
//! reports its own heap peak, so the vector's length and entries differ
//! across shard counts by design (the `peak_event_queue_max` accessor is
//! the comparable per-loop bound).

use std::io::BufReader;

use spindown::core::{Planner, PlannerConfig};
use spindown::disk::{DiskSpec, PowerLadder};
use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::{SimError, Simulator};
use spindown::sim::hierarchy::CacheHierarchyConfig;
use spindown::sim::metrics::{MetricsMode, SimReport};
use spindown::workload::{CsvTraceSource, FileCatalog, InMemorySource, Trace};

const MB: u64 = 1_000_000;
const QS: [f64; 7] = [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0];

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

/// Bit-exact comparison of everything the sharded merge promises to
/// reproduce. `per_shard_event_peaks` is excluded by design (see module
/// doc).
fn assert_reports_bit_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.sim_time_s, b.sim_time_s, "{what}: sim time");
    assert_eq!(a.disks, b.disks, "{what}: fleet size");
    assert_eq!(
        a.energy.total_joules(),
        b.energy.total_joules(),
        "{what}: total energy"
    );
    assert_eq!(
        a.energy.total_seconds(),
        b.energy.total_seconds(),
        "{what}: covered seconds"
    );
    // The whole per-state energy table, not just the totals.
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
    assert_eq!(
        a.peak_disk_queue, b.peak_disk_queue,
        "{what}: peak disk queue"
    );
    assert_eq!(a.per_disk_served, b.per_disk_served, "{what}: served");
    assert_eq!(
        a.per_disk_responses, b.per_disk_responses,
        "{what}: per-disk responses"
    );
    for (d, (x, y)) in a.per_disk_energy.iter().zip(&b.per_disk_energy).enumerate() {
        assert_eq!(x.per_state(), y.per_state(), "{what}: disk {d} energy");
    }
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

#[test]
fn golden_trace_histogram_reports_are_bit_identical_across_shard_counts() {
    let (catalog, trace, layout) = golden_fixture();
    let base = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram);
    let solo = Simulator::run(&catalog, &trace, &layout, &base).unwrap();
    assert_eq!(solo.responses.len(), trace.len());
    for shards in [1usize, 2, 3, 8] {
        let cfg = base.clone().with_shards(shards);
        let sharded = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
        assert_reports_bit_identical(&solo, &sharded, &format!("golden S={shards}"));
    }
}

#[test]
fn seeded_poisson_replay_is_bit_identical_across_shard_counts() {
    let cat = catalog(64);
    let tr = Trace::poisson(&cat, 2.0, 600.0, 0xE55C);
    let layout = assignment(64, 16);
    for ladder in [
        None,
        Some(PowerLadder::with_low_rpm(&DiskSpec::seagate_st3500630as())),
    ] {
        let mut base = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
        if let Some(ladder) = ladder.clone() {
            base.disk = DiskSpec::seagate_st3500630as().with_ladder(Some(ladder));
        }
        let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
        for shards in [2usize, 3, 8] {
            let cfg = base.clone().with_shards(shards);
            let sharded = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
            assert_reports_bit_identical(
                &solo,
                &sharded,
                &format!("poisson ladder={} S={shards}", ladder.is_some()),
            );
        }
    }
}

// Exact mode shards too: the sample multiset is identical, so nearest-rank
// quantiles, count, min and max are bit-equal; only the global mean's
// float-summation order differs (per-disk concatenation vs completion
// order).
#[test]
fn exact_mode_sharding_preserves_the_sample_multiset() {
    let cat = catalog(48);
    let tr = Trace::poisson(&cat, 1.5, 500.0, 31);
    let layout = assignment(48, 12);
    let base = SimConfig::paper_default(); // exact metrics by default
    let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
    for shards in [2usize, 5] {
        let cfg = base.clone().with_shards(shards);
        let sharded = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
        assert_eq!(solo.responses.len(), sharded.responses.len());
        for q in QS {
            assert_eq!(
                solo.response_quantile(q),
                sharded.response_quantile(q),
                "exact quantile q={q} S={shards}"
            );
        }
        let (a, b) = (solo.responses.mean(), sharded.responses.mean());
        assert!(
            (a - b).abs() <= 1e-12 * a.abs(),
            "exact mean {a} vs {b} (S={shards})"
        );
        assert_eq!(solo.responses.max(), sharded.responses.max());
        assert_eq!(solo.energy.total_joules(), sharded.energy.total_joules());
        assert_eq!(solo.per_disk_served, sharded.per_disk_served);
    }
}

#[test]
fn more_shards_than_disks_clamps_to_the_fleet() {
    let (catalog, trace, layout) = golden_fixture();
    let base = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram);
    let solo = Simulator::run(&catalog, &trace, &layout, &base).unwrap();
    // 64 shards over 3 disks: clamps to 3, still bit-identical.
    let cfg = base.clone().with_shards(64);
    let sharded = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
    assert_reports_bit_identical(&solo, &sharded, "shards >> disks");
}

#[test]
fn single_request_trace_shards_bit_identically() {
    let cat = catalog(8);
    let tr = Trace::new(
        vec![spindown::workload::Request {
            time: 12.5,
            file: spindown::workload::FileId(5),
        }],
        400.0,
    );
    let layout = assignment(8, 4);
    let base = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
    let sharded = Simulator::run(&cat, &tr, &layout, &base.clone().with_shards(3)).unwrap();
    assert_reports_bit_identical(&solo, &sharded, "single request");
    assert_eq!(sharded.responses.len(), 1);
}

#[test]
fn undersized_fleet_stays_an_explicit_error_when_sharded() {
    let cat = catalog(8);
    let tr = Trace::poisson(&cat, 0.5, 100.0, 3);
    let layout = assignment(8, 4);
    let cfg = SimConfig::paper_default().with_shards(4);
    let err = Simulator::replay(&cat, InMemorySource::new(&tr), &layout, &cfg, 2, |_| {
        Box::new(spindown::sim::policy::TimeoutPolicy::fixed(30.0))
    })
    .unwrap_err();
    assert!(matches!(
        err,
        SimError::FleetTooSmall {
            required: 4,
            fleet: 2
        }
    ));
}

// The global cache and the completion log now *compose* with sharding:
// the sharded run must reproduce the unsharded one exactly — including
// the merged cache counters and the streamed, canonically ordered
// completion records. (The eviction-free regime here makes the
// partitioned-budget cache byte-equivalent; `cached_shard_equivalence`
// pins the full matrix.)
#[test]
fn cache_and_completion_log_compose_with_sharding() {
    let cat = catalog(24);
    let tr = Trace::poisson(&cat, 1.0, 300.0, 99);
    let layout = assignment(24, 6);
    let variants: [SimConfig; 2] = [
        SimConfig::paper_default()
            .with_metrics(MetricsMode::Histogram)
            .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb())),
        SimConfig::paper_default()
            .with_metrics(MetricsMode::Histogram)
            .with_completion_log(),
    ];
    for base in variants {
        let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
        let cfg = base.clone().with_shards(4);
        let sharded = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
        assert_reports_bit_identical(&solo, &sharded, "composed");
        assert_eq!(solo.cache, sharded.cache, "merged cache counters");
        assert_eq!(solo.cache_tiers, sharded.cache_tiers, "per-tier counters");
        assert_eq!(solo.completions, sharded.completions, "completion records");
        match (&solo.completion_log, &sharded.completion_log) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.records, b.records, "log records");
                assert_eq!(a.bytes, b.bytes, "log bytes");
                assert_eq!(a.fnv1a, b.fnv1a, "log digest");
            }
            other => panic!("log summary presence diverged: {other:?}"),
        }
    }
}

// Per-disk vectors are indexed by *global* disk id whatever the shard
// count, so different shard counts agree disk by disk.
#[test]
fn per_disk_indices_are_stable_under_shard_permutation() {
    let cat = catalog(40);
    let tr = Trace::poisson(&cat, 1.0, 400.0, 55);
    let layout = assignment(40, 10);
    let base = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let two = Simulator::run(&cat, &tr, &layout, &base.clone().with_shards(2)).unwrap();
    let three = Simulator::run(&cat, &tr, &layout, &base.clone().with_shards(3)).unwrap();
    assert_eq!(two.per_disk_served, three.per_disk_served);
    assert_eq!(two.per_disk_responses, three.per_disk_responses);
    for d in 0..10 {
        assert_eq!(
            two.per_disk_energy[d].per_state(),
            three.per_disk_energy[d].per_state(),
            "disk {d}"
        );
    }
}

#[test]
fn csv_demux_run_from_source_is_bit_identical_across_shard_counts() {
    let cat = catalog(32);
    let tr = Trace::poisson(&cat, 3.0, 300.0, 0xCAFE);
    let layout = assignment(32, 8);
    let mut csv = Vec::new();
    tr.write_csv(&mut csv).unwrap();
    let base = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let run = |shards: usize| {
        let source = CsvTraceSource::from_reader(BufReader::new(csv.as_slice()), 300.0);
        let cfg = base.clone().with_shards(shards);
        // The closure would borrow `cfg` locally; run and return the report.
        Simulator::run_from_source(&cat, source, &layout, &cfg, 8).unwrap()
    };
    let solo = run(1);
    for shards in [2usize, 3, 8] {
        let sharded = run(shards);
        assert_reports_bit_identical(&solo, &sharded, &format!("demux S={shards}"));
    }
}

// The randomised ski-rental policy draws each disk's thresholds from a
// per-disk stream keyed by the *global* disk id, so the per-shard policy
// clones reproduce the unsharded draw sequences exactly and the merged
// report stays bit-identical — the satellite contract of the fault PR.
#[test]
fn ski_rental_policy_shards_bit_identically() {
    use spindown::analysis::online::SkiRentalPolicy;
    let cat = catalog(48);
    let tr = Trace::poisson(&cat, 0.6, 600.0, 0x5EED);
    let layout = assignment(48, 12);
    let base = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let spec = DiskSpec::seagate_st3500630as();
    let run = |shards: usize| {
        let cfg = base.clone().with_shards(shards);
        Simulator::replay(&cat, InMemorySource::new(&tr), &layout, &cfg, 12, |_| {
            Box::new(SkiRentalPolicy::for_drive(&spec, 77))
        })
        .unwrap()
    };
    let solo = run(1);
    assert!(solo.spin_downs > 0, "policy must actually spin disks down");
    for shards in [2usize, 3, 8] {
        let sharded = run(shards);
        assert_reports_bit_identical(&solo, &sharded, &format!("ski-rental S={shards}"));
    }
}

// The planner/sweep drivers thread `shards` through `replay`, so a
// planner evaluation is deterministic in the shard count too.
#[test]
fn planner_evaluation_is_shard_count_invariant() {
    let cat = catalog(30);
    let tr = Trace::poisson(&cat, 0.8, 400.0, 21);
    let mut cfg = PlannerConfig::default();
    cfg.sim = cfg.sim.with_metrics(MetricsMode::Histogram);
    let planner = Planner::new(cfg.clone());
    let plan = planner.plan(&cat, 0.8).expect("plans");
    let solo = planner.evaluate(&plan, &cat, &tr).expect("evaluates");
    let mut cfg2 = cfg;
    cfg2.sim = cfg2.sim.with_shards(3);
    let sharded = Planner::new(cfg2)
        .evaluate(&plan, &cat, &tr)
        .expect("evaluates sharded");
    assert_reports_bit_identical(&solo, &sharded, "planner S=3");
}
