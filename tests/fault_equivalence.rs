//! Fault-injection equivalence (tier-1): the two determinism contracts of
//! the fault injector.
//!
//! 1. **No-fault bit-identity** — a configuration whose fault plan is
//!    [`FaultPlan::none`] (explicitly, via knob-only specs, or via
//!    `FaultChoice::parse("none")`) replays **bit-identically** to the
//!    legacy engine that predates fault injection, on the golden fixture
//!    and on a seeded Poisson fleet, at S ∈ {1, 2, 8}. The fault hooks
//!    are all behind one `Option`: the fault-free path never constructs a
//!    runtime, draws no random numbers and touches no counters.
//! 2. **Faulted shard-invariance** — an *active* fault plan keys every
//!    per-disk random stream by the **global** disk id, so the merged
//!    S-shard report (responses, energy, availability counters, per-disk
//!    downtime, degraded responses) is bit-identical to the unsharded
//!    run, in both metrics modes.

use std::io::BufReader;

use spindown::core::FaultChoice;
use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::metrics::{MetricsMode, SimReport};
use spindown::workload::{FaultPlan, FileCatalog, Trace};

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

/// Bit-exact comparison of everything the no-fault pin promises (the
/// shard-equivalence twin, minus `per_shard_event_peaks` — see that
/// module).
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
}

/// The no-fault plans that must all take the legacy fast path: the
/// default, an explicit `none()`, a knob-only spec (recovery parameters
/// without any enabled failure mode), and the parsed `"none"` choice.
fn no_fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("default", FaultPlan::default()),
        ("explicit none()", FaultPlan::none()),
        (
            "knobs only",
            FaultPlan::parse("mttr=120 | retries=9 | backoff=4").expect("knob-only spec parses"),
        ),
        ("parsed none", FaultChoice::parse("none").unwrap().plan()),
    ]
}

#[test]
fn no_fault_plan_is_bit_identical_to_legacy_on_the_golden_trace() {
    let (catalog, trace, layout) = golden_fixture();
    let base = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(20.0))
        .with_metrics(MetricsMode::Histogram);
    let legacy = Simulator::run(&catalog, &trace, &layout, &base).unwrap();
    assert!(legacy.availability.is_none(), "legacy run has no stats");
    for (what, plan) in no_fault_plans() {
        for shards in [1usize, 2, 8] {
            let mut cfg = base.clone().with_shards(shards);
            cfg.faults = plan.clone();
            let report = Simulator::run(&catalog, &trace, &layout, &cfg).unwrap();
            assert!(
                report.availability.is_none(),
                "golden {what} S={shards}: no-fault runs must not grow stats"
            );
            assert_reports_bit_identical(&legacy, &report, &format!("golden {what} S={shards}"));
        }
    }
}

#[test]
fn no_fault_plan_is_bit_identical_to_legacy_on_seeded_poisson() {
    let cat = catalog(64);
    let tr = Trace::poisson(&cat, 2.0, 600.0, 0xFA017);
    let layout = assignment(64, 16);
    let base = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let legacy = Simulator::run(&cat, &tr, &layout, &base).unwrap();
    for (what, plan) in no_fault_plans() {
        for shards in [1usize, 2, 8] {
            let mut cfg = base.clone().with_shards(shards);
            cfg.faults = plan.clone();
            let report = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
            assert!(report.availability.is_none());
            assert_reports_bit_identical(&legacy, &report, &format!("poisson {what} S={shards}"));
        }
    }
}

/// An *active* plan: sharded replays merge bit-identically (responses,
/// energy, availability counters, per-disk downtime and the degraded
/// collector, all folded in global disk order), in both metrics modes.
#[test]
fn faulted_replay_is_bit_identical_across_shard_counts() {
    let cat = catalog(64);
    // Sparse enough that disks sleep and wake repeatedly under the fixed
    // 20 s threshold — so every failure mode gets exercised.
    let tr = Trace::poisson(&cat, 1.0, 900.0, 0xFA111);
    let layout = assignment(64, 16);
    for mode in [MetricsMode::Histogram, MetricsMode::Exact] {
        let mut base = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Fixed(20.0))
            .with_metrics(mode);
        base.faults = FaultPlan::parse(
            "transient:p=0.02 | wakefail:p=0.2 | crash@t=300:d5 | mttr=150 | seed=9",
        )
        .expect("active spec parses");
        let solo = Simulator::run(&cat, &tr, &layout, &base).unwrap();
        let a = solo.availability.as_ref().expect("faulted run has stats");
        assert!(
            a.conservation_holds(),
            "arrivals balance the outcome buckets"
        );
        assert!(a.crashes >= 1, "the scheduled crash fires");
        assert!(a.retried > 0, "2% flakes over ~900 requests retry");
        assert!(a.availability < 1.0, "the crash costs downtime");
        assert!(a.degraded.len() > 1, "several degraded completions");
        for shards in [2usize, 3, 8] {
            let what = format!("{mode:?} S={shards}");
            let cfg = base.clone().with_shards(shards);
            let sharded = Simulator::run(&cat, &tr, &layout, &cfg).unwrap();
            assert_reports_bit_identical(&solo, &sharded, &format!("faulted {what}"));
            let b = sharded.availability.as_ref().expect("merged stats");
            assert_eq!(a.arrivals, b.arrivals, "{what}: arrivals");
            assert_eq!(a.completed, b.completed, "{what}: completed");
            assert_eq!(a.retried, b.retried, "{what}: retried");
            assert_eq!(a.shed, b.shed, "{what}: shed");
            assert_eq!(a.failed, b.failed, "{what}: failed");
            assert_eq!(a.wake_failures, b.wake_failures, "{what}: wake failures");
            assert_eq!(a.crashes, b.crashes, "{what}: crashes");
            assert_eq!(a.in_flight, b.in_flight, "{what}: in flight");
            assert_eq!(a.availability, b.availability, "{what}: availability");
            assert_eq!(
                a.per_disk_downtime_s, b.per_disk_downtime_s,
                "{what}: per-disk downtime"
            );
            assert_eq!(a.degraded, b.degraded, "{what}: degraded collector");
            assert_eq!(
                a.degraded.mean().to_bits(),
                b.degraded.mean().to_bits(),
                "{what}: degraded mean {} vs {}",
                a.degraded.mean(),
                b.degraded.mean()
            );
            assert_eq!(a.degraded_p95(), b.degraded_p95(), "{what}: degraded p95");
        }
    }
}
