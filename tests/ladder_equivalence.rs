//! Ladder-collapse equivalence (tier-1): the N-level power-ladder engine,
//! collapsed to two levels, *is* the legacy two-state engine — bit for
//! bit, across queue disciplines.
//!
//! Two collapses are pinned:
//!
//! 1. **Representation collapse** — an explicit two-level ladder carrying
//!    the same values as a spec's scalar spin-down/up fields replays
//!    bit-identically to the spec with no ladder at all (the derived
//!    default), for randomised specs, traces and all three disciplines.
//! 2. **Depth collapse** — a three-level ladder whose policy only ever
//!    descends to level 1 replays bit-identically to a two-state drive
//!    whose single saving level *is* that level (same draws, entry and
//!    exit transitions), so intermediate levels cost exactly nothing
//!    until a policy chooses to pass through them.

use proptest::prelude::*;
use spindown::core::DisciplineChoice;
use spindown::disk::{DiskSpec, DiskSpecBuilder, PowerLadder};
use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::metrics::SimReport;
use spindown::sim::policy::{DescentStep, PowerPolicy};
use spindown::workload::{FileCatalog, InMemorySource, Trace};

const MB: u64 = 1_000_000;

fn catalog(n: usize) -> FileCatalog {
    let sizes: Vec<u64> = (0..n).map(|i| (1 + (i % 96) as u64) * MB).collect();
    let pop = vec![1.0 / n as f64; n];
    FileCatalog::from_parts(sizes, pop)
}

fn assignment(files: usize, disks: usize) -> Assignment {
    let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
    for f in 0..files {
        bins[f % disks].items.push(f);
    }
    Assignment { disks: bins }
}

fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.sim_time_s, b.sim_time_s, "{what}: sim time");
    assert_eq!(
        a.energy.total_joules(),
        b.energy.total_joules(),
        "{what}: energy"
    );
    assert_eq!(
        a.energy.total_seconds(),
        b.energy.total_seconds(),
        "{what}: covered seconds"
    );
    assert_eq!(a.responses, b.responses, "{what}: responses");
    assert_eq!(a.spin_downs, b.spin_downs, "{what}: spin-downs");
    assert_eq!(a.spin_ups, b.spin_ups, "{what}: spin-ups");
    assert_eq!(a.per_disk_served, b.per_disk_served, "{what}: served");
    for (x, y) in a.per_disk_energy.iter().zip(&b.per_disk_energy) {
        assert_eq!(x.total_joules(), y.total_joules(), "{what}: disk energy");
    }
}

fn disciplines() -> [DisciplineChoice; 3] {
    [
        DisciplineChoice::Fifo,
        DisciplineChoice::sjf(),
        DisciplineChoice::ElevatorBatch,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Collapse 1: explicit two-level ladder ≡ derived default, for
    // randomised drive constants, traces and every discipline.
    #[test]
    fn explicit_two_state_ladder_replays_bit_identically(
        idle_w in 4.0f64..16.0,
        standby_frac in 0.05f64..0.6,
        down_w in 2.0f64..20.0,
        up_w in 10.0f64..30.0,
        down_s in 2.0f64..15.0,
        up_s in 5.0f64..25.0,
        threshold in 5.0f64..90.0,
        rate in 0.05f64..0.5,
        seed in 0u64..1_000,
    ) {
        let spec = DiskSpecBuilder::new()
            .idle_power_w(idle_w)
            .standby_power_w(idle_w * standby_frac)
            .spin_down_power_w(down_w)
            .spin_up_power_w(up_w)
            .spin_down_time_s(down_s)
            .spin_up_time_s(up_s)
            .build()
            .expect("randomised spec valid");
        let cat = catalog(24);
        let tr = Trace::poisson(&cat, rate, 500.0, seed);
        let layout = assignment(24, 3);
        for discipline in disciplines() {
            let mut derived = SimConfig::paper_default()
                .with_threshold(ThresholdPolicy::Fixed(threshold))
                .with_discipline(discipline);
            derived.disk = spec.clone();
            let explicit = derived
                .clone()
                .with_ladder(Some(PowerLadder::two_state(&spec)));
            let rd = Simulator::run(&cat, &tr, &layout, &derived).expect("derived runs");
            let re = Simulator::run(&cat, &tr, &layout, &explicit).expect("explicit runs");
            assert_reports_identical(&rd, &re, &format!("{discipline:?}"));
        }
    }
}

/// A policy that descends exactly one level after a fixed rest — the
/// "hold at the intermediate level" schedule of collapse 2.
struct OneLevel {
    rest_s: f64,
}

impl PowerPolicy for OneLevel {
    fn name(&self) -> String {
        "one_level".into()
    }
    fn settled(&mut self, _disk: usize, level: u8, _t: f64) -> Option<DescentStep> {
        (level == 0).then(|| DescentStep::to_level(self.rest_s, 1))
    }
}

/// Collapse 2: a three-level ladder whose policy holds at level 1 is the
/// two-state drive whose saving level is level 1, bit for bit.
#[test]
fn three_level_ladder_held_at_level_one_collapses_to_two_state() {
    let base = DiskSpec::seagate_st3500630as();
    let three = PowerLadder::with_low_rpm(&base);
    let low = three.level(1).clone();
    // The two-state drive whose standby *is* the low-RPM level.
    let two_spec = base
        .clone()
        .to_builder()
        .standby_power_w(low.power_w)
        .spin_down_time_s(low.entry_time_s)
        .spin_down_power_w(low.entry_power_w)
        .spin_up_time_s(low.exit_time_s)
        .spin_up_power_w(low.exit_power_w)
        .build()
        .expect("low-RPM two-state spec valid");
    let three_spec = base.with_ladder(Some(three));

    let cat = catalog(24);
    let layout = assignment(24, 3);
    for (rate, seed) in [(0.05, 11u64), (0.2, 12), (0.5, 13)] {
        let tr = Trace::poisson(&cat, rate, 600.0, seed);
        for discipline in disciplines() {
            let mut cfg3 = SimConfig::paper_default().with_discipline(discipline);
            cfg3.disk = three_spec.clone();
            let mut cfg2 = cfg3.clone();
            cfg2.disk = two_spec.clone();
            let r3 = Simulator::replay(&cat, InMemorySource::new(&tr), &layout, &cfg3, 3, |_| {
                Box::new(OneLevel { rest_s: 20.0 })
            })
            .expect("three-level run");
            let r2 = Simulator::replay(&cat, InMemorySource::new(&tr), &layout, &cfg2, 3, |_| {
                Box::new(OneLevel { rest_s: 20.0 })
            })
            .expect("two-state run");
            assert_reports_identical(&r3, &r2, &format!("rate {rate} {discipline:?}"));
        }
    }
}

/// Per-level energy accounting across the sim report: the table-driven
/// iteration covers every state a three-level replay visits and sums
/// exactly to the totals.
#[test]
fn three_level_report_energy_partitions_exactly() {
    let base = DiskSpec::seagate_st3500630as();
    let cfg = {
        let ladder = PowerLadder::with_low_rpm(&base);
        let mut cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(15.0));
        cfg.disk = base.with_ladder(Some(ladder));
        cfg
    };
    let cat = catalog(24);
    let layout = assignment(24, 3);
    let tr = Trace::poisson(&cat, 0.03, 2_000.0, 99);
    let report = Simulator::run(&cat, &tr, &layout, &cfg).expect("simulates");
    // Time partitions across disks exactly.
    let covered = report.energy.total_seconds();
    let expected = report.sim_time_s * report.disks as f64;
    assert!((covered - expected).abs() < 1e-6 * expected);
    // The per-state table covers the deep states and sums bit-exactly.
    let rows = report.energy.per_state();
    let sum_s: f64 = rows.iter().map(|(_, s, _)| s).sum();
    let sum_j: f64 = rows.iter().map(|(_, _, j)| j).sum();
    assert_eq!(sum_s, report.energy.total_seconds());
    assert_eq!(sum_j, report.energy.total_joules());
    use spindown::disk::PowerState;
    assert!(report.fleet_seconds_in(PowerState::Sleeping(2)) > 0.0);
    assert!(report.fleet_seconds_in(PowerState::Descending(1)) > 0.0);
    assert!(report.fleet_seconds_in(PowerState::Descending(2)) > 0.0);
}
