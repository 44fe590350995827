//! Cross-policy integration invariants: replay a NERSC-style trace under
//! *every* spin-down policy the workspace ships and check the global
//! accounting that must hold regardless of policy — energy–time
//! conservation, complete request accounting, bounded fleet power — plus
//! reproducibility of the randomised ski-rental policy under a fixed seed.

use spindown::core::{Planner, PlannerConfig, PolicyChoice};
use spindown::disk::PowerState;
use spindown::sim::config::ThresholdPolicy;
use spindown::sim::engine::Simulator;
use spindown::sim::metrics::SimReport;
use spindown::workload::nersc::{self, NerscConfig};
use spindown::workload::InMemorySource;

/// Every policy family the workspace ships, one representative each.
fn all_policies() -> Vec<PolicyChoice> {
    vec![
        PolicyChoice::Threshold(ThresholdPolicy::Fixed(120.0)),
        PolicyChoice::Threshold(ThresholdPolicy::BreakEven),
        PolicyChoice::Threshold(ThresholdPolicy::Never),
        PolicyChoice::SkiRental { seed: 0xDECAF },
        PolicyChoice::Adaptive { alpha: 0.5 },
        PolicyChoice::EnvelopeDescent,
        PolicyChoice::lower_envelope(),
    ]
}

struct Fixture {
    workload: nersc::NerscWorkload,
    planner: Planner,
    plan: spindown::core::Plan,
    fleet: usize,
}

/// A shrunken NERSC-style replay: same generator and statistics family as
/// §5.1, scaled down for test time.
fn fixture() -> Fixture {
    let cfg = NerscConfig::paper_scaled(40);
    let workload = nersc::generate(&cfg, 20_260_729);
    let planner = Planner::new(PlannerConfig::default());
    let plan = planner
        .plan(&workload.catalog, cfg.arrival_rate())
        .expect("NERSC-style catalog packs");
    let fleet = plan.disk_slots() + 2; // a couple of empty disks, like §5.1
    Fixture {
        workload,
        planner,
        plan,
        fleet,
    }
}

fn run(f: &Fixture, policy: PolicyChoice) -> SimReport {
    Simulator::replay(
        &f.workload.catalog,
        InMemorySource::new(&f.workload.trace),
        &f.plan.assignment,
        &f.planner.config().sim,
        f.fleet,
        |_| policy.build(&f.planner.config().sim.disk),
    )
    .expect("replay succeeds")
}

#[test]
fn every_policy_conserves_energy_time_and_requests() {
    let f = fixture();
    let spec = &f.planner.config().sim.disk;
    for policy in all_policies() {
        let report = run(&f, policy);
        // Σ per-state seconds = disks × sim_time — no time leaks, ever.
        let covered = report.energy.total_seconds();
        let expected = report.sim_time_s * report.disks as f64;
        assert!(
            (covered - expected).abs() < 1e-6 * expected.max(1.0),
            "{}: covered {covered}s vs {expected}s",
            policy.label()
        );
        // Every request is answered exactly once.
        assert_eq!(
            report.responses.len(),
            f.workload.trace.len(),
            "{} dropped requests",
            policy.label()
        );
        // Fleet power stays within the physical envelope.
        let joules = report.energy.total_joules();
        assert!(
            joules >= spec.standby_power_w * covered - 1e-6,
            "{} below standby floor",
            policy.label()
        );
        assert!(
            joules <= spec.spin_up_power_w * covered + 1e-6,
            "{} above spin-up ceiling",
            policy.label()
        );
        // Transition bookkeeping stays paired.
        assert!(report.spin_ups <= report.spin_downs, "{}", policy.label());
        // Streamed arrivals keep the event heap fleet-bound even on this
        // larger replay.
        assert!(
            report.peak_event_queue_max() <= 4 * report.disks + 4,
            "{}: peak {} for {} disks",
            policy.label(),
            report.peak_event_queue_max(),
            report.disks
        );
    }
}

#[test]
fn every_policy_conserves_on_the_three_state_ladder_too() {
    // The same global accounting must hold when the fleet runs the
    // three-level (idle / low-RPM / standby) ladder: time partitions
    // exactly across the per-level states, every request is answered, and
    // the per-state table sums to the totals with nothing dropped.
    let f = fixture();
    let mut sim = f.planner.config().sim.clone();
    let ladder = spindown::disk::PowerLadder::with_low_rpm(&sim.disk);
    sim = sim.with_ladder(Some(ladder));
    for policy in all_policies() {
        let report = Simulator::replay(
            &f.workload.catalog,
            InMemorySource::new(&f.workload.trace),
            &f.plan.assignment,
            &sim,
            f.fleet,
            |_| policy.build(&sim.disk),
        )
        .expect("three-state replay succeeds");
        let covered = report.energy.total_seconds();
        let expected = report.sim_time_s * report.disks as f64;
        assert!(
            (covered - expected).abs() < 1e-6 * expected.max(1.0),
            "{}: covered {covered}s vs {expected}s",
            policy.label()
        );
        assert_eq!(report.responses.len(), f.workload.trace.len());
        // Table-driven per-state iteration covers every ladder slot: its
        // sums equal the totals bit-for-bit (the satellite contract — a
        // ladder adding levels can never silently drop energy).
        let rows = report.energy.per_state();
        let sum_s: f64 = rows.iter().map(|(_, s, _)| s).sum();
        let sum_j: f64 = rows.iter().map(|(_, _, j)| j).sum();
        assert_eq!(sum_s, report.energy.total_seconds(), "{}", policy.label());
        assert_eq!(sum_j, report.energy.total_joules(), "{}", policy.label());
    }
    // The envelope policies actually use the intermediate level on this
    // sparse replay (it pays off before standby does).
    let report = Simulator::replay(
        &f.workload.catalog,
        InMemorySource::new(&f.workload.trace),
        &f.plan.assignment,
        &sim,
        f.fleet,
        |_| PolicyChoice::EnvelopeDescent.build(&sim.disk),
    )
    .expect("three-state replay succeeds");
    assert!(report.energy.seconds_in(PowerState::Sleeping(1)) > 0.0);
    assert!(report.energy.seconds_in(PowerState::Sleeping(2)) > 0.0);
}

#[test]
fn never_policy_is_the_sleepless_baseline() {
    let f = fixture();
    let report = run(&f, PolicyChoice::never());
    assert_eq!(report.spin_downs, 0);
    assert_eq!(report.spin_ups, 0);
    assert_eq!(report.energy.seconds_in(PowerState::Standby), 0.0);
}

#[test]
fn sleeping_policies_save_energy_on_the_sparse_nersc_replay() {
    // NERSC arrivals are sparse (≈0.045/s over ~90 disks): long idle gaps,
    // so every policy that sleeps must beat the never-spin-down baseline.
    let f = fixture();
    let e_never = run(&f, PolicyChoice::never()).energy.total_joules();
    for policy in [
        PolicyChoice::break_even(),
        PolicyChoice::SkiRental { seed: 0xDECAF },
        PolicyChoice::Adaptive { alpha: 0.5 },
    ] {
        let e = run(&f, policy).energy.total_joules();
        assert!(
            e < 0.8 * e_never,
            "{} saved only {:.1}%",
            policy.label(),
            (1.0 - e / e_never) * 100.0
        );
    }
}

#[test]
fn randomised_ski_rental_replays_bit_identically_under_a_fixed_seed() {
    let f = fixture();
    let choice = PolicyChoice::SkiRental { seed: 77 };
    let a = run(&f, choice);
    let b = run(&f, choice);
    assert_eq!(a.energy.total_joules(), b.energy.total_joules());
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.spin_downs, b.spin_downs);
    assert_eq!(a.spin_ups, b.spin_ups);
    assert_eq!(a.per_disk_served, b.per_disk_served);
    // A different seed draws different thresholds somewhere in the replay.
    let c = run(&f, PolicyChoice::SkiRental { seed: 78 });
    assert!(
        c.energy.total_joules() != a.energy.total_joules()
            || c.spin_downs != a.spin_downs
            || c.responses != a.responses,
        "distinct seeds produced identical replays"
    );
}
