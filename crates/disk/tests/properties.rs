//! Property-based tests for the drive model: energy integration against a
//! brute-force reference, state-machine legality under random walks, and
//! break-even analysis consistency.

use proptest::prelude::*;
use spindown_disk::energy::EnergyAccountant;
use spindown_disk::ladder::{PowerLadder, PowerLevel};
use spindown_disk::mechanics::ServiceTimer;
use spindown_disk::power::{power_of, PowerState};
use spindown_disk::{
    break_even_threshold, break_even_threshold_between, transition_energy_overhead, DiskSpec,
    DiskSpecBuilder, DiskStateMachine,
};

/// Net energy saved by spinning down for an idle gap of `gap_s` seconds
/// instead of idling through it (the spin-up is charged to the gap).
fn spin_down_gain(spec: &DiskSpec, gap_s: f64) -> f64 {
    let transit = spec.spin_down_time_s + spec.spin_up_time_s;
    let standby_s = (gap_s - transit).max(0.0);
    let sleep_cost = transition_energy_overhead(spec) + standby_s * spec.standby_power_w;
    spec.idle_power_w * gap_s - sleep_cost
}

/// The gap above which [`spin_down_gain`] becomes positive.
fn offline_break_even_gap(spec: &DiskSpec) -> f64 {
    let e_over = transition_energy_overhead(spec);
    let transit = spec.spin_down_time_s + spec.spin_up_time_s;
    let short = e_over / spec.idle_power_w;
    if short <= transit {
        short
    } else {
        (e_over - transit * spec.standby_power_w) / (spec.idle_power_w - spec.standby_power_w)
    }
}

fn state_strategy() -> impl Strategy<Value = PowerState> {
    prop_oneof![
        Just(PowerState::Active),
        Just(PowerState::Seek),
        Just(PowerState::Idle),
        Just(PowerState::Standby),
        Just(PowerState::SpinningUp),
        Just(PowerState::SpinningDown),
    ]
}

/// A spec with randomized but physically sensible parameters.
fn spec_strategy() -> impl Strategy<Value = DiskSpec> {
    (
        1.0f64..30.0,  // idle power
        0.01f64..0.99, // standby as fraction of idle
        1.0f64..40.0,  // spin-up power
        1.0f64..30.0,  // spin-down power
        1.0f64..30.0,  // spin-up time
        1.0f64..20.0,  // spin-down time
    )
        .prop_map(|(idle, standby_frac, up_w, down_w, up_s, down_s)| {
            DiskSpecBuilder::new()
                .idle_power_w(idle)
                .standby_power_w(idle * standby_frac)
                .spin_up_power_w(up_w)
                .spin_down_power_w(down_w)
                .spin_up_time_s(up_s)
                .spin_down_time_s(down_s)
                .build()
                .expect("randomized spec valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accountant_matches_brute_force(
        segments in prop::collection::vec((0.0f64..100.0, state_strategy()), 1..40)
    ) {
        let spec = DiskSpec::seagate_st3500630as();
        let mut acc = EnergyAccountant::new(spec.clone(), 0.0, PowerState::Idle);
        let mut t = 0.0;
        let mut expected = 0.0;
        let mut current = PowerState::Idle;
        for (dt, next) in segments {
            expected += power_of(&spec, current) * dt;
            t += dt;
            acc.transition(t, next).unwrap();
            current = next;
        }
        acc.finish(t).unwrap();
        prop_assert!((acc.breakdown().total_joules() - expected).abs() < 1e-6);
        prop_assert!((acc.breakdown().total_seconds() - t).abs() < 1e-6);
    }

    #[test]
    fn state_machine_energy_never_below_standby_floor(
        idle_gaps in prop::collection::vec(30.0f64..500.0, 1..20)
    ) {
        // A disk that repeatedly sleeps through gaps must still consume at
        // least the standby floor and at most the idle ceiling.
        let spec = DiskSpec::seagate_st3500630as();
        let mut m = DiskStateMachine::new(spec.clone(), 0.0);
        let mut t = 0.0;
        for gap in &idle_gaps {
            let down = m.begin_spin_down(t).unwrap();
            m.transition(down, PowerState::Standby).unwrap();
            let wake = down + gap;
            let up = m.begin_spin_up(wake).unwrap();
            m.transition(up, PowerState::Idle).unwrap();
            t = up;
        }
        let b = m.finish(t).unwrap();
        let total = b.total_seconds();
        prop_assert!(b.total_joules() >= spec.standby_power_w * total - 1e-6);
        prop_assert!(b.total_joules() <= spec.spin_up_power_w * total + 1e-6);
        prop_assert_eq!(b.seconds_in(PowerState::Active), 0.0);
    }

    #[test]
    fn break_even_is_where_gain_changes_sign(spec in spec_strategy()) {
        let g = offline_break_even_gap(&spec);
        prop_assert!(g > 0.0);
        prop_assert!(spin_down_gain(&spec, g * 0.9) < 1e-9);
        prop_assert!(spin_down_gain(&spec, g * 1.1) > -1e-9);
    }

    #[test]
    fn break_even_threshold_positive_and_shrinks_with_sleep_depth(spec in spec_strategy()) {
        let t = break_even_threshold(&spec);
        prop_assert!(t > 0.0 && t.is_finite());
        // A deeper standby (lower standby power) can only shorten the
        // break-even time.
        let mut deeper = spec.clone();
        deeper.standby_power_w *= 0.5;
        prop_assert!(break_even_threshold(&deeper) <= t + 1e-12);
    }

    #[test]
    fn service_time_is_additive_in_bytes(a in 0u64..10_000_000_000, b in 0u64..10_000_000_000) {
        let timer = ServiceTimer::new(&DiskSpec::seagate_st3500630as());
        // transfer component is linear; positioning is charged once per call
        let lhs = timer.transfer_time(a) + timer.transfer_time(b);
        let rhs = timer.transfer_time(a + b);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn spin_down_gain_monotone_in_gap(spec in spec_strategy(), g1 in 0.0f64..5_000.0, g2 in 0.0f64..5_000.0) {
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        prop_assert!(spin_down_gain(&spec, lo) <= spin_down_gain(&spec, hi) + 1e-9);
    }

    #[test]
    fn illegal_transitions_always_rejected(from in state_strategy(), to in state_strategy()) {
        // Build a machine coaxed into `from`, then attempt `to` and verify
        // acceptance matches the documented edge set. (The legacy state
        // names are associated consts of the ladder-general enum now, so
        // the edge table is written with tuple equality, not patterns —
        // an unqualified `Standby` in a pattern would *bind*, not match.)
        let spec = DiskSpec::seagate_st3500630as();
        let mut m = DiskStateMachine::new(spec.clone(), 0.0);
        let mut t = 0.0;
        // Drive into `from` through legal edges.
        let reached = if from == PowerState::Idle {
            true
        } else if from == PowerState::Seek {
            m.transition(t, PowerState::Seek).is_ok()
        } else if from == PowerState::Active {
            m.transition(t, PowerState::Active).is_ok()
        } else if from == PowerState::SpinningDown {
            m.begin_spin_down(t).is_ok()
        } else if from == PowerState::Standby {
            let d = m.begin_spin_down(t).unwrap();
            t = d;
            m.transition(t, PowerState::Standby).is_ok()
        } else {
            // SpinningUp
            let d = m.begin_spin_down(t).unwrap();
            t = d;
            m.transition(t, PowerState::Standby).unwrap();
            m.begin_spin_up(t).is_ok()
        };
        prop_assert!(reached);
        let legal_edges = [
            (PowerState::Idle, PowerState::Seek),
            (PowerState::Idle, PowerState::Active),
            (PowerState::Idle, PowerState::SpinningDown),
            (PowerState::Seek, PowerState::Active),
            (PowerState::Seek, PowerState::Idle),
            (PowerState::Active, PowerState::Idle),
            (PowerState::Active, PowerState::Seek),
            (PowerState::SpinningDown, PowerState::Standby),
            (PowerState::Standby, PowerState::SpinningUp),
            (PowerState::SpinningUp, PowerState::Idle),
            // Failed spin-up: the drive falls back to the level it was
            // waking from (SpinningUp = Waking(1), Standby = Sleeping(1)).
            (PowerState::SpinningUp, PowerState::Standby),
        ];
        let legal = legal_edges.contains(&(from, to));
        // Attempt at a time far enough in the future that transitional
        // durations are satisfied.
        let attempt = m.transition(t + 1_000.0, to);
        prop_assert_eq!(attempt.is_ok(), legal, "edge {:?}->{:?}", from, to);
    }

    // Satellite invariant of the ladder refactor: for any *valid* ladder
    // (one that passes the lower-envelope validation), per-level
    // break-even thresholds are strictly monotone — descending to a
    // deeper level always takes longer to pay off, from any starting
    // level.
    #[test]
    fn deeper_levels_have_monotone_break_evens(
        spec in spec_strategy(),
        power_frac in 0.05f64..0.95,
        entry_frac in 0.1f64..0.9,
        exit_frac in 0.1f64..0.9,
        exit_power_frac in 0.3f64..1.0,
    ) {
        let two = PowerLadder::two_state(&spec);
        let low = PowerLevel {
            name: "lowrpm".to_owned(),
            power_w: spec.standby_power_w
                + power_frac * (spec.idle_power_w - spec.standby_power_w),
            entry_time_s: entry_frac * spec.spin_down_time_s,
            entry_power_w: spec.idle_power_w,
            exit_time_s: exit_frac * spec.spin_up_time_s,
            exit_power_w: exit_power_frac * spec.spin_up_power_w,
            service_rate_factor: 1.0,
        };
        let candidate = vec![
            two.levels()[0].clone(),
            low,
            two.levels()[1].clone(),
        ];
        // Only ladders that pass validation make any monotonicity promise
        // — dominated middle levels are rejected up front.
        let Ok(ladder) = PowerLadder::new(candidate) else {
            return Ok(());
        };
        let spec = spec.clone().with_ladder(Some(ladder.clone()));
        for from in 0..ladder.deepest() {
            let mut last = 0.0;
            for to in (from + 1)..=ladder.deepest() {
                let t = break_even_threshold_between(&spec, from, to);
                prop_assert!(
                    t.is_finite() && t > last,
                    "T({from},{to}) = {t} not past {last}"
                );
                last = t;
            }
        }
        // The envelope descent schedule is strictly increasing too.
        let times = spindown_disk::envelope_descent_times(&ladder);
        prop_assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        // And the (0, deepest) case is the drive's aggregate threshold.
        prop_assert_eq!(
            break_even_threshold_between(&spec, 0, ladder.deepest()),
            break_even_threshold(&spec)
        );
    }
}
