//! Break-even ("idleness threshold") analysis.
//!
//! The paper (following Pinheiro & Bianchini) sets the idleness threshold "to
//! be equal to the time that the disk has to be in the standby mode in order
//! to save the same amount of power that will be consumed by spinning it down
//! to standby mode and subsequently spinning it up to the active mode".
//!
//! Concretely: transitioning costs
//! `E_over = t_down · P_down + t_up · P_up` joules, and every second in
//! standby saves `P_idle − P_standby` watts relative to idling. The
//! break-even standby duration is therefore
//!
//! ```text
//! T_be = (t_down · P_down + t_up · P_up) / (P_idle − P_standby)
//! ```
//!
//! For the Table 2 drive: `(10·9.3 + 15·24) / (9.3 − 0.8) = 453 / 8.5 =
//! 53.29 s` — the paper's 53.3 s. That this falls out of the model is the
//! main cross-check that our power constants are wired correctly.

use crate::ladder::PowerLadder;
use crate::spec::DiskSpec;

/// Energy overhead (joules) of one spin-down/spin-up cycle, excluding any
/// time actually spent in standby. For a drive with an explicit ladder
/// this is the full descent to (and wake from) the deepest level.
pub fn transition_energy_overhead(spec: &DiskSpec) -> f64 {
    match &spec.ladder {
        Some(ladder) => ladder.descent_overhead_j(ladder.deepest()),
        None => {
            spec.spin_down_time_s * spec.spin_down_power_w
                + spec.spin_up_time_s * spec.spin_up_power_w
        }
    }
}

/// The break-even idleness threshold in seconds (see module docs).
///
/// A disk idle for longer than this should have been spun down; the paper
/// uses this value (53.3 s for Table 2) as the default idleness threshold.
/// Generalised over the ladder, this is
/// [`break_even_threshold_between`]`(spec, 0, deepest)` — for the
/// canonical two-state ladder, exactly the paper's formula.
pub fn break_even_threshold(spec: &DiskSpec) -> f64 {
    match &spec.ladder {
        Some(_) => break_even_threshold_between(spec, 0, spec.deepest_level()),
        None => transition_energy_overhead(spec) / (spec.idle_power_w - spec.standby_power_w),
    }
}

/// Extra transition energy (joules) of descending from resident level
/// `from` down to level `to` and eventually waking from there, over
/// staying at `from` and waking from `from`: every entry transition on the
/// way down plus the *difference* in exit costs. For `(0, deepest)` on the
/// two-state ladder this is [`transition_energy_overhead`].
pub fn transition_energy_between(spec: &DiskSpec, from: u8, to: u8) -> f64 {
    assert!(from < to, "descend requires from < to (got {from} → {to})");
    let ladder = spec.power_ladder();
    assert!(
        (to as usize) < ladder.len(),
        "level {to} beyond the ladder's deepest level {}",
        ladder.deepest()
    );
    ladder.descent_overhead_j(to) - ladder.descent_overhead_j(from)
}

/// The break-even residency (seconds) that makes descending from level
/// `from` to level `to` pay off: the extra transition energy divided by
/// the power saved per second of residency at `to` instead of `from`.
///
/// Subsumes [`break_even_threshold`] as the `(0, deepest)` case for the
/// two-state ladder. Valid (lower-envelope) ladders guarantee this is
/// strictly increasing in `to` for any fixed `from` — deeper levels take
/// longer to pay off (property-tested in `tests/properties.rs`).
pub fn break_even_threshold_between(spec: &DiskSpec, from: u8, to: u8) -> f64 {
    let ladder = spec.power_ladder();
    transition_energy_between(spec, from, to)
        / (ladder.level(from).power_w - ladder.level(to).power_w)
}

/// The deterministic lower-envelope descent schedule for a drive: for each
/// saving level `l ≥ 1`, the absolute idle time (seconds since the idle
/// period began) at which the classical multi-state strategy descends into
/// `l` — the intersection times of the per-level cost lines
/// (`T_l = ΔE_l / ΔP_l`, Irani, Shukla & Gupta). Strictly increasing for
/// any valid ladder; `schedule[l - 1]` is level `l`'s descent time.
pub fn envelope_descent_times(ladder: &PowerLadder) -> Vec<f64> {
    (1..ladder.len())
        .map(|l| ladder.pairwise_break_even_s(l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DiskSpec {
        DiskSpec::seagate_st3500630as()
    }

    /// Net energy saved (joules; negative = wasted) by spinning down for an idle
    /// gap of `gap_s` seconds instead of idling through it.
    ///
    /// Models the gap as: spin down (t_down), stay in standby for the remainder,
    /// spin up (t_up) — the spin-up is charged to the gap even if it overruns it,
    /// which matches how a request arriving at the end of the gap experiences the
    /// disk. For gaps shorter than `t_down + t_up` the standby residency is zero.
    fn spin_down_gain(spec: &DiskSpec, gap_s: f64) -> f64 {
        let idle_cost = spec.idle_power_w * gap_s;
        let transit = spec.spin_down_time_s + spec.spin_up_time_s;
        let standby_s = (gap_s - transit).max(0.0);
        let sleep_cost = transition_energy_overhead(spec) + standby_s * spec.standby_power_w;
        idle_cost - sleep_cost
    }

    /// The gap length (seconds) above which [`spin_down_gain`] becomes positive.
    ///
    /// This is the quantity an *offline* optimal power manager thresholds on
    /// (see the DPM analysis in `spindown-analysis`).
    /// It differs from [`break_even_threshold`] in that it accounts for the idle
    /// power that would have been drawn during the transition times themselves.
    fn offline_break_even_gap(spec: &DiskSpec) -> f64 {
        // Solve idle_cost == sleep_cost. Two regimes:
        //  gap ≤ transit:   P_idle · gap = E_over              → gap = E_over / P_idle
        //  gap > transit:   P_idle · gap = E_over + (gap − transit) · P_standby
        let e_over = transition_energy_overhead(spec);
        let transit = spec.spin_down_time_s + spec.spin_up_time_s;
        let short = e_over / spec.idle_power_w;
        if short <= transit {
            short
        } else {
            (e_over - transit * spec.standby_power_w) / (spec.idle_power_w - spec.standby_power_w)
        }
    }

    #[test]
    fn paper_threshold_is_53_3s() {
        let t = break_even_threshold(&spec());
        assert!(
            (t - 53.3).abs() < 0.05,
            "expected the paper's 53.3 s, got {t:.4}"
        );
    }

    #[test]
    fn transition_overhead_is_453_joules() {
        let e = transition_energy_overhead(&spec());
        assert!((e - 453.0).abs() < 1e-9);
    }

    #[test]
    fn gain_is_negative_for_short_gaps() {
        assert!(spin_down_gain(&spec(), 5.0) < 0.0);
        assert!(spin_down_gain(&spec(), 25.0) < 0.0);
    }

    #[test]
    fn gain_is_positive_for_long_gaps() {
        assert!(spin_down_gain(&spec(), 600.0) > 0.0);
        assert!(spin_down_gain(&spec(), 7200.0) > 0.0);
    }

    #[test]
    fn gain_crosses_zero_at_offline_break_even() {
        let g = offline_break_even_gap(&spec());
        assert!(spin_down_gain(&spec(), g - 1.0) < 0.0);
        assert!(spin_down_gain(&spec(), g + 1.0) > 0.0);
        assert!(spin_down_gain(&spec(), g).abs() < 1e-6);
    }

    #[test]
    fn offline_break_even_close_to_paper_threshold() {
        // The offline gap accounts for idle power during the transitions, so
        // it is a bit shorter than the "standby residency" threshold.
        let offline = offline_break_even_gap(&spec());
        let paper = break_even_threshold(&spec());
        assert!(offline < paper);
        assert!(paper - offline < spec().spin_down_time_s + spec().spin_up_time_s);
    }

    #[test]
    fn gain_is_monotone_in_gap_length() {
        let s = spec();
        let mut last = f64::NEG_INFINITY;
        for gap in [0.0, 10.0, 26.0, 53.0, 100.0, 1000.0] {
            let g = spin_down_gain(&s, gap);
            assert!(g >= last, "gain not monotone at gap={gap}");
            last = g;
        }
    }

    #[test]
    fn between_subsumes_the_two_state_threshold() {
        let s = spec();
        // Without an explicit ladder the generalised form reproduces the
        // paper's formula exactly (same arithmetic, same order).
        assert_eq!(
            break_even_threshold_between(&s, 0, 1),
            break_even_threshold(&s)
        );
        assert_eq!(transition_energy_between(&s, 0, 1), 453.0);
    }

    #[test]
    fn deeper_levels_have_longer_break_evens() {
        let mut s = spec();
        s.ladder = Some(crate::ladder::PowerLadder::with_low_rpm(&s));
        let t01 = break_even_threshold_between(&s, 0, 1);
        let t02 = break_even_threshold_between(&s, 0, 2);
        let t12 = break_even_threshold_between(&s, 1, 2);
        assert!(
            t01 < t02,
            "low-RPM must pay off before standby: {t01} vs {t02}"
        );
        assert!(t12 > 0.0);
        // With an explicit ladder the aggregate threshold is the (0,
        // deepest) case.
        assert_eq!(break_even_threshold(&s), t02);
    }

    #[test]
    fn envelope_times_are_the_pairwise_break_evens() {
        let mut s = spec();
        s.ladder = Some(crate::ladder::PowerLadder::with_low_rpm(&s));
        let lad = s.power_ladder();
        let times = envelope_descent_times(&lad);
        assert_eq!(times.len(), 2);
        assert!(times[0] < times[1], "envelope order: {times:?}");
        assert_eq!(times[0], lad.pairwise_break_even_s(1));
        assert_eq!(times[1], lad.pairwise_break_even_s(2));
        // Two-state ladder: the single envelope time is the paper's 53.3 s.
        let two = spec().power_ladder();
        let t = envelope_descent_times(&two);
        assert_eq!(t.len(), 1);
        assert!((t[0] - 53.29).abs() < 0.05);
    }

    #[test]
    fn short_gap_regime_of_offline_break_even() {
        // A drive whose overhead is so small the break-even lands inside the
        // transition window exercises the first regime.
        let tiny = DiskSpec {
            spin_up_power_w: 0.1,
            spin_down_power_w: 0.1,
            ..spec()
        };
        let g = offline_break_even_gap(&tiny);
        assert!(g <= tiny.spin_down_time_s + tiny.spin_up_time_s);
        assert!((spin_down_gain(&tiny, g)).abs() < 1e-9);
    }
}
