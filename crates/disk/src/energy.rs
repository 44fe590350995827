//! Exact energy accounting: piecewise-constant integration of power over
//! time, broken down per [`PowerState`].
//!
//! The simulator drives an [`EnergyAccountant`] per disk: every time the disk
//! changes state it calls [`EnergyAccountant::transition`], and at the end of
//! the run [`EnergyAccountant::finish`]. Invariants (monotone time, total
//! duration conservation) are enforced and unit-tested — the power-saving
//! numbers of Figures 2, 4 and 5 all flow through this module.
//!
//! The breakdown is **table-driven over the power-state ladder**: slots are
//! allocated on demand for whatever states a run actually visits (three
//! operational slots plus a `(Sleeping, Descending, Waking)` triple per
//! ladder level), so adding levels to a ladder can never silently drop
//! energy — per-state totals always sum exactly to the run total, however
//! deep the ladder ([`EnergyBreakdown::per_state`] iterates every slot).

use crate::power::{power_of, PowerState};
use crate::spec::DiskSpec;

/// Slot index of a state in the breakdown tables: operational states
/// first, then one `(Sleeping, Descending, Waking)` triple per level.
/// For the canonical two-state ladder this is exactly the six slots (and
/// ordering) of the original fixed-size breakdown.
fn slot(state: PowerState) -> usize {
    match state {
        PowerState::Active => 0,
        PowerState::Seek => 1,
        PowerState::Idle => 2,
        PowerState::Sleeping(l) => 3 * l as usize,
        PowerState::Descending(l) => 3 * l as usize + 1,
        PowerState::Waking(l) => 3 * l as usize + 2,
    }
}

/// Inverse of [`slot`]: the state a slot index belongs to.
fn state_of_slot(i: usize) -> PowerState {
    match i {
        0 => PowerState::Active,
        1 => PowerState::Seek,
        2 => PowerState::Idle,
        _ => {
            let l = (i / 3) as u8;
            match i % 3 {
                0 => PowerState::Sleeping(l),
                1 => PowerState::Descending(l),
                _ => PowerState::Waking(l),
            }
        }
    }
}

/// The sum of `values` folded from `+0.0`. std's `f64` `Sum` starts at
/// `-0.0`, so an empty breakdown would print `-0`; for any non-empty slice
/// the two agree bit for bit.
fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |acc, v| acc + v)
}

/// Per-state time and energy totals for one disk (or an aggregate).
///
/// Grows on demand to cover every ladder level a run visits; states never
/// visited report zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Seconds spent in each state, indexed by [`slot`].
    seconds: Vec<f64>,
    /// Joules consumed in each state, indexed by [`slot`].
    joules: Vec<f64>,
}

impl EnergyBreakdown {
    /// Seconds spent in `state`.
    pub fn seconds_in(&self, state: PowerState) -> f64 {
        self.seconds.get(slot(state)).copied().unwrap_or(0.0)
    }

    /// Total wall-clock seconds covered.
    pub fn total_seconds(&self) -> f64 {
        sum(&self.seconds)
    }

    /// Total joules consumed.
    pub fn total_joules(&self) -> f64 {
        sum(&self.joules)
    }

    /// Mean power over the covered interval, watts. Zero if no time covered.
    pub fn mean_power_w(&self) -> f64 {
        let t = self.total_seconds();
        if t > 0.0 {
            self.total_joules() / t
        } else {
            0.0
        }
    }

    /// Every `(state, seconds, joules)` row this breakdown has a slot for,
    /// in slot order — the table-driven iteration whose seconds/joules sum
    /// *exactly* to [`Self::total_seconds`]/[`Self::total_joules`] (both
    /// are computed by summing the same slots in the same order), however
    /// many ladder levels are in play.
    pub fn per_state(&self) -> Vec<(PowerState, f64, f64)> {
        (0..self.seconds.len())
            .map(|i| (state_of_slot(i), self.seconds[i], self.joules[i]))
            .collect()
    }

    /// The deepest ladder level this breakdown has slots for (0 when only
    /// operational states were visited).
    pub fn deepest_level(&self) -> u8 {
        if self.seconds.len() <= 3 {
            0
        } else {
            ((self.seconds.len() - 1) / 3) as u8
        }
    }

    /// Merge another breakdown into this one (for fleet-level aggregates).
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        if other.seconds.len() > self.seconds.len() {
            self.seconds.resize(other.seconds.len(), 0.0);
            self.joules.resize(other.joules.len(), 0.0);
        }
        for (i, (&s, &j)) in other.seconds.iter().zip(&other.joules).enumerate() {
            self.seconds[i] += s;
            self.joules[i] += j;
        }
    }

    fn add(&mut self, state: PowerState, seconds: f64, joules: f64) {
        let i = slot(state);
        if i >= self.seconds.len() {
            self.seconds.resize(i + 1, 0.0);
            self.joules.resize(i + 1, 0.0);
        }
        self.seconds[i] += seconds;
        self.joules[i] += joules;
    }
}

/// Errors from misuse of the accountant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountingError {
    /// `transition`/`finish` called with a timestamp earlier than the last.
    TimeWentBackwards,
    /// The accountant was already finished.
    AlreadyFinished,
}

impl std::fmt::Display for AccountingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccountingError::TimeWentBackwards => write!(f, "time went backwards"),
            AccountingError::AlreadyFinished => write!(f, "accountant already finished"),
        }
    }
}

impl std::error::Error for AccountingError {}

/// Integrates a disk's power draw over time.
#[derive(Debug, Clone)]
pub struct EnergyAccountant {
    spec: DiskSpec,
    state: PowerState,
    since: f64,
    breakdown: EnergyBreakdown,
    finished: bool,
}

impl EnergyAccountant {
    /// Start accounting at time `start` with the disk in `initial` state.
    pub fn new(spec: DiskSpec, start: f64, initial: PowerState) -> Self {
        EnergyAccountant {
            spec,
            state: initial,
            since: start,
            breakdown: EnergyBreakdown::default(),
            finished: false,
        }
    }

    /// Record that at time `now` the disk entered `next`.
    ///
    /// Time spent since the previous transition is charged to the previous
    /// state at that state's power draw.
    pub fn transition(&mut self, now: f64, next: PowerState) -> Result<(), AccountingError> {
        self.charge(now)?;
        self.state = next;
        Ok(())
    }

    /// Close the books at time `now`. Subsequent calls fail.
    pub fn finish(&mut self, now: f64) -> Result<(), AccountingError> {
        self.charge(now)?;
        self.finished = true;
        Ok(())
    }

    fn charge(&mut self, now: f64) -> Result<(), AccountingError> {
        if self.finished {
            return Err(AccountingError::AlreadyFinished);
        }
        if now < self.since {
            return Err(AccountingError::TimeWentBackwards);
        }
        let dt = now - self.since;
        if dt > 0.0 {
            let p = power_of(&self.spec, self.state);
            self.breakdown.add(self.state, dt, p * dt);
        }
        self.since = now;
        Ok(())
    }

    /// The totals accumulated so far (complete only after [`Self::finish`]).
    pub fn breakdown(&self) -> &EnergyBreakdown {
        &self.breakdown
    }

    /// Consume the accountant, returning its breakdown.
    pub fn into_breakdown(self) -> EnergyBreakdown {
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::PowerLadder;
    use crate::power::tests::states_of;

    fn spec() -> DiskSpec {
        DiskSpec::seagate_st3500630as()
    }

    impl EnergyBreakdown {
        /// Joules consumed in `state`.
        fn joules_in(&self, state: PowerState) -> f64 {
            self.joules.get(slot(state)).copied().unwrap_or(0.0)
        }

        /// Every state of a `levels`-deep ladder with this breakdown's totals,
        /// including never-visited states (reported as zero) — the full table
        /// for reports that want one row per ladder state.
        fn per_state_of_ladder(&self, levels: usize) -> Vec<(PowerState, f64, f64)> {
            states_of(levels)
                .into_iter()
                .map(|s| (s, self.seconds_in(s), self.joules_in(s)))
                .collect()
        }
    }

    /// Energy a disk would use staying in a single state for `seconds`.
    fn constant_state_energy(spec: &DiskSpec, state: PowerState, seconds: f64) -> f64 {
        power_of(spec, state) * seconds
    }

    #[test]
    fn idle_hour_consumes_expected_joules() {
        let mut acc = EnergyAccountant::new(spec(), 0.0, PowerState::Idle);
        acc.finish(3600.0).unwrap();
        let b = acc.breakdown();
        assert!((b.total_joules() - 9.3 * 3600.0).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::Idle) - 3600.0).abs() < 1e-12);
    }

    #[test]
    fn transition_sequence_partitions_time() {
        let mut acc = EnergyAccountant::new(spec(), 0.0, PowerState::Idle);
        acc.transition(53.3, PowerState::SpinningDown).unwrap();
        acc.transition(63.3, PowerState::Standby).unwrap();
        acc.transition(1000.0, PowerState::SpinningUp).unwrap();
        acc.transition(1015.0, PowerState::Active).unwrap();
        acc.finish(1020.0).unwrap();
        let b = acc.breakdown();
        assert!((b.total_seconds() - 1020.0).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::Idle) - 53.3).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::SpinningDown) - 10.0).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::Standby) - (1000.0 - 63.3)).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::SpinningUp) - 15.0).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::Active) - 5.0).abs() < 1e-9);
        // energy = Σ seconds × state power
        let expected = 53.3 * 9.3 + 10.0 * 9.3 + (1000.0 - 63.3) * 0.8 + 15.0 * 24.0 + 5.0 * 13.0;
        assert!((b.total_joules() - expected).abs() < 1e-6);
    }

    #[test]
    fn ladder_levels_account_separately_and_sum_exactly() {
        let mut s = spec();
        s.ladder = Some(PowerLadder::with_low_rpm(&s));
        let lad = s.ladder.clone().unwrap();
        let mut acc = EnergyAccountant::new(s, 0.0, PowerState::Idle);
        // Idle 20 s, enter low-RPM, rest 100 s, enter standby, rest 200 s,
        // wake from standby.
        acc.transition(20.0, PowerState::Descending(1)).unwrap();
        let t1 = 20.0 + lad.level(1).entry_time_s;
        acc.transition(t1, PowerState::Sleeping(1)).unwrap();
        acc.transition(t1 + 100.0, PowerState::Descending(2))
            .unwrap();
        let t2 = t1 + 100.0 + lad.level(2).entry_time_s;
        acc.transition(t2, PowerState::Sleeping(2)).unwrap();
        acc.transition(t2 + 200.0, PowerState::Waking(2)).unwrap();
        let t3 = t2 + 200.0 + lad.level(2).exit_time_s;
        acc.transition(t3, PowerState::Idle).unwrap();
        acc.finish(t3 + 5.0).unwrap();
        let b = acc.breakdown();
        assert!((b.seconds_in(PowerState::Sleeping(1)) - 100.0).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::Sleeping(2)) - 200.0).abs() < 1e-9);
        assert!((b.joules_in(PowerState::Sleeping(1)) - 100.0 * lad.level(1).power_w).abs() < 1e-9);
        assert!(
            (b.joules_in(PowerState::Descending(2)) - lad.level(2).entry_energy_j()).abs() < 1e-9
        );
        assert!((b.joules_in(PowerState::Waking(2)) - lad.level(2).exit_energy_j()).abs() < 1e-9);
        // The table-driven iteration covers every slot: its sums equal the
        // totals bit-for-bit (same slots, same order — nothing dropped).
        let rows = b.per_state();
        let sum_s: f64 = rows.iter().map(|(_, s, _)| s).sum();
        let sum_j: f64 = rows.iter().map(|(_, _, j)| j).sum();
        assert_eq!(sum_s, b.total_seconds());
        assert_eq!(sum_j, b.total_joules());
        assert_eq!(b.deepest_level(), 2);
        // The full-ladder table reports zero for never-visited states.
        let table = b.per_state_of_ladder(3);
        assert_eq!(table.len(), 3 + 3 * 2);
        let wake1 = table
            .iter()
            .find(|(s, _, _)| *s == PowerState::Waking(1))
            .unwrap();
        assert_eq!(wake1.1, 0.0);
    }

    #[test]
    fn zero_length_transitions_are_free() {
        let mut acc = EnergyAccountant::new(spec(), 5.0, PowerState::Idle);
        acc.transition(5.0, PowerState::Seek).unwrap();
        acc.transition(5.0, PowerState::Active).unwrap();
        acc.finish(5.0).unwrap();
        assert_eq!(acc.breakdown().total_joules(), 0.0);
        assert_eq!(acc.breakdown().total_seconds(), 0.0);
    }

    #[test]
    fn time_going_backwards_is_rejected() {
        let mut acc = EnergyAccountant::new(spec(), 10.0, PowerState::Idle);
        let err = acc.transition(9.0, PowerState::Standby).unwrap_err();
        assert_eq!(err, AccountingError::TimeWentBackwards);
    }

    #[test]
    fn double_finish_is_rejected() {
        let mut acc = EnergyAccountant::new(spec(), 0.0, PowerState::Idle);
        acc.finish(1.0).unwrap();
        assert_eq!(
            acc.finish(2.0).unwrap_err(),
            AccountingError::AlreadyFinished
        );
    }

    #[test]
    fn merge_accumulates_fleet_totals() {
        let mut a = EnergyAccountant::new(spec(), 0.0, PowerState::Idle);
        a.finish(100.0).unwrap();
        let mut b = EnergyAccountant::new(spec(), 0.0, PowerState::Standby);
        b.finish(100.0).unwrap();
        let mut fleet = a.into_breakdown();
        fleet.merge(&b.into_breakdown());
        assert!((fleet.total_seconds() - 200.0).abs() < 1e-9);
        assert!((fleet.total_joules() - (9.3 + 0.8) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_grows_to_the_deeper_ladder() {
        let mut shallow = EnergyAccountant::new(spec(), 0.0, PowerState::Idle);
        shallow.finish(50.0).unwrap();
        let mut s3 = spec();
        s3.ladder = Some(PowerLadder::with_low_rpm(&s3));
        let mut deep = EnergyAccountant::new(s3, 0.0, PowerState::Sleeping(2));
        deep.finish(10.0).unwrap();
        let mut fleet = shallow.into_breakdown();
        fleet.merge(&deep.into_breakdown());
        assert!((fleet.seconds_in(PowerState::Idle) - 50.0).abs() < 1e-12);
        assert!((fleet.seconds_in(PowerState::Sleeping(2)) - 10.0).abs() < 1e-12);
        assert!((fleet.total_seconds() - 60.0).abs() < 1e-12);
        // …and the other way round.
        let mut s3b = spec();
        s3b.ladder = Some(PowerLadder::with_low_rpm(&s3b));
        let mut deep2 = EnergyAccountant::new(s3b, 0.0, PowerState::Sleeping(2));
        deep2.finish(10.0).unwrap();
        let mut fleet2 = deep2.into_breakdown();
        let mut shallow2 = EnergyAccountant::new(spec(), 0.0, PowerState::Idle);
        shallow2.finish(50.0).unwrap();
        fleet2.merge(&shallow2.into_breakdown());
        assert_eq!(fleet2.total_seconds(), fleet.total_seconds());
    }

    #[test]
    fn mean_power_of_idle_is_idle_power() {
        let mut acc = EnergyAccountant::new(spec(), 0.0, PowerState::Idle);
        acc.finish(123.0).unwrap();
        assert!((acc.breakdown().mean_power_w() - 9.3).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_mean_power_is_zero() {
        assert_eq!(EnergyBreakdown::default().mean_power_w(), 0.0);
        assert!(EnergyBreakdown::default().per_state().is_empty());
        assert_eq!(EnergyBreakdown::default().deepest_level(), 0);
    }

    #[test]
    fn constant_state_energy_helper() {
        assert!((constant_state_energy(&spec(), PowerState::Standby, 10.0) - 8.0).abs() < 1e-12);
    }
}
