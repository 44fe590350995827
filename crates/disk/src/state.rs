//! A validated disk power-state machine over the N-level power ladder.
//!
//! [`DiskStateMachine`] enforces the legal transition graph — Figure 1 of
//! the paper, generalised per-level:
//!
//! ```text
//! Idle ⇄ {Seek, Active}                 (instantaneous command handling)
//! Idle → Descending(1) → Sleeping(1)    (takes level 1's entry_time_s)
//! Sleeping(l) → Descending(l+1) → Sleeping(l+1)   (descend one level)
//! Sleeping(l) → Waking(l) → Idle        (takes level l's exit_time_s)
//! ```
//!
//! plus `Seek → Active` (positioning then transfer). Disks wake directly
//! from any level to Idle but descend one level at a time. Transitional
//! states can only be exited after their full duration has elapsed —
//! violating either rule is a bug in the caller (the simulator) and is
//! reported as a [`TransitionError`]. Energy is integrated through an
//! embedded [`EnergyAccountant`].
//!
//! For the canonical two-state ladder the graph and the public
//! convenience API ([`DiskStateMachine::begin_spin_down`] /
//! [`DiskStateMachine::begin_spin_up`]) behave exactly as the original
//! fixed Idle ⇄ Standby machine.

use crate::energy::{AccountingError, EnergyAccountant, EnergyBreakdown};
use crate::power::PowerState;
use crate::spec::DiskSpec;

/// Errors from illegal state-machine use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransitionError {
    /// The requested edge does not exist in the transition graph.
    IllegalEdge {
        /// State the disk was in.
        from: PowerState,
        /// State requested.
        to: PowerState,
    },
    /// A transitional state was exited before its fixed duration elapsed.
    TransitionNotElapsed {
        /// The transitional state being exited.
        state: PowerState,
        /// Seconds remaining.
        remaining: f64,
    },
    /// A level-carrying state referenced a level the drive's ladder does
    /// not have.
    LevelOutOfRange {
        /// The requested state.
        state: PowerState,
        /// The ladder's deepest level.
        deepest: u8,
    },
    /// Underlying accounting failure (time went backwards etc.).
    Accounting(AccountingError),
}

impl std::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionError::IllegalEdge { from, to } => {
                write!(f, "illegal disk state transition {from:?} -> {to:?}")
            }
            TransitionError::TransitionNotElapsed { state, remaining } => {
                write!(f, "{state:?} exited {remaining:.3}s early")
            }
            TransitionError::LevelOutOfRange { state, deepest } => {
                write!(f, "{state:?} beyond the ladder's deepest level {deepest}")
            }
            TransitionError::Accounting(e) => write!(f, "accounting error: {e}"),
        }
    }
}

impl std::error::Error for TransitionError {}

impl From<AccountingError> for TransitionError {
    fn from(e: AccountingError) -> Self {
        TransitionError::Accounting(e)
    }
}

/// A single disk's power-state machine with embedded energy accounting.
#[derive(Debug, Clone)]
pub struct DiskStateMachine {
    spec: DiskSpec,
    deepest: u8,
    state: PowerState,
    state_entered_at: f64,
    accountant: EnergyAccountant,
    spin_downs: u64,
    spin_ups: u64,
}

impl DiskStateMachine {
    /// Create a machine at time `start`, initially `Idle` (spun up, the
    /// state disks boot into).
    pub fn new(spec: DiskSpec, start: f64) -> Self {
        let deepest = spec.deepest_level();
        let accountant = EnergyAccountant::new(spec.clone(), start, PowerState::Idle);
        DiskStateMachine {
            spec,
            deepest,
            state: PowerState::Idle,
            state_entered_at: start,
            accountant,
            spin_downs: 0,
            spin_ups: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Time the current state was entered.
    pub fn state_entered_at(&self) -> f64 {
        self.state_entered_at
    }

    /// Number of completed descent transitions (entries into any sleeping
    /// level) so far. For the two-state ladder this is exactly the number
    /// of completed spin-downs.
    pub fn spin_downs(&self) -> u64 {
        self.spin_downs
    }

    /// Number of completed wake transitions so far.
    pub fn spin_ups(&self) -> u64 {
        self.spin_ups
    }

    /// The drive spec this machine models.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// The deepest ladder level of this drive.
    pub fn deepest_level(&self) -> u8 {
        self.deepest
    }

    /// When the in-flight transitional state (if any) completes.
    pub fn transition_completes_at(&self) -> Option<f64> {
        match self.state {
            PowerState::Descending(l) => {
                Some(self.state_entered_at + self.spec.level_entry_time_s(l))
            }
            PowerState::Waking(l) => Some(self.state_entered_at + self.spec.level_exit_time_s(l)),
            _ => None,
        }
    }

    fn edge_is_legal(from: PowerState, to: PowerState) -> bool {
        use PowerState::*;
        match (from, to) {
            (Idle, Seek)
            | (Idle, Active)
            | (Seek, Active)
            | (Seek, Idle)
            | (Active, Idle)
            | (Active, Seek) => true,
            // Descend one level at a time; the first descent starts at
            // Idle (level 0).
            (Idle, Descending(1)) => true,
            (Sleeping(l), Descending(m)) => m == l + 1,
            (Descending(l), Sleeping(m)) => l == m,
            // Wake directly from any level back to Idle.
            (Sleeping(l), Waking(m)) => l == m,
            (Waking(_), Idle) => true,
            // A failed spin-up: the drive could not come ready and falls
            // back to the level it was waking from. The attempted exit
            // transition's time and energy have already been charged.
            (Waking(l), Sleeping(m)) => l == m,
            _ => false,
        }
    }

    /// Move to `next` at time `now`, validating the edge, the ladder depth
    /// and transitional durations, and charging energy for the state being
    /// left.
    pub fn transition(&mut self, now: f64, next: PowerState) -> Result<(), TransitionError> {
        if let Some(l) = next.level() {
            if l == 0 || l > self.deepest {
                return Err(TransitionError::LevelOutOfRange {
                    state: next,
                    deepest: self.deepest,
                });
            }
        }
        if !Self::edge_is_legal(self.state, next) {
            return Err(TransitionError::IllegalEdge {
                from: self.state,
                to: next,
            });
        }
        if let Some(done_at) = self.transition_completes_at() {
            // Allow tiny float slack: the simulator schedules completion
            // events at exactly `done_at`.
            if now + 1e-9 < done_at {
                return Err(TransitionError::TransitionNotElapsed {
                    state: self.state,
                    remaining: done_at - now,
                });
            }
        }
        self.accountant.transition(now, next)?;
        match next {
            // A failed wake falling back to its sleep level is not a new
            // descent — only entries from a Descending transition count.
            PowerState::Sleeping(_) if !matches!(self.state, PowerState::Waking(_)) => {
                self.spin_downs += 1
            }
            PowerState::Idle if matches!(self.state, PowerState::Waking(_)) => self.spin_ups += 1,
            _ => {}
        }
        self.state = next;
        self.state_entered_at = now;
        Ok(())
    }

    /// Convenience: begin descending one level (from `Idle` into level 1,
    /// or from `Sleeping(l)` into level `l + 1`). Returns the completion
    /// time.
    pub fn begin_descend(&mut self, now: f64) -> Result<f64, TransitionError> {
        let target = match self.state {
            PowerState::Idle => 1,
            PowerState::Sleeping(l) => l + 1,
            other => {
                return Err(TransitionError::IllegalEdge {
                    from: other,
                    to: PowerState::Descending(1),
                })
            }
        };
        self.transition(now, PowerState::Descending(target))?;
        Ok(now + self.spec.level_entry_time_s(target))
    }

    /// Convenience: begin spinning down (must currently be `Idle`). Returns
    /// the completion time. For the two-state ladder this is the whole
    /// descent; deeper ladders continue with [`Self::begin_descend`].
    pub fn begin_spin_down(&mut self, now: f64) -> Result<f64, TransitionError> {
        if self.state != PowerState::Idle {
            return Err(TransitionError::IllegalEdge {
                from: self.state,
                to: PowerState::SpinningDown,
            });
        }
        self.begin_descend(now)
    }

    /// Convenience: begin waking (must currently be sleeping at some
    /// level). Returns the completion time.
    pub fn begin_spin_up(&mut self, now: f64) -> Result<f64, TransitionError> {
        let level = match self.state {
            PowerState::Sleeping(l) => l,
            other => {
                return Err(TransitionError::IllegalEdge {
                    from: other,
                    to: PowerState::SpinningUp,
                })
            }
        };
        self.transition(now, PowerState::Waking(level))?;
        Ok(now + self.spec.level_exit_time_s(level))
    }

    /// Convenience: a spin-up attempt fails at its completion time — the
    /// drive could not come ready and falls back to the sleep level it was
    /// waking from (must currently be `Waking(l)`; `now` must be at or
    /// past the transition's completion). The attempted exit transition's
    /// time and energy remain charged; neither cycle counter moves.
    /// Returns the level the drive fell back to.
    pub fn fail_spin_up(&mut self, now: f64) -> Result<u8, TransitionError> {
        let level = match self.state {
            PowerState::Waking(l) => l,
            other => {
                return Err(TransitionError::IllegalEdge {
                    from: other,
                    to: PowerState::Sleeping(1),
                })
            }
        };
        self.transition(now, PowerState::Sleeping(level))?;
        Ok(level)
    }

    /// Close the books at `now` and return the energy breakdown.
    pub fn finish(mut self, now: f64) -> Result<EnergyBreakdown, TransitionError> {
        self.accountant.finish(now)?;
        Ok(self.accountant.into_breakdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::PowerLadder;

    fn machine() -> DiskStateMachine {
        DiskStateMachine::new(DiskSpec::seagate_st3500630as(), 0.0)
    }

    fn three_level_machine() -> DiskStateMachine {
        let mut spec = DiskSpec::seagate_st3500630as();
        spec.ladder = Some(PowerLadder::with_low_rpm(&spec));
        DiskStateMachine::new(spec, 0.0)
    }

    #[test]
    fn starts_idle() {
        let m = machine();
        assert_eq!(m.state(), PowerState::Idle);
        assert_eq!(m.spin_ups(), 0);
        assert_eq!(m.spin_downs(), 0);
        assert_eq!(m.deepest_level(), 1);
    }

    #[test]
    fn full_power_cycle() {
        let mut m = machine();
        let down_done = m.begin_spin_down(100.0).unwrap();
        assert_eq!(down_done, 110.0);
        m.transition(down_done, PowerState::Standby).unwrap();
        assert_eq!(m.spin_downs(), 1);
        let up_done = m.begin_spin_up(500.0).unwrap();
        assert_eq!(up_done, 515.0);
        m.transition(up_done, PowerState::Idle).unwrap();
        assert_eq!(m.spin_ups(), 1);
        let b = m.finish(600.0).unwrap();
        assert!((b.total_seconds() - 600.0).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::Standby) - 390.0).abs() < 1e-9);
    }

    #[test]
    fn three_level_descent_and_direct_wake() {
        let mut m = three_level_machine();
        let lad = m.spec().power_ladder();
        assert_eq!(m.deepest_level(), 2);
        // Idle → low-RPM.
        let d1 = m.begin_descend(100.0).unwrap();
        assert!((d1 - (100.0 + lad.level(1).entry_time_s)).abs() < 1e-12);
        m.transition(d1, PowerState::Sleeping(1)).unwrap();
        assert_eq!(m.spin_downs(), 1);
        // Low-RPM → standby.
        let d2 = m.begin_descend(200.0).unwrap();
        assert!((d2 - (200.0 + lad.level(2).entry_time_s)).abs() < 1e-12);
        m.transition(d2, PowerState::Sleeping(2)).unwrap();
        assert_eq!(m.spin_downs(), 2);
        // Wake straight from the deepest level.
        let up = m.begin_spin_up(500.0).unwrap();
        assert!((up - (500.0 + lad.level(2).exit_time_s)).abs() < 1e-12);
        m.transition(up, PowerState::Idle).unwrap();
        assert_eq!(m.spin_ups(), 1);
        let b = m.finish(600.0).unwrap();
        assert!((b.total_seconds() - 600.0).abs() < 1e-9);
        assert!(b.seconds_in(PowerState::Sleeping(1)) > 0.0);
        assert!(b.seconds_in(PowerState::Sleeping(2)) > 0.0);
    }

    #[test]
    fn wake_from_intermediate_level() {
        let mut m = three_level_machine();
        let d1 = m.begin_descend(10.0).unwrap();
        m.transition(d1, PowerState::Sleeping(1)).unwrap();
        let up = m.begin_spin_up(50.0).unwrap();
        let exit = m.spec().power_ladder().level(1).exit_time_s;
        assert!((up - (50.0 + exit)).abs() < 1e-12);
        m.transition(up, PowerState::Idle).unwrap();
        assert_eq!(m.spin_ups(), 1);
    }

    #[test]
    fn cannot_skip_levels_descending() {
        let mut m = three_level_machine();
        let err = m.transition(1.0, PowerState::Descending(2)).unwrap_err();
        assert!(matches!(err, TransitionError::IllegalEdge { .. }));
    }

    #[test]
    fn levels_beyond_the_ladder_are_rejected() {
        let mut m = machine();
        let err = m.transition(1.0, PowerState::Descending(2)).unwrap_err();
        assert_eq!(
            err,
            TransitionError::LevelOutOfRange {
                state: PowerState::Descending(2),
                deepest: 1
            }
        );
        // A two-state machine cannot descend below its single level.
        let d = m.begin_spin_down(10.0).unwrap();
        m.transition(d, PowerState::Standby).unwrap();
        assert!(m.begin_descend(100.0).is_err());
    }

    #[test]
    fn service_cycle_idle_seek_active_idle() {
        let mut m = machine();
        m.transition(1.0, PowerState::Seek).unwrap();
        m.transition(1.0085, PowerState::Active).unwrap();
        m.transition(8.0, PowerState::Idle).unwrap();
        let b = m.finish(10.0).unwrap();
        assert!((b.seconds_in(PowerState::Seek) - 0.0085).abs() < 1e-12);
        assert!((b.seconds_in(PowerState::Active) - (8.0 - 1.0085)).abs() < 1e-12);
    }

    #[test]
    fn illegal_edges_rejected() {
        let mut m = machine();
        // Idle cannot jump straight to Standby.
        let err = m.transition(1.0, PowerState::Standby).unwrap_err();
        assert_eq!(
            err,
            TransitionError::IllegalEdge {
                from: PowerState::Idle,
                to: PowerState::Standby
            }
        );
        // Idle cannot "spin up".
        assert!(m.transition(1.0, PowerState::SpinningUp).is_err());
    }

    #[test]
    fn cannot_cut_spin_down_short() {
        let mut m = machine();
        m.begin_spin_down(0.0).unwrap();
        let err = m.transition(5.0, PowerState::Standby).unwrap_err();
        match err {
            TransitionError::TransitionNotElapsed { state, remaining } => {
                assert_eq!(state, PowerState::SpinningDown);
                assert!((remaining - 5.0).abs() < 1e-9);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cannot_cut_spin_up_short() {
        let mut m = machine();
        m.begin_spin_down(0.0).unwrap();
        m.transition(10.0, PowerState::Standby).unwrap();
        m.begin_spin_up(20.0).unwrap();
        assert!(m.transition(30.0, PowerState::Idle).is_err());
        assert!(m.transition(35.0, PowerState::Idle).is_ok());
    }

    #[test]
    fn spin_down_requires_idle() {
        let mut m = machine();
        m.transition(0.0, PowerState::Active).unwrap();
        assert!(m.begin_spin_down(1.0).is_err());
    }

    #[test]
    fn transition_completion_times() {
        let mut m = machine();
        assert_eq!(m.transition_completes_at(), None);
        m.begin_spin_down(7.0).unwrap();
        assert_eq!(m.transition_completes_at(), Some(17.0));
    }

    #[test]
    fn breakdown_so_far_is_live() {
        let mut m = machine();
        m.transition(10.0, PowerState::Active).unwrap();
        assert!((m.accountant.breakdown().seconds_in(PowerState::Idle) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn failed_spin_up_falls_back_to_the_sleep_level() {
        let mut m = machine();
        m.begin_spin_down(0.0).unwrap();
        m.transition(10.0, PowerState::Standby).unwrap();
        let up = m.begin_spin_up(100.0).unwrap();
        // Failing early is still a transition-duration violation…
        assert!(m.fail_spin_up(100.0 + 1.0).is_err());
        // …but at the scheduled completion the drive may fall back.
        assert_eq!(m.fail_spin_up(up).unwrap(), 1);
        assert_eq!(m.state(), PowerState::Standby);
        // The failed attempt counts neither a spin-up nor a fresh descent…
        assert_eq!(m.spin_ups(), 0);
        assert_eq!(m.spin_downs(), 1);
        // …but its wake-transition time was charged at transition power.
        assert!(m.accountant.breakdown().seconds_in(PowerState::Waking(1)) > 0.0);
        // A second attempt can succeed.
        let up2 = m.begin_spin_up(up + 5.0).unwrap();
        m.transition(up2, PowerState::Idle).unwrap();
        assert_eq!(m.spin_ups(), 1);
    }

    #[test]
    fn fail_spin_up_requires_a_waking_state() {
        let mut m = machine();
        assert!(m.fail_spin_up(1.0).is_err());
        m.begin_spin_down(0.0).unwrap();
        assert!(m.fail_spin_up(10.0).is_err());
    }

    #[test]
    fn cycle_counters_only_count_completions() {
        let mut m = machine();
        m.begin_spin_down(0.0).unwrap();
        // mid-flight: no completed spin-down yet
        assert_eq!(m.spin_downs(), 0);
        m.transition(10.0, PowerState::Standby).unwrap();
        assert_eq!(m.spin_downs(), 1);
        m.begin_spin_up(10.0).unwrap();
        assert_eq!(m.spin_ups(), 0);
        m.transition(25.0, PowerState::Idle).unwrap();
        assert_eq!(m.spin_ups(), 1);
    }
}
