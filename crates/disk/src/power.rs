//! Disk power states (Figure 1 of the paper, generalised to the N-level
//! power-state ladder) and their power draws.

use crate::spec::DiskSpec;

/// The power states a drive can be in.
///
/// `Active` covers read/write data transfer; `Seek` is head movement
/// (briefly higher power than transfer on most drives); `Idle` is the
/// ladder's level 0 — platters at full speed with no command in flight.
/// The remaining three variants carry a ladder level `l ≥ 1`:
/// `Sleeping(l)` is resident at power-saving level `l`, `Descending(l)` is
/// the entry transition into level `l` (from level `l − 1`), and
/// `Waking(l)` is the exit transition from level `l` back to `Idle`.
///
/// For the canonical two-state ladder (the paper's Figure 1) the legacy
/// names are provided as associated constants: [`PowerState::Standby`] is
/// `Sleeping(1)`, [`PowerState::SpinningDown`] is `Descending(1)` and
/// [`PowerState::SpinningUp`] is `Waking(1)`. They compare, match and
/// print exactly as the old enum variants did, so two-state code reads
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Transferring data (read or write).
    Active,
    /// Moving the head to the target cylinder.
    Seek,
    /// Ladder level 0: platters spinning at full speed, no work.
    Idle,
    /// Resident at power-saving ladder level `l ≥ 1`.
    Sleeping(u8),
    /// Entry transition into level `l` from level `l − 1`; takes the
    /// level's `entry_time_s`.
    Descending(u8),
    /// Exit transition from level `l` back to [`PowerState::Idle`]; takes
    /// the level's `exit_time_s`.
    Waking(u8),
}

#[allow(non_upper_case_globals)]
impl PowerState {
    /// The canonical two-state ladder's spun-down level (`Sleeping(1)`).
    pub const Standby: PowerState = PowerState::Sleeping(1);
    /// The canonical two-state spin-up transition (`Waking(1)`).
    pub const SpinningUp: PowerState = PowerState::Waking(1);
    /// The canonical two-state spin-down transition (`Descending(1)`).
    pub const SpinningDown: PowerState = PowerState::Descending(1);

    /// The states of the canonical two-state ladder, in the order the
    /// original fixed enum declared them. Kept for two-state table-driven
    /// tests; it does not cover the levels of a deeper ladder.
    pub const ALL: [PowerState; 6] = [
        PowerState::Active,
        PowerState::Seek,
        PowerState::Idle,
        PowerState::Standby,
        PowerState::SpinningUp,
        PowerState::SpinningDown,
    ];

    /// The ladder level this state is resident at or transitioning
    /// to/from; `None` for the operational states (`Active`/`Seek`/`Idle`
    /// are all level 0 but carry no saving level).
    pub fn level(self) -> Option<u8> {
        match self {
            PowerState::Sleeping(l) | PowerState::Descending(l) | PowerState::Waking(l) => Some(l),
            _ => None,
        }
    }

    /// Short lowercase label, stable across versions (used in reports).
    /// Two-state ladder states keep the original labels (`standby`,
    /// `spinup`, `spindown`); deeper levels append their index
    /// (`sleep2`, `enter2`, `wake2`, …).
    pub fn label(self) -> String {
        match self {
            PowerState::Active => "active".to_owned(),
            PowerState::Seek => "seek".to_owned(),
            PowerState::Idle => "idle".to_owned(),
            PowerState::Sleeping(1) => "standby".to_owned(),
            PowerState::Waking(1) => "spinup".to_owned(),
            PowerState::Descending(1) => "spindown".to_owned(),
            PowerState::Sleeping(l) => format!("sleep{l}"),
            PowerState::Waking(l) => format!("wake{l}"),
            PowerState::Descending(l) => format!("enter{l}"),
        }
    }
}

/// Power draw (watts) of `state` for a drive described by `spec`.
///
/// Level-carrying states read the spec's explicit [`DiskSpec::ladder`]
/// when one is set; otherwise they fall back to the scalar two-state
/// fields (level 1 only — deeper levels without an explicit ladder are an
/// engine bug).
pub fn power_of(spec: &DiskSpec, state: PowerState) -> f64 {
    match state {
        PowerState::Active => spec.active_power_w,
        PowerState::Seek => spec.seek_power_w,
        PowerState::Idle => spec.idle_power_w,
        PowerState::Sleeping(l) => match &spec.ladder {
            Some(ladder) => ladder.level(l).power_w,
            None => {
                debug_assert_eq!(l, 1, "level {l} without an explicit ladder");
                spec.standby_power_w
            }
        },
        PowerState::Descending(l) => match &spec.ladder {
            Some(ladder) => ladder.level(l).entry_power_w,
            None => {
                debug_assert_eq!(l, 1, "level {l} without an explicit ladder");
                spec.spin_down_power_w
            }
        },
        PowerState::Waking(l) => match &spec.ladder {
            Some(ladder) => ladder.level(l).exit_power_w,
            None => {
                debug_assert_eq!(l, 1, "level {l} without an explicit ladder");
                spec.spin_up_power_w
            }
        },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ladder::PowerLadder;
    use crate::spec::DiskSpec;

    /// Every state of a `k`-level ladder (levels 0..k−1), operational states
    /// first, then per-level `(Sleeping, Descending, Waking)` triples shallow
    /// to deep — the table-driven iteration order of
    /// [`EnergyBreakdown`](crate::energy::EnergyBreakdown).
    pub(crate) fn states_of(levels: usize) -> Vec<PowerState> {
        let mut v = vec![PowerState::Active, PowerState::Seek, PowerState::Idle];
        for l in 1..levels {
            let l = l as u8;
            v.push(PowerState::Sleeping(l));
            v.push(PowerState::Descending(l));
            v.push(PowerState::Waking(l));
        }
        v
    }

    impl PowerState {
        /// Whether the platters are at full rotational speed in this state
        /// (i.e. the disk could begin servicing a request without waking).
        fn is_spun_up(self) -> bool {
            matches!(
                self,
                PowerState::Active | PowerState::Seek | PowerState::Idle
            )
        }

        /// Whether this is a transitional (entry or exit) state.
        fn is_transitional(self) -> bool {
            matches!(self, PowerState::Waking(_) | PowerState::Descending(_))
        }
    }

    #[test]
    fn paper_power_values_match_table2() {
        let spec = DiskSpec::seagate_st3500630as();
        assert_eq!(power_of(&spec, PowerState::Idle), 9.3);
        assert_eq!(power_of(&spec, PowerState::Standby), 0.8);
        assert_eq!(power_of(&spec, PowerState::Active), 13.0);
        assert_eq!(power_of(&spec, PowerState::Seek), 12.6);
        assert_eq!(power_of(&spec, PowerState::SpinningUp), 24.0);
        assert_eq!(power_of(&spec, PowerState::SpinningDown), 9.3);
    }

    #[test]
    fn legacy_aliases_are_the_level_1_states() {
        assert_eq!(PowerState::Standby, PowerState::Sleeping(1));
        assert_eq!(PowerState::SpinningUp, PowerState::Waking(1));
        assert_eq!(PowerState::SpinningDown, PowerState::Descending(1));
    }

    #[test]
    fn explicit_ladder_drives_the_level_states() {
        let mut spec = DiskSpec::seagate_st3500630as();
        spec.ladder = Some(PowerLadder::with_low_rpm(&spec));
        let lad = spec.ladder.clone().unwrap();
        assert_eq!(
            power_of(&spec, PowerState::Sleeping(1)),
            lad.level(1).power_w
        );
        assert_eq!(
            power_of(&spec, PowerState::Descending(2)),
            lad.level(2).entry_power_w
        );
        assert_eq!(
            power_of(&spec, PowerState::Waking(2)),
            lad.level(2).exit_power_w
        );
        // Deepest level of the 3-ladder matches the scalar standby fields
        // (the preset reuses them for its deepest level).
        assert_eq!(power_of(&spec, PowerState::Sleeping(2)), 0.8);
    }

    #[test]
    fn standby_draws_least_power() {
        let spec = DiskSpec::seagate_st3500630as();
        for state in PowerState::ALL {
            if state != PowerState::Standby {
                assert!(
                    power_of(&spec, state) > power_of(&spec, PowerState::Standby),
                    "{state:?} should draw more than standby"
                );
            }
        }
    }

    #[test]
    fn spun_up_classification() {
        assert!(PowerState::Active.is_spun_up());
        assert!(PowerState::Seek.is_spun_up());
        assert!(PowerState::Idle.is_spun_up());
        assert!(!PowerState::Standby.is_spun_up());
        assert!(!PowerState::SpinningUp.is_spun_up());
        assert!(!PowerState::SpinningDown.is_spun_up());
        assert!(!PowerState::Sleeping(2).is_spun_up());
    }

    #[test]
    fn transitional_classification() {
        let transitional: Vec<_> = PowerState::ALL
            .into_iter()
            .filter(|s| s.is_transitional())
            .collect();
        assert_eq!(
            transitional,
            vec![PowerState::SpinningUp, PowerState::SpinningDown]
        );
        assert!(PowerState::Descending(3).is_transitional());
        assert!(!PowerState::Sleeping(3).is_transitional());
    }

    #[test]
    fn level_extraction() {
        assert_eq!(PowerState::Idle.level(), None);
        assert_eq!(PowerState::Active.level(), None);
        assert_eq!(PowerState::Sleeping(2).level(), Some(2));
        assert_eq!(PowerState::Standby.level(), Some(1));
    }

    #[test]
    fn labels_are_unique_across_a_deep_ladder() {
        let mut labels: Vec<_> = states_of(4).iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 3 + 3 * 3);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3 + 3 * 3);
        // Two-state labels are the original ones.
        assert_eq!(PowerState::Standby.label(), "standby");
        assert_eq!(PowerState::SpinningUp.label(), "spinup");
        assert_eq!(PowerState::SpinningDown.label(), "spindown");
    }

    #[test]
    fn states_of_two_levels_matches_legacy_all() {
        let mut two: Vec<_> = states_of(2);
        let mut all = PowerState::ALL.to_vec();
        two.sort_by_key(|s| format!("{s:?}"));
        all.sort_by_key(|s| format!("{s:?}"));
        assert_eq!(two, all);
    }
}
