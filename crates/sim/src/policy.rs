//! Pluggable power policies: descent schedules over the power-state
//! ladder.
//!
//! The engine consults a [`PowerPolicy`] at the moments that matter to
//! dynamic power management:
//!
//! - **settled at a level** — a disk came to rest at some ladder level
//!   with an empty queue: level 0 when it just became idle (service
//!   completed with an empty queue, spin-up completed with an empty
//!   queue, or simulation start), level `l ≥ 1` when a descent step just
//!   completed. The policy answers with the *next descent step* — how
//!   long to rest here before descending, and how deep to go — or `None`
//!   to hold at this level for the remainder of the idle period.
//!   Consulted step by step, the answers form the policy's descent
//!   schedule over the ladder.
//! - **request arrival** — a request was dispatched to the disk (in any
//!   phase). Adaptive policies use this to observe the realised idle-gap
//!   length; the engine itself cancels pending timers by generation.
//! - **descent start** — an armed timer fired and the disk begins
//!   descending toward a deeper level.
//!
//! The closed `ThresholdPolicy` enum of the original engine survives as
//! [`TimeoutPolicy`], the stateless fixed-timeout implementation (wait a
//! constant time at level 0, then descend straight to the deepest level —
//! exactly the paper's two-state behaviour on the canonical ladder);
//! richer online policies (randomised ski-rental, adaptive idle
//! prediction, lower-envelope multi-state descent) live in
//! `spindown-analysis::online` and plug in through the same trait.
//!
//! ## Contract
//!
//! Policies are consulted once per level settled, per disk, per idle
//! period. The engine guarantees the level-0 consultation happens even
//! when the resulting timer could not fire before the trace horizon (the
//! policy still observes the idle period; the engine just refuses to
//! schedule past-horizon transitions). A policy must be deterministic
//! given its construction parameters — the simulator's reproducibility
//! guarantee extends to randomised policies only through their seeds.
//! Policies that draw randomness or update state per idle period must do
//! so only at level 0: deeper settlements belong to the same idle period.

use spindown_disk::DiskSpec;

use crate::config::ThresholdPolicy;

/// One step of a descent schedule: rest at the current level for
/// `rest_s` seconds, then descend to `to_level`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DescentStep {
    /// Seconds to rest at the current level before descending.
    pub rest_s: f64,
    /// Target ladder level. Values deeper than the drive's ladder
    /// (including [`DescentStep::DEEPEST`]) are clamped by the engine to
    /// the deepest level, so ladder-oblivious policies can say "all the
    /// way down" without knowing the depth; a step whose clamped target
    /// is not below the level the disk already rests at is treated as
    /// holding there (same as answering `None`).
    pub to_level: u8,
}

impl DescentStep {
    /// Sentinel target meaning "the drive's deepest level" (engine-clamped).
    pub const DEEPEST: u8 = u8::MAX;

    /// Rest `rest_s` seconds, then descend all the way down.
    pub fn to_deepest(rest_s: f64) -> Self {
        DescentStep {
            rest_s,
            to_level: Self::DEEPEST,
        }
    }

    /// Rest `rest_s` seconds, then descend to `to_level`.
    pub fn to_level(rest_s: f64, to_level: u8) -> Self {
        DescentStep { rest_s, to_level }
    }
}

/// An online descent decision procedure, consulted per disk.
pub trait PowerPolicy: Send {
    /// Human-readable identifier used in figures and reports.
    fn name(&self) -> String;

    /// Disk `disk` came to rest at ladder `level` at time `t` with an
    /// empty queue (level 0 = a fresh idle period). Return the next
    /// descent step, or `None` to hold at this level for the remainder of
    /// the idle period. `DescentStep { rest_s: 0.0, .. }` descends
    /// immediately.
    fn settled(&mut self, disk: usize, level: u8, t: f64) -> Option<DescentStep>;

    /// A request was dispatched to disk `disk` at time `t` (any phase;
    /// cache hits never reach the disk and are not reported).
    fn request_arrived(&mut self, _disk: usize, _t: f64) {}

    /// Disk `disk` starts descending toward `to_level` at time `t` (its
    /// timer fired).
    fn descent_started(&mut self, _disk: usize, _t: f64, _to_level: u8) {}
}

/// The paper's fixed-idleness-threshold policy family (§4–5): wait a
/// constant time at level 0, then descend straight to the deepest level —
/// or never descend at all. On the canonical two-state ladder this is
/// exactly the original spin-down-after-a-threshold behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeoutPolicy {
    threshold_s: Option<f64>,
}

impl TimeoutPolicy {
    /// A policy waiting `threshold_s` seconds (`None` = never descend).
    /// The engine rejects a negative or non-finite threshold as
    /// [`SimError::InvalidPolicyDelay`](crate::engine::SimError::InvalidPolicyDelay)
    /// the first time the policy answers with it.
    pub fn new(threshold_s: Option<f64>) -> Self {
        TimeoutPolicy { threshold_s }
    }

    /// Fixed threshold in seconds.
    pub fn fixed(threshold_s: f64) -> Self {
        Self::new(Some(threshold_s))
    }

    /// The drive's break-even threshold (the paper's default; for a
    /// multi-level ladder, the full-descent break-even).
    pub fn break_even(spec: &DiskSpec) -> Self {
        Self::new(ThresholdPolicy::BreakEven.threshold_s(spec))
    }

    /// Never spin down (the §5.1 normalisation baseline).
    pub fn never() -> Self {
        Self::new(None)
    }

    /// Port a [`ThresholdPolicy`] configuration onto the trait.
    pub fn from_config(policy: ThresholdPolicy, spec: &DiskSpec) -> Self {
        Self::new(policy.threshold_s(spec))
    }

    /// The configured threshold (`None` = never).
    pub fn threshold_s(&self) -> Option<f64> {
        self.threshold_s
    }
}

impl PowerPolicy for TimeoutPolicy {
    fn name(&self) -> String {
        match self.threshold_s {
            Some(s) => format!("timeout({s:.1}s)"),
            None => "never".to_owned(),
        }
    }

    fn settled(&mut self, _disk: usize, level: u8, _t: f64) -> Option<DescentStep> {
        if level > 0 {
            return None; // one-shot: already descended as deep as asked.
        }
        self.threshold_s.map(DescentStep::to_deepest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_policy_returns_constant_threshold() {
        let mut p = TimeoutPolicy::fixed(42.0);
        assert_eq!(p.settled(0, 0, 0.0), Some(DescentStep::to_deepest(42.0)));
        assert_eq!(p.settled(3, 0, 999.0), Some(DescentStep::to_deepest(42.0)));
        assert_eq!(p.threshold_s(), Some(42.0));
        assert!(p.name().contains("42.0"));
    }

    #[test]
    fn timeout_policy_holds_at_any_saving_level() {
        let mut p = TimeoutPolicy::fixed(42.0);
        assert_eq!(p.settled(0, 1, 100.0), None);
        assert_eq!(p.settled(0, 2, 100.0), None);
    }

    #[test]
    fn never_policy_returns_none() {
        let mut p = TimeoutPolicy::never();
        assert_eq!(p.settled(0, 0, 10.0), None);
        assert_eq!(p.name(), "never");
    }

    #[test]
    fn break_even_matches_threshold_policy() {
        let spec = DiskSpec::seagate_st3500630as();
        let mut p = TimeoutPolicy::break_even(&spec);
        let expect = ThresholdPolicy::BreakEven.threshold_s(&spec);
        assert_eq!(p.settled(0, 0, 0.0).map(|s| s.rest_s), expect);
    }

    #[test]
    fn from_config_ports_every_variant() {
        let spec = DiskSpec::seagate_st3500630as();
        assert_eq!(
            TimeoutPolicy::from_config(ThresholdPolicy::Fixed(7.0), &spec).threshold_s(),
            Some(7.0)
        );
        assert_eq!(
            TimeoutPolicy::from_config(ThresholdPolicy::Never, &spec).threshold_s(),
            None
        );
        let be = TimeoutPolicy::from_config(ThresholdPolicy::BreakEven, &spec);
        assert!((be.threshold_s().unwrap() - 53.3).abs() < 0.05);
    }

    #[test]
    fn descent_step_constructors() {
        let s = DescentStep::to_deepest(5.0);
        assert_eq!(s.rest_s, 5.0);
        assert_eq!(s.to_level, DescentStep::DEEPEST);
        let s = DescentStep::to_level(1.0, 2);
        assert_eq!(s.to_level, 2);
    }

    #[test]
    fn a_negative_threshold_is_left_to_the_engine_check() {
        // The policy answers with the delay it was given; the engine's
        // `InvalidPolicyDelay` check is the one place that rejects it.
        let mut p = TimeoutPolicy::fixed(-1.0);
        assert_eq!(p.settled(0, 0, 0.0), Some(DescentStep::to_deepest(-1.0)));
    }
}
