//! Policy selection: a closed, `Copy` description of *which* spin-down
//! policy to run, and the factory that builds the live [`PowerPolicy`] for a
//! drive.
//!
//! The simulator consumes policies as boxed trait objects, and randomised
//! policies are deliberately single-use (each run re-seeds). A
//! [`PolicyChoice`] is the value-semantics handle the planner and the
//! experiment sweeps pass around instead: `Copy`, comparable, and buildable
//! into a fresh policy instance any number of times.

use spindown_analysis::online::{
    AdaptivePolicy, EnvelopeDescentPolicy, LowerEnvelopePolicy, SkiRentalPolicy,
};
use spindown_disk::DiskSpec;
use spindown_sim::config::ThresholdPolicy;
use spindown_sim::policy::{PowerPolicy, TimeoutPolicy};

/// Which spin-down policy a simulation should run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyChoice {
    /// The paper's fixed-threshold family (Fixed / BreakEven / Never).
    Threshold(ThresholdPolicy),
    /// The e/(e−1)-competitive randomised ski-rental policy; β derives from
    /// the drive (`E_over / P_idle`).
    SkiRental {
        /// RNG seed — one seed, one reproducible run.
        seed: u64,
    },
    /// The exponential-average adaptive idle predictor with break-even
    /// watchdog; the break-even time derives from the drive.
    Adaptive {
        /// Smoothing factor in (0, 1].
        alpha: f64,
    },
    /// The deterministic multi-state lower-envelope descent: step into
    /// each ladder level at its cost-line intersection time (2-competitive;
    /// the break-even timeout on a two-state ladder).
    EnvelopeDescent,
    /// The probability-based multi-state lower-envelope policy: per-level
    /// descent thresholds minimise expected cost over a sliding window of
    /// observed idle gaps.
    LowerEnvelope {
        /// Gaps remembered per disk (≥ 8; 32 is a good default).
        window: u32,
    },
}

impl PolicyChoice {
    /// The paper's default: the drive's break-even threshold.
    pub fn break_even() -> Self {
        PolicyChoice::Threshold(ThresholdPolicy::BreakEven)
    }

    /// A fixed threshold in seconds.
    pub fn fixed(threshold_s: f64) -> Self {
        PolicyChoice::Threshold(ThresholdPolicy::Fixed(threshold_s))
    }

    /// Never spin down.
    pub fn never() -> Self {
        PolicyChoice::Threshold(ThresholdPolicy::Never)
    }

    /// The probability-based lower-envelope policy with its default
    /// 32-gap window.
    pub fn lower_envelope() -> Self {
        PolicyChoice::LowerEnvelope { window: 32 }
    }

    /// Build a fresh policy instance for `spec`. Randomised policies come
    /// back identically seeded every time, so repeated runs of the same
    /// choice are reproducible. Ladder-aware policies (envelope descent,
    /// lower envelope) read `spec.power_ladder()`, so hand them the spec
    /// the simulation will actually run.
    pub fn build(&self, spec: &DiskSpec) -> Box<dyn PowerPolicy> {
        match *self {
            PolicyChoice::Threshold(t) => Box::new(TimeoutPolicy::from_config(t, spec)),
            PolicyChoice::SkiRental { seed } => Box::new(SkiRentalPolicy::for_drive(spec, seed)),
            PolicyChoice::Adaptive { alpha } => Box::new(AdaptivePolicy::for_drive(spec, alpha)),
            PolicyChoice::EnvelopeDescent => Box::new(EnvelopeDescentPolicy::for_drive(spec)),
            PolicyChoice::LowerEnvelope { window } => {
                Box::new(LowerEnvelopePolicy::for_drive(spec, window as usize))
            }
        }
    }

    /// Short stable label for figures and CSV notes.
    pub fn label(&self) -> String {
        match *self {
            PolicyChoice::Threshold(ThresholdPolicy::Fixed(s)) => format!("fixed_{s:.0}s"),
            PolicyChoice::Threshold(ThresholdPolicy::BreakEven) => "break_even".into(),
            PolicyChoice::Threshold(ThresholdPolicy::Never) => "never".into(),
            PolicyChoice::SkiRental { .. } => "ski_rental".into(),
            PolicyChoice::Adaptive { alpha } => {
                format!("adaptive_a{:02}", (alpha * 100.0).round() as u32)
            }
            PolicyChoice::EnvelopeDescent => "envelope".into(),
            PolicyChoice::LowerEnvelope { .. } => "lower_env".into(),
        }
    }
}

impl Default for PolicyChoice {
    fn default() -> Self {
        Self::break_even()
    }
}

impl From<ThresholdPolicy> for PolicyChoice {
    fn from(t: ThresholdPolicy) -> Self {
        PolicyChoice::Threshold(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_variant() {
        let spec = DiskSpec::seagate_st3500630as();
        let choices = [
            PolicyChoice::fixed(30.0),
            PolicyChoice::break_even(),
            PolicyChoice::never(),
            PolicyChoice::SkiRental { seed: 1 },
            PolicyChoice::Adaptive { alpha: 0.5 },
            PolicyChoice::EnvelopeDescent,
            PolicyChoice::lower_envelope(),
        ];
        for c in choices {
            let mut p = c.build(&spec);
            // Every policy must answer an idle-start consultation.
            let d = p.settled(0, 0, 0.0);
            match c {
                PolicyChoice::Threshold(ThresholdPolicy::Never) => assert_eq!(d, None),
                _ => assert!(d.is_some()),
            }
            assert!(!p.name().is_empty());
            assert!(!c.label().is_empty());
        }
    }

    #[test]
    fn ladder_policies_read_the_spec_ladder() {
        let spec = DiskSpec::seagate_st3500630as();
        let three = spec
            .clone()
            .with_ladder(Some(spindown_disk::PowerLadder::with_low_rpm(&spec)));
        // On the three-level ladder the envelope policy steps into level 1
        // first; on the two-state ladder it goes straight to level 1 (the
        // deepest) at the aggregate break-even.
        let mut p2 = PolicyChoice::EnvelopeDescent.build(&spec);
        let mut p3 = PolicyChoice::EnvelopeDescent.build(&three);
        let s2 = p2.settled(0, 0, 0.0).unwrap();
        let s3 = p3.settled(0, 0, 0.0).unwrap();
        assert_eq!(s2.to_level, 1);
        assert_eq!(s3.to_level, 1);
        assert!(s3.rest_s < s2.rest_s, "low-RPM pays off sooner");
        assert!(p3.settled(0, 1, s3.rest_s).is_some());
        assert!(p2.settled(0, 1, s2.rest_s).is_none());
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        assert_eq!(PolicyChoice::fixed(1800.0).label(), "fixed_1800s");
        assert_eq!(PolicyChoice::break_even().label(), "break_even");
        assert_eq!(PolicyChoice::never().label(), "never");
        assert_eq!(PolicyChoice::SkiRental { seed: 9 }.label(), "ski_rental");
        assert_eq!(
            PolicyChoice::Adaptive { alpha: 0.25 }.label(),
            "adaptive_a25"
        );
        assert_eq!(PolicyChoice::EnvelopeDescent.label(), "envelope");
        assert_eq!(PolicyChoice::lower_envelope().label(), "lower_env");
    }

    #[test]
    fn rebuilt_randomised_policies_replay_identically() {
        let spec = DiskSpec::seagate_st3500630as();
        let c = PolicyChoice::SkiRental { seed: 404 };
        let mut a = c.build(&spec);
        let mut b = c.build(&spec);
        for i in 0..50 {
            assert_eq!(a.settled(0, 0, i as f64), b.settled(0, 0, i as f64));
        }
    }

    #[test]
    fn threshold_conversion() {
        let c: PolicyChoice = ThresholdPolicy::Fixed(5.0).into();
        assert_eq!(c, PolicyChoice::fixed(5.0));
        assert_eq!(PolicyChoice::default(), PolicyChoice::break_even());
    }
}
