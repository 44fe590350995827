//! Static drive descriptions ([`DiskSpec`]) and a validating builder.
//!
//! The canonical instance is [`DiskSpec::seagate_st3500630as`], Table 2 of
//! the paper. A couple of additional presets are provided for sensitivity
//! studies (a fast enterprise-class drive and an archival low-RPM drive).

use crate::ladder::{LadderError, PowerLadder};
use crate::GB;

/// Errors produced while validating a [`DiskSpecBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A field that must be strictly positive was zero or negative.
    NonPositive(&'static str),
    /// A field that must be finite was NaN or infinite.
    NotFinite(&'static str),
    /// Standby power must be strictly below idle power, otherwise spinning
    /// down can never save energy and the break-even threshold is undefined.
    StandbyNotBelowIdle,
    /// An explicit power-state ladder failed its own validation.
    Ladder(LadderError),
    /// An explicit ladder's level 0 must draw exactly the spec's idle
    /// power — the scalar fields and the ladder describe the same drive.
    LadderIdleMismatch,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NonPositive(field) => {
                write!(f, "disk spec field `{field}` must be > 0")
            }
            SpecError::NotFinite(field) => {
                write!(f, "disk spec field `{field}` must be finite")
            }
            SpecError::StandbyNotBelowIdle => {
                write!(f, "standby power must be strictly below idle power")
            }
            SpecError::Ladder(e) => write!(f, "power ladder invalid: {e}"),
            SpecError::LadderIdleMismatch => {
                write!(f, "ladder level 0 power must equal idle_power_w")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Static characteristics of a hard drive.
///
/// Field values for the default spec come from Table 2 of the paper
/// (Seagate ST3500630AS, 7200 rpm SATA).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSpec {
    /// Human-readable model name.
    pub model: String,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Sustained transfer rate in bytes/second (the paper's "disk load").
    pub transfer_rate_bps: f64,
    /// Average seek time in seconds.
    pub avg_seek_s: f64,
    /// Average rotational latency in seconds (half a revolution).
    pub avg_rotation_s: f64,
    /// Power draw while transferring data, watts.
    pub active_power_w: f64,
    /// Power draw while seeking, watts.
    pub seek_power_w: f64,
    /// Power draw while idle (spinning, no command), watts.
    pub idle_power_w: f64,
    /// Power draw in standby (spun down), watts.
    pub standby_power_w: f64,
    /// Power draw during spin-up, watts.
    pub spin_up_power_w: f64,
    /// Power draw during spin-down, watts.
    pub spin_down_power_w: f64,
    /// Time to spin up from standby to idle, seconds.
    pub spin_up_time_s: f64,
    /// Time to spin down from idle to standby, seconds.
    pub spin_down_time_s: f64,
    /// Optional explicit power-state ladder. `None` (the default, and what
    /// every preset ships) means the canonical two-state ladder derived
    /// from the scalar fields above — bit-identical to the pre-ladder
    /// engine. Set a deeper ladder (e.g. [`PowerLadder::with_low_rpm`])
    /// to model multi-level (partial-RPM) spin-downs; level 0 must then
    /// draw exactly `idle_power_w`.
    pub ladder: Option<PowerLadder>,
}

impl DiskSpec {
    /// The paper's drive: Seagate ST3500630AS (Table 2).
    ///
    /// 500 GB, 72 MB/s, 8.5 ms avg seek, 4.16 ms avg rotation, and the power
    /// figures of Figure 1 / Table 2. Its derived break-even threshold is the
    /// paper's 53.3 s (see [`crate::breakeven`]).
    pub fn seagate_st3500630as() -> Self {
        DiskSpec {
            model: "Seagate ST3500630AS".to_owned(),
            capacity_bytes: 500 * GB,
            transfer_rate_bps: 72.0e6,
            avg_seek_s: 8.5e-3,
            avg_rotation_s: 4.16e-3,
            active_power_w: 13.0,
            seek_power_w: 12.6,
            idle_power_w: 9.3,
            standby_power_w: 0.8,
            spin_up_power_w: 24.0,
            spin_down_power_w: 9.3,
            spin_up_time_s: 15.0,
            spin_down_time_s: 10.0,
            ladder: None,
        }
    }

    /// A synthetic fast enterprise drive (shorter seek, higher transfer rate,
    /// higher power) for sensitivity studies.
    pub fn enterprise_15k() -> Self {
        DiskSpec {
            model: "Synthetic Enterprise 15k".to_owned(),
            capacity_bytes: 300 * GB,
            transfer_rate_bps: 120.0e6,
            avg_seek_s: 3.5e-3,
            avg_rotation_s: 2.0e-3,
            active_power_w: 17.0,
            seek_power_w: 16.5,
            idle_power_w: 12.0,
            standby_power_w: 1.2,
            spin_up_power_w: 30.0,
            spin_down_power_w: 12.0,
            spin_up_time_s: 10.0,
            spin_down_time_s: 8.0,
            ladder: None,
        }
    }

    /// A synthetic archival drive (low RPM, low power, slow spin-up) for
    /// sensitivity studies — MAID/Pergamum-style deployments.
    pub fn archival_5400() -> Self {
        DiskSpec {
            model: "Synthetic Archival 5400".to_owned(),
            capacity_bytes: 1000 * GB,
            transfer_rate_bps: 45.0e6,
            avg_seek_s: 12.0e-3,
            avg_rotation_s: 5.55e-3,
            active_power_w: 8.0,
            seek_power_w: 7.8,
            idle_power_w: 5.0,
            standby_power_w: 0.4,
            spin_up_power_w: 18.0,
            spin_down_power_w: 5.0,
            spin_up_time_s: 20.0,
            spin_down_time_s: 12.0,
            ladder: None,
        }
    }

    /// The drive's power-state ladder: the explicit one when set,
    /// otherwise the canonical two-state ladder derived from the scalar
    /// fields ([`PowerLadder::two_state`]).
    pub fn power_ladder(&self) -> PowerLadder {
        match &self.ladder {
            Some(ladder) => ladder.clone(),
            None => PowerLadder::two_state(self),
        }
    }

    /// Deepest ladder level index (1 for the canonical two-state ladder).
    pub fn deepest_level(&self) -> u8 {
        match &self.ladder {
            Some(ladder) => ladder.deepest(),
            None => 1,
        }
    }

    /// Entry-transition duration into level `l` (the spin-down time for
    /// the canonical two-state ladder's level 1), seconds.
    pub fn level_entry_time_s(&self, l: u8) -> f64 {
        match &self.ladder {
            Some(ladder) => ladder.level(l).entry_time_s,
            None => {
                debug_assert_eq!(l, 1, "level {l} without an explicit ladder");
                self.spin_down_time_s
            }
        }
    }

    /// Exit-transition (wake) duration from level `l` back to idle,
    /// seconds (the spin-up time for the two-state ladder's level 1).
    pub fn level_exit_time_s(&self, l: u8) -> f64 {
        match &self.ladder {
            Some(ladder) => ladder.level(l).exit_time_s,
            None => {
                debug_assert_eq!(l, 1, "level {l} without an explicit ladder");
                self.spin_up_time_s
            }
        }
    }

    /// Replace the ladder (builder-style convenience; `None` restores the
    /// canonical two-state default).
    pub fn with_ladder(mut self, ladder: Option<PowerLadder>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Validate the invariants the rest of the crate relies on.
    pub fn validate(&self) -> Result<(), SpecError> {
        let positives: [(&'static str, f64); 10] = [
            ("transfer_rate_bps", self.transfer_rate_bps),
            ("avg_seek_s", self.avg_seek_s),
            ("avg_rotation_s", self.avg_rotation_s),
            ("active_power_w", self.active_power_w),
            ("seek_power_w", self.seek_power_w),
            ("idle_power_w", self.idle_power_w),
            ("spin_up_power_w", self.spin_up_power_w),
            ("spin_down_power_w", self.spin_down_power_w),
            ("spin_up_time_s", self.spin_up_time_s),
            ("spin_down_time_s", self.spin_down_time_s),
        ];
        for (name, v) in positives {
            if !v.is_finite() {
                return Err(SpecError::NotFinite(name));
            }
            if v <= 0.0 {
                return Err(SpecError::NonPositive(name));
            }
        }
        if !self.standby_power_w.is_finite() {
            return Err(SpecError::NotFinite("standby_power_w"));
        }
        if self.standby_power_w < 0.0 {
            return Err(SpecError::NonPositive("standby_power_w"));
        }
        if self.capacity_bytes == 0 {
            return Err(SpecError::NonPositive("capacity_bytes"));
        }
        if self.standby_power_w >= self.idle_power_w {
            return Err(SpecError::StandbyNotBelowIdle);
        }
        if let Some(ladder) = &self.ladder {
            ladder.validate().map_err(SpecError::Ladder)?;
            if ladder.level(0).power_w != self.idle_power_w {
                return Err(SpecError::LadderIdleMismatch);
            }
        }
        Ok(())
    }
}

impl Default for DiskSpec {
    fn default() -> Self {
        DiskSpec::seagate_st3500630as()
    }
}

/// Fluent builder over [`DiskSpec`] with validation at `build()` time.
#[derive(Debug, Clone, Default)]
pub struct DiskSpecBuilder {
    spec: DiskSpec,
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.spec.$name = value;
            self
        }
    };
}

impl DiskSpecBuilder {
    /// Start from the paper's drive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the model name.
    pub fn model(mut self, value: impl Into<String>) -> Self {
        self.spec.model = value.into();
        self
    }

    builder_setter!(
        /// Usable capacity in bytes.
        capacity_bytes: u64
    );
    builder_setter!(
        /// Sustained transfer rate, bytes/second.
        transfer_rate_bps: f64
    );
    builder_setter!(
        /// Average seek time, seconds.
        avg_seek_s: f64
    );
    builder_setter!(
        /// Average rotational latency, seconds.
        avg_rotation_s: f64
    );
    builder_setter!(
        /// Active (transfer) power, watts.
        active_power_w: f64
    );
    builder_setter!(
        /// Seek power, watts.
        seek_power_w: f64
    );
    builder_setter!(
        /// Idle power, watts.
        idle_power_w: f64
    );
    builder_setter!(
        /// Standby power, watts.
        standby_power_w: f64
    );
    builder_setter!(
        /// Spin-up power, watts.
        spin_up_power_w: f64
    );
    builder_setter!(
        /// Spin-down power, watts.
        spin_down_power_w: f64
    );
    builder_setter!(
        /// Spin-up time, seconds.
        spin_up_time_s: f64
    );
    builder_setter!(
        /// Spin-down time, seconds.
        spin_down_time_s: f64
    );
    builder_setter!(
        /// Explicit power-state ladder (`None` = canonical two-state,
        /// derived from the scalar fields).
        ladder: Option<PowerLadder>
    );

    /// Validate and produce the spec.
    pub fn build(self) -> Result<DiskSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        DiskSpec::default().validate().expect("Table 2 spec valid");
        DiskSpec::enterprise_15k().validate().expect("valid");
        DiskSpec::archival_5400().validate().expect("valid");
    }

    #[test]
    fn table2_values() {
        let s = DiskSpec::seagate_st3500630as();
        assert_eq!(s.capacity_bytes, 500 * GB);
        assert_eq!(s.transfer_rate_bps, 72.0e6);
        assert_eq!(s.avg_seek_s, 8.5e-3);
        assert_eq!(s.avg_rotation_s, 4.16e-3);
        assert_eq!(s.spin_up_time_s, 15.0);
        assert_eq!(s.spin_down_time_s, 10.0);
    }

    #[test]
    fn builder_roundtrip() {
        let custom = DiskSpecBuilder::new()
            .model("custom")
            .capacity_bytes(42 * GB)
            .transfer_rate_bps(100.0e6)
            .build()
            .unwrap();
        assert_eq!(custom.model, "custom");
        assert_eq!(custom.capacity_bytes, 42 * GB);
        assert_eq!(custom.transfer_rate_bps, 100.0e6);
        // untouched fields come from Table 2
        assert_eq!(custom.idle_power_w, 9.3);
    }

    #[test]
    fn builder_rejects_zero_transfer_rate() {
        let err = DiskSpecBuilder::new()
            .transfer_rate_bps(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::NonPositive("transfer_rate_bps"));
    }

    #[test]
    fn builder_rejects_nan() {
        let err = DiskSpecBuilder::new()
            .avg_seek_s(f64::NAN)
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::NotFinite("avg_seek_s"));
    }

    #[test]
    fn builder_rejects_standby_at_or_above_idle() {
        let err = DiskSpecBuilder::new()
            .standby_power_w(9.3)
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::StandbyNotBelowIdle);
    }

    #[test]
    fn builder_rejects_zero_capacity() {
        let err = DiskSpecBuilder::new()
            .capacity_bytes(0)
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::NonPositive("capacity_bytes"));
    }

    #[test]
    fn explicit_ladder_validates_through_the_builder() {
        let base = DiskSpec::seagate_st3500630as();
        let ok = DiskSpecBuilder::new()
            .ladder(Some(PowerLadder::with_low_rpm(&base)))
            .build()
            .unwrap();
        assert_eq!(ok.deepest_level(), 2);
        assert_eq!(ok.power_ladder().len(), 3);
        // Level-0 power must match the scalar idle power: a ladder built
        // for a different drive (archival, 5 W idle) cannot describe the
        // Table 2 drive (9.3 W idle).
        let err = DiskSpecBuilder::new()
            .ladder(Some(PowerLadder::with_low_rpm(&DiskSpec::archival_5400())))
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::LadderIdleMismatch);
    }

    #[test]
    fn derived_ladder_helpers_match_the_scalars() {
        let s = DiskSpec::seagate_st3500630as();
        assert!(s.ladder.is_none());
        assert_eq!(s.deepest_level(), 1);
        assert_eq!(s.level_entry_time_s(1), 10.0);
        assert_eq!(s.level_exit_time_s(1), 15.0);
        let lad = s.power_ladder();
        assert_eq!(lad.len(), 2);
        assert_eq!(lad.level(1).power_w, s.standby_power_w);
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            SpecError::StandbyNotBelowIdle.to_string(),
            "standby power must be strictly below idle power"
        );
        assert!(SpecError::NonPositive("x").to_string().contains('x'));
        assert!(SpecError::NotFinite("y").to_string().contains('y'));
    }
}
