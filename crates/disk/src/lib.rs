#![warn(missing_docs)]
//! # spindown-disk
//!
//! A hard-disk power and timing model, built around the disk
//! characteristics used in Otoo, Rotem & Tsao, *Analysis of Trade-Off Between
//! Power Saving and Response Time in Disk Storage Systems* (IPPS 2009),
//! Table 2 (a Seagate ST3500630AS), and the disk power modelling literature it
//! builds on (Zedlewski et al., FAST '03).
//!
//! The crate provides:
//!
//! - [`DiskSpec`] — the static description of a drive (capacity, transfer
//!   rate, seek/rotation times, per-state power draws, spin-up/down costs).
//! - [`PowerState`] / [`power::power_of`] — the power-state taxonomy of
//!   Figure 1 of the paper, generalised over the ladder.
//! - [`PowerLadder`] / [`ladder`] — the validated N-level power-state
//!   ladder (idle / low-RPM / standby …), with the paper's two-state
//!   machine as the canonical default.
//! - [`mechanics`] — request service-time model (seek + rotational latency +
//!   transfer).
//! - [`DiskStateMachine`] — a validated state machine that enforces legal
//!   power-state transitions and their durations.
//! - [`EnergyAccountant`] — exact piecewise-constant integration of power
//!   over time.
//! - [`breakeven`] — the break-even ("idleness threshold") computation; for
//!   Table 2 it reproduces the paper's 53.3 s.
//!
//! All times are in seconds (`f64`), powers in watts, energies in joules and
//! sizes in bytes unless stated otherwise.

pub mod breakeven;
pub mod energy;
pub mod ladder;
pub mod mechanics;
pub mod power;
pub mod spec;
pub mod state;

pub use breakeven::{
    break_even_threshold, break_even_threshold_between, envelope_descent_times,
    transition_energy_between, transition_energy_overhead,
};
pub use energy::EnergyAccountant;
pub use ladder::{LadderChoice, LadderError, PowerLadder, PowerLevel};
pub use mechanics::{RequestKind, ServiceTimer};
pub use power::PowerState;
pub use spec::{DiskSpec, DiskSpecBuilder, SpecError};
pub use state::{DiskStateMachine, TransitionError};

/// Bytes in a megabyte (decimal, as used by disk vendors and the paper:
/// 72 MB/s means 72 × 10⁶ bytes per second).
pub const MB: u64 = 1_000_000;
/// Bytes in a gigabyte (decimal).
pub const GB: u64 = 1_000_000_000;
/// Bytes in a terabyte (decimal).
pub const TB: u64 = 1_000_000_000_000;
