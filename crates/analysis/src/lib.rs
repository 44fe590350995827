#![warn(missing_docs)]
//! # spindown-analysis
//!
//! Analytic companions to the simulator:
//!
//! - [`mg1`] — M/G/1 queueing (Pollaczek–Khinchine): predicts per-disk
//!   response times from the load constraint `L`, giving the analytic side
//!   of the Figure 4 trade-off curve.
//! - [`dpm`] — dynamic power management theory (§2 of the paper): offline
//!   optimal spin-down cost per idle gap, the online fixed-threshold policy
//!   and its competitive ratio (the classical 2-competitive bound).
//! - [`ski_rental`] — ski-rental theory: the sampler for the optimal
//!   e/(e−1)-competitive randomised spin-down threshold.
//! - [`online`] — the theory made executable: randomised ski-rental and
//!   adaptive idle-prediction policies implementing the simulator's
//!   `PowerPolicy` trait.
//! - [`capacity`] — capacity planning: disks needed by storage/load and the
//!   response-time-constrained utilisation cap (the paper's "percentage of
//!   disks that must be maintained on-line … under budget constraints").

pub mod capacity;
pub mod dpm;
pub mod mg1;
pub mod online;
pub mod ski_rental;

pub use dpm::{
    competitive_ratio, envelope_gap_cost, multi_state_offline_gap_cost, offline_gap_cost,
    online_gap_cost,
};
pub use mg1::{mg1_mean_response, mg1_mean_wait, utilisation_for_response};
pub use online::{AdaptivePolicy, EnvelopeDescentPolicy, LowerEnvelopePolicy, SkiRentalPolicy};

#[cfg(test)]
mod regression;
