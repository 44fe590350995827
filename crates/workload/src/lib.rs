#![warn(missing_docs)]
//! # spindown-workload
//!
//! Workload generation and trace handling for the spindown reproduction of
//! Otoo, Rotem & Tsao (IPPS 2009).
//!
//! The paper drives its simulator with two workloads:
//!
//! 1. **Synthetic (Table 1)** — `n = 40 000` files whose access frequencies
//!    follow a Zipf-like law `p_i = c / rank_i^(1−θ)` with
//!    `θ = log 0.6 / log 0.4`, whose sizes follow an *inverse* Zipf-like law
//!    between 188 MB and 20 GB (total ≈ 12.86 TB), and whose requests arrive
//!    Poisson at rate `R ∈ 1..12` per second. Popularity and size are
//!    inversely related (the most popular file is the smallest).
//! 2. **NERSC trace (§5.1)** — 30 days of real read logs: 88 631 distinct
//!    files, 115 832 requests, mean size 544 MB, sizes Zipf across 80 bins,
//!    *no* size/popularity correlation. The real logs are not public, so
//!    [`nersc`] synthesizes a trace matching every published statistic
//!    (documented as a substitution in `DESIGN.md`).
//!
//! Modules:
//! - [`zipf`] — Zipf-like distribution with explicit pmf/cdf and sampling.
//! - [`sizes`] — rank–size power laws and calibration utilities.
//! - [`catalog`] — [`catalog::FileCatalog`]: the file population.
//! - [`fault`] — [`fault::FaultPlan`]: the seeded deterministic failure
//!   model (crashes, transient errors, wake failures, fail-slow windows,
//!   load shedding) the simulation engine injects during a replay.
//! - [`arrivals`] — Poisson and batched arrival processes, plus
//!   non-stationary rate curves ([`arrivals::RateCurve`]: diurnal cycles,
//!   flash crowds, tenant ramps) sampled by Lewis–Shedler thinning.
//! - [`trace`] — request traces, generation, serde I/O and statistics.
//! - [`source`] — streaming request sources ([`source::TraceSource`]):
//!   in-memory cursor, buffered CSV reader and seeded synthetic generator,
//!   so replays need not materialise O(requests) memory.
//! - [`nersc`] — the synthetic NERSC workload.
//! - [`bins`] — logarithmic size binning (the paper's 80-bin analysis).
//! - [`shard`] — per-shard arrival streams for the sharded replay engine:
//!   a single-reader demux with bounded channels over any source.

pub mod arrivals;
pub mod bins;
pub mod catalog;
pub mod fault;
pub mod nersc;
pub mod shard;
pub mod sizes;
pub mod source;
pub mod trace;
pub mod zipf;

pub use arrivals::{RampStep, RateCurve, ThinnedProcess};
pub use catalog::{FileCatalog, FileId, FileSpec};
pub use fault::{CrashSpec, FailSlowSpec, FaultPlan};
pub use shard::{demux, DemuxPump, ShardReceiver};
pub use source::{CsvTraceSource, InMemorySource, SyntheticSource, TraceSource};
pub use trace::{Request, Trace};
pub use zipf::ZipfDistribution;

/// Bytes in a megabyte (decimal, matching the paper's 72 MB/s convention).
pub const MB: u64 = 1_000_000;
/// Bytes in a gigabyte (decimal).
pub const GB: u64 = 1_000_000_000;
/// Bytes in a terabyte (decimal).
pub const TB: u64 = 1_000_000_000_000;

/// The paper's Zipf skew parameter θ = log 0.6 / log 0.4 (Table 1).
pub fn paper_theta() -> f64 {
    0.6_f64.ln() / 0.4_f64.ln()
}

/// The paper's popularity exponent `1 − θ` used in `p_i ∝ rank^−(1−θ)`.
pub fn paper_popularity_exponent() -> f64 {
    1.0 - paper_theta()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_matches_table1() {
        // log 0.6 / log 0.4 ≈ 0.5575
        assert!((paper_theta() - 0.55746).abs() < 1e-4);
    }

    #[test]
    fn popularity_exponent_in_unit_interval() {
        let e = paper_popularity_exponent();
        assert!(e > 0.0 && e < 1.0);
        assert!((e - 0.44254).abs() < 1e-4);
    }
}
