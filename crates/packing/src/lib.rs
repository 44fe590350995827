#![warn(missing_docs)]
//! # spindown-packing
//!
//! Two-dimensional vector packing (2DVPP) for power-aware file allocation —
//! the core contribution of Otoo, Rotem & Tsao (IPPS 2009), §3.
//!
//! Each file is an item `(s_i, l_i)` — storage and load, both normalised to
//! a disk's capacity — and a packing is a partition of items into disks such
//! that each disk's total size and total load are ≤ 1. Minimising the number
//! of disks is NP-complete; this crate implements:
//!
//! - [`pack_disks::pack_disks`] — the paper's `Pack_Disks` heuristic:
//!   `O(n log n)` using a pair of max-heaps and per-disk s-/l-lists, with
//!   guarantee `C_PD ≤ C*/(1−ρ) + 1` ([`bounds`]).
//! - [`pack_disks_v::pack_disks_v`] — the §3.2 group variant that round-robins
//!   items across `v` concurrently open disks to spread same-size batches.
//! - [`chp::pack_chp`] — the Chang–Hwang–Park reference algorithm the paper
//!   improves on, with its original `O(n²)` data structures. Produces
//!   *identical* packings (property-tested), only slower — this pair is the
//!   paper's complexity claim, benchmarked in `spindown-bench`.
//! - [`baselines`] — random placement (the paper's comparison point),
//!   first-fit, first-fit-decreasing, best-fit and next-fit.
//! - [`heap::KeyedMaxHeap`] — the deterministic arena-backed max-heap used
//!   by the algorithms.
//! - [`bounds`] — lower bounds and the Theorem 1 approximation-ratio check.
//!
//! The entry type is [`Instance`]; results are [`Assignment`]s.

pub mod assignment;
pub mod baselines;
pub mod bounds;
pub mod chp;
pub mod heap;
pub mod instance;
pub mod pack_disks;
pub mod pack_disks_v;
pub mod shaping;

pub use assignment::{Assignment, DiskBin, FeasibilityError};
pub use bounds::{fractional_lower_bound, lower_bound, theorem1_budget};
pub use instance::{Instance, InstanceError, PackItem};
pub use pack_disks::pack_disks;
pub use pack_disks_v::pack_disks_v;

/// Which allocator to run — used by the simulator and experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Allocator {
    /// The paper's `Pack_Disks` (§3.1).
    PackDisks,
    /// `Pack_Disks_v` with the given group size (§3.2); `PackDisksV(1)`
    /// equals `PackDisks`.
    PackDisksV(u32),
    /// Chang–Hwang–Park reference implementation (same output, O(n²)).
    Chp,
    /// Random placement over a fixed number of disks (the paper's baseline).
    RandomFixed {
        /// Number of disks to spread over.
        disks: u32,
        /// RNG seed.
        seed: u64,
    },
    /// First-fit in input order.
    FirstFit,
    /// First-fit decreasing by `max(s, l)`.
    FirstFitDecreasing,
    /// Best-fit (tightest remaining combined slack).
    BestFit,
    /// Next-fit (single open disk).
    NextFit,
    /// Popular Data Concentration (Pinheiro & Bianchini, ref \[11\]):
    /// hottest files first, disks filled sequentially.
    Pdc,
    /// Load-shaping: hot load on the fewest disks, archival mass on
    /// dedicated near-zero-load disks ([`shaping::concentrate`]) — the
    /// energy-leaning leg of the joint planner.
    Concentrate,
    /// Load-shaping: archival mass packed normally, the latency-sensitive
    /// hot tail balanced evenly across disks ([`shaping::spread_tail`]) —
    /// the latency-leaning leg of the joint planner.
    SpreadTail,
}

impl Allocator {
    /// Run the allocator on an instance.
    pub fn run(&self, instance: &Instance) -> Result<Assignment, FeasibilityError> {
        let a = match *self {
            Allocator::PackDisks => pack_disks(instance),
            Allocator::PackDisksV(v) => pack_disks_v(instance, v as usize),
            Allocator::Chp => chp::pack_chp(instance),
            Allocator::RandomFixed { disks, seed } => {
                baselines::random_fixed(instance, disks as usize, seed)?
            }
            Allocator::FirstFit => baselines::first_fit(instance),
            Allocator::FirstFitDecreasing => baselines::first_fit_decreasing(instance),
            Allocator::BestFit => baselines::best_fit(instance),
            Allocator::NextFit => baselines::next_fit(instance),
            Allocator::Pdc => baselines::pdc(instance),
            Allocator::Concentrate => shaping::concentrate(instance),
            Allocator::SpreadTail => shaping::spread_tail(instance),
        };
        Ok(a)
    }

    /// A short stable label for reports.
    pub fn label(&self) -> String {
        match self {
            Allocator::PackDisks => "pack_disks".to_owned(),
            Allocator::PackDisksV(v) => format!("pack_disks_{v}"),
            Allocator::Chp => "chp".to_owned(),
            Allocator::RandomFixed { disks, .. } => format!("random_{disks}"),
            Allocator::FirstFit => "first_fit".to_owned(),
            Allocator::FirstFitDecreasing => "ffd".to_owned(),
            Allocator::BestFit => "best_fit".to_owned(),
            Allocator::NextFit => "next_fit".to_owned(),
            Allocator::Pdc => "pdc".to_owned(),
            Allocator::Concentrate => "concentrate".to_owned(),
            Allocator::SpreadTail => "spread_tail".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_labels_are_stable() {
        assert_eq!(Allocator::PackDisks.label(), "pack_disks");
        assert_eq!(Allocator::PackDisksV(4).label(), "pack_disks_4");
        assert_eq!(
            Allocator::RandomFixed { disks: 96, seed: 0 }.label(),
            "random_96"
        );
        assert_eq!(Allocator::Concentrate.label(), "concentrate");
        assert_eq!(Allocator::SpreadTail.label(), "spread_tail");
    }
}
