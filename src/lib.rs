#![warn(missing_docs)]
//! # spindown
//!
//! Umbrella crate for the `spindown` workspace — a reproduction of
//! Otoo, Rotem & Tsao, *Analysis of Trade-Off Between Power Saving and
//! Response Time in Disk Storage Systems* (IPPS 2009).
//!
//! This crate re-exports the member crates under stable module names and is
//! what the `examples/` and integration `tests/` build against:
//!
//! - [`disk`] — drive power/timing model (Table 2).
//! - [`workload`] — Zipf/Poisson workload generation, traces, synthetic
//!   NERSC trace (Table 1, §5.1).
//! - [`packing`] — the `Pack_Disks` 2DVPP allocator, `Pack_Disks_v`, the CHP
//!   baseline and naïve baselines (§3).
//! - [`sim`] — discrete-event storage simulator with spin-down power
//!   management (§4).
//! - [`analysis`] — M/G/1 response model, DPM competitive analysis, Zipf
//!   fitting, capacity planning.
//! - [`core`] — the high-level planner/trade-off API.
//!
//! ## Quickstart
//!
//! ```
//! use spindown::core::{Planner, PlannerConfig};
//! use spindown::workload::catalog::FileCatalog;
//!
//! // A small synthetic catalog: 500 files, Zipf popularity, inverse sizes.
//! let catalog = FileCatalog::paper_table1(500, 42);
//! let planner = Planner::new(PlannerConfig::default());
//! let plan = planner.plan(&catalog, 2.0).expect("plan");
//! assert!(plan.disks_used() >= 1);
//! ```
//!
//! ## Choosing a spin-down policy
//!
//! The simulator consults a pluggable [`sim::policy::PowerPolicy`] at every
//! idle-period start. Select one through the planner ([`core::PolicyChoice`]
//! covers the paper's fixed thresholds plus the online randomised
//! ski-rental and adaptive-predictor policies), or implement the trait and
//! hand a factory for it to [`sim::engine::Simulator::replay`] directly:
//!
//! ```
//! use spindown::core::{Planner, PlannerConfig, PolicyChoice};
//! use spindown::workload::{FileCatalog, Trace};
//!
//! let catalog = FileCatalog::paper_table1(300, 1);
//! let trace = Trace::poisson(&catalog, 0.5, 300.0, 9);
//! let mut cfg = PlannerConfig::default();
//! cfg.policy = Some(PolicyChoice::Adaptive { alpha: 0.5 });
//! let planner = Planner::new(cfg);
//! let plan = planner.plan(&catalog, 0.5).expect("plan");
//! let report = planner.evaluate(&plan, &catalog, &trace).expect("simulates");
//! assert_eq!(report.responses.len(), trace.len());
//! ```

pub use spindown_analysis as analysis;
pub use spindown_core as core;
pub use spindown_disk as disk;
pub use spindown_experiments as experiments;
pub use spindown_packing as packing;
pub use spindown_sim as sim;
pub use spindown_workload as workload;
