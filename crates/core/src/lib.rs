#![warn(missing_docs)]
//! # spindown-core
//!
//! The high-level API of the spindown system: plan a power-aware file
//! allocation for a catalog and workload, evaluate it in simulation, and
//! quantify the power/response-time trade-off against baselines — i.e. the
//! workflow of Otoo, Rotem & Tsao (IPPS 2009) as a library.
//!
//! ```
//! use spindown_core::{Planner, PlannerConfig};
//! use spindown_workload::{FileCatalog, Trace};
//!
//! let catalog = FileCatalog::paper_table1(500, 0);
//! let planner = Planner::new(PlannerConfig::default());
//! // Plan an allocation for an aggregate arrival rate of 1 request/s.
//! let plan = planner.plan(&catalog, 1.0).unwrap();
//! assert!(plan.disks_used() >= 1);
//!
//! // Evaluate it on a concrete trace.
//! let trace = Trace::poisson(&catalog, 1.0, 300.0, 7);
//! let report = planner.evaluate(&plan, &catalog, &trace).unwrap();
//! assert_eq!(report.responses.len(), trace.len());
//! ```

pub mod comparison;
pub mod joint;
pub mod planner;
pub mod policy;

pub use comparison::{compare, Comparison};
pub use joint::{
    pareto_frontier, FaultChoice, JointCandidate, JointCell, JointConfig, JointError,
    JointObjective, JointOutcome, JointPlanner,
};
pub use planner::{Plan, PlanError, Planner, PlannerConfig, ServiceModel};
pub use policy::PolicyChoice;
// Queue disciplines select *how* each disk orders its pending requests,
// exactly as `PolicyChoice` selects *when* it sleeps; re-exported so
// planner/sweep callers configure both from one place.
pub use spindown_sim::discipline::DisciplineChoice;
// The metrics mode picks *how much memory* evaluating a plan costs (exact
// samples vs a constant-memory streaming histogram), the same way the
// discipline picks how each disk orders work; re-exported so sweep/planner
// callers configure everything from one place.
pub use spindown_sim::metrics::MetricsMode;
// The ladder choice picks *how many power levels* each drive descends
// through (the paper's two-state machine vs a low-RPM three-state ladder),
// the sweep grid's fourth dimension; re-exported alongside the policy and
// discipline choices it composes with.
pub use spindown_disk::LadderChoice;
// The cache choice picks *what fronts the fleet* (nothing, a flat LRU, or
// a DRAM→SSD hierarchy), the joint grid's fifth dimension; re-exported
// with the policy picker so planner/sweep callers name tiers directly.
pub use spindown_sim::hierarchy::{CacheChoice, CachePolicyChoice};
// The fault plan picks *what goes wrong* during a replay (crashes,
// transient errors, wake failures, fail-slow windows); re-exported so
// planner callers build a `FaultChoice` regime without a workload import.
pub use spindown_workload::FaultPlan;
// The rate curve picks *how the offered load moves* over a replay
// (diurnal cycles, flash crowds, tenant ramps), and the windowed report
// is how that movement shows up in the results — time-resolved metrics
// instead of one end-of-run aggregate; re-exported together so callers
// drive and read a non-stationary experiment from one place.
pub use spindown_sim::windows::{WindowRow, WindowedReport};
pub use spindown_workload::RateCurve;
