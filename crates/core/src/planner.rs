//! Planning: catalog + rate + constraints → allocation.

use serde::{Deserialize, Serialize};
use spindown_disk::mechanics::ServiceTimer;
use spindown_disk::DiskSpec;
use spindown_packing::{Allocator, Assignment, Instance, InstanceError};
use spindown_sim::config::SimConfig;
use spindown_sim::engine::{SimError, Simulator};
use spindown_sim::metrics::SimReport;
use spindown_sim::policy::PowerPolicy;
use spindown_workload::{FileCatalog, InMemorySource, Trace};

use crate::policy::PolicyChoice;

/// How file service time is modelled when computing loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceModel {
    /// `µ_i = s_i / transfer_rate` — the paper's load definition
    /// (`l_i = r_i · s_i`, §4).
    TransferOnly,
    /// `µ_i = seek + rotation + s_i / transfer_rate` — the full mechanical
    /// model (matters only for small files).
    WithPositioning,
}

/// Configuration for [`Planner`].
///
/// The drive model lives in **one** place — `sim.disk` — and feeds
/// everything: instance building (capacity normalises sizes, transfer rate
/// defines loads), policy construction ([`Planner::power_policy`]) and
/// simulation ([`Planner::evaluate`]). Earlier versions carried a second,
/// independent `DiskSpec` for the packing side, which let a caller plan
/// against one drive and silently evaluate against another; use
/// [`PlannerConfig::with_disk`] (or set `sim.disk` directly) to swap drives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// The load constraint `L` as a fraction of the disk's service capacity
    /// (the paper sweeps 0.5–0.8).
    pub load_constraint: f64,
    /// Load/service model.
    pub service_model: ServiceModel,
    /// Which allocation algorithm to run.
    pub allocator: Allocator,
    /// Simulation configuration used by [`Planner::evaluate`]; its `disk`
    /// is the single drive model for planning *and* simulation.
    pub sim: SimConfig,
    /// Spin-down policy selection. `None` (the default) derives the policy
    /// from `sim.threshold`, preserving the fixed-threshold behaviour;
    /// `Some(choice)` overrides it, opening the full online-policy space.
    pub policy: Option<PolicyChoice>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            load_constraint: 0.7,
            service_model: ServiceModel::TransferOnly,
            allocator: Allocator::PackDisks,
            sim: SimConfig::paper_default(),
            policy: None,
        }
    }
}

impl PlannerConfig {
    /// Swap the drive model everywhere at once (packing, policies,
    /// simulation).
    pub fn with_disk(mut self, disk: DiskSpec) -> Self {
        self.sim.disk = disk;
        self
    }

    /// The single drive model this configuration plans and evaluates with.
    pub fn disk(&self) -> &DiskSpec {
        &self.sim.disk
    }
}

/// Errors from planning.
#[derive(Debug)]
pub enum PlanError {
    /// The instance could not be built (a file exceeds disk capacity in
    /// size or load).
    Instance(InstanceError),
    /// The allocator failed (e.g. random placement ran out of space).
    Allocation(spindown_packing::FeasibilityError),
    /// The load constraint is outside (0, 1].
    BadLoadConstraint(f64),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Instance(e) => write!(f, "cannot build packing instance: {e}"),
            PlanError::Allocation(e) => write!(f, "allocation failed: {e}"),
            PlanError::BadLoadConstraint(l) => {
                write!(f, "load constraint {l} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<InstanceError> for PlanError {
    fn from(e: InstanceError) -> Self {
        PlanError::Instance(e)
    }
}

impl From<spindown_packing::FeasibilityError> for PlanError {
    fn from(e: spindown_packing::FeasibilityError) -> Self {
        PlanError::Allocation(e)
    }
}

/// A planned allocation plus the instance it solves.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The file→disk assignment.
    pub assignment: Assignment,
    /// The normalised 2DVPP instance.
    pub instance: Instance,
    /// The arrival rate the loads were computed for.
    pub rate: f64,
    /// The load constraint used.
    pub load_constraint: f64,
}

impl Plan {
    /// Disks the plan actually loads.
    pub fn disks_used(&self) -> usize {
        self.assignment.disks_used()
    }

    /// Total disk slots (≥ `disks_used`; random placement keeps empties).
    pub fn disk_slots(&self) -> usize {
        self.assignment.disk_slots()
    }

    /// Empirical approximation ratio against the packing lower bound.
    pub fn approximation_ratio(&self) -> Option<f64> {
        spindown_packing::bounds::approximation_ratio(&self.instance, self.disks_used())
    }
}

/// Plans allocations and evaluates them in simulation.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlannerConfig,
}

impl Planner {
    /// Construct from a configuration.
    pub fn new(cfg: PlannerConfig) -> Self {
        Planner { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// The drive model the planner packs against *and* simulates with.
    pub fn disk(&self) -> &DiskSpec {
        &self.cfg.sim.disk
    }

    /// The per-byte service function implied by the config.
    pub fn service_time(&self, bytes: u64) -> f64 {
        let timer = ServiceTimer::new(&self.cfg.sim.disk);
        match self.cfg.service_model {
            ServiceModel::TransferOnly => timer.transfer_time(bytes),
            ServiceModel::WithPositioning => timer.service_time(bytes),
        }
    }

    /// Build the normalised packing instance for a catalog at `rate`
    /// requests/second: `s_i = size_i/S`, `l_i = rate·p_i·µ_i / L`.
    pub fn instance(&self, catalog: &FileCatalog, rate: f64) -> Result<Instance, PlanError> {
        let l = self.cfg.load_constraint;
        if !(l > 0.0 && l <= 1.0) {
            return Err(PlanError::BadLoadConstraint(l));
        }
        let sizes: Vec<u64> = catalog.iter().map(|f| f.size_bytes).collect();
        let loads = catalog.loads(rate, |b| self.service_time(b));
        Ok(Instance::from_raw(
            &sizes,
            &loads,
            self.cfg.sim.disk.capacity_bytes,
            l,
        )?)
    }

    /// Plan an allocation for `catalog` at `rate` requests/second.
    pub fn plan(&self, catalog: &FileCatalog, rate: f64) -> Result<Plan, PlanError> {
        let instance = self.instance(catalog, rate)?;
        let assignment = self.cfg.allocator.run(&instance)?;
        Ok(Plan {
            assignment,
            instance,
            rate,
            load_constraint: self.cfg.load_constraint,
        })
    }

    /// The queue discipline every simulated disk runs (configured through
    /// `sim.discipline`, FIFO by default).
    pub fn discipline(&self) -> spindown_sim::discipline::DisciplineChoice {
        self.cfg.sim.discipline
    }

    /// The effective spin-down policy choice: the explicit `policy` field,
    /// or the fixed-threshold family configured in `sim.threshold`.
    pub fn policy_choice(&self) -> PolicyChoice {
        self.cfg
            .policy
            .unwrap_or(PolicyChoice::Threshold(self.cfg.sim.threshold))
    }

    /// Build a fresh live policy instance for this planner's drive.
    pub fn power_policy(&self) -> Box<dyn PowerPolicy> {
        self.policy_choice().build(&self.cfg.sim.disk)
    }

    /// Simulate a plan against a trace over exactly the plan's disks.
    pub fn evaluate(
        &self,
        plan: &Plan,
        catalog: &FileCatalog,
        trace: &Trace,
    ) -> Result<SimReport, SimError> {
        self.evaluate_with_fleet(plan, catalog, trace, plan.disk_slots())
    }

    /// Simulate a plan over a fixed fleet (the paper keeps 100 disks).
    pub fn evaluate_with_fleet(
        &self,
        plan: &Plan,
        catalog: &FileCatalog,
        trace: &Trace,
        fleet: usize,
    ) -> Result<SimReport, SimError> {
        Simulator::replay(
            catalog,
            InMemorySource::new(trace),
            &plan.assignment,
            &self.cfg.sim,
            fleet,
            |_| self.power_policy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_sim::config::ThresholdPolicy;

    fn catalog() -> FileCatalog {
        FileCatalog::paper_table1(400, 0)
    }

    #[test]
    fn plan_is_feasible_and_bounded() {
        let planner = Planner::new(PlannerConfig::default());
        let plan = planner.plan(&catalog(), 0.5).unwrap();
        plan.assignment.verify(&plan.instance).unwrap();
        assert!(plan.disks_used() >= 1);
        assert!(plan.approximation_ratio().unwrap() >= 1.0);
    }

    #[test]
    fn higher_rate_needs_at_least_as_many_disks() {
        let planner = Planner::new(PlannerConfig::default());
        let lo = planner.plan(&catalog(), 0.1).unwrap().disks_used();
        let hi = planner.plan(&catalog(), 1.0).unwrap().disks_used();
        assert!(hi >= lo, "hi {hi} < lo {lo}");
    }

    #[test]
    fn looser_load_constraint_uses_fewer_or_equal_disks() {
        let mut cfg = PlannerConfig::default();
        cfg.load_constraint = 0.5;
        let tight = Planner::new(cfg.clone()).plan(&catalog(), 0.8).unwrap();
        cfg.load_constraint = 0.9;
        let loose = Planner::new(cfg).plan(&catalog(), 0.8).unwrap();
        assert!(loose.disks_used() <= tight.disks_used());
    }

    #[test]
    fn bad_load_constraint_rejected() {
        let mut cfg = PlannerConfig::default();
        cfg.load_constraint = 0.0;
        let err = Planner::new(cfg).plan(&catalog(), 1.0).unwrap_err();
        assert!(matches!(err, PlanError::BadLoadConstraint(_)));
    }

    #[test]
    fn infeasible_file_load_reported() {
        // Extreme rate: the most popular file alone exceeds the load cap.
        let planner = Planner::new(PlannerConfig::default());
        let err = planner.plan(&catalog(), 1e6).unwrap_err();
        assert!(matches!(err, PlanError::Instance(_)));
    }

    #[test]
    fn service_models_differ_by_positioning() {
        let mut cfg = PlannerConfig::default();
        cfg.service_model = ServiceModel::TransferOnly;
        let transfer = Planner::new(cfg.clone()).service_time(72_000_000);
        cfg.service_model = ServiceModel::WithPositioning;
        let with_pos = Planner::new(cfg).service_time(72_000_000);
        assert!((transfer - 1.0).abs() < 1e-12);
        assert!((with_pos - 1.0 - 0.0085 - 0.00416).abs() < 1e-12);
    }

    #[test]
    fn policy_override_changes_behaviour_and_stays_deterministic() {
        let cat = catalog();
        let trace = Trace::poisson(&cat, 0.2, 600.0, 3);
        let mut cfg = PlannerConfig::default();
        cfg.sim = cfg.sim.with_threshold(ThresholdPolicy::Never);
        let never = Planner::new(cfg.clone());
        let plan = never.plan(&cat, 0.2).unwrap();
        let r_never = never.evaluate(&plan, &cat, &trace).unwrap();
        assert_eq!(r_never.spin_downs, 0);

        cfg.policy = Some(crate::policy::PolicyChoice::SkiRental { seed: 11 });
        let ski = Planner::new(cfg);
        let a = ski.evaluate(&plan, &cat, &trace).unwrap();
        let b = ski.evaluate(&plan, &cat, &trace).unwrap();
        // The override takes effect (the ski policy sleeps) and repeated
        // runs replay the same seeded draws.
        assert!(a.spin_downs > 0);
        assert_eq!(a.energy.total_joules(), b.energy.total_joules());
        assert_eq!(a.responses, b.responses);
        assert_eq!(ski.policy_choice().label(), "ski_rental");
    }

    #[test]
    fn discipline_flows_through_the_planner_into_simulation() {
        use spindown_sim::discipline::DisciplineChoice;
        let cat = catalog();
        let trace = Trace::poisson(&cat, 0.5, 400.0, 9);
        let mut cfg = PlannerConfig::default();
        cfg.sim = cfg.sim.with_threshold(ThresholdPolicy::Never);
        let fifo = Planner::new(cfg.clone());
        assert_eq!(fifo.discipline(), DisciplineChoice::Fifo);
        let plan = fifo.plan(&cat, 0.5).unwrap();
        let r_fifo = fifo.evaluate(&plan, &cat, &trace).unwrap();

        cfg.sim = cfg.sim.with_discipline(DisciplineChoice::sjf());
        let sjf = Planner::new(cfg);
        assert_eq!(sjf.discipline(), DisciplineChoice::sjf());
        let a = sjf.evaluate(&plan, &cat, &trace).unwrap();
        let b = sjf.evaluate(&plan, &cat, &trace).unwrap();
        // Same requests served either way, deterministically.
        assert_eq!(a.responses.len(), r_fifo.responses.len());
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.energy.total_joules(), b.energy.total_joules());
    }

    #[test]
    fn default_policy_choice_follows_sim_threshold() {
        let mut cfg = PlannerConfig::default();
        cfg.sim = cfg.sim.with_threshold(ThresholdPolicy::Fixed(12.0));
        let planner = Planner::new(cfg);
        assert_eq!(
            planner.policy_choice(),
            crate::policy::PolicyChoice::fixed(12.0)
        );
    }

    #[test]
    fn non_default_drive_is_honoured_end_to_end() {
        // Regression for the split-brain config: planning and evaluation
        // must see the *same* non-default drive. Plan on the archival
        // drive and evaluate under Never-spin-down: the fleet then idles
        // at exactly the archival drive's idle power between requests, so
        // the report's mean power is bracketed by that drive's idle and
        // active draws — impossible if evaluation fell back to the Table 2
        // drive (9.3 W idle vs 5.0 W).
        let drive = spindown_disk::DiskSpec::archival_5400();
        let mut cfg = PlannerConfig::default().with_disk(drive.clone());
        cfg.sim = cfg.sim.with_threshold(ThresholdPolicy::Never);
        let planner = Planner::new(cfg);
        assert_eq!(planner.disk().model, drive.model);
        let cat = catalog();
        let plan = planner.plan(&cat, 0.2).unwrap();
        // The packing side normalised against the archival capacity (1 TB),
        // not the default 500 GB.
        let max_s = plan
            .instance
            .items()
            .iter()
            .map(|it| it.s)
            .fold(0.0, f64::max);
        let expected_max = 20.0e9 / drive.capacity_bytes as f64;
        assert!((max_s - expected_max).abs() < 1e-9, "max_s {max_s}");
        let trace = Trace::poisson(&cat, 0.2, 400.0, 5);
        let report = planner.evaluate(&plan, &cat, &trace).unwrap();
        let mean_w = report.energy.total_joules() / report.sim_time_s / plan.disk_slots() as f64;
        assert!(
            mean_w >= drive.idle_power_w && mean_w <= drive.active_power_w,
            "per-disk mean power {mean_w} W outside the archival drive's \
             [{}, {}] W envelope",
            drive.idle_power_w,
            drive.active_power_w
        );
        // And well below the default drive's idle floor, proving the
        // simulation did not run the Table 2 spec.
        assert!(mean_w < spindown_disk::DiskSpec::seagate_st3500630as().idle_power_w);
    }

    #[test]
    fn end_to_end_plan_and_evaluate() {
        let mut cfg = PlannerConfig::default();
        cfg.sim = cfg.sim.with_threshold(ThresholdPolicy::BreakEven);
        let planner = Planner::new(cfg);
        let cat = catalog();
        let plan = planner.plan(&cat, 0.3).unwrap();
        let trace = Trace::poisson(&cat, 0.3, 400.0, 11);
        let report = planner.evaluate(&plan, &cat, &trace).unwrap();
        assert_eq!(report.responses.len(), trace.len());
        assert!(report.energy.total_joules() > 0.0);
        // fleet evaluation with extra standby disks uses more energy
        let fleet = planner
            .evaluate_with_fleet(&plan, &cat, &trace, plan.disk_slots() + 10)
            .unwrap();
        assert!(fleet.energy.total_joules() > report.energy.total_joules());
    }
}
