//! Head-to-head comparison of two allocation policies under identical
//! workloads — the measurement behind Figures 2 and 3.

use spindown_sim::engine::{SimError, Simulator};
use spindown_sim::metrics::SimReport;
use spindown_workload::{FileCatalog, InMemorySource, Trace};

use crate::planner::{Plan, Planner};

/// Result of comparing a candidate plan against a reference plan on the
/// same catalog, trace and fleet.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The candidate's simulation report (e.g. `Pack_Disks`).
    pub candidate: SimReport,
    /// The reference's simulation report (e.g. random placement).
    pub reference: SimReport,
}

impl Comparison {
    /// Power saving of the candidate relative to the reference:
    /// `1 − E_candidate/E_reference` (Figure 2's y-axis).
    pub fn power_saving(&self) -> f64 {
        let e_ref = self.reference.energy.total_joules();
        if e_ref <= 0.0 {
            return 0.0;
        }
        1.0 - self.candidate.energy.total_joules() / e_ref
    }

    /// Mean-response-time ratio candidate/reference (Figure 3's y-axis).
    /// `None` when the reference served nothing.
    pub fn response_ratio(&self) -> Option<f64> {
        let r = self.reference.responses.mean();
        if r <= 0.0 {
            return None;
        }
        Some(self.candidate.responses.mean() / r)
    }

    /// Candidate mean power, watts.
    pub fn candidate_power_w(&self) -> f64 {
        self.candidate.mean_power_w()
    }

    /// Reference mean power, watts.
    pub fn reference_power_w(&self) -> f64 {
        self.reference.mean_power_w()
    }
}

/// Run candidate and reference plans over the same trace and fleet (the
/// fleet is the larger of the two slot counts, so both see identical
/// hardware).
pub fn compare(
    planner: &Planner,
    candidate: &Plan,
    reference: &Plan,
    catalog: &FileCatalog,
    trace: &Trace,
    fleet: Option<usize>,
) -> Result<Comparison, SimError> {
    let fleet = fleet.unwrap_or_else(|| candidate.disk_slots().max(reference.disk_slots()));
    let sim = &planner.config().sim;
    let candidate_report = Simulator::run_from_source(
        catalog,
        InMemorySource::new(trace),
        &candidate.assignment,
        sim,
        fleet,
    )?;
    let reference_report = Simulator::run_from_source(
        catalog,
        InMemorySource::new(trace),
        &reference.assignment,
        sim,
        fleet,
    )?;
    Ok(Comparison {
        candidate: candidate_report,
        reference: reference_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerConfig;
    use spindown_packing::Allocator;

    #[test]
    fn pack_disks_saves_power_vs_random() {
        // A small version of the Figure 2 measurement: skewed catalog, low
        // rate → Pack_Disks concentrates load, random keeps all disks warm.
        let catalog = FileCatalog::paper_table1(600, 0);
        let rate = 0.5;
        let planner = Planner::new(PlannerConfig::default());
        let pack = planner.plan(&catalog, rate).unwrap();

        let mut rnd_cfg = PlannerConfig::default();
        rnd_cfg.allocator = Allocator::RandomFixed { disks: 40, seed: 9 };
        let rnd_planner = Planner::new(rnd_cfg);
        let random = rnd_planner.plan(&catalog, rate).unwrap();

        let trace = Trace::poisson(&catalog, rate, 2000.0, 3);
        let cmp = compare(&planner, &pack, &random, &catalog, &trace, Some(40)).unwrap();
        let saving = cmp.power_saving();
        assert!(
            saving > 0.15,
            "expected Pack_Disks to save power vs random, got {saving}"
        );
        // Both reports served every request.
        assert_eq!(cmp.candidate.responses.len(), trace.len());
        assert_eq!(cmp.reference.responses.len(), trace.len());
    }

    #[test]
    fn comparison_ratios_well_defined() {
        let catalog = FileCatalog::paper_table1(200, 0);
        let planner = Planner::new(PlannerConfig::default());
        let plan = planner.plan(&catalog, 0.2).unwrap();
        let trace = Trace::poisson(&catalog, 0.2, 500.0, 1);
        let cmp = compare(&planner, &plan, &plan, &catalog, &trace, None).unwrap();
        // identical plans → saving 0, ratio 1
        assert!(cmp.power_saving().abs() < 1e-9);
        assert!((cmp.response_ratio().unwrap() - 1.0).abs() < 1e-9);
        assert!(cmp.candidate_power_w() > 0.0);
        assert!((cmp.candidate_power_w() - cmp.reference_power_w()).abs() < 1e-9);
    }
}
