//! Figures 2 and 3: Pack_Disks vs random placement across arrival rates.
//!
//! For every `(R, L)` grid point the Table 1 workload is generated, packed
//! with `Pack_Disks` under load constraint `L`, and simulated on the
//! 100-disk fleet with the break-even idleness threshold; random placement
//! over the same fleet is the reference. Figure 2 plots the power saving
//! `1 − E_pack/E_random`, Figure 3 the mean-response-time ratio.

use spindown_core::{compare, Planner, PlannerConfig};
use spindown_packing::Allocator;
use spindown_workload::{FileCatalog, Trace};

use crate::sweep::parallel_map;
use crate::{grid_seed, Figure, Scale};

/// One grid point's results.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Arrival rate R (requests/second).
    pub rate: f64,
    /// Load constraint L (fraction of disk service capacity).
    pub load: f64,
    /// Power saving of Pack_Disks vs random (`1 − E_pack/E_rnd`).
    pub power_saving: f64,
    /// Mean response ratio Pack_Disks/random.
    pub response_ratio: f64,
    /// Disks Pack_Disks loaded.
    pub pack_disks_used: usize,
}

/// Run the full (R × L) sweep in parallel.
pub fn sweep(scale: Scale) -> Vec<SweepPoint> {
    let catalog = FileCatalog::paper_table1(scale.n_files(), 0);
    let fleet = scale.fleet();
    let rates = scale.rates();
    let loads = scale.load_constraints();
    let grid: Vec<(f64, f64)> = rates
        .iter()
        .flat_map(|&r| loads.iter().map(move |&l| (r, l)))
        .collect();
    parallel_map(&grid, |_, &(rate, load)| {
        run_point(&catalog, fleet, scale.sim_time(), rate, load)
    })
}

fn run_point(
    catalog: &FileCatalog,
    fleet: usize,
    sim_time: f64,
    rate: f64,
    load: f64,
) -> SweepPoint {
    let seed = grid_seed(23, rate.to_bits(), load.to_bits());
    let trace = Trace::poisson(catalog, rate, sim_time, seed);

    let mut pack_cfg = PlannerConfig::default();
    pack_cfg.load_constraint = load;
    let pack_planner = Planner::new(pack_cfg.clone());
    let pack = pack_planner
        .plan(catalog, rate)
        .expect("Table 1 instance must be feasible");

    let mut rnd_cfg = pack_cfg;
    rnd_cfg.allocator = Allocator::RandomFixed {
        disks: fleet as u32,
        seed: seed ^ 0xABCD,
    };
    let random = Planner::new(rnd_cfg)
        .plan(catalog, rate)
        .expect("random placement over the full fleet must fit");

    let cmp = compare(&pack_planner, &pack, &random, catalog, &trace, Some(fleet))
        .expect("simulation must succeed");
    SweepPoint {
        rate,
        load,
        power_saving: cmp.power_saving(),
        response_ratio: cmp.response_ratio().unwrap_or(f64::NAN),
        pack_disks_used: pack.disks_used(),
    }
}

/// Build both figures from one sweep.
pub fn fig23(scale: Scale) -> (Figure, Figure) {
    let points = sweep(scale);
    let loads = scale.load_constraints();
    let mut columns = vec!["R".to_owned()];
    columns.extend(loads.iter().map(|l| format!("L={:.0}%", l * 100.0)));

    let mut fig2 = Figure::new(
        "fig2",
        "Ratio of power saving vs arrival rate (Pack_Disks vs random)",
        columns.clone(),
    );
    let mut fig3 = Figure::new(
        "fig3",
        "Response-time ratio Pack_Disks/random vs arrival rate",
        columns,
    );
    for fig in [&mut fig2, &mut fig3] {
        fig.notes.push(format!(
            "Table 1 workload: {} files, {} disks, {}s simulated, break-even threshold",
            scale.n_files(),
            scale.fleet(),
            scale.sim_time()
        ));
    }
    for &rate in &scale.rates() {
        let mut row2 = vec![rate];
        let mut row3 = vec![rate];
        for &load in &loads {
            let p = points
                .iter()
                .find(|p| p.rate == rate && p.load == load)
                .expect("grid point present");
            row2.push(p.power_saving);
            row3.push(p.response_ratio);
        }
        fig2.push_row(row2);
        fig3.push_row(row3);
    }
    (fig2, fig3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end smoke: a moderate and a saturating rate. (At very
    /// low rates random placement also sleeps a lot, so the contrast is
    /// clearest in the middle of the paper's R range.)
    #[test]
    fn quick_sweep_shapes() {
        let catalog = FileCatalog::paper_table1(40_000, 0);
        let low = run_point(&catalog, 100, 600.0, 4.0, 0.5);
        let high = run_point(&catalog, 100, 600.0, 12.0, 0.5);
        // Pack saves power at moderate rates (paper: >60% below R=4 at the
        // full 4000 s horizon; the 600 s window still shows a clear margin).
        assert!(
            low.power_saving > 0.25,
            "moderate-rate saving {}",
            low.power_saving
        );
        // Saving decays as the rate grows (Figure 2's main shape).
        assert!(
            high.power_saving < low.power_saving,
            "saving did not decay: low {} high {}",
            low.power_saving,
            high.power_saving
        );
        // More disks are loaded at the higher rate (load-bound packing).
        assert!(high.pack_disks_used >= low.pack_disks_used);
    }

    #[test]
    fn figures_have_grid_shape() {
        let (f2, f3) = fig23(Scale::Quick);
        assert_eq!(f2.rows.len(), Scale::Quick.rates().len());
        assert_eq!(f2.columns.len(), 1 + Scale::Quick.load_constraints().len());
        assert_eq!(f3.rows.len(), f2.rows.len());
        // power savings are ratios in [-1, 1]
        for row in &f2.rows {
            for &v in &row[1..] {
                assert!(v.is_finite() && v > -1.0 && v <= 1.0, "saving {v}");
            }
        }
        // response ratios are positive
        for row in &f3.rows {
            for &v in &row[1..] {
                assert!(v.is_finite() && v > 0.0, "ratio {v}");
            }
        }
    }
}
