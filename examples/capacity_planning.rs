//! Capacity planning: "obtaining reliable estimates on the size of a disk
//! farm needed to support a given workload of requests while satisfying
//! constraints on I/O response times" (§6 of the paper).
//!
//! Combines the M/G/1 response model with the packing lower bounds to size
//! a fleet, then validates the answer with a simulation. `online_%` is the
//! paper's "percentage of disks that must be maintained on-line": the share
//! of the sized farm that must spin to carry the load.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use spindown::analysis::capacity::plan_farm;
use spindown::analysis::mg1::mixture_moments;
use spindown::core::{Planner, PlannerConfig};
use spindown::workload::{FileCatalog, Trace};

fn main() {
    let catalog = FileCatalog::paper_table1(40_000, 0);
    let rate = 6.0;
    let planner = Planner::new(PlannerConfig::default());

    // Service moments of the request mixture (popularity-weighted).
    let pops: Vec<f64> = catalog.iter().map(|f| f.popularity).collect();
    let services: Vec<f64> = catalog
        .iter()
        .map(|f| planner.service_time(f.size_bytes))
        .collect();
    let (es, es2) = mixture_moments(&pops, &services);
    println!("request mixture: E[S] = {es:.2} s, E[S²] = {es2:.1} s²\n");

    println!(
        "{:>12}  {:>9}  {:>9}  {:>8}  {:>9}  {:>9}",
        "budget_s", "load_cap", "by_load", "by_cap", "disks", "online_%"
    );
    for budget in [5.0, 8.0, 12.0, 20.0, 40.0] {
        match plan_farm(catalog.total_bytes(), rate, es, es2, budget, planner.disk()) {
            Some(plan) => println!(
                "{:>12.1}  {:>9.3}  {:>9}  {:>8}  {:>9}  {:>9.1}",
                budget,
                plan.load_cap,
                plan.by_load,
                plan.by_storage,
                plan.disks(),
                100.0
                    * plan
                        .online_fraction(plan.disks())
                        .expect("the farm fits itself")
            ),
            None => println!("{budget:>12.1}  unreachable (below bare service time)"),
        }
    }

    // Validate the 12 s budget row by planning at the derived load cap and
    // simulating.
    let budget = 12.0;
    let farm =
        plan_farm(catalog.total_bytes(), rate, es, es2, budget, planner.disk()).expect("feasible");
    let mut cfg = PlannerConfig::default();
    cfg.load_constraint = farm.load_cap.min(1.0);
    let planner = Planner::new(cfg);
    let plan = planner.plan(&catalog, rate).expect("plan");
    let trace = Trace::poisson(&catalog, rate, 4_000.0, 9);
    let report = planner.evaluate(&plan, &catalog, &trace).expect("simulate");
    println!(
        "\nvalidation at budget {budget} s: planned {} disks (analytic {}), \
         simulated mean response {:.2} s",
        plan.disks_used(),
        farm.disks(),
        report.responses.mean()
    );
}
