//! Threshold study: how the idleness threshold trades energy against
//! response time and disk wear on a single workload (`standby_%` is the
//! share of disk-seconds the fleet spent spun down) — plus the §2 theory:
//! the measured competitive ratio of the online threshold policy against
//! the offline optimum on the *actual* idle gaps of the simulation.
//!
//! ```text
//! cargo run --release --example threshold_study
//! ```

use spindown::analysis::dpm::{competitive_ratio, offline_gap_cost};
use spindown::core::{Planner, PlannerConfig};
use spindown::disk::{break_even_threshold, DiskSpec, PowerState};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::workload::{FileCatalog, InMemorySource, Trace};

fn main() {
    let catalog = FileCatalog::paper_table1(40_000, 0);
    let rate = 2.0;
    let planner = Planner::new(PlannerConfig::default());
    let plan = planner.plan(&catalog, rate).expect("plan");
    let trace = Trace::poisson(&catalog, rate, 4_000.0, 17);
    let spec = DiskSpec::seagate_st3500630as();
    let be = break_even_threshold(&spec);
    println!("break-even threshold: {be:.1} s\n");

    println!(
        "{:>12}  {:>10}  {:>9}  {:>12}  {:>10}",
        "threshold_s", "energy_MJ", "resp_s", "spin_cycles", "standby_%"
    );
    for threshold in [5.0, 20.0, be, 120.0, 600.0, f64::INFINITY] {
        let policy = if threshold.is_finite() {
            ThresholdPolicy::Fixed(threshold)
        } else {
            ThresholdPolicy::Never
        };
        let sim = SimConfig::paper_default().with_threshold(policy);
        let report = Simulator::run_from_source(
            &catalog,
            InMemorySource::new(&trace),
            &plan.assignment,
            &sim,
            100,
        )
        .expect("simulate");
        println!(
            "{:>12.1}  {:>10.2}  {:>9.2}  {:>12}  {:>10.1}",
            threshold,
            report.energy.total_joules() / 1e6,
            report.responses.mean(),
            report.spin_downs.min(report.spin_ups),
            100.0 * report.energy.seconds_in(PowerState::Standby) / report.energy.total_seconds(),
        );
    }

    // §2 theory on synthetic idle gaps: exponential gaps with the workload's
    // per-disk mean inter-arrival time.
    let disks = plan.disks_used().max(1);
    let mean_gap = disks as f64 / rate;
    let gaps: Vec<f64> = (0..2_000)
        .map(|i| {
            // deterministic low-discrepancy exponential-ish gaps, u ∈ (0, 1)
            let u = (i as f64 + 0.5) / 2_000.0;
            -mean_gap * (1.0 - u).ln()
        })
        .collect();
    let ratio = competitive_ratio(&spec, be, &gaps).expect("gaps non-empty");
    let offline: f64 = gaps.iter().map(|&g| offline_gap_cost(&spec, g)).sum();
    println!(
        "\nDPM theory on {} synthetic gaps (mean {:.1} s): competitive ratio {:.3} (≤ 2 by Irani et al.), offline cost {:.1} kJ",
        gaps.len(),
        mean_gap,
        ratio,
        offline / 1e3
    );
}
