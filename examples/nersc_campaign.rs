//! NERSC-style campaign: replay the synthetic 30-day NERSC trace (§5.1 of
//! the paper) under several idleness thresholds, with and without a 16 GB
//! LRU cache, and report savings, response times and disk wear.
//!
//! ```text
//! cargo run --release --example nersc_campaign [-- factor]
//! ```
//!
//! `factor` shrinks the trace (default 10 → ~8.9k files, ~11.6k requests);
//! pass 1 for the full 88 631-file/115 832-request replay.

use spindown::core::{Planner, PlannerConfig};
use spindown::disk::DutyCycleCounter;
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::hierarchy::CacheHierarchyConfig;
use spindown::workload::nersc::{self, NerscConfig};

fn main() {
    let factor: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let cfg = NerscConfig::paper_scaled(factor);
    println!(
        "generating synthetic NERSC workload: {} files, {} requests over {} days",
        cfg.n_files,
        cfg.n_requests,
        cfg.duration_s / 86_400.0
    );
    let workload = nersc::generate(&cfg, 2026);
    println!(
        "  mean file size {:.0} MB, footprint {:.2} TB, arrival rate {:.5}/s",
        workload.catalog.mean_bytes() / 1e6,
        workload.catalog.total_bytes() as f64 / 1e12,
        workload.trace.mean_rate()
    );

    let planner = Planner::new(PlannerConfig::default());
    let plan = planner
        .plan(&workload.catalog, cfg.arrival_rate())
        .expect("plan");
    println!("Pack_Disks loaded {} disks\n", plan.disks_used());

    println!(
        "{:>12}  {:>7}  {:>10}  {:>10}  {:>12}  {:>9}",
        "threshold", "cache", "saving_%", "resp_s", "spin_cycles", "hit_%"
    );
    for hours in [0.1, 0.5, 1.0, 2.0] {
        for cached in [false, true] {
            let mut sim =
                SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(hours * 3600.0));
            if cached {
                sim = sim.with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()));
            }
            let report = Simulator::run(&workload.catalog, &workload.trace, &plan.assignment, &sim)
                .expect("simulate");
            // Normalise against the never-spin-down fleet.
            let mut never = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
            never.cache_hierarchy = sim.cache_hierarchy.clone();
            let e_never =
                Simulator::run(&workload.catalog, &workload.trace, &plan.assignment, &never)
                    .expect("baseline")
                    .energy
                    .total_joules();

            // Reliability impact of the cycling.
            let mut wear = DutyCycleCounter::new();
            for _ in 0..report.spin_downs {
                wear.record_spin_down();
            }
            for _ in 0..report.spin_ups {
                wear.record_spin_up();
            }
            wear.extend_observation(report.sim_time_s * report.disks as f64);

            println!(
                "{:>10.1}h  {:>7}  {:>10.1}  {:>10.2}  {:>12}  {:>9.2}",
                hours,
                if cached { "16GB" } else { "-" },
                100.0 * report.saving_vs(e_never),
                report.responses.mean(),
                wear.full_cycles(),
                report.cache.map_or(0.0, |c| 100.0 * c.hit_ratio()),
            );
        }
    }
    println!("\n(paper: Pack_Disks ≈ 85% saving, flat in threshold; LRU hit ratio ≈ 5.6%)");
}
