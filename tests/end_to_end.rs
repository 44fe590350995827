//! Cross-crate integration tests: miniature versions of the paper's
//! experiments, asserting the qualitative *shapes* the paper reports (who
//! wins, monotonicity directions, crossovers) rather than absolute numbers.

use spindown::core::{compare, Planner, PlannerConfig};
use spindown::disk::{break_even_threshold, DiskSpec};
use spindown::packing::Allocator;
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::sim::hierarchy::CacheHierarchyConfig;
use spindown::workload::{FileCatalog, InMemorySource, Trace};

fn paper_catalog() -> FileCatalog {
    FileCatalog::paper_table1(40_000, 0)
}

/// Figure 2's core claim: Pack_Disks saves substantial power against
/// random placement at moderate rates, and the saving decays with R.
#[test]
fn fig2_shape_saving_decays_with_rate() {
    let catalog = paper_catalog();
    let planner = Planner::new(PlannerConfig::default());
    let mut savings = Vec::new();
    for (i, rate) in [2.0, 6.0, 12.0].into_iter().enumerate() {
        let pack = planner.plan(&catalog, rate).unwrap();
        let mut rnd_cfg = PlannerConfig::default();
        rnd_cfg.allocator = Allocator::RandomFixed {
            disks: 100,
            seed: 100 + i as u64,
        };
        let random = Planner::new(rnd_cfg).plan(&catalog, rate).unwrap();
        let trace = Trace::poisson(&catalog, rate, 1_000.0, 50 + i as u64);
        let cmp = compare(&planner, &pack, &random, &catalog, &trace, Some(100)).unwrap();
        savings.push(cmp.power_saving());
    }
    assert!(savings[0] > 0.4, "saving at R=2 too small: {savings:?}");
    assert!(
        savings[2] < savings[0],
        "saving should decay with R: {savings:?}"
    );
}

/// Figure 4's trade-off: across L, power falls while response rises.
#[test]
fn fig4_shape_power_response_tradeoff() {
    let catalog = paper_catalog();
    let rate = 6.0;
    let trace = Trace::poisson(&catalog, rate, 1_000.0, 77);
    let mut results = Vec::new();
    for load in [0.4, 0.9] {
        let mut cfg = PlannerConfig::default();
        cfg.load_constraint = load;
        let planner = Planner::new(cfg);
        let plan = planner.plan(&catalog, rate).unwrap();
        let report = planner
            .evaluate_with_fleet(&plan, &catalog, &trace, 100)
            .unwrap();
        results.push((
            plan.disks_used(),
            report.mean_power_w(),
            report.responses.mean(),
        ));
    }
    let (d_tight, p_tight, r_tight) = results[0];
    let (d_loose, p_loose, r_loose) = results[1];
    assert!(d_loose < d_tight, "L=0.9 should use fewer disks");
    assert!(p_loose < p_tight, "L=0.9 should draw less power");
    assert!(r_loose > r_tight, "L=0.9 should respond slower");
}

/// The break-even threshold is (near-)optimal among fixed thresholds for
/// the fleet's energy — the §4 threshold choice.
#[test]
fn break_even_threshold_minimises_energy() {
    let catalog = paper_catalog();
    let rate = 2.0;
    let planner = Planner::new(PlannerConfig::default());
    let plan = planner.plan(&catalog, rate).unwrap();
    let trace = Trace::poisson(&catalog, rate, 2_000.0, 5);
    let be = break_even_threshold(&DiskSpec::seagate_st3500630as());
    let energy_at = |threshold: ThresholdPolicy| {
        let sim = SimConfig::paper_default().with_threshold(threshold);
        Simulator::run_from_source(
            &catalog,
            InMemorySource::new(&trace),
            &plan.assignment,
            &sim,
            100,
        )
        .unwrap()
        .energy
        .total_joules()
    };
    let at_be = energy_at(ThresholdPolicy::Fixed(be));
    let at_never = energy_at(ThresholdPolicy::Never);
    let at_long = energy_at(ThresholdPolicy::Fixed(1_800.0));
    assert!(at_be < at_never, "break-even must beat never spinning down");
    assert!(
        at_be < at_long,
        "break-even must beat a 30-minute threshold"
    );
}

/// Figure 5's headline on the synthetic NERSC trace: Pack_Disks' saving is
/// high and nearly flat in the threshold while random's decays; at the
/// 2-hour threshold Pack_Disks clearly wins.
#[test]
fn fig5_shape_pack_flat_random_decays() {
    use spindown::workload::nersc::{self, NerscConfig};
    let cfg = NerscConfig::paper_scaled(20);
    let workload = nersc::generate(&cfg, 11);
    let rate = cfg.arrival_rate();
    let planner = Planner::new(PlannerConfig::default());
    let pack = planner.plan(&workload.catalog, rate).unwrap();
    let fleet = pack.disk_slots() + 2;
    let mut rnd_cfg = PlannerConfig::default();
    rnd_cfg.allocator = Allocator::RandomFixed {
        disks: fleet as u32,
        seed: 3,
    };
    let random = Planner::new(rnd_cfg).plan(&workload.catalog, rate).unwrap();

    let saving = |assignment: &spindown::packing::Assignment, hours: f64| {
        let sim = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(hours * 3600.0));
        let never = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let e = Simulator::run_from_source(
            &workload.catalog,
            InMemorySource::new(&workload.trace),
            assignment,
            &sim,
            fleet,
        )
        .unwrap()
        .energy
        .total_joules();
        let e0 = Simulator::run_from_source(
            &workload.catalog,
            InMemorySource::new(&workload.trace),
            assignment,
            &never,
            fleet,
        )
        .unwrap()
        .energy
        .total_joules();
        1.0 - e / e0
    };

    let pack_short = saving(&pack.assignment, 0.1);
    let pack_long = saving(&pack.assignment, 2.0);
    let rnd_short = saving(&random.assignment, 0.1);
    let rnd_long = saving(&random.assignment, 2.0);
    // Pack_Disks stays high and roughly flat.
    assert!(pack_long > 0.5, "pack saving at 2h: {pack_long}");
    assert!(
        (pack_short - pack_long).abs() < 0.25,
        "pack saving should be nearly flat: {pack_short} vs {pack_long}"
    );
    // Random decays as the threshold grows.
    assert!(
        rnd_long < rnd_short,
        "random saving should decay: {rnd_short} → {rnd_long}"
    );
    // At the long threshold, Pack_Disks wins clearly.
    assert!(pack_long > rnd_long + 0.1);
}

/// §5.1's cache observation: a 16 GB LRU helps little on the NERSC-like
/// mix (hit ratio in the single-digit percents).
#[test]
fn cache_hit_ratio_is_low_on_nersc_mix() {
    use spindown::workload::nersc::{self, NerscConfig};
    let cfg = NerscConfig::paper_scaled(20);
    let workload = nersc::generate(&cfg, 13);
    let planner = Planner::new(PlannerConfig::default());
    let plan = planner.plan(&workload.catalog, cfg.arrival_rate()).unwrap();
    let sim = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::Fixed(1800.0))
        .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()));
    let report =
        Simulator::run(&workload.catalog, &workload.trace, &plan.assignment, &sim).unwrap();
    let hit = report.cache.unwrap().hit_ratio();
    assert!(
        hit > 0.0 && hit < 0.25,
        "expected a low-but-nonzero hit ratio (paper: 5.6%), got {hit}"
    );
}

/// Pack_Disks_v(4) must not cost much packing efficiency relative to
/// Pack_Disks while spreading batches (the §5.1 v-sweep conclusion).
#[test]
fn pack_disks_4_is_cheap_insurance() {
    let catalog = paper_catalog();
    let rate = 6.0;
    let base = Planner::new(PlannerConfig::default())
        .plan(&catalog, rate)
        .unwrap();
    let mut cfg4 = PlannerConfig::default();
    cfg4.allocator = Allocator::PackDisksV(4);
    let grouped = Planner::new(cfg4).plan(&catalog, rate).unwrap();
    assert!(
        grouped.disks_used() <= base.disks_used() + 8,
        "v=4 ballooned the disk count: {} vs {}",
        grouped.disks_used(),
        base.disks_used()
    );
    grouped.assignment.verify(&grouped.instance).unwrap();
}

/// Whole-pipeline determinism: identical seeds ⇒ identical reports.
#[test]
fn pipeline_is_deterministic() {
    let catalog = FileCatalog::paper_table1(5_000, 0);
    let planner = Planner::new(PlannerConfig::default());
    let plan = planner.plan(&catalog, 1.0).unwrap();
    let trace = Trace::poisson(&catalog, 1.0, 500.0, 33);
    let a = planner.evaluate(&plan, &catalog, &trace).unwrap();
    let b = planner.evaluate(&plan, &catalog, &trace).unwrap();
    assert_eq!(a.energy.total_joules(), b.energy.total_joules());
    assert_eq!(a.spin_downs, b.spin_downs);
    assert_eq!(a.responses, b.responses);
}
