//! Figures 5 and 6: the NERSC trace replay under varying idleness
//! thresholds, with and without a 16 GB LRU cache.
//!
//! Five series, exactly as the paper plots them:
//! `RND`, `Pack_Disk`, `Pack_Disk4`, `RND+LRU`, `Pack_Disk4+LRU`.
//! Random placement is confined to the same number of disks Pack_Disks
//! uses (§5.1: "we let the random placement algorithm pack files into 96
//! disks similar to the number of disks used by Pack_Disks"). Power saving
//! is normalised against the same fleet spinning with no power-saving
//! mechanism (threshold = Never).

use spindown_core::{Planner, PlannerConfig, PolicyChoice};
use spindown_packing::Allocator;
use spindown_sim::hierarchy::{CacheChoice, CachePolicyChoice};
use spindown_workload::nersc::{self, NerscConfig};

use crate::sweep::{policy_cache_grid, run_sweep};
use crate::{grid_seed, Figure, Scale};

/// The five paper series.
pub const SERIES: [&str; 5] = [
    "RND",
    "Pack_Disk",
    "Pack_Disk4",
    "RND+LRU",
    "Pack_Disk4+LRU",
];

struct SeriesSpec {
    name: &'static str,
    allocator_kind: AllocKind,
    cached: bool,
}

enum AllocKind {
    Random,
    Pack,
    Pack4,
}

fn series_specs() -> Vec<SeriesSpec> {
    vec![
        SeriesSpec {
            name: "RND",
            allocator_kind: AllocKind::Random,
            cached: false,
        },
        SeriesSpec {
            name: "Pack_Disk",
            allocator_kind: AllocKind::Pack,
            cached: false,
        },
        SeriesSpec {
            name: "Pack_Disk4",
            allocator_kind: AllocKind::Pack4,
            cached: false,
        },
        SeriesSpec {
            name: "RND+LRU",
            allocator_kind: AllocKind::Random,
            cached: true,
        },
        SeriesSpec {
            name: "Pack_Disk4+LRU",
            allocator_kind: AllocKind::Pack4,
            cached: true,
        },
    ]
}

/// All measurements for one series at one threshold.
#[derive(Debug, Clone, Copy)]
pub struct NerscPoint {
    /// Power saving vs the never-spin-down fleet, in [0, 1].
    pub power_saving: f64,
    /// Mean response time, seconds (the paper's Figure 6 "J").
    pub mean_response_s: f64,
    /// Cache hit ratio (0 when uncached).
    pub cache_hit_ratio: f64,
}

/// Results of the full replay.
pub struct NerscStudy {
    /// Threshold grid, hours.
    pub thresholds_h: Vec<f64>,
    /// `points[series][threshold]`.
    pub points: Vec<Vec<NerscPoint>>,
    /// Disks Pack_Disks used (and the random fleet size).
    pub pack_disks_used: usize,
}

/// Run the NERSC replay for all five series across the threshold grid.
pub fn study(scale: Scale) -> NerscStudy {
    let cfg = NerscConfig::paper_scaled(scale.nersc_factor());
    let seed = grid_seed(56, scale.nersc_factor() as u64, 0);
    let workload = nersc::generate(&cfg, seed);
    let rate = cfg.arrival_rate();

    // Allocations (load constraint is far from binding at 0.045 req/s —
    // packing is effectively storage-driven, as in the paper).
    let mut base = PlannerConfig::default();
    base.load_constraint = 0.7;
    let pack_planner = Planner::new(base.clone());
    let pack = pack_planner
        .plan(&workload.catalog, rate)
        .expect("NERSC catalog packs");
    let pack_used = pack.disks_used();

    let mut pack4_cfg = base.clone();
    pack4_cfg.allocator = Allocator::PackDisksV(4);
    let pack4 = Planner::new(pack4_cfg)
        .plan(&workload.catalog, rate)
        .expect("NERSC catalog packs with v=4");

    // Random over the same number of disks Pack_Disks used; add one-disk
    // headroom per 32 in case the random storage-only packing is unlucky.
    let rnd_fleet = pack_used + pack_used / 32 + 1;
    let mut rnd_cfg = base;
    rnd_cfg.allocator = Allocator::RandomFixed {
        disks: rnd_fleet as u32,
        seed: seed ^ 0x5A5A,
    };
    let random = Planner::new(rnd_cfg)
        .plan(&workload.catalog, rate)
        .expect("random fits with headroom");

    let fleet = pack
        .disk_slots()
        .max(pack4.disk_slots())
        .max(random.disk_slots());

    let thresholds = scale.threshold_hours();
    let specs = series_specs();
    // Each series is one (policy × cache) sweep: the threshold grid as
    // fixed-threshold policies plus the never-spin-down normaliser, all
    // fanned across threads by the generic sweep driver.
    let base_cfg = spindown_sim::config::SimConfig::paper_default();
    let policies: Vec<PolicyChoice> = thresholds
        .iter()
        .map(|&hours| PolicyChoice::fixed(hours * 3600.0))
        .chain([PolicyChoice::never()])
        .collect();
    let points: Vec<Vec<NerscPoint>> = specs
        .iter()
        .map(|spec| {
            let assignment = match spec.allocator_kind {
                AllocKind::Random => &random.assignment,
                AllocKind::Pack => &pack.assignment,
                AllocKind::Pack4 => &pack4.assignment,
            };
            // §5.1's 16 GB LRU front, or no cache.
            let cache = if spec.cached {
                CacheChoice::Flat {
                    gb: 16,
                    policy: CachePolicyChoice::Lru,
                }
            } else {
                CacheChoice::None
            };
            let grid = policy_cache_grid(&policies, &[cache]);
            let reports = run_sweep(
                &workload.catalog,
                &workload.trace,
                assignment,
                &base_cfg,
                fleet,
                &grid,
            );
            // Normaliser: the trailing never-spin-down run.
            let e_never = reports
                .last()
                .expect("grid is non-empty")
                .energy
                .total_joules();
            reports[..thresholds.len()]
                .iter()
                .map(|report| NerscPoint {
                    power_saving: report.saving_vs(e_never),
                    mean_response_s: report.responses.mean(),
                    cache_hit_ratio: report.cache.as_ref().map_or(0.0, |c| c.hit_ratio()),
                })
                .collect()
        })
        .collect();

    NerscStudy {
        thresholds_h: thresholds,
        points,
        pack_disks_used: pack_used,
    }
}

/// Build both figures from one study.
pub fn fig56(scale: Scale) -> (Figure, Figure) {
    let s = study(scale);
    let mut columns = vec!["threshold_h".to_owned()];
    columns.extend(series_specs().iter().map(|s| s.name.to_string()));
    debug_assert_eq!(
        columns[1..],
        SERIES.map(String::from),
        "series specs and SERIES labels must agree"
    );
    let mut fig5 = Figure::new(
        "fig5",
        "Power savings under different idleness thresholds (NERSC trace)",
        columns.clone(),
    );
    let mut fig6 = Figure::new(
        "fig6",
        "Mean response time (s) under different idleness thresholds (NERSC trace)",
        columns,
    );
    let note = format!(
        "synthetic NERSC trace (see DESIGN.md §4); Pack_Disks used {} disks; saving normalised vs never-spin-down fleet",
        s.pack_disks_used
    );
    fig5.notes.push(note.clone());
    fig6.notes.push(note);
    for (ti, &th) in s.thresholds_h.iter().enumerate() {
        let mut row5 = vec![th];
        let mut row6 = vec![th];
        for series in &s.points {
            row5.push(series[ti].power_saving);
            row6.push(series[ti].mean_response_s);
        }
        fig5.push_row(row5);
        fig6.push_row(row6);
    }
    (fig5, fig6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nersc_study_shapes() {
        // Very small instance to keep the test fast.
        let s = study(Scale::Quick);
        assert_eq!(s.points.len(), 5);
        for series in &s.points {
            assert_eq!(series.len(), Scale::Quick.threshold_hours().len());
            for p in series {
                assert!(p.power_saving <= 1.0 + 1e-9);
                assert!(p.mean_response_s >= 0.0);
            }
        }
        // Pack_Disk saving should be roughly flat in the threshold and high
        // (the paper's ~85%); random saving must *decrease* as the
        // threshold grows (fewer chances to sleep).
        let pack: Vec<f64> = s.points[1].iter().map(|p| p.power_saving).collect();
        let rnd: Vec<f64> = s.points[0].iter().map(|p| p.power_saving).collect();
        assert!(
            pack.iter().all(|&v| v > 0.3),
            "Pack_Disk saving collapsed: {pack:?}"
        );
        assert!(
            rnd.first().unwrap() >= rnd.last().unwrap(),
            "RND saving should fall with threshold: {rnd:?}"
        );
        // Pack beats random at the longest threshold (the paper's headline).
        assert!(pack.last().unwrap() > rnd.last().unwrap());
    }

    #[test]
    fn figures_have_five_series() {
        let (f5, f6) = fig56(Scale::Quick);
        assert_eq!(f5.columns.len(), 6);
        assert_eq!(f6.columns.len(), 6);
        assert_eq!(f5.rows.len(), Scale::Quick.threshold_hours().len());
        assert_eq!(f6.rows.len(), f5.rows.len());
    }
}
