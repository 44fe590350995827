//! The parallel sweep driver: fan a grid of simulation configurations
//! across OS threads with `std::thread::scope` (no external thread-pool
//! dependency), preserving input order and determinism.
//!
//! Two layers:
//!
//! - [`parallel_map`] — the generic primitive every experiment uses: an
//!   order-preserving parallel map over a slice, work-stealing via an
//!   atomic cursor.
//! - [`SweepSpec`]/[`run_sweep`]/[`policy_cache_grid`]/
//!   [`policy_discipline_grid`]/[`ladder_policy_grid`] — the
//!   (policy × discipline × ladder × cache)
//!   grid runner: each grid point names a [`PolicyChoice`] (fixed
//!   thresholds are policies too), a queue [`DisciplineChoice`], a
//!   power-state [`LadderChoice`] and a [`CacheChoice`] hierarchy (the
//!   paper's flat LRU is `lru:16`) — and is simulated
//!   against a shared workload/assignment on its own thread.
//!   Determinism holds because every simulation is seeded by its grid
//!   point, never by thread scheduling. Grid points aggregate responses in
//!   [`MetricsMode::Histogram`], so a full grid run holds O(buckets) per
//!   cell instead of one O(requests) response vector per cell.
//! - [`run_joint`] — the thread-fanned driver for the joint
//!   (allocation × policy × discipline × ladder) planner in
//!   `spindown_core::joint`: same cells as the sequential search, fanned
//!   with [`parallel_map`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use spindown_core::{
    DisciplineChoice, JointError, JointOutcome, JointPlanner, LadderChoice, PolicyChoice,
};
use spindown_packing::Assignment;
use spindown_sim::config::SimConfig;
use spindown_sim::engine::{SimError, Simulator};
use spindown_sim::hierarchy::CacheChoice;
use spindown_sim::metrics::{MetricsMode, SimReport};
use spindown_workload::{FileCatalog, InMemorySource, Trace};

/// Order-preserving parallel map over `items`, using up to
/// `available_parallelism` scoped threads. Results arrive in input order
/// regardless of which thread computed them.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                // A panicking sibling poisons the mutex; recover the
                // guard so healthy workers still record their results and
                // the *original* panic — not a misleading secondary
                // "poisoned lock" message — propagates from
                // `thread::scope` when it joins the panicked thread.
                let mut slots = results.lock().unwrap_or_else(|e| e.into_inner());
                for (i, r) in local {
                    slots[i] = Some(r);
                }
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("every index computed"))
        .collect()
}

/// One point of a (policy × discipline × ladder × cache) sweep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    /// The spin-down policy to run (fixed thresholds included).
    pub policy: PolicyChoice,
    /// The per-disk queue discipline.
    pub discipline: DisciplineChoice,
    /// The power-state ladder the fleet's drives descend through
    /// (two-state by default — the paper's model).
    pub ladder: LadderChoice,
    /// Cache hierarchy in front of the dispatcher ([`CacheChoice::None`]
    /// for no cache — the default of every grid constructor but the cache
    /// grids).
    pub tiers: CacheChoice,
    /// Response aggregation per grid point. The grid constructors pick
    /// [`MetricsMode::Histogram`] so a full grid holds O(buckets) per cell
    /// instead of one response vector per cell; means stay exact, quantiles
    /// carry the documented ≤ 1/256 relative error.
    pub metrics: MetricsMode,
}

impl SweepSpec {
    /// Label like `break_even`, `fixed_1800s+lru:16`, `break_even+sjf_a30s`
    /// or `lower_env+3state` (discipline and ladder are only spelled out
    /// when they differ from the paper's FIFO / two-state defaults).
    pub fn label(&self) -> String {
        let mut label = self.policy.label();
        if self.discipline != DisciplineChoice::Fifo {
            label = format!("{label}+{}", self.discipline.label());
        }
        if self.ladder != LadderChoice::TwoState {
            label = format!("{label}+{}", self.ladder.label());
        }
        if self.tiers != CacheChoice::None {
            label = format!("{label}+{}", self.tiers.label());
        }
        label
    }
}

/// The cross product of policies and cache options (FIFO discipline), in
/// row-major (policy-outer) order.
pub fn policy_cache_grid(policies: &[PolicyChoice], caches: &[CacheChoice]) -> Vec<SweepSpec> {
    policies
        .iter()
        .flat_map(|&policy| {
            caches.iter().map(move |&tiers| SweepSpec {
                policy,
                discipline: DisciplineChoice::Fifo,
                ladder: LadderChoice::TwoState,
                tiers,
                metrics: MetricsMode::Histogram,
            })
        })
        .collect()
}

/// The cross product of policies and queue disciplines (no cache), in
/// row-major (policy-outer) order — the discipline shootout grid.
pub fn policy_discipline_grid(
    policies: &[PolicyChoice],
    disciplines: &[DisciplineChoice],
) -> Vec<SweepSpec> {
    policies
        .iter()
        .flat_map(|&policy| {
            disciplines.iter().map(move |&discipline| SweepSpec {
                policy,
                discipline,
                ladder: LadderChoice::TwoState,
                tiers: CacheChoice::None,
                metrics: MetricsMode::Histogram,
            })
        })
        .collect()
}

/// The cross product of ladders and policies (FIFO discipline, no cache),
/// in row-major (ladder-outer) order — the shootout's ladder bracket.
pub fn ladder_policy_grid(ladders: &[LadderChoice], policies: &[PolicyChoice]) -> Vec<SweepSpec> {
    ladders
        .iter()
        .flat_map(|&ladder| {
            policies.iter().map(move |&policy| SweepSpec {
                policy,
                discipline: DisciplineChoice::Fifo,
                ladder,
                tiers: CacheChoice::None,
                metrics: MetricsMode::Histogram,
            })
        })
        .collect()
}

/// Simulate every grid point against one workload/assignment, in parallel.
/// `fleet` disks spin regardless of how many the assignment loads.
///
/// `base` is the caller's simulation configuration: the grid only
/// overrides its own dimensions (ladder, cache, tiers, discipline,
/// metrics — plus the policy, built per point), so everything else the caller set —
/// drive model, completion log — survives into every cell.
/// Earlier versions rebuilt `SimConfig::paper_default()` internally and
/// silently discarded such overrides.
///
/// A cell that fails to simulate (say, a trace naming a file the
/// assignment does not place) fails the sweep with that cell's
/// [`SimError`]; the first failing cell in grid order wins.
pub fn run_sweep(
    catalog: &FileCatalog,
    trace: &Trace,
    assignment: &Assignment,
    base: &SimConfig,
    fleet: usize,
    specs: &[SweepSpec],
) -> Result<Vec<SimReport>, SimError> {
    parallel_map(specs, |_, spec| {
        let mut cfg = base.clone();
        spec.ladder.apply(&mut cfg.disk);
        cfg.cache_hierarchy = spec.tiers.hierarchy();
        cfg.discipline = spec.discipline;
        cfg.metrics = spec.metrics;
        // Ladder-aware policies must see the ladder the run uses: the
        // ladder is applied to the one true spec *before* the policy is
        // built from it.
        Simulator::replay(
            catalog,
            InMemorySource::new(trace),
            assignment,
            &cfg,
            fleet,
            |_| spec.policy.build(&cfg.disk),
        )
    })
    .into_iter()
    .collect()
}

/// Thread-fanned equivalent of [`JointPlanner::search`]: plan each
/// allocation strategy once, then evaluate every (allocation × policy ×
/// discipline × ladder) cell across the sweep threads. Candidate order —
/// and therefore cell, frontier and winner indices — matches the
/// sequential search exactly; only wall-clock differs.
pub fn run_joint(
    planner: &JointPlanner,
    catalog: &FileCatalog,
    trace: &Trace,
    rate: f64,
) -> Result<JointOutcome, JointError> {
    let plans = planner.plan_allocations(catalog, rate)?;
    let fleet = planner.fleet_for(&plans);
    let candidates = planner.candidates();
    let results = parallel_map(&candidates, |_, cand| {
        planner.evaluate(cand, planner.plan_for(&plans, cand), catalog, trace, fleet)
    });
    let cells = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    planner.outcome(cells, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_packing::DiskBin;
    use spindown_sim::config::ThresholdPolicy;
    use spindown_workload::MB;

    /// The cross product of cache hierarchies and policies (FIFO discipline,
    /// two-state ladder), in row-major (cache-outer) order.
    fn cache_policy_grid(tiers: &[CacheChoice], policies: &[PolicyChoice]) -> Vec<SweepSpec> {
        tiers
            .iter()
            .flat_map(|&tiers| {
                policies.iter().map(move |&policy| SweepSpec {
                    policy,
                    discipline: DisciplineChoice::Fifo,
                    ladder: LadderChoice::TwoState,
                    tiers,
                    metrics: MetricsMode::Histogram,
                })
            })
            .collect()
    }

    #[test]
    fn parallel_map_preserves_order_and_indices() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    // A panicking worker poisons the shared results mutex. The map must
    // let that *original* panic propagate out of `thread::scope` (the test
    // harness reports it), not kill every sibling worker with a secondary
    // "poisoned lock" message.
    #[test]
    #[should_panic]
    fn parallel_map_propagates_a_worker_panic() {
        let items: Vec<u64> = (0..64).collect();
        let _ = parallel_map(&items, |_, &x| {
            if x == 13 {
                panic!("worker 13 exploded");
            }
            x
        });
    }

    // `thread::scope` wraps any worker panic in its own message, so the
    // `#[should_panic]` above cannot tell the fixed code from the old
    // `.expect("no poisoned worker")` path — both panic. Pin the fix
    // directly: count the panics the run actually raises via a scoped
    // panic hook. Exactly one worker must panic (the original); siblings
    // must survive the poisoned lock instead of raising secondaries.
    #[test]
    fn parallel_map_poisoned_lock_raises_no_secondary_panics() {
        use std::panic;
        use std::sync::atomic::AtomicUsize;
        static ORIGINAL: AtomicUsize = AtomicUsize::new(0);
        static OTHER_WORKER: AtomicUsize = AtomicUsize::new(0);
        // Forward to the previous hook after counting: the hook is
        // process-global, and tests in this binary run concurrently — a
        // swallowed panic elsewhere would report FAILED with no message.
        let prev = std::sync::Arc::new(panic::take_hook());
        let forward = std::sync::Arc::clone(&prev);
        panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if msg.contains("worker 29 detonated") {
                ORIGINAL.fetch_add(1, Ordering::SeqCst);
            } else if msg.contains("poisoned") {
                // the old `.expect("no poisoned worker")` message — a
                // sibling died on the lock instead of recovering it.
                // (scope's own "a scoped thread panicked" wrapper on the
                // main thread is expected either way and not counted.)
                OTHER_WORKER.fetch_add(1, Ordering::SeqCst);
            }
            forward(info);
        }));
        let items: Vec<u64> = (0..64).collect();
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            parallel_map(&items, |_, &x| {
                if x == 29 {
                    panic!("worker 29 detonated");
                }
                x
            })
        }));
        drop(panic::take_hook()); // releases the counting hook's Arc clone
        if let Ok(hook) = std::sync::Arc::try_unwrap(prev) {
            panic::set_hook(hook);
        }
        assert!(result.is_err(), "the worker panic must propagate");
        assert_eq!(ORIGINAL.load(Ordering::SeqCst), 1);
        assert_eq!(
            OTHER_WORKER.load(Ordering::SeqCst),
            0,
            "sibling workers died on the poisoned results lock"
        );
    }

    #[test]
    fn run_joint_matches_the_sequential_search() {
        use spindown_core::{JointConfig, JointPlanner, PolicyChoice};
        use spindown_packing::Allocator;
        let catalog = spindown_workload::FileCatalog::paper_table1(300, 0);
        let trace = Trace::poisson(&catalog, 0.1, 300.0, 33);
        let mut cfg = JointConfig::default_grid();
        cfg.allocators = vec![Allocator::PackDisks, Allocator::SpreadTail];
        cfg.policies = vec![PolicyChoice::break_even(), PolicyChoice::EnvelopeDescent];
        cfg.disciplines = vec![DisciplineChoice::Fifo];
        let planner = JointPlanner::new(cfg);
        let fanned = run_joint(&planner, &catalog, &trace, 0.1).unwrap();
        let sequential = planner.search(&catalog, &trace, 0.1).unwrap();
        assert_eq!(fanned, sequential);
        assert_eq!(fanned.cells.len(), 8);
    }

    #[test]
    fn run_sweep_preserves_the_callers_base_config() {
        let catalog =
            spindown_workload::FileCatalog::from_parts(vec![10 * MB, 20 * MB], vec![0.5, 0.5]);
        let trace = Trace::poisson(&catalog, 0.05, 600.0, 3);
        let assignment = Assignment {
            disks: vec![DiskBin {
                items: vec![0, 1],
                total_s: 0.0,
                total_l: 0.0,
            }],
        };
        // A base the grid dimensions do not cover: non-default drive,
        // completion log on. Both must survive into every cell (the old
        // driver rebuilt paper_default() and lost them).
        let drive = spindown_disk::DiskSpec::archival_5400();
        let base = SimConfig::paper_default()
            .with_disk(drive.clone())
            .with_completion_log();
        let grid = policy_cache_grid(
            &[PolicyChoice::never(), PolicyChoice::break_even()],
            &[CacheChoice::None],
        );
        let reports = run_sweep(&catalog, &trace, &assignment, &base, 1, &grid).unwrap();
        for r in &reports {
            let log = r.completions.as_ref().expect("completion log survives");
            assert_eq!(log.len(), trace.len());
        }
        // Never-spin-down: the disk idles at the archival drive's 5 W, not
        // the default drive's 9.3 W — the custom drive survived too.
        let mean_w = reports[0].energy.total_joules() / reports[0].sim_time_s;
        assert!(
            mean_w >= drive.idle_power_w && mean_w < 9.3,
            "mean power {mean_w} W does not match the archival drive"
        );
    }

    #[test]
    fn run_sweep_returns_a_cells_error_instead_of_panicking() {
        let catalog =
            spindown_workload::FileCatalog::from_parts(vec![10 * MB, 20 * MB], vec![0.5, 0.5]);
        let trace = Trace::poisson(&catalog, 0.05, 600.0, 3);
        assert!(trace.requests().iter().any(|r| r.file.0 == 1));
        // File 1 is on no disk.
        let assignment = Assignment {
            disks: vec![DiskBin {
                items: vec![0],
                total_s: 0.0,
                total_l: 0.0,
            }],
        };
        let grid = policy_cache_grid(
            &[PolicyChoice::never(), PolicyChoice::break_even()],
            &[CacheChoice::None],
        );
        let err = run_sweep(
            &catalog,
            &trace,
            &assignment,
            &SimConfig::paper_default(),
            1,
            &grid,
        )
        .expect_err("a trace naming an unplaced file fails the sweep");
        assert!(
            matches!(err, SimError::UnmappedFile { file } if file.0 == 1),
            "{err:?}"
        );
    }

    #[test]
    fn run_sweep_returns_a_bad_fixed_threshold_as_a_policy_delay_error() {
        let catalog = spindown_workload::FileCatalog::from_parts(vec![10 * MB], vec![1.0]);
        let trace = Trace::poisson(&catalog, 0.05, 600.0, 3);
        let assignment = Assignment {
            disks: vec![DiskBin {
                items: vec![0],
                total_s: 0.0,
                total_l: 0.0,
            }],
        };
        let grid = policy_cache_grid(&[PolicyChoice::fixed(-1.0)], &[CacheChoice::None]);
        let err = run_sweep(
            &catalog,
            &trace,
            &assignment,
            &SimConfig::paper_default(),
            1,
            &grid,
        )
        .expect_err("a negative threshold fails the sweep");
        assert!(
            matches!(err, SimError::InvalidPolicyDelay { rest_s, .. } if rest_s == -1.0),
            "{err:?}"
        );
    }

    #[test]
    fn grid_is_policy_outer_cross_product() {
        let policies = [PolicyChoice::break_even(), PolicyChoice::never()];
        let caches = [CacheChoice::None, CacheChoice::parse("lru:16").unwrap()];
        let grid = policy_cache_grid(&policies, &caches);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].label(), "break_even");
        assert_eq!(grid[1].label(), "break_even+lru:16");
        assert_eq!(grid[2].label(), "never");
        assert_eq!(grid[3].label(), "never+lru:16");
    }

    #[test]
    fn discipline_grid_is_policy_outer_with_labelled_points() {
        let policies = [PolicyChoice::break_even(), PolicyChoice::never()];
        let disciplines = DisciplineChoice::all();
        let grid = policy_discipline_grid(&policies, &disciplines);
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0].label(), "break_even");
        assert_eq!(grid[1].label(), "break_even+sjf_a30s");
        assert_eq!(grid[2].label(), "break_even+elevator");
        assert_eq!(grid[3].label(), "never");
        assert!(grid.iter().all(|s| s.tiers == CacheChoice::None));
    }

    #[test]
    fn ladder_grid_is_ladder_outer_and_labelled() {
        let grid = ladder_policy_grid(
            &LadderChoice::all(),
            &[PolicyChoice::break_even(), PolicyChoice::lower_envelope()],
        );
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].label(), "break_even");
        assert_eq!(grid[1].label(), "lower_env");
        assert_eq!(grid[2].label(), "break_even+3state");
        assert_eq!(grid[3].label(), "lower_env+3state");
        assert!(grid.iter().all(|s| s.tiers == CacheChoice::None));
    }

    #[test]
    fn cache_grid_is_cache_outer_and_labels_the_tiers() {
        let tiers = [
            CacheChoice::None,
            CacheChoice::parse("lru:16").unwrap(),
            CacheChoice::parse("lru:2+lru:16").unwrap(),
        ];
        let grid = cache_policy_grid(&tiers, &[PolicyChoice::break_even(), PolicyChoice::never()]);
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0].label(), "break_even");
        assert_eq!(grid[1].label(), "never");
        assert_eq!(grid[2].label(), "break_even+lru:16");
        assert_eq!(grid[4].label(), "break_even+lru:2+lru:16");
        assert_eq!(grid[4].tiers.hierarchy().unwrap().tiers.len(), 2);
    }

    #[test]
    fn three_state_sweep_points_simulate_and_differ_from_two_state() {
        let catalog =
            spindown_workload::FileCatalog::from_parts(vec![10 * MB, 20 * MB], vec![0.5, 0.5]);
        let trace = Trace::poisson(&catalog, 0.01, 4000.0, 17);
        let assignment = Assignment {
            disks: vec![
                DiskBin {
                    items: vec![0],
                    total_s: 0.0,
                    total_l: 0.0,
                },
                DiskBin {
                    items: vec![1],
                    total_s: 0.0,
                    total_l: 0.0,
                },
            ],
        };
        let base = SimConfig::paper_default();
        let grid = ladder_policy_grid(
            &LadderChoice::all(),
            &[PolicyChoice::break_even(), PolicyChoice::EnvelopeDescent],
        );
        let reports = run_sweep(&catalog, &trace, &assignment, &base, 2, &grid).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.energy.total_joules() > 0.0);
            assert_eq!(r.responses.len(), trace.len());
        }
        // On the two-state ladder the envelope policy *is* the break-even
        // timeout (same single threshold), so rows 0 and 1 agree; the
        // three-state rows genuinely differ from their two-state peers.
        assert!((reports[0].energy.total_joules() - reports[1].energy.total_joules()).abs() < 1e-6);
        assert_ne!(
            reports[0].energy.total_joules(),
            reports[2].energy.total_joules()
        );
    }

    #[test]
    fn run_sweep_is_deterministic_and_covers_all_points() {
        let catalog =
            spindown_workload::FileCatalog::from_parts(vec![10 * MB, 20 * MB], vec![0.5, 0.5]);
        // Sparse arrivals: per-disk idle gaps far beyond the break-even
        // time, so every sleeping policy beats the never-spin-down floor.
        let trace = Trace::poisson(&catalog, 0.01, 2000.0, 99);
        let assignment = Assignment {
            disks: vec![
                DiskBin {
                    items: vec![0],
                    total_s: 0.0,
                    total_l: 0.0,
                },
                DiskBin {
                    items: vec![1],
                    total_s: 0.0,
                    total_l: 0.0,
                },
            ],
        };
        let base = SimConfig::paper_default();
        let grid = policy_cache_grid(
            &[
                PolicyChoice::Threshold(ThresholdPolicy::BreakEven),
                PolicyChoice::SkiRental { seed: 5 },
                PolicyChoice::Adaptive { alpha: 0.5 },
                PolicyChoice::never(),
            ],
            &[CacheChoice::None],
        );
        let a = run_sweep(&catalog, &trace, &assignment, &base, 2, &grid).unwrap();
        let b = run_sweep(&catalog, &trace, &assignment, &base, 2, &grid).unwrap();
        assert_eq!(a.len(), grid.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.energy.total_joules(), y.energy.total_joules());
            assert_eq!(x.responses, y.responses);
            // Grid cells stream their responses: constant memory per cell.
            assert_eq!(x.responses.mode(), MetricsMode::Histogram);
        }
        // The never policy is the energy ceiling of the grid.
        let never = &a[3];
        assert_eq!(never.spin_downs, 0);
        for r in &a[..3] {
            assert!(r.energy.total_joules() <= never.energy.total_joules() + 1e-6);
        }
    }
}
