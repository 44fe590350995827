//! Allocator, policy *and* queue-discipline shootout (extension): every
//! allocation policy in the workspace head-to-head on the Table 1 workload
//! — packing quality (disks used), energy relative to random placement,
//! mean and p95 response times — followed by every spin-down policy
//! head-to-head on the Pack_Disks allocation (the paper's fixed-threshold
//! curves against the online policies the `PowerPolicy` trait opens up),
//! followed by every queue discipline on a spin-up-heavy bursty replay of
//! the same allocation, where elevator batching amortises positioning
//! across requests that piled up during a spin-up, followed by the
//! **power-ladder bracket**: two-state vs three-state (low-RPM) drives
//! under the fixed-timeout and lower-envelope policy families, replayed on
//! the spin-up-heavy bursts and on a NERSC-style batched trace, and
//! the **joint bracket**: the full (allocation × policy ×
//! discipline × ladder) quadruple search of `spindown_core::joint` on the
//! same two replays, with notes flagging the Pareto frontier and the
//! energy×p95 winner per replay, then the **cache bracket**: the
//! joint grid's fifth leg in isolation — (policy × ladder) at a fixed
//! fleet under three cache levels (none, a small DRAM front, a big one),
//! showing that adding cache capacity to the hardware budget lengthens
//! per-disk idle gaps enough to flip which (policy, ladder) pair wins the
//! energy×p95 product, and finally the **fault bracket**: (policy ×
//! ladder) on the spin-up-heavy bursts under escalating fault regimes
//! (none, transient I/O errors, heavy wake failures) — the deep-sleep
//! quadruple that wins the fault-free replay stops winning once spin-ups
//! can fail, because every wake retries through backoff and charges its
//! transition energy again. This generalises the paper's two-way
//! Pack_Disks-vs-random comparison into the design-space study its §6
//! hints at.

use spindown_core::{
    CacheChoice, DisciplineChoice, FaultChoice, JointConfig, JointOutcome, JointPlanner,
    LadderChoice, MetricsMode, Plan, Planner, PlannerConfig, PolicyChoice,
};
use spindown_packing::Allocator;
use spindown_sim::engine::SimError;
use spindown_workload::arrivals::BatchConfig;
use spindown_workload::{FileCatalog, Trace};

use crate::sweep::{
    ladder_policy_grid, parallel_map, policy_cache_grid, policy_discipline_grid, run_joint,
    run_sweep,
};
use crate::{grid_seed, Figure, Scale};

/// The allocator competitors, with stable row indices. CHP (identical
/// output to Pack_Disks, O(n²)) joins only at paper scale — at 40 000 items
/// it dominates the debug-build test time without adding information.
pub fn competitors(scale: Scale, fleet: usize) -> Vec<Allocator> {
    let mut v = vec![Allocator::PackDisks, Allocator::PackDisksV(4)];
    if scale == Scale::Paper {
        v.push(Allocator::Chp);
    }
    v.extend([
        Allocator::Pdc,
        Allocator::FirstFitDecreasing,
        Allocator::BestFit,
        Allocator::NextFit,
        Allocator::RandomFixed {
            disks: fleet as u32,
            seed: 0xBEEF,
        },
    ]);
    v
}

/// The spin-down policy competitors for the second half of the shootout:
/// the paper's fixed-threshold family plus the online policies.
pub fn policy_competitors() -> Vec<PolicyChoice> {
    vec![
        PolicyChoice::break_even(),
        PolicyChoice::fixed(1800.0),
        PolicyChoice::SkiRental { seed: 0x5EED },
        PolicyChoice::Adaptive { alpha: 0.5 },
        PolicyChoice::never(),
    ]
}

/// The queue-discipline competitors for the third part of the shootout.
pub fn discipline_competitors() -> Vec<DisciplineChoice> {
    DisciplineChoice::all()
}

/// The policy competitors of the ladder bracket: the paper's fixed
/// break-even timeout against the deterministic and probability-based
/// lower-envelope descents.
pub fn ladder_policy_competitors() -> Vec<PolicyChoice> {
    vec![
        PolicyChoice::break_even(),
        PolicyChoice::EnvelopeDescent,
        PolicyChoice::lower_envelope(),
    ]
}

/// The cache levels of the cache bracket: no cache, the paper's 16 GB
/// DRAM front, and an 8× bigger one. Table 1 couples popularity inversely
/// to size, so the hot set is small in bytes and even the 16 GB front
/// absorbs a large share of arrivals.
pub fn cache_levels() -> Vec<CacheChoice> {
    vec![
        CacheChoice::None,
        CacheChoice::parse("lru:16").expect("valid cache spec"),
        CacheChoice::parse("lru:128").expect("valid cache spec"),
    ]
}

/// The joint-grid restriction the cache bracket searches: Pack_Disks,
/// FIFO and the fixed break-even threshold fixed (the paper's service
/// model and policy), both ladders × [`cache_levels`], all at the same
/// `fleet`. Holding the policy at the paper's own keeps the bracket a
/// pure (cache × ladder) question: how much front-end capacity does it
/// take before the low-RPM middle state pays for its spin-up detour?
/// (The envelope policies are deliberately excluded: their 3-state
/// descent dominates every cache level outright — see the ladder bracket
/// — and would mask the flip this bracket pins.)
pub fn cache_bracket_config(fleet: usize) -> JointConfig {
    let mut cfg = JointConfig::default_grid();
    cfg.allocators = vec![Allocator::PackDisks];
    cfg.policies = vec![PolicyChoice::break_even()];
    cfg.disciplines = vec![DisciplineChoice::Fifo];
    cfg.caches = cache_levels();
    cfg.fleet = Some(fleet);
    cfg
}

/// Arrival rate of the cache bracket's replay. Chosen to sit just on the
/// two-state side of the ladder crossover: without a cache the per-disk
/// idle gaps are short enough that the three-state ladder's low-RPM
/// detour costs more than it saves, while a big front absorbing the hot
/// head stretches the gaps past the crossover and flips the winning
/// ladder. (At the shootout's R = 4 the gaps are too short for any cache
/// to close the difference; well below R ≈ 2 the three-state ladder wins
/// even cache-free.)
pub(crate) const CACHE_BRACKET_RATE: f64 = 2.5;

/// The Poisson replay the cache bracket runs at [`CACHE_BRACKET_RATE`].
pub(crate) fn cache_bracket_trace(catalog: &FileCatalog, scale: Scale) -> Trace {
    Trace::poisson(
        catalog,
        CACHE_BRACKET_RATE,
        scale.sim_time(),
        grid_seed(97, 0, 0),
    )
}

/// `label` with any cache suffix stripped — the (allocation, policy,
/// discipline, ladder) quadruple shared by every cell of one cache level.
fn quadruple_of(label: &str) -> String {
    label.split('+').take(4).collect::<Vec<_>>().join("+")
}

/// The escalating fault regimes of the fault bracket: fault-free, a
/// transient-I/O flake rate (one attempt in twenty discards its result
/// and retries), and heavy wake failures (three quarters of spin-up
/// attempts fall back asleep and retry through capped backoff, each
/// attempt charging its transition energy; a drive that exhausts its
/// budget fail-stops until repair). All regimes share one seed so the
/// bracket is deterministic.
pub fn fault_levels() -> Vec<(&'static str, FaultChoice)> {
    vec![
        ("none", FaultChoice::None),
        (
            "transient",
            FaultChoice::parse("transient:p=0.05").expect("valid fault spec"),
        ),
        (
            "wakefail",
            FaultChoice::parse("wakefail:p=0.75 | backoff=8 | mttr=300").expect("valid fault spec"),
        ),
    ]
}

/// The joint-grid restriction the fault bracket searches at one fault
/// level: Pack_Disks and FIFO fixed, (break-even vs never-spin-down) ×
/// both ladders at the same `fleet`. Holding the allocation and
/// discipline keeps the bracket a pure availability question: how hard do
/// faults have to bite before *not sleeping* beats the deep-sleep cell
/// that wins the fault-free replay?
pub fn fault_bracket_config(fleet: usize, fault: FaultChoice) -> JointConfig {
    let mut cfg = JointConfig::default_grid();
    cfg.allocators = vec![Allocator::PackDisks];
    cfg.policies = vec![PolicyChoice::break_even(), PolicyChoice::never()];
    cfg.disciplines = vec![DisciplineChoice::Fifo];
    cfg.fleet = Some(fleet);
    cfg.fault = fault;
    cfg
}

/// The spin-up-heavy burst workload the discipline rows replay: sparse
/// bursts (disks sleep out the gaps under the aggressive threshold) of
/// several near-simultaneous requests each, so most service happens right
/// after a wake with a queue that piled up during the spin-up.
pub(crate) fn spin_up_heavy_trace(catalog: &FileCatalog, scale: Scale) -> Trace {
    let cfg = BatchConfig {
        burst_rate: 1.0 / 150.0,
        min_batch: 4,
        max_batch: 8,
        intra_batch_gap_s: 0.5,
    };
    Trace::batched(catalog, &cfg, scale.sim_time(), grid_seed(91, 0, 0))
}

/// The fault bracket's replay: the same spin-up-heavy burst shape as
/// [`spin_up_heavy_trace`] but with inter-burst gaps comfortably past the
/// 53.3 s break-even threshold and a horizon long enough for dozens of
/// sleep/wake cycles — wake failures need repeated spin-ups to tax, and
/// the quick-scale 600 s window holds only one or two.
pub(crate) fn fault_bracket_trace(catalog: &FileCatalog, scale: Scale) -> Trace {
    let cfg = BatchConfig {
        burst_rate: 1.0 / 120.0,
        min_batch: 4,
        max_batch: 8,
        intra_batch_gap_s: 0.5,
    };
    Trace::batched(
        catalog,
        &cfg,
        scale.sim_time().max(6_000.0),
        grid_seed(97, 0, 0),
    )
}

/// A NERSC-style batched replay (§3.2's bursts of related requests):
/// moderate inter-burst gaps that straddle the break-even thresholds,
/// where the probability-based policy's distribution awareness shows.
pub(crate) fn nersc_style_trace(catalog: &FileCatalog, scale: Scale) -> Trace {
    let cfg = BatchConfig {
        burst_rate: 1.0 / 100.0,
        min_batch: 2,
        max_batch: 6,
        intra_batch_gap_s: 2.0,
    };
    Trace::batched(catalog, &cfg, scale.sim_time(), grid_seed(93, 0, 0))
}

/// The dense burst mix the joint bracket replays: bursts arrive every
/// ~20 s, inside the break-even window, so *where* the hot files live
/// decides whether consecutive bursts find a disk still spinning (warm
/// hit) or pay a cold 15 s wake — the regime where the allocation
/// dimension of the quadruple genuinely moves energy and response. (On
/// the sparse burst traces every burst cold-starts one disk whatever the
/// allocator did, and the allocation legs collapse into relabelings.)
pub(crate) fn joint_mix_trace(catalog: &FileCatalog, scale: Scale) -> Trace {
    let cfg = BatchConfig {
        burst_rate: 1.0 / 20.0,
        min_batch: 2,
        max_batch: 6,
        intra_batch_gap_s: 1.0,
    };
    Trace::batched(catalog, &cfg, scale.sim_time(), grid_seed(95, 0, 0))
}

/// Run the shootout at R = 4, L = 0.7 with FIFO queues (the paper's
/// service model) and two-state drives for the allocator and policy rows.
pub fn shootout(scale: Scale) -> Result<Figure, SimError> {
    shootout_with(scale, DisciplineChoice::Fifo, LadderChoice::TwoState)
}

/// Run the shootout with an explicit base queue discipline and power
/// ladder for the allocator and policy rows (`--discipline` / `--ladder`
/// in the CLI); the discipline rows always compare the whole discipline
/// family and the ladder bracket always compares every ladder.
pub fn shootout_with(
    scale: Scale,
    base: DisciplineChoice,
    base_ladder: LadderChoice,
) -> Result<Figure, SimError> {
    shootout_with_faults(scale, base, base_ladder, None)
}

/// [`shootout_with`], with an optional extra fault regime (`--faults` in
/// the CLI) appended to the fault bracket as a fourth `custom` level. A
/// sweep cell that fails to simulate fails the shootout with its
/// [`SimError`].
pub fn shootout_with_faults(
    scale: Scale,
    base: DisciplineChoice,
    base_ladder: LadderChoice,
    custom_fault: Option<FaultChoice>,
) -> Result<Figure, SimError> {
    let catalog = FileCatalog::paper_table1(scale.n_files(), 0);
    let rate = 4.0;
    let fleet = scale.fleet();
    let trace = Trace::poisson(&catalog, rate, scale.sim_time(), grid_seed(90, 0, 0));

    // Part 1: allocators under the default (break-even) policy.
    let allocators = competitors(scale, fleet);
    let alloc_results: Vec<(usize, f64, f64, f64, Plan)> = parallel_map(&allocators, |_, alloc| {
        let mut cfg = PlannerConfig::default();
        cfg.allocator = *alloc;
        // Stream responses per row: the shootout never needs the samples
        // back, only summary statistics.
        cfg.sim = cfg
            .sim
            .with_discipline(base)
            .with_metrics(MetricsMode::Histogram);
        base_ladder.apply(&mut cfg.sim.disk);
        let planner = Planner::new(cfg);
        let plan = planner.plan(&catalog, rate).expect("plan feasible");
        let report = planner
            .evaluate_with_fleet(&plan, &catalog, &trace, fleet)
            .expect("simulates");
        (
            plan.disks_used(),
            report.energy.total_joules(),
            report.responses.mean(),
            report.response_p95(),
            plan,
        )
    });
    let random_energy = alloc_results.last().expect("random is last").1;

    // Part 2: spin-down policies on the Pack_Disks allocation (row 0),
    // fanned as one (policy × discipline) sweep grid at the base
    // discipline.
    let pack_plan = &alloc_results[0].4;
    let policies = policy_competitors();
    let mut grid = policy_discipline_grid(&policies, &[base]);
    for spec in &mut grid {
        spec.ladder = base_ladder;
    }
    // One shared base config: the single drive spec every sweep cell
    // plans, builds policies and simulates against.
    let base_cfg = spindown_sim::config::SimConfig::paper_default();
    let policy_reports = run_sweep(
        &catalog,
        &trace,
        &pack_plan.assignment,
        &base_cfg,
        fleet,
        &grid,
    )?;

    // Part 3: queue disciplines on a spin-up-heavy bursty replay of the
    // Pack_Disks allocation, under the break-even spin-down policy. The
    // energy reference is random placement on the *same* bursty trace, so
    // the saving column keeps one meaning per trace.
    let bursty = spin_up_heavy_trace(&catalog, scale);
    let disciplines = discipline_competitors();
    let discipline_grid = policy_discipline_grid(&[PolicyChoice::break_even()], &disciplines);
    let discipline_reports = run_sweep(
        &catalog,
        &bursty,
        &pack_plan.assignment,
        &base_cfg,
        fleet,
        &discipline_grid,
    )?;
    let random_plan = &alloc_results.last().expect("random is last").4;
    let bursty_random_energy = run_sweep(
        &catalog,
        &bursty,
        &random_plan.assignment,
        &base_cfg,
        fleet,
        &policy_cache_grid(&[PolicyChoice::break_even()], &[CacheChoice::None]),
    )?[0]
        .energy
        .total_joules();

    // Part 4: the power-ladder bracket — every ladder × the fixed-timeout
    // and lower-envelope policies, replayed on the spin-up-heavy bursts
    // and on a NERSC-style batched trace. The saving reference is random
    // placement on the row's trace, as in part 3.
    let ladder_grid = ladder_policy_grid(&LadderChoice::all(), &ladder_policy_competitors());
    let nersc_style = nersc_style_trace(&catalog, scale);
    let nersc_random_energy = run_sweep(
        &catalog,
        &nersc_style,
        &random_plan.assignment,
        &base_cfg,
        fleet,
        &policy_cache_grid(&[PolicyChoice::break_even()], &[CacheChoice::None]),
    )?[0]
        .energy
        .total_joules();
    let ladder_replays = [
        ("bursts", &bursty, bursty_random_energy),
        ("nersc_style", &nersc_style, nersc_random_energy),
    ];
    let ladder_reports: Vec<Vec<spindown_sim::metrics::SimReport>> = ladder_replays
        .iter()
        .map(|(_, trace, _)| {
            run_sweep(
                &catalog,
                trace,
                &pack_plan.assignment,
                &base_cfg,
                fleet,
                &ladder_grid,
            )
        })
        .collect::<Result<_, _>>()?;

    // Part 5: the joint bracket — instead of fixing three dimensions and
    // sweeping the fourth, search the full (allocation × policy ×
    // discipline × ladder) quadruple space, on the spin-up-heavy bursts
    // (shared with parts 3/4) and on a dense burst mix where the
    // allocation legs genuinely move the numbers. The grid includes the
    // paper's default quadruple, so the scalarised energy×p95 winner can
    // only improve on it; notes flag frontier membership and the winner
    // per replay.
    let dense_mix = joint_mix_trace(&catalog, scale);
    let dense_random_energy = run_sweep(
        &catalog,
        &dense_mix,
        &random_plan.assignment,
        &base_cfg,
        fleet,
        &policy_cache_grid(&[PolicyChoice::break_even()], &[CacheChoice::None]),
    )?[0]
        .energy
        .total_joules();
    let joint_replays = [
        ("bursts", &bursty, bursty_random_energy),
        ("dense_mix", &dense_mix, dense_random_energy),
    ];
    let joint_cfg = {
        let mut cfg = JointConfig::default_grid();
        cfg.fleet = Some(fleet);
        cfg
    };
    let joint_planner = JointPlanner::new(joint_cfg);
    let joint_outcomes: Vec<JointOutcome> = joint_replays
        .iter()
        .map(|(_, trace, _)| {
            let outcome =
                run_joint(&joint_planner, &catalog, trace, rate).expect("joint grid simulates");
            // The saving column divides by random placement's energy at
            // `fleet`; if an allocation ever outgrows the floor the
            // planner raises the effective fleet and the column would
            // silently compare across fleet sizes.
            assert_eq!(
                outcome.fleet, fleet,
                "joint bracket fleet diverged from the random baseline's"
            );
            outcome
        })
        .collect();

    // Part 6: the cache bracket — the joint grid's fifth (cache) leg in
    // isolation: both ladders at the fixed fleet, Pack_Disks allocation
    // and break-even policy under three cache levels, replayed on its own
    // Poisson trace at R = 2.5 (Table 1's popularity skew gives the front
    // real reuse to absorb, and the rate sits just on the two-state side
    // of the ladder crossover — see [`CACHE_BRACKET_RATE`]). Every cell
    // runs the same fleet; a cache level adds its GB to the hardware
    // budget, and the per-level winners show the bigger front lengthening
    // idle gaps enough to flip the winning ladder.
    let cache_trace = cache_bracket_trace(&catalog, scale);
    let cache_random_energy = run_sweep(
        &catalog,
        &cache_trace,
        &random_plan.assignment,
        &base_cfg,
        fleet,
        &policy_cache_grid(&[PolicyChoice::break_even()], &[CacheChoice::None]),
    )?[0]
        .energy
        .total_joules();
    let cache_cfg = cache_bracket_config(fleet);
    let cache_objective = cache_cfg.objective;
    let cache_outcome = run_joint(
        &JointPlanner::new(cache_cfg),
        &catalog,
        &cache_trace,
        CACHE_BRACKET_RATE,
    )
    .expect("cache bracket simulates");
    assert_eq!(
        cache_outcome.fleet, fleet,
        "cache bracket fleet diverged from the random baseline's"
    );
    let cache_level_winners: Vec<(CacheChoice, usize)> = cache_levels()
        .into_iter()
        .map(|level| {
            let idx = (0..cache_outcome.cells.len())
                .filter(|&i| cache_outcome.cells[i].candidate.cache == level)
                .min_by(|&a, &b| {
                    let cell = |i: usize| &cache_outcome.cells[i];
                    cache_objective
                        .score(cell(a).energy_j, cell(a).p95_s)
                        .total_cmp(&cache_objective.score(cell(b).energy_j, cell(b).p95_s))
                })
                .expect("every cache level has cells");
            (level, idx)
        })
        .collect();

    // Part 7: the fault bracket — (break-even vs never) × both ladders on
    // the spin-up-heavy bursts (shared with parts 3/4: disks sleep out the
    // inter-burst gaps, so the fault-free winner is a deep-sleep cell),
    // replayed under each fault regime of [`fault_levels`]. Wake failures
    // tax exactly what the deep-sleep cell does most — spin up — so the
    // heavy level dethrones the fault-free winner; the saving column keeps
    // the bursty random-placement reference, and a fault level is an
    // environment, not hardware, so cross-level savings stay comparable.
    let mut fault_grid = fault_levels();
    if let Some(custom) = custom_fault {
        fault_grid.push(("custom", custom));
    }
    let fault_trace = fault_bracket_trace(&catalog, scale);
    let fault_random_energy = run_sweep(
        &catalog,
        &fault_trace,
        &random_plan.assignment,
        &base_cfg,
        fleet,
        &policy_cache_grid(&[PolicyChoice::break_even()], &[CacheChoice::None]),
    )?[0]
        .energy
        .total_joules();
    let fault_outcomes: Vec<(&str, JointOutcome)> = fault_grid
        .iter()
        .map(|(name, choice)| {
            let outcome = run_joint(
                &JointPlanner::new(fault_bracket_config(fleet, choice.clone())),
                &catalog,
                &fault_trace,
                rate,
            )
            .expect("fault bracket simulates");
            assert_eq!(
                outcome.fleet, fleet,
                "fault bracket fleet diverged from the random baseline's"
            );
            (*name, outcome)
        })
        .collect();

    let mut fig = Figure::new(
        "shootout",
        "Allocator, policy and queue-discipline shootout at R = 4, L = 0.7 \
         (saving is vs random placement on the row's trace)",
        vec![
            "row".into(),
            "disks_used".into(),
            "saving_vs_rnd".into(),
            "resp_s".into(),
            "resp_p95_s".into(),
        ],
    );
    for (idx, alloc) in allocators.iter().enumerate() {
        fig.notes.push(format!(
            "row {idx} = alloc {} (break_even policy, {} discipline)",
            alloc.label(),
            base.label()
        ));
    }
    for (j, spec) in grid.iter().enumerate() {
        fig.notes.push(format!(
            "row {} = policy {} (Pack_Disks allocation)",
            allocators.len() + j,
            spec.label()
        ));
    }
    for (j, spec) in discipline_grid.iter().enumerate() {
        fig.notes.push(format!(
            "row {} = discipline {} (Pack_Disks allocation, break_even, spin-up-heavy bursts)",
            allocators.len() + grid.len() + j,
            spec.discipline.label()
        ));
    }
    let ladder_rows_base = allocators.len() + grid.len() + discipline_grid.len();
    {
        let mut row = ladder_rows_base;
        for (name, _, _) in &ladder_replays {
            for spec in &ladder_grid {
                fig.notes.push(format!(
                    "row {row} = ladder {} ({name} replay, Pack_Disks allocation)",
                    spec.label()
                ));
                row += 1;
            }
        }
    }
    let joint_rows_base = ladder_rows_base + 2 * ladder_grid.len();
    {
        let mut row = joint_rows_base;
        for ((name, _, _), outcome) in joint_replays.iter().zip(&joint_outcomes) {
            for (j, cell) in outcome.cells.iter().enumerate() {
                let mut tags = String::new();
                if outcome.frontier.contains(&j) {
                    tags.push_str(", frontier");
                }
                if j == outcome.winner {
                    tags.push_str(", winner");
                }
                fig.notes.push(format!(
                    "row {row} = joint {} ({name} replay{tags})",
                    cell.candidate.label()
                ));
                row += 1;
            }
        }
    }
    let cache_rows_base =
        joint_rows_base + joint_outcomes.iter().map(|o| o.cells.len()).sum::<usize>();
    {
        for (row, (j, cell)) in (cache_rows_base..).zip(cache_outcome.cells.iter().enumerate()) {
            let mut tags = String::new();
            if let Some((level, _)) = cache_level_winners.iter().find(|&&(_, w)| w == j) {
                tags = format!(", winner@{}", level.label());
            }
            fig.notes.push(format!(
                "row {row} = cache {} (R=2.5 poisson replay{tags})",
                cell.candidate.label()
            ));
        }
        fig.notes.push(format!(
            "cache bracket winners (energy×p95, equal fleet {fleet}, R=2.5 poisson): {}",
            cache_level_winners
                .iter()
                .map(|&(level, w)| {
                    format!(
                        "{}→{}",
                        level.label(),
                        quadruple_of(&cache_outcome.cells[w].candidate.label())
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let fault_rows_base = cache_rows_base + cache_outcome.cells.len();
    {
        let mut row = fault_rows_base;
        for (name, outcome) in &fault_outcomes {
            for (j, cell) in outcome.cells.iter().enumerate() {
                let mut tags = String::new();
                if j == outcome.winner {
                    tags.push_str(", winner");
                }
                if let Some(a) = cell.availability {
                    tags.push_str(&format!(", avail={a:.4}"));
                }
                fig.notes.push(format!(
                    "row {row} = fault {} @{name} (wake-cycle bursts replay{tags})",
                    cell.candidate.label()
                ));
                row += 1;
            }
        }
        fig.notes.push(format!(
            "fault bracket winners (energy×p95, equal fleet {fleet}, wake-cycle bursts): {}",
            fault_outcomes
                .iter()
                .map(|(name, o)| {
                    format!(
                        "{name}→{}",
                        quadruple_of(&o.winner_cell().candidate.label())
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    for (idx, (disks, energy, resp, p95, _)) in alloc_results.iter().enumerate() {
        fig.push_row(vec![
            idx as f64,
            *disks as f64,
            1.0 - energy / random_energy,
            *resp,
            *p95,
        ]);
    }
    let pack_disks_used = alloc_results[0].0;
    for (j, report) in policy_reports.iter().enumerate() {
        fig.push_row(vec![
            (allocators.len() + j) as f64,
            pack_disks_used as f64,
            1.0 - report.energy.total_joules() / random_energy,
            report.responses.mean(),
            report.response_p95(),
        ]);
    }
    for (j, report) in discipline_reports.iter().enumerate() {
        fig.push_row(vec![
            (allocators.len() + grid.len() + j) as f64,
            pack_disks_used as f64,
            1.0 - report.energy.total_joules() / bursty_random_energy,
            report.responses.mean(),
            report.response_p95(),
        ]);
    }
    let mut row = ladder_rows_base;
    for ((_, _, random_energy), reports) in ladder_replays.iter().zip(&ladder_reports) {
        for report in reports {
            fig.push_row(vec![
                row as f64,
                pack_disks_used as f64,
                1.0 - report.energy.total_joules() / random_energy,
                report.responses.mean(),
                report.response_p95(),
            ]);
            row += 1;
        }
    }
    for ((_, _, random_energy), outcome) in joint_replays.iter().zip(&joint_outcomes) {
        for cell in &outcome.cells {
            fig.push_row(vec![
                row as f64,
                cell.disks_used as f64,
                1.0 - cell.energy_j / random_energy,
                cell.mean_resp_s,
                cell.p95_s,
            ]);
            row += 1;
        }
    }
    for cell in &cache_outcome.cells {
        fig.push_row(vec![
            row as f64,
            cell.disks_used as f64,
            1.0 - cell.energy_j / cache_random_energy,
            cell.mean_resp_s,
            cell.p95_s,
        ]);
        row += 1;
    }
    for (_, outcome) in &fault_outcomes {
        for cell in &outcome.cells {
            fig.push_row(vec![
                row as f64,
                cell.disks_used as f64,
                1.0 - cell.energy_j / fault_random_energy,
                cell.mean_resp_s,
                cell.p95_s,
            ]);
            row += 1;
        }
    }
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Joint-bracket rows per replay (the default quadruple grid size).
    fn n_joint_cells() -> usize {
        JointConfig::default_grid().candidates().len()
    }

    /// Cache-bracket rows (one replay).
    fn n_cache_cells() -> usize {
        cache_bracket_config(100).candidates().len()
    }

    /// Fault-bracket rows: one (policy × ladder) grid per fault level.
    fn n_fault_rows() -> usize {
        fault_levels().len()
            * fault_bracket_config(100, FaultChoice::None)
                .candidates()
                .len()
    }

    #[test]
    fn shootout_covers_all_allocators_and_pack_wins_energy() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let n_alloc = competitors(Scale::Quick, 100).len();
        let n_policy = policy_competitors().len();
        let n_disc = discipline_competitors().len();
        let n_ladder =
            2 * ladder_policy_grid(&LadderChoice::all(), &ladder_policy_competitors()).len();
        let n_joint = 2 * n_joint_cells();
        assert_eq!(
            fig.rows.len(),
            n_alloc + n_policy + n_disc + n_ladder + n_joint + n_cache_cells() + n_fault_rows()
        );
        let savings = fig.series("saving_vs_rnd").unwrap();
        let disks = fig.series("disks_used").unwrap();
        // Pack_Disks (row 0) saves clearly against random (last alloc row).
        assert!(savings[0] > 0.25, "pack saving {}", savings[0]);
        assert!(savings[n_alloc - 1].abs() < 1e-9);
        // Every deterministic packer beats random's disk count.
        for (i, &d) in disks.iter().enumerate().take(n_alloc - 1) {
            assert!(
                d <= disks[n_alloc - 1],
                "alloc {i} used {d} disks, random used {}",
                disks[n_alloc - 1]
            );
        }
    }

    #[test]
    fn shootout_emits_rows_for_the_online_policies() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let n_alloc = competitors(Scale::Quick, 100).len();
        let labels: Vec<String> = policy_competitors().iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"ski_rental".to_owned()));
        assert!(labels.contains(&"adaptive_a50".to_owned()));
        for l in &labels {
            assert!(
                fig.notes.iter().any(|n| n.contains(l.as_str())),
                "missing policy note for {l}"
            );
        }
        let savings = fig.series("saving_vs_rnd").unwrap();
        let never_row = n_alloc + labels.len() - 1; // never() is last
        for (j, l) in labels.iter().enumerate() {
            let s = savings[n_alloc + j];
            assert!(s.is_finite(), "policy {l} saving {s}");
            // Every sleeping policy must beat the never-spin-down floor.
            if l != "never" {
                assert!(
                    s >= savings[never_row] - 1e-9,
                    "policy {l} saving {s} below never {}",
                    savings[never_row]
                );
            }
        }
        // The online policies save meaningful energy vs random placement.
        let ski = savings[n_alloc + 2];
        let adaptive = savings[n_alloc + 3];
        assert!(ski > 0.1, "ski_rental saving {ski}");
        assert!(adaptive > 0.1, "adaptive saving {adaptive}");
    }

    #[test]
    fn discipline_rows_show_elevator_no_worse_than_fifo_on_spin_up_bursts() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let n_alloc = competitors(Scale::Quick, 100).len();
        let n_policy = policy_competitors().len();
        let disciplines = discipline_competitors();
        assert_eq!(disciplines[0], DisciplineChoice::Fifo);
        assert_eq!(disciplines[2], DisciplineChoice::ElevatorBatch);
        for d in &disciplines {
            assert!(
                fig.notes
                    .iter()
                    .any(|n| n.contains("discipline") && n.contains(d.label().as_str())),
                "missing discipline note for {}",
                d.label()
            );
        }
        let first = n_alloc + n_policy;
        let means = fig.series("resp_s").unwrap();
        let p95s = fig.series("resp_p95_s").unwrap();
        let (fifo, elevator) = (first, first + 2);
        // Spin-up batching amortises positioning on a pile-up-heavy trace:
        // mean response must not regress vs FIFO (acceptance criterion).
        assert!(
            means[elevator] <= means[fifo] + 1e-9,
            "elevator mean {} vs fifo {}",
            means[elevator],
            means[fifo]
        );
        for row in first..first + disciplines.len() {
            assert!(p95s[row].is_finite() && p95s[row] >= means[row] * 0.5);
        }
    }

    /// Rows of the ladder bracket as (label, saving, p95) per replay, in
    /// grid order.
    fn ladder_rows(fig: &Figure) -> Vec<Vec<(String, f64, f64)>> {
        let n_alloc = competitors(Scale::Quick, 100).len();
        let n_policy = policy_competitors().len();
        let n_disc = discipline_competitors().len();
        let grid = ladder_policy_grid(&LadderChoice::all(), &ladder_policy_competitors());
        let savings = fig.series("saving_vs_rnd").unwrap();
        let p95s = fig.series("resp_p95_s").unwrap();
        let base = n_alloc + n_policy + n_disc;
        (0..2)
            .map(|replay| {
                grid.iter()
                    .enumerate()
                    .map(|(j, spec)| {
                        let row = base + replay * grid.len() + j;
                        (spec.label(), savings[row], p95s[row])
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ladder_bracket_lower_envelope_beats_fixed_timeout_on_energy_p95() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let replays = ladder_rows(&fig);
        // Acceptance criterion: on at least one seeded replay, the
        // probability-based lower-envelope policy on the 3-state ladder
        // beats the fixed break-even timeout on the energy × p95 frontier.
        // Within one replay the saving column shares its random-placement
        // reference, so energy ∝ (1 − saving) and the product comparison
        // needs no absolute joules.
        let mut wins = 0;
        for rows in &replays {
            let find = |label: &str| {
                rows.iter()
                    .find(|(l, _, _)| l == label)
                    .unwrap_or_else(|| panic!("missing ladder row {label}"))
            };
            let (_, s_fixed, p95_fixed) = find("break_even+3state");
            let (_, s_env, p95_env) = find("lower_env+3state");
            let product_fixed = (1.0 - s_fixed) * p95_fixed;
            let product_env = (1.0 - s_env) * p95_env;
            assert!(product_fixed.is_finite() && product_env.is_finite());
            if product_env < product_fixed {
                wins += 1;
            }
        }
        assert!(
            wins >= 1,
            "lower envelope never beat fixed timeout: {replays:?}"
        );
    }

    #[test]
    fn ladder_bracket_emits_both_replays_with_notes() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let grid = ladder_policy_grid(&LadderChoice::all(), &ladder_policy_competitors());
        let n_alloc = competitors(Scale::Quick, 100).len();
        let n_rows = n_alloc
            + policy_competitors().len()
            + discipline_competitors().len()
            + 2 * grid.len()
            + 2 * n_joint_cells()
            + n_cache_cells()
            + n_fault_rows();
        assert_eq!(fig.rows.len(), n_rows);
        for name in ["bursts replay", "nersc_style replay"] {
            assert!(
                fig.notes
                    .iter()
                    .any(|n| n.contains("ladder") && n.contains(name)),
                "missing ladder note for {name}"
            );
        }
        // Every bracket row labels its ladder and policy.
        for spec in &grid {
            assert!(
                fig.notes.iter().any(|n| n.contains(&spec.label())),
                "missing note for {}",
                spec.label()
            );
        }
    }

    /// Joint rows of one replay as (label, saving, p95, is_winner), parsed
    /// back from the figure's notes and series.
    fn joint_rows(fig: &Figure, replay: &str) -> Vec<(String, f64, f64, bool)> {
        let savings = fig.series("saving_vs_rnd").unwrap();
        let p95s = fig.series("resp_p95_s").unwrap();
        fig.notes
            .iter()
            .filter(|n| n.contains("= joint ") && n.contains(&format!("({replay} replay")))
            .map(|n| {
                let row: usize = n
                    .strip_prefix("row ")
                    .and_then(|r| r.split(' ').next())
                    .and_then(|r| r.parse().ok())
                    .expect("joint note starts with its row index");
                let label = n
                    .split("= joint ")
                    .nth(1)
                    .and_then(|r| r.split(" (").next())
                    .expect("joint note names its quadruple")
                    .to_owned();
                (label, savings[row], p95s[row], n.contains("winner"))
            })
            .collect()
    }

    #[test]
    fn joint_bracket_winner_beats_the_paper_default_quadruple() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let default_label = spindown_core::JointCandidate::paper_default().label();
        // Acceptance criterion: on at least one seeded replay the joint
        // winner strictly beats the paper's default quadruple (Pack_Disks
        // + break-even + FIFO + two-state) on energy × p95. Within one
        // replay the saving column shares its random-placement reference,
        // so energy ∝ (1 − saving).
        let mut strict_wins = 0;
        for replay in ["bursts", "dense_mix"] {
            let rows = joint_rows(&fig, replay);
            assert_eq!(rows.len(), n_joint_cells(), "{replay} joint rows");
            let (_, s_def, p95_def, _) = rows
                .iter()
                .find(|(l, _, _, _)| *l == default_label)
                .unwrap_or_else(|| panic!("paper default missing from {replay}"))
                .clone();
            let winners: Vec<_> = rows.iter().filter(|(_, _, _, w)| *w).collect();
            assert_eq!(winners.len(), 1, "{replay} must flag exactly one winner");
            let (_, s_win, p95_win, _) = winners[0];
            let product_def = (1.0 - s_def) * p95_def;
            let product_win = (1.0 - s_win) * p95_win;
            assert!(product_win.is_finite() && product_def.is_finite());
            // The default quadruple is in the grid, so the winner can
            // never be worse…
            assert!(
                product_win <= product_def + 1e-12,
                "{replay}: winner {product_win} worse than default {product_def}"
            );
            if product_win < product_def {
                strict_wins += 1;
            }
        }
        assert!(
            strict_wins >= 1,
            "joint winner never strictly beat the paper default"
        );
    }

    #[test]
    fn joint_bracket_notes_flag_a_non_empty_frontier() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        for replay in ["bursts", "dense_mix"] {
            let frontier = fig
                .notes
                .iter()
                .filter(|n| {
                    n.contains("= joint ")
                        && n.contains(&format!("({replay} replay"))
                        && n.contains("frontier")
                })
                .count();
            assert!(frontier >= 1, "{replay} has no frontier rows");
        }
    }

    #[test]
    fn cache_bracket_a_bigger_cache_flips_the_winning_policy_ladder_pair() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let summary = fig
            .notes
            .iter()
            .find(|n| n.starts_with("cache bracket winners"))
            .expect("cache bracket summarises its per-level winners");
        // `none→quad, lru:16→quad, lru:128→quad` — one winner per level.
        let winners: Vec<(&str, &str)> = summary
            .split(": ")
            .nth(1)
            .expect("summary lists winners")
            .split(", ")
            .map(|entry| {
                let (level, quad) = entry.split_once('→').expect("level→winner");
                (level, quad)
            })
            .collect();
        assert_eq!(winners.len(), cache_levels().len());
        assert_eq!(winners[0].0, "none");
        // Acceptance criterion: changing only the cache size flips the
        // winning (policy, ladder) pair on this seeded replay — in
        // particular the biggest front must pick a different quadruple
        // than running cache-free.
        let distinct: std::collections::BTreeSet<&str> = winners.iter().map(|&(_, q)| q).collect();
        assert!(
            distinct.len() >= 2,
            "cache size never flipped the winner: {summary}"
        );
        let (_, bare_quad) = winners[0];
        let (_, big_quad) = winners[winners.len() - 1];
        assert_ne!(
            bare_quad, big_quad,
            "the biggest cache must flip the cache-free winner: {summary}"
        );
        // Every cache-bracket row is annotated, and each level flags
        // exactly one winner.
        for (level, _) in &winners {
            assert_eq!(
                fig.notes
                    .iter()
                    .filter(|n| n.contains(&format!("winner@{level}")))
                    .count(),
                1,
                "level {level} must flag exactly one winner"
            );
        }
        assert_eq!(
            fig.notes.iter().filter(|n| n.contains("= cache ")).count(),
            n_cache_cells()
        );
    }

    #[test]
    fn fault_bracket_wake_failures_dethrone_the_no_fault_winner() {
        let fig = shootout(Scale::Quick).expect("shootout simulates");
        let summary = fig
            .notes
            .iter()
            .find(|n| n.starts_with("fault bracket winners"))
            .expect("fault bracket summarises its per-level winners");
        let winners: Vec<(&str, &str)> = summary
            .split(": ")
            .nth(1)
            .expect("summary lists winners")
            .split(", ")
            .map(|entry| entry.split_once('→').expect("level→winner"))
            .collect();
        assert_eq!(winners.len(), fault_levels().len());
        assert_eq!(winners[0].0, "none");
        // The fault-free winner is a deep-sleep cell (it spins down;
        // never-spin-down can't win a sparse bursty replay on energy×p95)…
        let (_, no_fault_quad) = winners[0];
        assert!(
            no_fault_quad.contains("break_even"),
            "fault-free winner must sleep: {summary}"
        );
        // …and the acceptance criterion: heavy wake failures dethrone it —
        // the same quadruple no longer wins once spin-ups can fail.
        let (_, wakefail_quad) = *winners
            .iter()
            .find(|(l, _)| *l == "wakefail")
            .expect("wakefail level present");
        assert_ne!(
            no_fault_quad, wakefail_quad,
            "wake failures must flip the no-fault winner: {summary}"
        );
        // Faulted rows annotate availability; the fault-free rows don't.
        assert!(
            fig.notes
                .iter()
                .any(|n| n.contains("@wakefail") && n.contains("avail=")),
            "wakefail rows must carry availability"
        );
        assert!(
            fig.notes
                .iter()
                .all(|n| !n.contains("@none") || !n.contains("avail=")),
            "fault-free rows must not carry availability"
        );
    }

    #[test]
    fn custom_fault_level_appends_to_the_bracket() {
        let fig = shootout_with_faults(
            Scale::Quick,
            DisciplineChoice::Fifo,
            LadderChoice::TwoState,
            Some(FaultChoice::parse("transient:p=0.05").unwrap()),
        )
        .expect("shootout simulates");
        assert!(
            fig.notes.iter().any(|n| n.contains("@custom")),
            "custom fault level must add annotated rows"
        );
        let summary = fig
            .notes
            .iter()
            .find(|n| n.starts_with("fault bracket winners"))
            .unwrap();
        assert!(
            summary.contains("custom→"),
            "summary covers the custom level"
        );
    }

    #[test]
    fn shootout_with_sjf_base_labels_the_policy_rows() {
        let fig = shootout_with(
            Scale::Quick,
            DisciplineChoice::sjf(),
            LadderChoice::TwoState,
        )
        .expect("shootout simulates");
        assert!(
            fig.notes.iter().any(|n| n.contains("break_even+sjf_a30s")),
            "policy rows should carry the base discipline label"
        );
        assert!(fig.notes.iter().any(|n| n.contains("sjf_a30s discipline")));
    }

    #[test]
    fn chp_only_competes_at_paper_scale() {
        assert!(competitors(Scale::Paper, 100).contains(&Allocator::Chp));
        assert!(!competitors(Scale::Quick, 100).contains(&Allocator::Chp));
        // output equality of CHP and Pack_Disks is property-tested in
        // spindown-packing; no need to re-simulate it here.
    }
}
