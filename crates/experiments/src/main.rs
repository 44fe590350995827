//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--out DIR] [--discipline fifo|sjf|sjf:SECONDS|elevator]
//!             [--ladder 2|3] [--trace-file FILE] [--horizon SECONDS]
//!             [--requests N] [--shards N]
//!             [--cache-tiers none|POLICY:GB|POLICY:GB+POLICY:GB]
//!             [--completion-log FILE] [--faults none|SPEC]
//!             [--window SECONDS] [--workload CURVE] CMD...
//!   CMD ∈ { table1 table2 fig2 fig3 fig4 fig5 fig6 vsweep bounds sensitivity
//!           shootout joint replay all }
//! ```
//!
//! Prints each artefact as an aligned table and writes `DIR/<id>.csv`
//! (default `results/`). `--quick` runs proportionally shrunken instances.
//! The whole command line is checked before the first command runs: an
//! unknown command or option, or a replay-only flag (`--trace-file`,
//! `--horizon`, `--requests`, `--shards`, `--cache-tiers`,
//! `--completion-log`, `--window`, `--workload`) without `replay`, exits 1
//! with nothing written. `all` runs every command but `replay`.
//! `--discipline` selects the queue discipline (`fifo`, `sjf`,
//! `sjf:SECONDS`, `elevator`) the shootout's allocator and policy rows and
//! the `replay` command run under; the shootout's discipline rows always
//! compare the whole family. `--ladder` selects the power-state ladder
//! (`2` = the paper's Idle ⇄ Standby two-state machine, `3` = idle /
//! low-RPM / standby) those same rows and the `replay` command run on; the
//! shootout's ladder bracket always compares both.
//!
//! `replay` streams a trace through the engine without materialising it:
//! `--trace-file FILE` reads a `time_s,file_id` CSV line by line
//! (the horizon is the last row's time unless `--horizon` gives a *hard
//! bound* — rows past it abort the replay with a typed error; a piped
//! trace needs `--horizon`, as it cannot seek to its last row), otherwise
//! `--requests N` expected arrivals come from a seeded synthetic
//! generator. Either way the
//! run aggregates responses in the streaming histogram, so resident memory
//! is O(disks + buckets) regardless of the request count. `--shards N`
//! partitions the fleet across N replay threads (round-robin by disk id);
//! the merged report's histogram metrics and energy totals are
//! bit-identical whatever the shard count, so the flag is purely a
//! wall-clock lever. `--cache-tiers SPEC` fronts the replayed fleet with a
//! cache hierarchy: `none` (default), a flat tier like `lru:16` (policy ∈
//! lru|slru|lfu, capacity in GB), or a two-tier DRAM→SSD stack like
//! `lru:2+lru:16` — cache hits are served at the tier's bandwidth and
//! never wake a disk. `--completion-log FILE` streams every completion
//! record to FILE as `request,disk,time_s` CSV rows in canonical
//! `(time, request)` order — O(buffer) resident and byte-identical at any
//! shard count, since per-shard streams k-way merge on the fly. Both the
//! cache and the log compose with `--shards`: the reader thread walks the
//! one cache in stream order before routing, and the merged counters and
//! log are bit-identical to the unsharded run.
//! `--faults SPEC` replays under a seeded deterministic
//! fault regime (e.g. `'transient:p=1e-4 | wakefail:p=0.02 | mttr=300'`;
//! `none` or omission keeps the fault-free path bit-identical to the
//! legacy engine): `replay` appends availability columns and the shootout
//! appends the spec as a fourth fault-bracket level.
//! `--window SECS` turns on tumbling windowed metrics: `replay` prints and
//! writes a second artefact, `replay_windows` — one row per window
//! (completions, mean/p95/p99 response, energy, peak backlog; plus
//! completed/shed/failed/retried when `--faults` is active) — bit-identical
//! at any `--shards` count. `--workload SPEC` swaps the stationary Poisson
//! generator for a non-stationary rate curve sampled by thinning:
//! `diurnal:base=B,amp=A,period=P[,phase=F]`,
//! `flash:base=B,peak=P,at=T,ramp=R,hold=H,decay=D`, or
//! `ramps:T1=R1,T2=R2,…` (conflicts with `--trace-file`, which fixes every
//! arrival already).

use std::path::PathBuf;
use std::process::ExitCode;

use spindown_core::{CacheChoice, DisciplineChoice, FaultChoice, LadderChoice, RateCurve};
use spindown_experiments::output::{render_table, write_csv};
use spindown_experiments::{
    bounds_exp, fig23, fig4, fig56, joint_exp, replay, sensitivity, shootout, tables, vsweep,
    Figure, Scale,
};
use spindown_sim::SimError;
use spindown_workload::trace::MAX_TRACE_TIME_S;

/// The commands `all` runs, in order; `replay` is the only other one.
const ALL: [&str; 12] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "vsweep",
    "bounds",
    "sensitivity",
    "shootout",
    "joint",
];

/// Flags that only the `replay` command reads.
const REPLAY_ONLY: [&str; 8] = [
    "--trace-file",
    "--horizon",
    "--requests",
    "--shards",
    "--cache-tiers",
    "--completion-log",
    "--window",
    "--workload",
];

fn usage() -> &'static str {
    "usage: experiments [--quick] [--out DIR] [--discipline fifo|sjf|sjf:SECONDS|elevator]\n\
     \u{20}                  [--ladder 2|3] [--trace-file FILE] [--horizon SECONDS]\n\
     \u{20}                  [--requests N] [--shards N]\n\
     \u{20}                  [--cache-tiers none|POLICY:GB|POLICY:GB+POLICY:GB]\n\
     \u{20}                  [--completion-log FILE] [--faults none|SPEC]\n\
     \u{20}                  [--window SECONDS] [--workload CURVE] CMD...\n\
     \u{20}    (SPEC e.g. 'transient:p=1e-4 | wakefail:p=0.02 | mttr=300';\n\
     \u{20}     CURVE e.g. diurnal:base=4,amp=3,period=86400 |\n\
     \u{20}     flash:base=2,peak=20,at=600,ramp=60,hold=300,decay=120 |\n\
     \u{20}     ramps:0=2,3600=8)\n\
     CMD: table1 table2 fig2 fig3 fig4 fig5 fig6 vsweep bounds sensitivity shootout joint\n\
     \u{20}    replay all   (--joint is accepted as an alias for the joint command)"
}

fn main() -> ExitCode {
    let mut scale = Scale::Paper;
    let mut out_dir = PathBuf::from("results");
    let mut discipline = DisciplineChoice::Fifo;
    let mut ladder = LadderChoice::TwoState;
    let mut trace_file: Option<PathBuf> = None;
    let mut horizon: Option<f64> = None;
    let mut requests: u64 = 1_000_000;
    let mut shards: usize = 1;
    let mut cache = CacheChoice::None;
    let mut faults = FaultChoice::None;
    let mut completion_log: Option<PathBuf> = None;
    let mut window: Option<f64> = None;
    let mut workload: Option<RateCurve> = None;
    let mut cmds: Vec<String> = Vec::new();
    let mut replay_flag: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if replay_flag.is_none() && REPLAY_ONLY.contains(&arg.as_str()) {
            replay_flag = Some(arg.clone());
        }
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-file" => match args.next() {
                Some(path) => trace_file = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--trace-file needs a path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--horizon" => match args.next().and_then(|h| h.parse::<f64>().ok()) {
                Some(h) if (0.0..=MAX_TRACE_TIME_S).contains(&h) => horizon = Some(h),
                _ => {
                    eprintln!(
                        "--horizon needs a number of seconds in [0, {MAX_TRACE_TIME_S}]\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--requests" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => requests = n,
                _ => {
                    eprintln!("--requests needs a positive count\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => shards = n,
                _ => {
                    eprintln!("--shards needs a positive count\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--completion-log" => match args.next() {
                Some(path) => completion_log = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--completion-log needs a CSV path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--cache-tiers" => match args.next().as_deref().and_then(CacheChoice::parse) {
                Some(c) => cache = c,
                None => {
                    eprintln!(
                        "--cache-tiers needs none, POLICY:GB or POLICY:GB+POLICY:GB \
                         (POLICY: lru|slru|lfu, e.g. lru:16 or lru:2+lru:16)\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--faults" => match args.next() {
                Some(spec) => match FaultChoice::parse(&spec) {
                    Ok(f) => faults = f,
                    Err(e) => {
                        eprintln!("--faults: {e}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!(
                        "--faults needs a spec (e.g. 'transient:p=1e-4 | wakefail:p=0.02') \
                         or none\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--window" => match args.next().and_then(|w| w.parse::<f64>().ok()) {
                Some(w) if w.is_finite() && w > 0.0 => window = Some(w),
                _ => {
                    eprintln!(
                        "--window needs a finite positive number of seconds \
                         (zero, NaN and infinities are rejected)\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--workload" => match args.next() {
                Some(spec) => match RateCurve::parse(&spec) {
                    Ok(curve) => workload = Some(curve),
                    Err(e) => {
                        eprintln!("--workload: {e}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!(
                        "--workload needs a curve spec (diurnal:…, flash:… or ramps:…)\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--discipline" => match args.next().as_deref().and_then(DisciplineChoice::parse) {
                Some(d) => discipline = d,
                None => {
                    eprintln!(
                        "--discipline needs fifo|sjf|sjf:SECONDS|elevator\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--ladder" => match args.next().as_deref().and_then(LadderChoice::parse) {
                Some(l) => ladder = l,
                None => {
                    eprintln!("--ladder needs 2|two|2state|3|three|3state\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            // `--joint` is accepted as an alias for the `joint` command so
            // the joint bracket composes with other flags naturally.
            "--joint" => cmds.push("joint".to_owned()),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => cmds.push(other.to_owned()),
        }
    }
    if cmds.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    // Check the whole command line before the first command runs, so a
    // typo never leaves some of the CSVs written.
    if let Some(other) = cmds
        .iter()
        .find(|c| !matches!(c.as_str(), "all" | "replay") && !ALL.contains(&c.as_str()))
    {
        eprintln!("unknown command {other:?}\n{}", usage());
        return ExitCode::FAILURE;
    }
    let runs_replay = cmds.iter().any(|c| c == "replay");
    if let Some(flag) = replay_flag.filter(|_| !runs_replay) {
        eprintln!(
            "{flag} is read only by the replay command, which this command line \
             does not run (all does not include replay)\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    if cmds.iter().any(|c| c == "all") {
        cmds = ALL.iter().map(|s| s.to_string()).collect();
        if runs_replay {
            cmds.push("replay".to_owned());
        }
    }

    // fig2/fig3 and fig5/fig6 share their sweeps; compute lazily and reuse.
    let mut fig23_cache: Option<(Figure, Figure)> = None;
    let mut fig56_cache: Option<(Figure, Figure)> = None;

    for cmd in &cmds {
        // Every command yields one figure except `replay`, which appends a
        // second (`replay_windows`) when `--window` is set.
        let figures: Vec<Figure> = match cmd.as_str() {
            "table1" => vec![tables::table1(scale)],
            "table2" => vec![tables::table2()],
            "fig2" => {
                let (f2, _) = fig23_cache
                    .get_or_insert_with(|| fig23::fig23(scale))
                    .clone();
                vec![f2]
            }
            "fig3" => {
                let (_, f3) = fig23_cache
                    .get_or_insert_with(|| fig23::fig23(scale))
                    .clone();
                vec![f3]
            }
            "fig4" => vec![fig4::fig4(scale)],
            "fig5" => {
                let (f5, _) = fig56_cache
                    .get_or_insert_with(|| fig56::fig56(scale))
                    .clone();
                vec![f5]
            }
            "fig6" => {
                let (_, f6) = fig56_cache
                    .get_or_insert_with(|| fig56::fig56(scale))
                    .clone();
                vec![f6]
            }
            "vsweep" => vec![vsweep::vsweep(scale)],
            "bounds" => vec![bounds_exp::bounds(scale)],
            "sensitivity" => vec![sensitivity::sensitivity(scale)],
            "shootout" => {
                // The shootout's fleet is fixed by the scale, so a clause
                // naming a disk outside it is rejected before any run.
                if let Err(e) = SimError::check_fault_disks(&faults.plan(), scale.fleet()) {
                    eprintln!("shootout failed: {e}");
                    return ExitCode::FAILURE;
                }
                match shootout::shootout_with_faults(
                    scale,
                    discipline,
                    ladder,
                    (!faults.is_none()).then(|| faults.clone()),
                ) {
                    Ok(fig) => vec![fig],
                    Err(e) => {
                        eprintln!("shootout failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "joint" => vec![joint_exp::joint(scale)],
            "replay" => {
                match replay::replay_under(
                    discipline,
                    scale,
                    trace_file.as_deref(),
                    horizon,
                    requests,
                    ladder,
                    shards,
                    cache,
                    faults.clone(),
                    completion_log.as_deref(),
                    window,
                    workload.as_ref(),
                ) {
                    Ok(figs) => figs,
                    Err(e) => {
                        eprintln!("replay failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => unreachable!("command {other:?} was checked before the first run"),
        };
        for figure in &figures {
            println!("{}", render_table(figure));
            match write_csv(figure, &out_dir) {
                Ok(path) => println!("wrote {}\n", path.display()),
                Err(e) => {
                    eprintln!("failed to write CSV: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
