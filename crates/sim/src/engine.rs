//! The simulation engine: ties the trace, the dispatcher (with an optional
//! cache hierarchy in front), the per-disk actors, the power policy and the
//! event queue together.
//!
//! ## Semantics (matching §4 of the paper)
//!
//! - A request is dispatched to the disk holding its file. If a
//!   [`CacheHierarchy`] is configured (the paper's flat LRU is its
//!   single-tier case) the whole file is looked up first, tier by tier;
//!   a hit is served at the hit tier's
//!   bandwidth without touching the disk (in particular the disk's idle
//!   clock keeps running — a cache's entire contribution to the power
//!   model is lengthening idle gaps), and a miss is admitted to every tier
//!   probed *and* forwarded to the disk.
//! - Disks serve their queue per the configured
//!   [`DisciplineChoice`](crate::discipline::DisciplineChoice) — FIFO by
//!   default, matching the paper. Service = seek + rotation + transfer;
//!   elevator-batch followers pay an amortised seek. The discipline only
//!   reorders the *pending* queue: the two dispatch points (service
//!   completion and spin-up completion) both pop through it.
//! - Whenever a disk settles at a ladder level with an empty queue (level
//!   0 = just became idle) the configured [`PowerPolicy`] is consulted; it
//!   may arm a descent timer (fixed-threshold policies answer with a
//!   constant and descend straight to the deepest level — the paper's
//!   spin-down; multi-state policies descend the ladder step by step).
//!   Arrival of work cancels the timer (by generation check). After the
//!   timer fires the disk descends, paying each level's entry transition.
//! - A request reaching a sleeping disk triggers a wake from *that* level
//!   (deeper levels pay longer exits; the two-state ladder's 15 s
//!   spin-up). A request reaching a disk *mid-descent* waits for the
//!   in-flight entry transition to complete, settles, and then wakes from
//!   the level just reached — disks cannot abort transitions (Zedlewski
//!   et al.).
//! - Simulation ends when all events have drained; energy is integrated to
//!   `max(horizon, last event)`. Spin-down timers that would fire after the
//!   trace horizon are not armed (end effects would otherwise depend on the
//!   drain order).
//! - Response time = completion − arrival, including queueing and power
//!   transitions.
//!
//! ## Arrival scheduling
//!
//! Arrivals never enter the event heap. The engine reads them from a
//! [`TraceSource`] cursor — an in-memory trace, a buffered CSV reader or
//! a seeded synthetic generator — and on every step compares the next
//! arrival against the next scheduled event, processing whichever is
//! earlier; arrivals win ties. The heap holds only `PhaseDone`,
//! `SpinDownTimer` and fault events — O(disks), not O(requests) — so a
//! multi-billion-request replay holds O(disks) simulation state (plus
//! O(buckets) for histogram metrics) instead of the trace itself.
//! Response times come from the arrival stamp each queue entry carries,
//! never from indexing back into a materialised request list.
//!
//! ## Entry points
//!
//! [`Simulator::replay`] is the one implementation: any source, any
//! fleet, one [`PowerPolicy`] per shard from a factory.
//! [`Simulator::run_from_source`] is `replay` under the configured
//! fixed-threshold policy, and [`Simulator::run`] is that over an
//! in-memory [`Trace`] with the assignment's own fleet.
//!
//! ## Sharded replay
//!
//! After allocation every disk's request stream is independent, so
//! `cfg.shards > 1` partitions the fleet by disk id (`disk % shards`).
//! One reader thread demultiplexes the source into bounded per-shard
//! channels, each tagging a request with its ordinal in the whole stream;
//! every shard runs its own event loop on its own thread, and the
//! per-shard reports merge in global disk order — see `shard.rs` for the
//! merge rules and the determinism argument. Global-scope caches shard
//! too: each shard owns the `shard_fleet / fleet` slice of the configured
//! budget that fronts its own disks' files, keeping the tier walk
//! lock-free. The completion log streams through per-shard writers k-way
//! merged by `(time, req)` ([`crate::complog`]). Histogram-mode metrics,
//! energy totals, cache statistics, windows and the completion log are
//! bit-identical at every shard count.

use spindown_disk::state::TransitionError;
use spindown_packing::Assignment;
use spindown_workload::trace::{TraceIoError, MAX_TRACE_TIME_S};
use spindown_workload::{
    FaultPlan, FileCatalog, FileId, InMemorySource, Request, Trace, TraceSource,
};

use crate::actor::{DiskActor, Phase};
use crate::complog::{CompletionOut, CompletionSink, CompletionWriter};
use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultRuntime, PendingRetry};
use crate::hierarchy::{CacheHierarchy, CacheScope};
use crate::metrics::{Completion, MetricsMode, ResponseStats, SimReport};
use crate::policy::{DescentStep, PowerPolicy, TimeoutPolicy};
use crate::windows::{
    last_window, WindowOut, WindowPartial, WindowSeries, WindowedReport, MAX_WINDOWS,
};

/// Simulation failures.
#[derive(Debug)]
pub enum SimError {
    /// The trace references a file the assignment does not place.
    UnmappedFile {
        /// The unplaced file.
        file: FileId,
    },
    /// The fleet is smaller than the assignment needs.
    FleetTooSmall {
        /// Disks required by the assignment.
        required: usize,
        /// Fleet size requested.
        fleet: usize,
    },
    /// Internal state-machine violation (a bug — should never surface).
    Transition(TransitionError),
    /// The streaming trace source failed mid-replay (I/O error, malformed
    /// or out-of-order row).
    Source(TraceIoError),
    /// The streamed completion log could not be written (file creation or
    /// flush failure).
    CompletionLogIo(std::io::Error),
    /// A fault clause targets a disk the fleet does not have.
    FaultDiskOutOfRange {
        /// The offending clause, as the spec grammar spells it.
        clause: String,
        /// The disk the clause names.
        disk: usize,
        /// Disks in the (global) fleet.
        fleet: usize,
    },
    /// The window width is not finite and positive, or it cuts the
    /// horizon into more than [`MAX_WINDOWS`] windows.
    InvalidWindows {
        /// The configured window width, seconds.
        width_s: f64,
        /// The source's horizon, seconds.
        horizon_s: f64,
        /// `floor(horizon / width) + 1` (saturating; 0 for a width that
        /// is not a positive number).
        windows: u64,
        /// The largest window count allowed.
        max: usize,
    },
    /// The source declares a horizon beyond [`MAX_TRACE_TIME_S`].
    HorizonOutOfRange {
        /// The declared horizon, seconds.
        horizon_s: f64,
        /// The largest horizon allowed, seconds.
        max_s: f64,
    },
    /// A [`PowerPolicy`] answered with a descent delay that is not a
    /// finite, non-negative number of seconds.
    InvalidPolicyDelay {
        /// The policy's [`PowerPolicy::name`].
        policy: String,
        /// The (global) disk the policy was consulted for.
        disk: usize,
        /// The ladder level the disk had settled at.
        level: u8,
        /// The delay the policy returned.
        rest_s: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnmappedFile { file } => write!(f, "file {file} is not mapped to a disk"),
            SimError::FleetTooSmall { required, fleet } => {
                write!(f, "fleet of {fleet} disks < {required} required")
            }
            SimError::Transition(e) => write!(f, "disk state machine error: {e}"),
            SimError::Source(e) => write!(f, "trace source failed: {e}"),
            SimError::CompletionLogIo(e) => write!(f, "completion log I/O failed: {e}"),
            SimError::FaultDiskOutOfRange {
                clause,
                disk,
                fleet,
            } => write!(
                f,
                "fault clause `{clause}` targets disk {disk}, but the fleet has {fleet} \
                 disks (d0..d{})",
                fleet.saturating_sub(1)
            ),
            SimError::InvalidWindows {
                width_s,
                horizon_s,
                windows,
                max,
            } => {
                if width_s.is_finite() && *width_s > 0.0 {
                    write!(
                        f,
                        "window width {width_s} s over a {} s horizon makes {windows} \
                         windows; at most {max} are allowed",
                        Seconds(*horizon_s)
                    )
                } else {
                    write!(f, "window width must be finite and positive, got {width_s}")
                }
            }
            SimError::HorizonOutOfRange { horizon_s, max_s } => write!(
                f,
                "horizon {} s is beyond the largest supported trace time {max_s} s",
                Seconds(*horizon_s)
            ),
            SimError::InvalidPolicyDelay {
                policy,
                disk,
                level,
                rest_s,
            } => write!(
                f,
                "policy {policy} returned descent delay {rest_s} s for disk {disk} at level \
                 {level}; it must be finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Seconds for an error message: plain below 10¹⁵, scientific above, so a
/// `1e300` horizon does not print 301 digits.
struct Seconds(f64);

impl std::fmt::Display for Seconds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.abs() < 1e15 {
            write!(f, "{}", self.0)
        } else {
            write!(f, "{:e}", self.0)
        }
    }
}

impl SimError {
    /// [`SimError::FaultDiskOutOfRange`] for the first crash or fail-slow
    /// clause of `plan` naming a disk outside a fleet of `fleet` disks.
    pub fn check_fault_disks(plan: &FaultPlan, fleet: usize) -> Result<(), SimError> {
        match plan.disk_out_of_range(fleet) {
            None => Ok(()),
            Some((clause, disk)) => Err(SimError::FaultDiskOutOfRange {
                clause,
                disk,
                fleet,
            }),
        }
    }

    /// [`SimError::HorizonOutOfRange`] for a horizon past
    /// [`MAX_TRACE_TIME_S`] (or not a number).
    pub fn check_horizon(horizon_s: f64) -> Result<(), SimError> {
        if horizon_s <= MAX_TRACE_TIME_S {
            Ok(())
        } else {
            Err(SimError::HorizonOutOfRange {
                horizon_s,
                max_s: MAX_TRACE_TIME_S,
            })
        }
    }

    /// [`SimError::InvalidWindows`] unless `width_s` is finite and
    /// positive and cuts `horizon_s` into at most [`MAX_WINDOWS`] windows.
    pub fn check_windows(width_s: f64, horizon_s: f64) -> Result<(), SimError> {
        let count = if width_s.is_finite() && width_s > 0.0 {
            (horizon_s / width_s).floor() + 1.0
        } else {
            f64::NAN
        };
        if count <= MAX_WINDOWS as f64 {
            return Ok(());
        }
        Err(SimError::InvalidWindows {
            width_s,
            horizon_s,
            // Saturating float-to-int: NaN (a bad width) becomes 0.
            windows: count as u64,
            max: MAX_WINDOWS,
        })
    }
}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::CompletionLogIo(e)
    }
}

impl From<TransitionError> for SimError {
    fn from(e: TransitionError) -> Self {
        SimError::Transition(e)
    }
}

impl From<TraceIoError> for SimError {
    fn from(e: TraceIoError) -> Self {
        SimError::Source(e)
    }
}

/// A live descent deadline: fire time, the idle generation it guards, the
/// ladder level the disk must still be settled at when it fires, and the
/// level to descend to.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    fire: f64,
    generation: u64,
    from_level: u8,
    to_level: u8,
}

/// Per-disk descent timer bookkeeping for lazy scheduling: the engine
/// keeps at most one *live* timer deadline per disk and (almost always) one
/// heap entry, rescheduling on pop instead of piling a heap entry onto
/// every idle period. `scheduled` is the sorted list of this disk's event
/// times currently in the heap — length 1 in steady state; a second entry
/// appears only when an online policy picks a deadline *earlier* than an
/// already-scheduled (now stale) one.
#[derive(Debug, Default, Clone)]
struct TimerState {
    /// The active deadline guarding the next descent step, if any.
    deadline: Option<Deadline>,
    /// Times of this disk's `SpinDownTimer` events in the heap, ascending.
    scheduled: Vec<f64>,
}

/// The cache stack fronting this engine instance, in the deployment shape
/// the configuration asked for. A cache hit serves the request at the hit
/// tier's bandwidth and — deliberately — never touches the disk's actor or
/// timers: hits must not reset the idle clock, because lengthening the
/// disks' idle gaps is precisely what a cache tier contributes to the
/// power model.
#[derive(Debug)]
enum CacheFront {
    /// No cache configured.
    None,
    /// One shared hierarchy in front of the dispatcher (the paper's flat
    /// LRU is a single-tier instance of this).
    Global(CacheHierarchy),
    /// One private slice per *local* disk, each `capacity / global fleet`
    /// of the configured budgets — indexed by actor, so a shard only holds
    /// slices for its own disks.
    PerDisk(Vec<CacheHierarchy>),
}

/// The discrete-event simulator, generic over the arrival feed so every
/// source's hot path stays monomorphised (no per-arrival dynamic
/// dispatch).
pub struct Simulator<'a, S: TraceSource> {
    catalog: &'a FileCatalog,
    /// The streamed arrival cursor.
    source: S,
    cfg: &'a SimConfig,
    file_to_disk: Vec<usize>,
    actors: Vec<DiskActor>,
    timers: Vec<TimerState>,
    events: EventQueue,
    cache: CacheFront,
    /// In exact mode: the live global response collector (disk completions
    /// and cache hits, recorded in completion order). In histogram mode:
    /// only cache hits are recorded here live — the global collector is
    /// *derived* at finish by merging the per-disk collectors in disk
    /// order, the canonical derivation that makes histogram-mode reports
    /// bit-identical at every shard count.
    responses: ResponseStats,
    /// Whether disk completions record into `responses` live (exact mode).
    record_global: bool,
    per_disk_responses: Vec<ResponseStats>,
    /// The completion-log front, when logging is on: canonicalises this
    /// engine's completion stream and forwards it to a terminal sink
    /// (unsharded) or the merger channel (sharded).
    complog: Option<CompletionWriter>,
    policy: Box<dyn PowerPolicy>,
    horizon: f64,
    last_event_time: f64,
    /// Requests consumed from the source so far — the arrival index.
    arrived: usize,
    /// This engine's position in the global fleet (local disk `d` =
    /// global `d * stride + shard`; `0`/`1` unsharded) — completion-log
    /// records carry global disk ids so the merged log is shard-invariant.
    shard: usize,
    stride: usize,
    peak_events: usize,
    peak_disk_queue: usize,
    /// Live fault-injection state; `None` (no fault plan) keeps every hook
    /// on the bit-identical legacy path.
    fault: Option<FaultRuntime>,
    /// The window clock, when windows are on.
    windows: Option<WindowSeries>,
    /// The instant from which the oldest open window may close;
    /// `f64::INFINITY` with windows off, so the drive loop's whole
    /// windows-off cost is one float compare per event.
    next_close: f64,
}

impl<'a> Simulator<'a, InMemorySource<'a>> {
    /// Replay an in-memory trace over exactly the disks the assignment
    /// uses, under the fixed-threshold policy `cfg.threshold` — shorthand
    /// for [`Simulator::run_from_source`] over an [`InMemorySource`] with
    /// `fleet = assignment.disk_slots()`.
    pub fn run(
        catalog: &'a FileCatalog,
        trace: &'a Trace,
        assignment: &Assignment,
        cfg: &'a SimConfig,
    ) -> Result<SimReport, SimError> {
        Self::run_from_source(
            catalog,
            InMemorySource::new(trace),
            assignment,
            cfg,
            assignment.disk_slots(),
        )
    }
}

impl<'a, S: TraceSource + Send> Simulator<'a, S> {
    /// [`Simulator::replay`] under the fixed-threshold policy family
    /// configured in `cfg.threshold`.
    pub fn run_from_source(
        catalog: &'a FileCatalog,
        source: S,
        assignment: &Assignment,
        cfg: &'a SimConfig,
        fleet: usize,
    ) -> Result<SimReport, SimError> {
        Self::replay(catalog, source, assignment, cfg, fleet, |_| {
            Box::new(TimeoutPolicy::from_config(cfg.threshold, &cfg.disk))
        })
    }

    /// Replay the arrivals of `source` — an in-memory cursor, a CSV
    /// reader or a seeded generator — against `fleet` disks holding the
    /// files as `assignment` places them. `fleet` may exceed the
    /// assignment's disk count (the paper's synthetic experiments keep
    /// 100 disks spinning however many the allocator loaded; the empty
    /// ones just go to standby); a fleet of zero disks is accepted only
    /// for an assignment using zero slots.
    ///
    /// `policies(s)` builds shard `s`'s [`PowerPolicy`]; it is called once
    /// per shard, in shard order, on the calling thread, and each instance
    /// sees *global* disk ids, so per-disk-state policies behave
    /// identically at any shard count. (Policies sharing randomness
    /// *across* disks — one RNG stream consulted fleet-wide — see a
    /// different interleaving per shard count and are not
    /// shard-count-invariant.) A policy is consumed by its run: a fresh,
    /// identically seeded instance per run is what makes randomised
    /// policies reproducible.
    ///
    /// With `cfg.shards > 1` (clamped to the fleet) one reader thread
    /// demultiplexes the source into bounded per-shard channels — the
    /// source is read exactly once — and the shards replay concurrently
    /// (see the `shard` module). Histogram-mode metrics, energy totals,
    /// cache statistics, windows and the completion log are bit-identical
    /// at every shard count; exact-mode quantiles are bit-identical while
    /// the global mean may differ by float-summation order.
    ///
    /// A request for a file the assignment does not place fails the run
    /// with [`SimError::UnmappedFile`] when it arrives.
    pub fn replay(
        catalog: &'a FileCatalog,
        source: S,
        assignment: &Assignment,
        cfg: &'a SimConfig,
        fleet: usize,
        mut policies: impl FnMut(usize) -> Box<dyn PowerPolicy>,
    ) -> Result<SimReport, SimError> {
        let required = assignment.disk_slots();
        if fleet < required {
            return Err(SimError::FleetTooSmall { required, fleet });
        }
        let file_to_disk = assignment.item_to_disk(catalog.len());
        let shards = crate::shard::effective_shards(cfg, fleet);
        if shards > 1 {
            return crate::shard::replay_sharded(
                catalog,
                source,
                &file_to_disk,
                cfg,
                fleet,
                shards,
                &mut policies,
            );
        }
        let sim = Self::run_drained(
            catalog,
            source,
            file_to_disk,
            cfg,
            fleet,
            fleet,
            0,
            1,
            policies(0),
            None,
            None,
        )?;
        let t_end = sim.horizon.max(sim.last_event_time);
        sim.finish_at(t_end)
    }
}

impl<'a, S: TraceSource> Simulator<'a, S> {
    /// Construct the simulator, prime it and drive the event loop to
    /// exhaustion, returning the drained simulator *without* finishing it —
    /// the sharded driver needs every shard drained before the common end
    /// time (`horizon.max(`max over shards of [`Self::last_event_time`]`)`)
    /// is known. `file_to_disk` maps file index → actor index (possibly a
    /// shard-local index); `usize::MAX` marks unmapped files. `fleet` is
    /// the number of actors *this* engine instance simulates;
    /// `global_fleet` is the whole fleet (they differ only in a sharded
    /// run) and sizes each per-disk cache slice at `capacity /
    /// global_fleet`, so the slices partition the same configured budget
    /// at every shard count. `shard`/`stride` position this engine's
    /// actors in the global fleet (local `d` = global `d * stride +
    /// shard`; `0`/`1` unsharded) — the fault injector keys its per-disk
    /// RNG streams off global ids so fault draws are shard-invariant.
    /// `log_tx`, when given, routes this shard's completion-log stream to
    /// the merger thread instead of a terminal sink (the sharded path —
    /// the merger owns the sink); `window_tx` likewise sends each closed
    /// window's partial to the sharded run's fold instead of folding it
    /// here. Both are dropped once the drive is over.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_drained(
        catalog: &'a FileCatalog,
        source: S,
        file_to_disk: Vec<usize>,
        cfg: &'a SimConfig,
        fleet: usize,
        global_fleet: usize,
        shard: usize,
        stride: usize,
        policy: Box<dyn PowerPolicy>,
        log_tx: Option<std::sync::mpsc::SyncSender<Vec<Completion>>>,
        window_tx: Option<std::sync::mpsc::Sender<(usize, WindowPartial)>>,
    ) -> Result<Self, SimError> {
        SimError::check_fault_disks(&cfg.faults, global_fleet)?;
        let horizon = source.horizon();
        SimError::check_horizon(horizon)?;
        if let Some(width) = cfg.windows {
            SimError::check_windows(width, horizon)?;
        }
        let cache = match &cfg.cache_hierarchy {
            None => CacheFront::None,
            Some(h) => match h.scope {
                // This engine instance fronts `fleet` of the
                // `global_fleet` disks, so it owns that fraction of the
                // shared budget — the whole budget unsharded.
                CacheScope::Global => {
                    let (num, den) = if global_fleet == 0 {
                        (1, 1)
                    } else {
                        (fleet as u64, global_fleet as u64)
                    };
                    CacheFront::Global(h.build_fraction(num, den))
                }
                CacheScope::PerDisk => {
                    CacheFront::PerDisk((0..fleet).map(|_| h.build(global_fleet as u64)).collect())
                }
            },
        };
        let complog = match log_tx {
            Some(tx) => Some(CompletionWriter::new(CompletionOut::Chan {
                tx,
                batch: Vec::new(),
            })),
            None => CompletionSink::from_mode(&cfg.completion_log)?
                .map(|sink| CompletionWriter::new(CompletionOut::Sink(sink))),
        };
        let mut sim = Simulator {
            catalog,
            source,
            cfg,
            file_to_disk,
            actors: (0..fleet)
                .map(|_| DiskActor::with_discipline(cfg.disk.clone(), cfg.discipline))
                .collect(),
            timers: vec![TimerState::default(); fleet],
            events: EventQueue::new(),
            cache,
            responses: ResponseStats::with_mode(cfg.metrics),
            record_global: cfg.metrics == MetricsMode::Exact,
            per_disk_responses: vec![ResponseStats::with_mode(cfg.metrics); fleet],
            complog,
            policy,
            horizon,
            last_event_time: 0.0,
            arrived: 0,
            shard,
            stride: stride.max(1),
            peak_events: 0,
            peak_disk_queue: 0,
            fault: (!cfg.faults.is_none())
                .then(|| FaultRuntime::new(&cfg.faults, fleet, shard, stride, cfg.metrics)),
            windows: None,
            next_close: f64::INFINITY,
        };
        if let Some(width) = cfg.windows {
            for a in &mut sim.actors {
                a.enable_windows(width, cfg.metrics);
            }
            let out = match window_tx {
                Some(tx) => WindowOut::Chan(tx),
                None => WindowOut::Rows(Vec::new()),
            };
            let series = WindowSeries::new(width, cfg.metrics, shard, out);
            sim.next_close = series.next_close();
            sim.windows = Some(series);
        }
        sim.prime()?;
        sim.drive()?;
        if let Some(w) = &mut sim.complog {
            // Flush the writer (and, sharded, drop the merger channel's
            // sender) before this thread leaves the scope — the merger
            // joins inside the same scope and must see the channel close.
            w.finish()?;
        }
        if let Some(ws) = &mut sim.windows {
            // Likewise drop the window sender so the sharded fold ends.
            ws.detach();
        }
        Ok(sim)
    }

    /// Time of the last processed event (arrival or scheduled).
    pub(crate) fn last_event_time(&self) -> f64 {
        self.last_event_time
    }

    /// The horizon the arrival source declared.
    pub(crate) fn source_horizon(&self) -> f64 {
        self.horizon
    }

    /// Peak completion-log buffering in this engine's writer (0 when
    /// logging is off) — the sharded driver folds these into the merged
    /// [`crate::complog::CompletionLogSummary`].
    pub(crate) fn completion_peak(&self) -> usize {
        self.complog.as_ref().map_or(0, |w| w.peak_buffered())
    }

    /// Schedule the initial idle timers and the fault plan's crashes.
    fn prime(&mut self) -> Result<(), SimError> {
        for disk in 0..self.actors.len() {
            self.arm_timer(disk, 0, 0.0)?;
        }
        // Scheduled fail-stop crashes (crashes beyond the horizon never
        // happen — end effects must not depend on the drain order).
        if let Some(f) = &self.fault {
            let mut crashes = Vec::new();
            for (disk, times) in f.crash_times.iter().enumerate() {
                for &t in times {
                    if t <= self.horizon {
                        crashes.push((t, disk));
                    }
                }
            }
            for (t, disk) in crashes {
                self.events.schedule(t, Event::Crash { disk });
            }
        }
        self.peak_events = self.peak_events.max(self.events.len());
        Ok(())
    }

    /// Consult the policy for `disk` settling at ladder `level` at time
    /// `t` and arm its next descent deadline, unless the policy holds at
    /// this level or the deadline would fall beyond the trace horizon. A
    /// delay that is not a finite, non-negative number of seconds is
    /// [`SimError::InvalidPolicyDelay`].
    fn arm_timer(&mut self, disk: usize, level: u8, t: f64) -> Result<(), SimError> {
        let decision = self.policy.settled(disk, level, t);
        let deepest = self.actors[disk].deepest_level();
        let timer = &mut self.timers[disk];
        let Some(DescentStep { rest_s, to_level }) = decision else {
            timer.deadline = None;
            return Ok(());
        };
        if !(rest_s.is_finite() && rest_s >= 0.0) {
            return Err(SimError::InvalidPolicyDelay {
                policy: self.policy.name(),
                disk: disk * self.stride + self.shard,
                level,
                rest_s,
            });
        }
        // Clamp ladder-oblivious targets (DescentStep::DEEPEST) to the
        // drive's ladder; a step that no longer goes anywhere after
        // clamping — the policy answered at the deepest level — means
        // hold, same as `None`.
        let to_level = to_level.min(deepest);
        if to_level <= level {
            timer.deadline = None;
            return Ok(());
        }
        let fire = t + rest_s;
        if fire > self.horizon {
            timer.deadline = None;
            return Ok(());
        }
        timer.deadline = Some(Deadline {
            fire,
            generation: self.actors[disk].idle_generation,
            from_level: level,
            to_level,
        });
        self.ensure_timer_event(disk, fire);
        Ok(())
    }

    /// Guarantee a `SpinDownTimer` heap entry popping no later than `fire`
    /// for `disk`, reusing an already-scheduled (possibly stale) entry when
    /// one pops early enough — this is what keeps the heap at O(disks).
    fn ensure_timer_event(&mut self, disk: usize, fire: f64) {
        let timer = &mut self.timers[disk];
        if timer.scheduled.first().is_some_and(|&t0| t0 <= fire) {
            return; // an earlier pop will re-check (and reschedule exactly).
        }
        let generation = self.actors[disk].idle_generation;
        self.events
            .schedule(fire, Event::SpinDownTimer { disk, generation });
        let timer = &mut self.timers[disk];
        let at = timer.scheduled.partition_point(|&x| x < fire);
        timer.scheduled.insert(at, fire);
    }

    fn drive(&mut self) -> Result<(), SimError> {
        loop {
            self.peak_events = self.peak_events.max(self.events.len());
            // Take the source head whenever it is due no later than the
            // next scheduled event: arrivals win ties, so same-instant
            // arrivals all queue before any disk event at that instant.
            let arrival_due = match self.source.peek_time()? {
                Some(ta) => match self.events.peek_time() {
                    Some(te) => ta <= te,
                    None => true,
                },
                None => false,
            };
            if arrival_due {
                // Sources that know the request's ordinal in the original
                // (undemuxed) trace report it through `peek_seq`, so
                // sharded runs label requests with the ids an unsharded
                // run assigns — the tie-break key the merged completion
                // log sorts on. Blind sources fall back to the local
                // arrival counter, which equals the global ordinal
                // whenever this engine sees the whole stream.
                let seq = self.source.peek_seq();
                let r = self.source.next_request()?.expect("peeked arrival");
                let req = seq.map_or(self.arrived, |s| s as usize);
                self.arrived += 1;
                self.last_event_time = self.last_event_time.max(r.time);
                if r.time >= self.next_close {
                    self.close_windows(r.time);
                }
                self.on_arrival(r.time, req, r)?;
                continue;
            }
            let Some((t, ev)) = self.events.pop() else {
                break;
            };
            self.last_event_time = self.last_event_time.max(t);
            if t >= self.next_close {
                self.close_windows(t);
            }
            match ev {
                Event::PhaseDone { disk } => self.on_phase_done(t, disk)?,
                Event::SpinDownTimer { disk, generation } => self.on_timer(t, disk, generation)?,
                Event::Crash { disk } => self.on_crash(t, disk)?,
                Event::Repair { disk } => self.on_repair(t, disk)?,
                Event::Retry { disk } => self.on_retry(t, disk)?,
            }
        }
        Ok(())
    }

    /// Close every window a clock at `t` has passed (see
    /// [`crate::windows`]): each disk's open power state is charged up to
    /// the window's end and its slot moves into the window's partial.
    #[cold]
    #[inline(never)]
    fn close_windows(&mut self, t: f64) {
        let Some(ws) = self.windows.as_mut() else {
            return;
        };
        while ws.due(t) {
            let mut partial = ws.partial();
            for a in &mut self.actors {
                a.close_window(true, &mut partial);
            }
            ws.emit(partial);
        }
        self.next_close = ws.next_close();
    }

    /// Close the run's remaining windows at `t_end`: tick every window the
    /// end instant has passed (one at a time, so no disk opens more than
    /// a couple of slots), charge every disk's final interval, then retire
    /// windows through [`last_window`]`(t_end)` — the same count on every
    /// shard. Returns the engine's window output (`None` with windows off
    /// or once already closed).
    fn close_tail_windows(&mut self, t_end: f64) -> Option<WindowOut> {
        self.close_windows(t_end);
        let mut ws = self.windows.take()?;
        self.next_close = f64::INFINITY;
        for a in &mut self.actors {
            a.charge_windows(t_end);
        }
        let last = last_window(ws.width_s(), t_end);
        while ws.front() <= last {
            let mut partial = ws.partial();
            for a in &mut self.actors {
                a.close_window(false, &mut partial);
            }
            ws.emit(partial);
        }
        Some(ws.into_out())
    }

    /// Sharded finish, step one: close the tail windows at the common
    /// `t_end` and hand back their partials for the sharded fold.
    pub(crate) fn take_tail_partials(&mut self, t_end: f64) -> Vec<WindowPartial> {
        match self.close_tail_windows(t_end) {
            Some(WindowOut::Held(partials)) => partials,
            None => Vec::new(),
            Some(_) => unreachable!("sharded engines hold their tail partials"),
        }
    }

    /// Most window slots any of this engine's disks held open at once.
    #[cfg(test)]
    pub(crate) fn peak_open_window_slots(&self) -> usize {
        self.actors
            .iter()
            .map(DiskActor::peak_open_window_slots)
            .max()
            .unwrap_or(0)
    }

    fn on_arrival(&mut self, t: f64, req: usize, r: Request) -> Result<(), SimError> {
        let disk = match self.file_to_disk.get(r.file.index()).copied() {
            Some(d) if d != usize::MAX => d,
            _ => return Err(SimError::UnmappedFile { file: r.file }),
        };
        if let Some(f) = &mut self.fault {
            f.arrivals += 1;
        }
        let size = self.catalog.file(r.file).size_bytes;
        // A hit returns before the policy or actor hear about the request:
        // served without disk involvement, idle clock untouched.
        match &mut self.cache {
            CacheFront::None => {}
            CacheFront::Global(hierarchy) => {
                if let Some(latency) = hierarchy.access(r.file, size) {
                    // Hits are attributed to the disk holding the file —
                    // the same recording shape as per-disk slices and
                    // disk completions — so the histogram-mode global
                    // statistics (derived from the per-disk collectors
                    // in disk order) are shard-invariant.
                    if self.record_global {
                        self.responses.record(latency);
                    }
                    self.per_disk_responses[disk].record(latency);
                    self.actors[disk].window_completion(t, latency);
                    if let Some(f) = &mut self.fault {
                        f.completed += 1;
                    }
                    return Ok(());
                }
            }
            CacheFront::PerDisk(slices) => {
                if let Some(latency) = slices[disk].access(r.file, size) {
                    // Per-disk hits belong to the disk's slice: they record
                    // into the per-disk collector (which the histogram-mode
                    // finish and the sharded merge both derive the global
                    // statistics from), plus the live global collector in
                    // exact mode — mirroring disk completions exactly.
                    if self.record_global {
                        self.responses.record(latency);
                    }
                    self.per_disk_responses[disk].record(latency);
                    self.actors[disk].window_completion(t, latency);
                    if let Some(f) = &mut self.fault {
                        f.completed += 1;
                    }
                    return Ok(());
                }
            }
        }
        // Admission control: past the backlog watermark the request is
        // shed (counted, never queued) so a degraded fleet saturates
        // gracefully instead of queueing unboundedly.
        if let Some(f) = &mut self.fault {
            if f.sheds(self.actors[disk].queue_len()) {
                f.shed += 1;
                self.actors[disk].window_shed(t);
                return Ok(());
            }
        }
        self.policy.request_arrived(disk, t);
        self.actors[disk].enqueue(req, size, t, r.file.index() as u64);
        self.peak_disk_queue = self.peak_disk_queue.max(self.actors[disk].queue_len());
        self.actors[disk].window_queue_observation(t);
        self.kick(t, disk)
    }

    /// Make progress on a disk that has (or may have) pending work.
    fn kick(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        if let Some(f) = &self.fault {
            // An offline disk neither serves nor wakes; its backlog waits
            // for the repair.
            if f.down[disk] {
                return Ok(());
            }
        }
        match self.actors[disk].phase() {
            Phase::Idle => {
                if let Some(done) = self.actors[disk].serve_next(t)? {
                    // Fail-slow windows stretch this dispatch's service
                    // time; the no-fault path passes `done` through with
                    // zero extra float operations.
                    let done = match &mut self.fault {
                        Some(f) => match f.failslow_factor(disk, t) {
                            Some(factor) => {
                                f.current_scaled[disk] = true;
                                t + (done - t) * factor
                            }
                            None => {
                                f.current_scaled[disk] = false;
                                done
                            }
                        },
                        None => done,
                    };
                    self.events.schedule(done, Event::PhaseDone { disk });
                }
            }
            Phase::Asleep(_) => {
                // A failed spin-up holds the disk down for its backoff;
                // the Retry event scheduled at the hold expiry re-kicks.
                if let Some(f) = &self.fault {
                    if t < f.wake_hold_until[disk] {
                        return Ok(());
                    }
                }
                // Wake directly from whatever level the disk rests at.
                let done = self.actors[disk].begin_spin_up(t)?;
                self.events.schedule(done, Event::PhaseDone { disk });
            }
            // Busy: the queue drains at service completion.
            // Waking / Descending: the transition completion handler will
            // look at the queue.
            Phase::Busy | Phase::Waking(_) | Phase::Descending(_) => {}
        }
        Ok(())
    }

    fn on_phase_done(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        match self.actors[disk].phase() {
            Phase::Busy => {
                let arrival = self.actors[disk]
                    .current_arrival()
                    .expect("engine dispatch always goes through serve_next");
                if self.fault.is_some() {
                    // Retry metadata must be read before the completion
                    // clears the in-flight request.
                    let bytes = self.actors[disk].current_bytes();
                    let pos = self.actors[disk].current_pos();
                    let req = self.actors[disk].complete_service(t)?;
                    let f = self.fault.as_mut().expect("checked above");
                    if f.draw_transient(disk) {
                        // Transient I/O error: the attempt's time and
                        // energy are spent, the result is discarded. The
                        // request re-queues after backoff — or is dropped
                        // once its retry budget runs out.
                        let n = {
                            let attempts = f.attempts[disk].entry(req).or_insert(0);
                            *attempts += 1;
                            *attempts
                        };
                        if n > f.plan().retry_budget {
                            f.attempts[disk].remove(&req);
                            f.failed += 1;
                            self.actors[disk].window_failed(t);
                        } else {
                            f.retried += 1;
                            self.actors[disk].window_retried(t);
                            let fire = t + f.plan().backoff_s(n - 1);
                            f.pending_retries[disk].push(PendingRetry {
                                fire,
                                req,
                                bytes,
                                arrival,
                                pos,
                            });
                            self.events.schedule(fire, Event::Retry { disk });
                        }
                    } else {
                        let degraded = f.is_degraded(disk, req, arrival);
                        f.attempts[disk].remove(&req);
                        f.completed += 1;
                        if degraded {
                            f.degraded[disk].record(t - arrival);
                        }
                        if self.record_global {
                            self.responses.record(t - arrival);
                        }
                        self.per_disk_responses[disk].record(t - arrival);
                        self.actors[disk].window_completion(t, t - arrival);
                        if let Some(w) = self.complog.as_mut() {
                            w.push(Completion {
                                req,
                                disk: disk * self.stride + self.shard,
                                time_s: t,
                            })?;
                        }
                    }
                    if self.fault.as_ref().expect("checked above").pending_crash[disk] {
                        return self.apply_crash(t, disk);
                    }
                } else {
                    let req = self.actors[disk].complete_service(t)?;
                    if self.record_global {
                        self.responses.record(t - arrival);
                    }
                    self.per_disk_responses[disk].record(t - arrival);
                    self.actors[disk].window_completion(t, t - arrival);
                    if let Some(w) = self.complog.as_mut() {
                        w.push(Completion {
                            req,
                            disk: disk * self.stride + self.shard,
                            time_s: t,
                        })?;
                    }
                }
                if self.actors[disk].queue_is_empty() {
                    self.arm_timer(disk, 0, t)?;
                } else {
                    self.kick(t, disk)?;
                }
            }
            Phase::Waking(_) => {
                if self.fault.is_some() {
                    if self.fault.as_ref().expect("checked above").pending_crash[disk] {
                        // The crash that landed mid-wake applies at this
                        // boundary: the spin-up's energy is charged, then
                        // the disk goes offline.
                        self.actors[disk].complete_spin_up(t)?;
                        return self.apply_crash(t, disk);
                    }
                    let f = self.fault.as_mut().expect("checked above");
                    if f.draw_wakefail(disk) {
                        // Failed spin-up: the attempt's transition energy
                        // is charged, the drive falls back asleep, and the
                        // next attempt waits out an exponential backoff.
                        // Past the retry budget the drive is declared
                        // fail-stop dead until repair.
                        f.wake_failures += 1;
                        f.wake_attempts[disk] += 1;
                        let n = f.wake_attempts[disk];
                        if n > f.plan().retry_budget {
                            self.actors[disk].complete_spin_up(t)?;
                            return self.apply_crash(t, disk);
                        }
                        let hold = t + f.plan().backoff_s(n - 1);
                        f.wake_hold_until[disk] = hold;
                        self.actors[disk].fail_spin_up(t)?;
                        self.events.schedule(hold, Event::Retry { disk });
                        return Ok(());
                    }
                    f.wake_attempts[disk] = 0;
                }
                self.actors[disk].complete_spin_up(t)?;
                if self.actors[disk].queue_is_empty() {
                    // Rare: the waiting request was served from elsewhere —
                    // impossible today, but arm the timer for robustness.
                    self.arm_timer(disk, 0, t)?;
                } else {
                    self.kick(t, disk)?;
                }
            }
            Phase::Descending(_) => {
                let level = self.actors[disk].complete_descend(t)?;
                if let Some(f) = &self.fault {
                    if f.pending_crash[disk] {
                        // Settled now: the deferred crash applies (and
                        // continues the park to the deepest level).
                        return self.apply_crash(t, disk);
                    }
                    if f.down[disk] {
                        // A crashed disk parks all the way down regardless
                        // of its backlog, then waits for repair.
                        let deepest = self.actors[disk].deepest_level();
                        if level < deepest {
                            let done = self.actors[disk].begin_descend(t, deepest)?;
                            self.events.schedule(done, Event::PhaseDone { disk });
                        } else if f.pending_repair[disk] {
                            return self.apply_repair(t, disk);
                        }
                        return Ok(());
                    }
                }
                if !self.actors[disk].queue_is_empty() {
                    // Work arrived mid-descent; wake from the level just
                    // reached (transitions cannot be aborted).
                    self.kick(t, disk)?;
                } else if level < self.actors[disk].descent_target() {
                    // The in-flight descent has deeper to go: chain the
                    // next entry transition immediately.
                    let target = self.actors[disk].descent_target();
                    let done = self.actors[disk].begin_descend(t, target)?;
                    self.events.schedule(done, Event::PhaseDone { disk });
                } else {
                    // Settled at the descent's target: ask the policy for
                    // the next step (multi-state policies may rest here
                    // and descend further later).
                    self.arm_timer(disk, level, t)?;
                }
            }
            other => unreachable!("PhaseDone in phase {other:?}"),
        }
        Ok(())
    }

    fn on_timer(&mut self, t: f64, disk: usize, _generation: u64) -> Result<(), SimError> {
        // Retire this heap entry (per-disk entries pop in ascending time
        // order, so it is always the head of the sorted list).
        let timer = &mut self.timers[disk];
        debug_assert!(timer.scheduled.first().is_some_and(|&t0| t0 == t));
        if !timer.scheduled.is_empty() {
            timer.scheduled.remove(0);
        }
        let Some(deadline) = timer.deadline else {
            return Ok(()); // no live deadline: stale entry.
        };
        let actor = &mut self.actors[disk];
        if actor.phase().settled_level() != Some(deadline.from_level)
            || actor.idle_generation != deadline.generation
            || !actor.queue_is_empty()
        {
            // The rest period this deadline guarded is over.
            self.timers[disk].deadline = None;
            return Ok(());
        }
        if deadline.fire > t {
            // Popped a stale (early) entry while the live deadline is still
            // ahead: reschedule exactly at the deadline.
            self.ensure_timer_event(disk, deadline.fire);
            return Ok(());
        }
        self.timers[disk].deadline = None;
        self.policy.descent_started(disk, t, deadline.to_level);
        let done = self.actors[disk].begin_descend(t, deadline.to_level)?;
        self.events.schedule(done, Event::PhaseDone { disk });
        Ok(())
    }

    /// A scheduled fail-stop crash fires. Settled disks go offline now;
    /// a crash landing mid-phase (service, wake or descent in flight) is
    /// deferred to the next phase boundary — transitions cannot be
    /// aborted, and the in-flight attempt's energy stays charged.
    fn on_crash(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let phase = self.actors[disk].phase();
        let f = self
            .fault
            .as_mut()
            .expect("Crash event without a fault plan");
        if f.down[disk] {
            return Ok(()); // already offline; a second crash is moot
        }
        match phase {
            Phase::Idle | Phase::Asleep(_) => self.apply_crash(t, disk),
            Phase::Busy | Phase::Waking(_) | Phase::Descending(_) => {
                f.pending_crash[disk] = true;
                Ok(())
            }
        }
    }

    /// Take `disk` offline at `t` (it is settled: idle or asleep). The
    /// disk's cache slice is flushed — it will return cold — and from
    /// idle it parks to the deepest sleep level (the descent chain in
    /// `on_phase_done` keeps going while the disk is down). Repair is
    /// scheduled `mttr` later unless that falls beyond the horizon, in
    /// which case the disk stays down to the end of the run.
    fn apply_crash(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let f = self.fault.as_mut().expect("crash without a fault plan");
        f.pending_crash[disk] = false;
        if f.down[disk] {
            return Ok(());
        }
        f.down[disk] = true;
        f.down_since[disk] = t;
        f.crashes += 1;
        f.wake_attempts[disk] = 0;
        f.wake_hold_until[disk] = 0.0;
        let repair = t + f.plan().mttr_s;
        self.timers[disk].deadline = None;
        if let CacheFront::PerDisk(slices) = &mut self.cache {
            slices[disk].flush();
        }
        if self.actors[disk].phase() == Phase::Idle {
            let deepest = self.actors[disk].deepest_level();
            if deepest > 0 {
                let done = self.actors[disk].begin_descend(t, deepest)?;
                self.events.schedule(done, Event::PhaseDone { disk });
            }
        }
        if repair <= self.horizon {
            self.events.schedule(repair, Event::Repair { disk });
        }
        Ok(())
    }

    /// A repair completes. A disk still descending defers to the settle
    /// point; otherwise it comes back cold — parked at whatever sleep
    /// level it reached — and any backlog wakes it immediately.
    fn on_repair(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let f = self
            .fault
            .as_mut()
            .expect("Repair event without a fault plan");
        if !f.down[disk] {
            return Ok(());
        }
        if matches!(self.actors[disk].phase(), Phase::Descending(_)) {
            f.pending_repair[disk] = true;
            return Ok(());
        }
        self.apply_repair(t, disk)
    }

    /// Bring `disk` back online at `t` (it is settled, cold).
    fn apply_repair(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let f = self.fault.as_mut().expect("repair without a fault plan");
        f.pending_repair[disk] = false;
        f.down[disk] = false;
        f.downtime[disk] += (t - f.down_since[disk]).max(0.0);
        f.last_repair[disk] = t;
        if !self.actors[disk].queue_is_empty() {
            self.kick(t, disk)
        } else {
            match self.actors[disk].phase().settled_level() {
                Some(level) => self.arm_timer(disk, level, t),
                None => Ok(()),
            }
        }
    }

    /// A retry backoff expires: due transient retries re-enter the queue
    /// with their original arrival stamps, and a held wake attempt is
    /// allowed again (the kick re-tries the spin-up).
    fn on_retry(&mut self, t: f64, disk: usize) -> Result<(), SimError> {
        let f = self
            .fault
            .as_mut()
            .expect("Retry event without a fault plan");
        let pending = &mut f.pending_retries[disk];
        let mut due = Vec::new();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].fire <= t {
                due.push(pending.remove(i));
            } else {
                i += 1;
            }
        }
        for r in &due {
            self.policy.request_arrived(disk, t);
            self.actors[disk].enqueue(r.req, r.bytes, r.arrival, r.pos);
        }
        if !due.is_empty() {
            self.peak_disk_queue = self.peak_disk_queue.max(self.actors[disk].queue_len());
            self.actors[disk].window_queue_observation(t);
        }
        self.kick(t, disk)
    }

    /// Integrate energy to `t_end` and assemble the report. In histogram
    /// mode the global response collector is derived here — cache-hit
    /// collector first, then the per-disk collectors merged in ascending
    /// disk order — so the global statistics are a pure function of the
    /// per-disk trajectories, identical however the fleet was sharded.
    pub(crate) fn finish_at(mut self, t_end: f64) -> Result<SimReport, SimError> {
        if !self.record_global {
            for per_disk in &self.per_disk_responses {
                self.responses.merge(per_disk);
            }
        }
        let availability = self.fault.take().map(|f| {
            let queued: u64 = self.actors.iter().map(|a| a.queue_len() as u64).sum();
            let stats = f.into_stats(t_end, queued, self.actors.len(), self.cfg.metrics);
            debug_assert!(
                stats.conservation_holds(),
                "fault conservation violated: {} arrivals vs {} completed + {} shed + {} failed + {} in-flight",
                stats.arrivals,
                stats.completed,
                stats.shed,
                stats.failed,
                stats.in_flight
            );
            stats
        });
        // Unsharded, the rows were folded as windows closed; a sharded
        // engine's tail was already taken by the sharded merge.
        let windows = match self.close_tail_windows(t_end) {
            Some(WindowOut::Rows(rows)) => Some(WindowedReport {
                width_s: self.cfg.windows.expect("rows imply windows"),
                faulted: availability.is_some(),
                rows,
            }),
            _ => None,
        };
        let mut fleet = spindown_disk::energy::EnergyBreakdown::default();
        let mut per_disk = Vec::with_capacity(self.actors.len());
        let mut per_disk_served = Vec::with_capacity(self.actors.len());
        let mut spin_downs = 0;
        let mut spin_ups = 0;
        let disks = self.actors.len();
        for actor in self.actors {
            spin_downs += actor.spin_downs();
            spin_ups += actor.spin_ups();
            per_disk_served.push(actor.served());
            let b = actor.finish(t_end)?;
            fleet.merge(&b);
            per_disk.push(b);
        }
        let (cache, cache_tiers, per_disk_cache_tiers) = match self.cache {
            CacheFront::None => (None, None, None),
            CacheFront::Global(h) => (Some(h.aggregate_stats()), Some(h.tier_stats()), None),
            CacheFront::PerDisk(slices) => {
                // Keep the per-disk tier rows (local actor order here —
                // the sharded merge reassembles ascending global-disk
                // order) and fold the aggregates over the slices in
                // ascending order: the same deterministic fold
                // discipline as energy, matching the sharded merge's
                // absorption bit for bit.
                let depth = self
                    .cfg
                    .cache_hierarchy
                    .as_ref()
                    .map_or(0, |h| h.tiers.len());
                let rows: Vec<Vec<crate::cache::CacheStats>> =
                    slices.iter().map(|s| s.tier_stats()).collect();
                let mut agg = crate::cache::CacheStats::default();
                let mut tiers = vec![crate::cache::CacheStats::default(); depth];
                for slice in &slices {
                    agg.absorb(&slice.aggregate_stats());
                    for (t, s) in tiers.iter_mut().zip(slice.tier_stats()) {
                        t.absorb(&s);
                    }
                }
                (Some(agg), Some(tiers), Some(rows))
            }
        };
        let (completions, completion_log) = match self.complog.as_mut() {
            None => (None, None),
            Some(w) => {
                let peak = w.peak_buffered();
                match w.take_sink() {
                    // Unsharded (or S=1): this engine owns the terminal
                    // sink; fold it into the report here.
                    Some(sink) => {
                        let (completions, summary) = sink.finish(peak)?;
                        (completions, Some(summary))
                    }
                    // Sharded: the merger thread owns the sink and the
                    // report merge attaches the merged log fields.
                    None => (None, None),
                }
            }
        };
        Ok(SimReport {
            sim_time_s: t_end,
            energy: fleet,
            per_disk_energy: per_disk,
            responses: self.responses,
            per_disk_responses: self.per_disk_responses,
            completions,
            completion_log,
            spin_downs,
            spin_ups,
            cache,
            cache_tiers,
            per_disk_cache_tiers,
            disks,
            per_disk_served,
            per_shard_event_peaks: vec![self.peak_events],
            peak_disk_queue: self.peak_disk_queue,
            availability,
            windows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThresholdPolicy;
    use crate::hierarchy::{CacheHierarchyConfig, CachePolicyChoice, CacheTierConfig};
    use spindown_disk::PowerState;
    use spindown_packing::{Assignment, DiskBin};
    use spindown_workload::trace::Request;
    use spindown_workload::MB;

    /// Catalog of `n` equally popular files of `size` bytes, one per disk or
    /// per explicit layout.
    pub(super) fn catalog(n: usize, size: u64) -> FileCatalog {
        FileCatalog::from_parts(vec![size; n], vec![1.0 / n as f64; n])
    }

    /// Assignment placing file i on disk `layout[i]`.
    pub(super) fn assignment(layout: &[usize]) -> Assignment {
        let disks = layout.iter().copied().max().map_or(0, |m| m + 1);
        let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
        for (file, &d) in layout.iter().enumerate() {
            bins[d].items.push(file);
        }
        Assignment { disks: bins }
    }

    pub(super) fn trace(reqs: &[(f64, u32)], horizon: f64) -> Trace {
        Trace::new(
            reqs.iter()
                .map(|&(time, f)| Request {
                    time,
                    file: FileId(f),
                })
                .collect(),
            horizon,
        )
    }

    fn service_time_72mb() -> f64 {
        1.0 + 0.0085 + 0.00416 // 72 MB at 72 MB/s + positioning
    }

    #[test]
    fn single_request_response_is_service_time() {
        let cat = catalog(1, 72 * MB);
        let tr = trace(&[(5.0, 0)], 100.0);
        let cfg = SimConfig::paper_default();
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert_eq!(report.responses.len(), 1);
        assert!((report.response_quantile(1.0) - service_time_72mb()).abs() < 1e-9);
    }

    /// The golden trace fixture (three disks, two files each), as the
    /// repository's golden tests replay it.
    fn golden() -> (FileCatalog, Trace, Assignment) {
        let sizes = vec![72 * MB, 8 * MB, 300 * MB, 2 * MB, 100 * MB, 50 * MB];
        let cat = FileCatalog::from_parts(sizes, vec![1.0 / 6.0; 6]);
        let csv = include_str!("../../../tests/fixtures/golden_trace.csv");
        let trace = Trace::read_csv(csv.as_bytes(), Some(600.0)).unwrap();
        (cat, trace, assignment(&[0, 0, 1, 1, 2, 2]))
    }

    /// Drain a run and report the most window slots any disk held open.
    fn peak_slots<S: TraceSource>(
        cat: &FileCatalog,
        source: S,
        layout: &Assignment,
        cfg: &SimConfig,
    ) -> usize {
        let fleet = layout.disk_slots();
        let sim = Simulator::run_drained(
            cat,
            source,
            layout.item_to_disk(cat.len()),
            cfg,
            fleet,
            fleet,
            0,
            1,
            Box::new(TimeoutPolicy::from_config(cfg.threshold, &cfg.disk)),
            None,
            None,
        )
        .unwrap();
        let peak = sim.peak_open_window_slots();
        let t_end = sim.source_horizon().max(sim.last_event_time());
        let report = sim.finish_at(t_end).unwrap();
        assert!(report.windows.is_some_and(|w| !w.rows.is_empty()));
        peak
    }

    #[test]
    fn windowed_actors_hold_at_most_two_open_slots() {
        let (cat, trace, layout) = golden();
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Fixed(20.0))
            .with_metrics(MetricsMode::Histogram)
            .with_windows(60.0);
        let peak = peak_slots(&cat, InMemorySource::new(&trace), &layout, &cfg);
        assert!((1..=2).contains(&peak), "golden trace: {peak} open slots");

        let cat = catalog(64, 8 * MB);
        let layout = assignment(&(0..64).map(|f| f % 16).collect::<Vec<_>>());
        let curve = spindown_workload::RateCurve::diurnal(2.0, 1.5, 200.0);
        let source = spindown_workload::SyntheticSource::non_stationary(&cat, curve, 600.0, 0xD1A);
        let cfg = SimConfig::paper_default()
            .with_metrics(MetricsMode::Histogram)
            .with_windows(30.0);
        let peak = peak_slots(&cat, source, &layout, &cfg);
        assert!((1..=2).contains(&peak), "diurnal: {peak} open slots");
    }

    #[test]
    fn fifo_queueing_delays_second_request() {
        let cat = catalog(1, 72 * MB);
        let tr = trace(&[(0.0, 0), (0.0, 0)], 100.0);
        let cfg = SimConfig::paper_default();
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert_eq!(report.responses.len(), 2);
        let s = service_time_72mb();
        assert!((report.response_quantile(0.0) - s).abs() < 1e-9);
        assert!((report.response_quantile(1.0) - 2.0 * s).abs() < 1e-9);
    }

    #[test]
    fn standby_disk_pays_spin_up_penalty() {
        let cat = catalog(1, 72 * MB);
        // Threshold 10 s: disk idles from t=0, spins down 10→20, request at
        // t=100 finds standby → 15 s spin-up + service.
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        let tr = trace(&[(100.0, 0)], 200.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        // Two spin-downs: the initial idle period and the post-service one
        // (threshold 10 s, horizon 200 s leaves room for the second).
        assert_eq!(report.spin_downs, 2);
        assert_eq!(report.spin_ups, 1);
        assert!(
            (report.response_quantile(1.0) - (15.0 + service_time_72mb())).abs() < 1e-9,
            "response {}",
            report.response_quantile(1.0)
        );
    }

    #[test]
    fn request_mid_spin_down_waits_for_both_transitions() {
        let cat = catalog(1, 72 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        // Spin-down runs 10→20; request at t=12 waits 8 s + 15 s + service.
        let tr = trace(&[(12.0, 0)], 200.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let expected = 8.0 + 15.0 + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
    }

    #[test]
    fn never_policy_has_no_spin_downs() {
        let cat = catalog(2, 10 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let tr = trace(&[(1.0, 0), (500.0, 1)], 1000.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        assert_eq!(report.spin_downs, 0);
        assert_eq!(report.spin_ups, 0);
        // Energy ≈ idle for the whole window per disk (service negligible
        // but strictly above pure idle).
        let idle_only = report.always_on_idle_joules(9.3);
        let e = report.energy.total_joules();
        assert!(e >= idle_only * 0.99 && e < idle_only * 1.05);
    }

    #[test]
    fn energy_time_conservation() {
        let cat = catalog(3, 50 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(30.0));
        let tr = trace(&[(0.0, 0), (10.0, 1), (700.0, 2), (800.0, 0)], 1000.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1, 2]), &cfg).unwrap();
        // Σ per-state seconds = disks × sim_time
        let expect = report.sim_time_s * report.disks as f64;
        assert!(
            (report.energy.total_seconds() - expect).abs() < 1e-6,
            "covered {} vs {}",
            report.energy.total_seconds(),
            expect
        );
        assert_eq!(report.responses.len(), 4);
    }

    #[test]
    fn spin_down_saves_energy_on_long_idle() {
        let cat = catalog(1, 10 * MB);
        let tr = trace(&[(1.0, 0)], 7200.0);
        let sleepy = SimConfig::paper_default().with_threshold(ThresholdPolicy::BreakEven);
        let awake = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let e_sleepy = Simulator::run(&cat, &tr, &assignment(&[0]), &sleepy)
            .unwrap()
            .energy
            .total_joules();
        let e_awake = Simulator::run(&cat, &tr, &assignment(&[0]), &awake)
            .unwrap()
            .energy
            .total_joules();
        assert!(
            e_sleepy < 0.25 * e_awake,
            "sleepy {e_sleepy} vs awake {e_awake}"
        );
    }

    #[test]
    fn cache_hit_skips_the_disk() {
        let cat = catalog(1, 100 * MB);
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Never)
            .with_cache_hierarchy(Some(CacheHierarchyConfig::single(CacheTierConfig::dram(
                1_000 * MB,
                CachePolicyChoice::Lru,
            ))));
        let tr = trace(&[(0.0, 0), (50.0, 0)], 100.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let stats = report.cache.unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // one slow (disk) + one fast (cache) response
        let [lo, hi] = report.response_quantiles(&[0.0, 1.0])[..] else {
            unreachable!("two quantiles requested")
        };
        assert!(lo < 0.2); // 100 MB at 1 GB/s
        assert!(hi > 1.0);
        // disk served exactly one request
        assert_eq!(report.responses.len(), 2);
    }

    #[test]
    fn fleet_larger_than_assignment_spins_down_empties() {
        let cat = catalog(1, 10 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        let tr = trace(&[(1.0, 0)], 500.0);
        let report =
            Simulator::run_from_source(&cat, InMemorySource::new(&tr), &assignment(&[0]), &cfg, 5)
                .unwrap();
        assert_eq!(report.disks, 5);
        // all 5 disks eventually spin down (the loaded one after its service)
        assert_eq!(report.spin_downs, 5);
        assert_eq!(report.spin_ups, 0);
        // standby time dominates
        assert!(report.fleet_seconds_in(PowerState::Standby) > 4.0 * 400.0);
    }

    /// Run `f` on its own thread and fail the test if it takes longer than
    /// a minute — a sharded run that loses an error must not hang.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run returned")
    }

    #[test]
    fn unmapped_file_is_an_error() {
        let cat = catalog(2, MB);
        let tr = trace(&[(0.0, 1)], 10.0);
        let cfg = SimConfig::paper_default();
        // assignment only covers file 0 — file 1 unmapped
        let a = Assignment {
            disks: vec![DiskBin {
                items: vec![0],
                total_s: 0.0,
                total_l: 0.0,
            }],
        };
        let err = Simulator::run(&cat, &tr, &a, &cfg).unwrap_err();
        assert!(matches!(err, SimError::UnmappedFile { file } if file == FileId(1)));

        // Files 0–2 sit on disks 0–2; files 3–5 are unplaced. The error
        // names the first unplaced file in trace order (file 4, not the
        // lower-numbered file 3 behind it), solo and through shard 0 of
        // the demux alike, and the sharded run returns instead of waiting
        // on the failed shard.
        let reqs = [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 4), (4.0, 3), (5.0, 1)];
        for shards in [1, 3] {
            let err = within_a_minute(move || {
                let cat = catalog(6, MB);
                let tr = trace(&reqs, 100.0);
                let cfg = SimConfig::paper_default().with_shards(shards);
                Simulator::run(&cat, &tr, &assignment(&[0, 1, 2]), &cfg).unwrap_err()
            });
            assert!(
                matches!(err, SimError::UnmappedFile { file } if file == FileId(4)),
                "S={shards}: {err:?}"
            );
        }
    }

    #[test]
    fn fleet_too_small_is_an_error() {
        let cat = catalog(2, MB);
        let tr = trace(&[], 1.0);
        let cfg = SimConfig::paper_default();
        let a = assignment(&[0, 1]);
        let err =
            Simulator::run_from_source(&cat, InMemorySource::new(&tr), &a, &cfg, 1).unwrap_err();
        assert!(matches!(
            err,
            SimError::FleetTooSmall {
                required: 2,
                fleet: 1
            }
        ));
    }

    #[test]
    fn empty_trace_runs_to_horizon() {
        let cat = catalog(1, MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let tr = trace(&[], 250.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert_eq!(report.sim_time_s, 250.0);
        assert!((report.energy.total_joules() - 9.3 * 250.0).abs() < 1e-6);
    }

    #[test]
    fn per_disk_served_and_utilisation() {
        let cat = catalog(2, 72 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        // three requests to disk 0's file, none to disk 1's
        let tr = trace(&[(0.0, 0), (10.0, 0), (20.0, 0)], 100.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        assert_eq!(report.per_disk_served, vec![3, 0]);
        assert_eq!(report.active_disks(), 1);
        // disk 0: 3 × (seek + rotation + 1 s transfer) over 100 s ≈ 3%
        let u0 = report.disk_utilisation(0);
        assert!(
            (u0 - 3.0 * service_time_72mb() / 100.0).abs() < 1e-6,
            "{u0}"
        );
        assert_eq!(report.disk_utilisation(1), 0.0);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let cat = catalog(4, 30 * MB);
        let tr = Trace::poisson(&cat, 1.0, 300.0, 5);
        let cfg = SimConfig::paper_default();
        let a = assignment(&[0, 1, 2, 3]);
        let r1 = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        let r2 = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        assert_eq!(r1.energy.total_joules(), r2.energy.total_joules());
        assert_eq!(r1.responses, r2.responses);
    }

    /// Reports that must agree bit for bit.
    fn assert_reports_identical(a: &SimReport, b: &SimReport) {
        assert_eq!(a.sim_time_s, b.sim_time_s);
        assert_eq!(a.energy.total_joules(), b.energy.total_joules());
        assert_eq!(a.energy.total_seconds(), b.energy.total_seconds());
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.spin_downs, b.spin_downs);
        assert_eq!(a.spin_ups, b.spin_ups);
        assert_eq!(a.disks, b.disks);
        assert_eq!(a.per_disk_served, b.per_disk_served);
        assert_eq!(a.per_disk_responses, b.per_disk_responses);
        for (x, y) in a.per_disk_energy.iter().zip(&b.per_disk_energy) {
            assert_eq!(x.total_joules(), y.total_joules());
        }
    }

    #[test]
    fn streamed_peak_queue_is_fleet_bound_not_trace_bound() {
        let cat = catalog(4, MB);
        let tr = Trace::poisson(&cat, 50.0, 400.0, 3);
        assert!(tr.len() > 10_000, "want a big trace, got {}", tr.len());
        let a = assignment(&[0, 1, 2, 3]);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::BreakEven);
        let streamed = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        // Per disk: at most one PhaseDone plus a handful of pending (stale)
        // spin-down timers — nowhere near the trace length.
        assert!(
            streamed.peak_event_queue_max() <= 8 * streamed.disks,
            "streamed peak {} for {} disks",
            streamed.peak_event_queue_max(),
            streamed.disks
        );
        assert_eq!(streamed.per_shard_event_peaks.len(), 1, "one event loop");
    }

    #[test]
    fn zero_fleet_with_empty_assignment_is_explicit() {
        let cat = catalog(1, MB);
        let tr = Trace::new(vec![], 100.0);
        let cfg = SimConfig::paper_default();
        let empty = Assignment { disks: vec![] };
        let report =
            Simulator::run_from_source(&cat, InMemorySource::new(&tr), &empty, &cfg, 0).unwrap();
        assert_eq!(report.disks, 0);
        assert_eq!(report.energy.total_joules(), 0.0);
        assert_eq!(report.energy.total_seconds(), 0.0);
        assert_eq!(report.sim_time_s, 100.0);
        // `run` derives the fleet from the assignment: zero slots → zero
        // disks, not a silent single-actor fleet.
        let via_run = Simulator::run(&cat, &tr, &empty, &cfg).unwrap();
        assert_eq!(via_run.disks, 0);
    }

    #[test]
    fn zero_fleet_with_loaded_assignment_is_an_error() {
        let cat = catalog(1, MB);
        let tr = Trace::new(vec![], 100.0);
        let cfg = SimConfig::paper_default();
        let a = assignment(&[0]);
        let err =
            Simulator::run_from_source(&cat, InMemorySource::new(&tr), &a, &cfg, 0).unwrap_err();
        assert!(matches!(
            err,
            SimError::FleetTooSmall {
                required: 1,
                fleet: 0
            }
        ));
    }

    /// A policy that spins down instantly on every idle start and counts
    /// the engine's callbacks.
    struct EagerCounter {
        idles: u64,
        arrivals: u64,
        downs: u64,
    }

    impl crate::policy::PowerPolicy for EagerCounter {
        fn name(&self) -> String {
            "eager_counter".into()
        }
        fn settled(
            &mut self,
            _disk: usize,
            level: u8,
            _t: f64,
        ) -> Option<crate::policy::DescentStep> {
            if level > 0 {
                return None;
            }
            self.idles += 1;
            Some(crate::policy::DescentStep::to_deepest(0.0))
        }
        fn request_arrived(&mut self, _disk: usize, _t: f64) {
            self.arrivals += 1;
        }
        fn descent_started(&mut self, _disk: usize, _t: f64, _to_level: u8) {
            self.downs += 1;
        }
    }

    #[test]
    fn custom_policy_drives_spin_downs_through_the_trait() {
        let cat = catalog(1, 10 * MB);
        let tr = trace(&[(50.0, 0), (150.0, 0)], 400.0);
        let cfg = SimConfig::paper_default();
        let report = Simulator::replay(
            &cat,
            InMemorySource::new(&tr),
            &assignment(&[0]),
            &cfg,
            1,
            |_| {
                Box::new(EagerCounter {
                    idles: 0,
                    arrivals: 0,
                    downs: 0,
                })
            },
        )
        .unwrap();
        // Idle at t=0 → immediate spin-down; both requests find standby,
        // pay the spin-up, and each post-service idle spins down again.
        assert_eq!(report.spin_downs, 3);
        assert_eq!(report.spin_ups, 2);
        assert_eq!(report.responses.len(), 2);
        // First response: 15 s spin-up + service.
        assert!(report.response_quantile(0.0) > 15.0);
    }

    /// A policy answering `delay` for global disk 1 and holding elsewhere.
    struct BadDelay(f64);

    impl crate::policy::PowerPolicy for BadDelay {
        fn name(&self) -> String {
            "bad_delay".into()
        }
        fn settled(&mut self, disk: usize, _level: u8, _t: f64) -> Option<DescentStep> {
            (disk == 1).then_some(DescentStep::to_deepest(self.0))
        }
    }

    #[test]
    fn bad_policy_delay_is_a_typed_error() {
        let cat = catalog(2, 10 * MB);
        let tr = trace(&[(5.0, 0), (6.0, 1)], 100.0);
        for delay in [f64::NAN, -1.0, f64::INFINITY] {
            for shards in [1, 2] {
                let cfg = SimConfig::paper_default().with_shards(shards);
                let err = Simulator::replay(
                    &cat,
                    InMemorySource::new(&tr),
                    &assignment(&[0, 1]),
                    &cfg,
                    2,
                    |_| Box::new(BadDelay(delay)),
                )
                .unwrap_err();
                let msg = err.to_string();
                match err {
                    SimError::InvalidPolicyDelay {
                        policy,
                        disk,
                        level,
                        rest_s,
                    } => {
                        assert_eq!(policy, "bad_delay");
                        assert_eq!(disk, 1, "S={shards}: the global disk id");
                        assert_eq!(level, 0);
                        assert!(
                            rest_s.to_bits() == delay.to_bits(),
                            "S={shards}: {rest_s} vs {delay}"
                        );
                    }
                    other => panic!("S={shards} delay {delay}: unexpected error {other}"),
                }
                assert!(msg.contains("bad_delay") && msg.contains("disk 1"), "{msg}");
            }
        }
    }

    #[test]
    fn replay_with_a_timeout_factory_matches_run() {
        let cat = catalog(3, 20 * MB);
        let tr = Trace::poisson(&cat, 1.0, 400.0, 21);
        let a = assignment(&[0, 1, 2]);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(40.0));
        let via_cfg = Simulator::run(&cat, &tr, &a, &cfg).unwrap();
        let via_policy = Simulator::replay(&cat, InMemorySource::new(&tr), &a, &cfg, 3, |_| {
            Box::new(crate::policy::TimeoutPolicy::fixed(40.0))
        })
        .unwrap();
        assert_reports_identical(&via_cfg, &via_policy);
    }

    #[test]
    fn per_disk_responses_partition_the_global_samples() {
        let cat = catalog(2, 40 * MB);
        let tr = trace(&[(0.0, 0), (1.0, 1), (2.0, 0), (3.0, 1)], 200.0);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        assert_eq!(report.per_disk_responses.len(), 2);
        let split: usize = report.per_disk_responses.iter().map(|r| r.len()).sum();
        assert_eq!(split, report.responses.len());
        assert_eq!(report.per_disk_responses[0].len(), 2);
        assert_eq!(report.per_disk_responses[1].len(), 2);
    }

    #[test]
    fn completion_log_records_every_request_in_service_order() {
        let cat = catalog(2, 40 * MB);
        let tr = trace(&[(0.0, 0), (0.0, 0), (1.0, 1)], 200.0);
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Never)
            .with_completion_log();
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        let log = report.completions.as_ref().expect("log enabled");
        assert_eq!(log.len(), 3);
        let mut reqs: Vec<usize> = log.iter().map(|c| c.req).collect();
        reqs.sort_unstable();
        assert_eq!(reqs, vec![0, 1, 2]);
        // Canonical order: non-decreasing times, ties broken by request
        // ordinal.
        for w in log.windows(2) {
            assert!(
                w[0].time_s < w[1].time_s || (w[0].time_s == w[1].time_s && w[0].req < w[1].req)
            );
        }
        let summary = report.completion_log.as_ref().expect("summary present");
        assert_eq!(summary.records, 3);
        assert!(summary.bytes > 0);
        // Off by default.
        let plain =
            Simulator::run(&cat, &tr, &assignment(&[0, 1]), &SimConfig::paper_default()).unwrap();
        assert!(plain.completions.is_none());
        assert!(plain.completion_log.is_none());
    }

    #[test]
    fn elevator_wake_batch_beats_fifo_on_a_spin_up_pile_up() {
        // Disk sleeps; three requests pile up during standby/spin-up and
        // drain as one amortised pass — mean response can only improve.
        let cat = catalog(3, 72 * MB);
        let layout = assignment(&[0, 0, 0]);
        let tr = trace(&[(50.0, 0), (50.2, 2), (50.4, 1), (50.6, 2)], 300.0);
        let fifo = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(5.0));
        let elevator = fifo
            .clone()
            .with_discipline(crate::discipline::DisciplineChoice::ElevatorBatch);
        let rf = Simulator::run(&cat, &tr, &layout, &fifo).unwrap();
        let re = Simulator::run(&cat, &tr, &layout, &elevator).unwrap();
        assert_eq!(re.responses.len(), rf.responses.len());
        assert!(
            re.responses.mean() <= rf.responses.mean() + 1e-12,
            "elevator {} vs fifo {}",
            re.responses.mean(),
            rf.responses.mean()
        );
        // The batch saved three cold seeks' worth of positioning time.
        assert!(re.responses.mean() < rf.responses.mean());
    }

    /// A descent schedule stepping one level at a time: 5 s at idle, then
    /// low-RPM; 30 s at low-RPM, then standby.
    struct StepDown;

    impl crate::policy::PowerPolicy for StepDown {
        fn name(&self) -> String {
            "step_down".into()
        }
        fn settled(&mut self, _disk: usize, level: u8, _t: f64) -> Option<DescentStep> {
            match level {
                0 => Some(DescentStep::to_level(5.0, 1)),
                1 => Some(DescentStep::to_level(30.0, 2)),
                _ => None,
            }
        }
    }

    fn three_level_cfg() -> SimConfig {
        let cfg = SimConfig::paper_default();
        let ladder = spindown_disk::PowerLadder::with_low_rpm(&cfg.disk);
        cfg.with_ladder(Some(ladder))
    }

    #[test]
    fn ladder_wake_pays_the_exit_of_the_level_reached() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg();
        let lad = cfg.disk.power_ladder();
        // Idle from t=0: descends to low-RPM at t=5 (entry 3 s, settled at
        // 8), would descend to standby at t=38. The request at t=20 finds
        // the disk resting at low-RPM and pays only its (shorter) exit.
        let tr = trace(&[(20.0, 0)], 100.0);
        let report = Simulator::replay(
            &cat,
            InMemorySource::new(&tr),
            &assignment(&[0]),
            &cfg,
            1,
            |_| Box::new(StepDown),
        )
        .unwrap();
        let expected = lad.level(1).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        // Three completed descents: idle → low-RPM before the arrival,
        // then idle → low-RPM → standby after the service.
        assert_eq!(report.spin_downs, 3);
        assert_eq!(report.spin_ups, 1);
    }

    #[test]
    fn ladder_step_descent_reaches_standby_through_low_rpm() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg();
        let lad = cfg.disk.power_ladder();
        // Request at t=300: by then the disk stepped 0 → 1 (t=5..8) and
        // 1 → 2 (t=38..48); it wakes from standby paying the full exit.
        let tr = trace(&[(300.0, 0)], 400.0);
        let report = Simulator::replay(
            &cat,
            InMemorySource::new(&tr),
            &assignment(&[0]),
            &cfg,
            1,
            |_| Box::new(StepDown),
        )
        .unwrap();
        let expected = lad.level(2).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        // Energy accounted at every level the descent visited.
        assert!(report.fleet_seconds_in(PowerState::Sleeping(1)) > 0.0);
        assert!(report.fleet_seconds_in(PowerState::Sleeping(2)) > 0.0);
        assert!(report.fleet_seconds_in(PowerState::Descending(2)) > 0.0);
    }

    #[test]
    fn timeout_policy_chains_straight_to_the_deepest_level() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg().with_threshold(ThresholdPolicy::Fixed(10.0));
        let lad = cfg.disk.power_ladder();
        // Fixed timeout descends the whole ladder in one go: entries at
        // 10..13 (level 1) and 13..23 (level 2), charging each level's
        // entry transition back to back. (Horizon 120 keeps the
        // post-service timer, due ~126, from arming a second descent.)
        let tr = trace(&[(100.0, 0)], 120.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let expected = lad.level(2).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        // One full descent = two completed entry transitions; the
        // zero-length residency at level 1 costs nothing.
        assert_eq!(report.spin_ups, 1);
        assert!(report.fleet_seconds_in(PowerState::Sleeping(1)) == 0.0);
        assert!((report.fleet_seconds_in(PowerState::Descending(1)) - 3.0).abs() < 1e-9);
        assert!((report.fleet_seconds_in(PowerState::Descending(2)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_mid_descent_wakes_from_the_level_just_reached() {
        let cat = catalog(1, 72 * MB);
        let cfg = three_level_cfg().with_threshold(ThresholdPolicy::Fixed(10.0));
        let lad = cfg.disk.power_ladder();
        // Descent starts at 10; the level-1 entry completes at 13. A
        // request at t=11 waits out the entry, then wakes from level 1
        // (the deeper step is abandoned). Horizon 25 keeps the
        // post-service timer from starting a second, full descent.
        let tr = trace(&[(11.0, 0)], 25.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let expected = 2.0 + lad.level(1).exit_time_s + service_time_72mb();
        assert!(
            (report.response_quantile(1.0) - expected).abs() < 1e-9,
            "response {} vs {expected}",
            report.response_quantile(1.0)
        );
        assert!(report.fleet_seconds_in(PowerState::Sleeping(2)) == 0.0);
    }

    #[test]
    fn explicit_two_state_ladder_is_bit_identical_to_the_derived_default() {
        let cat = catalog(4, 30 * MB);
        let tr = Trace::poisson(&cat, 2.0, 500.0, 13);
        let a = assignment(&[0, 1, 2, 3]);
        for threshold in [
            ThresholdPolicy::BreakEven,
            ThresholdPolicy::Fixed(5.0),
            ThresholdPolicy::Never,
        ] {
            let derived = SimConfig::paper_default().with_threshold(threshold);
            let explicit = derived
                .clone()
                .with_ladder(Some(spindown_disk::PowerLadder::two_state(&derived.disk)));
            let rd = Simulator::run(&cat, &tr, &a, &derived).unwrap();
            let re = Simulator::run(&cat, &tr, &a, &explicit).unwrap();
            assert_reports_identical(&rd, &re);
        }
    }

    #[test]
    fn response_includes_queueing_after_spin_up() {
        // Two requests arrive while the disk is in standby; both pay the
        // spin-up, the second also queues behind the first.
        let cat = catalog(1, 72 * MB);
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(5.0));
        let tr = trace(&[(100.0, 0), (100.0, 0)], 300.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let s = service_time_72mb();
        assert!((report.response_quantile(0.0) - (15.0 + s)).abs() < 1e-9);
        assert!((report.response_quantile(1.0) - (15.0 + 2.0 * s)).abs() < 1e-9);
    }
}

/// Integration tests for the fault injector: the [`FaultRuntime`] hooks in
/// dispatch, spin-up completion and service completion, exercised through
/// full engine runs (the unit-level draw/state tests live in `fault.rs`).
#[cfg(test)]
mod fault_tests {
    use super::tests::{assignment, catalog, trace};
    use super::*;
    use crate::config::ThresholdPolicy;
    use spindown_workload::{FaultPlan, MB};

    fn sleepy(spec: &str) -> SimConfig {
        let mut cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        cfg.faults = FaultPlan::parse(spec).unwrap();
        cfg
    }

    /// Five widely spaced requests each find the disk in standby; at a 90 %
    /// wake-failure rate the retry chains overflow the budget, the drive
    /// fail-stops, and the repair downtime shows up in availability.
    #[test]
    fn wake_failures_retry_then_fail_stop_and_repair() {
        let cat = catalog(1, 72 * MB);
        let cfg = sleepy("wakefail:p=0.9 | mttr=300 | seed=3");
        let tr = trace(
            &[(100.0, 0), (400.0, 0), (700.0, 0), (1000.0, 0), (1300.0, 0)],
            2000.0,
        );
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().expect("faults produce stats");
        assert_eq!(a.arrivals, 5);
        // Every request eventually completes: a crash repairs after the
        // MTTR and the queued request wakes the returned drive.
        assert_eq!(a.completed, 5);
        assert_eq!(a.failed, 0);
        assert!(a.wake_failures > 5, "repeated retries: {}", a.wake_failures);
        assert!(a.crashes >= 1, "budget exhaustion fail-stops the drive");
        let downtime = a.per_disk_downtime_s[0];
        assert!(
            (downtime - a.crashes as f64 * 300.0).abs() < 1e-6,
            "each crash is down for one MTTR: {downtime}"
        );
        assert!(a.availability < 1.0 && a.availability > 0.0);
        assert!(a.conservation_holds());
    }

    /// Each failed spin-up charges its transition energy: the same seed
    /// with wake failures must burn strictly more than the fault-free run,
    /// and the tail response absorbs the backoff + repeated spin-up time.
    #[test]
    fn failed_spin_ups_charge_transition_energy_and_delay() {
        let cat = catalog(1, 72 * MB);
        // Horizon far past the arrivals: every retry chain (and any
        // fail-stop repair) lands inside the run, so all three complete.
        let tr = trace(&[(100.0, 0), (250.0, 0), (400.0, 0)], 3000.0);
        let clean = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(10.0));
        let faulty = sleepy("wakefail:p=0.9 | seed=3");
        let clean_report = Simulator::run(&cat, &tr, &assignment(&[0]), &clean).unwrap();
        let fault_report = Simulator::run(&cat, &tr, &assignment(&[0]), &faulty).unwrap();
        let extra = fault_report
            .availability
            .as_ref()
            .map(|a| a.wake_failures + a.crashes)
            .unwrap();
        assert!(
            extra > 0,
            "seed 3 at p=0.9 fails at least one of three wakes"
        );
        assert_eq!(fault_report.availability.as_ref().unwrap().completed, 3);
        assert!(
            fault_report.energy.total_joules() > clean_report.energy.total_joules(),
            "failed attempts still pay the transition"
        );
        assert!(fault_report.response_quantile(1.0) > clean_report.response_quantile(1.0));
    }

    /// Transient I/O errors re-serve the request after backoff: time and
    /// energy are spent, the completion count stays exact, and the retried
    /// counter records every discarded attempt.
    #[test]
    fn transient_errors_retry_and_complete() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        cfg.faults = FaultPlan::parse("transient:p=0.4 | seed=11").unwrap();
        let reqs: Vec<(f64, u32)> = (0..20).map(|i| (i as f64 * 30.0, 0)).collect();
        let tr = trace(&reqs, 700.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().unwrap();
        assert_eq!(a.arrivals, 20);
        assert_eq!(a.completed, 20, "budget 5 at p=0.4 outlasts every flake");
        assert!(a.retried > 0, "p=0.4 over 20 requests flakes some attempt");
        assert_eq!(report.responses.len(), 20);
        assert!(a.conservation_holds());
    }

    /// A retry budget of zero turns every transient flake into a counted
    /// failure — the request leaves the system without a response sample,
    /// and conservation still balances through the failed bucket.
    #[test]
    fn exhausted_retry_budget_counts_failures_not_panics() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        cfg.faults = FaultPlan::parse("transient:p=0.5 | retries=0 | seed=7").unwrap();
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 10.0, 0)).collect();
        let tr = trace(&reqs, 500.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().unwrap();
        assert_eq!(a.arrivals, 40);
        assert!(a.failed > 0, "p=0.5 with no retries drops requests");
        assert_eq!(a.completed + a.failed, 40);
        assert_eq!(report.responses.len() as u64, a.completed);
        assert!(a.conservation_holds());
    }

    /// A scheduled crash takes the disk offline mid-run: requests arriving
    /// during the outage wait for the repair, the disk returns cold, and
    /// the downtime equals the MTTR.
    #[test]
    fn scheduled_crash_queues_work_until_repair() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        cfg.faults = FaultPlan::parse("crash@t=50:d0 | mttr=200").unwrap();
        let tr = trace(&[(10.0, 0), (100.0, 0)], 600.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let a = report.availability.as_ref().unwrap();
        assert_eq!(a.crashes, 1);
        assert_eq!(a.completed, 2);
        assert!((a.per_disk_downtime_s[0] - 200.0).abs() < 1e-6);
        // The t=100 request arrived mid-outage (50..250) and waited for
        // the repair plus the cold spin-up.
        assert!(
            report.response_quantile(1.0) > 150.0,
            "p100 {}",
            report.response_quantile(1.0)
        );
        assert!(a.availability < 1.0);
    }

    /// A crash or fail-slow clause naming a disk the fleet does not have
    /// is a typed error naming the clause, the disk and the fleet size —
    /// on the solo and the sharded path alike — never a silently dropped
    /// clause. The fleet's last disk is still accepted.
    #[test]
    fn fault_clause_on_a_missing_disk_is_a_typed_error() {
        let cat = catalog(2, 72 * MB);
        let tr = trace(&[(5.0, 0), (6.0, 1)], 100.0);
        for spec in ["crash@t=1:d2", "failslow:d7:x4@0..10"] {
            for shards in [1, 2] {
                let mut cfg = SimConfig::paper_default().with_shards(shards);
                cfg.faults = FaultPlan::parse(spec).unwrap();
                let err = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap_err();
                let msg = err.to_string();
                match err {
                    SimError::FaultDiskOutOfRange {
                        clause,
                        disk,
                        fleet,
                    } => {
                        assert_eq!(clause, spec);
                        assert_eq!(fleet, 2);
                        assert!(disk >= 2);
                    }
                    other => panic!("S={shards} {spec}: unexpected error {other}"),
                }
                assert!(msg.contains(spec) && msg.contains("2 disks"), "{msg}");
            }
        }
        let mut cfg = SimConfig::paper_default();
        cfg.faults = FaultPlan::parse("crash@t=1:d1").unwrap();
        let report = Simulator::run(&cat, &tr, &assignment(&[0, 1]), &cfg).unwrap();
        assert_eq!(report.availability.unwrap().crashes, 1);
    }

    /// The no-fault configuration leaves no availability stats and the
    /// legacy report untouched — the `FaultPlan::none()` path never
    /// constructs a runtime.
    #[test]
    fn no_fault_plan_reports_no_availability() {
        let cat = catalog(1, 72 * MB);
        let cfg = SimConfig::paper_default();
        let tr = trace(&[(5.0, 0)], 100.0);
        let report = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        assert!(report.availability.is_none());
    }

    /// A fail-slow window stretches service: the same trace takes longer
    /// wall-clock inside the window than without the fault plan.
    #[test]
    fn failslow_window_stretches_service() {
        let cat = catalog(1, 72 * MB);
        let mut cfg = SimConfig::paper_default();
        // 4× slower service on disk 0 between t=0 and t=1000.
        cfg.faults = FaultPlan::parse("failslow:d0:x4@0..1000").unwrap();
        let tr = trace(&[(5.0, 0)], 100.0);
        let slow = Simulator::run(&cat, &tr, &assignment(&[0]), &cfg).unwrap();
        let clean =
            Simulator::run(&cat, &tr, &assignment(&[0]), &SimConfig::paper_default()).unwrap();
        assert!(
            slow.response_quantile(1.0) > 2.0 * clean.response_quantile(1.0),
            "slow {} vs clean {}",
            slow.response_quantile(1.0),
            clean.response_quantile(1.0)
        );
        assert!(slow.availability.as_ref().unwrap().conservation_holds());
    }
}
