//! The replay driver: partition the fleet, read the source on its own
//! thread, run one event loop per shard, fold every shard's parts into
//! the one report. Every replay runs through it; one shard is its
//! smallest case.
//!
//! ## Shard assignment
//!
//! Global disk `d` belongs to shard `d % S` and appears there as local
//! actor `d / S`; shard `s` therefore simulates `ceil((fleet − s) / S)`
//! disks and local actor `i` of shard `s` is global disk `i·S + s`. The
//! arrival stream splits the same way: one reader thread drains the
//! source once through `spindown_workload::demux`, routing each request
//! — tagged with its ordinal in the whole stream — into its shard's
//! bounded channel, whether the source is an in-memory trace, a CSV file
//! or a generator. Shard 0 runs on the calling thread, every other shard
//! on its own. Each engine hands its policy global disk ids (through its
//! [`Placement`]), and the shard count is clamped to the fleet so no
//! shard is ever empty.
//!
//! ## The route table
//!
//! [`replay_sharded`] builds one table for the run, each file's global
//! disk id with `u32::MAX` for a file no disk holds
//! ([`spindown_packing::Assignment::item_to_disk`]). The reader thread
//! resolves every request through it and the catalog
//! ([`spindown_workload::DemuxPump::run_resolved`]): the shard, the local
//! disk and the file's size travel with the request, so an engine reads
//! no per-file table and an arrival touches only per-disk state. At one
//! shard the reader still does these two lookups, and the engine, the
//! bottleneck thread, does none.
//!
//! ## The cache walk
//!
//! The run owns one cache hierarchy, and the reader thread walks it for
//! every mapped request, in stream order, as it resolves the route. Each request reaches its shard tagged with its hit's
//! service time or as a miss, and the engine records a hit against the
//! disk that owns the file. The engines hold no cache state; the
//! report's `cache` and `cache_tiers` are read off the hierarchy after
//! the join. A file no disk holds, or one outside the catalog, is never
//! probed: it reaches shard 0 unmapped, which fails the run with
//! [`SimError::UnmappedFile`].
//!
//! ## Why the merged report is bit-identical
//!
//! Disks interact through *nothing*: each disk's service, queueing,
//! power-transition and energy trajectory is a function of its own
//! arrival subsequence, which sharding preserves in order, and of the
//! cache tags on it, which the one stream-order walk fixes before any
//! routing. (The completion log streams through per-shard writers and a
//! k-way merger — see [`crate::complog`].) A finished engine hands back
//! its per-disk values and its counters ([`ShardParts`]), and
//! [`merge_reports`] is the one place that folds them, so every shard
//! count, one included, runs the same float operations:
//!
//! - every shard drains, then all shards finish at the common end time
//!   `horizon.max(max over shards of last event time)` — exactly the
//!   unsharded `t_end`, since the shards' events partition the unsharded
//!   event set;
//! - fleet energy, the global response statistics (either metrics mode)
//!   and the degraded-response collector are folded from the per-disk
//!   values in ascending global disk order, so they are a pure function
//!   of per-disk trajectories;
//! - availability is computed once, from the per-disk downtimes in
//!   global disk order, over the whole fleet;
//! - cache counters come from the one hierarchy, which saw the same
//!   stream at every shard count;
//! - the completion log is emitted in canonical `(time, req)` order by
//!   both the unsharded writer and the sharded merger — byte-identical
//!   at every shard count;
//! - windowed rows: each shard closes windows as its own clock passes
//!   them (its last ones at `t_end`) and pushes each closed window's
//!   partial into the run's one mutex-guarded fold, which folds window
//!   `w` with [`crate::windows::fold_row`] once every shard has pushed
//!   it — with the per-disk values in global disk order, whatever the
//!   shard count.
//!
//! Merged counters: spin-downs/ups and the fault counters are exact sums,
//! and served counts are placed per disk; `peak_disk_queue` is the
//! cross-shard **max** (each disk's queue trajectory is identical to the
//! unsharded run, so the fleet-wide peak is the max over shards — never a
//! sum); the per-shard event-heap peaks are kept raw as
//! `SimReport::per_shard_event_peaks` (see that field's docs — and the
//! `SimReport` doc section cataloguing exact-vs-bound merged fields — for
//! the max/sum aggregation trade-off).

use std::sync::{Arc, Mutex};

use spindown_disk::energy::EnergyBreakdown;
use spindown_workload::shard::{demux, Route, UNMAPPED};
use spindown_workload::trace::TraceIoError;
use spindown_workload::{FileCatalog, Request, TraceSource};

use crate::complog::{log_channel, merge_streams, CompletionLogSummary, CompletionSink};
use crate::config::SimConfig;
use crate::engine::{Placement, ShardJob, ShardParts, SimError, Simulator};
use crate::fault::FaultCounts;
use crate::hierarchy::CacheHierarchy;
use crate::metrics::{Completion, ResponseStats, SimReport};
use crate::policy::PowerPolicy;
use crate::windows::{RowFolder, WindowRow, WindowedReport};

/// The shard count a run actually uses: `cfg.shards` clamped to at least 1
/// and at most the fleet (no empty shards).
pub(crate) fn effective_shards(cfg: &SimConfig, fleet: usize) -> usize {
    cfg.shards.max(1).min(fleet.max(1))
}

/// The round-robin fleet partition.
struct ShardPlan {
    shards: usize,
    fleet: usize,
}

impl ShardPlan {
    /// Where shard `s`'s disks sit in the global fleet.
    fn placement(&self, s: usize) -> Placement {
        Placement {
            shard: s,
            stride: self.shards,
        }
    }

    /// Number of disks shard `s` simulates.
    fn shard_fleet(&self, s: usize) -> usize {
        (self.fleet - s).div_ceil(self.shards)
    }
}

/// Replay `source` over `shards` shards (one included): one reader thread
/// resolves every request's route through `disks` (file → global disk,
/// `u32::MAX` unmapped) and the catalog, walks the cache, and
/// demultiplexes the stream into bounded per-shard batches (the source
/// is read once), shard 0 drains on the calling thread and every other
/// shard on its own scoped thread, then all shards finish at the common end time and their parts fold
/// into the report. Every engine borrows the run's one window fold and
/// pushes each window into it as the window closes. Policies are built
/// by `factory` in shard order on the calling thread, so factory side
/// effects (seed derivation, logging) are deterministic.
pub(crate) fn replay_sharded<'a, S: TraceSource + Send>(
    catalog: &'a FileCatalog,
    source: S,
    disks: Vec<u32>,
    cfg: &'a SimConfig,
    fleet: usize,
    shards: usize,
    factory: &mut dyn FnMut(usize) -> Box<dyn PowerPolicy>,
) -> Result<SimReport, SimError> {
    let plan = ShardPlan { shards, fleet };
    let (pump, receivers) = demux(source, shards);
    // Completion log: the merger thread owns the terminal sink (so e.g.
    // the CSV file is created once, here, not per shard); each shard
    // streams its canonical batches over a bounded channel.
    let merger_sink = CompletionSink::from_mode(&cfg.completion_log)?;
    let mut log_txs = Vec::with_capacity(shards);
    let mut log_rxs = Vec::new();
    for _ in 0..shards {
        log_txs.push(merger_sink.as_ref().map(|_| {
            let (tx, rx) = log_channel();
            log_rxs.push(rx);
            tx
        }));
    }
    // Windows: every engine pushes each closed window's partial into the
    // one fold, which folds window `w` once all shards have pushed it.
    // The lock is held for a push and the folds it completes, never
    // across a channel operation, so it cannot deadlock against the
    // bounded demux. Partials wait in the fold only while some shard's
    // clock lags; while the source feeds every shard, the demux's bounded
    // buffers bound that lag.
    let fold = cfg
        .windows
        .map(|width| Mutex::new(RowFolder::new(width, shards)));
    let jobs: Vec<ShardJob> = receivers
        .into_iter()
        .zip(log_txs)
        .enumerate()
        .map(|(s, (source, log_tx))| ShardJob {
            cfg,
            source,
            fleet: plan.shard_fleet(s),
            place: plan.placement(s),
            policy: factory(s),
            log_tx,
            fold: fold.as_ref(),
        })
        .collect();
    let mut cache = cfg.cache_hierarchy.as_ref().map(|h| h.build(1));
    // The reader's resolver: the checked lookups send an unmapped or
    // out-of-catalog file to shard 0 unprobed, for its engine to reject.
    let resolve = |r: &Request| {
        let f = r.file.index();
        let (Some(&disk), Some(file)) = (disks.get(f), catalog.files().get(f)) else {
            return Route::UNMAPPED;
        };
        if disk == UNMAPPED {
            return Route::UNMAPPED;
        }
        let hit = cache
            .as_mut()
            .and_then(|h| h.access(r.file, file.size_bytes));
        Route {
            size: file.size_bytes,
            hit,
            ..Route::to_disk(disk, shards)
        }
    };
    let (results, merged_log) = std::thread::scope(|scope| {
        scope.spawn(move || pump.run_resolved(resolve));
        // The merger terminates once every shard's sender is dropped —
        // `run_drained` drops them on success and on error (with the
        // engine), so joining it inside the scope cannot deadlock.
        let merger = merger_sink.map(|sink| scope.spawn(move || merge_streams(log_rxs, sink)));
        let mut jobs = jobs.into_iter();
        let first = jobs.next().expect("at least one shard");
        let others: Vec<_> = jobs
            .map(|job| scope.spawn(move || Simulator::run_drained(job)))
            .collect();
        let mut results = vec![Simulator::run_drained(first)];
        results.extend(others.into_iter().map(join));
        (results, merger.map(join))
    });
    let mut sims = Vec::with_capacity(shards);
    let mut failure = None;
    for r in results {
        match r {
            Ok(sim) => sims.push(sim),
            // The first shard's error wins; later ones drop here.
            Err(e) => {
                failure.get_or_insert(e);
            }
        }
    }
    if let Some(e) = failure {
        return Err(unshare(e));
    }
    // The shards' event sets partition the unsharded run's events, so the
    // common end time is exactly the unsharded `horizon.max(last event)`.
    let t_end = sims.iter().fold(sims[0].source_horizon(), |acc, s| {
        acc.max(s.last_event_time())
    });
    let parts = sims
        .into_iter()
        .map(|sim| sim.finish_at(t_end))
        .collect::<Result<Vec<_>, _>>()?;
    let log = match merged_log {
        None => None,
        Some(Ok((sink, merger_peak))) => {
            let shard_peak: usize = parts.iter().map(|p| p.log_peak).sum();
            Some(sink.finish(shard_peak + merger_peak)?)
        }
        Some(Err(e)) => return Err(e.into()),
    };
    // A panic while folding has already re-raised at its shard's join.
    let rows = fold.map(|fold| fold.into_inner().expect("no panic in the fold").finish());
    Ok(merge_reports(
        cfg,
        fleet,
        t_end,
        parts,
        log,
        rows,
        cache.as_ref(),
    ))
}

/// Join a scoped thread, re-raising its panic here.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// A source error reaches every shard as a shared copy of the pump's
/// error. Once the shards are joined and the other copies dropped, this
/// is the only one left: hand back the pump's original error, so a run
/// fails with the same error at every shard count.
fn unshare(e: SimError) -> SimError {
    match e {
        SimError::Source(TraceIoError::Shared(shared)) => {
            SimError::Source(Arc::try_unwrap(shared).unwrap_or_else(TraceIoError::Shared))
        }
        e => e,
    }
}

/// Fold every shard's parts into the fleet report: per-disk values in
/// ascending global disk order (see the module docs for why this fixes
/// the float operations at every shard count), counters summed, the
/// folded window rows attached, and the cache counters read off the
/// run's one hierarchy.
fn merge_reports(
    cfg: &SimConfig,
    fleet: usize,
    t_end: f64,
    parts: Vec<ShardParts>,
    log: Option<(Option<Vec<Completion>>, CompletionLogSummary)>,
    rows: Option<Vec<WindowRow>>,
    cache: Option<&CacheHierarchy>,
) -> SimReport {
    let shards = parts.len();
    let mut spin_downs = 0u64;
    let mut spin_ups = 0u64;
    let mut per_shard_event_peaks = Vec::with_capacity(shards);
    let mut peak_disk_queue = 0usize;
    let mut fault_counts: Option<FaultCounts> = None;
    let mut disks = Vec::with_capacity(shards);
    for p in parts {
        spin_downs += p.spin_downs;
        spin_ups += p.spin_ups;
        per_shard_event_peaks.push(p.peak_events);
        peak_disk_queue = peak_disk_queue.max(p.peak_disk_queue);
        if let Some(c) = p.faults {
            fault_counts.get_or_insert_default().add(&c);
        }
        disks.push(p.disks.into_iter());
    }
    let mut energy = EnergyBreakdown::default();
    let mut responses = ResponseStats::with_mode(cfg.metrics);
    let mut degraded = ResponseStats::with_mode(cfg.metrics);
    let mut per_disk_energy = Vec::with_capacity(fleet);
    let mut per_disk_responses = Vec::with_capacity(fleet);
    let mut per_disk_served = Vec::with_capacity(fleet);
    let mut per_disk_downtime_s = Vec::new();
    // Local actor indices ascend with the global disk id within a shard, so
    // popping each shard's disks front-to-front in global order lands
    // every per-disk entry at its global index.
    for d in 0..fleet {
        let disk = disks[d % shards].next().expect("shard simulated its disk");
        energy.merge(&disk.energy);
        responses.merge(&disk.responses);
        if let Some(f) = disk.faults {
            degraded.merge(&f.degraded);
            per_disk_downtime_s.push(f.downtime_s);
        }
        per_disk_energy.push(disk.energy);
        per_disk_responses.push(disk.responses);
        per_disk_served.push(disk.served);
    }
    let (completions, completion_log) = match log {
        None => (None, None),
        Some((completions, summary)) => (completions, Some(summary)),
    };
    SimReport {
        sim_time_s: t_end,
        energy,
        per_disk_energy,
        responses,
        per_disk_responses,
        completions,
        completion_log,
        spin_downs,
        spin_ups,
        cache: cache.map(CacheHierarchy::aggregate_stats),
        cache_tiers: cache.map(CacheHierarchy::tier_stats),
        disks: fleet,
        per_disk_served,
        per_shard_event_peaks,
        peak_disk_queue,
        availability: fault_counts
            .map(|c| c.into_stats(per_disk_downtime_s, degraded, fleet, t_end)),
        windows: rows.map(|rows| WindowedReport {
            width_s: cfg.windows.expect("window rows imply windows"),
            faulted: !cfg.faults.is_none(),
            rows,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchyConfig;
    use crate::policy::DescentStep;

    #[test]
    fn effective_shards_clamps_and_falls_back() {
        let cfg = SimConfig::paper_default().with_shards(4);
        assert_eq!(effective_shards(&cfg, 8), 4);
        assert_eq!(effective_shards(&cfg, 3), 3, "clamped to the fleet");
        assert_eq!(effective_shards(&cfg, 0), 1, "zero fleet runs unsharded");
        assert_eq!(effective_shards(&SimConfig::paper_default(), 8), 1);
        let cached = cfg
            .clone()
            .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()));
        assert_eq!(
            effective_shards(&cached, 8),
            4,
            "the reader walks the cache ahead of routing"
        );
        let logged = cfg.with_completion_log();
        assert_eq!(
            effective_shards(&logged, 8),
            4,
            "the completion log streams through the k-way merger"
        );
    }

    #[test]
    fn shard_plan_partitions_the_fleet_exactly() {
        for fleet in [1usize, 2, 5, 7, 16, 100] {
            for shards in 1..=fleet.min(9) {
                let plan = ShardPlan { shards, fleet };
                let total: usize = (0..shards).map(|s| plan.shard_fleet(s)).sum();
                assert_eq!(total, fleet, "{fleet} disks / {shards} shards");
                // Round-trip: every global disk id is local i of shard s
                // with i*S + s == d, within the shard's fleet.
                for d in 0..fleet {
                    let (s, i) = (d % shards, d / shards);
                    assert!(i < plan.shard_fleet(s));
                    assert_eq!(i * shards + s, d);
                }
            }
        }
    }

    #[test]
    fn the_reader_routes_each_disk_where_its_engine_places_it() {
        for fleet in [1usize, 5, 16] {
            for shards in 1..=fleet.min(6) {
                let plan = ShardPlan { shards, fleet };
                for d in 0..fleet {
                    let route = Route::to_disk(d as u32, shards);
                    let place = plan.placement(route.shard);
                    assert_eq!(place.global(route.disk as usize), d, "S={shards}");
                    assert!((route.disk as usize) < plan.shard_fleet(route.shard));
                }
            }
        }
    }

    /// One policy callback: its name, the disk id it saw, its time's bits.
    type Call = (&'static str, usize, u64);

    /// A policy recording every callback and descending 5 s into every
    /// idle period.
    struct Probe {
        seen: Arc<std::sync::Mutex<Vec<Call>>>,
    }

    impl Probe {
        fn log(&self, callback: &'static str, disk: usize, t: f64) {
            self.seen
                .lock()
                .unwrap()
                .push((callback, disk, t.to_bits()));
        }
    }

    impl PowerPolicy for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn settled(&mut self, disk: usize, level: u8, t: f64) -> Option<DescentStep> {
            self.log("settled", disk, t);
            (level == 0).then_some(DescentStep::to_deepest(5.0))
        }
        fn request_arrived(&mut self, disk: usize, t: f64) {
            self.log("request_arrived", disk, t);
        }
        fn descent_started(&mut self, disk: usize, t: f64, _to_level: u8) {
            self.log("descent_started", disk, t);
        }
    }

    #[test]
    fn policies_see_global_disk_ids_at_every_shard_count() {
        use spindown_packing::{Assignment, DiskBin};
        use spindown_workload::{InMemorySource, Trace, MB};
        let fleet = 7;
        let cat = FileCatalog::from_parts(vec![8 * MB; 21], vec![1.0 / 21.0; 21]);
        let mut disks: Vec<DiskBin> = (0..fleet).map(|_| DiskBin::default()).collect();
        for f in 0..21 {
            disks[f % fleet].items.push(f);
        }
        let layout = Assignment { disks };
        let trace = Trace::poisson(&cat, 0.2, 600.0, 0x1D5);
        let log = |shards: usize| {
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let cfg = SimConfig::paper_default().with_shards(shards);
            let source = InMemorySource::new(&trace);
            Simulator::replay(&cat, source, &layout, &cfg, fleet, |_| {
                Box::new(Probe { seen: seen.clone() })
            })
            .unwrap();
            let mut log = seen.lock().unwrap().clone();
            log.sort_unstable();
            log
        };
        let solo = log(1);
        assert_eq!(solo, log(3), "the same callbacks, disks and times");
        for callback in ["settled", "request_arrived", "descent_started"] {
            let disks: std::collections::BTreeSet<usize> = solo
                .iter()
                .filter(|e| e.0 == callback)
                .map(|e| e.1)
                .collect();
            assert!(
                disks.iter().all(|&d| d < fleet),
                "{callback}: an id past the fleet: {disks:?}"
            );
            assert_eq!(disks.len(), fleet, "{callback} reaches every disk");
        }
    }
}
