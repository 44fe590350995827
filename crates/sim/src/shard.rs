//! Sharded parallel replay: partition the fleet, run one event loop per
//! shard, merge the reports.
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
//! or a generator. Each shard's policy instance sees global ids through
//! [`GlobalIds`], and the shard count is clamped to the fleet so no shard
//! is ever empty.
//!
//! ## Why the merged report is bit-identical
//!
//! Disks interact through *nothing*: each disk's service, queueing,
//! power-transition, energy — and, under any cache scope, cache-slice —
//! trajectory is a function of its own arrival subsequence, which
//! sharding preserves in order. (A global-scope
//! hierarchy partitions its budget by file residency, so a file's cache
//! trajectory lives entirely on the shard hosting its disk; the
//! completion log streams through per-shard writers and a k-way merger —
//! see [`crate::complog`].) The merge then reproduces the unsharded
//! report's exact float operations:
//!
//! - every shard drains, then all shards finish at the common end time
//!   `horizon.max(max over shards of last event time)` — exactly the
//!   unsharded `t_end`, since the shards' events partition the unsharded
//!   event set;
//! - fleet energy is re-folded from the per-disk breakdowns in ascending
//!   global disk order — the identical merge sequence the unsharded
//!   `finish` performs over its actors;
//! - histogram-mode global response statistics are *derived* (in every
//!   run, sharded or not) by merging the per-disk collectors in ascending
//!   disk order, so the global histogram is a pure function of per-disk
//!   trajectories. Exact-mode keeps the legacy live recording at one
//!   shard; sharded exact-mode concatenates per-disk samples in disk
//!   order — same multiset, bit-identical quantiles (nearest-rank over
//!   the sorted samples), but the mean may differ in the last ulp from an
//!   unsharded run because float summation order changes;
//! - cache counters follow the energy discipline: per-disk-scope rows are
//!   reassembled in ascending global-disk order and summed from there;
//!   global-scope tier counters sum tier-then-shard. All counters are
//!   integers, so both folds equal the unsharded counters exactly;
//! - the completion log is emitted in canonical `(time, req)` order by
//!   both the unsharded writer and the sharded merger — byte-identical
//!   at every shard count;
//! - windowed rows: each shard closes windows as its own clock passes
//!   them and sends each closed window's partial to the calling thread,
//!   which folds window `w` with [`crate::windows::fold_row`] once every
//!   shard has sent it — the fold the unsharded engine applies to its
//!   single partial, with the per-disk values in the same global order.
//!
//! Merged counters: spin-downs/ups and served counts are exact sums;
//! `peak_disk_queue` is the cross-shard **max** (each disk's queue
//! trajectory is identical to the unsharded run, so the fleet-wide peak
//! is the max over shards — never a sum); the per-shard event-heap peaks
//! are kept raw as `SimReport::per_shard_event_peaks` (see that field's
//! docs — and the `SimReport` doc section cataloguing exact-vs-bound
//! merged fields — for the max/sum aggregation trade-off).

use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender};

use spindown_disk::energy::EnergyBreakdown;
use spindown_workload::shard::{demux, ShardReceiver};
use spindown_workload::{FileCatalog, TraceSource};

use crate::cache::CacheStats;
use crate::complog::{merge_streams, CompletionLogSummary, CompletionSink};
use crate::config::SimConfig;
use crate::engine::{SimError, Simulator};
use crate::metrics::{AvailabilityStats, Completion, ResponseStats, SimReport};
use crate::policy::{DescentStep, PowerPolicy};
use crate::windows::{RowFolder, WindowPartial, WindowedReport};

/// Bounded depth of each shard→merger completion-log channel, in batches
/// of [`crate::complog::LOG_CHUNK`] — caps the merged log's resident
/// state at O(shards · depth · chunk) regardless of request count.
const LOG_DEPTH: usize = 4;

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
    /// Number of disks shard `s` simulates.
    fn shard_fleet(&self, s: usize) -> usize {
        (self.fleet - s).div_ceil(self.shards)
    }

    /// Shard `s`'s file → local-actor map: `d / S` for this shard's disks,
    /// `usize::MAX` (the engine's unmapped sentinel) for everything else.
    fn local_map(&self, file_to_disk: &[usize], s: usize) -> Vec<usize> {
        file_to_disk
            .iter()
            .map(|&d| {
                if d != usize::MAX && d % self.shards == s {
                    d / self.shards
                } else {
                    usize::MAX
                }
            })
            .collect()
    }
}

/// Translates a shard engine's local actor indices back to global disk ids
/// before they reach the wrapped policy, so per-disk-state policies keep
/// their state keyed identically at every shard count.
struct GlobalIds {
    inner: Box<dyn PowerPolicy>,
    shard: usize,
    stride: usize,
}

impl GlobalIds {
    #[inline]
    fn global(&self, local: usize) -> usize {
        local * self.stride + self.shard
    }
}

impl PowerPolicy for GlobalIds {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn settled(&mut self, disk: usize, level: u8, t: f64) -> Option<DescentStep> {
        self.inner.settled(self.global(disk), level, t)
    }

    fn request_arrived(&mut self, disk: usize, t: f64) {
        self.inner.request_arrived(self.global(disk), t);
    }

    fn descent_started(&mut self, disk: usize, t: f64, to_level: u8) {
        self.inner.descent_started(self.global(disk), t, to_level);
    }
}

/// Sharded replay of `source`: one reader thread demultiplexes it into
/// bounded per-shard channels (the source is read once), every shard
/// drains on its own scoped thread, then all shards finish at the common
/// end time and their reports merge. Policies are built by `factory` in
/// shard order on the calling thread, so factory side effects (seed
/// derivation, logging) are deterministic.
pub(crate) fn replay_sharded<'a, S: TraceSource + Send>(
    catalog: &'a FileCatalog,
    source: S,
    file_to_disk: &[usize],
    cfg: &'a SimConfig,
    fleet: usize,
    shards: usize,
    factory: &mut dyn FnMut(usize) -> Box<dyn PowerPolicy>,
) -> Result<SimReport, SimError> {
    /// One shard's inputs: (shard index, source, wrapped policy, local
    /// file map, local fleet size, completion-log channel, window-partial
    /// channel).
    type ShardJob = (
        usize,
        ShardReceiver,
        Box<dyn PowerPolicy>,
        Vec<usize>,
        usize,
        Option<SyncSender<Vec<Completion>>>,
        Option<Sender<(usize, WindowPartial)>>,
    );
    /// What the merger thread hands back: the terminal sink plus the
    /// merge heads' peak buffered count (absent when logging is off).
    type MergedLog = Option<std::io::Result<(CompletionSink, usize)>>;
    let plan = ShardPlan { shards, fleet };
    let (pump, receivers) = demux(source, shards);
    // Completion log: the merger thread owns the terminal sink (so e.g.
    // the CSV file is created once, here, not per shard); each shard
    // streams its canonical batches over a bounded channel.
    let mut merger_sink = CompletionSink::from_mode(&cfg.completion_log)?;
    let mut log_txs: Vec<Option<SyncSender<Vec<Completion>>>> = Vec::with_capacity(shards);
    let mut log_rxs = Vec::new();
    if merger_sink.is_some() {
        for _ in 0..shards {
            let (tx, rx) = sync_channel::<Vec<Completion>>(LOG_DEPTH);
            log_txs.push(Some(tx));
            log_rxs.push(rx);
        }
    } else {
        log_txs.resize_with(shards, || None);
    }
    // Windows: every shard sends each closed window's partial over one
    // unbounded channel, and this thread folds window `w` once all shards
    // have sent it. Shards never block on the send, so the channel cannot
    // deadlock against the bounded demux. Partials wait here only while
    // some shard's clock lags; while the source feeds every shard, the
    // demux's bounded buffer bounds that lag.
    let mut folder = cfg.windows.map(|width| RowFolder::new(width, shards));
    let (win_tx, win_rx) = channel::<(usize, WindowPartial)>();
    let jobs: Vec<ShardJob> = receivers
        .into_iter()
        .zip(log_txs)
        .enumerate()
        .map(|(s, (source, log_tx))| {
            let policy = Box::new(GlobalIds {
                inner: factory(s),
                shard: s,
                stride: shards,
            }) as Box<dyn PowerPolicy>;
            (
                s,
                source,
                policy,
                plan.local_map(file_to_disk, s),
                plan.shard_fleet(s),
                log_tx,
                folder.is_some().then(|| win_tx.clone()),
            )
        })
        .collect();
    // Only the shards hold senders, so the fold below ends when the last
    // shard finishes draining (or fails).
    drop(win_tx);
    let (results, merged_log): (
        Vec<Result<Simulator<'a, ShardReceiver>, SimError>>,
        MergedLog,
    ) = std::thread::scope(|scope| {
        scope.spawn(move || pump.run(file_to_disk));
        // The merger terminates once every shard's sender is dropped —
        // `run_drained` drops it on success (writer flush) and on error
        // (the writer is dropped with the engine), so joining it inside
        // the scope cannot deadlock.
        let merger = merger_sink
            .take()
            .map(|sink| scope.spawn(move || merge_streams(log_rxs, sink)));
        let handles: Vec<_> = jobs
            .into_iter()
            .map(
                |(s, source, policy, local_map, shard_fleet, log_tx, window_tx)| {
                    scope.spawn(move || {
                        Simulator::run_drained(
                            catalog,
                            source,
                            local_map,
                            cfg,
                            shard_fleet,
                            fleet,
                            s,
                            shards,
                            policy,
                            log_tx,
                            window_tx,
                        )
                    })
                },
            )
            .collect();
        if let Some(folder) = folder.as_mut() {
            for (s, partial) in win_rx.iter() {
                folder.push(s, partial);
            }
        }
        let results = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        let merged_log = merger.map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        (results, merged_log)
    });
    let mut sims = Vec::with_capacity(shards);
    for r in results {
        sims.push(r?);
    }
    // The shards' event sets partition the unsharded run's events, so the
    // common end time is exactly the unsharded `horizon.max(last event)`.
    let t_end = sims.iter().fold(sims[0].source_horizon(), |acc, s| {
        acc.max(s.last_event_time())
    });
    let shard_log_peak: usize = sims.iter().map(|s| s.completion_peak()).sum();
    let windows = folder.map(|mut folder| {
        for (s, sim) in sims.iter_mut().enumerate() {
            for partial in sim.take_tail_partials(t_end) {
                folder.push(s, partial);
            }
        }
        WindowedReport {
            width_s: cfg.windows.expect("a folder implies windows"),
            faulted: !cfg.faults.is_none(),
            rows: folder.finish(),
        }
    });
    let mut reports = Vec::with_capacity(shards);
    for sim in sims {
        reports.push(sim.finish_at(t_end)?);
    }
    let log = match merged_log {
        None => None,
        Some(Ok((sink, merger_peak))) => {
            let (completions, summary) = sink.finish(shard_log_peak + merger_peak)?;
            Some((completions, summary))
        }
        Some(Err(e)) => return Err(e.into()),
    };
    Ok(merge_reports(cfg, fleet, shards, reports, log, windows))
}

/// Reassemble per-shard reports into the fleet report, in ascending global
/// disk order (see the module docs for why this reproduces the unsharded
/// float operations exactly).
fn merge_reports(
    cfg: &SimConfig,
    fleet: usize,
    shards: usize,
    reports: Vec<SimReport>,
    log: Option<(Option<Vec<Completion>>, CompletionLogSummary)>,
    windows: Option<WindowedReport>,
) -> SimReport {
    struct Parts {
        energy: std::vec::IntoIter<EnergyBreakdown>,
        responses: std::vec::IntoIter<ResponseStats>,
        served: std::vec::IntoIter<u64>,
        cache_rows: Option<std::vec::IntoIter<Vec<CacheStats>>>,
    }
    let sim_time_s = reports[0].sim_time_s;
    let mut spin_downs = 0u64;
    let mut spin_ups = 0u64;
    let mut per_shard_event_peaks = Vec::with_capacity(shards);
    let mut peak_disk_queue = 0usize;
    // Cache counters: a global-scope hierarchy partitions by file across
    // shards, so its aggregate and per-tier counters sum tier-then-shard
    // here; per-disk-scope rows are reassembled in ascending global-disk
    // order below and the aggregates re-derived from them — the energy
    // fold discipline. Integer counters commute, so both folds equal the
    // unsharded run's counters exactly.
    let mut cache: Option<CacheStats> = None;
    let mut cache_tiers: Option<Vec<CacheStats>> = None;
    // Availability counters are exact integer sums; per-disk downtimes are
    // reassembled in global disk order below (like the energy breakdowns);
    // degraded-response collectors merge in shard order — bucket counts
    // commute, so histogram-mode quantiles are shard-invariant.
    let mut availability: Option<AvailabilityStats> = None;
    let mut downtime_parts: Vec<std::vec::IntoIter<f64>> = Vec::new();
    let mut parts: Vec<Parts> = Vec::with_capacity(shards);
    let per_disk_scope = reports.iter().any(|r| r.per_disk_cache_tiers.is_some());
    for r in reports {
        debug_assert_eq!(r.sim_time_s, sim_time_s, "shards share one end time");
        spin_downs += r.spin_downs;
        spin_ups += r.spin_ups;
        per_shard_event_peaks.extend(r.per_shard_event_peaks);
        peak_disk_queue = peak_disk_queue.max(r.peak_disk_queue);
        if !per_disk_scope {
            if let Some(shard_cache) = r.cache {
                cache
                    .get_or_insert_with(Default::default)
                    .absorb(&shard_cache);
            }
            if let Some(shard_tiers) = r.cache_tiers {
                let merged =
                    cache_tiers.get_or_insert_with(|| vec![Default::default(); shard_tiers.len()]);
                for (t, s) in merged.iter_mut().zip(shard_tiers) {
                    t.absorb(&s);
                }
            }
        }
        if let Some(a) = r.availability {
            let merged = availability.get_or_insert_with(|| AvailabilityStats {
                degraded: ResponseStats::with_mode(cfg.metrics),
                ..Default::default()
            });
            merged.arrivals += a.arrivals;
            merged.completed += a.completed;
            merged.retried += a.retried;
            merged.shed += a.shed;
            merged.failed += a.failed;
            merged.wake_failures += a.wake_failures;
            merged.crashes += a.crashes;
            merged.in_flight += a.in_flight;
            merged.degraded.merge(&a.degraded);
            downtime_parts.push(a.per_disk_downtime_s.into_iter());
        }
        parts.push(Parts {
            energy: r.per_disk_energy.into_iter(),
            responses: r.per_disk_responses.into_iter(),
            served: r.per_disk_served.into_iter(),
            cache_rows: r.per_disk_cache_tiers.map(Vec::into_iter),
        });
    }
    if let Some(a) = availability.as_mut() {
        debug_assert_eq!(downtime_parts.len(), shards, "faults run on every shard");
        a.per_disk_downtime_s = (0..fleet)
            .map(|d| {
                downtime_parts[d % shards]
                    .next()
                    .expect("shard tracked its disk's downtime")
            })
            .collect();
        a.recompute_availability(fleet, sim_time_s);
    }
    let mut fleet_energy = EnergyBreakdown::default();
    let mut per_disk_energy = Vec::with_capacity(fleet);
    let mut per_disk_responses = Vec::with_capacity(fleet);
    let mut per_disk_served = Vec::with_capacity(fleet);
    let mut per_disk_cache_tiers: Option<Vec<Vec<CacheStats>>> =
        per_disk_scope.then(|| Vec::with_capacity(fleet));
    let mut responses = ResponseStats::with_mode(cfg.metrics);
    // Local actor indices ascend with the global disk id within a shard, so
    // popping each shard's vectors front-to-front in global order lands
    // every per-disk entry at its global index.
    for d in 0..fleet {
        let p = &mut parts[d % shards];
        let e = p.energy.next().expect("shard simulated its disk");
        let r = p.responses.next().expect("shard simulated its disk");
        let s = p.served.next().expect("shard simulated its disk");
        fleet_energy.merge(&e);
        responses.merge(&r);
        per_disk_energy.push(e);
        per_disk_responses.push(r);
        per_disk_served.push(s);
        if let Some(rows) = per_disk_cache_tiers.as_mut() {
            let row = p
                .cache_rows
                .as_mut()
                .expect("per-disk scope on every shard")
                .next()
                .expect("shard tracked its disk's cache slice");
            // Re-derive the aggregates in ascending global-disk order —
            // the same fold the unsharded finish performs over its
            // slices (per-disk aggregate: hits/bytes/oversize sum over
            // tiers, misses are the deepest tier's).
            let agg = cache.get_or_insert_with(Default::default);
            let tiers = cache_tiers.get_or_insert_with(|| vec![Default::default(); row.len()]);
            for (i, t) in row.iter().enumerate() {
                agg.hits += t.hits;
                agg.resident_bytes += t.resident_bytes;
                agg.evicted_bytes += t.evicted_bytes;
                agg.oversize_rejections += t.oversize_rejections;
                if i + 1 == row.len() {
                    agg.misses += t.misses;
                }
                tiers[i].absorb(t);
            }
            rows.push(row);
        }
    }
    let (completions, completion_log) = match log {
        None => (None, None),
        Some((completions, summary)) => (completions, Some(summary)),
    };
    SimReport {
        sim_time_s,
        energy: fleet_energy,
        per_disk_energy,
        responses,
        per_disk_responses,
        completions,
        completion_log,
        spin_downs,
        spin_ups,
        cache,
        cache_tiers,
        per_disk_cache_tiers,
        disks: fleet,
        per_disk_served,
        per_shard_event_peaks,
        peak_disk_queue,
        availability,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{CacheHierarchyConfig, CacheScope};

    #[test]
    fn effective_shards_clamps_and_falls_back() {
        let cfg = SimConfig::paper_default().with_shards(4);
        assert_eq!(effective_shards(&cfg, 8), 4);
        assert_eq!(effective_shards(&cfg, 3), 3, "clamped to the fleet");
        assert_eq!(effective_shards(&cfg, 0), 1, "zero fleet runs unsharded");
        assert_eq!(effective_shards(&SimConfig::paper_default(), 8), 1);
        let global = cfg
            .clone()
            .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()));
        assert_eq!(
            effective_shards(&global, 8),
            4,
            "global-scope hierarchies shard by partitioned budget"
        );
        let per_disk = cfg.clone().with_cache_hierarchy(Some(
            CacheHierarchyConfig::paper_16gb().with_scope(CacheScope::PerDisk),
        ));
        assert_eq!(
            effective_shards(&per_disk, 8),
            4,
            "per-disk slices shard freely"
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
    fn local_maps_cover_every_mapped_file_once() {
        let file_to_disk = vec![0usize, 3, 1, 4, 2, usize::MAX, 0];
        let plan = ShardPlan {
            shards: 2,
            fleet: 5,
        };
        let maps: Vec<Vec<usize>> = (0..2).map(|s| plan.local_map(&file_to_disk, s)).collect();
        for (f, &d) in file_to_disk.iter().enumerate() {
            let owners: Vec<usize> = (0..2).filter(|&s| maps[s][f] != usize::MAX).collect();
            if d == usize::MAX {
                assert!(owners.is_empty(), "unmapped file {f} owned");
            } else {
                assert_eq!(owners, vec![d % 2], "file {f}");
                assert_eq!(maps[d % 2][f], d / 2, "file {f} local index");
            }
        }
    }

    /// A probe recording every callback's disk id.
    struct Probe {
        seen: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl PowerPolicy for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn settled(&mut self, disk: usize, _level: u8, _t: f64) -> Option<DescentStep> {
            self.seen.lock().unwrap().push(disk);
            None
        }
        fn request_arrived(&mut self, disk: usize, _t: f64) {
            self.seen.lock().unwrap().push(disk);
        }
        fn descent_started(&mut self, disk: usize, _t: f64, _to_level: u8) {
            self.seen.lock().unwrap().push(disk);
        }
    }

    #[test]
    fn global_ids_translates_local_actor_indices() {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut wrapped = GlobalIds {
            inner: Box::new(Probe { seen: seen.clone() }),
            shard: 2,
            stride: 3,
        };
        wrapped.settled(0, 0, 0.0);
        wrapped.request_arrived(1, 1.0);
        wrapped.descent_started(4, 2.0, 1);
        assert_eq!(*seen.lock().unwrap(), vec![2, 5, 14], "local i → i*3 + 2");
        assert_eq!(wrapped.name(), "probe");
    }
}
