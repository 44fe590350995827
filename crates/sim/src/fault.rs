//! Runtime state for seeded deterministic fault injection.
//!
//! The [`FaultPlan`](spindown_workload::FaultPlan) (parsed in
//! `spindown_workload::fault`) *describes* a failure regime; this module
//! holds the *live* per-engine state the event loop consults — per-disk RNG
//! streams, crash schedules, retry ledgers, downtime clocks and the
//! availability counters that end up in
//! [`AvailabilityStats`](crate::metrics::AvailabilityStats).
//!
//! ## Determinism and shard invariance
//!
//! Every random draw comes from a per-disk `SmallRng` seeded from the
//! plan's seed combined with the disk's **global** id, and every draw
//! happens at an event on that disk's own timeline (a spin-up completion,
//! a service completion). Disk trajectories are independent of each other,
//! so a sharded run — where each shard owns a strided subset of the fleet
//! — makes exactly the same draws at exactly the same simulated times as
//! the unsharded run, and merged reports stay bit-identical across shard
//! counts.
//!
//! ## The no-fault fast path
//!
//! An engine whose config carries `FaultPlan::none()` never constructs a
//! `FaultRuntime` at all: every hook in the event loop is behind an
//! `Option` check, so the no-fault replay executes the identical sequence
//! of floating-point operations it did before fault injection existed.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use spindown_workload::{FailSlowSpec, FaultPlan};

use crate::engine::Placement;
use crate::metrics::{AvailabilityStats, MetricsMode, ResponseStats};

/// Per-disk seed spread: the same golden-ratio multiplier the stochastic
/// policies use to derive independent per-disk streams from one seed.
pub(crate) const DISK_SEED_SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A transiently-failed request waiting out its backoff before re-entering
/// its disk's queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRetry {
    /// When the backoff expires.
    pub fire: f64,
    /// Trace index of the request.
    pub req: usize,
    /// Request size, bytes.
    pub bytes: u64,
    /// The *original* arrival stamp — response time spans every retry.
    pub arrival: f64,
    /// Platter-position proxy (file index).
    pub pos: u32,
}

/// A shard's fault counters: the integer half of [`AvailabilityStats`].
/// The driver sums them over shards.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FaultCounts {
    /// Requests consumed from the source.
    pub arrivals: u64,
    /// Response samples recorded (cache hits included).
    pub completed: u64,
    /// Transient retries performed.
    pub retried: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests dropped after exhausting the retry budget.
    pub failed: u64,
    /// Failed spin-up attempts.
    pub wake_failures: u64,
    /// Fail-stop crashes applied.
    pub crashes: u64,
    /// Requests still queued or awaiting a retry at the end.
    pub in_flight: u64,
}

impl FaultCounts {
    /// Add another shard's counters.
    pub fn add(&mut self, o: &FaultCounts) {
        self.arrivals += o.arrivals;
        self.completed += o.completed;
        self.retried += o.retried;
        self.shed += o.shed;
        self.failed += o.failed;
        self.wake_failures += o.wake_failures;
        self.crashes += o.crashes;
        self.in_flight += o.in_flight;
    }

    /// True when `arrivals == completed + shed + failed + in_flight`.
    pub fn conservation_holds(&self) -> bool {
        self.arrivals == self.completed + self.shed + self.failed + self.in_flight
    }

    /// The fleet's availability block: these counters, the per-disk
    /// downtimes and degraded collector (each in global disk order), and
    /// the availability fraction over `disks` disks and `sim_time_s`.
    pub fn into_stats(
        self,
        per_disk_downtime_s: Vec<f64>,
        degraded: ResponseStats,
        disks: usize,
        sim_time_s: f64,
    ) -> AvailabilityStats {
        let mut stats = AvailabilityStats {
            arrivals: self.arrivals,
            completed: self.completed,
            retried: self.retried,
            shed: self.shed,
            failed: self.failed,
            wake_failures: self.wake_failures,
            crashes: self.crashes,
            in_flight: self.in_flight,
            per_disk_downtime_s,
            availability: 1.0,
            degraded,
        };
        stats.recompute_availability(disks, sim_time_s);
        stats
    }
}

/// One disk's fault outcome at the end of a run.
pub(crate) struct DiskFaults {
    /// Response times of its degraded completions.
    pub degraded: ResponseStats,
    /// Seconds it spent offline, an outage still open at the end included.
    pub downtime_s: f64,
}

/// Live fault-injection state for one engine instance (one shard, or the
/// whole fleet unsharded). All vectors are indexed by *local* disk id;
/// the engine's [`Placement`] names the global ones.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    /// One independent stream per local disk, seeded from the plan seed
    /// and the disk's global id.
    rngs: Vec<SmallRng>,
    /// Scheduled crash times per local disk, ascending.
    pub crash_times: Vec<Vec<f64>>,
    /// Fail-slow windows per local disk.
    failslow: Vec<Vec<FailSlowSpec>>,
    /// Whether the disk is currently offline.
    pub down: Vec<bool>,
    /// When the current outage started (meaningful while `down`).
    pub down_since: Vec<f64>,
    /// Completed outage seconds per disk.
    pub downtime: Vec<f64>,
    /// A crash landed mid-phase and waits for the next phase boundary.
    pub pending_crash: Vec<bool>,
    /// A repair completed mid-descent and waits for the disk to settle.
    pub pending_repair: Vec<bool>,
    /// Consecutive failed spin-up attempts on the current wake pile-up.
    pub wake_attempts: Vec<u32>,
    /// Do not retry a wake before this time (backoff hold).
    pub wake_hold_until: Vec<f64>,
    /// Completion time of the disk's last repair (0 if never crashed).
    pub last_repair: Vec<f64>,
    /// Whether the in-flight service was stretched by a fail-slow window.
    pub current_scaled: Vec<bool>,
    /// Transient-retry attempts per in-flight request, keyed by trace
    /// index, which is unique within an engine (entries are dropped on
    /// completion or budget exhaustion). An ordered map, so a lookup
    /// hashes nothing: a retried request waits out the whole backlog, so
    /// on an overloaded fleet a few are nearly always in flight and most
    /// completions search a map of a handful of keys. With none in
    /// flight a completion pays one branch.
    pub attempts: BTreeMap<usize, u32>,
    /// Requests waiting out a transient backoff, per disk.
    pub pending_retries: Vec<Vec<PendingRetry>>,
    /// Degraded-mode response collectors, one per local disk; the driver
    /// merges every shard's in global disk order, so the statistic is
    /// bit-identical at every shard count.
    pub degraded: Vec<ResponseStats>,
    /// The outcome counters; the engine fills in arrivals, completions
    /// and in-flight requests at the end.
    pub counts: FaultCounts,
}

impl FaultRuntime {
    /// Build the runtime for the `fleet` local disks of an engine placed
    /// at `place` in the global fleet.
    pub fn new(plan: &FaultPlan, fleet: usize, place: Placement, mode: MetricsMode) -> Self {
        let rngs = (0..fleet)
            .map(|d| {
                SmallRng::seed_from_u64(
                    plan.seed
                        .wrapping_add((place.global(d) as u64).wrapping_mul(DISK_SEED_SPREAD)),
                )
            })
            .collect();
        // The replay rejects clauses naming disks outside the global fleet
        // before building this runtime (`SimError::FaultDiskOutOfRange`),
        // so every clause this shard owns lands on one of its local disks.
        let mut crash_times = vec![Vec::new(); fleet];
        for c in &plan.crashes {
            if let Some(d) = place.local(c.disk) {
                crash_times[d].push(c.at_s);
            }
        }
        for times in &mut crash_times {
            times.sort_by(f64::total_cmp);
        }
        let mut failslow = vec![Vec::new(); fleet];
        for f in &plan.failslow {
            if let Some(d) = place.local(f.disk) {
                failslow[d].push(*f);
            }
        }
        FaultRuntime {
            plan: plan.clone(),
            rngs,
            crash_times,
            failslow,
            down: vec![false; fleet],
            down_since: vec![0.0; fleet],
            downtime: vec![0.0; fleet],
            pending_crash: vec![false; fleet],
            pending_repair: vec![false; fleet],
            wake_attempts: vec![0; fleet],
            wake_hold_until: vec![0.0; fleet],
            last_repair: vec![0.0; fleet],
            current_scaled: vec![false; fleet],
            attempts: BTreeMap::new(),
            pending_retries: vec![Vec::new(); fleet],
            degraded: vec![ResponseStats::with_mode(mode); fleet],
            counts: FaultCounts::default(),
        }
    }

    /// The plan this runtime executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draw whether this service completion suffers a transient I/O error.
    pub fn draw_transient(&mut self, d: usize) -> bool {
        self.plan.transient_p > 0.0 && self.rngs[d].random_bool(self.plan.transient_p)
    }

    /// Draw whether this spin-up attempt fails.
    pub fn draw_wakefail(&mut self, d: usize) -> bool {
        self.plan.wakefail_p > 0.0 && self.rngs[d].random_bool(self.plan.wakefail_p)
    }

    /// The fail-slow factor covering time `t` on disk `d`, if any (the
    /// first matching window wins; factors do not compose).
    pub fn failslow_factor(&self, d: usize, t: f64) -> Option<f64> {
        self.failslow[d]
            .iter()
            .find(|f| f.covers(t))
            .map(|f| f.factor)
    }

    /// Whether admission control sheds an arrival given the disk's
    /// current queue length.
    pub fn sheds(&self, queue_len: usize) -> bool {
        self.plan.shed_watermark > 0 && queue_len >= self.plan.shed_watermark
    }

    /// Settle a completion on disk `d`: forget the request's retry count
    /// and classify it as degraded — it was retried, stretched by a
    /// fail-slow window, or arrived before the disk's last repair
    /// completed (i.e. waited through an outage).
    pub fn complete(&mut self, d: usize, req: usize, arrival: f64) -> bool {
        let retried = !self.attempts.is_empty() && self.attempts.remove(&req).is_some();
        retried || self.current_scaled[d] || arrival < self.last_repair[d]
    }

    /// Requests still queued nowhere visible to the actors: transient
    /// retries waiting out their backoff.
    pub fn pending_retry_count(&self) -> u64 {
        self.pending_retries.iter().map(|v| v.len() as u64).sum()
    }

    /// Close the books at `t_end`: the shard's counters and each disk's
    /// fault outcome, in local order. `arrivals` and `completed` are the
    /// engine's own counts (requests consumed, response samples
    /// recorded); `queued` counts requests still sitting in disk queues
    /// (a crashed-and-never-repaired disk keeps its backlog).
    pub fn into_parts(
        self,
        t_end: f64,
        arrivals: u64,
        completed: u64,
        queued: u64,
    ) -> (FaultCounts, Vec<DiskFaults>) {
        let counts = FaultCounts {
            arrivals,
            completed,
            in_flight: queued + self.pending_retry_count(),
            ..self.counts
        };
        let disks = self
            .degraded
            .into_iter()
            .enumerate()
            .map(|(d, degraded)| {
                let open = if self.down[d] {
                    (t_end - self.down_since[d]).max(0.0)
                } else {
                    0.0
                };
                DiskFaults {
                    degraded,
                    downtime_s: self.downtime[d] + open,
                }
            })
            .collect();
        (counts, disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindown_workload::FaultPlan;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    fn at(shard: usize, stride: usize) -> Placement {
        Placement { shard, stride }
    }

    #[test]
    fn crash_and_failslow_specs_land_on_the_owning_shard() {
        let p = plan("crash@t=500:d7 | failslow:d3:x4@200..900");
        // Unsharded: disk 7 crashes, disk 3 slows.
        let rt = FaultRuntime::new(&p, 10, at(0, 1), MetricsMode::Exact);
        assert_eq!(rt.crash_times[7], vec![500.0]);
        assert!(rt.crash_times[3].is_empty());
        assert_eq!(rt.failslow_factor(3, 200.0), Some(4.0));
        assert_eq!(rt.failslow_factor(3, 900.0), None, "half-open window");
        assert_eq!(rt.failslow_factor(7, 500.0), None);
        // Sharded S=2: global disk 7 lives on shard 1 as local 3; global
        // disk 3 on shard 1 as local 1.
        let s1 = FaultRuntime::new(&p, 5, at(1, 2), MetricsMode::Exact);
        assert_eq!(s1.crash_times[3], vec![500.0]);
        assert_eq!(s1.failslow_factor(1, 300.0), Some(4.0));
        let s0 = FaultRuntime::new(&p, 5, at(0, 2), MetricsMode::Exact);
        assert!(s0.crash_times.iter().all(Vec::is_empty));
    }

    #[test]
    fn per_disk_streams_are_shard_invariant() {
        let p = plan("wakefail:p=0.5 | seed=42");
        let mut unsharded = FaultRuntime::new(&p, 8, at(0, 1), MetricsMode::Exact);
        let mut shard0 = FaultRuntime::new(&p, 4, at(0, 2), MetricsMode::Exact);
        let mut shard1 = FaultRuntime::new(&p, 4, at(1, 2), MetricsMode::Exact);
        for d in 0..8usize {
            let want: Vec<bool> = (0..16).map(|_| unsharded.draw_wakefail(d)).collect();
            let sharded = if d % 2 == 0 { &mut shard0 } else { &mut shard1 };
            let got: Vec<bool> = (0..16).map(|_| sharded.draw_wakefail(d / 2)).collect();
            assert_eq!(want, got, "disk {d}");
        }
    }

    #[test]
    fn zero_probability_draws_never_touch_the_rng() {
        let p = plan("crash@t=10:d0");
        let mut rt = FaultRuntime::new(&p, 1, at(0, 1), MetricsMode::Exact);
        assert!(!rt.draw_transient(0));
        assert!(!rt.draw_wakefail(0));
    }

    #[test]
    fn shed_watermark_gates_admission() {
        let p = plan("transient:p=0.1 | shed=4");
        let rt = FaultRuntime::new(&p, 1, at(0, 1), MetricsMode::Exact);
        assert!(!rt.sheds(3));
        assert!(rt.sheds(4));
        let no_shed = FaultRuntime::new(&plan("transient:p=0.1"), 1, at(0, 1), MetricsMode::Exact);
        assert!(!no_shed.sheds(1_000_000));
    }

    #[test]
    fn into_stats_accounts_open_outages_and_in_flight() {
        let p = plan("crash@t=100:d0 | mttr=300");
        let mut rt = FaultRuntime::new(&p, 2, at(0, 1), MetricsMode::Exact);
        rt.counts.shed = 1;
        rt.counts.failed = 1;
        rt.down[0] = true;
        rt.down_since[0] = 100.0;
        rt.downtime[1] = 50.0;
        rt.pending_retries[1].push(PendingRetry {
            fire: 500.0,
            req: 9,
            bytes: 1,
            arrival: 400.0,
            pos: 0,
        });
        let (counts, disks) = rt.into_parts(400.0, 10, 6, 1);
        let downtimes: Vec<f64> = disks.iter().map(|d| d.downtime_s).collect();
        assert_eq!(downtimes, vec![300.0, 50.0]);
        let stats = counts.into_stats(downtimes, ResponseStats::exact(), 2, 400.0);
        assert_eq!((stats.arrivals, stats.completed), (10, 6));
        assert_eq!(stats.in_flight, 2, "one queued + one pending retry");
        assert!(stats.conservation_holds());
        // 350 s of downtime over 2 disks × 400 s.
        assert!((stats.availability - (1.0 - 350.0 / 800.0)).abs() < 1e-12);
    }
}
