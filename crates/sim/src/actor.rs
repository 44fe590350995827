//! Per-disk simulation actor: a discipline-ordered request queue plus the
//! validated power state machine and service timing from `spindown-disk`.

use spindown_disk::energy::EnergyBreakdown;
use spindown_disk::mechanics::ServiceTimer;
use spindown_disk::power::power_of;
use spindown_disk::state::{DiskStateMachine, TransitionError};
use spindown_disk::{DiskSpec, PowerState};

use crate::discipline::{DisciplineChoice, Popped, RequestQueue, ELEVATOR_SEEK_FACTOR};
use crate::metrics::MetricsMode;
use crate::windows::{DiskWindows, WindowPartial};

/// What the disk is doing, from the queueing perspective. Mirrors (and is
/// asserted against) the state machine's power state. Level-carrying
/// variants follow the power ladder: `Asleep(1)` is the two-state
/// ladder's standby, `Descending(1)`/`Waking(1)` its spin-down/spin-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Spun up, empty of work (ladder level 0).
    Idle,
    /// Serving a request.
    Busy,
    /// Entry transition into ladder level `l`.
    Descending(u8),
    /// Resident at power-saving ladder level `l`.
    Asleep(u8),
    /// Exit transition from level `l` back to idle.
    Waking(u8),
}

impl Phase {
    /// The resident ladder level of a settled phase (`Idle` = 0,
    /// `Asleep(l)` = `l`); `None` while busy or transitioning.
    pub fn settled_level(self) -> Option<u8> {
        match self {
            Phase::Idle => Some(0),
            Phase::Asleep(l) => Some(l),
            _ => None,
        }
    }
}

/// One simulated disk.
#[derive(Debug)]
pub struct DiskActor {
    machine: DiskStateMachine,
    timer: ServiceTimer,
    phase: Phase,
    /// Pending requests, ordered by the configured queue discipline.
    queue: RequestQueue,
    /// The request currently in service.
    pub current: Option<usize>,
    /// Arrival time of the in-flight request, tracked so the engine can
    /// compute its response time without indexing back into a materialised
    /// trace (streamed sources have none). Set by [`DiskActor::serve_next`].
    current_arrival: Option<f64>,
    /// Size of the in-flight request, kept so the engine's fault retry
    /// path can re-enqueue it verbatim. Set by [`DiskActor::serve_next`].
    current_bytes: u64,
    /// Platter-position proxy of the in-flight request (see
    /// `current_bytes`).
    current_pos: u64,
    /// The level the in-flight descent is heading for (meaningful only
    /// while `phase` is `Descending(_)`).
    descent_target: u8,
    /// Incremented every time the disk *becomes* idle; stale descent
    /// timers carry an older generation and are ignored.
    pub idle_generation: u64,
    served: u64,
    /// Windowed time-series collector, on only when `SimConfig::windows`
    /// is set. The actor charges energy into it immediately before every
    /// state-machine mutation (each mutation resets `state_entered_at`,
    /// so charging `[state_entered_at, now)` at the outgoing state's
    /// power covers the timeline exactly once); the engine feeds it
    /// completions, backlog observations and fault counters.
    windows: Option<DiskWindows>,
}

impl DiskActor {
    /// New actor, idle at time 0, serving its queue FIFO.
    pub fn new(spec: DiskSpec) -> Self {
        Self::with_discipline(spec, DisciplineChoice::Fifo)
    }

    /// New actor, idle at time 0, with an explicit queue discipline.
    pub fn with_discipline(spec: DiskSpec, discipline: DisciplineChoice) -> Self {
        let timer = ServiceTimer::new(&spec);
        DiskActor {
            machine: DiskStateMachine::new(spec, 0.0),
            timer,
            phase: Phase::Idle,
            queue: RequestQueue::new(discipline),
            current: None,
            current_arrival: None,
            current_bytes: 0,
            current_pos: 0,
            descent_target: 0,
            idle_generation: 0,
            served: 0,
            windows: None,
        }
    }

    /// Turn on the windowed time-series collector (see
    /// [`crate::windows`]). Must be called before the first event.
    pub fn enable_windows(&mut self, width_s: f64, mode: MetricsMode) {
        self.windows = Some(DiskWindows::new(width_s, mode));
    }

    /// Charge the window collector for the interval spent in the current
    /// power state, `[state_entered_at, now)`, minus what window closes
    /// already charged. Called immediately before every state-machine
    /// mutation, and once at the run's end before the last windows close,
    /// so the windowed energy integral covers the timeline exactly once,
    /// split across window boundaries.
    pub(crate) fn charge_windows(&mut self, now: f64) {
        if let Some(w) = self.windows.as_mut() {
            let from = self.machine.state_entered_at();
            if now > from {
                let power = power_of(self.machine.spec(), self.machine.state());
                w.add_energy(from, now, power);
            }
        }
    }

    /// Record a completed request's response sample into the window
    /// containing instant `t` (no-op with windows off).
    pub fn window_completion(&mut self, t: f64, response_s: f64) {
        if let Some(w) = self.windows.as_mut() {
            w.record_completion(t, response_s);
        }
    }

    /// Record a shed request at `t` (no-op with windows off).
    pub fn window_shed(&mut self, t: f64) {
        if let Some(w) = self.windows.as_mut() {
            w.record_shed(t);
        }
    }

    /// Record a permanently failed request at `t` (no-op with windows
    /// off).
    pub fn window_failed(&mut self, t: f64) {
        if let Some(w) = self.windows.as_mut() {
            w.record_failed(t);
        }
    }

    /// Record a scheduled retry at `t` (no-op with windows off).
    pub fn window_retried(&mut self, t: f64) {
        if let Some(w) = self.windows.as_mut() {
            w.record_retried(t);
        }
    }

    /// Observe the pending-queue depth at event instant `t` for the
    /// per-window backlog peak (no-op with windows off). Call sites
    /// mirror the run-level `peak_disk_queue` discipline: immediately
    /// after an enqueue.
    pub fn window_queue_observation(&mut self, t: f64) {
        let depth = self.queue.len();
        if let Some(w) = self.windows.as_mut() {
            w.observe_queue(t, depth);
        }
    }

    /// Retire this disk's oldest open window into `partial`. With
    /// `charge`, the current power state's energy up to the window's end
    /// is charged first (the boundary tick); without, the final interval
    /// was already charged by `charge_windows`. No-op with
    /// windows off.
    pub fn close_window(&mut self, charge: bool, partial: &mut WindowPartial) {
        if let Some(w) = self.windows.as_mut() {
            let open = charge.then(|| {
                (
                    self.machine.state_entered_at(),
                    power_of(self.machine.spec(), self.machine.state()),
                )
            });
            w.close_into(open, partial);
        }
    }

    /// Most window slots this disk has held open at once (0 with windows
    /// off).
    #[cfg(test)]
    pub(crate) fn peak_open_window_slots(&self) -> usize {
        self.windows
            .as_ref()
            .map_or(0, DiskWindows::peak_open_slots)
    }

    /// Current queueing phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The deepest ladder level of this disk's drive.
    pub fn deepest_level(&self) -> u8 {
        self.machine.deepest_level()
    }

    /// Requests completed so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Completed descent (spin-down) transition count.
    pub fn spin_downs(&self) -> u64 {
        self.machine.spin_downs()
    }

    /// Completed wake (spin-up) transition count.
    pub fn spin_ups(&self) -> u64 {
        self.machine.spin_ups()
    }

    /// The pending-request queue (push via [`DiskActor::enqueue`]).
    pub fn queue(&self) -> &RequestQueue {
        &self.queue
    }

    /// Number of pending (not in-flight) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when no request is pending in the queue.
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Add a pending request: trace index, size, arrival time and
    /// platter-position proxy (file index).
    pub fn enqueue(&mut self, req: usize, bytes: u64, arrival_s: f64, pos: u64) {
        self.queue.push(req, bytes, arrival_s, pos);
    }

    /// Pop the next request per the discipline and begin serving it at `t`;
    /// returns its completion time, or `None` when nothing is pending. Must
    /// be idle when the queue is non-empty.
    pub fn serve_next(&mut self, t: f64) -> Result<Option<f64>, TransitionError> {
        let Some(Popped { entry, amortised }) = self.queue.pop(t) else {
            return Ok(None);
        };
        let done = self.start_service(t, entry.req, entry.bytes, amortised)?;
        self.current_arrival = Some(entry.arrival_s);
        self.current_bytes = entry.bytes;
        self.current_pos = entry.pos;
        Ok(Some(done))
    }

    /// Arrival time of the in-flight request, when it was dispatched
    /// through [`DiskActor::serve_next`] (direct [`DiskActor::start_service`]
    /// callers bypass the queue and carry no arrival).
    pub fn current_arrival(&self) -> Option<f64> {
        self.current_arrival
    }

    /// Size of the in-flight request (meaningful while `Busy`, for the
    /// engine's fault retry path).
    pub fn current_bytes(&self) -> u64 {
        self.current_bytes
    }

    /// Platter-position proxy of the in-flight request (meaningful while
    /// `Busy`, for the engine's fault retry path).
    pub fn current_pos(&self) -> u64 {
        self.current_pos
    }

    /// Begin serving request `req` for `bytes` bytes at time `t`; returns
    /// the completion time. Must be idle. `amortised` requests ride an
    /// elevator batch and pay [`ELEVATOR_SEEK_FACTOR`] of the average seek.
    pub fn start_service(
        &mut self,
        t: f64,
        req: usize,
        bytes: u64,
        amortised: bool,
    ) -> Result<f64, TransitionError> {
        assert_eq!(self.phase, Phase::Idle, "start_service requires Idle");
        let mut b = self.timer.breakdown(bytes);
        if amortised {
            b.seek_s *= ELEVATOR_SEEK_FACTOR;
        }
        self.charge_windows(t);
        self.machine.transition(t, PowerState::Seek)?;
        // Rotation is charged at active power together with the transfer.
        self.charge_windows(t + b.seek_s);
        self.machine.transition(t + b.seek_s, PowerState::Active)?;
        self.phase = Phase::Busy;
        self.current = Some(req);
        self.current_arrival = None; // serve_next fills it in from the queue
        Ok(t + b.total())
    }

    /// Finish the in-flight request at `t`; returns its index.
    pub fn complete_service(&mut self, t: f64) -> Result<usize, TransitionError> {
        assert_eq!(self.phase, Phase::Busy, "no request in flight");
        self.charge_windows(t);
        self.machine.transition(t, PowerState::Idle)?;
        self.phase = Phase::Idle;
        self.idle_generation += 1;
        self.served += 1;
        self.current_arrival = None;
        Ok(self.current.take().expect("busy implies current"))
    }

    /// Begin descending one level toward `target` at `t` (must be settled
    /// at a level shallower than `target`); returns the completion time of
    /// the first entry transition. Targets beyond the drive's ladder are
    /// clamped to its deepest level.
    pub fn begin_descend(&mut self, t: f64, target: u8) -> Result<f64, TransitionError> {
        let target = target.min(self.deepest_level());
        let here = self
            .phase
            .settled_level()
            .unwrap_or_else(|| panic!("descend requires a settled phase, was {:?}", self.phase));
        assert!(here < target, "descend {here} -> {target} goes nowhere");
        self.charge_windows(t);
        let done = self.machine.begin_descend(t)?;
        self.phase = Phase::Descending(here + 1);
        self.descent_target = target;
        Ok(done)
    }

    /// Begin spinning all the way down at `t` (must be idle); returns the
    /// completion time of the first entry transition. The two-state
    /// ladder's whole spin-down; deeper ladders continue step by step.
    pub fn begin_spin_down(&mut self, t: f64) -> Result<f64, TransitionError> {
        assert_eq!(self.phase, Phase::Idle, "spin-down requires Idle");
        self.begin_descend(t, self.deepest_level())
    }

    /// A descent step completed at `t`: the disk is now resident one level
    /// deeper. Returns the level settled at.
    pub fn complete_descend(&mut self, t: f64) -> Result<u8, TransitionError> {
        let Phase::Descending(level) = self.phase else {
            panic!("complete_descend in phase {:?}", self.phase);
        };
        self.charge_windows(t);
        self.machine.transition(t, PowerState::Sleeping(level))?;
        self.phase = Phase::Asleep(level);
        Ok(level)
    }

    /// Whether the in-flight descent has further levels to go after
    /// settling at `level`.
    pub fn descent_target(&self) -> u8 {
        self.descent_target
    }

    /// Spin-down (descent step) completed at `t` — the two-state name for
    /// [`DiskActor::complete_descend`].
    pub fn complete_spin_down(&mut self, t: f64) -> Result<(), TransitionError> {
        self.complete_descend(t).map(|_| ())
    }

    /// Begin waking at `t` (must be asleep at some level); returns
    /// completion time — deeper levels take longer to exit.
    pub fn begin_spin_up(&mut self, t: f64) -> Result<f64, TransitionError> {
        let Phase::Asleep(level) = self.phase else {
            panic!("spin-up requires Asleep, was {:?}", self.phase);
        };
        self.charge_windows(t);
        let done = self.machine.begin_spin_up(t)?;
        self.phase = Phase::Waking(level);
        Ok(done)
    }

    /// Wake completed at `t`; the disk is idle again. Everything that
    /// accumulated while the disk was asleep or waking is frozen into one
    /// elevator batch (a no-op for other disciplines).
    pub fn complete_spin_up(&mut self, t: f64) -> Result<(), TransitionError> {
        assert!(
            matches!(self.phase, Phase::Waking(_)),
            "complete_spin_up in phase {:?}",
            self.phase
        );
        self.charge_windows(t);
        self.machine.transition(t, PowerState::Idle)?;
        self.phase = Phase::Idle;
        self.idle_generation += 1;
        self.queue.freeze_wake_batch();
        Ok(())
    }

    /// A spin-up attempt failed at its completion time `t`: the drive
    /// falls back asleep at the level it was waking from. Energy for the
    /// attempted exit transition stays charged; the wake batch is *not*
    /// frozen and the idle generation does not move (the disk never became
    /// idle). Returns the level fallen back to.
    pub fn fail_spin_up(&mut self, t: f64) -> Result<u8, TransitionError> {
        assert!(
            matches!(self.phase, Phase::Waking(_)),
            "fail_spin_up in phase {:?}",
            self.phase
        );
        self.charge_windows(t);
        let level = self.machine.fail_spin_up(t)?;
        self.phase = Phase::Asleep(level);
        Ok(level)
    }

    /// Close the books at `t_end` and return the energy breakdown.
    pub fn finish(self, t_end: f64) -> Result<EnergyBreakdown, TransitionError> {
        self.machine.finish(t_end)
    }

    /// The service timer (for computing expected times in tests/analyses).
    pub fn service_timer(&self) -> &ServiceTimer {
        &self.timer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windows::{fold_row, is_closed_by, last_window, WindowRow};
    use spindown_disk::{PowerLadder, MB};

    fn actor() -> DiskActor {
        DiskActor::new(DiskSpec::seagate_st3500630as())
    }

    fn three_level_actor() -> DiskActor {
        let mut spec = DiskSpec::seagate_st3500630as();
        spec.ladder = Some(PowerLadder::with_low_rpm(&spec));
        DiskActor::new(spec)
    }

    #[test]
    fn service_lifecycle() {
        let mut a = actor();
        let done = a.start_service(10.0, 0, 72 * MB, false).unwrap();
        // 72 MB at 72 MB/s = 1 s + positioning
        assert!((done - (10.0 + 1.0 + 0.0085 + 0.00416)).abs() < 1e-9);
        assert_eq!(a.phase(), Phase::Busy);
        let req = a.complete_service(done).unwrap();
        assert_eq!(req, 0);
        assert_eq!(a.phase(), Phase::Idle);
        assert_eq!(a.served(), 1);
    }

    #[test]
    fn power_cycle_lifecycle() {
        let mut a = actor();
        let down = a.begin_spin_down(100.0).unwrap();
        assert_eq!(down, 110.0);
        a.complete_spin_down(down).unwrap();
        assert_eq!(a.phase(), Phase::Asleep(1));
        let up = a.begin_spin_up(200.0).unwrap();
        assert_eq!(up, 215.0);
        a.complete_spin_up(up).unwrap();
        assert_eq!(a.phase(), Phase::Idle);
        assert_eq!(a.spin_downs(), 1);
        assert_eq!(a.spin_ups(), 1);
    }

    #[test]
    fn ladder_descent_step_by_step_with_early_wake() {
        let mut a = three_level_actor();
        assert_eq!(a.deepest_level(), 2);
        let lad = PowerLadder::with_low_rpm(&DiskSpec::seagate_st3500630as());
        // First step of a full descent lands at level 1.
        let d1 = a.begin_descend(100.0, 2).unwrap();
        assert!((d1 - (100.0 + lad.level(1).entry_time_s)).abs() < 1e-12);
        assert_eq!(a.phase(), Phase::Descending(1));
        assert_eq!(a.complete_descend(d1).unwrap(), 1);
        assert_eq!(a.phase(), Phase::Asleep(1));
        assert_eq!(a.descent_target(), 2);
        // Continue to level 2.
        let d2 = a.begin_descend(d1, 2).unwrap();
        assert_eq!(a.phase(), Phase::Descending(2));
        assert_eq!(a.complete_descend(d2).unwrap(), 2);
        assert_eq!(a.phase(), Phase::Asleep(2));
        assert_eq!(a.spin_downs(), 2);
        // Wake straight from the deepest level; pays that level's exit.
        let up = a.begin_spin_up(500.0).unwrap();
        assert!((up - (500.0 + lad.level(2).exit_time_s)).abs() < 1e-12);
        a.complete_spin_up(up).unwrap();
        assert_eq!(a.spin_ups(), 1);
        assert_eq!(a.phase(), Phase::Idle);
    }

    #[test]
    fn descend_target_clamps_to_the_ladder() {
        let mut a = actor();
        let done = a.begin_descend(0.0, u8::MAX).unwrap();
        assert_eq!(a.phase(), Phase::Descending(1));
        a.complete_descend(done).unwrap();
        assert_eq!(a.descent_target(), 1);
        assert_eq!(a.phase(), Phase::Asleep(1));
    }

    #[test]
    fn idle_generation_bumps_on_each_idle_entry() {
        let mut a = actor();
        assert_eq!(a.idle_generation, 0);
        let done = a.start_service(0.0, 7, MB, false).unwrap();
        a.complete_service(done).unwrap();
        assert_eq!(a.idle_generation, 1);
        let d = a.begin_spin_down(100.0).unwrap();
        a.complete_spin_down(d).unwrap();
        let u = a.begin_spin_up(300.0).unwrap();
        a.complete_spin_up(u).unwrap();
        assert_eq!(a.idle_generation, 2);
    }

    #[test]
    #[should_panic(expected = "start_service requires Idle")]
    fn cannot_serve_while_busy() {
        let mut a = actor();
        a.start_service(0.0, 0, MB, false).unwrap();
        let _ = a.start_service(0.1, 1, MB, false);
    }

    #[test]
    #[should_panic(expected = "spin-down requires Idle")]
    fn cannot_spin_down_while_busy() {
        let mut a = actor();
        a.start_service(0.0, 0, MB, false).unwrap();
        let _ = a.begin_spin_down(0.1);
    }

    #[test]
    fn energy_accounts_for_each_phase() {
        let mut a = actor();
        let done = a.start_service(0.0, 0, 72 * MB, false).unwrap();
        a.complete_service(done).unwrap();
        let b = a.finish(done).unwrap();
        assert!((b.seconds_in(PowerState::Seek) - 0.0085).abs() < 1e-9);
        assert!((b.seconds_in(PowerState::Active) - (1.0 + 0.00416)).abs() < 1e-9);
        assert!((b.total_seconds() - done).abs() < 1e-9);
    }

    /// Close window `rows.len()` of a single-disk fleet and fold its row.
    fn close_row(a: &mut DiskActor, charge: bool, width: f64, rows: &mut Vec<WindowRow>) {
        let mut p = WindowPartial::new(rows.len(), MetricsMode::Exact);
        a.close_window(charge, &mut p);
        rows.push(fold_row(width, vec![p]));
    }

    #[test]
    fn windowed_energy_sums_to_the_breakdown_total() {
        let width = 64.0;
        let mut a = actor();
        a.enable_windows(width, MetricsMode::Exact);
        let mut rows = Vec::new();
        // Before each mutation instant, tick the boundary closes the
        // engine would run; then the final charge and the tail closes.
        let at = |a: &mut DiskActor, rows: &mut Vec<WindowRow>, t: f64| {
            while is_closed_by(width, rows.len(), t) {
                close_row(a, true, width, rows);
            }
        };
        at(&mut a, &mut rows, 0.0);
        let done = a.start_service(0.0, 0, 72 * MB, false).unwrap();
        at(&mut a, &mut rows, done);
        a.complete_service(done).unwrap();
        at(&mut a, &mut rows, 100.0);
        let d = a.begin_spin_down(100.0).unwrap();
        at(&mut a, &mut rows, d);
        a.complete_spin_down(d).unwrap();
        at(&mut a, &mut rows, 300.0);
        let u = a.begin_spin_up(300.0).unwrap();
        at(&mut a, &mut rows, u);
        a.complete_spin_up(u).unwrap();
        at(&mut a, &mut rows, 400.0);
        a.charge_windows(400.0);
        while rows.len() <= last_window(width, 400.0) {
            close_row(&mut a, false, width, &mut rows);
        }
        let b = a.finish(400.0).unwrap();
        assert_eq!(rows.len(), 7);
        let windowed: f64 = rows.iter().map(|r| r.energy_j).sum();
        assert!(
            (windowed - b.total_joules()).abs() < 1e-9 * b.total_joules().max(1.0),
            "windowed {windowed} vs breakdown {}",
            b.total_joules()
        );
    }

    /// Drive the actor's real service path (enqueue → serve_next →
    /// complete_service) and return the dispatch order.
    fn dispatch_order(a: &mut DiskActor, mut t: f64) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(done) = a.serve_next(t).unwrap() {
            order.push(a.complete_service(done).unwrap());
            t = done;
        }
        order
    }

    #[test]
    fn fifo_dispatches_in_arrival_order_through_the_service_path() {
        let mut a = actor();
        a.enqueue(3, 500 * MB, 0.0, 0);
        a.enqueue(4, MB, 0.1, 1);
        a.enqueue(5, 50 * MB, 0.2, 2);
        assert_eq!(dispatch_order(&mut a, 1.0), vec![3, 4, 5]);
        assert_eq!(a.served(), 3);
    }

    #[test]
    fn sjf_dispatches_smallest_first_through_the_service_path() {
        let spec = DiskSpec::seagate_st3500630as();
        let mut a = DiskActor::with_discipline(
            spec,
            DisciplineChoice::ShortestJobFirst {
                aging_bound_s: 1000.0,
            },
        );
        a.enqueue(0, 500 * MB, 0.0, 0);
        a.enqueue(1, MB, 0.1, 1);
        a.enqueue(2, 50 * MB, 0.2, 2);
        assert_eq!(dispatch_order(&mut a, 1.0), vec![1, 2, 0]);
    }

    #[test]
    fn sjf_aging_bound_dispatches_an_overdue_large_request_first() {
        let spec = DiskSpec::seagate_st3500630as();
        let mut a = DiskActor::with_discipline(
            spec,
            DisciplineChoice::ShortestJobFirst {
                aging_bound_s: 30.0,
            },
        );
        a.enqueue(0, 500 * MB, 0.0, 0);
        a.enqueue(1, MB, 35.0, 1);
        // At t = 40 the big request has waited 40 s ≥ the 30 s bound.
        assert_eq!(dispatch_order(&mut a, 40.0), vec![0, 1]);
    }

    #[test]
    fn elevator_wake_batch_dispatches_by_position_with_amortised_seek() {
        let spec = DiskSpec::seagate_st3500630as();
        let mut a = DiskActor::with_discipline(spec, DisciplineChoice::ElevatorBatch);
        let d = a.begin_spin_down(0.0).unwrap();
        a.complete_spin_down(d).unwrap();
        // Three requests pile up against the sleeping disk, positions out
        // of order.
        a.enqueue(0, 72 * MB, 20.0, 9);
        a.enqueue(1, 72 * MB, 21.0, 2);
        a.enqueue(2, 72 * MB, 22.0, 5);
        let up = a.begin_spin_up(20.0).unwrap();
        a.complete_spin_up(up).unwrap();
        // First batch member (lowest position) pays the full seek…
        let done1 = a.serve_next(up).unwrap().unwrap();
        assert_eq!(a.complete_service(done1).unwrap(), 1);
        assert!((done1 - up - (1.0 + 0.0085 + 0.00416)).abs() < 1e-9);
        // …followers pay the amortised seek.
        let done2 = a.serve_next(done1).unwrap().unwrap();
        assert_eq!(a.complete_service(done2).unwrap(), 2);
        assert!((done2 - done1 - (1.0 + 0.1 * 0.0085 + 0.00416)).abs() < 1e-9);
        let done3 = a.serve_next(done2).unwrap().unwrap();
        assert_eq!(a.complete_service(done3).unwrap(), 0);
        assert!((done3 - done2 - (1.0 + 0.1 * 0.0085 + 0.00416)).abs() < 1e-9);
        // Post-batch arrivals are back to full-seek FIFO.
        a.enqueue(3, 72 * MB, done3, 7);
        let done4 = a.serve_next(done3).unwrap().unwrap();
        assert_eq!(a.complete_service(done4).unwrap(), 3);
        assert!((done4 - done3 - (1.0 + 0.0085 + 0.00416)).abs() < 1e-9);
    }
}
