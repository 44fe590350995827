//! Windowed time-series metrics: tumbling windows that turn the end-of-run
//! aggregate into a per-window series, closed as the event clock passes
//! them so a windowed replay holds O(disks) window state however long it
//! runs.
//!
//! ## Collect, close, fold
//!
//! Every disk owns a [`DiskWindows`] collector, fed by the actor (energy,
//! split exactly across window boundaries) and the engine (completions,
//! backlog observations, fault counters) at event instants. It keeps one
//! slot per *open* window — in practice one, two while a service's seek
//! straddles a boundary.
//!
//! Before the engine dispatches anything at clock `t` it closes every
//! window the clock has passed ([`is_closed_by`]). Closing window `w`
//! charges each disk's open power state up to the window's end and moves
//! its slot into one [`WindowPartial`] per engine (per shard). The partial
//! pre-merges what commutes — bucket counts, count, min, max, peak
//! backlog, shed/failed/retried — and keeps per disk, in local order, what
//! does not: the histogram sum and the window energy (or the raw samples
//! in exact mode). [`fold_row`] then interleaves those per-disk values in
//! ascending *global* disk order (local `i` of shard `s` is global
//! `i·S + s`) and adds them up. Those are the same float additions, in
//! the same order, at every shard count: each engine pushes its partial
//! into the run's one fold (a mutex-guarded `RowFolder`), which folds
//! window `w` once every shard has pushed it, so the rows are
//! bit-identical however many shards pushed one.
//!
//! ## Window arithmetic
//!
//! Window `w` covers `[w·width, (w+1)·width)`. Two rules place instants:
//! samples and counters go to `floor(t / width)` ([`window_of`]); energy
//! segments end at the products `(w+1)·width`. The rules can disagree in
//! an ulp-wide sliver at a boundary, so a window closes only when both
//! say the clock is past it. An energy segment whose start already lies
//! at or past its window's product boundary (such a sliver) is charged
//! from the next window on.
//!
//! A run that finishes at `t_end` closes windows through
//! [`last_window`]`(t_end)` — `floor(t_end / width)`, so an event stamped
//! exactly `t_end` (the common sharded finish instant) always has a
//! window, and every shard agrees on the series length.
//!
//! Empty-window contract: a window with zero completions reports
//! `completions = 0` and mean/p95/p99 of `0.0` — never NaN — inheriting
//! the [`ResponseStats`] empty contract. Rendering layers print such rows
//! as explicit empties rather than skipping them, so the series stays
//! dense and machine-diffable.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::metrics::{MetricsMode, ResponseStats, StreamingHistogram};

/// Largest window count a run may ask for, `floor(horizon / width) + 1`.
/// The rows themselves stay resident (88 bytes each), so 2²⁰ windows is
/// about 92 MB of series: a `--window 1` request over a horizon of
/// several weeks, or a typo, is rejected up front with the computed
/// count instead of growing without bound.
pub const MAX_WINDOWS: usize = 1 << 20;

/// Index of the window containing instant `t`: the rule every sample and
/// counter is bucketed by.
pub fn window_of(width_s: f64, t: f64) -> usize {
    debug_assert!(t.is_finite() && t >= 0.0, "bad window instant {t}");
    (t / width_s) as usize
}

/// End instant (exclusive) of window `w`: the boundary energy segments
/// split at.
fn window_end(width_s: f64, w: usize) -> f64 {
    (w as f64 + 1.0) * width_s
}

/// Whether a clock at `t` has passed window `w` by both placement rules,
/// so nothing recorded at or after `t` can still land in it.
pub fn is_closed_by(width_s: f64, w: usize, t: f64) -> bool {
    window_end(width_s, w) <= t && window_of(width_s, t) > w
}

/// The last window of a run that ends at `t_end`: the one holding the
/// instant `t_end`, or the next one when an energy segment ending at
/// `t_end` crosses a boundary [`window_of`] has not yet reached.
pub fn last_window(width_s: f64, t_end: f64) -> usize {
    let w = window_of(width_s, t_end);
    w + usize::from(window_end(width_s, w) < t_end)
}

/// One open window of one disk.
#[derive(Debug, Clone)]
struct Slot {
    responses: ResponseStats,
    energy_j: f64,
    peak_queue: usize,
    shed: u64,
    failed: u64,
    retried: u64,
}

/// Per-disk tumbling-window collector: one slot per open window, each
/// tracking the energy charged into it, the responses completed in it,
/// the peak backlog observed at event instants within it, and (under
/// fault injection) shed/failed/retried counters.
///
/// Slots are contiguous from the oldest open window ([`Self::front`]).
/// [`Self::close_into`] retires the front slot into a [`WindowPartial`];
/// its cleared response collector is reused by the next slot opened.
#[derive(Debug, Clone)]
pub struct DiskWindows {
    width_s: f64,
    mode: MetricsMode,
    /// Window index of `slots[0]`.
    front: usize,
    slots: VecDeque<Slot>,
    /// The collector of the last closed slot, emptied, kept for its
    /// allocation.
    spare: Option<ResponseStats>,
    /// Energy cursor `(window, instant)`: a close has charged everything
    /// before the instant, and the next segment starts in the window.
    cursor: (usize, f64),
    peak_slots: usize,
}

impl DiskWindows {
    /// Empty collector with the given tumbling window width and
    /// response-aggregation mode. The width is validated once per run, up
    /// front (`SimError::InvalidWindows`).
    pub fn new(width_s: f64, mode: MetricsMode) -> Self {
        DiskWindows {
            width_s,
            mode,
            front: 0,
            slots: VecDeque::new(),
            spare: None,
            cursor: (0, 0.0),
            peak_slots: 0,
        }
    }

    /// Tumbling window width in seconds.
    pub fn width_s(&self) -> f64 {
        self.width_s
    }

    /// The oldest window still open (the next one [`Self::close_into`]
    /// retires).
    pub fn front(&self) -> usize {
        self.front
    }

    /// Most slots this collector has held open at once.
    #[cfg(test)]
    pub(crate) fn peak_open_slots(&self) -> usize {
        self.peak_slots
    }

    /// The slot of window `w`, opening it (and any window between) on
    /// first use.
    fn slot(&mut self, w: usize) -> &mut Slot {
        let k = w
            .checked_sub(self.front)
            .unwrap_or_else(|| panic!("window {w} is already closed"));
        while self.slots.len() <= k {
            let responses = self
                .spare
                .take()
                .unwrap_or_else(|| ResponseStats::with_mode(self.mode));
            self.slots.push_back(Slot {
                responses,
                energy_j: 0.0,
                peak_queue: 0,
                shed: 0,
                failed: 0,
                retried: 0,
            });
            self.peak_slots = self.peak_slots.max(self.slots.len());
        }
        &mut self.slots[k]
    }

    fn slot_at(&mut self, t: f64) -> &mut Slot {
        self.slot(window_of(self.width_s, t))
    }

    /// Record one completed request: bucketed by the instant `t` the
    /// engine records the response sample (arrival-processing time for
    /// cache hits, completion-event time for disk service).
    pub fn record_completion(&mut self, t: f64, response_s: f64) {
        self.slot_at(t).responses.record(response_s);
    }

    /// Record a shed request (fault injection) at instant `t`.
    pub fn record_shed(&mut self, t: f64) {
        self.slot_at(t).shed += 1;
    }

    /// Record a permanently failed request (fault injection) at `t`.
    pub fn record_failed(&mut self, t: f64) {
        self.slot_at(t).failed += 1;
    }

    /// Record a retried request (fault injection) at instant `t`.
    pub fn record_retried(&mut self, t: f64) {
        self.slot_at(t).retried += 1;
    }

    /// Observe the backlog depth at an event instant; the per-window
    /// figure is the peak over these observations (the same enqueue-site
    /// discipline as the run-level `peak_disk_queue`).
    pub fn observe_queue(&mut self, t: f64, depth: usize) {
        let slot = self.slot_at(t);
        slot.peak_queue = slot.peak_queue.max(depth);
    }

    /// Charge `power_w` watts over the part of `[from, to)` no close has
    /// charged yet, split exactly across window boundaries so each window
    /// integrates only the time spent inside it. `from` is when the power
    /// state began; the energy cursor skips what a close already charged.
    pub fn add_energy(&mut self, from: f64, to: f64, power_w: f64) {
        self.charge(from, to, power_w, usize::MAX);
    }

    /// The split loop behind [`Self::add_energy`], stopping after window
    /// `last`; returns where it stopped as `(next window, instant)`.
    fn charge(&mut self, from: f64, to: f64, power_w: f64, last: usize) -> (usize, f64) {
        let (mut w, mut t) = if from >= self.cursor.1 {
            (window_of(self.width_s, from), from)
        } else {
            self.cursor
        };
        while t < to && w <= last {
            let boundary = window_end(self.width_s, w);
            if boundary <= t {
                // `t` sits in window `w` by division but past its end by
                // multiplication: the segment belongs to the next window.
                w += 1;
                continue;
            }
            let seg_end = boundary.min(to);
            self.slot(w).energy_j += power_w * (seg_end - t);
            t = seg_end;
            w += 1;
        }
        (w, t)
    }

    /// Retire the front window into `partial` (which must be for that
    /// window). `open_state`, when given, is the disk's current power
    /// state `(entered_at, watts)`: its energy up to the window's end is
    /// charged first, exactly as the split loop would have charged it at
    /// the state's next change. Pass `None` once the final interval has
    /// already been charged (the run's end).
    pub fn close_into(&mut self, open_state: Option<(f64, f64)>, partial: &mut WindowPartial) {
        debug_assert_eq!(self.front, partial.window, "partial for another window");
        if let Some((from, power_w)) = open_state {
            let end = window_end(self.width_s, self.front);
            self.cursor = self.charge(from, end, power_w, self.front);
        }
        match self.slots.pop_front() {
            Some(mut slot) => {
                partial.add_disk(&mut slot);
                slot.responses.clear();
                self.spare = Some(slot.responses);
            }
            None => partial.add_empty_disk(),
        }
        self.front += 1;
    }
}

/// The per-disk response parts whose merge order matters, one entry per
/// disk in local order.
#[derive(Debug)]
enum DiskResponses {
    /// Histogram mode: the counts, min and max merged across the shard's
    /// disks (their sum is recomputed by the fold) plus each disk's sum.
    Hist {
        merged: StreamingHistogram,
        sums: Vec<f64>,
    },
    /// Exact mode: each disk's samples in recording order.
    Exact { samples: Vec<Vec<f64>> },
}

/// One engine's (one shard's) share of a closed window: what
/// [`fold_row`] needs from the engine's disks, in local disk order.
#[derive(Debug)]
pub struct WindowPartial {
    window: usize,
    responses: DiskResponses,
    energy_j: Vec<f64>,
    peak_queue: usize,
    shed: u64,
    failed: u64,
    retried: u64,
}

impl WindowPartial {
    /// Empty partial for window `window`; disks are added by
    /// [`DiskWindows::close_into`] in local order.
    pub fn new(window: usize, mode: MetricsMode) -> Self {
        let responses = match mode {
            MetricsMode::Histogram => DiskResponses::Hist {
                merged: StreamingHistogram::new(),
                sums: Vec::new(),
            },
            MetricsMode::Exact => DiskResponses::Exact {
                samples: Vec::new(),
            },
        };
        WindowPartial {
            window,
            responses,
            energy_j: Vec::new(),
            peak_queue: 0,
            shed: 0,
            failed: 0,
            retried: 0,
        }
    }

    fn add_disk(&mut self, slot: &mut Slot) {
        match &mut self.responses {
            DiskResponses::Hist { merged, sums } => {
                let h = slot.responses.histogram_mut().expect("histogram-mode slot");
                merged.merge(h);
                sums.push(h.sum());
            }
            DiskResponses::Exact { samples } => samples.push(slot.responses.take_samples()),
        }
        self.energy_j.push(slot.energy_j);
        self.peak_queue = self.peak_queue.max(slot.peak_queue);
        self.shed += slot.shed;
        self.failed += slot.failed;
        self.retried += slot.retried;
    }

    fn add_empty_disk(&mut self) {
        match &mut self.responses {
            DiskResponses::Hist { sums, .. } => sums.push(0.0),
            DiskResponses::Exact { samples } => samples.push(Vec::new()),
        }
        self.energy_j.push(0.0);
    }
}

/// Fold one window's partials — one per shard, in shard order — into the
/// fleet row. Per-disk sums and energies are added in ascending global
/// disk order (local `i` of shard `s` is global `i·S + s`), quantiles come
/// from the merged bucket counts, and exact-mode samples are concatenated
/// in global disk order. Every addition happens in the same order at any
/// shard count, so the row is bit-identical however the fleet was split.
///
/// # Panics
/// If `partials` is empty or its entries disagree on the window or the
/// metrics mode.
pub fn fold_row(width_s: f64, partials: Vec<WindowPartial>) -> WindowRow {
    let w = partials[0].window;
    assert!(
        partials.iter().all(|p| p.window == w),
        "partials from different windows"
    );
    let shards = partials.len();
    let disks: usize = partials.iter().map(|p| p.energy_j.len()).sum();
    let at = |d: usize| (&partials[d % shards], d / shards);
    let mut energy_j = 0.0;
    for d in 0..disks {
        let (p, i) = at(d);
        energy_j += p.energy_j[i];
    }
    let mut responses = match &partials[0].responses {
        DiskResponses::Hist { .. } => {
            let mut fleet = StreamingHistogram::new();
            let mut sum = 0.0;
            for p in &partials {
                let DiskResponses::Hist { merged, .. } = &p.responses else {
                    panic!("partials disagree on the metrics mode");
                };
                fleet.merge(merged);
            }
            for d in 0..disks {
                let (p, i) = at(d);
                if let DiskResponses::Hist { sums, .. } = &p.responses {
                    sum += sums[i];
                }
            }
            fleet.set_sum(sum);
            ResponseStats::from_histogram(fleet)
        }
        DiskResponses::Exact { .. } => {
            let mut all = Vec::new();
            for d in 0..disks {
                let (p, i) = at(d);
                let DiskResponses::Exact { samples } = &p.responses else {
                    panic!("partials disagree on the metrics mode");
                };
                all.extend_from_slice(&samples[i]);
            }
            ResponseStats::from_samples(all)
        }
    };
    WindowRow {
        start_s: w as f64 * width_s,
        end_s: window_end(width_s, w),
        completions: responses.len() as u64,
        mean_s: responses.mean(),
        p95_s: responses.quantile(0.95),
        p99_s: responses.quantile(0.99),
        energy_j,
        peak_queue: partials.iter().map(|p| p.peak_queue).max().unwrap_or(0),
        shed: partials.iter().map(|p| p.shed).sum(),
        failed: partials.iter().map(|p| p.failed).sum(),
        retried: partials.iter().map(|p| p.retried).sum(),
    }
}

/// An engine's window clock: the next window to close, and the run's one
/// fold, which takes each window this engine closes.
#[derive(Debug)]
pub(crate) struct WindowSeries<'a> {
    width_s: f64,
    mode: MetricsMode,
    shard: usize,
    front: usize,
    fold: &'a Mutex<RowFolder>,
}

impl<'a> WindowSeries<'a> {
    pub(crate) fn new(
        width_s: f64,
        mode: MetricsMode,
        shard: usize,
        fold: &'a Mutex<RowFolder>,
    ) -> Self {
        WindowSeries {
            width_s,
            mode,
            shard,
            front: 0,
            fold,
        }
    }

    pub(crate) fn width_s(&self) -> f64 {
        self.width_s
    }

    /// The instant from which the front window may close — the engine's
    /// one-compare gate.
    pub(crate) fn next_close(&self) -> f64 {
        window_end(self.width_s, self.front)
    }

    /// The next window to close.
    pub(crate) fn front(&self) -> usize {
        self.front
    }

    /// Whether a clock at `t` has passed the front window.
    pub(crate) fn due(&self, t: f64) -> bool {
        is_closed_by(self.width_s, self.front, t)
    }

    /// A fresh partial for the front window.
    pub(crate) fn partial(&self) -> WindowPartial {
        WindowPartial::new(self.front, self.mode)
    }

    /// Push the front window's partial into the fold and advance to the
    /// next window. The lock covers the push and any fold it completes.
    pub(crate) fn emit(&mut self, partial: WindowPartial) {
        self.fold
            .lock()
            .expect("another engine panicked while folding")
            .push(self.shard, partial);
        self.front += 1;
    }
}

/// The run's fold: collects each shard's partials in window order and
/// folds window `w` as soon as every shard has pushed it.
#[derive(Debug)]
pub(crate) struct RowFolder {
    width_s: f64,
    pending: Vec<VecDeque<WindowPartial>>,
    rows: Vec<WindowRow>,
}

impl RowFolder {
    pub(crate) fn new(width_s: f64, shards: usize) -> Self {
        RowFolder {
            width_s,
            pending: (0..shards).map(|_| VecDeque::new()).collect(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, shard: usize, partial: WindowPartial) {
        self.pending[shard].push_back(partial);
        while self.pending.iter().all(|q| !q.is_empty()) {
            let partials = self
                .pending
                .iter_mut()
                .map(|q| q.pop_front().expect("checked non-empty"))
                .collect();
            self.rows.push(fold_row(self.width_s, partials));
        }
    }

    pub(crate) fn finish(self) -> Vec<WindowRow> {
        debug_assert!(
            self.pending.iter().all(VecDeque::is_empty),
            "every shard closes the same windows"
        );
        self.rows
    }
}

/// One fleet-level window of the series. All quantities follow the
/// empty-window contract: a window with `completions == 0` reports zeros
/// (never NaN) for the response columns.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Window start instant (inclusive), `w * width`.
    pub start_s: f64,
    /// Window end instant (exclusive), `(w + 1) * width`. The final
    /// window's nominal end may extend past the run's `t_end`.
    pub end_s: f64,
    /// Requests whose response sample was recorded in this window.
    pub completions: u64,
    /// Mean response over the window's completions (0 when empty).
    pub mean_s: f64,
    /// 95th-percentile response over the window (0 when empty).
    pub p95_s: f64,
    /// 99th-percentile response over the window (0 when empty).
    pub p99_s: f64,
    /// Fleet energy integrated over the window, joules.
    pub energy_j: f64,
    /// Peak backlog depth observed at event instants in the window,
    /// maxed across disks.
    pub peak_queue: usize,
    /// Requests shed in the window (0 unless a fault plan is active).
    pub shed: u64,
    /// Requests permanently failed in the window (0 unless faulted).
    pub failed: u64,
    /// Retries scheduled in the window (0 unless faulted).
    pub retried: u64,
}

/// The windowed series attached to a [`crate::metrics::SimReport`] when
/// `SimConfig::windows` is set.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedReport {
    /// Tumbling window width in seconds.
    pub width_s: f64,
    /// True when a fault plan was active — the availability columns
    /// (completed/shed/failed/retried) are only rendered in this case.
    pub faulted: bool,
    /// Fleet-level series, one row per window, dense from `t = 0`.
    pub rows: Vec<WindowRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Close `disks`' front window as one engine would and fold it.
    fn close_and_fold(disks: &mut [DiskWindows], mode: MetricsMode) -> WindowRow {
        let mut p = WindowPartial::new(disks[0].front(), mode);
        for d in disks.iter_mut() {
            d.close_into(None, &mut p);
        }
        fold_row(disks[0].width_s(), vec![p])
    }

    fn energy_of(w: &mut DiskWindows, through: usize) -> Vec<f64> {
        (0..=through)
            .map(|_| close_and_fold(std::slice::from_mut(w), MetricsMode::Exact).energy_j)
            .collect()
    }

    #[test]
    fn energy_splits_exactly_across_boundaries() {
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        // 4 W over [5, 25): 5 s in window 0, 10 s in window 1, 5 s in
        // window 2 — all dyadic, so the split is bit-exact.
        w.add_energy(5.0, 25.0, 4.0);
        assert_eq!(w.peak_open_slots(), 3);
        assert_eq!(energy_of(&mut w, 2), vec![20.0, 40.0, 20.0]);
    }

    #[test]
    fn energy_segment_inside_one_window_does_not_split() {
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        w.add_energy(12.0, 18.0, 2.0);
        assert_eq!(w.peak_open_slots(), 2);
        assert_eq!(energy_of(&mut w, 1), vec![0.0, 12.0]);
    }

    #[test]
    fn empty_segment_charges_nothing() {
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        w.add_energy(5.0, 5.0, 100.0);
        assert_eq!(w.peak_open_slots(), 0);
    }

    #[test]
    fn close_charges_the_open_state_and_moves_the_cursor() {
        // 2 W since t = 5, closed at the 10 s boundary: the close charges
        // [5, 10); the state's later change at 14 charges only [10, 14).
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        let mut p = WindowPartial::new(0, MetricsMode::Exact);
        w.close_into(Some((5.0, 2.0)), &mut p);
        assert_eq!(fold_row(10.0, vec![p]).energy_j, 10.0);
        w.add_energy(5.0, 14.0, 2.0);
        assert_eq!(energy_of(&mut w, 1)[0], 8.0);
        // A state entered past the boundary (a seek charged ahead) is
        // left alone by the close.
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        w.add_energy(9.0, 11.0, 1.0);
        let mut p = WindowPartial::new(0, MetricsMode::Exact);
        w.close_into(Some((11.0, 3.0)), &mut p);
        assert_eq!(fold_row(10.0, vec![p]).energy_j, 1.0);
        assert_eq!(energy_of(&mut w, 1)[0], 1.0);
    }

    #[test]
    fn finish_pads_to_common_length_including_t_end_instant() {
        // t_end exactly on a boundary still owns a window, because a
        // sample stamped exactly t_end indexes into it.
        assert_eq!(last_window(60.0, 600.0), 10);
        assert_eq!(last_window(60.0, 599.5), 9);
        let mut w = DiskWindows::new(60.0, MetricsMode::Exact);
        w.record_completion(30.0, 0.5);
        w.record_completion(600.0, 0.25);
        let rows: Vec<WindowRow> = (0..=last_window(60.0, 600.0))
            .map(|_| close_and_fold(std::slice::from_mut(&mut w), MetricsMode::Exact))
            .collect();
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[10].completions, 1);
    }

    #[test]
    fn closes_wait_for_both_placement_rules() {
        assert!(!is_closed_by(60.0, 0, 59.0));
        assert!(is_closed_by(60.0, 0, 60.0));
        assert!(!is_closed_by(60.0, 1, 60.0));
        // 4.3 is window 43's start by multiplication but window 42 by
        // division: window 42 stays open until division agrees.
        let t = 43.0 * 0.1;
        assert_eq!(window_of(0.1, t), 42);
        assert!(!is_closed_by(0.1, 42, t));
        assert!(is_closed_by(0.1, 42, 4.31));
        // 1.7 is window 17 by division, yet window 16 ends just after it.
        assert_eq!(window_of(0.1, 1.7), 17);
        assert!(!is_closed_by(0.1, 16, 1.7));
    }

    /// A disk whose power changes at `changes` (state `i` draws `i + 1`
    /// W), replayed to `t_end` in `width`-second windows. With `tick`,
    /// windows close as the clock passes them, before each change; without,
    /// they all close at the end.
    fn replay_states(width: f64, changes: &[f64], t_end: f64, tick: bool) -> Vec<WindowRow> {
        let mode = MetricsMode::Exact;
        let mut d = DiskWindows::new(width, mode);
        let mut rows = Vec::new();
        let mut from = 0.0;
        for (i, &t) in changes.iter().chain([&t_end]).enumerate() {
            while tick && is_closed_by(width, rows.len(), t) {
                let mut p = WindowPartial::new(rows.len(), mode);
                d.close_into(Some((from, i as f64 + 1.0)), &mut p);
                rows.push(fold_row(width, vec![p]));
            }
            d.add_energy(from, t, i as f64 + 1.0);
            d.record_completion(t, 0.5);
            from = t;
        }
        while rows.len() <= last_window(width, t_end) {
            rows.push(close_and_fold(std::slice::from_mut(&mut d), mode));
        }
        rows
    }

    #[test]
    fn closes_at_sliver_instants_change_no_bits() {
        // 1.7 is window 17 by division but short of window 16's product
        // end; 4.3 is window 42 by division but window 43's product
        // start. Closing as the clock passes must equal closing at the end.
        let changes = [0.55, 1.7, 1.75, 4.3, 4.35, 5.0];
        assert_eq!(
            replay_states(0.1, &changes, 6.0, true),
            replay_states(0.1, &changes, 6.0, false)
        );
    }

    #[test]
    fn empty_windows_report_zeros_not_nan() {
        // A dead interval between two bursts: windows 1..=2 see nothing.
        let mut w = DiskWindows::new(10.0, MetricsMode::Exact);
        w.record_completion(3.0, 0.5);
        w.record_completion(35.0, 0.7);
        let rows: Vec<WindowRow> = (0..=last_window(10.0, 39.0))
            .map(|_| close_and_fold(std::slice::from_mut(&mut w), MetricsMode::Exact))
            .collect();
        assert_eq!(rows.len(), 4);
        for row in &rows[1..3] {
            assert_eq!(row.completions, 0);
            assert_eq!(row.mean_s, 0.0);
            assert_eq!(row.p95_s, 0.0);
            assert_eq!(row.p99_s, 0.0);
        }
        assert_eq!(rows[0].completions, 1);
        assert_eq!(rows[3].completions, 1);
    }

    #[test]
    fn merge_is_window_wise_and_identity_on_empty() {
        let mode = MetricsMode::Histogram;
        let mut a = DiskWindows::new(10.0, mode);
        a.record_completion(1.0, 0.5);
        a.add_energy(0.0, 10.0, 1.0);
        a.observe_queue(1.0, 3);
        let mut b = DiskWindows::new(10.0, mode);
        b.record_completion(12.0, 0.25);
        b.add_energy(10.0, 20.0, 2.0);
        b.observe_queue(12.0, 5);
        b.record_shed(12.0);
        let idle = DiskWindows::new(10.0, mode);

        let mut with_idle = vec![a.clone(), idle, b.clone()];
        let mut plain = vec![a, b];
        for w in 0..2 {
            let row = close_and_fold(&mut plain, mode);
            assert_eq!(row, close_and_fold(&mut with_idle, mode), "window {w}");
            assert_eq!(row.energy_j, [10.0, 20.0][w]);
            assert_eq!(row.peak_queue, [3, 5][w]);
            assert_eq!(row.shed, [0, 1][w]);
            assert_eq!(row.completions, 1);
        }
    }

    #[test]
    fn slots_reuse_the_closed_collector() {
        let mut w = DiskWindows::new(10.0, MetricsMode::Histogram);
        for k in 0..50 {
            w.record_completion(k as f64 * 10.0 + 1.0, 1000.0);
            let mut p = WindowPartial::new(k, MetricsMode::Histogram);
            w.close_into(None, &mut p);
            assert_eq!(fold_row(10.0, vec![p]).completions, 1);
        }
        assert_eq!(w.peak_open_slots(), 1);
    }

    #[test]
    fn derive_folds_disks_in_order() {
        let mut d0 = DiskWindows::new(10.0, MetricsMode::Exact);
        d0.record_completion(1.0, 0.5);
        d0.add_energy(0.0, 10.0, 1.0);
        let mut d1 = DiskWindows::new(10.0, MetricsMode::Exact);
        d1.record_completion(2.0, 0.25);
        d1.add_energy(0.0, 10.0, 2.0);
        // Two shards of one disk each fold to the same row as one shard
        // holding both.
        let mut one = vec![d0.clone(), d1.clone()];
        let solo = close_and_fold(&mut one, MetricsMode::Exact);
        let mut p0 = WindowPartial::new(0, MetricsMode::Exact);
        let mut p1 = WindowPartial::new(0, MetricsMode::Exact);
        d0.close_into(None, &mut p0);
        d1.close_into(None, &mut p1);
        let split = fold_row(10.0, vec![p0, p1]);
        assert_eq!(solo, split);
        assert_eq!(solo.completions, 2);
        assert_eq!(solo.energy_j, 30.0);
        assert_eq!(solo.mean_s, 0.375);
    }
}
