//! Windowed close-and-fold property tests (tier-1). The engine closes a
//! window once the clock has passed it and folds the per-shard
//! [`WindowPartial`]s with [`fold_row`]; these tests drive that primitive
//! directly with random per-disk histories:
//!
//! - closing at random clock points and folding reproduces a brute-force
//!   per-window reference computed straight from the histories;
//! - any disk→shard split, interleaved in global order, folds to the same
//!   rows; so does any permutation of the disks, and adding idle disks;
//! - every row is finite, and empty windows report zeros.
//!
//! Samples, powers and instants are drawn **dyadic** (k/64) and widths
//! are multiples of 8 s, so every per-window energy product and partial
//! sum is exact in an f64: the reference comparison is an exact equality,
//! not a tolerance check.

use proptest::prelude::*;
use spindown::sim::metrics::{MetricsMode, ResponseStats};
use spindown::sim::windows::{
    fold_row, is_closed_by, last_window, window_of, DiskWindows, WindowPartial, WindowRow,
};

/// Every history lives in [0, T_END]; the run finishes at T_END.
const T_END: f64 = 256.0;

/// Dyadic instant in [0, 256).
fn dyadic_t() -> impl Strategy<Value = f64> {
    (0u32..(256 * 64)).prop_map(|k| k as f64 / 64.0)
}

/// Dyadic magnitude (response seconds, watts) in [0, 64).
fn dyadic_mag() -> impl Strategy<Value = f64> {
    (0u32..(1 << 12)).prop_map(|k| k as f64 / 64.0)
}

/// One point event against a disk's collector.
#[derive(Clone, Copy, Debug)]
enum Ev {
    Completion(f64, f64),
    Shed(f64),
    Failed(f64),
    Retried(f64),
    Queue(f64, usize),
}

impl Ev {
    fn time(self) -> f64 {
        match self {
            Ev::Completion(t, _) | Ev::Shed(t) | Ev::Failed(t) | Ev::Retried(t) => t,
            Ev::Queue(t, _) => t,
        }
    }
}

fn event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (dyadic_t(), dyadic_mag()).prop_map(|(t, r)| Ev::Completion(t, r)),
        dyadic_t().prop_map(Ev::Shed),
        dyadic_t().prop_map(Ev::Failed),
        dyadic_t().prop_map(Ev::Retried),
        (dyadic_t(), 0usize..64).prop_map(|(t, d)| Ev::Queue(t, d)),
    ]
}

/// One disk's history: a piecewise-constant power timeline — state `i`
/// runs from `starts[i]` to the next start (or `T_END`) at `powers[i]` —
/// and point events.
#[derive(Clone, Debug)]
struct Disk {
    starts: Vec<f64>,
    powers: Vec<f64>,
    events: Vec<Ev>,
}

impl Disk {
    fn idle() -> Self {
        Disk {
            starts: vec![0.0],
            powers: vec![0.0],
            events: Vec::new(),
        }
    }

    fn end_of(&self, i: usize) -> f64 {
        self.starts.get(i + 1).copied().unwrap_or(T_END)
    }
}

fn disk() -> impl Strategy<Value = Disk> {
    (
        prop::collection::vec(dyadic_t(), 0..8),
        prop::collection::vec(dyadic_mag(), 9..10),
        prop::collection::vec(event(), 0..60),
    )
        .prop_map(|(mut cuts, powers, events)| {
            cuts.retain(|&c| c > 0.0);
            cuts.sort_by(f64::total_cmp);
            cuts.dedup();
            let mut starts = vec![0.0];
            starts.extend(cuts);
            let powers = powers[..starts.len()].to_vec();
            Disk {
                starts,
                powers,
                events,
            }
        })
}

/// Window width: a multiple of 8 s in 8..=64, fleet-wide.
fn width() -> impl Strategy<Value = f64> {
    (1u32..=8).prop_map(|k| k as f64 * 8.0)
}

fn mode_of(exact: bool) -> MetricsMode {
    if exact {
        MetricsMode::Exact
    } else {
        MetricsMode::Histogram
    }
}

/// What happens at one instant, in the engine's order: closes first, then
/// state changes and records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Close,
    /// Disk `d` leaves power state `i` (charging it).
    Change(usize, usize),
    /// Disk `d` records its event `e`.
    Record(usize, usize),
}

/// Replay the histories the way the engine does — closing windows at the
/// given clock points, folding each closed window across `shards` shards
/// (disk `d` is local `d / shards` of shard `d % shards`) — and return
/// the rows.
fn close_and_fold(
    disks: &[Disk],
    closes: &[f64],
    width_s: f64,
    mode: MetricsMode,
    shards: usize,
) -> Vec<WindowRow> {
    let mut steps: Vec<(f64, Step)> = closes.iter().map(|&t| (t, Step::Close)).collect();
    for (d, disk) in disks.iter().enumerate() {
        for i in 0..disk.starts.len() - 1 {
            steps.push((disk.end_of(i), Step::Change(d, i)));
        }
        for (e, ev) in disk.events.iter().enumerate() {
            steps.push((ev.time(), Step::Record(d, e)));
        }
    }
    steps.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut windows: Vec<DiskWindows> = disks
        .iter()
        .map(|_| DiskWindows::new(width_s, mode))
        .collect();
    let mut state = vec![0usize; disks.len()];
    let mut rows = Vec::new();
    let close =
        |windows: &mut [DiskWindows], state: Option<&[usize]>, rows: &mut Vec<WindowRow>| {
            let mut partials: Vec<WindowPartial> = (0..shards)
                .map(|_| WindowPartial::new(rows.len(), mode))
                .collect();
            for (d, w) in windows.iter_mut().enumerate() {
                let open = state.map(|s| (disks[d].starts[s[d]], disks[d].powers[s[d]]));
                w.close_into(open, &mut partials[d % shards]);
            }
            rows.push(fold_row(width_s, partials));
        };
    for (t, step) in steps {
        match step {
            Step::Close => {
                while is_closed_by(width_s, rows.len(), t) {
                    close(&mut windows, Some(&state), &mut rows);
                }
            }
            Step::Change(d, i) => {
                let disk = &disks[d];
                windows[d].add_energy(disk.starts[i], disk.end_of(i), disk.powers[i]);
                state[d] = i + 1;
            }
            Step::Record(d, e) => {
                let w = &mut windows[d];
                match disks[d].events[e] {
                    Ev::Completion(t, r) => w.record_completion(t, r),
                    Ev::Shed(t) => w.record_shed(t),
                    Ev::Failed(t) => w.record_failed(t),
                    Ev::Retried(t) => w.record_retried(t),
                    Ev::Queue(t, depth) => w.observe_queue(t, depth),
                }
            }
        }
    }
    for (d, disk) in disks.iter().enumerate() {
        let i = state[d];
        windows[d].add_energy(disk.starts[i], T_END, disk.powers[i]);
    }
    while rows.len() <= last_window(width_s, T_END) {
        close(&mut windows, None, &mut rows);
    }
    rows
}

/// The series computed straight from the histories, window by window.
fn reference(disks: &[Disk], width_s: f64, mode: MetricsMode) -> Vec<WindowRow> {
    (0..=last_window(width_s, T_END))
        .map(|w| {
            let (lo, hi) = (w as f64 * width_s, (w as f64 + 1.0) * width_s);
            let mut responses = ResponseStats::with_mode(mode);
            let (mut energy_j, mut peak_queue) = (0.0, 0);
            let (mut shed, mut failed, mut retried) = (0, 0, 0);
            for disk in disks {
                for (i, &p) in disk.powers.iter().enumerate() {
                    let overlap = disk.end_of(i).min(hi) - disk.starts[i].max(lo);
                    if overlap > 0.0 {
                        energy_j += p * overlap;
                    }
                }
                for ev in disk
                    .events
                    .iter()
                    .filter(|e| window_of(width_s, e.time()) == w)
                {
                    match *ev {
                        Ev::Completion(_, r) => responses.record(r),
                        Ev::Shed(_) => shed += 1,
                        Ev::Failed(_) => failed += 1,
                        Ev::Retried(_) => retried += 1,
                        Ev::Queue(_, depth) => peak_queue = peak_queue.max(depth),
                    }
                }
            }
            WindowRow {
                start_s: lo,
                end_s: hi,
                completions: responses.len() as u64,
                mean_s: responses.mean(),
                p95_s: responses.quantile(0.95),
                p99_s: responses.quantile(0.99),
                energy_j,
                peak_queue,
                shed,
                failed,
                retried,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Closing at random clock points and folding reproduces the
    // brute-force series exactly, in both metrics modes: where the clock
    // happens to close a window never changes what lands in it.
    #[test]
    fn partition_merge_equals_bulk_recording(
        disks in prop::collection::vec(disk(), 1..6),
        closes in prop::collection::vec(dyadic_t(), 0..12),
        w in width(),
        exact in any::<bool>(),
    ) {
        let mode = mode_of(exact);
        let rows = close_and_fold(&disks, &closes, w, mode, 1);
        prop_assert_eq!(rows, reference(&disks, w, mode));
    }

    // Any disk→shard split, interleaved in global disk order by the fold,
    // gives the rows of one engine holding every disk — the sharded
    // replay's bit-identity, on the primitive.
    #[test]
    fn merge_associates(
        disks in prop::collection::vec(disk(), 1..8),
        closes in prop::collection::vec(dyadic_t(), 0..12),
        shards in 2usize..6,
        w in width(),
        exact in any::<bool>(),
    ) {
        let mode = mode_of(exact);
        let solo = close_and_fold(&disks, &closes, w, mode, 1);
        prop_assert_eq!(close_and_fold(&disks, &closes, w, mode, shards), solo);
    }

    // Reordering the disks changes the order of the fold's additions but,
    // with dyadic values, not one bit of any row.
    #[test]
    fn merge_commutes(
        disks in prop::collection::vec(disk(), 1..6),
        closes in prop::collection::vec(dyadic_t(), 0..12),
        rotate in 0usize..6,
        w in width(),
        exact in any::<bool>(),
    ) {
        let mode = mode_of(exact);
        let mut reordered = disks.clone();
        reordered.reverse();
        let k = rotate % reordered.len();
        reordered.rotate_left(k);
        prop_assert_eq!(
            close_and_fold(&reordered, &closes, w, mode, 1),
            close_and_fold(&disks, &closes, w, mode, 1)
        );
    }

    // An idle disk (no events, zero power) is the fold's identity wherever
    // it sits — the regime of a shard whose disks saw nothing in a window.
    #[test]
    fn empty_collector_is_the_merge_identity(
        disks in prop::collection::vec(disk(), 1..6),
        at in 0usize..6,
        closes in prop::collection::vec(dyadic_t(), 0..12),
        w in width(),
        exact in any::<bool>(),
    ) {
        let mode = mode_of(exact);
        let mut padded = disks.clone();
        padded.insert(at % (disks.len() + 1), Disk::idle());
        prop_assert_eq!(
            close_and_fold(&padded, &closes, w, mode, 1),
            close_and_fold(&disks, &closes, w, mode, 1)
        );
    }

    // Zero-completion windows fold to explicit zeros — never NaN — in
    // every column (the empty-window contract the CSV renderer leans on).
    #[test]
    fn derived_rows_are_always_finite(
        disks in prop::collection::vec(disk(), 1..4),
        closes in prop::collection::vec(dyadic_t(), 0..12),
        w in width(),
        exact in any::<bool>(),
    ) {
        for row in close_and_fold(&disks, &closes, w, mode_of(exact), 1) {
            prop_assert!(row.mean_s.is_finite(), "mean NaN");
            prop_assert!(row.p95_s.is_finite(), "p95 NaN");
            prop_assert!(row.p99_s.is_finite(), "p99 NaN");
            prop_assert!(row.energy_j.is_finite());
            if row.completions == 0 {
                prop_assert_eq!(row.mean_s, 0.0);
                prop_assert_eq!(row.p95_s, 0.0);
                prop_assert_eq!(row.p99_s, 0.0);
            }
        }
    }
}
