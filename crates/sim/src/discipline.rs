//! Pluggable per-disk queue disciplines.
//!
//! The engine pops the next request to serve at exactly two points — service
//! completion and spin-up completion — and both go through
//! [`RequestQueue::pop`], so the discipline is a pure reordering layer: it
//! decides *which* pending request is served next (and whether its head
//! positioning is amortised), never whether a request is served at all.
//! Conservation (every request served exactly once) therefore holds for
//! every discipline by construction, and is property-tested in
//! `crates/sim/tests/disciplines.rs`.
//!
//! - [`DisciplineChoice::Fifo`] — serve in arrival order. Bit-identical to
//!   the pre-discipline engine (golden-traced in `tests/golden_trace.rs`).
//! - [`DisciplineChoice::ShortestJobFirst`] — serve the smallest pending
//!   request, unless the oldest one has waited beyond the aging bound, in
//!   which case the oldest is served first. The bound caps starvation:
//!   a request's extra wait over FIFO never exceeds the bound by more than
//!   one in-flight service.
//! - [`DisciplineChoice::ElevatorBatch`] — FIFO in steady state, but
//!   requests that piled up while the disk was in `Standby`/`SpinningUp`
//!   are frozen at wake into one elevator pass (ascending platter position,
//!   proxied by file index): the batch is served back-to-back and every
//!   batch member after the first pays only [`ELEVATOR_SEEK_FACTOR`] of the
//!   average seek, amortising head positioning across the pass.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::idhash::IdSet;

/// Fraction of the average seek paid by requests served inside an elevator
/// batch after the first: consecutive stops of one sweep are near-sequential
/// (track-to-track-ish), not average-distance seeks.
pub const ELEVATOR_SEEK_FACTOR: f64 = 0.1;

/// Which queue discipline each disk runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DisciplineChoice {
    /// Strict arrival order — the paper's §4 service model and the default.
    #[default]
    Fifo,
    /// Size-aware: smallest pending request first, with an aging bound.
    ShortestJobFirst {
        /// Once the oldest pending request has waited this many seconds it
        /// is served next regardless of size, so large requests cannot
        /// starve behind a stream of small ones.
        aging_bound_s: f64,
    },
    /// FIFO plus spin-up batching: requests accumulated while the disk was
    /// asleep or waking drain as one positioning-amortised elevator pass.
    ElevatorBatch,
}

impl DisciplineChoice {
    /// Shortest-job-first with the default 30 s aging bound.
    pub fn sjf() -> Self {
        DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 30.0,
        }
    }

    /// Every discipline family, one representative each — the grid tests
    /// and sweeps iterate this.
    pub fn all() -> Vec<DisciplineChoice> {
        vec![
            DisciplineChoice::Fifo,
            DisciplineChoice::sjf(),
            DisciplineChoice::ElevatorBatch,
        ]
    }

    /// Short stable label for figures and CSV notes.
    pub fn label(&self) -> String {
        match *self {
            DisciplineChoice::Fifo => "fifo".into(),
            DisciplineChoice::ShortestJobFirst { aging_bound_s } => {
                format!("sjf_a{aging_bound_s:.0}s")
            }
            DisciplineChoice::ElevatorBatch => "elevator".into(),
        }
    }

    /// Parse a CLI spelling: `fifo`, `sjf` (default bound), `sjf:SECONDS`,
    /// `elevator`.
    pub fn parse(s: &str) -> Option<DisciplineChoice> {
        match s {
            "fifo" => Some(DisciplineChoice::Fifo),
            "sjf" => Some(DisciplineChoice::sjf()),
            "elevator" => Some(DisciplineChoice::ElevatorBatch),
            _ => {
                let rest = s.strip_prefix("sjf:")?;
                let bound: f64 = rest.parse().ok()?;
                (bound.is_finite() && bound >= 0.0).then_some(DisciplineChoice::ShortestJobFirst {
                    aging_bound_s: bound,
                })
            }
        }
    }
}

/// One pending request as the queue sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Index into the trace.
    pub req: usize,
    /// File size — the SJF key.
    pub bytes: u64,
    /// Arrival time at this queue, seconds (drives SJF aging).
    pub arrival_s: f64,
    /// Platter-position proxy (file index) — the elevator sort key.
    pub pos: u64,
    /// Push sequence number; the FIFO key and the deterministic tie-break
    /// everywhere else.
    seq: u64,
}

/// A popped request plus how it should be served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Popped {
    /// The request to serve.
    pub entry: QueueEntry,
    /// True when this request rides an elevator batch behind another one
    /// and pays the amortised seek.
    pub amortised: bool,
}

/// Orders heap members by the SJF key `(bytes, seq)` — smallest request
/// first, push order breaking ties — exactly the `min_by_key` the linear
/// scan used, so the heap pops in the identical sequence.
#[derive(Debug, Clone, Copy)]
struct BySize(QueueEntry);

impl PartialEq for BySize {
    fn eq(&self, other: &Self) -> bool {
        (self.0.bytes, self.0.seq) == (other.0.bytes, other.0.seq)
    }
}

impl Eq for BySize {}

impl PartialOrd for BySize {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BySize {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0.bytes, self.0.seq).cmp(&(other.0.bytes, other.0.seq))
    }
}

/// Queue depth at which shortest-job-first switches from the linear
/// min-scan (whose per-pop cost at this depth is below the heap's constant
/// bookkeeping) to the indexed binary heap. Once engaged, the heap stays
/// active until the queue drains empty, so the mode never thrashes.
const SJF_HEAP_THRESHOLD: usize = 32;

/// The per-disk pending-request queue, reordered by a [`DisciplineChoice`].
///
/// Entries are pushed in arrival order and the queue preserves the relative
/// order of whatever it has not yet popped, so the front of the arrival
/// deque is always the oldest pending request (the aging probe) regardless
/// of discipline.
///
/// Under shortest-job-first the queue is adaptive. Shallow queues (≤
/// `SJF_HEAP_THRESHOLD` = 32) run the original linear `min_by_key` scan —
/// cheapest at the depths a healthy disk sees. The first push beyond the
/// threshold engages *heap mode*: every entry then lives in two structures
/// — the arrival-order deque (the aging probe) and a binary min-heap keyed
/// by `(bytes, seq)` — and a pop serves from one structure while lazily
/// invalidating the copy in the other, making both the size-ordered pop
/// and the aging escape O(log n) amortised instead of the linear scan +
/// O(n) `remove(idx)` that made deep pile-ups quadratic. Both modes pop in
/// the identical `(bytes, seq)` order (property-tested against the linear
/// reference), so the switch is invisible to the simulation.
///
/// Heap-mode lazy deletion exploits two invariants to stay off the hot
/// path:
///
/// - The deque always holds entries in ascending `seq`, and the aging
///   escape always serves the (purged) deque *front* — so every
///   aging-served seq is below the current front's seq forever after, and
///   the heap detects those stale copies with one integer compare, no
///   bookkeeping on the aging path at all.
/// - Only heap-served entries need remembering (their deque copy sits
///   interior until it surfaces at the front), in the `served` seq set —
///   touched once on serve and once on purge.
///
/// Amortised compaction keeps both structures O(pending) even on schedules
/// where one path dominates (e.g. every pop aging out, which would
/// otherwise grow the heap by one stale copy per request); heap mode
/// disengages (and clears all bookkeeping) when the queue drains empty.
#[derive(Debug)]
pub struct RequestQueue {
    discipline: DisciplineChoice,
    entries: VecDeque<QueueEntry>,
    /// SJF heap mode only: min-heap over `(bytes, seq)`. Empty otherwise.
    size_heap: BinaryHeap<Reverse<BySize>>,
    /// SJF heap mode only: seqs served through the heap whose deque copy
    /// is stale and must be skipped when it reaches the front.
    served: IdSet<u64>,
    /// True once the queue has grown past [`SJF_HEAP_THRESHOLD`] and the
    /// heap structures are engaged; reset when the queue drains empty.
    heap_active: bool,
    /// Live (pending, unserved) entry count.
    live: usize,
    next_seq: u64,
    /// Entries at the front still belonging to the current wake batch.
    batch_remaining: usize,
    /// True until the first member of the current wake batch is popped.
    batch_first_pending: bool,
}

impl RequestQueue {
    /// Empty queue running `discipline`.
    pub fn new(discipline: DisciplineChoice) -> Self {
        RequestQueue {
            discipline,
            entries: VecDeque::new(),
            size_heap: BinaryHeap::new(),
            served: IdSet::default(),
            heap_active: false,
            live: 0,
            next_seq: 0,
            batch_remaining: 0,
            batch_first_pending: false,
        }
    }

    /// The discipline this queue runs.
    pub fn discipline(&self) -> DisciplineChoice {
        self.discipline
    }

    /// Pending-request count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate the pending entries in their current internal order (stale
    /// SJF copies excluded).
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries
            .iter()
            .filter(move |e| !self.served.contains(&e.seq))
    }

    /// Append a request (requests always enter in arrival order).
    pub fn push(&mut self, req: usize, bytes: u64, arrival_s: f64, pos: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = QueueEntry {
            req,
            bytes,
            arrival_s,
            pos,
            seq,
        };
        self.entries.push_back(entry);
        if matches!(self.discipline, DisciplineChoice::ShortestJobFirst { .. }) {
            if self.heap_active {
                self.size_heap.push(Reverse(BySize(entry)));
            } else if self.entries.len() > SJF_HEAP_THRESHOLD {
                // The queue got deep: engage heap mode, seeding the heap
                // from the deque (all live — shallow mode keeps no stale
                // copies). O(n) once per deep episode.
                self.heap_active = true;
                let entries = &self.entries;
                self.size_heap
                    .extend(entries.iter().map(|&e| Reverse(BySize(e))));
            }
        }
        self.live += 1;
    }

    /// Freeze everything currently pending into one elevator batch, sorted
    /// by ascending position (ties by arrival). Called by the actor when a
    /// spin-up completes; a no-op for other disciplines or batches of ≤ 1.
    pub fn freeze_wake_batch(&mut self) {
        if self.discipline != DisciplineChoice::ElevatorBatch || self.entries.len() <= 1 {
            return;
        }
        debug_assert_eq!(self.batch_remaining, 0, "wake with a batch in flight");
        self.entries
            .make_contiguous()
            .sort_by_key(|e| (e.pos, e.seq));
        self.batch_remaining = self.entries.len();
        self.batch_first_pending = true;
    }

    /// Pop the next request to serve at time `now` under the discipline.
    /// O(1) for FIFO/elevator, O(log n) amortised for SJF.
    pub fn pop(&mut self, now: f64) -> Option<Popped> {
        if self.batch_remaining > 0 {
            let entry = self.entries.pop_front().expect("batch implies entries");
            let amortised = !self.batch_first_pending;
            self.batch_first_pending = false;
            self.batch_remaining -= 1;
            self.live -= 1;
            return Some(Popped { entry, amortised });
        }
        let entry = match self.discipline {
            DisciplineChoice::Fifo | DisciplineChoice::ElevatorBatch => {
                let entry = self.entries.pop_front()?;
                self.live -= 1;
                entry
            }
            DisciplineChoice::ShortestJobFirst { aging_bound_s } if !self.heap_active => {
                // Shallow queue: the original linear scan, verbatim.
                let oldest = self.entries.front()?;
                let entry = if now - oldest.arrival_s >= aging_bound_s {
                    self.entries.pop_front().expect("front probed")
                } else {
                    let (idx, _) = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| (e.bytes, e.seq))
                        .expect("non-empty");
                    self.entries.remove(idx).expect("index in range")
                };
                self.live -= 1;
                entry
            }
            DisciplineChoice::ShortestJobFirst { aging_bound_s } => {
                // Heap mode. Purge entries already served through the heap
                // so the deque front is the oldest *pending* request — the
                // same aging probe the linear scan uses. While the served
                // set is empty (no heap pops outstanding) this is one
                // branch.
                if !self.served.is_empty() {
                    while let Some(front) = self.entries.front() {
                        if self.served.remove(&front.seq) {
                            self.entries.pop_front();
                        } else {
                            break;
                        }
                    }
                }
                let Some(oldest) = self.entries.front() else {
                    debug_assert_eq!(self.live, 0);
                    self.deactivate_heap();
                    return None;
                };
                let entry = if now - oldest.arrival_s >= aging_bound_s {
                    // Aging escape: serve the oldest. No bookkeeping — its
                    // heap copy is recognised as stale by having a seq
                    // below whatever the deque front is from now on.
                    self.entries.pop_front().expect("front probed")
                } else {
                    // Size order: pop the heap, skipping stale copies of
                    // aging-served entries (seq below the live front).
                    let front_seq = oldest.seq;
                    loop {
                        let Reverse(BySize(entry)) =
                            self.size_heap.pop().expect("live entry implies heap entry");
                        if entry.seq < front_seq {
                            continue; // aging-served long ago
                        }
                        self.served.insert(entry.seq);
                        break entry;
                    }
                };
                self.live -= 1;
                if self.live == 0 {
                    // Deep episode over: drop every stale copy at once and
                    // fall back to the shallow scan.
                    self.deactivate_heap();
                } else if self.served.len() > self.live + 64
                    || self.size_heap.len() > 2 * self.live + 64
                {
                    // Lazy deletion leaves one stale copy per served entry
                    // (heap-served → deque + served set; aging-served →
                    // heap); compact once either stale population outgrows
                    // the live one so everything stays O(pending), not
                    // O(popped).
                    self.compact();
                }
                entry
            }
        };
        Some(Popped {
            entry,
            amortised: false,
        })
    }

    /// Rebuild both SJF structures from the live entries and forget the
    /// stale copies. O(pending); amortised O(1) per pop because a pop adds
    /// at most one stale copy and compaction only fires once a stale count
    /// exceeds the live count. Pop order is unaffected: the heap's order is
    /// the total order on `(bytes, seq)`, not its internal shape.
    fn compact(&mut self) {
        let served = &self.served;
        self.entries.retain(|e| !served.contains(&e.seq));
        self.served.clear();
        // Rebuild in place: clear + extend reuse both buffers, so steady
        // compaction churn costs no allocations.
        self.size_heap.clear();
        let entries = &self.entries;
        self.size_heap
            .extend(entries.iter().map(|&e| Reverse(BySize(e))));
    }

    /// Leave heap mode: the queue drained empty, so whatever remains in
    /// the deque/heap/set is stale bookkeeping — drop it all and return to
    /// the shallow linear scan.
    fn deactivate_heap(&mut self) {
        debug_assert_eq!(self.live, 0);
        self.heap_active = false;
        self.entries.clear();
        self.size_heap.clear();
        self.served.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut RequestQueue, now: f64) -> Vec<(usize, bool)> {
        let mut order = Vec::new();
        while let Some(p) = q.pop(now) {
            order.push((p.entry.req, p.amortised));
        }
        order
    }

    #[test]
    fn fifo_pops_in_push_order() {
        let mut q = RequestQueue::new(DisciplineChoice::Fifo);
        q.push(3, 500, 0.0, 9);
        q.push(4, 1, 0.1, 2);
        assert_eq!(drain(&mut q, 1.0), vec![(3, false), (4, false)]);
    }

    #[test]
    fn sjf_pops_smallest_first_with_stable_ties() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 60.0,
        });
        q.push(0, 300, 0.0, 0);
        q.push(1, 10, 0.0, 1);
        q.push(2, 10, 0.0, 2);
        q.push(3, 70, 0.0, 3);
        assert_eq!(
            drain(&mut q, 1.0),
            vec![(1, false), (2, false), (3, false), (0, false)]
        );
    }

    #[test]
    fn sjf_aging_bound_promotes_the_oldest() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 30.0,
        });
        q.push(0, 1_000_000, 0.0, 0);
        q.push(1, 1, 40.0, 1);
        // The big request has waited 40 s ≥ 30 s: it goes first.
        assert_eq!(q.pop(40.0).unwrap().entry.req, 0);
        assert_eq!(q.pop(40.0).unwrap().entry.req, 1);
    }

    #[test]
    fn sjf_interleaves_aging_escapes_with_size_order() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 10.0,
        });
        q.push(0, 900, 0.0, 0); // big, oldest
        q.push(1, 10, 1.0, 1);
        q.push(2, 500, 2.0, 2);
        q.push(3, 20, 3.0, 3);
        // t = 5: nothing overdue → smallest (req 1) first.
        assert_eq!(q.pop(5.0).unwrap().entry.req, 1);
        assert_eq!(q.len(), 3);
        // t = 11: req 0 has waited 11 s ≥ 10 s → aging escape.
        assert_eq!(q.pop(11.0).unwrap().entry.req, 0);
        // Oldest pending is now req 2 at 9 s < bound → size order (req 3).
        assert_eq!(q.pop(11.0).unwrap().entry.req, 3);
        assert_eq!(q.pop(20.0).unwrap().entry.req, 2);
        assert!(q.pop(20.0).is_none());
        assert!(q.is_empty());
    }

    /// Every pop via the aging escape leaves a stale heap copy; the
    /// compaction must keep the structures bounded by the pending count
    /// even when *all* pops age out (the worst case for lazy deletion).
    /// The queue is held above the heap-mode threshold throughout so the
    /// lazy-deletion machinery (not the shallow scan) is what's tested.
    #[test]
    fn sjf_structures_stay_bounded_under_pure_aging_pops() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst { aging_bound_s: 0.0 });
        // Pre-fill past the threshold with huge sizes so the backlog never
        // wins the size order, then push/pop in lockstep: every pop ages
        // out the oldest entry.
        for i in 0..SJF_HEAP_THRESHOLD + 8 {
            q.push(i, u64::MAX - i as u64, 0.0, 0);
        }
        assert!(q.heap_active, "pre-fill crosses the heap threshold");
        let depth = q.len();
        for i in 0..10_000usize {
            // Strictly decreasing sizes: each stale copy sinks below every
            // later live entry, which defeats naive top-of-heap purging.
            q.push(1_000_000 + i, 1_000_000 - i as u64, i as f64, 0);
            let popped = q.pop(i as f64 + 1.0).unwrap();
            assert_eq!(q.len(), depth, "lockstep push/pop holds depth");
            assert!(popped.entry.req < 1_000_000 || popped.entry.req <= 1_000_000 + i);
            assert!(
                q.size_heap.len() <= 8 * depth
                    && q.entries.len() <= 8 * depth
                    && q.served.len() <= 8 * depth,
                "stale copies accumulate: heap {}, deque {}, served {}",
                q.size_heap.len(),
                q.entries.len(),
                q.served.len()
            );
        }
    }

    /// Deep queues engage heap mode past the threshold and return to the
    /// shallow scan once drained, with size order preserved throughout.
    #[test]
    fn sjf_heap_mode_engages_and_disengages_around_the_threshold() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 1.0e9,
        });
        let n = SJF_HEAP_THRESHOLD * 2;
        for i in 0..n {
            q.push(i, (n - i) as u64, 0.0, 0);
            assert_eq!(q.heap_active, i + 1 > SJF_HEAP_THRESHOLD, "push {i}");
        }
        // Pure size order: entries were pushed with descending sizes, so
        // pops come back in reverse push order.
        for expect in (0..n).rev() {
            assert_eq!(q.pop(1.0).unwrap().entry.req, expect);
        }
        assert!(q.is_empty());
        assert!(!q.heap_active, "drain leaves heap mode");
        assert!(q.size_heap.is_empty() && q.served.is_empty() && q.entries.is_empty());
        // The queue keeps working (shallow again) after the episode.
        q.push(99, 1, 0.0, 0);
        assert_eq!(q.pop(0.5).unwrap().entry.req, 99);
    }

    #[test]
    fn elevator_freezes_wake_batch_by_position() {
        let mut q = RequestQueue::new(DisciplineChoice::ElevatorBatch);
        q.push(0, 10, 0.0, 7);
        q.push(1, 10, 0.5, 2);
        q.push(2, 10, 1.0, 5);
        q.freeze_wake_batch();
        // Sorted by position; only the first pays the full seek.
        assert_eq!(drain(&mut q, 2.0), vec![(1, false), (2, true), (0, true)]);
    }

    #[test]
    fn elevator_is_fifo_outside_batches() {
        let mut q = RequestQueue::new(DisciplineChoice::ElevatorBatch);
        q.push(0, 10, 0.0, 9);
        q.push(1, 10, 0.0, 1);
        assert_eq!(drain(&mut q, 0.0), vec![(0, false), (1, false)]);
    }

    #[test]
    fn freeze_is_noop_for_fifo_and_singletons() {
        let mut q = RequestQueue::new(DisciplineChoice::Fifo);
        q.push(0, 10, 0.0, 3);
        q.push(1, 10, 0.0, 1);
        q.freeze_wake_batch();
        assert_eq!(drain(&mut q, 0.0), vec![(0, false), (1, false)]);
        let mut q = RequestQueue::new(DisciplineChoice::ElevatorBatch);
        q.push(0, 10, 0.0, 3);
        q.freeze_wake_batch();
        assert_eq!(drain(&mut q, 0.0), vec![(0, false)]);
    }

    #[test]
    fn labels_and_parsing_round_trip() {
        assert_eq!(DisciplineChoice::Fifo.label(), "fifo");
        assert_eq!(DisciplineChoice::sjf().label(), "sjf_a30s");
        assert_eq!(DisciplineChoice::ElevatorBatch.label(), "elevator");
        assert_eq!(
            DisciplineChoice::parse("fifo"),
            Some(DisciplineChoice::Fifo)
        );
        assert_eq!(
            DisciplineChoice::parse("sjf"),
            Some(DisciplineChoice::sjf())
        );
        assert_eq!(
            DisciplineChoice::parse("sjf:12.5"),
            Some(DisciplineChoice::ShortestJobFirst {
                aging_bound_s: 12.5
            })
        );
        assert_eq!(
            DisciplineChoice::parse("elevator"),
            Some(DisciplineChoice::ElevatorBatch)
        );
        assert_eq!(DisciplineChoice::parse("lifo"), None);
        assert_eq!(DisciplineChoice::parse("sjf:-1"), None);
        assert_eq!(DisciplineChoice::default(), DisciplineChoice::Fifo);
    }
}
