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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Fraction of the average seek paid by requests served inside an elevator
/// batch after the first: consecutive stops of one sweep are near-sequential
/// (track-to-track-ish), not average-distance seeks.
pub const ELEVATOR_SEEK_FACTOR: f64 = 0.1;

/// Which queue discipline each disk runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

/// One pending request as the queue sees it: 32 bytes, the unit of the
/// simulated backlog's memory.
///
/// The file's position and the push sequence number share one `u64`
/// (`pos << 32 | seq`). `pos` is the catalog index, which [`FileId`]
/// already holds in 32 bits; [`RequestQueue`] renumbers its live entries
/// before `seq` would pass `u32::MAX`, so 32 bits never wrap. One field,
/// not two `u32`s, so a push writes it in one store: an arrival at an idle
/// disk pops its own entry at once, and with two 4-byte stores that
/// push + pop measured ~6 ns slower.
///
/// [`FileId`]: spindown_workload::FileId
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Index into the trace.
    pub req: usize,
    /// File size — the SJF key.
    pub bytes: u64,
    /// Arrival time at this queue, seconds (drives SJF aging).
    pub arrival_s: f64,
    /// `pos << 32 | seq`, so its order is the elevator order: position,
    /// then push order.
    pos_seq: u64,
}

impl QueueEntry {
    /// Platter-position proxy (file index) — the elevator sort key.
    pub fn pos(&self) -> u32 {
        (self.pos_seq >> 32) as u32
    }

    /// Push sequence number; the FIFO key and the deterministic tie-break
    /// everywhere else.
    fn seq(&self) -> u32 {
        self.pos_seq as u32
    }
}

const _: () = assert!(std::mem::size_of::<QueueEntry>() == 32);

/// A popped request plus how it should be served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Popped {
    /// The request to serve.
    pub entry: QueueEntry,
    /// True when this request rides an elevator batch behind another one
    /// and pays the amortised seek.
    pub amortised: bool,
}

/// `QueueEntry::req` of an entry already served through the SJF heap: it
/// stays in the deque, in place, until it reaches the front.
const TOMBSTONE: usize = usize::MAX;

/// Queue depth at which shortest-job-first switches from the linear
/// min-scan (whose per-pop cost at this depth is below the heap's constant
/// bookkeeping) to the binary heap. Once engaged, the heap stays active
/// until the queue drains empty, so the mode never thrashes.
const SJF_HEAP_THRESHOLD: usize = 32;

/// How far a full buffer of `len` grows: by its length while under 64
/// (at least 4), then by an eighth of it (at least 64), so capacity tracks
/// the peak within ⅛ + 64 slots instead of up to twice it.
fn growth(len: usize) -> usize {
    if len < 64 {
        len.max(4)
    } else {
        (len / 8).max(64)
    }
}

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
/// threshold engages *heap mode*: the deque keeps the one copy of each
/// entry, and a binary min-heap holds 16-byte `(bytes, seq)` keys, making
/// the size-ordered pop O(log n) amortised instead of the linear scan +
/// O(n) `remove(idx)` that made deep pile-ups quadratic. Both modes pop in
/// the identical `(bytes, seq)` order (property-tested against the linear
/// reference), so the switch is invisible to the simulation.
///
/// Heap mode finds an entry from its key without a map, because the deque
/// holds contiguous seqs: `entries[i]` has seq `front_seq + i`. Engaging
/// heap mode renumbers the entries to make that true (shallow pops remove
/// from the middle), nothing then leaves the deque except at the front,
/// and each push takes the next seq. A pop serves one of two ways:
///
/// - The aging escape serves the deque front. An entry that has waited
///   past the bound can only leave this way — every pop until then is an
///   aging pop of it or of an older entry — so the heap is only filled
///   when a size-ordered pop needs it: that pop first adds the keys of
///   every entry pushed since the last one. A backlog that stays past the
///   bound (every pop aging out) builds no heap at all. A key whose entry
///   aged out is stale, recognised by `seq < front_seq`: the deque front
///   only moves forward, and once it passes every heaped seq the heap is
///   cleared at once.
/// - A size-ordered pop takes the heap's top key and serves the entry at
///   `seq − front_seq`, leaving a *tombstone* in place (`req` set to
///   `usize::MAX`; the entry stays 32 bytes). Tombstones leave the deque
///   when they reach the front.
///
/// Amortised compaction keeps both structures O(pending) on schedules that
/// mix the two: once either stale population outgrows the live one it
/// drops the tombstones, renumbers and empties the heap. Heap mode
/// disengages (and drops all stale state) when the queue drains empty.
///
/// Memory: each pending request is one 32-byte [`QueueEntry`] in the
/// arrival deque, plus, in heap mode, at most one 16-byte heap key. Both
/// buffers grow by their length while shorter than 64 entries (at least 4)
/// and by an eighth of their length (at least 64) after that, so each
/// capacity stays within ⅛ + 64 of the deepest it has been, not up to
/// twice it. Push sequence numbers are 32 bits: before one would pass
/// `u32::MAX` the queue renumbers its live entries `0..len` in deque order,
/// which keeps their relative order and so every discipline's pop order.
#[derive(Debug)]
pub struct RequestQueue {
    discipline: DisciplineChoice,
    entries: VecDeque<QueueEntry>,
    /// SJF heap mode only: min-heap over `(bytes, seq)`. Empty otherwise.
    size_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// SJF heap mode only: every entry below this seq has had its key
    /// added to the heap, no entry from it on has.
    heaped_upto: u32,
    /// True once the queue has grown past [`SJF_HEAP_THRESHOLD`] and the
    /// heap is engaged; reset when the queue drains empty.
    heap_active: bool,
    /// Live (pending, unserved) entry count.
    live: usize,
    next_seq: u32,
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
            heaped_upto: 0,
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

    /// Append a request (requests always enter in arrival order).
    ///
    /// # Panics
    /// If `pos` does not fit in a `u32` (a catalog index always does).
    #[inline]
    pub fn push(&mut self, req: usize, bytes: u64, arrival_s: f64, pos: u64) {
        debug_assert_ne!(req, TOMBSTONE, "request index reserved for tombstones");
        let pos = u32::try_from(pos).expect("queue position past u32");
        if self.next_seq == u32::MAX {
            self.restart_numbering();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.entries.len() == self.entries.capacity() {
            self.grow();
        }
        self.entries.push_back(QueueEntry {
            req,
            bytes,
            arrival_s,
            pos_seq: u64::from(pos) << 32 | u64::from(seq),
        });
        if !self.heap_active
            && matches!(self.discipline, DisciplineChoice::ShortestJobFirst { .. })
            && self.entries.len() > SJF_HEAP_THRESHOLD
        {
            // The queue got deep: engage heap mode. O(n) once per deep
            // episode.
            self.heap_active = true;
            self.renumber(self.next_seq);
        }
        self.live += 1;
    }

    /// Make room in a full deque by the [`growth`] rule.
    #[cold]
    fn grow(&mut self) {
        self.entries.reserve_exact(growth(self.entries.len()));
    }

    /// Number the live entries from 0 again, before the next push would
    /// take seq `u32::MAX`.
    #[cold]
    fn restart_numbering(&mut self) {
        assert!(
            self.live < u32::MAX as usize,
            "{} pending requests on one disk",
            self.live
        );
        self.renumber(self.live as u32);
    }

    /// Give the entries contiguous sequence numbers ending just below
    /// `next_seq`, in deque order, without reordering anything: the deque
    /// holds ascending seqs outside an elevator batch, and a frozen batch
    /// pops by position regardless. Heap mode drops its tombstones first
    /// and empties its heap, so no stale key survives; the next
    /// size-ordered pop heaps every entry afresh.
    #[cold]
    fn renumber(&mut self, next_seq: u32) {
        if self.heap_active {
            self.entries.retain(|e| e.req != TOMBSTONE);
            self.size_heap.clear();
        }
        let first = next_seq - self.entries.len() as u32;
        for (seq, e) in (first..).zip(&mut self.entries) {
            e.pos_seq = e.pos_seq >> 32 << 32 | u64::from(seq);
        }
        self.next_seq = next_seq;
        self.heaped_upto = first;
    }

    /// Add the keys of the entries pushed since the last size-ordered pop,
    /// given the live front's seq. Clears the heap first if the aging
    /// escape has served past every key in it.
    fn heap_new_entries(&mut self, front_seq: u32) {
        if self.heaped_upto <= front_seq {
            self.size_heap.clear();
            self.heaped_upto = front_seq;
        }
        let start = (self.heaped_upto - front_seq) as usize;
        let more = self.entries.len() - start;
        if self.size_heap.capacity() - self.size_heap.len() < more {
            self.size_heap
                .reserve_exact(more.max(growth(self.size_heap.len())));
        }
        let keys = self
            .entries
            .range(start..)
            .map(|e| Reverse((e.bytes, e.seq())));
        self.size_heap.extend(keys);
        self.heaped_upto = self.next_seq;
    }

    /// Freeze everything currently pending into one elevator batch, sorted
    /// by ascending position (ties by arrival). Called by the actor when a
    /// spin-up completes; a no-op for other disciplines or batches of ≤ 1.
    pub fn freeze_wake_batch(&mut self) {
        if self.discipline != DisciplineChoice::ElevatorBatch || self.entries.len() <= 1 {
            return;
        }
        debug_assert_eq!(self.batch_remaining, 0, "wake with a batch in flight");
        self.entries.make_contiguous().sort_by_key(|e| e.pos_seq);
        self.batch_remaining = self.entries.len();
        self.batch_first_pending = true;
    }

    /// Pop the next request to serve at time `now` under the discipline.
    /// O(1) for FIFO/elevator, O(log n) amortised for SJF.
    #[inline]
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
            DisciplineChoice::ShortestJobFirst { aging_bound_s } => {
                self.pop_sjf(now, aging_bound_s)?
            }
        };
        Some(Popped {
            entry,
            amortised: false,
        })
    }

    /// The shortest-job-first pop: the linear scan while shallow, the heap
    /// while deep.
    fn pop_sjf(&mut self, now: f64, aging_bound_s: f64) -> Option<QueueEntry> {
        if !self.heap_active {
            // Shallow queue: the original linear scan, verbatim.
            let oldest = self.entries.front()?;
            let entry = if now - oldest.arrival_s >= aging_bound_s {
                self.entries.pop_front().expect("front probed")
            } else {
                let (idx, _) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.bytes, e.seq()))
                    .expect("non-empty");
                self.entries.remove(idx).expect("index in range")
            };
            self.live -= 1;
            return Some(entry);
        }
        // Heap mode. Purge tombstones so the deque front is the oldest
        // *pending* request — the same aging probe the linear scan uses.
        while self.entries.front().is_some_and(|e| e.req == TOMBSTONE) {
            self.entries.pop_front();
        }
        let Some(oldest) = self.entries.front() else {
            debug_assert_eq!(self.live, 0);
            self.deactivate_heap();
            return None;
        };
        let entry = if now - oldest.arrival_s >= aging_bound_s {
            // Aging escape: serve the oldest. Its heap key, if it has one,
            // becomes stale by having a seq below the deque front's.
            self.entries.pop_front().expect("front probed")
        } else {
            // Size order: heap what is new, then pop the heap, skipping
            // stale keys of aging-served entries (seq below the live
            // front).
            let front_seq = oldest.seq();
            self.heap_new_entries(front_seq);
            loop {
                let Reverse((_, seq)) = self.size_heap.pop().expect("live entry implies heap key");
                if seq < front_seq {
                    continue; // aging-served long ago
                }
                let slot = &mut self.entries[(seq - front_seq) as usize];
                debug_assert_eq!(slot.seq(), seq, "deque seqs are contiguous");
                let entry = *slot;
                slot.req = TOMBSTONE;
                break entry;
            }
        };
        self.live -= 1;
        if self.live == 0 {
            // Deep episode over: drop every stale entry and key at once
            // and fall back to the shallow scan.
            self.deactivate_heap();
        } else if self.entries.len() > 2 * self.live + 64
            || self.size_heap.len() > 2 * self.live + 64
        {
            // Lazy deletion leaves one stale copy per served entry
            // (heap-served → deque tombstone; aging-served → heap key);
            // compact once either stale population outgrows the live one
            // so everything stays O(pending), not O(popped).
            self.renumber(self.next_seq);
        }
        Some(entry)
    }

    /// Leave heap mode: the queue drained empty, so whatever remains in
    /// the deque and heap is stale — drop it all and return to the
    /// shallow linear scan.
    fn deactivate_heap(&mut self) {
        debug_assert_eq!(self.live, 0);
        self.heap_active = false;
        self.entries.clear();
        self.size_heap.clear();
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

    /// The structures stay bounded by the pending count even when *all*
    /// pops age out (they then build no heap at all). The queue is held
    /// above the heap-mode threshold throughout so heap mode (not the
    /// shallow scan) is what's tested.
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
                q.size_heap.len() <= 8 * depth && q.entries.len() <= 8 * depth,
                "stale copies accumulate: heap {}, deque {}",
                q.size_heap.len(),
                q.entries.len()
            );
        }
    }

    /// An aged-out entry's key stays in the heap while newer entries keep
    /// it in use: here every other pop ages out the oldest (its key goes
    /// stale) and the rest pop the newest by size (its deque entry becomes
    /// a tombstone). Compaction keeps both stale populations bounded by
    /// the pending count, and no request is served twice.
    #[test]
    fn sjf_stale_keys_and_tombstones_stay_bounded_when_pops_mix() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 1.0e6,
        });
        for i in 0..SJF_HEAP_THRESHOLD + 8 {
            q.push(i, u64::MAX - i as u64, 0.0, 0);
        }
        let depth = q.len();
        let mut served = std::collections::HashSet::new();
        for i in 0..10_000usize {
            q.push(1_000 + i, 1_000_000 - i as u64, 0.0, 0);
            let now = if i % 2 == 0 { 0.0 } else { 1.0e12 };
            let req = q.pop(now).unwrap().entry.req;
            if i % 2 == 0 {
                assert_eq!(req, 1_000 + i, "the newest is the smallest");
            }
            assert!(served.insert(req), "request {req} served twice");
            assert_eq!(q.len(), depth);
            assert!(
                q.size_heap.len() <= 2 * depth + 64 && q.entries.len() <= 2 * depth + 64,
                "stale state accumulates: heap {}, deque {}",
                q.size_heap.len(),
                q.entries.len()
            );
        }
    }

    /// A shallow pop by size removes from the middle of the deque; the
    /// heap mode engaged afterwards still finds each entry from its key.
    #[test]
    fn sjf_heap_mode_engages_after_shallow_pops_leave_gaps() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 1.0e9,
        });
        for i in 0..SJF_HEAP_THRESHOLD {
            q.push(i, if i == 10 { 1 } else { 100 }, 0.0, 0);
        }
        assert_eq!(q.pop(0.0).unwrap().entry.req, 10);
        q.push(40, 60, 0.0, 0);
        q.push(41, 50, 0.0, 0);
        assert!(q.heap_active, "the second push crosses the threshold");
        let order: Vec<usize> = drain(&mut q, 0.0).into_iter().map(|(r, _)| r).collect();
        let rest = (0..SJF_HEAP_THRESHOLD).filter(|&i| i != 10);
        assert_eq!(order, [41, 40].into_iter().chain(rest).collect::<Vec<_>>());
    }

    /// Once the aging escape has served past every heaped key, the next
    /// size-ordered pop drops them all at once instead of carrying them.
    #[test]
    fn sjf_heap_is_cleared_once_aging_passes_every_key() {
        let mut q = RequestQueue::new(DisciplineChoice::ShortestJobFirst {
            aging_bound_s: 10.0,
        });
        for i in 0..40 {
            q.push(i, 100 - i as u64, 0.0, 0);
        }
        assert_eq!(q.pop(0.0).unwrap().entry.req, 39, "heaps all 40");
        // Smaller than every stale key, so popping them cannot purge those.
        for i in 40..80 {
            q.push(i, i as u64 - 39, 15.0, 0);
        }
        for i in 0..39 {
            assert_eq!(q.pop(20.0).unwrap().entry.req, i, "aging escape");
        }
        assert_eq!(q.pop(20.0).unwrap().entry.req, 40, "size order again");
        assert_eq!(q.size_heap.len(), q.len(), "no stale key left");
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
        assert!(q.size_heap.is_empty() && q.entries.is_empty());
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

    enum Op {
        Push { bytes: u64, at: f64, pos: u64 },
        Pop(f64),
        Freeze,
    }

    /// Runs `ops` on a fresh queue whose push numbering starts at
    /// `first_seq`. Returns every pop with its seq blanked (the two
    /// numberings differ by design), plus, when a push had to renumber,
    /// the queue's `(heap_active, tombstones, batch_remaining)` just before
    /// it did.
    fn run_ops(
        discipline: DisciplineChoice,
        first_seq: u32,
        ops: &[Op],
    ) -> (Vec<Popped>, Option<(bool, usize, usize)>) {
        let mut q = RequestQueue::new(discipline);
        q.next_seq = first_seq;
        let (mut pops, mut at_limit, mut req) = (Vec::new(), None, 0);
        for op in ops {
            match *op {
                Op::Push { bytes, at, pos } => {
                    if q.next_seq == u32::MAX {
                        let tombstones = q.entries.len() - q.live;
                        at_limit = Some((q.heap_active, tombstones, q.batch_remaining));
                    }
                    q.push(req, bytes, at, pos);
                    req += 1;
                }
                Op::Pop(now) => {
                    let p = q.pop(now).expect("schedule pops only pending requests");
                    pops.push(Popped {
                        entry: QueueEntry {
                            pos_seq: p.entry.pos_seq >> 32 << 32,
                            ..p.entry
                        },
                        ..p
                    });
                }
                Op::Freeze => q.freeze_wake_batch(),
            }
        }
        assert!(q.is_empty(), "schedule drains the queue");
        (pops, at_limit)
    }

    /// Pushes `n` requests at times `t0, t0 + 1, …` with scattered sizes
    /// and positions (positions repeat, so elevator ties fall to seq).
    fn pushes(n: usize, t0: f64) -> impl Iterator<Item = Op> {
        (0..n).map(move |i| Op::Push {
            bytes: (i as u64 * 7919) % 101 + 1,
            at: t0 + i as f64,
            pos: (i as u64 * 13) % 5,
        })
    }

    /// Renumbering at the `u32` limit is invisible: each discipline pops
    /// exactly what a queue numbered from 0 pops, with the limit crossed
    /// in the state that stresses its bookkeeping.
    #[test]
    fn renumbering_at_the_seq_limit_keeps_pop_order() {
        let pops = |n: usize, now: f64| (0..n).map(move |_| Op::Pop(now));
        let cases: Vec<(DisciplineChoice, u32, Vec<Op>)> = vec![
            (
                DisciplineChoice::Fifo,
                u32::MAX - 6,
                pushes(10, 0.0)
                    .chain(pops(3, 10.0))
                    .chain(pushes(10, 10.0))
                    .chain(pops(17, 20.0))
                    .collect(),
            ),
            (
                // 40 pending engages heap mode; five size-order pops leave
                // heap-served tombstones in the deque, one pop at t = 101 ages
                // out the oldest; the limit falls inside the next pushes,
                // then 20 size-order pops and an aging drain follow.
                DisciplineChoice::ShortestJobFirst {
                    aging_bound_s: 100.0,
                },
                u32::MAX - 45,
                pushes(40, 0.0)
                    .chain(pops(5, 40.0))
                    .chain(pops(1, 101.0))
                    .chain(pushes(20, 60.0))
                    .chain(pops(20, 101.0))
                    .chain(pops(34, 500.0))
                    .collect(),
            ),
            (
                // A frozen wake batch of 10 is 3 pops in when the limit
                // falls; the next batch mixes entries numbered before and
                // after it, with tied positions.
                DisciplineChoice::ElevatorBatch,
                u32::MAX - 13,
                pushes(10, 0.0)
                    .chain([Op::Freeze])
                    .chain(pops(3, 10.0))
                    .chain(pushes(10, 10.0))
                    .chain(pops(7, 20.0))
                    .chain(pushes(5, 20.0))
                    .chain([Op::Freeze])
                    .chain(pops(15, 30.0))
                    .collect(),
            ),
        ];
        for (discipline, first_seq, ops) in cases {
            let (want, none) = run_ops(discipline, 0, &ops);
            assert_eq!(
                none, None,
                "{discipline:?}: numbering from 0 never renumbers"
            );
            let (got, at_limit) = run_ops(discipline, first_seq, &ops);
            let (heap_active, tombstones, batch) = at_limit.expect("the limit is crossed");
            match discipline {
                DisciplineChoice::ShortestJobFirst { .. } => {
                    assert!(heap_active && tombstones > 0, "{tombstones} tombstones")
                }
                DisciplineChoice::ElevatorBatch => assert!(batch > 0, "a batch in flight"),
                DisciplineChoice::Fifo => {}
            }
            assert_eq!(got, want, "{discipline:?}");
        }
    }

    /// A deep backlog leaves the deque, and under SJF the heap, within
    /// ⅛ + 64 slots of its peak, not up to twice it, and still pops in
    /// push order (equal sizes tie by seq, and the SJF bound never fires).
    #[test]
    fn deque_capacity_stays_within_an_eighth_of_the_peak() {
        const N: usize = 100_000;
        let sjf = DisciplineChoice::ShortestJobFirst {
            aging_bound_s: f64::INFINITY,
        };
        for discipline in [DisciplineChoice::Fifo, sjf] {
            let mut q = RequestQueue::new(discipline);
            let (mut next, mut peak) = (0, 0);
            // One pop per four pushes, so under SJF the heap grows a few
            // keys at a time, as the deque does.
            for i in 0..N {
                q.push(i, 1, i as f64, 0);
                if i % 4 == 3 {
                    assert_eq!(q.pop(N as f64).unwrap().entry.req, next);
                    next += 1;
                }
                peak = peak.max(q.len());
            }
            let bound = peak + peak / 8 + 64;
            let cap = q.entries.capacity();
            assert!(
                cap <= bound,
                "{discipline:?}: capacity {cap} for {peak} pending"
            );
            let heap = q.size_heap.capacity();
            if discipline == DisciplineChoice::Fifo {
                assert_eq!(heap, 0, "FIFO keeps no heap");
            } else {
                assert!(q.size_heap.len() + 4 >= peak, "every pending entry heaped");
                assert!(heap <= bound, "heap capacity {heap} for {peak} pending");
            }
            while let Some(p) = q.pop(N as f64) {
                assert_eq!(p.entry.req, next, "{discipline:?}");
                next += 1;
            }
            assert_eq!(next, N);
        }
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
