//! The simulator's time-ordered event queue.
//!
//! A `BinaryHeap` of packed 128-bit keys. The high 64 bits are the
//! timestamp's `total_cmp` order bits, the low 64 bits the insertion
//! sequence number above the payload (its kind and disk). Keys are
//! unique, so plain integer order is the strict `(time, seq)` order:
//! timestamp ties break by insertion, execution order is fully
//! deterministic, and a comparison is one 128-bit compare.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The payloads the engine schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Disk `disk` finishes its current phase (service, spin-up or
    /// spin-down — the actor knows which).
    PhaseDone {
        /// Disk index.
        disk: usize,
    },
    /// Disk `disk`'s descent timer fires; the engine checks it against
    /// the disk's live deadline, which filters stale timers.
    SpinDownTimer {
        /// Disk index.
        disk: usize,
    },
    /// Disk `disk` fail-stops (fault injection): it goes offline until its
    /// repair completes. Crashes landing mid-phase are deferred to the next
    /// phase boundary by the engine.
    Crash {
        /// Disk index.
        disk: usize,
    },
    /// Disk `disk`'s repair completes (fault injection): it comes back
    /// parked at the deepest sleep level it reached; the shared cache in
    /// front of the fleet keeps its contents.
    Repair {
        /// Disk index.
        disk: usize,
    },
    /// A retry backoff for disk `disk` expires (fault injection): due
    /// retried requests re-enter its queue, or a held wake attempt is
    /// allowed again.
    Retry {
        /// Disk index.
        disk: usize,
    },
}

/// Bits of the packed key that hold the disk index.
const DISK_BITS: u32 = 24;
/// Bits of the packed key that hold the event kind.
const KIND_BITS: u32 = 3;
/// Where the sequence number starts in the key's low word.
const SEQ_SHIFT: u32 = DISK_BITS + KIND_BITS;
/// Sequence numbers run below this; reaching it renumbers the queue.
const SEQ_LIMIT: u64 = 1 << (64 - SEQ_SHIFT);

/// The widest fleet an event can name: disk indices run below this.
pub const MAX_DISKS: usize = 1 << DISK_BITS;

impl Event {
    /// The kind tag and the disk index.
    #[inline]
    fn split(self) -> (u64, usize) {
        match self {
            Event::PhaseDone { disk } => (0, disk),
            Event::SpinDownTimer { disk } => (1, disk),
            Event::Crash { disk } => (2, disk),
            Event::Repair { disk } => (3, disk),
            Event::Retry { disk } => (4, disk),
        }
    }

    /// The event a key's low word holds.
    #[inline]
    fn unpack(low: u64) -> Self {
        let disk = (low & ((1 << DISK_BITS) - 1)) as usize;
        match (low >> DISK_BITS) & ((1 << KIND_BITS) - 1) {
            0 => Event::PhaseDone { disk },
            1 => Event::SpinDownTimer { disk },
            2 => Event::Crash { disk },
            3 => Event::Repair { disk },
            _ => Event::Retry { disk },
        }
    }
}

/// `time`'s bits, mapped so unsigned integer order is `f64::total_cmp`
/// order (`-0.0` before `0.0`).
#[inline]
fn time_key(time: f64) -> u64 {
    let bits = time.to_bits() as i64;
    // The same flip as `total_cmp`, then the sign bit moves signed order
    // to unsigned order.
    ((bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64) ^ (1 << 63)
}

/// The inverse of [`time_key`].
#[inline]
fn key_time(key: u64) -> f64 {
    let bits = (key ^ (1 << 63)) as i64;
    f64::from_bits((bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64)
}

/// Deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Min-heap of `time_key << 64 | seq << SEQ_SHIFT | kind << DISK_BITS
    /// | disk`.
    heap: BinaryHeap<Reverse<u128>>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at `time`.
    ///
    /// # Panics
    /// If `time` is NaN or negative, or the event's disk is not below
    /// [`MAX_DISKS`].
    pub fn schedule(&mut self, time: f64, event: Event) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let (kind, disk) = event.split();
        assert!(disk < MAX_DISKS, "disk {disk} past the event key's field");
        if self.seq == SEQ_LIMIT {
            self.renumber();
        }
        let low = self.seq << SEQ_SHIFT | kind << DISK_BITS | disk as u64;
        self.heap
            .push(Reverse(u128::from(time_key(time)) << 64 | u128::from(low)));
        self.seq += 1;
    }

    /// Give the pending events the sequence numbers `0..len` in their pop
    /// order, so numbering restarts without reordering any event.
    #[cold]
    fn renumber(&mut self) {
        let mut keys: Vec<u128> = std::mem::take(&mut self.heap)
            .into_iter()
            .map(|Reverse(key)| key)
            .collect();
        keys.sort_unstable();
        let payload = (1u128 << SEQ_SHIFT) - 1;
        let high = !((1u128 << 64) - 1);
        for (seq, key) in (0u64..).zip(&mut keys) {
            *key = (*key & (high | payload)) | u128::from(seq << SEQ_SHIFT);
        }
        self.seq = keys.len() as u64;
        self.heap = keys.into_iter().map(Reverse).collect();
    }

    /// Pop the earliest event (ties: earliest scheduled first).
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap
            .pop()
            .map(|Reverse(key)| (key_time((key >> 64) as u64), Event::unpack(key as u64)))
    }

    /// Next event time without popping.
    #[inline]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap
            .peek()
            .map(|Reverse(key)| key_time((key >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, Event::PhaseDone { disk: 0 });
        q.schedule(1.0, Event::PhaseDone { disk: 1 });
        q.schedule(3.0, Event::PhaseDone { disk: 2 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, Event::PhaseDone { disk: 10 });
        q.schedule(2.0, Event::PhaseDone { disk: 3 });
        q.schedule(2.0, Event::PhaseDone { disk: 11 });
        assert_eq!(q.pop().unwrap().1, Event::PhaseDone { disk: 10 });
        assert_eq!(q.pop().unwrap().1, Event::PhaseDone { disk: 3 });
        assert_eq!(q.pop().unwrap().1, Event::PhaseDone { disk: 11 });
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(7.5, Event::PhaseDone { disk: 0 });
        assert_eq!(q.peek_time(), Some(7.5));
        assert_eq!(q.pop().unwrap().0, 7.5);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(1.0, Event::PhaseDone { disk: 0 });
        q.schedule(2.0, Event::PhaseDone { disk: 1 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, Event::PhaseDone { disk: 0 });
    }

    #[test]
    fn negative_zero_sorts_before_zero_and_round_trips() {
        let mut q = EventQueue::new();
        q.schedule(0.0, Event::Retry { disk: 1 });
        q.schedule(
            -0.0,
            Event::Crash {
                disk: MAX_DISKS - 1,
            },
        );
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            ev,
            Event::Crash {
                disk: MAX_DISKS - 1
            }
        );
        assert_eq!(q.peek_time().map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_eq!(q.pop(), Some((0.0, Event::Retry { disk: 1 })));
    }

    #[test]
    #[should_panic(expected = "past the event key's field")]
    fn a_disk_past_the_field_is_rejected() {
        EventQueue::new().schedule(1.0, Event::PhaseDone { disk: MAX_DISKS });
    }

    #[test]
    fn renumbering_at_the_sequence_limit_keeps_the_pop_order() {
        let mut q = EventQueue::new();
        q.seq = SEQ_LIMIT - 3;
        for (t, disk) in [(2.0, 0), (1.0, 1), (2.0, 2)] {
            q.schedule(t, Event::PhaseDone { disk });
        }
        // The next push renumbers the three pending events 0..3.
        q.schedule(2.0, Event::SpinDownTimer { disk: 3 });
        assert_eq!(q.seq, 4);
        q.schedule(1.0, Event::Repair { disk: 4 });
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (1.0, Event::PhaseDone { disk: 1 }),
                (1.0, Event::Repair { disk: 4 }),
                (2.0, Event::PhaseDone { disk: 0 }),
                (2.0, Event::PhaseDone { disk: 2 }),
                (2.0, Event::SpinDownTimer { disk: 3 }),
            ]
        );
    }

    /// The reference queue: pending `(time, seq, event)` entries, the
    /// earliest by `(time.total_cmp, seq)` popped first.
    #[derive(Default)]
    struct Reference(Vec<(f64, u64, Event)>, u64);

    impl Reference {
        fn schedule(&mut self, time: f64, event: Event) {
            self.0.push((time, self.1, event));
            self.1 += 1;
        }

        fn first(&self) -> Option<usize> {
            (0..self.0.len()).min_by(|&a, &b| {
                let (a, b) = (&self.0[a], &self.0[b]);
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            })
        }

        fn pop(&mut self) -> Option<(u64, Event)> {
            let (t, _, ev) = self.0.swap_remove(self.first()?);
            Some((t.to_bits(), ev))
        }

        fn peek_time(&self) -> Option<u64> {
            self.first().map(|i| self.0[i].0.to_bits())
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_queue_matches_a_total_cmp_seq_heap(
            ops in prop::collection::vec((0u8..8, 0usize..6, 0usize..5, 0usize..1_000), 1..200)
        ) {
            // A small pool of times makes repeated times common; 0.0 and
            // -0.0 are in it.
            let times = [0.0, -0.0, 1.5, 1.5, 7.25, 1e9];
            let mut q = EventQueue::new();
            let mut reference = Reference::default();
            for (op, t, kind, disk) in ops {
                if op < 5 {
                    let ev = match kind {
                        0 => Event::PhaseDone { disk },
                        1 => Event::SpinDownTimer { disk },
                        2 => Event::Crash { disk },
                        3 => Event::Repair { disk },
                        _ => Event::Retry { disk },
                    };
                    q.schedule(times[t], ev);
                    reference.schedule(times[t], ev);
                } else {
                    let got = q.pop().map(|(t, ev)| (t.to_bits(), ev));
                    prop_assert_eq!(got, reference.pop());
                }
                prop_assert_eq!(q.len(), reference.0.len());
                prop_assert_eq!(q.peek_time().map(f64::to_bits), reference.peek_time());
            }
            while let Some(want) = reference.pop() {
                prop_assert_eq!(q.pop().map(|(t, ev)| (t.to_bits(), ev)), Some(want));
                prop_assert_eq!(q.len(), reference.0.len());
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(10.0, Event::PhaseDone { disk: 0 });
        q.schedule(4.0, Event::PhaseDone { disk: 1 });
        assert_eq!(q.pop().unwrap().0, 4.0);
        q.schedule(6.0, Event::PhaseDone { disk: 2 });
        q.schedule(5.0, Event::PhaseDone { disk: 3 });
        assert_eq!(q.pop().unwrap().0, 5.0);
        assert_eq!(q.pop().unwrap().0, 6.0);
        assert_eq!(q.pop().unwrap().0, 10.0);
    }
}
