//! The simulator's time-ordered event queue.
//!
//! A thin wrapper over `BinaryHeap` that (a) orders `f64` timestamps with
//! `total_cmp`, (b) breaks timestamp ties by insertion sequence number so
//! execution order is fully deterministic, and (c) carries a typed payload.

use std::cmp::Ordering;
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

#[derive(Debug)]
struct Scheduled {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then the
        // lowest sequence number) pops first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
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
    /// If `time` is NaN or negative.
    pub fn schedule(&mut self, time: f64, event: Event) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pop the earliest event (ties: earliest scheduled first).
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Next event time without popping.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
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
