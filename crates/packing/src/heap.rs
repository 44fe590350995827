//! A deterministic arena-backed binary max-heap with `f64` keys.
//!
//! `std::collections::BinaryHeap` would work, but the paper's complexity
//! argument rests on heap maintenance and the CHP comparison needs *bitwise
//! identical* selection order between the `O(n log n)` and `O(n²)` code
//! paths. Owning the heap lets us (a) break key ties deterministically by a
//! caller-supplied tiebreak (the original item index), (b) expose a
//! `heapify` constructor with the textbook `O(n)` build the paper cites
//! (Aho–Hopcroft–Ullman), and (c) check the heap invariant in tests.

/// An entry: key (max wins), tiebreak (min wins on equal keys), payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapEntry<T> {
    /// Ordering key; larger keys pop first.
    pub key: f64,
    /// Tie-break; on equal keys, *smaller* tiebreaks pop first.
    pub tiebreak: u64,
    /// The payload carried with the entry.
    pub value: T,
}

impl<T> HeapEntry<T> {
    fn beats(&self, other: &Self) -> bool {
        match self.key.total_cmp(&other.key) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => self.tiebreak < other.tiebreak,
        }
    }
}

/// A binary max-heap over [`HeapEntry`]s.
#[derive(Debug, Clone, Default)]
pub struct KeyedMaxHeap<T> {
    arena: Vec<HeapEntry<T>>,
}

impl<T> KeyedMaxHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        KeyedMaxHeap { arena: Vec::new() }
    }

    /// Build in `O(n)` by Floyd's heapify.
    pub fn heapify(entries: Vec<HeapEntry<T>>) -> Self {
        let mut heap = KeyedMaxHeap { arena: entries };
        let n = heap.arena.len();
        for i in (0..n / 2).rev() {
            heap.sift_down(i);
        }
        heap
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The maximum entry, if any.
    pub fn peek(&self) -> Option<&HeapEntry<T>> {
        self.arena.first()
    }

    /// Insert in `O(log n)`.
    pub fn push(&mut self, entry: HeapEntry<T>) {
        self.arena.push(entry);
        self.sift_up(self.arena.len() - 1);
    }

    /// Remove and return the maximum entry in `O(log n)`.
    pub fn pop(&mut self) -> Option<HeapEntry<T>> {
        if self.arena.is_empty() {
            return None;
        }
        let last = self.arena.len() - 1;
        self.arena.swap(0, last);
        let top = self.arena.pop();
        if !self.arena.is_empty() {
            self.sift_down(0);
        }
        top
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.arena[i].beats(&self.arena[parent]) {
                self.arena.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.arena.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < n && self.arena[l].beats(&self.arena[largest]) {
                largest = l;
            }
            if r < n && self.arena[r].beats(&self.arena[largest]) {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.arena.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    impl<T> KeyedMaxHeap<T> {
        /// Verify the heap invariant.
        fn check_invariant(&self) -> bool {
            (1..self.arena.len()).all(|i| !self.arena[i].beats(&self.arena[(i - 1) / 2]))
        }
    }

    /// Pop every entry, in descending key order.
    fn drain<T>(mut h: KeyedMaxHeap<T>) -> Vec<HeapEntry<T>> {
        std::iter::from_fn(|| h.pop()).collect()
    }

    fn entry(key: f64, tiebreak: u64) -> HeapEntry<u64> {
        HeapEntry {
            key,
            tiebreak,
            value: tiebreak,
        }
    }

    #[test]
    fn pops_in_descending_key_order() {
        let mut h = KeyedMaxHeap::new();
        for (i, k) in [0.3, 0.9, 0.1, 0.5, 0.7].into_iter().enumerate() {
            h.push(entry(k, i as u64));
        }
        let keys: Vec<f64> = drain(h).into_iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![0.9, 0.7, 0.5, 0.3, 0.1]);
    }

    #[test]
    fn equal_keys_break_by_tiebreak_ascending() {
        let mut h = KeyedMaxHeap::new();
        h.push(entry(0.5, 2));
        h.push(entry(0.5, 0));
        h.push(entry(0.5, 1));
        let order: Vec<u64> = drain(h).into_iter().map(|e| e.tiebreak).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn heapify_equals_push_sequence() {
        let entries: Vec<_> = (0..64).map(|i| entry((i * 37 % 64) as f64, i)).collect();
        let a = KeyedMaxHeap::heapify(entries.clone());
        let mut b = KeyedMaxHeap::new();
        for e in entries {
            b.push(e);
        }
        assert!(a.check_invariant());
        assert!(b.check_invariant());
        let sa: Vec<u64> = drain(a).into_iter().map(|e| e.tiebreak).collect();
        let sb: Vec<u64> = drain(b).into_iter().map(|e| e.tiebreak).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut h: KeyedMaxHeap<u64> = KeyedMaxHeap::new();
        assert!(h.is_empty());
        assert!(h.peek().is_none());
        assert!(h.pop().is_none());
        assert!(h.check_invariant());
    }

    #[test]
    fn interleaved_push_pop_keeps_invariant() {
        let mut rng = SmallRng::seed_from_u64(99);
        let mut h = KeyedMaxHeap::new();
        for i in 0..1000u64 {
            if h.is_empty() || rng.random::<f64>() < 0.6 {
                h.push(entry(rng.random::<f64>(), i));
            } else {
                h.pop();
            }
            debug_assert!(h.check_invariant());
        }
        assert!(h.check_invariant());
        // drain remains sorted
        let keys: Vec<f64> = drain(h).into_iter().map(|e| e.key).collect();
        for w in keys.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn matches_std_binary_heap_as_reference() {
        // Model check against std's BinaryHeap on the same operations.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ours = KeyedMaxHeap::new();
        let mut reference: BinaryHeap<(u64, Reverse<u64>)> = BinaryHeap::new();
        for i in 0..2000u64 {
            if reference.is_empty() || rng.random::<f64>() < 0.55 {
                let key_bits = rng.random_range(0..1000u64);
                ours.push(entry(key_bits as f64, i));
                reference.push((key_bits, Reverse(i)));
            } else {
                let a = ours.pop().unwrap();
                let (k, Reverse(t)) = reference.pop().unwrap();
                assert_eq!(a.key, k as f64);
                assert_eq!(a.tiebreak, t);
            }
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = KeyedMaxHeap::new();
        h.push(entry(1.0, 0));
        h.push(entry(3.0, 1));
        h.push(entry(2.0, 2));
        let peeked = h.peek().unwrap().key;
        let popped = h.pop().unwrap().key;
        assert_eq!(peeked, popped);
        assert_eq!(popped, 3.0);
    }
}
