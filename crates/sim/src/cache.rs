//! Byte-budget whole-file replacement policies — the "16GB LRU cache … to
//! cache the frequently accessed files" of §5.1, generalised behind the
//! [`CachePolicy`] trait so a cache tier can run LRU, segmented LRU or LFU
//! replacement interchangeably.
//!
//! Whole-file granularity matches the paper's request model (a request
//! always asks for the entire file). Files larger than the budget are never
//! cached. Hit/miss/byte counters feed the report (the paper quotes the
//! observed hit ratio, 5.6%, for its workload).
//!
//! Three implementations:
//! - [`LruCache`] — the original §5.1 policy (the trait impl delegates to
//!   the same inherent methods, pinned bit-identical by
//!   `tests/cache_equivalence.rs`), `O(1)` per access and per eviction.
//! - [`SegmentedLru`] — probation/protected segments with a configurable
//!   byte split; one hit promotes, so scan traffic cannot flush the
//!   protected working set. A 0% protected split degenerates to exact LRU.
//!   `O(1)` per access, plus `O(1)` per demotion or eviction.
//! - [`LfuCache`] — frequency-stamped eviction (evict the lowest
//!   `(frequency, recency)` pair) in `O(log n)` per access.
//!
//! LRU and both SLRU segments share one kernel, a slab-backed doubly
//! linked recency list indexed by file id.

use std::collections::BTreeMap;

use spindown_workload::FileId;

use crate::idhash::IdMap;

/// A byte-budget whole-file replacement policy: one cache tier's brain.
///
/// The contract every implementation must honour (and that
/// `tests/cache_invariants.rs` property-checks):
/// - `access` on a resident file is a **hit**: returns `true`, bumps the
///   policy's recency/frequency bookkeeping, admits nothing.
/// - `access` on an absent file is a **miss**: returns `false` and admits
///   the file, evicting per policy, *unless* it exceeds the whole budget —
///   then it is counted as an oversize rejection and nothing changes.
/// - `stats().resident_bytes` never exceeds the byte budget, and
///   `stats().hits + stats().misses` equals the number of `access` calls.
pub trait CachePolicy: std::fmt::Debug + Send {
    /// Access `file` of `size_bytes`: `true` on a hit; on a miss the file
    /// is admitted (evicting as needed) unless it exceeds the budget.
    fn access(&mut self, file: FileId, size_bytes: u64) -> bool;
    /// Whether `file` is resident (no recency update, no stats update).
    fn contains(&self, file: FileId) -> bool;
    /// Number of resident files.
    fn len(&self) -> usize;
    /// True when nothing is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The running statistics.
    fn stats(&self) -> CacheStats;
}

/// Running cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that missed.
    pub misses: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Bytes evicted over the run.
    pub evicted_bytes: u64,
    /// Files rejected because they exceed the whole budget.
    pub oversize_rejections: u64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when nothing was accessed.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Slot index meaning "no node": the list's ends and the free list's tail.
const NIL: u32 = u32::MAX;

/// One resident file in a [`RecencyList`] slab slot. While the slot is on
/// the free list, `next` links to the next free slot and the rest is stale.
#[derive(Debug, Clone, Copy)]
struct Node {
    file: FileId,
    size: u64,
    prev: u32,
    next: u32,
}

/// A recency-ordered byte-budget set of whole files with `O(1)` touch,
/// insert, remove and evict: the kernel of [`LruCache`] and of both
/// [`SegmentedLru`] segments.
///
/// Nodes live in a `Vec` slab threaded into a doubly linked list (head =
/// most recent, tail = least recent); freed slots are recycled through an
/// intrusive free list, and an [`IdMap`] maps each file to its slot. The
/// list orders entries by their last touch, which is all LRU eviction
/// needs.
#[derive(Debug)]
struct RecencyList {
    nodes: Vec<Node>,
    index: IdMap<FileId, u32>,
    head: u32,
    tail: u32,
    free: u32,
    resident: u64,
}

impl RecencyList {
    fn new() -> Self {
        RecencyList {
            nodes: Vec::new(),
            index: IdMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
            resident: 0,
        }
    }

    fn contains(&self, file: FileId) -> bool {
        self.index.contains_key(&file)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// If `file` is resident, make it the most recent and return its size.
    fn touch(&mut self, file: FileId) -> Option<u64> {
        let slot = *self.index.get(&file)?;
        if slot != self.head {
            self.unlink(slot);
            self.link_front(slot);
        }
        Some(self.nodes[slot as usize].size)
    }

    /// Insert an absent `file` as the most recent entry.
    fn push_front(&mut self, file: FileId, size: u64) {
        let node = Node {
            file,
            size,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("cache holds fewer than 2^32 files")
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        };
        self.link_front(slot);
        self.index.insert(file, slot);
        self.resident += size;
    }

    /// Remove and return the least-recent entry as `(file, size)`.
    fn pop_back(&mut self) -> (FileId, u64) {
        assert!(self.tail != NIL, "eviction requested from an empty cache");
        let Node { file, size, .. } = self.nodes[self.tail as usize];
        self.remove(file);
        (file, size)
    }

    /// Remove a resident `file`, returning its size.
    fn remove(&mut self, file: FileId) -> u64 {
        let slot = self.index.remove(&file).expect("entry resident");
        self.unlink(slot);
        let node = &mut self.nodes[slot as usize];
        node.next = self.free;
        self.free = slot;
        self.resident -= node.size;
        node.size
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

/// Byte-capacity LRU over whole files, `O(1)` per access and per eviction
/// (one `RecencyList`).
#[derive(Debug)]
pub struct LruCache {
    capacity_bytes: u64,
    list: RecencyList,
    stats: CacheStats,
}

impl LruCache {
    /// Cache with the given byte budget.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity_bytes,
            list: RecencyList::new(),
            stats: CacheStats::default(),
        }
    }

    /// Access `file` of `size_bytes`: returns `true` on a hit. On a miss the
    /// file is admitted (evicting least-recently-used files as needed)
    /// unless it exceeds the whole budget.
    pub fn access(&mut self, file: FileId, size_bytes: u64) -> bool {
        if let Some(size) = self.list.touch(file) {
            debug_assert_eq!(size, size_bytes, "file size changed between accesses");
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if size_bytes > self.capacity_bytes {
            self.stats.oversize_rejections += 1;
            return false;
        }
        while self.list.resident + size_bytes > self.capacity_bytes {
            let (_, size) = self.list.pop_back();
            self.stats.evicted_bytes += size;
        }
        self.list.push_front(file, size_bytes);
        self.stats.resident_bytes = self.list.resident;
        false
    }

    /// Whether `file` is resident (no recency update, no stats update).
    pub fn contains(&self, file: FileId) -> bool {
        self.list.contains(file)
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl CachePolicy for LruCache {
    fn access(&mut self, file: FileId, size_bytes: u64) -> bool {
        LruCache::access(self, file, size_bytes)
    }
    fn contains(&self, file: FileId) -> bool {
        LruCache::contains(self, file)
    }
    fn len(&self) -> usize {
        LruCache::len(self)
    }
    fn stats(&self) -> CacheStats {
        LruCache::stats(self)
    }
}

/// Segmented LRU: misses land in a **probation** segment, a hit while on
/// probation promotes to a **protected** segment, and protected overflow
/// demotes back to probation (most-recent end) rather than straight out of
/// the cache — so one burst of single-touch scan traffic can evict at most
/// the probation segment, never the proven working set. Each segment is
/// one `RecencyList` (recency is never compared across segments), so
/// every access is `O(1)` plus `O(1)` per demotion or eviction.
///
/// `protected_pct` splits the byte budget: `protected = budget·pct/100`,
/// probation gets the rest. At `protected_pct = 0` promotion is a no-op
/// recency refresh inside probation, which makes the policy **exactly**
/// LRU over the full budget (property-pinned in `tests/cache_invariants.rs`).
///
/// Oversize accounting is segment-aware: a file that cannot fit in the
/// probation segment can never be admitted, so it counts as an oversize
/// rejection; a probation resident too big for the protected segment stays
/// in probation on hits (refreshed, never promoted).
#[derive(Debug)]
pub struct SegmentedLru {
    probation_capacity: u64,
    protected_capacity: u64,
    probation: RecencyList,
    protected: RecencyList,
    stats: CacheStats,
}

impl SegmentedLru {
    /// Cache with the given byte budget, `protected_pct ∈ [0, 100]` of
    /// which is reserved for the protected segment.
    pub fn new(capacity_bytes: u64, protected_pct: u8) -> Self {
        let pct = u64::from(protected_pct.min(100));
        let protected_capacity = capacity_bytes / 100 * pct + capacity_bytes % 100 * pct / 100;
        SegmentedLru {
            probation_capacity: capacity_bytes - protected_capacity,
            protected_capacity,
            probation: RecencyList::new(),
            protected: RecencyList::new(),
            stats: CacheStats::default(),
        }
    }

    /// Evict from the probation tail until `incoming` more bytes fit.
    fn make_room_in_probation(&mut self, incoming: u64) {
        while self.probation.resident + incoming > self.probation_capacity {
            let (_, size) = self.probation.pop_back();
            self.stats.evicted_bytes += size;
            self.stats.resident_bytes -= size;
        }
    }
}

impl CachePolicy for SegmentedLru {
    fn access(&mut self, file: FileId, size_bytes: u64) -> bool {
        if self.protected.touch(file).is_some() {
            self.stats.hits += 1;
            return true;
        }
        if self.probation.contains(file) {
            self.stats.hits += 1;
            if size_bytes > self.protected_capacity {
                // Promotion impossible (protected_pct = 0, or the file is
                // bigger than the protected segment): LRU refresh in place.
                self.probation.touch(file);
                return true;
            }
            let size = self.probation.remove(file);
            self.protected.push_front(file, size);
            // Demote protected overflow to the recent end of probation —
            // still resident, so no eviction is counted yet …
            while self.protected.resident > self.protected_capacity {
                let (demoted, dsize) = self.protected.pop_back();
                self.probation.push_front(demoted, dsize);
            }
            // … but the demotion may overflow probation, and *that* evicts.
            self.make_room_in_probation(0);
            return true;
        }
        self.stats.misses += 1;
        if size_bytes > self.probation_capacity {
            self.stats.oversize_rejections += 1;
            return false;
        }
        self.make_room_in_probation(size_bytes);
        self.probation.push_front(file, size_bytes);
        self.stats.resident_bytes += size_bytes;
        false
    }

    fn contains(&self, file: FileId) -> bool {
        self.probation.contains(file) || self.protected.contains(file)
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Byte-budget LFU over whole files: evict the resident file with the
/// lowest access frequency, breaking ties toward the least recent. The
/// eviction index is a `BTreeMap` keyed `(frequency, stamp)`, so every
/// access is `O(log n)`. Frequency state lives only on resident entries —
/// a re-admitted file restarts at frequency 1 (no ghost history), keeping
/// memory bounded by residency.
#[derive(Debug)]
pub struct LfuCache {
    capacity_bytes: u64,
    entries: IdMap<FileId, (u64, u64, u64)>, // file -> (size, freq, stamp)
    by_freq: BTreeMap<(u64, u64), FileId>,   // (freq, stamp) -> file
    next_stamp: u64,
    stats: CacheStats,
}

impl LfuCache {
    /// Cache with the given byte budget.
    pub fn new(capacity_bytes: u64) -> Self {
        LfuCache {
            capacity_bytes,
            entries: IdMap::default(),
            by_freq: BTreeMap::new(),
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    fn evict_lfu(&mut self) {
        let (&key, &file) = self
            .by_freq
            .iter()
            .next()
            .expect("eviction requested from empty cache");
        self.by_freq.remove(&key);
        let (size, _, _) = self.entries.remove(&file).expect("index consistent");
        self.stats.resident_bytes -= size;
        self.stats.evicted_bytes += size;
    }
}

impl CachePolicy for LfuCache {
    fn access(&mut self, file: FileId, size_bytes: u64) -> bool {
        if let Some((_, freq, stamp)) = self.entries.get_mut(&file) {
            self.by_freq.remove(&(*freq, *stamp));
            *freq += 1;
            *stamp = self.next_stamp;
            self.next_stamp += 1;
            self.by_freq.insert((*freq, *stamp), file);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if size_bytes > self.capacity_bytes {
            self.stats.oversize_rejections += 1;
            return false;
        }
        while self.stats.resident_bytes + size_bytes > self.capacity_bytes {
            self.evict_lfu();
        }
        let stamp = self.bump();
        self.entries.insert(file, (size_bytes, 1, stamp));
        self.by_freq.insert((1, stamp), file);
        self.stats.resident_bytes += size_bytes;
        false
    }

    fn contains(&self, file: FileId) -> bool {
        self.entries.contains_key(&file)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = LruCache::new(100);
        assert!(!c.access(f(1), 40));
        assert!(c.access(f(1), 40));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(100);
        c.access(f(1), 40);
        c.access(f(2), 40);
        c.access(f(1), 40); // refresh 1 → 2 is now LRU
        c.access(f(3), 40); // evicts 2
        assert!(c.contains(f(1)));
        assert!(!c.contains(f(2)));
        assert!(c.contains(f(3)));
        assert_eq!(c.stats().evicted_bytes, 40);
    }

    #[test]
    fn oversize_files_never_cached() {
        let mut c = LruCache::new(100);
        assert!(!c.access(f(9), 200));
        assert!(!c.access(f(9), 200)); // still a miss
        assert_eq!(c.stats().oversize_rejections, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn resident_bytes_tracks_contents() {
        let mut c = LruCache::new(100);
        c.access(f(1), 30);
        c.access(f(2), 30);
        assert_eq!(c.stats().resident_bytes, 60);
        c.access(f(3), 60); // evicts only 1 (LRU); 2 still fits
        assert_eq!(c.stats().resident_bytes, 90);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(f(1)));
        assert!(c.contains(f(2)));
    }

    #[test]
    fn multi_eviction_for_one_admission() {
        let mut c = LruCache::new(100);
        for i in 0..10 {
            c.access(f(i), 10);
        }
        assert_eq!(c.len(), 10);
        c.access(f(100), 95); // evicts almost everything
        assert!(c.contains(f(100)));
        assert!(c.stats().resident_bytes <= 100);
    }

    #[test]
    fn empty_cache_hit_ratio_zero() {
        let c = LruCache::new(10);
        assert_eq!(c.stats().hit_ratio(), 0.0);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c = LruCache::new(0);
        assert!(!c.access(f(1), 1));
        assert!(!c.access(f(1), 1));
        assert!(c.is_empty());
    }

    // ── Oversize-rejection accounting (previously untested) ──────────
    // An oversize miss must count in `misses` (so `hit_ratio` reflects
    // it), must count in `oversize_rejections`, and must *not* disturb
    // residents or the eviction counter — for every policy.

    #[test]
    fn oversize_misses_depress_the_hit_ratio() {
        let mut c = LruCache::new(100);
        c.access(f(1), 40);
        c.access(f(1), 40); // hit
        c.access(f(9), 200); // oversize miss
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().oversize_rejections, 1);
        assert!((c.stats().hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn oversize_rejection_evicts_nothing() {
        let mut lru: Box<dyn CachePolicy> = Box::new(LruCache::new(100));
        let mut slru: Box<dyn CachePolicy> = Box::new(SegmentedLru::new(100, 0));
        let mut lfu: Box<dyn CachePolicy> = Box::new(LfuCache::new(100));
        for c in [&mut lru, &mut slru, &mut lfu] {
            c.access(f(1), 60);
            c.access(f(2), 30);
            assert!(!c.access(f(9), 200), "oversize file must miss");
            assert!(!c.contains(f(9)));
            assert!(c.contains(f(1)) && c.contains(f(2)), "residents survive");
            let s = c.stats();
            assert_eq!(s.oversize_rejections, 1);
            assert_eq!(s.evicted_bytes, 0, "rejection is not an eviction");
            assert_eq!(s.resident_bytes, 90);
            assert!((s.hit_ratio() - 0.0).abs() < 1e-12, "three misses, no hit");
        }
    }

    #[test]
    fn segmented_oversize_is_relative_to_the_probation_segment() {
        // 100 bytes, 40% protected → probation is 60 bytes: a 70-byte file
        // can never be admitted even though it is under the total budget.
        let mut c = SegmentedLru::new(100, 40);
        assert!(!c.access(f(1), 70));
        assert_eq!(c.stats().oversize_rejections, 1);
        assert!(c.is_empty());
        // …but a 50-byte file fits probation fine.
        assert!(!c.access(f(2), 50));
        assert_eq!(c.stats().resident_bytes, 50);
    }

    // ── SegmentedLru ─────────────────────────────────────────────────

    #[test]
    fn slru_one_hit_promotes_and_scans_cannot_flush_protected() {
        // 100 bytes, half protected. Touch file 1 twice → protected.
        let mut c = SegmentedLru::new(100, 50);
        c.access(f(1), 40);
        assert!(c.access(f(1), 40));
        // A scan of single-touch files churns probation only.
        for i in 10..20 {
            c.access(f(i), 30);
        }
        assert!(c.contains(f(1)), "protected survives the scan");
        assert!(c.stats().resident_bytes <= 100);
    }

    #[test]
    fn slru_protected_overflow_demotes_before_evicting() {
        // 100 bytes, half protected: promote 1 (30 B) then 2 (30 B) — both
        // fit protected exactly at 60? No: protected = 50, so promoting 2
        // demotes 1 back to probation, still resident.
        let mut c = SegmentedLru::new(100, 50);
        c.access(f(1), 30);
        c.access(f(1), 30); // promoted
        c.access(f(2), 30);
        c.access(f(2), 30); // promoted; 1 demoted to probation
        assert!(c.contains(f(1)) && c.contains(f(2)));
        assert_eq!(c.stats().evicted_bytes, 0, "demotion is not eviction");
        assert_eq!(c.stats().resident_bytes, 60);
    }

    #[test]
    fn slru_zero_protected_split_behaves_as_plain_lru() {
        let mut slru = SegmentedLru::new(100, 0);
        let mut lru = LruCache::new(100);
        // Deliberately interleaved hits/misses/evictions.
        for &(id, size) in &[
            (1u32, 40u64),
            (2, 40),
            (1, 40),
            (3, 40), // evicts 2 under LRU
            (2, 40),
            (9, 200), // oversize
            (1, 40),
        ] {
            assert_eq!(
                slru.access(f(id), size),
                lru.access(f(id), size),
                "divergence on file {id}"
            );
        }
        assert_eq!(slru.stats(), lru.stats());
    }

    // ── LfuCache ─────────────────────────────────────────────────────

    #[test]
    fn lfu_evicts_the_least_frequent_not_the_least_recent() {
        let mut c = LfuCache::new(100);
        c.access(f(1), 40);
        c.access(f(1), 40);
        c.access(f(1), 40); // freq 3
        c.access(f(2), 40); // freq 1, most recent
        c.access(f(3), 40); // must evict 2 (lowest freq), not 1
        assert!(c.contains(f(1)));
        assert!(!c.contains(f(2)));
        assert!(c.contains(f(3)));
    }

    #[test]
    fn lfu_breaks_frequency_ties_toward_least_recent() {
        let mut c = LfuCache::new(100);
        c.access(f(1), 40); // freq 1, older
        c.access(f(2), 40); // freq 1, newer
        c.access(f(3), 40); // tie at freq 1 → evict 1 (older)
        assert!(!c.contains(f(1)));
        assert!(c.contains(f(2)) && c.contains(f(3)));
    }

    #[test]
    fn lfu_forgets_frequency_on_eviction() {
        let mut c = LfuCache::new(100);
        for _ in 0..5 {
            c.access(f(1), 60); // freq 5
        }
        c.access(f(2), 60); // evicts 1 despite its history
        assert!(!c.contains(f(1)));
        // Re-admitted 1 restarts at freq 1: the *older* stamp of a fresh 1
        // loses the tie against nothing — verify it can be evicted by a
        // same-frequency newcomer straight away.
        c.access(f(1), 60); // evicts 2 (freq 1, older stamp)
        c.access(f(3), 60); // ties with 1 at freq 1 → evicts 1 (older)
        assert!(!c.contains(f(1)));
        assert!(c.contains(f(3)));
    }

    #[test]
    fn model_check_against_naive_lru() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        // Naive reference: Vec ordered by recency (front = LRU).
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ours = LruCache::new(50);
        let mut reference: Vec<(u32, u64)> = Vec::new();
        let sizes: Vec<u64> = (0..20).map(|_| rng.random_range(5..25u64)).collect();
        for _ in 0..5000 {
            let id = rng.random_range(0..20u32);
            let size = sizes[id as usize];
            let got = ours.access(FileId(id), size);
            // reference behaviour
            let pos = reference.iter().position(|&(i, _)| i == id);
            let expected = if let Some(p) = pos {
                let e = reference.remove(p);
                reference.push(e);
                true
            } else if size > 50 {
                false
            } else {
                let mut resident: u64 = reference.iter().map(|&(_, s)| s).sum();
                while resident + size > 50 {
                    let (_, s) = reference.remove(0);
                    resident -= s;
                }
                reference.push((id, size));
                false
            };
            assert_eq!(got, expected, "divergence on file {id}");
        }
    }
}
