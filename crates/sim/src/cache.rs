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
//!
//! Every policy finds a file's state through a table indexed by its
//! [`FileId`], not a hash map: file ids are dense catalog indices. A table
//! grows only when a file is admitted, to the largest id admitted so far,
//! so it never outgrows the catalog; looking up an id past its end reads
//! "absent" and allocates nothing.

use std::collections::BTreeMap;

use spindown_workload::FileId;

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

/// Slot index meaning "no node": the list's ends, the free list's tail and
/// an absent file's entry in the slot table.
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
/// intrusive free list. The slot table `index[file]` holds each resident
/// file's slot and `NIL` for every other id up to the largest admitted;
/// at 4 bytes per id it stays within 160 KB on the 40k-file catalog. The
/// list orders entries by their last touch, which is all LRU eviction
/// needs.
#[derive(Debug)]
struct RecencyList {
    nodes: Vec<Node>,
    index: Vec<u32>,
    len: usize,
    head: u32,
    tail: u32,
    free: u32,
    resident: u64,
}

impl RecencyList {
    fn new() -> Self {
        RecencyList {
            nodes: Vec::new(),
            index: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
            resident: 0,
        }
    }

    /// The slot of a resident `file`.
    fn slot(&self, file: FileId) -> Option<u32> {
        self.index
            .get(file.0 as usize)
            .copied()
            .filter(|&slot| slot != NIL)
    }

    fn contains(&self, file: FileId) -> bool {
        self.slot(file).is_some()
    }

    fn len(&self) -> usize {
        self.len
    }

    /// If `file` is resident, make it the most recent and return its size.
    fn touch(&mut self, file: FileId) -> Option<u64> {
        let slot = self.slot(file)?;
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
        let i = file.0 as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, NIL);
        }
        self.index[i] = slot;
        self.len += 1;
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
        let slot = std::mem::replace(&mut self.index[file.0 as usize], NIL);
        assert_ne!(slot, NIL, "entry resident");
        self.len -= 1;
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
/// a re-admitted file restarts at frequency 1 (no ghost history). The
/// per-file table holds `(frequency, stamp)` indexed by file id, with
/// frequency 0 for a file not resident; the size rides in the eviction
/// index, which only eviction reads.
#[derive(Debug)]
pub struct LfuCache {
    capacity_bytes: u64,
    entries: Vec<(u64, u64)>,                     // file -> (freq, stamp)
    by_freq: BTreeMap<(u64, u64), (FileId, u64)>, // (freq, stamp) -> (file, size)
    next_stamp: u64,
    stats: CacheStats,
}

impl LfuCache {
    /// Cache with the given byte budget.
    pub fn new(capacity_bytes: u64) -> Self {
        LfuCache {
            capacity_bytes,
            entries: Vec::new(),
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
        let (_, (file, size)) = self
            .by_freq
            .pop_first()
            .expect("eviction requested from empty cache");
        self.entries[file.0 as usize] = (0, 0);
        self.stats.resident_bytes -= size;
        self.stats.evicted_bytes += size;
    }
}

impl CachePolicy for LfuCache {
    fn access(&mut self, file: FileId, size_bytes: u64) -> bool {
        if let Some((freq, stamp)) = self
            .entries
            .get_mut(file.0 as usize)
            .filter(|(freq, _)| *freq > 0)
        {
            let value = self
                .by_freq
                .remove(&(*freq, *stamp))
                .expect("index consistent");
            *freq += 1;
            *stamp = self.next_stamp;
            self.next_stamp += 1;
            self.by_freq.insert((*freq, *stamp), value);
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
        let i = file.0 as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, (0, 0));
        }
        self.entries[i] = (1, stamp);
        self.by_freq.insert((1, stamp), (file, size_bytes));
        self.stats.resident_bytes += size_bytes;
        false
    }

    fn contains(&self, file: FileId) -> bool {
        self.entries
            .get(file.0 as usize)
            .is_some_and(|&(freq, _)| freq > 0)
    }

    fn len(&self) -> usize {
        self.by_freq.len()
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

    /// A probe or an oversize miss on an id far past every admitted file
    /// reads "absent" without growing any slot table, and every policy
    /// keeps answering for its residents.
    #[test]
    fn far_ids_leave_the_slot_tables_alone() {
        let far = f(u32::MAX - 1);
        let mut lru = LruCache::new(100);
        let mut slru = SegmentedLru::new(100, 50);
        let mut lfu = LfuCache::new(100);
        for c in [&mut lru as &mut dyn CachePolicy, &mut slru, &mut lfu] {
            c.access(f(3), 40);
            c.access(f(3), 40);
            c.access(f(1), 40);
        }
        let tables = |lru: &LruCache, slru: &SegmentedLru, lfu: &LfuCache| {
            [
                lru.list.index.len(),
                slru.probation.index.len(),
                slru.protected.index.len(),
                lfu.entries.len(),
            ]
        };
        let before = tables(&lru, &slru, &lfu);
        for c in [&mut lru as &mut dyn CachePolicy, &mut slru, &mut lfu] {
            assert!(!c.contains(far));
            assert!(!c.access(far, 200), "oversize miss");
            assert_eq!(c.stats().oversize_rejections, 1);
        }
        assert_eq!(tables(&lru, &slru, &lfu), before);
        for c in [&mut lru as &mut dyn CachePolicy, &mut slru, &mut lfu] {
            assert!(c.contains(f(1)) && c.contains(f(3)) && !c.contains(f(2)));
            assert_eq!(c.len(), 2);
            assert!(c.access(f(1), 40), "resident file hits");
            assert!(!c.access(f(2), 40), "absent file misses");
            // LRU and LFU evict 3 (least recent; older at frequency 2),
            // SLRU demotes 3 from protected and evicts it from probation.
            assert!(!c.contains(f(3)) && c.contains(f(1)) && c.contains(f(2)));
        }
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
