//! Cache-policy property tests (tier-1): the [`CachePolicy`] contract that
//! every replacement policy — LRU, segmented LRU, LFU — must honour on
//! *arbitrary* access sequences, not just the fixtures:
//!
//! - resident bytes never exceed the byte budget, **at every step**, and
//!   always equal the sizes of exactly the files `contains` reports;
//! - `hits + misses` equals the number of `access` calls (oversize
//!   rejections are misses, never a third category);
//! - LRU agrees access-by-access with a naive `Vec` reference model,
//!   long eviction runs included;
//! - segmented LRU at 20/50/80% protected splits agrees access-by-access
//!   with a naive two-`Vec` probation/protected reference;
//! - segmented LRU with a 0% protected split *is* LRU, bit for bit;
//! - a strictly larger LRU cache never hits less on the same sequence
//!   (the stack-inclusion property — exact for uniform file sizes), and
//!   on the paper's own mixed-size Zipf workload every policy's hit
//!   ratio grows monotonically across the 16 → 128 GB ladder the
//!   shootout's cache bracket sweeps.
//!
//! File sizes are a per-id table (the engine never changes a file's size
//! between accesses, and `LruCache` debug-asserts exactly that), so the
//! generators draw a size vector once and an id sequence separately.

use proptest::prelude::*;
use spindown::sim::cache::{CachePolicy, CacheStats, LfuCache, LruCache, SegmentedLru};
use spindown::workload::catalog::FileId;
use spindown::workload::{FileCatalog, Trace};

/// All three policies at the same byte budget (SLRU at the default-ish
/// 20% protected split so its two segments are both exercised).
fn all_policies(capacity: u64) -> Vec<Box<dyn CachePolicy>> {
    vec![
        Box::new(LruCache::new(capacity)),
        Box::new(SegmentedLru::new(capacity, 20)),
        Box::new(LfuCache::new(capacity)),
    ]
}

/// Replay `ids` against `cache` using the `sizes` table; returns the
/// per-access hit flags.
fn replay(cache: &mut dyn CachePolicy, ids: &[u32], sizes: &[u64]) -> Vec<bool> {
    ids.iter()
        .map(|&id| cache.access(FileId(id), sizes[id as usize]))
        .collect()
}

/// Naive segmented-LRU reference: two recency-ordered `Vec`s (front =
/// least recent) and linear scans everywhere, written from the policy's
/// definition rather than from the implementation.
struct NaiveSlru {
    probation: Vec<(u32, u64)>,
    protected: Vec<(u32, u64)>,
    probation_capacity: u64,
    protected_capacity: u64,
    stats: CacheStats,
}

impl NaiveSlru {
    fn new(capacity: u64, pct: u8) -> Self {
        let protected_capacity = (u128::from(capacity) * u128::from(pct) / 100) as u64;
        NaiveSlru {
            probation: Vec::new(),
            protected: Vec::new(),
            probation_capacity: capacity - protected_capacity,
            protected_capacity,
            stats: CacheStats::default(),
        }
    }

    fn bytes(segment: &[(u32, u64)]) -> u64 {
        segment.iter().map(|&(_, s)| s).sum()
    }

    fn evict_probation_until(&mut self, incoming: u64) {
        while Self::bytes(&self.probation) + incoming > self.probation_capacity {
            let (_, s) = self.probation.remove(0);
            self.stats.evicted_bytes += s;
        }
    }

    fn access(&mut self, id: u32, size: u64) -> bool {
        if let Some(p) = self.protected.iter().position(|&(i, _)| i == id) {
            let e = self.protected.remove(p);
            self.protected.push(e);
            self.stats.hits += 1;
            return true;
        }
        let hit = if let Some(p) = self.probation.iter().position(|&(i, _)| i == id) {
            self.stats.hits += 1;
            let e = self.probation.remove(p);
            if size > self.protected_capacity {
                // Too big to promote: refresh in place.
                self.probation.push(e);
            } else {
                self.protected.push(e);
                while Self::bytes(&self.protected) > self.protected_capacity {
                    let demoted = self.protected.remove(0);
                    self.probation.push(demoted);
                }
                self.evict_probation_until(0);
            }
            true
        } else {
            self.stats.misses += 1;
            if size > self.probation_capacity {
                self.stats.oversize_rejections += 1;
                return false;
            }
            self.evict_probation_until(size);
            self.probation.push((id, size));
            false
        };
        self.stats.resident_bytes = Self::bytes(&self.probation) + Self::bytes(&self.protected);
        hit
    }

    fn contains(&self, id: u32) -> bool {
        self.probation
            .iter()
            .chain(&self.protected)
            .any(|&(i, _)| i == id)
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Invariant 1: the byte budget holds at *every* step, and the stats'
    // resident counter always equals the bytes of the `contains` set.
    #[test]
    fn resident_bytes_never_exceed_the_budget(
        capacity in 0u64..150,
        sizes in prop::collection::vec(1u64..60, 20..21),
        ids in prop::collection::vec(0u32..20, 1..300),
    ) {
        for cache in &mut all_policies(capacity) {
            for &id in &ids {
                cache.access(FileId(id), sizes[id as usize]);
                let stats = cache.stats();
                prop_assert!(
                    stats.resident_bytes <= capacity,
                    "resident {} exceeds budget {capacity}",
                    stats.resident_bytes
                );
                let contained: u64 = (0..20u32)
                    .filter(|&i| cache.contains(FileId(i)))
                    .map(|i| sizes[i as usize])
                    .sum();
                prop_assert_eq!(stats.resident_bytes, contained);
                prop_assert_eq!(
                    cache.len(),
                    (0..20u32).filter(|&i| cache.contains(FileId(i))).count()
                );
            }
        }
    }

    // Invariant 2: every access is exactly one hit or one miss, hits are
    // the accesses that returned `true`, and oversize rejections are a
    // subset of the misses (never additional accesses).
    #[test]
    fn hits_and_misses_partition_the_accesses(
        capacity in 0u64..120,
        sizes in prop::collection::vec(1u64..200, 16..17),
        ids in prop::collection::vec(0u32..16, 0..250),
    ) {
        for cache in &mut all_policies(capacity) {
            let hits = replay(cache.as_mut(), &ids, &sizes);
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, ids.len() as u64);
            prop_assert_eq!(stats.hits, hits.iter().filter(|&&h| h).count() as u64);
            prop_assert!(stats.oversize_rejections <= stats.misses);
            // A file wider than the whole budget can never be resident,
            // so every access to one must have missed.
            let oversize_accesses = ids
                .iter()
                .filter(|&&id| sizes[id as usize] > capacity)
                .count() as u64;
            prop_assert!(stats.oversize_rejections >= oversize_accesses);
        }
    }

    // Invariant 3: LRU is observationally equal to the obvious reference
    // — a recency-ordered Vec (front = least recent) — on every sequence,
    // including long eviction runs (a catalog much wider than the
    // budget), so recycled slab slots are checked against `contains`,
    // `len` and the resident-byte counter after every operation.
    #[test]
    fn lru_matches_the_naive_vec_reference(
        capacity in 1u64..100,
        sizes in prop::collection::vec(1u64..120, 48..49),
        ops in prop::collection::vec(0u32..48, 0..1500),
    ) {
        let mut ours = LruCache::new(capacity);
        let mut reference: Vec<(u32, u64)> = Vec::new();
        for &op in &ops {
            let id = op;
            let size = sizes[id as usize];
            let got = ours.access(FileId(id), size);
            let expected = if let Some(p) = reference.iter().position(|&(i, _)| i == id) {
                let e = reference.remove(p);
                reference.push(e);
                true
            } else if size > capacity {
                false
            } else {
                let mut resident: u64 = reference.iter().map(|&(_, s)| s).sum();
                while resident + size > capacity {
                    let (_, s) = reference.remove(0);
                    resident -= s;
                }
                reference.push((id, size));
                false
            };
            prop_assert_eq!(got, expected, "divergence on file {}", id);
            prop_assert_eq!(
                ours.stats().resident_bytes,
                reference.iter().map(|&(_, s)| s).sum::<u64>()
            );
            prop_assert_eq!(ours.len(), reference.len());
            for id in 0..48u32 {
                prop_assert_eq!(
                    ours.contains(FileId(id)),
                    reference.iter().any(|&(i, _)| i == id),
                    "residency of file {} after op {}", id, op
                );
            }
        }
    }

    // Invariant 3b: segmented LRU at nonzero protected splits agrees
    // access by access with a naive two-Vec reference — promotion on a
    // probation hit, demotion of protected overflow to the probation MRU
    // end, eviction only from the probation LRU end. Every stats field and the resident set are compared after every
    // operation.
    #[test]
    fn slru_matches_the_naive_two_vec_reference(
        capacity in 1u64..200,
        sizes in prop::collection::vec(1u64..90, 32..33),
        ops in prop::collection::vec(0u32..32, 0..800),
    ) {
        for pct in [20u8, 50, 80] {
            let mut ours = SegmentedLru::new(capacity, pct);
            let mut reference = NaiveSlru::new(capacity, pct);
            for &op in &ops {
                let size = sizes[op as usize];
                prop_assert_eq!(
                    CachePolicy::access(&mut ours, FileId(op), size),
                    reference.access(op, size),
                    "divergence on file {} at {}% protected", op, pct
                );
                prop_assert_eq!(CachePolicy::stats(&ours), reference.stats);
                prop_assert_eq!(CachePolicy::len(&ours), reference.len());
                for id in 0..32u32 {
                    prop_assert_eq!(
                        CachePolicy::contains(&ours, FileId(id)),
                        reference.contains(id),
                        "residency of file {} at {}% protected", id, pct
                    );
                }
            }
        }
    }

    // Invariant 4: SLRU degenerates to exact LRU at a 0% protected split —
    // same hit pattern, same stats, same residents, on every sequence.
    #[test]
    fn slru_with_zero_protected_split_is_exactly_lru(
        capacity in 0u64..120,
        sizes in prop::collection::vec(1u64..150, 20..21),
        ids in prop::collection::vec(0u32..20, 0..300),
    ) {
        let mut slru = SegmentedLru::new(capacity, 0);
        let mut lru = LruCache::new(capacity);
        for &id in &ids {
            let size = sizes[id as usize];
            prop_assert_eq!(
                CachePolicy::access(&mut slru, FileId(id), size),
                lru.access(FileId(id), size),
                "divergence on file {}",
                id
            );
        }
        prop_assert_eq!(CachePolicy::stats(&slru), lru.stats());
        for id in 0..20u32 {
            prop_assert_eq!(
                CachePolicy::contains(&slru, FileId(id)),
                lru.contains(FileId(id))
            );
        }
    }

    // Invariant 5a: with uniform file sizes LRU has the stack-inclusion
    // property — a strictly larger cache's resident set always contains
    // the smaller's — so its hit count is monotone in capacity, exactly.
    #[test]
    fn lru_hit_count_is_monotone_in_capacity_for_uniform_sizes(
        small_files in 1u64..12,
        extra_files in 1u64..12,
        ids in prop::collection::vec(0u32..30, 0..400),
    ) {
        const SIZE: u64 = 10;
        let sizes = vec![SIZE; 30];
        let mut small = LruCache::new(small_files * SIZE);
        let mut big = LruCache::new((small_files + extra_files) * SIZE);
        let small_hits = replay(&mut small, &ids, &sizes);
        let big_hits = replay(&mut big, &ids, &sizes);
        // Inclusion is per-access, not just aggregate: anything the small
        // cache hits, the big cache hits too.
        for (i, (&s, &b)) in small_hits.iter().zip(&big_hits).enumerate() {
            prop_assert!(!s || b, "access {} hit at {} files but missed at {}",
                i, small_files, small_files + extra_files);
        }
        prop_assert!(big.stats().hits >= small.stats().hits);
    }
}

// Invariant 5b: on the paper's own workload — Table 1 catalog (Zipf
// popularity, sizes inversely coupled to rank) replayed from a seeded
// Poisson trace — every policy's hit ratio grows monotonically across the
// 4 → 16 → 128 GB capacity ladder the shootout's cache bracket sweeps.
// Mixed sizes void the exact inclusion argument, so this is a seeded
// deterministic check rather than a universal property.
#[test]
fn hit_ratio_grows_with_capacity_on_the_zipf_workload() {
    const GB: u64 = 1 << 30;
    let catalog = FileCatalog::paper_table1(2_000, 0);
    let sizes: Vec<u64> = catalog.iter().map(|f| f.size_bytes).collect();
    let trace = Trace::poisson(&catalog, 4.0, 2_000.0, 0x5EED_CAFE);
    let ids: Vec<u32> = trace.requests().iter().map(|r| r.file.0).collect();
    assert!(ids.len() > 1_000, "trace too short to be meaningful");
    for policy_idx in 0..3 {
        let mut last_ratio = -1.0;
        for capacity_gb in [4u64, 16, 128] {
            let cache = &mut all_policies(capacity_gb * GB)[policy_idx];
            replay(cache.as_mut(), &ids, &sizes);
            let ratio = cache.stats().hit_ratio();
            assert!(
                ratio > last_ratio,
                "policy {policy_idx}: hit ratio {ratio} at {capacity_gb} GB \
                 not above {last_ratio} at the previous level"
            );
            last_ratio = ratio;
        }
        assert!(
            last_ratio > 0.05,
            "policy {policy_idx}: the 128 GB front should absorb real reuse, \
             got hit ratio {last_ratio}"
        );
    }
}
