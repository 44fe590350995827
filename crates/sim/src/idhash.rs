//! The simulator's one hasher for dense integer keys: queue sequence
//! numbers, file ids and trace indices.
//!
//! These keys are unique and dense, and none comes from an adversary, so
//! SipHash's DoS resistance buys nothing while its latency shows up on the
//! hottest paths: every SJF pop touches a sequence set, every cache-tier
//! access probes a file index, and every completion under faults consults a
//! retry ledger keyed by trace index.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci multiplicative hasher for integer keys. Only the integer
/// `write_*` methods are supported; hashing a byte slice is a bug.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        // The table indexes buckets by the hash's low bits, but a
        // product's low bits depend only on the key's low bits: keys
        // spaced 2^k apart (file ids 0, 1024, 2048, …) would share one
        // bucket. The rotation brings the well-mixed high bits down.
        self.0.rotate_left(26)
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdHasher only hashes integer keys");
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // One multiply spreads the dense low bits across the table's
        // bucket-index bits.
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by dense integer ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of dense integer ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash<T: Hash>(v: T) -> u64 {
        let mut h = IdHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn every_integer_width_hashes_the_same_value_alike() {
        assert_eq!(hash(7u32), hash(7u64));
        assert_eq!(hash(7usize), hash(7u64));
        assert_ne!(hash(7u64), hash(8u64));
    }

    #[test]
    fn strided_keys_spread_over_the_low_bucket_bits() {
        let buckets = |stride: u64| {
            (0..1024u64)
                .map(|i| hash(i * stride) & 1023)
                .collect::<IdSet<u64>>()
                .len()
        };
        for stride in [1, 1024, 4096] {
            let n = buckets(stride);
            assert!(n > 256, "stride {stride}: only {n} of 1024 buckets used");
        }
    }

    #[test]
    fn newtype_ids_hash_through_their_integer() {
        use spindown_workload::FileId;
        assert_eq!(hash(FileId(41)), hash(41u32));
        let mut m: IdMap<FileId, u32> = IdMap::default();
        m.insert(FileId(3), 9);
        assert_eq!(m.get(&FileId(3)), Some(&9));
    }
}
