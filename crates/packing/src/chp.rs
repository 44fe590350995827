//! The Chang–Hwang–Park reference algorithm (the paper's citation \[3\]) with
//! its original `O(n²)` data structures.
//!
//! CHP makes exactly the same packing decisions as `Pack_Disks` — the
//! paper's contribution is *not* a different packing but a faster
//! implementation: selection comes from scans over unsorted pools
//! (`O(n)` per pop) and the eviction step searches the open disk's contents
//! (`O(n)` per eviction) instead of reading a list tail. This module keeps
//! those costs on purpose so the complexity gap is measurable
//! (`spindown-bench/benches/packing_scaling.rs`); its output is
//! property-tested equal to [`crate::pack_disks()`].

use crate::assignment::{Assignment, AssignmentBuilder};
use crate::instance::Instance;

/// A pool with linear-scan max extraction — deliberately `O(n)` per pop,
/// with the same (key desc, index asc) order as the heap implementation.
struct ScanPool {
    /// `(key, item index)` pairs, unordered.
    entries: Vec<(f64, usize)>,
}

impl ScanPool {
    fn new() -> Self {
        ScanPool {
            entries: Vec::new(),
        }
    }

    fn push(&mut self, key: f64, index: usize) {
        self.entries.push((key, index));
    }

    #[cfg_attr(not(test), allow(dead_code))]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove and return the max-key (ties: smallest index) entry by a full
    /// scan.
    fn pop(&mut self) -> Option<(f64, usize)> {
        if self.entries.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.entries.len() {
            let (bk, bi) = self.entries[best];
            let (ik, ii) = self.entries[i];
            let beats = match ik.total_cmp(&bk) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => ii < bi,
            };
            if beats {
                best = i;
            }
        }
        Some(self.entries.swap_remove(best))
    }
}

/// Run the CHP algorithm. Produces the same assignment as
/// [`crate::pack_disks()`] in `O(n²)` time.
pub fn pack_chp(instance: &Instance) -> Assignment {
    let items = instance.items();
    let rho = instance.rho();
    let mut s_pool = ScanPool::new();
    let mut l_pool = ScanPool::new();
    for (i, it) in items.iter().enumerate() {
        if it.is_size_intensive() {
            s_pool.push(it.surplus_key(), i);
        } else {
            l_pool.push(it.surplus_key(), i);
        }
    }
    let mut builder = AssignmentBuilder::new();
    // The open disk's contents in insertion order; eviction scans this.
    let mut open_items: Vec<usize> = Vec::new();

    let is_complete = |builder: &AssignmentBuilder| {
        let cur = builder.current();
        !cur.items.is_empty()
            && cur.total_s >= 1.0 - rho - 1e-12
            && cur.total_l >= 1.0 - rho - 1e-12
    };

    loop {
        let (s_tot, l_tot) = {
            let cur = builder.current();
            (cur.total_s, cur.total_l)
        };
        if s_tot >= l_tot {
            let Some((_, j)) = l_pool.pop() else { break };
            let item_j = items[j];
            if s_tot + item_j.s > 1.0 {
                // O(n) search for the element to remove: the most recently
                // added size-intensive item (this is the step Pack_Disks
                // turns into an O(1) list-tail read).
                let pos = open_items
                    .iter()
                    .rposition(|&k| items[k].is_size_intensive())
                    .expect("Lemma 1: a size-intensive item exists");
                let k = open_items.remove(pos);
                let item_k = items[k];
                let removed = builder.remove_last_occurrence(k, item_k.s, item_k.l);
                debug_assert!(removed);
                s_pool.push(item_k.surplus_key(), k);
            }
            open_items.push(j);
            builder.add(j, item_j.s, item_j.l);
        } else {
            let Some((_, j)) = s_pool.pop() else { break };
            let item_j = items[j];
            if l_tot + item_j.l > 1.0 {
                let pos = open_items
                    .iter()
                    .rposition(|&k| !items[k].is_size_intensive())
                    .expect("Lemma 2: a load-intensive item exists");
                let k = open_items.remove(pos);
                let item_k = items[k];
                let removed = builder.remove_last_occurrence(k, item_k.s, item_k.l);
                debug_assert!(removed);
                l_pool.push(item_k.surplus_key(), k);
            }
            open_items.push(j);
            builder.add(j, item_j.s, item_j.l);
        }
        if is_complete(&builder) {
            builder.close_current();
            open_items.clear();
        }
    }

    // Remaining size-intensive items.
    while let Some((_, j)) = s_pool.pop() {
        let item = items[j];
        if builder.current().total_s + item.s > 1.0 {
            builder.close_current();
            open_items.clear();
        }
        open_items.push(j);
        builder.add(j, item.s, item.l);
    }
    // Remaining load-intensive items.
    while let Some((_, j)) = l_pool.pop() {
        let item = items[j];
        if builder.current().total_l + item.l > 1.0 {
            builder.close_current();
            open_items.clear();
        }
        open_items.push(j);
        builder.add(j, item.s, item.l);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PackItem;
    use crate::pack_disks::pack_disks;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn uniform_instance(n: usize, rho: f64, seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let items = (0..n)
            .map(|_| PackItem {
                s: rng.random::<f64>() * rho,
                l: rng.random::<f64>() * rho,
            })
            .collect();
        Instance::new(items).unwrap()
    }

    #[test]
    fn identical_to_pack_disks_on_random_instances() {
        for seed in 0..15 {
            for rho in [0.1, 0.4, 0.8] {
                let inst = uniform_instance(250, rho, seed);
                let fast = pack_disks(&inst);
                let slow = pack_chp(&inst);
                assert_eq!(
                    fast, slow,
                    "CHP diverged from Pack_Disks (seed {seed}, rho {rho})"
                );
            }
        }
    }

    #[test]
    fn identical_on_skewed_instances() {
        // Mostly load-intensive with a few big size-intensive items —
        // exercises both eviction directions.
        let mut rng = SmallRng::seed_from_u64(8);
        let mut items = Vec::new();
        for i in 0..400 {
            if i % 10 == 0 {
                items.push(PackItem {
                    s: 0.5 + 0.4 * rng.random::<f64>(),
                    l: 0.05 * rng.random::<f64>(),
                });
            } else {
                items.push(PackItem {
                    s: 0.02 * rng.random::<f64>(),
                    l: 0.2 + 0.3 * rng.random::<f64>(),
                });
            }
        }
        let inst = Instance::new(items).unwrap();
        let fast = pack_disks(&inst);
        let slow = pack_chp(&inst);
        fast.verify(&inst).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn feasible_on_its_own() {
        let inst = uniform_instance(500, 0.3, 77);
        pack_chp(&inst).verify(&inst).unwrap();
    }

    #[test]
    fn scan_pool_order_matches_spec() {
        let mut p = ScanPool::new();
        p.push(0.5, 3);
        p.push(0.9, 1);
        p.push(0.5, 0);
        p.push(0.9, 2);
        assert_eq!(p.pop(), Some((0.9, 1))); // max key, smaller index first
        assert_eq!(p.pop(), Some((0.9, 2)));
        assert_eq!(p.pop(), Some((0.5, 0)));
        assert_eq!(p.pop(), Some((0.5, 3)));
        assert_eq!(p.pop(), None);
        assert!(p.is_empty());
    }
}
