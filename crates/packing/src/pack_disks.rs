//! `Pack_Disks` — the paper's `O(n log n)` 2DVPP heuristic (Algorithm 3).
//!
//! Items are split into the size-intensive set `ST(F) = {(s,l) : s ≥ l}`
//! (max-heap `~S` keyed by `s − l`) and the load-intensive set
//! `LD(F) = {(s,l) : l > s}` (max-heap `~L` keyed by `l − s`). Disks are
//! packed one at a time; the next item comes from the heap *opposite* to the
//! currently dominant dimension, so the two totals chase each other upward.
//! When adding an item would overflow (only the dominant dimension can
//! overflow — see the invariant below), the most recently added item of the
//! opposite kind is evicted back to its heap; Lemmas 3/4 of the paper
//! guarantee the disk is then *complete* (both totals ≥ 1 − ρ) and can be
//! closed. Leftovers are packed greedily by `Pack_Remaining_{S,L}`.
//!
//! ## Invariants maintained (and `debug_assert`ed)
//!
//! For every open (not-yet-complete) disk with totals `(S, L)`:
//! `min(S, L) < 1 − ρ`. Hence adding any item can only overflow the
//! *dominant* dimension, which is exactly the single overflow check in the
//! pseudocode. After an eviction swap the disk satisfies
//! `1 − ρ ≤ S ≤ 1` and `1 − ρ ≤ L ≤ 1` (complete).
//!
//! The improvement over Chang–Hwang–Park ([`crate::chp`]) is the eviction
//! step: keeping per-disk `s-list`/`l-list` makes the evicted element the
//! list *tail*, found in `O(1)` instead of an `O(n)` scan.

use crate::assignment::{Assignment, AssignmentBuilder};
use crate::heap::{HeapEntry, KeyedMaxHeap};
use crate::instance::Instance;

/// Run `Pack_Disks` on an instance. Always produces a feasible assignment;
/// see [`crate::bounds::theorem1_budget`] for the optimality guarantee.
pub fn pack_disks(instance: &Instance) -> Assignment {
    Packer::new(instance).run()
}

/// Shared driver: the packing state of Algorithm 3. `chp` re-uses the exact
/// same transition logic through [`crate::chp`]'s scan-based heaps, so the
/// two implementations differ only in data-structure complexity.
struct Packer<'a> {
    instance: &'a Instance,
    s_heap: KeyedMaxHeap<usize>,
    l_heap: KeyedMaxHeap<usize>,
    s_list: Vec<usize>,
    l_list: Vec<usize>,
    builder: AssignmentBuilder,
}

impl<'a> Packer<'a> {
    fn new(instance: &'a Instance) -> Self {
        let mut s_entries = Vec::new();
        let mut l_entries = Vec::new();
        for (i, it) in instance.items().iter().enumerate() {
            let entry = HeapEntry {
                key: it.surplus_key(),
                tiebreak: i as u64,
                value: i,
            };
            if it.is_size_intensive() {
                s_entries.push(entry);
            } else {
                l_entries.push(entry);
            }
        }
        Packer {
            instance,
            s_heap: KeyedMaxHeap::heapify(s_entries),
            l_heap: KeyedMaxHeap::heapify(l_entries),
            s_list: Vec::new(),
            l_list: Vec::new(),
            builder: AssignmentBuilder::new(),
        }
    }

    fn totals(&self) -> (f64, f64) {
        let cur = self.builder.current();
        (cur.total_s, cur.total_l)
    }

    fn is_complete(&self) -> bool {
        let rho = self.instance.rho();
        let (s, l) = self.totals();
        !self.builder.current().items.is_empty() && s >= 1.0 - rho - 1e-12 && l >= 1.0 - rho - 1e-12
    }

    fn close_disk(&mut self) {
        self.builder.close_current();
        self.s_list.clear();
        self.l_list.clear();
    }

    fn run(mut self) -> Assignment {
        // Main loop (Algorithm 3, lines 4–21).
        loop {
            let (s_tot, l_tot) = self.totals();
            let storage_dominant = s_tot >= l_tot;
            if storage_dominant {
                if self.l_heap.is_empty() {
                    break;
                }
                self.step_add_load_intensive();
            } else {
                if self.s_heap.is_empty() {
                    break;
                }
                self.step_add_size_intensive();
            }
            if self.is_complete() {
                self.close_disk();
            }
        }
        // Lines 22–23: pack whichever heap survived.
        debug_assert!(
            self.s_heap.is_empty() || self.l_heap.is_empty(),
            "main loop must drain at least one heap"
        );
        self.pack_remaining_s();
        self.pack_remaining_l();
        self.builder.finish()
    }

    /// Lines 5–11: the disk is storage-dominant, take a load-intensive item.
    fn step_add_load_intensive(&mut self) {
        let entry = self.l_heap.pop().expect("caller checked non-empty");
        let j = entry.value;
        let item_j = self.instance.items()[j];
        let (s_tot, l_tot) = self.totals();
        debug_assert!(
            l_tot < 1.0 - self.instance.rho() + 1e-9,
            "open disk must have min(S,L) < 1-rho; had L={l_tot}"
        );
        if s_tot + item_j.s > 1.0 {
            // Lemma 1: the s-list tail k satisfies S − L ≤ s_k − l_k,
            // so swapping k for j completes the disk (Lemma 3).
            let k = self
                .s_list
                .pop()
                .expect("Lemma 1: s-list non-empty when storage overflows");
            let item_k = self.instance.items()[k];
            debug_assert!(
                s_tot - l_tot <= item_k.s - item_k.l + 1e-9,
                "Lemma 1 violated"
            );
            let removed = self.builder.remove_last_occurrence(k, item_k.s, item_k.l);
            debug_assert!(removed);
            self.s_heap.push(HeapEntry {
                key: item_k.surplus_key(),
                tiebreak: k as u64,
                value: k,
            });
        }
        self.l_list.push(j);
        self.builder.add(j, item_j.s, item_j.l);
        let (s_after, l_after) = self.totals();
        debug_assert!(
            s_after <= 1.0 + 1e-9 && l_after <= 1.0 + 1e-9,
            "feasibility violated: S={s_after} L={l_after}"
        );
    }

    /// Lines 12–18: the disk is load-dominant, take a size-intensive item.
    fn step_add_size_intensive(&mut self) {
        let entry = self.s_heap.pop().expect("caller checked non-empty");
        let j = entry.value;
        let item_j = self.instance.items()[j];
        let (s_tot, l_tot) = self.totals();
        debug_assert!(
            s_tot < 1.0 - self.instance.rho() + 1e-9,
            "open disk must have min(S,L) < 1-rho; had S={s_tot}"
        );
        if l_tot + item_j.l > 1.0 {
            // Lemma 2 / Lemma 4, mirror image.
            let k = self
                .l_list
                .pop()
                .expect("Lemma 2: l-list non-empty when load overflows");
            let item_k = self.instance.items()[k];
            debug_assert!(
                l_tot - s_tot <= item_k.l - item_k.s + 1e-9,
                "Lemma 2 violated"
            );
            let removed = self.builder.remove_last_occurrence(k, item_k.s, item_k.l);
            debug_assert!(removed);
            self.l_heap.push(HeapEntry {
                key: item_k.surplus_key(),
                tiebreak: k as u64,
                value: k,
            });
        }
        self.s_list.push(j);
        self.builder.add(j, item_j.s, item_j.l);
        let (s_after, l_after) = self.totals();
        debug_assert!(
            s_after <= 1.0 + 1e-9 && l_after <= 1.0 + 1e-9,
            "feasibility violated: S={s_after} L={l_after}"
        );
    }

    /// `Pack_Remaining_S`: greedy next-fit over leftover size-intensive
    /// items (storage is the only dimension that can overflow — every item
    /// here has `l ≤ s` and the running disk keeps `L ≤ S`).
    fn pack_remaining_s(&mut self) {
        while let Some(entry) = self.s_heap.pop() {
            let j = entry.value;
            let item = self.instance.items()[j];
            if self.builder.current().total_s + item.s > 1.0 {
                self.close_disk();
            }
            self.s_list.push(j);
            self.builder.add(j, item.s, item.l);
            let (s, l) = self.totals();
            debug_assert!(s <= 1.0 + 1e-9 && l <= 1.0 + 1e-9);
        }
    }

    /// `Pack_Remaining_L`: mirror image for load-intensive leftovers.
    fn pack_remaining_l(&mut self) {
        while let Some(entry) = self.l_heap.pop() {
            let j = entry.value;
            let item = self.instance.items()[j];
            if self.builder.current().total_l + item.l > 1.0 {
                self.close_disk();
            }
            self.l_list.push(j);
            self.builder.add(j, item.s, item.l);
            let (s, l) = self.totals();
            debug_assert!(s <= 1.0 + 1e-9 && l <= 1.0 + 1e-9);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{fractional_lower_bound, theorem1_budget};
    use crate::instance::PackItem;
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
    fn empty_instance_packs_to_zero_disks() {
        let a = pack_disks(&Instance::new(vec![]).unwrap());
        assert_eq!(a.disks_used(), 0);
    }

    #[test]
    fn single_item() {
        let inst = Instance::new(vec![PackItem { s: 0.4, l: 0.3 }]).unwrap();
        let a = pack_disks(&inst);
        a.verify(&inst).unwrap();
        assert_eq!(a.disks_used(), 1);
    }

    #[test]
    fn large_complementary_items_close_disks_early() {
        // With ρ = 0.8 completeness only requires totals ≥ 0.2, so the
        // algorithm legitimately closes a disk per item (line 19) — the
        // guarantee is weak for large ρ but feasibility and the Theorem 1
        // budget must hold.
        let items: Vec<PackItem> = (0..10)
            .flat_map(|_| [PackItem { s: 0.8, l: 0.2 }, PackItem { s: 0.2, l: 0.8 }])
            .collect();
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        a.verify(&inst).unwrap();
        // Σs = Σl = 10, ρ = 0.8 → budget = 10/0.2 + 1 = 51.
        assert!(a.disks_used() as f64 <= theorem1_budget(&inst) + 1e-9);
        assert!(a.disks_used() >= 10);
    }

    #[test]
    fn small_complementary_items_pack_tightly() {
        // With ρ = 0.18 the completeness threshold is 0.82 in both
        // dimensions, so alternation achieves a near-optimal mix: 50 of
        // (0.18, 0.02) + 50 of (0.02, 0.18) have Σs = Σl = 10 and can fill
        // 10 disks exactly.
        let items: Vec<PackItem> = (0..50)
            .flat_map(|_| [PackItem { s: 0.18, l: 0.02 }, PackItem { s: 0.02, l: 0.18 }])
            .collect();
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        a.verify(&inst).unwrap();
        let used = a.disks_used();
        assert!(used >= 10);
        assert!(
            used <= 13,
            "expected near-optimal packing (LB 10, budget ≈ 13.2), got {used}"
        );
    }

    #[test]
    fn all_size_intensive_behaves_like_bin_packing() {
        let items = vec![PackItem { s: 0.5, l: 0.0 }; 10];
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        a.verify(&inst).unwrap();
        assert_eq!(a.disks_used(), 5);
    }

    #[test]
    fn all_load_intensive_behaves_like_bin_packing() {
        let items = vec![PackItem { s: 0.0, l: 0.25 }; 8];
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        a.verify(&inst).unwrap();
        assert_eq!(a.disks_used(), 2);
    }

    #[test]
    fn random_instances_are_feasible_and_within_theorem1() {
        for seed in 0..20 {
            for rho in [0.1, 0.3, 0.5, 0.9] {
                let inst = uniform_instance(300, rho, seed);
                let a = pack_disks(&inst);
                a.verify(&inst).unwrap();
                let budget = theorem1_budget(&inst);
                assert!(
                    (a.disks_used() as f64) <= budget + 1e-9,
                    "seed {seed} rho {rho}: used {} > budget {budget}",
                    a.disks_used()
                );
            }
        }
    }

    #[test]
    fn closed_disks_are_near_capacity_on_tight_instances() {
        // With small rho, all but the last disk must be s- or l-complete.
        let inst = uniform_instance(2000, 0.05, 7);
        let rho = inst.rho();
        let a = pack_disks(&inst);
        a.verify(&inst).unwrap();
        let incomplete = a
            .disks
            .iter()
            .filter(|d| !d.is_s_complete(rho) && !d.is_l_complete(rho))
            .count();
        assert!(
            incomplete <= 1,
            "{incomplete} disks neither s- nor l-complete (Lemma 6 violated)"
        );
    }

    #[test]
    fn beats_or_matches_lower_bound_sanity() {
        let inst = uniform_instance(500, 0.2, 3);
        let a = pack_disks(&inst);
        let lb = fractional_lower_bound(&inst);
        assert!(a.disks_used() as f64 >= lb - 1e-9);
    }

    #[test]
    fn eviction_path_is_exercised() {
        // Construct a case that forces a storage-overflow eviction: disk is
        // storage-dominant, next load-intensive item can't fit by storage.
        let inst = Instance::new(vec![
            PackItem { s: 0.70, l: 0.10 }, // size-intensive, key 0.6
            PackItem { s: 0.65, l: 0.05 }, // size-intensive, key 0.6 (tie → later)
            PackItem { s: 0.40, l: 0.90 }, // load-intensive, key 0.5
            PackItem { s: 0.05, l: 0.50 }, // load-intensive, key 0.45
        ])
        .unwrap();
        let a = pack_disks(&inst);
        a.verify(&inst).unwrap();
        // rho = 0.9; every disk trivially fine; main thing: feasibility +
        // everything assigned exactly once (both checked by `verify`).
    }

    #[test]
    fn deterministic_output() {
        let inst = uniform_instance(1000, 0.4, 11);
        assert_eq!(pack_disks(&inst), pack_disks(&inst));
    }

    #[test]
    fn uses_far_fewer_disks_than_singleton_allocation() {
        let inst = uniform_instance(1000, 0.1, 13);
        let a = pack_disks(&inst);
        // average item ~0.05/0.05 → ~20 items per disk
        assert!(a.disks_used() < 120, "used {}", a.disks_used());
    }
}
