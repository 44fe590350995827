//! `Pack_Disks_v` — the §3.2 group variant.
//!
//! `Pack_Disks` tends to place runs of similar-size files on the same disk,
//! which serialises the "batch of files of similar sizes all at once"
//! requests observed in the NERSC logs. `Pack_Disks_v` spreads consecutive
//! packing decisions across `v` concurrently open disks in round-robin
//! order: each step applies one `Pack_Disks` insertion (with the same
//! dominance rule and eviction lemma, which are *per-disk* properties) to
//! the next disk in the rotation; a disk that becomes complete is closed and
//! its slot refilled with a fresh disk. `v = 1` reduces exactly to
//! `Pack_Disks` (tested).

use crate::assignment::{Assignment, DiskBin};
use crate::heap::{HeapEntry, KeyedMaxHeap};
use crate::instance::Instance;

/// One concurrently open disk.
#[derive(Debug, Default)]
struct Slot {
    bin: DiskBin,
    s_list: Vec<usize>,
    l_list: Vec<usize>,
}

impl Slot {
    fn is_complete(&self, rho: f64) -> bool {
        !self.bin.items.is_empty()
            && self.bin.total_s >= 1.0 - rho - 1e-12
            && self.bin.total_l >= 1.0 - rho - 1e-12
    }

    fn add(&mut self, item: usize, s: f64, l: f64, size_intensive: bool) {
        self.bin.items.push(item);
        self.bin.total_s += s;
        self.bin.total_l += l;
        if size_intensive {
            self.s_list.push(item);
        } else {
            self.l_list.push(item);
        }
    }

    fn remove(&mut self, item: usize, s: f64, l: f64) {
        let pos = self
            .bin
            .items
            .iter()
            .rposition(|&i| i == item)
            .expect("evicted item present");
        self.bin.items.remove(pos);
        self.bin.total_s -= s;
        self.bin.total_l -= l;
    }
}

/// Run `Pack_Disks_v` with group size `v ≥ 1`.
///
/// # Panics
/// If `v == 0`.
pub fn pack_disks_v(instance: &Instance, v: usize) -> Assignment {
    assert!(v >= 1, "group size must be at least 1");
    let items = instance.items();
    let rho = instance.rho();

    let mut s_entries = Vec::new();
    let mut l_entries = Vec::new();
    for (i, it) in items.iter().enumerate() {
        let e = HeapEntry {
            key: it.surplus_key(),
            tiebreak: i as u64,
            value: i,
        };
        if it.is_size_intensive() {
            s_entries.push(e);
        } else {
            l_entries.push(e);
        }
    }
    let mut s_heap = KeyedMaxHeap::heapify(s_entries);
    let mut l_heap = KeyedMaxHeap::heapify(l_entries);

    let mut closed: Vec<DiskBin> = Vec::new();
    let mut slots: Vec<Slot> = (0..v).map(|_| Slot::default()).collect();
    let mut rr = 0usize;

    // Main phase: mirror of the Pack_Disks main loop, one insertion per
    // round-robin visit. Stops when no slot can make progress.
    loop {
        let mut progressed = false;
        for offset in 0..v {
            let idx = (rr + offset) % v;
            let (s_tot, l_tot) = (slots[idx].bin.total_s, slots[idx].bin.total_l);
            let storage_dominant = s_tot >= l_tot;
            let stepped = if storage_dominant {
                step_load_intensive(instance, &mut slots[idx], &mut s_heap, &mut l_heap)
            } else {
                step_size_intensive(instance, &mut slots[idx], &mut s_heap, &mut l_heap)
            };
            if stepped {
                if slots[idx].is_complete(rho) {
                    let slot = std::mem::take(&mut slots[idx]);
                    closed.push(slot.bin);
                }
                rr = (idx + 1) % v;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }

    // Remaining phase: greedy round-robin with per-dimension overflow
    // closing, first the size-intensive leftovers then the load-intensive
    // ones (at most one heap is non-empty, as in Pack_Disks).
    while let Some(e) = s_heap.pop() {
        let item = items[e.value];
        let idx = rr % v;
        if slots[idx].bin.total_s + item.s > 1.0 {
            let slot = std::mem::take(&mut slots[idx]);
            closed.push(slot.bin);
        }
        slots[idx].add(e.value, item.s, item.l, true);
        rr = (idx + 1) % v;
    }
    while let Some(e) = l_heap.pop() {
        let item = items[e.value];
        let idx = rr % v;
        if slots[idx].bin.total_l + item.l > 1.0 {
            let slot = std::mem::take(&mut slots[idx]);
            closed.push(slot.bin);
        }
        slots[idx].add(e.value, item.s, item.l, false);
        rr = (idx + 1) % v;
    }

    for slot in slots {
        if !slot.bin.items.is_empty() {
            closed.push(slot.bin);
        }
    }
    Assignment { disks: closed }
}

/// One storage-dominant insertion (lines 5–11 of Algorithm 3) applied to a
/// slot. Returns false when the load heap is empty (no progress possible).
fn step_load_intensive(
    instance: &Instance,
    slot: &mut Slot,
    s_heap: &mut KeyedMaxHeap<usize>,
    l_heap: &mut KeyedMaxHeap<usize>,
) -> bool {
    let Some(entry) = l_heap.pop() else {
        return false;
    };
    let items = instance.items();
    let j = entry.value;
    let item_j = items[j];
    if slot.bin.total_s + item_j.s > 1.0 {
        let k = slot
            .s_list
            .pop()
            .expect("Lemma 1: s-list non-empty on storage overflow");
        let item_k = items[k];
        slot.remove(k, item_k.s, item_k.l);
        s_heap.push(HeapEntry {
            key: item_k.surplus_key(),
            tiebreak: k as u64,
            value: k,
        });
    }
    slot.add(j, item_j.s, item_j.l, false);
    debug_assert!(slot.bin.total_s <= 1.0 + 1e-9 && slot.bin.total_l <= 1.0 + 1e-9);
    true
}

/// One load-dominant insertion (lines 12–18), mirror image.
fn step_size_intensive(
    instance: &Instance,
    slot: &mut Slot,
    s_heap: &mut KeyedMaxHeap<usize>,
    l_heap: &mut KeyedMaxHeap<usize>,
) -> bool {
    let Some(entry) = s_heap.pop() else {
        return false;
    };
    let items = instance.items();
    let j = entry.value;
    let item_j = items[j];
    if slot.bin.total_l + item_j.l > 1.0 {
        let k = slot
            .l_list
            .pop()
            .expect("Lemma 2: l-list non-empty on load overflow");
        let item_k = items[k];
        slot.remove(k, item_k.s, item_k.l);
        l_heap.push(HeapEntry {
            key: item_k.surplus_key(),
            tiebreak: k as u64,
            value: k,
        });
    }
    slot.add(j, item_j.s, item_j.l, true);
    debug_assert!(slot.bin.total_s <= 1.0 + 1e-9 && slot.bin.total_l <= 1.0 + 1e-9);
    true
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
    fn v1_equals_pack_disks() {
        for seed in 0..10 {
            let inst = uniform_instance(300, 0.3, seed);
            assert_eq!(
                pack_disks_v(&inst, 1),
                pack_disks(&inst),
                "v=1 must reduce to Pack_Disks (seed {seed})"
            );
        }
    }

    #[test]
    fn all_v_values_feasible() {
        for v in 1..=8 {
            for seed in 0..5 {
                let inst = uniform_instance(400, 0.25, seed);
                let a = pack_disks_v(&inst, v);
                a.verify(&inst).unwrap();
            }
        }
    }

    #[test]
    fn larger_v_does_not_explode_disk_count() {
        let inst = uniform_instance(1000, 0.2, 3);
        let base = pack_disks(&inst).disks_used();
        for v in 2..=8 {
            let used = pack_disks_v(&inst, v).disks_used();
            assert!(used <= base + 2 * v, "v={v}: {used} disks vs base {base}");
        }
    }

    #[test]
    fn spreads_adjacent_items_across_group() {
        // Equal items: Pack_Disks puts consecutive indices together;
        // Pack_Disks_4 must interleave them across 4 disks.
        let items = vec![PackItem { s: 0.1, l: 0.1 }; 64];
        let inst = Instance::new(items).unwrap();
        let a = pack_disks_v(&inst, 4);
        a.verify(&inst).unwrap();
        let map = a.item_to_disk(64);
        // first 4 items land on 4 distinct disks
        let first_four: std::collections::HashSet<u32> = map[0..4].iter().copied().collect();
        assert_eq!(first_four.len(), 4, "round-robin not spreading: {map:?}");
    }

    #[test]
    fn empty_instance() {
        let a = pack_disks_v(&Instance::new(vec![]).unwrap(), 4);
        assert_eq!(a.disks_used(), 0);
    }

    #[test]
    #[should_panic(expected = "group size must be at least 1")]
    fn zero_group_size_panics() {
        let _ = pack_disks_v(&Instance::new(vec![]).unwrap(), 0);
    }
}
