//! Load-shaping allocators for joint (allocation × policy) planning.
//!
//! The paper's allocators minimise *disk count* under the load constraint;
//! these two deliberately shape *how load distributes across the disks they
//! open*, trading disk count against the idle-gap structure a spin-down
//! policy can exploit:
//!
//! - [`concentrate`] — segregate the size-intensive (archival/bursty) mass
//!   onto dedicated disks and squeeze the load-intensive (hot) mass onto as
//!   few disks as the load cap allows. The archival disks see near-zero
//!   load, so their idle gaps run deep past any break-even threshold and
//!   wake batches amortise (the planner pairs this with aggressive
//!   descent policies and elevator batching).
//! - [`spread_tail`] — pack the archival mass normally but *balance* the
//!   latency-sensitive small-file load evenly across disks (each hot item
//!   goes to the least-loaded feasible disk). Every disk stays shallow, so
//!   queues — and the p95 response tail — stay short at the cost of fewer
//!   sleep opportunities.
//!
//! Both are full allocators: every item is placed, and a disk only ever
//! accepts an item when *both* normalised dimensions still fit (`total_s +
//! s ≤ 1`, `total_l + l ≤ 1`), so the load constraint holds by construction
//! (property-tested over random instances in `tests/properties.rs`).
//!
//! The hot/cold split reuses the §3.1 intensity classification: an item is
//! *archival* when it is size-intensive (`s ≥ l`) and *hot* otherwise.
//! Through the instance normalisation (`l_i = rate·p_i·µ_i / L`) this is
//! exactly the catalog's popularity/size signal: with the paper's inverse
//! coupling the popular small files are load-intensive and the unpopular
//! large files size-intensive.

use crate::assignment::{Assignment, DiskBin};
use crate::instance::Instance;

/// Item indices split into (hot = load-intensive, cold = size-intensive),
/// each sorted by its dominant coordinate descending (ties: index).
fn split_by_intensity(instance: &Instance) -> (Vec<usize>, Vec<usize>) {
    let items = instance.items();
    let (mut cold, mut hot): (Vec<usize>, Vec<usize>) =
        (0..items.len()).partition(|&i| items[i].is_size_intensive());
    cold.sort_by(|&a, &b| items[b].s.total_cmp(&items[a].s).then(a.cmp(&b)));
    hot.sort_by(|&a, &b| items[b].l.total_cmp(&items[a].l).then(a.cmp(&b)));
    (hot, cold)
}

/// Record item `i` in `bins[slot]`, opening a new bin when `slot` is
/// `None` — the one place the per-bin totals are maintained, shared by
/// every slot-selection rule in this module.
fn place_into(bins: &mut Vec<DiskBin>, slot: Option<usize>, i: usize, s: f64, l: f64) {
    let d = match slot {
        Some(d) => d,
        None => {
            bins.push(DiskBin::default());
            bins.len() - 1
        }
    };
    bins[d].items.push(i);
    bins[d].total_s += s;
    bins[d].total_l += l;
}

/// Place `i` into the first bin (lowest index, scanning `bins[from..]`)
/// where both dimensions fit, opening a new bin when none does.
fn first_fit_into(bins: &mut Vec<DiskBin>, from: usize, i: usize, s: f64, l: f64) {
    let slot = bins
        .iter()
        .enumerate()
        .skip(from)
        .find(|(_, b)| b.total_s + s <= 1.0 && b.total_l + l <= 1.0)
        .map(|(d, _)| d);
    place_into(bins, slot, i, s, l);
}

/// Concentrate: hot (load-intensive) files first-fit onto the fewest disks
/// the load cap allows, then the archival (size-intensive) mass sequentially
/// onto *fresh* disks — never mixed back onto the hot disks — so the
/// archival disks carry near-zero load and sleep through deep idle gaps.
pub fn concentrate(instance: &Instance) -> Assignment {
    let items = instance.items();
    let (hot, cold) = split_by_intensity(instance);
    let mut bins: Vec<DiskBin> = Vec::new();
    for i in hot {
        first_fit_into(&mut bins, 0, i, items[i].s, items[i].l);
    }
    // Archival mass starts on its own disks; within the archival region
    // first-fit still packs densely (wake batches amortise best when the
    // cold mass sits on few, full disks).
    let cold_start = bins.len();
    for i in cold {
        first_fit_into(&mut bins, cold_start, i, items[i].s, items[i].l);
    }
    Assignment { disks: bins }
}

/// Spread-tail: archival (size-intensive) files pack first-fit by size;
/// the latency-sensitive hot tail is then *balanced* — each hot item goes
/// to the feasible disk with the least load so far (ties: lowest index),
/// opening a new disk only when nothing fits. Load spreads evenly, queues
/// stay shallow, and the p95 tail shortens at the cost of fewer deep gaps.
pub fn spread_tail(instance: &Instance) -> Assignment {
    let items = instance.items();
    let (hot, cold) = split_by_intensity(instance);
    let mut bins: Vec<DiskBin> = Vec::new();
    for i in cold {
        first_fit_into(&mut bins, 0, i, items[i].s, items[i].l);
    }
    for i in hot {
        let (s, l) = (items[i].s, items[i].l);
        let slot = bins
            .iter()
            .enumerate()
            .filter(|(_, b)| b.total_s + s <= 1.0 && b.total_l + l <= 1.0)
            .min_by(|(da, a), (db, b)| a.total_l.total_cmp(&b.total_l).then(da.cmp(db)))
            .map(|(d, _)| d);
        place_into(&mut bins, slot, i, s, l);
    }
    Assignment { disks: bins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PackItem;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn mixed_instance(n: usize, rho: f64, seed: u64) -> Instance {
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
    fn both_strategies_are_feasible_and_complete() {
        let inst = mixed_instance(500, 0.3, 11);
        for a in [concentrate(&inst), spread_tail(&inst)] {
            a.verify(&inst).unwrap();
        }
    }

    #[test]
    fn concentrate_keeps_archival_disks_cold() {
        let inst = mixed_instance(600, 0.2, 42);
        let a = concentrate(&inst);
        a.verify(&inst).unwrap();
        // Disks sort into a hot prefix and a cold suffix: the coldest
        // *loaded* disk in the archival region carries far less load than
        // the hottest disk overall.
        let max_l = a.disks.iter().map(|d| d.total_l).fold(0.0, f64::max);
        let min_loaded_l = a
            .disks
            .iter()
            .filter(|d| !d.items.is_empty())
            .map(|d| d.total_l)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_loaded_l < 0.25 * max_l,
            "no cold disks: min {min_loaded_l} vs max {max_l}"
        );
    }

    #[test]
    fn spread_tail_balances_load_tighter_than_concentrate() {
        let inst = mixed_instance(600, 0.2, 42);
        let spread = spread_tail(&inst);
        let conc = concentrate(&inst);
        spread.verify(&inst).unwrap();
        let spread_range = load_range(&spread);
        let conc_range = load_range(&conc);
        assert!(
            spread_range < conc_range,
            "spread range {spread_range} not tighter than concentrate {conc_range}"
        );
    }

    fn load_range(a: &Assignment) -> f64 {
        let loads: Vec<f64> = a
            .disks
            .iter()
            .filter(|d| !d.items.is_empty())
            .map(|d| d.total_l)
            .collect();
        let max = loads.iter().copied().fold(0.0, f64::max);
        let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }

    #[test]
    fn hot_items_never_share_concentrate_archival_disks() {
        // A crisp 4-item scenario: two hot small files, two cold big ones.
        let inst = Instance::new(vec![
            PackItem { s: 0.05, l: 0.6 }, // hot
            PackItem { s: 0.05, l: 0.5 }, // hot
            PackItem { s: 0.8, l: 0.01 }, // cold
            PackItem { s: 0.7, l: 0.01 }, // cold
        ])
        .unwrap();
        let a = concentrate(&inst);
        a.verify(&inst).unwrap();
        // Hot items share disk 0 (0.6 + 0.5 > 1 → second opens disk 1)…
        assert_eq!(a.disks[0].items, vec![0]);
        assert_eq!(a.disks[1].items, vec![1]);
        // …and the cold mass lands on fresh disks, never on 0/1 even
        // though item 3 (s=0.7) would fit there by both dimensions.
        assert_eq!(a.disks[2].items, vec![2]);
        assert_eq!(a.disks[3].items, vec![3]);
    }

    #[test]
    fn spread_tail_round_robins_the_hot_tail() {
        // Two cold anchors open two disks; four equal hot items must then
        // alternate between them (least-loaded placement).
        let inst = Instance::new(vec![
            PackItem { s: 0.9, l: 0.01 },
            PackItem { s: 0.9, l: 0.01 },
            PackItem { s: 0.01, l: 0.2 },
            PackItem { s: 0.01, l: 0.2 },
            PackItem { s: 0.01, l: 0.2 },
            PackItem { s: 0.01, l: 0.2 },
        ])
        .unwrap();
        let a = spread_tail(&inst);
        a.verify(&inst).unwrap();
        assert_eq!(a.disks_used(), 2);
        let l0 = a.disks[0].total_l;
        let l1 = a.disks[1].total_l;
        assert!((l0 - l1).abs() < 1e-12, "unbalanced: {l0} vs {l1}");
    }

    #[test]
    fn empty_instance_yields_empty_assignment() {
        let inst = Instance::new(vec![]).unwrap();
        assert_eq!(concentrate(&inst).disks_used(), 0);
        assert_eq!(spread_tail(&inst).disks_used(), 0);
    }

    #[test]
    fn strategies_are_deterministic() {
        let inst = mixed_instance(300, 0.25, 7);
        assert_eq!(concentrate(&inst), concentrate(&inst));
        assert_eq!(spread_tail(&inst), spread_tail(&inst));
    }
}
