//! Baseline allocators: random placement (the paper's comparison point) and
//! the classic one-dimensional-style greedy family generalised to 2D.
//!
//! Random placement mirrors §4: "a mapping table that randomly maps files
//! among all disks". It respects only the storage capacity (the paper's
//! random baseline knows nothing about loads — that is precisely why its
//! spun-up disk count is high and its per-disk utilisation low).

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::assignment::{Assignment, DiskBin, FeasibilityError};
use crate::instance::Instance;

/// Random placement over a fixed fleet of `disks` drives (§4/§5.1): each
/// item goes to a uniformly random disk with enough *storage* left; load is
/// unconstrained. Empty disks are kept in the result so disk indices match
/// the fleet. Fails with [`FeasibilityError::OutOfSpace`] when an item fits
/// on no disk.
pub fn random_fixed(
    instance: &Instance,
    disks: usize,
    seed: u64,
) -> Result<Assignment, FeasibilityError> {
    assert!(disks >= 1, "fleet must have at least one disk");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
    for (i, it) in instance.items().iter().enumerate() {
        let first_try = rng.random_range(0..disks);
        // Probe the fleet starting from a random disk; wrapping scan keeps
        // the distribution uniform over *feasible* disks without rejection
        // loops that might never terminate on a nearly full fleet.
        let mut placed = false;
        for off in 0..disks {
            let d = (first_try + off) % disks;
            if bins[d].total_s + it.s <= 1.0 {
                bins[d].items.push(i);
                bins[d].total_s += it.s;
                bins[d].total_l += it.l;
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(FeasibilityError::OutOfSpace { item: i });
        }
    }
    Ok(Assignment { disks: bins })
}

/// First-fit: place each item (input order) on the first disk where *both*
/// dimensions fit; open a new disk otherwise.
pub fn first_fit(instance: &Instance) -> Assignment {
    first_fit_order(instance, (0..instance.len()).collect())
}

/// First-fit decreasing by `max(s, l)` — the standard strengthening.
pub fn first_fit_decreasing(instance: &Instance) -> Assignment {
    let items = instance.items();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        items[b]
            .max_coord()
            .total_cmp(&items[a].max_coord())
            .then(a.cmp(&b))
    });
    first_fit_order(instance, order)
}

fn first_fit_order(instance: &Instance, order: Vec<usize>) -> Assignment {
    let items = instance.items();
    let mut bins: Vec<DiskBin> = Vec::new();
    for i in order {
        let it = items[i];
        let slot = bins
            .iter()
            .position(|b| b.total_s + it.s <= 1.0 && b.total_l + it.l <= 1.0);
        let d = match slot {
            Some(d) => d,
            None => {
                bins.push(DiskBin::default());
                bins.len() - 1
            }
        };
        bins[d].items.push(i);
        bins[d].total_s += it.s;
        bins[d].total_l += it.l;
    }
    Assignment { disks: bins }
}

/// Best-fit: place each item on the feasible disk minimising the remaining
/// combined slack `(1−S′) + (1−L′)`; open a new disk when none fits.
pub fn best_fit(instance: &Instance) -> Assignment {
    let items = instance.items();
    let mut bins: Vec<DiskBin> = Vec::new();
    for (i, it) in items.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        for (d, b) in bins.iter().enumerate() {
            if b.total_s + it.s <= 1.0 && b.total_l + it.l <= 1.0 {
                let slack = (1.0 - b.total_s - it.s) + (1.0 - b.total_l - it.l);
                if best.is_none_or(|(_, s)| slack < s) {
                    best = Some((d, slack));
                }
            }
        }
        let d = match best {
            Some((d, _)) => d,
            None => {
                bins.push(DiskBin::default());
                bins.len() - 1
            }
        };
        bins[d].items.push(i);
        bins[d].total_s += it.s;
        bins[d].total_l += it.l;
    }
    Assignment { disks: bins }
}

/// Popular Data Concentration (Pinheiro & Bianchini, the paper's ref \[11\]):
/// sort files by load (most popular first) and fill disks *sequentially* —
/// disk 0 takes the hottest files until either constraint would overflow,
/// then disk 1, and so on. Unlike first-fit-decreasing it never revisits an
/// earlier disk, so the load concentrates maximally at the front of the
/// fleet (the property PDC is named for).
pub fn pdc(instance: &Instance) -> Assignment {
    let items = instance.items();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        items[b]
            .l
            .total_cmp(&items[a].l)
            .then(items[b].s.total_cmp(&items[a].s))
            .then(a.cmp(&b))
    });
    let mut bins: Vec<DiskBin> = Vec::new();
    let mut open = DiskBin::default();
    let mut leftovers: Vec<usize> = Vec::new();
    for i in order {
        let it = items[i];
        if open.total_s + it.s <= 1.0 && open.total_l + it.l <= 1.0 {
            open.items.push(i);
            open.total_s += it.s;
            open.total_l += it.l;
        } else {
            leftovers.push(i);
        }
        // Close the disk when it can't even take the *least* demanding
        // leftover — approximated by fullness in either dimension.
        if open.total_s >= 1.0 - 1e-12 || open.total_l >= 1.0 - 1e-12 {
            bins.push(std::mem::take(&mut open));
        }
    }
    if !open.items.is_empty() {
        bins.push(std::mem::take(&mut open));
    }
    // Sweep the leftovers with further sequential passes until done.
    while !leftovers.is_empty() {
        let mut next_left = Vec::new();
        let mut disk = DiskBin::default();
        for i in leftovers {
            let it = items[i];
            if disk.total_s + it.s <= 1.0 && disk.total_l + it.l <= 1.0 {
                disk.items.push(i);
                disk.total_s += it.s;
                disk.total_l += it.l;
            } else {
                next_left.push(i);
            }
        }
        assert!(
            !disk.items.is_empty(),
            "leftover pass must place at least one item"
        );
        bins.push(disk);
        leftovers = next_left;
    }
    Assignment { disks: bins }
}

/// Next-fit: keep a single open disk; close it whenever the next item does
/// not fit. The weakest baseline — useful as an upper anchor in benches.
pub fn next_fit(instance: &Instance) -> Assignment {
    let items = instance.items();
    let mut bins: Vec<DiskBin> = Vec::new();
    let mut open = DiskBin::default();
    for (i, it) in items.iter().enumerate() {
        if !open.items.is_empty() && (open.total_s + it.s > 1.0 || open.total_l + it.l > 1.0) {
            bins.push(std::mem::take(&mut open));
        }
        open.items.push(i);
        open.total_s += it.s;
        open.total_l += it.l;
    }
    if !open.items.is_empty() {
        bins.push(open);
    }
    Assignment { disks: bins }
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

    /// Storage-only feasibility (what random placement promises).
    fn check_storage(a: &Assignment, inst: &Instance, n: usize) {
        let mut seen = vec![false; n];
        for bin in &a.disks {
            let s: f64 = bin.items.iter().map(|&i| inst.items()[i].s).sum();
            assert!(s <= 1.0 + 1e-9);
            for &i in &bin.items {
                assert!(!seen[i], "duplicate item {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "missing items");
    }

    #[test]
    fn random_fixed_uses_whole_fleet() {
        let inst = uniform_instance(500, 0.1, 1);
        let a = random_fixed(&inst, 50, 7).unwrap();
        assert_eq!(a.disk_slots(), 50);
        check_storage(&a, &inst, 500);
        // with 500 items over 50 disks, virtually all disks get something
        assert!(a.disks_used() > 45, "only {} disks used", a.disks_used());
    }

    #[test]
    fn random_fixed_is_deterministic_per_seed() {
        let inst = uniform_instance(200, 0.2, 2);
        assert_eq!(
            random_fixed(&inst, 30, 5).unwrap(),
            random_fixed(&inst, 30, 5).unwrap()
        );
        assert_ne!(
            random_fixed(&inst, 30, 5).unwrap(),
            random_fixed(&inst, 30, 6).unwrap()
        );
    }

    #[test]
    fn random_fixed_out_of_space() {
        let items = vec![PackItem { s: 0.9, l: 0.0 }; 3];
        let inst = Instance::new(items).unwrap();
        let err = random_fixed(&inst, 2, 0).unwrap_err();
        assert!(matches!(err, FeasibilityError::OutOfSpace { item: 2 }));
    }

    #[test]
    fn greedy_family_is_fully_feasible() {
        let inst = uniform_instance(400, 0.3, 3);
        for a in [
            first_fit(&inst),
            first_fit_decreasing(&inst),
            best_fit(&inst),
            next_fit(&inst),
        ] {
            a.verify(&inst).unwrap();
            assert_eq!(a.items_assigned(), 400);
        }
    }

    #[test]
    fn quality_ordering_is_sane() {
        // next_fit ≥ first_fit ≥ (roughly) ffd; pack_disks competitive.
        let inst = uniform_instance(1000, 0.15, 4);
        let nf = next_fit(&inst).disks_used();
        let ff = first_fit(&inst).disks_used();
        let ffd = first_fit_decreasing(&inst).disks_used();
        let bf = best_fit(&inst).disks_used();
        let pd = pack_disks(&inst).disks_used();
        assert!(ff <= nf);
        assert!(bf <= nf);
        assert!(ffd <= nf);
        // Pack_Disks within a small factor of the greedy family.
        assert!((pd as f64) < 1.5 * ffd as f64, "pd {pd} vs ffd {ffd}");
    }

    #[test]
    fn pdc_concentrates_load_at_the_front() {
        let inst = uniform_instance(600, 0.2, 9);
        let a = pdc(&inst);
        a.verify(&inst).unwrap();
        assert_eq!(a.items_assigned(), 600);
        // The first third of disks must carry clearly more load than the
        // last third — the concentration property.
        let used: Vec<&crate::assignment::DiskBin> =
            a.disks.iter().filter(|d| !d.items.is_empty()).collect();
        let k = used.len() / 3;
        if k > 0 {
            let front: f64 = used[..k].iter().map(|d| d.total_l).sum();
            let back: f64 = used[used.len() - k..].iter().map(|d| d.total_l).sum();
            assert!(
                front > 1.5 * back,
                "front load {front} not concentrated vs back {back}"
            );
        }
    }

    #[test]
    fn pdc_orders_items_by_load() {
        let items = vec![
            PackItem { s: 0.1, l: 0.1 },
            PackItem { s: 0.1, l: 0.9 }, // hottest → disk 0, first
            PackItem { s: 0.1, l: 0.5 },
        ];
        let inst = Instance::new(items).unwrap();
        let a = pdc(&inst);
        a.verify(&inst).unwrap();
        assert_eq!(a.disks[0].items[0], 1);
    }

    #[test]
    fn next_fit_never_revisits() {
        let items = vec![
            PackItem { s: 0.6, l: 0.1 },
            PackItem { s: 0.6, l: 0.1 },
            PackItem { s: 0.3, l: 0.1 },
        ];
        let inst = Instance::new(items).unwrap();
        let a = next_fit(&inst);
        // item 2 would fit on disk 0 but next-fit already closed it
        assert_eq!(a.disks_used(), 2);
        assert_eq!(a.disks[0].items, vec![0]);
        assert_eq!(a.disks[1].items, vec![1, 2]);
    }

    #[test]
    fn ffd_sorts_by_dominant_coordinate() {
        let items = vec![
            PackItem { s: 0.2, l: 0.1 },
            PackItem { s: 0.1, l: 0.9 }, // dominant 0.9 → packed first
            PackItem { s: 0.5, l: 0.2 },
        ];
        let inst = Instance::new(items).unwrap();
        let a = first_fit_decreasing(&inst);
        a.verify(&inst).unwrap();
        assert_eq!(a.disks[0].items[0], 1);
    }

    #[test]
    #[should_panic(expected = "fleet must have at least one disk")]
    fn zero_fleet_panics() {
        let _ = random_fixed(&Instance::new(vec![]).unwrap(), 0, 0);
    }
}
