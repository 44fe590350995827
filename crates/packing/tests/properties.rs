//! Property-based tests for the 2DVPP algorithms (proptest).
//!
//! These check, over randomized instances, the paper's §3 guarantees:
//! feasibility, the Lemma 5/6 completeness structure, the Theorem 1 budget,
//! and the claimed Pack_Disks ≡ CHP equivalence.

use proptest::prelude::*;
use spindown_packing::baselines;
use spindown_packing::bounds::{lower_bound, theorem1_budget};
use spindown_packing::chp::pack_chp;
use spindown_packing::{pack_disks, pack_disks_v, Instance, PackItem};

/// Strategy: items with coordinates in [0, rho_cap].
fn items_strategy(max_n: usize, rho_cap: f64) -> impl Strategy<Value = Vec<PackItem>> {
    prop::collection::vec(
        (0.0..=rho_cap, 0.0..=rho_cap).prop_map(|(s, l)| PackItem { s, l }),
        0..max_n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_disks_always_feasible(items in items_strategy(200, 1.0)) {
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        prop_assert!(a.verify(&inst).is_ok());
    }

    #[test]
    fn pack_disks_within_theorem1_budget(items in items_strategy(200, 0.95)) {
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        let budget = theorem1_budget(&inst);
        prop_assert!(
            (a.disks_used() as f64) <= budget + 1e-9,
            "used {} > budget {}", a.disks_used(), budget
        );
    }

    #[test]
    fn pack_disks_at_least_lower_bound(items in items_strategy(150, 1.0)) {
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        prop_assert!(a.disks_used() >= lower_bound(&inst));
    }

    #[test]
    fn chp_equals_pack_disks(items in items_strategy(120, 1.0)) {
        let inst = Instance::new(items).unwrap();
        prop_assert_eq!(pack_disks(&inst), pack_chp(&inst));
    }

    #[test]
    fn lemma6_all_but_one_disk_complete_in_some_dimension(
        items in items_strategy(200, 0.4)
    ) {
        let inst = Instance::new(items).unwrap();
        let rho = inst.rho();
        let a = pack_disks(&inst);
        let incomplete = a
            .disks
            .iter()
            .filter(|d| !d.items.is_empty())
            .filter(|d| !d.is_s_complete(rho) && !d.is_l_complete(rho))
            .count();
        prop_assert!(incomplete <= 1, "{incomplete} incomplete disks");
    }

    #[test]
    fn pack_disks_v_feasible_for_all_group_sizes(
        items in items_strategy(150, 1.0),
        v in 1usize..=8
    ) {
        let inst = Instance::new(items).unwrap();
        let a = pack_disks_v(&inst, v);
        prop_assert!(a.verify(&inst).is_ok());
    }

    #[test]
    fn pack_disks_v1_equals_pack_disks(items in items_strategy(150, 1.0)) {
        let inst = Instance::new(items).unwrap();
        prop_assert_eq!(pack_disks_v(&inst, 1), pack_disks(&inst));
    }

    #[test]
    fn greedy_baselines_feasible(items in items_strategy(150, 1.0)) {
        let inst = Instance::new(items).unwrap();
        for a in [
            baselines::first_fit(&inst),
            baselines::first_fit_decreasing(&inst),
            baselines::best_fit(&inst),
            baselines::next_fit(&inst),
            baselines::pdc(&inst),
        ] {
            prop_assert!(a.verify(&inst).is_ok());
        }
    }

    #[test]
    fn shaping_strategies_respect_the_load_constraint(items in items_strategy(200, 1.0)) {
        // The joint planner's load-shaping legs must never violate either
        // normalised cap, whatever the catalog looks like — `verify`
        // checks per-disk totals in both dimensions plus item accounting.
        let inst = Instance::new(items).unwrap();
        for a in [
            spindown_packing::shaping::concentrate(&inst),
            spindown_packing::shaping::spread_tail(&inst),
        ] {
            prop_assert!(a.verify(&inst).is_ok());
        }
    }

    #[test]
    fn random_fixed_respects_storage(
        items in items_strategy(100, 0.3),
        seed in any::<u64>()
    ) {
        let inst = Instance::new(items).unwrap();
        // generous fleet so placement cannot fail
        let fleet = inst.len().max(1) + 10;
        let a = baselines::random_fixed(&inst, fleet, seed).unwrap();
        prop_assert_eq!(a.disk_slots(), fleet);
        let mut seen = vec![false; inst.len()];
        for bin in &a.disks {
            let s: f64 = bin.items.iter().map(|&i| inst.items()[i].s).sum();
            prop_assert!(s <= 1.0 + 1e-9);
            for &i in &bin.items {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn item_to_disk_is_total_function(items in items_strategy(120, 1.0)) {
        let inst = Instance::new(items).unwrap();
        let a = pack_disks(&inst);
        let map = a.item_to_disk(inst.len());
        for (item, &disk) in map.iter().enumerate() {
            let disk = disk as usize;
            prop_assert!(disk < a.disk_slots(), "item {item} unmapped");
            prop_assert!(a.disks[disk].items.contains(&item));
        }
    }
}
