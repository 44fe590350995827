//! Packing results: which item went to which disk, with verification.

use crate::instance::Instance;

/// One disk's contents and totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiskBin {
    /// Indices (into the instance) of the items on this disk, in the order
    /// they were packed.
    pub items: Vec<usize>,
    /// Total normalised storage.
    pub total_s: f64,
    /// Total normalised load.
    pub total_l: f64,
}

impl DiskBin {
    /// Whether the bin is s-complete for skew bound `rho` (§3.1).
    pub fn is_s_complete(&self, rho: f64) -> bool {
        self.total_s >= 1.0 - rho - 1e-9 && self.total_s <= 1.0 + 1e-9
    }

    /// Whether the bin is l-complete for skew bound `rho`.
    pub fn is_l_complete(&self, rho: f64) -> bool {
        self.total_l >= 1.0 - rho - 1e-9 && self.total_l <= 1.0 + 1e-9
    }

    /// Complete = both s-complete and l-complete.
    pub fn is_complete(&self, rho: f64) -> bool {
        self.is_s_complete(rho) && self.is_l_complete(rho)
    }
}

/// Why an assignment failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum FeasibilityError {
    /// A disk exceeds the storage capacity.
    StorageOverflow {
        /// The offending disk.
        disk: usize,
        /// Its total normalised storage.
        total_s: f64,
    },
    /// A disk exceeds the load capacity.
    LoadOverflow {
        /// The offending disk.
        disk: usize,
        /// Its total normalised load.
        total_l: f64,
    },
    /// An item is missing or duplicated.
    NotAPartition {
        /// The offending item index.
        item: usize,
        /// How many times it was assigned.
        times: usize,
    },
    /// Recorded totals disagree with recomputed ones.
    TotalsMismatch {
        /// The offending disk.
        disk: usize,
    },
    /// The instance cannot be packed at all (e.g. random placement over a
    /// fixed fleet ran out of space).
    OutOfSpace {
        /// Item that could not be placed.
        item: usize,
    },
}

impl std::fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeasibilityError::StorageOverflow { disk, total_s } => {
                write!(f, "disk {disk} storage overflow: {total_s}")
            }
            FeasibilityError::LoadOverflow { disk, total_l } => {
                write!(f, "disk {disk} load overflow: {total_l}")
            }
            FeasibilityError::NotAPartition { item, times } => {
                write!(f, "item {item} assigned {times} times")
            }
            FeasibilityError::TotalsMismatch { disk } => {
                write!(f, "disk {disk} recorded totals mismatch")
            }
            FeasibilityError::OutOfSpace { item } => {
                write!(f, "no disk can take item {item}")
            }
        }
    }
}

impl std::error::Error for FeasibilityError {}

/// A complete allocation of items to disks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Assignment {
    /// The disks, in the order they were opened. May contain empty disks
    /// (random placement over a fixed fleet keeps them).
    pub disks: Vec<DiskBin>,
}

impl Assignment {
    /// Number of *non-empty* disks — the objective the algorithms minimise.
    pub fn disks_used(&self) -> usize {
        self.disks.iter().filter(|d| !d.items.is_empty()).count()
    }

    /// Total number of disk slots, including empty ones.
    pub fn disk_slots(&self) -> usize {
        self.disks.len()
    }

    /// Map from item index to disk index, `u32::MAX` for an item no disk
    /// holds.
    ///
    /// # Panics
    /// If an item is assigned more than once or out of range, or a disk id
    /// does not fit below `u32::MAX`.
    pub fn item_to_disk(&self, n_items: usize) -> Vec<u32> {
        let mut map = vec![u32::MAX; n_items];
        for (disk, bin) in (0..).zip(&self.disks) {
            assert!(disk != u32::MAX, "disk ids overflow u32");
            for &item in &bin.items {
                assert!(map[item] == u32::MAX, "item {item} assigned twice");
                map[item] = disk;
            }
        }
        map
    }

    /// Verify that this assignment is a feasible partition of `instance`:
    /// every item exactly once, no disk over either capacity (tolerance
    /// 1e-9), recorded totals correct.
    pub fn verify(&self, instance: &Instance) -> Result<(), FeasibilityError> {
        const TOL: f64 = 1e-9;
        let items = instance.items();
        let mut seen = vec![0usize; items.len()];
        for (disk, bin) in self.disks.iter().enumerate() {
            let mut s = 0.0;
            let mut l = 0.0;
            for &idx in &bin.items {
                if idx >= items.len() {
                    return Err(FeasibilityError::NotAPartition {
                        item: idx,
                        times: 0,
                    });
                }
                seen[idx] += 1;
                s += items[idx].s;
                l += items[idx].l;
            }
            if s > 1.0 + TOL {
                return Err(FeasibilityError::StorageOverflow { disk, total_s: s });
            }
            if l > 1.0 + TOL {
                return Err(FeasibilityError::LoadOverflow { disk, total_l: l });
            }
            if (s - bin.total_s).abs() > 1e-6 || (l - bin.total_l).abs() > 1e-6 {
                return Err(FeasibilityError::TotalsMismatch { disk });
            }
        }
        for (item, &times) in seen.iter().enumerate() {
            if times != 1 {
                return Err(FeasibilityError::NotAPartition { item, times });
            }
        }
        Ok(())
    }
}

/// Internal builder shared by the algorithms: tracks the currently open bin
/// and accumulates closed ones.
#[derive(Debug, Default)]
pub(crate) struct AssignmentBuilder {
    closed: Vec<DiskBin>,
    current: DiskBin,
}

impl AssignmentBuilder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn current(&self) -> &DiskBin {
        &self.current
    }

    pub(crate) fn add(&mut self, item: usize, s: f64, l: f64) {
        self.current.items.push(item);
        self.current.total_s += s;
        self.current.total_l += l;
    }

    /// Remove the most recently added item whose index is `item` (used by
    /// the eviction step). Returns true if found.
    pub(crate) fn remove_last_occurrence(&mut self, item: usize, s: f64, l: f64) -> bool {
        if let Some(pos) = self.current.items.iter().rposition(|&i| i == item) {
            self.current.items.remove(pos);
            self.current.total_s -= s;
            self.current.total_l -= l;
            true
        } else {
            false
        }
    }

    pub(crate) fn close_current(&mut self) {
        let bin = std::mem::take(&mut self.current);
        self.closed.push(bin);
    }

    pub(crate) fn finish(mut self) -> Assignment {
        if !self.current.items.is_empty() {
            self.closed.push(self.current);
        }
        Assignment { disks: self.closed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, PackItem};

    impl Assignment {
        /// Mean storage fill over used disks (0 when no disks are used).
        fn mean_storage_fill(&self) -> f64 {
            let used: Vec<&DiskBin> = self.disks.iter().filter(|d| !d.items.is_empty()).collect();
            if used.is_empty() {
                return 0.0;
            }
            used.iter().map(|d| d.total_s).sum::<f64>() / used.len() as f64
        }

        /// Mean load fill over used disks (0 when no disks are used).
        fn mean_load_fill(&self) -> f64 {
            let used: Vec<&DiskBin> = self.disks.iter().filter(|d| !d.items.is_empty()).collect();
            if used.is_empty() {
                return 0.0;
            }
            used.iter().map(|d| d.total_l).sum::<f64>() / used.len() as f64
        }
    }

    fn inst() -> Instance {
        Instance::new(vec![
            PackItem { s: 0.4, l: 0.1 },
            PackItem { s: 0.5, l: 0.2 },
            PackItem { s: 0.2, l: 0.8 },
        ])
        .unwrap()
    }

    fn good_assignment() -> Assignment {
        Assignment {
            disks: vec![
                DiskBin {
                    items: vec![0, 1],
                    total_s: 0.9,
                    total_l: 0.3,
                },
                DiskBin {
                    items: vec![2],
                    total_s: 0.2,
                    total_l: 0.8,
                },
            ],
        }
    }

    #[test]
    fn verify_accepts_feasible_partition() {
        good_assignment().verify(&inst()).unwrap();
    }

    #[test]
    fn verify_rejects_storage_overflow() {
        let mut a = good_assignment();
        a.disks[0].items.push(2);
        a.disks[0].total_s += 0.2;
        a.disks[0].total_l += 0.8;
        a.disks.remove(1);
        // item 2 now once, but disk 0 storage = 1.1 (checked before load)
        let err = a.verify(&inst()).unwrap_err();
        assert!(matches!(
            err,
            FeasibilityError::StorageOverflow { disk: 0, .. }
        ));
    }

    #[test]
    fn verify_rejects_load_overflow() {
        let items = Instance::new(vec![
            PackItem { s: 0.1, l: 0.6 },
            PackItem { s: 0.1, l: 0.6 },
        ])
        .unwrap();
        let a = Assignment {
            disks: vec![DiskBin {
                items: vec![0, 1],
                total_s: 0.2,
                total_l: 1.2,
            }],
        };
        let err = a.verify(&items).unwrap_err();
        assert!(matches!(
            err,
            FeasibilityError::LoadOverflow { disk: 0, .. }
        ));
    }

    #[test]
    fn verify_rejects_missing_item() {
        let mut a = good_assignment();
        a.disks[1].items.clear();
        a.disks[1].total_s = 0.0;
        a.disks[1].total_l = 0.0;
        let err = a.verify(&inst()).unwrap_err();
        assert_eq!(err, FeasibilityError::NotAPartition { item: 2, times: 0 });
    }

    #[test]
    fn verify_rejects_duplicate_item() {
        let mut a = good_assignment();
        a.disks[1].items.push(0);
        a.disks[1].total_s += 0.4;
        a.disks[1].total_l += 0.1;
        let err = a.verify(&inst()).unwrap_err();
        assert_eq!(err, FeasibilityError::NotAPartition { item: 0, times: 2 });
    }

    #[test]
    fn verify_rejects_totals_mismatch() {
        let mut a = good_assignment();
        a.disks[0].total_s = 0.1;
        let err = a.verify(&inst()).unwrap_err();
        assert_eq!(err, FeasibilityError::TotalsMismatch { disk: 0 });
    }

    #[test]
    fn disks_used_ignores_empty_slots() {
        let mut a = good_assignment();
        a.disks.push(DiskBin::default());
        assert_eq!(a.disks_used(), 2);
        assert_eq!(a.disk_slots(), 3);
    }

    #[test]
    fn item_to_disk_roundtrip() {
        let map = good_assignment().item_to_disk(3);
        assert_eq!(map, vec![0, 0, 1]);
    }

    #[test]
    fn completeness_predicates() {
        let bin = DiskBin {
            items: vec![0],
            total_s: 0.85,
            total_l: 0.4,
        };
        assert!(bin.is_s_complete(0.2));
        assert!(!bin.is_l_complete(0.2));
        assert!(!bin.is_complete(0.2));
        assert!(bin.is_l_complete(0.7));
        assert!(bin.is_complete(0.7));
    }

    #[test]
    fn builder_eviction() {
        let mut b = AssignmentBuilder::new();
        b.add(3, 0.2, 0.1);
        b.add(5, 0.3, 0.05);
        assert!(b.remove_last_occurrence(3, 0.2, 0.1));
        assert!(!b.remove_last_occurrence(3, 0.2, 0.1));
        assert_eq!(b.current().items, vec![5]);
        assert!((b.current().total_s - 0.3).abs() < 1e-12);
        b.close_current();
        let a = b.finish();
        assert_eq!(a.disks.len(), 1);
    }

    #[test]
    fn fill_statistics() {
        let a = good_assignment();
        assert!((a.mean_storage_fill() - 0.55).abs() < 1e-12);
        assert!((a.mean_load_fill() - 0.55).abs() < 1e-12);
        assert_eq!(Assignment::default().mean_storage_fill(), 0.0);
    }
}
