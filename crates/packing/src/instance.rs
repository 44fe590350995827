//! Packing instances: normalised `(s, l)` items plus the skew bound ρ.

/// One item to pack: normalised size and load, both in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackItem {
    /// Normalised storage requirement `s_i = size_i / S`.
    pub s: f64,
    /// Normalised load requirement `l_i = load_i / L`.
    pub l: f64,
}

impl PackItem {
    /// Whether the item is size-intensive (`s ≥ l`, set `ST(F)` in §3.1).
    pub fn is_size_intensive(&self) -> bool {
        self.s >= self.l
    }

    /// The heap key: `s − l` for size-intensive items, `l − s` otherwise.
    pub fn surplus_key(&self) -> f64 {
        (self.s - self.l).abs()
    }

    /// The larger of the two coordinates (contribution to ρ).
    pub fn max_coord(&self) -> f64 {
        self.s.max(self.l)
    }
}

/// Errors from instance construction.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// Item at index has a coordinate outside `[0, 1]` — it can never fit on
    /// any disk.
    ItemDoesNotFit {
        /// The offending item index.
        index: usize,
        /// Its normalised size.
        s: f64,
        /// Its normalised load.
        l: f64,
    },
    /// A coordinate was NaN or infinite.
    NotFinite {
        /// The offending item index.
        index: usize,
    },
    /// Raw-capacity constructor got a non-positive capacity.
    BadCapacity,
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::ItemDoesNotFit { index, s, l } => write!(
                f,
                "item {index} (s={s}, l={l}) exceeds unit capacity in some dimension"
            ),
            InstanceError::NotFinite { index } => {
                write!(f, "item {index} has a non-finite coordinate")
            }
            InstanceError::BadCapacity => write!(f, "capacities must be positive and finite"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// A validated 2DVPP instance (both capacities normalised to 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    items: Vec<PackItem>,
    rho: f64,
}

impl Instance {
    /// Build from normalised items, validating every coordinate.
    pub fn new(items: Vec<PackItem>) -> Result<Self, InstanceError> {
        let mut rho = 0.0_f64;
        for (index, it) in items.iter().enumerate() {
            if !it.s.is_finite() || !it.l.is_finite() {
                return Err(InstanceError::NotFinite { index });
            }
            if it.s < 0.0 || it.l < 0.0 || it.s > 1.0 || it.l > 1.0 {
                return Err(InstanceError::ItemDoesNotFit {
                    index,
                    s: it.s,
                    l: it.l,
                });
            }
            rho = rho.max(it.max_coord());
        }
        Ok(Instance { items, rho })
    }

    /// Build from raw byte sizes and absolute loads, normalising by the disk
    /// capacity `capacity_bytes` and the load bound `load_capacity` (the
    /// paper's `S` and `L`).
    pub fn from_raw(
        sizes_bytes: &[u64],
        loads: &[f64],
        capacity_bytes: u64,
        load_capacity: f64,
    ) -> Result<Self, InstanceError> {
        assert_eq!(sizes_bytes.len(), loads.len(), "sizes/loads must align");
        if capacity_bytes == 0 || !(load_capacity > 0.0) || !load_capacity.is_finite() {
            return Err(InstanceError::BadCapacity);
        }
        let cap = capacity_bytes as f64;
        let items = sizes_bytes
            .iter()
            .zip(loads)
            .map(|(&bytes, &load)| PackItem {
                s: bytes as f64 / cap,
                l: load / load_capacity,
            })
            .collect();
        Instance::new(items)
    }

    /// The items.
    pub fn items(&self) -> &[PackItem] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there is nothing to pack.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The skew bound `ρ = max_i max(s_i, l_i)` (0 for empty instances).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Total normalised storage `Σ s_i`.
    pub fn total_s(&self) -> f64 {
        self.items.iter().map(|it| it.s).sum()
    }

    /// Total normalised load `Σ l_i`.
    pub fn total_l(&self) -> f64 {
        self.items.iter().map(|it| it.l).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_keys() {
        let size_heavy = PackItem { s: 0.5, l: 0.2 };
        let load_heavy = PackItem { s: 0.1, l: 0.4 };
        assert!(size_heavy.is_size_intensive());
        assert!(!load_heavy.is_size_intensive());
        assert!((size_heavy.surplus_key() - 0.3).abs() < 1e-15);
        assert!((load_heavy.surplus_key() - 0.3).abs() < 1e-15);
        // ties count as size-intensive, matching ST(F) = {s ≥ l}
        assert!(PackItem { s: 0.3, l: 0.3 }.is_size_intensive());
    }

    #[test]
    fn rho_is_max_coordinate() {
        let inst = Instance::new(vec![
            PackItem { s: 0.2, l: 0.7 },
            PackItem { s: 0.4, l: 0.1 },
        ])
        .unwrap();
        assert!((inst.rho() - 0.7).abs() < 1e-15);
    }

    #[test]
    fn oversized_item_rejected() {
        let err = Instance::new(vec![PackItem { s: 1.2, l: 0.1 }]).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::ItemDoesNotFit { index: 0, .. }
        ));
    }

    #[test]
    fn nan_rejected() {
        let err = Instance::new(vec![PackItem {
            s: f64::NAN,
            l: 0.1,
        }])
        .unwrap_err();
        assert!(matches!(err, InstanceError::NotFinite { index: 0 }));
    }

    #[test]
    fn from_raw_normalises() {
        let inst = Instance::from_raw(&[250, 500], &[0.3, 0.6], 1000, 0.6).unwrap();
        let items = inst.items();
        assert!((items[0].s - 0.25).abs() < 1e-15);
        assert!((items[0].l - 0.5).abs() < 1e-15);
        assert!((items[1].s - 0.5).abs() < 1e-15);
        assert!((items[1].l - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_raw_rejects_zero_capacity() {
        assert_eq!(
            Instance::from_raw(&[1], &[0.1], 0, 1.0).unwrap_err(),
            InstanceError::BadCapacity
        );
        assert_eq!(
            Instance::from_raw(&[1], &[0.1], 10, 0.0).unwrap_err(),
            InstanceError::BadCapacity
        );
    }

    #[test]
    fn totals() {
        let inst = Instance::new(vec![
            PackItem { s: 0.2, l: 0.7 },
            PackItem { s: 0.4, l: 0.1 },
        ])
        .unwrap();
        assert!((inst.total_s() - 0.6).abs() < 1e-15);
        assert!((inst.total_l() - 0.8).abs() < 1e-15);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![]).unwrap();
        assert!(inst.is_empty());
        assert_eq!(inst.rho(), 0.0);
    }
}
