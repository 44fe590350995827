#![warn(missing_docs)]
//! # spindown-experiments
//!
//! Regenerates every table and figure of Otoo, Rotem & Tsao (IPPS 2009).
//! Each experiment is a pure function from a [`Scale`] to a [`Figure`]
//! (column-oriented numeric data), which the `experiments` binary prints as
//! an aligned table and writes as CSV. A `replay` run with `--window SECS`
//! returns a second `replay_windows` figure (the tumbling-window time
//! series) alongside the legacy aggregate figure. Sweeps fan across OS threads through
//! the [`sweep`] driver (scoped threads, no external runtime); every
//! simulation is seeded deterministically from its grid point, so results
//! do not depend on thread scheduling.
//!
//! | Experiment | Paper artefact | Module |
//! |------------|----------------|--------|
//! | `table1`   | Table 1 (workload parameters) | [`tables`] |
//! | `table2`   | Table 2 (disk characteristics) | [`tables`] |
//! | `fig2`     | Figure 2 (power saving vs R) | [`fig23`] |
//! | `fig3`     | Figure 3 (response ratio vs R) | [`fig23`] |
//! | `fig4`     | Figure 4 (power & response vs L) | [`fig4`] |
//! | `fig5`     | Figure 5 (saving vs idleness threshold, NERSC) | [`fig56`] |
//! | `fig6`     | Figure 6 (response vs idleness threshold, NERSC) | [`fig56`] |
//! | `vsweep`   | §5.1 `Pack_Disks_v`, v = 1..8 | [`vsweep`] |
//! | `bounds`   | Theorem 1 empirical check | [`bounds_exp`] |
//! | `sensitivity` | drive-class extension study | [`sensitivity`] |
//! | `shootout` | allocator design-space study (incl. ladder/joint/cache brackets) | [`shootout`] |
//! | `joint`    | joint (cache × allocation × policy × discipline × ladder) search | [`joint_exp`] |
//! | `replay`   | streamed trace replay (`--trace-file` / synthetic / `--workload`, `--window`) | [`replay`] |

pub mod bounds_exp;
pub mod fig23;
pub mod fig4;
pub mod fig56;
pub mod joint_exp;
pub mod output;
pub mod replay;
pub mod sensitivity;
pub mod shootout;
pub mod sweep;
pub mod tables;
pub mod vsweep;

/// Experiment scale: `Paper` reproduces the published parameters; `Quick`
/// is a proportionally shrunken instance for CI and benches (same shapes,
/// seconds instead of minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full published parameters (n = 40 000 files, 100 disks, 30-day
    /// NERSC trace).
    Paper,
    /// Shrunken instance with the same structure.
    Quick,
}

impl Scale {
    /// Synthetic-workload file count (Table 1: 40 000).
    ///
    /// Both scales keep the full catalog: shrinking the *population* makes
    /// individual files carry more than a disk's load (infeasible), whereas
    /// catalog generation and packing are cheap — simulation cost scales
    /// with `R × sim_time`, which `Quick` shrinks instead.
    pub fn n_files(self) -> usize {
        match self {
            Scale::Paper => 40_000,
            Scale::Quick => 40_000,
        }
    }

    /// Synthetic fleet size (Table 1: 100).
    pub fn fleet(self) -> usize {
        match self {
            Scale::Paper => 100,
            Scale::Quick => 100,
        }
    }

    /// Synthetic simulated time (Table 1: 4 000 s).
    pub fn sim_time(self) -> f64 {
        match self {
            Scale::Paper => 4_000.0,
            Scale::Quick => 600.0,
        }
    }

    /// Arrival-rate grid for Figures 2/3 (paper: 1..12).
    pub fn rates(self) -> Vec<f64> {
        match self {
            Scale::Paper => (1..=12).map(f64::from).collect(),
            Scale::Quick => vec![1.0, 4.0, 8.0, 12.0],
        }
    }

    /// Load-constraint grid for Figures 2/3 (paper: 50–80 %).
    pub fn load_constraints(self) -> Vec<f64> {
        vec![0.5, 0.6, 0.7, 0.8]
    }

    /// Load grid for Figure 4 (paper: 0.4–0.9).
    pub fn fig4_loads(self) -> Vec<f64> {
        match self {
            Scale::Paper => (8..=18).map(|i| i as f64 * 0.05).collect(),
            Scale::Quick => vec![0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        }
    }

    /// NERSC trace shrink factor (1 = full 88 631 files / 115 832 reqs).
    pub fn nersc_factor(self) -> usize {
        match self {
            Scale::Paper => 1,
            Scale::Quick => 20,
        }
    }

    /// Idleness-threshold grid for Figures 5/6, hours (paper: 0–2 h).
    pub fn threshold_hours(self) -> Vec<f64> {
        match self {
            Scale::Paper => vec![0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
            Scale::Quick => vec![0.1, 0.5, 1.0, 2.0],
        }
    }
}

/// Column-oriented experiment output: `columns[0]` is the x-axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Stable identifier (`fig2`, `table1`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers; first column is the x-axis.
    pub columns: Vec<String>,
    /// Rows of numbers, each as long as `columns`.
    pub rows: Vec<Vec<f64>>,
    /// Free-form notes (assumptions, seeds, paper references).
    pub notes: Vec<String>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(id: &str, title: &str, columns: Vec<String>) -> Self {
        Figure {
            id: id.to_owned(),
            title: title.to_owned(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// If the row length does not match the column count.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(row);
    }

    /// Column index by header name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// All values of a named column.
    pub fn series(&self, name: &str) -> Option<Vec<f64>> {
        let i = self.column(name)?;
        Some(self.rows.iter().map(|r| r[i]).collect())
    }
}

/// Deterministic seed for a grid point (mixes the experiment id and the
/// point coordinates so parallel execution is order-independent).
pub fn grid_seed(experiment: u64, a: u64, b: u64) -> u64 {
    let mut x = experiment
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 27;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_row_and_series_access() {
        let mut f = Figure::new("t", "T", vec!["x".into(), "y".into()]);
        f.push_row(vec![1.0, 10.0]);
        f.push_row(vec![2.0, 20.0]);
        assert_eq!(f.series("y"), Some(vec![10.0, 20.0]));
        assert_eq!(f.series("z"), None);
        assert_eq!(f.column("x"), Some(0));
    }

    #[test]
    #[should_panic(expected = "row/column mismatch")]
    fn ragged_row_rejected() {
        let mut f = Figure::new("t", "T", vec!["x".into()]);
        f.push_row(vec![1.0, 2.0]);
    }

    #[test]
    fn grid_seed_distinguishes_points() {
        let s1 = grid_seed(1, 2, 3);
        let s2 = grid_seed(1, 2, 4);
        let s3 = grid_seed(2, 2, 3);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(s1, grid_seed(1, 2, 3));
    }

    #[test]
    fn scale_grids_are_sane() {
        assert_eq!(Scale::Paper.rates().len(), 12);
        assert_eq!(Scale::Paper.n_files(), 40_000);
        assert!(Scale::Quick.sim_time() < Scale::Paper.sim_time());
        assert_eq!(Scale::Paper.load_constraints(), vec![0.5, 0.6, 0.7, 0.8]);
        assert!(Scale::Paper.fig4_loads().first().copied().unwrap() >= 0.4 - 1e-9);
    }
}
