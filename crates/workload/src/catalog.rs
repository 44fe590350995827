//! The file population: ids, sizes, popularities.
//!
//! A [`FileCatalog`] is the input to both the allocator (which needs sizes
//! and loads) and the trace generator (which needs popularities). The
//! canonical constructor [`FileCatalog::paper_table1`] reproduces Table 1 of
//! the paper: Zipf popularities, inverse-Zipf sizes, and the inverse
//! popularity/size coupling ("a file has an inverse relation between its
//! access frequency p_i and its size s_i").

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::sizes::RankSizeModel;
use crate::zipf::zipf_pmf;

/// Identifier of a file: its index in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FileId(pub u32);

impl FileId {
    /// The catalog index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One file's static description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSpec {
    /// The file's id (== its catalog index).
    pub id: FileId,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Fraction of all accesses that target this file (`p_i`, sums to 1).
    pub popularity: f64,
}

/// A population of files.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileCatalog {
    files: Vec<FileSpec>,
}

impl FileCatalog {
    /// Build from raw (size, popularity) pairs; ids are assigned in order.
    ///
    /// # Panics
    /// If popularities are negative or don't sum to ≈ 1 (tolerance 1e-6),
    /// or any size is zero.
    pub fn from_parts(sizes: Vec<u64>, popularities: Vec<f64>) -> Self {
        assert_eq!(
            sizes.len(),
            popularities.len(),
            "sizes and popularities must align"
        );
        assert!(
            u32::try_from(sizes.len()).is_ok(),
            "catalog too large for FileId(u32)"
        );
        let sum: f64 = popularities.iter().sum();
        assert!(
            sizes.is_empty() || (sum - 1.0).abs() < 1e-6,
            "popularities must sum to 1, got {sum}"
        );
        let files = sizes
            .into_iter()
            .zip(popularities)
            .enumerate()
            .map(|(i, (size_bytes, popularity))| {
                assert!(size_bytes > 0, "file {i} has zero size");
                assert!(popularity >= 0.0, "file {i} has negative popularity");
                FileSpec {
                    id: FileId(i as u32),
                    size_bytes,
                    popularity,
                }
            })
            .collect();
        FileCatalog { files }
    }

    /// The Table 1 catalog: `n` files, Zipf popularity with the paper's
    /// exponent, power-law sizes between 188 MB and 20 GB, inversely coupled
    /// (popularity rank 1 → smallest file).
    ///
    /// Deterministic; `seed` is accepted for API symmetry with the shuffled
    /// variants but unused. File id `i` has popularity rank `i + 1`.
    pub fn paper_table1(n: usize, seed: u64) -> Self {
        let _ = seed;
        let size_model = RankSizeModel::paper_table1(n);
        let sizes: Vec<u64> = (0..n)
            .map(|i| {
                // popularity rank i+1 → size rank n−i (inverse coupling)
                size_model.size_of_rank(n - i)
            })
            .collect();
        FileCatalog::from_parts(sizes, zipf_pmf(n, crate::paper_popularity_exponent()))
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when there are no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Look up one file.
    ///
    /// # Panics
    /// If the id is out of range.
    pub fn file(&self, id: FileId) -> &FileSpec {
        &self.files[id.index()]
    }

    /// All files, in id order.
    pub fn files(&self) -> &[FileSpec] {
        &self.files
    }

    /// Iterate over files.
    pub fn iter(&self) -> impl Iterator<Item = &FileSpec> {
        self.files.iter()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size_bytes).sum()
    }

    /// Mean file size in bytes (0 for an empty catalog).
    pub fn mean_bytes(&self) -> f64 {
        if self.files.is_empty() {
            0.0
        } else {
            self.total_bytes() as f64 / self.files.len() as f64
        }
    }

    /// Per-file loads `l_i = rate · p_i · service(s_i)`: the fraction of one
    /// disk's time spent servicing file `i` when requests arrive at `rate`
    /// per second system-wide and serving `s` bytes takes `service(s)`
    /// seconds. This is the paper's §3 load definition.
    pub fn loads(&self, rate: f64, mut service: impl FnMut(u64) -> f64) -> Vec<f64> {
        self.files
            .iter()
            .map(|f| rate * f.popularity * service(f.size_bytes))
            .collect()
    }
}

/// Seeded in-place Fisher–Yates shuffle (self-contained so the crate does
/// not depend on `rand`'s optional shuffle traits).
pub(crate) fn fisher_yates<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GB, MB, TB};

    impl FileCatalog {
        /// Like [`Self::paper_table1`] but with the popularity↔size coupling
        /// broken by a seeded shuffle of the size assignment — the "no
        /// significant relationship between the file size and its access
        /// frequency" regime the paper observed in the NERSC logs.
        fn paper_table1_uncorrelated(n: usize, seed: u64) -> Self {
            let size_model = RankSizeModel::paper_table1(n);
            let mut sizes: Vec<u64> = (1..=n).map(|k| size_model.size_of_rank(k)).collect();
            fisher_yates(&mut sizes, seed);
            FileCatalog::from_parts(sizes, zipf_pmf(n, crate::paper_popularity_exponent()))
        }

        /// Expected service seconds per request: `Σ p_i · service(s_i)`.
        /// Multiplying by the arrival rate gives the total offered load in
        /// disk-seconds per second (i.e. the minimum number of perfectly
        /// utilised disks).
        fn expected_service_time(&self, mut service: impl FnMut(u64) -> f64) -> f64 {
            self.files
                .iter()
                .map(|f| f.popularity * service(f.size_bytes))
                .sum()
        }
    }

    #[test]
    fn paper_catalog_shape() {
        let c = FileCatalog::paper_table1(40_000, 0);
        assert_eq!(c.len(), 40_000);
        // Most popular file is the smallest, least popular the largest.
        let first = c.file(FileId(0));
        let last = c.file(FileId(39_999));
        assert!(first.popularity > last.popularity);
        assert!(first.size_bytes < last.size_bytes);
        assert_eq!(last.size_bytes, 20 * GB);
        assert!((first.size_bytes as f64 - 188.0e6).abs() < 2.0e6);
        // Footprint ballpark (Table 1: 12.86 TB).
        let total = c.total_bytes();
        assert!(total > 12 * TB && total < 15 * TB);
    }

    #[test]
    fn popularities_sum_to_one() {
        let c = FileCatalog::paper_table1(1000, 0);
        let sum: f64 = c.iter().map(|f| f.popularity).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uncorrelated_catalog_breaks_coupling() {
        let c = FileCatalog::paper_table1_uncorrelated(5000, 123);
        // Spearman-ish check: correlation of popularity rank vs size rank
        // should be near zero. Compute a simple sign statistic instead:
        // among adjacent popularity ranks, sizes should not be sorted.
        let sorted_pairs = c
            .files()
            .windows(2)
            .filter(|w| w[0].size_bytes <= w[1].size_bytes)
            .count();
        let frac = sorted_pairs as f64 / (c.len() - 1) as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "shuffled sizes look ordered: frac={frac}"
        );
        // Same multiset of sizes as the coupled catalog.
        let coupled = FileCatalog::paper_table1(5000, 0);
        let mut a: Vec<u64> = c.iter().map(|f| f.size_bytes).collect();
        let mut b: Vec<u64> = coupled.iter().map(|f| f.size_bytes).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let a = FileCatalog::paper_table1_uncorrelated(100, 7);
        let b = FileCatalog::paper_table1_uncorrelated(100, 7);
        let c = FileCatalog::paper_table1_uncorrelated(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn loads_follow_definition() {
        let c = FileCatalog::from_parts(vec![100 * MB, 200 * MB], vec![0.75, 0.25]);
        let loads = c.loads(4.0, |bytes| bytes as f64 / 100.0e6);
        // l_0 = 4 · 0.75 · 1 s = 3.0; l_1 = 4 · 0.25 · 2 s = 2.0
        assert!((loads[0] - 3.0).abs() < 1e-12);
        assert!((loads[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn expected_service_time_weights_by_popularity() {
        let c = FileCatalog::from_parts(vec![MB, 2 * MB], vec![0.5, 0.5]);
        let es = c.expected_service_time(|b| b as f64 / 1.0e6);
        assert!((es - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_catalog() {
        let c = FileCatalog::from_parts(vec![], vec![]);
        assert!(c.is_empty());
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.mean_bytes(), 0.0);
    }

    #[test]
    #[should_panic(expected = "popularities must sum to 1")]
    fn unnormalised_popularity_rejected() {
        let _ = FileCatalog::from_parts(vec![MB], vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn zero_size_rejected() {
        let _ = FileCatalog::from_parts(vec![0], vec![1.0]);
    }

    #[test]
    fn display_of_file_id() {
        assert_eq!(FileId(3).to_string(), "f3");
    }
}
