//! Zipf-like distribution over ranks `1..=n`.
//!
//! The paper's popularity law (Table 1) is `p_i = c / rank_i^(1−θ)` with
//! `θ = log 0.6 / log 0.4` and `c` the normaliser `1 / H_n^{(1−θ)}` where
//! `H_n^{(a)} = Σ_{k=1..n} k^{−a}` is the generalised harmonic number. (The
//! table's `c = 1 − H` is a typo; probabilities must sum to 1.)
//!
//! Sampling is inverse-CDF through a guide table (`O(1)` expected per draw
//! after an `O(n)` table build).

use rand::Rng;

use crate::cdf::CdfTable;

/// Generalised harmonic number `H_n^{(a)} = Σ_{k=1..n} k^{−a}`.
///
/// Computed by summation from the small end for accuracy.
pub fn generalized_harmonic(n: usize, a: f64) -> f64 {
    let mut sum = 0.0;
    for k in (1..=n).rev() {
        sum += (k as f64).powf(-a);
    }
    sum
}

/// The probabilities `p_i ∝ i^{−exponent}` of ranks `i = 1..=n`, indexed
/// by rank − 1: a [`ZipfDistribution`]'s pmf without its sampling table.
///
/// # Panics
/// If `n == 0` or the exponent is not finite / negative.
pub fn zipf_pmf(n: usize, exponent: f64) -> Vec<f64> {
    assert!(n >= 1, "Zipf needs at least one rank");
    assert!(
        exponent.is_finite() && exponent >= 0.0,
        "exponent must be finite and non-negative"
    );
    let h = generalized_harmonic(n, exponent);
    (1..=n).map(|i| (i as f64).powf(-exponent) / h).collect()
}

/// A Zipf-like distribution with probability `p_i ∝ i^{−exponent}` over
/// ranks `i = 1..=n` (rank 1 is the most probable).
#[derive(Debug, Clone)]
pub struct ZipfDistribution {
    exponent: f64,
    pmf: Vec<f64>,
    cdf: CdfTable,
}

impl ZipfDistribution {
    /// Build a distribution over `n ≥ 1` ranks with the given exponent
    /// (≥ 0; 0 is uniform).
    ///
    /// # Panics
    /// If `n == 0` or the exponent is not finite / negative.
    pub fn new(n: usize, exponent: f64) -> Self {
        let pmf = zipf_pmf(n, exponent);
        let cdf = CdfTable::from_weights(pmf.iter().copied());
        ZipfDistribution { exponent, pmf, cdf }
    }

    /// The paper's popularity distribution over `n` files
    /// (`exponent = 1 − log 0.6 / log 0.4`).
    pub fn paper_popularity(n: usize) -> Self {
        Self::new(n, crate::paper_popularity_exponent())
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// True if the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false // n >= 1 by construction
    }

    /// The exponent used.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of rank `rank` (1-based).
    ///
    /// # Panics
    /// If `rank` is 0 or out of range.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.pmf.len(), "rank out of range");
        self.pmf[rank - 1]
    }

    /// Draw a rank (1-based) using the supplied RNG.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.cdf.sample(rng) + 1
    }

    /// The rank whose CDF first reaches `u ∈ [0, 1]` (inverse CDF).
    pub fn quantile(&self, u: f64) -> usize {
        debug_assert!((0.0..=1.0).contains(&u));
        self.cdf.index(u) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn harmonic_small_cases() {
        assert!((generalized_harmonic(1, 1.0) - 1.0).abs() < 1e-15);
        assert!((generalized_harmonic(3, 1.0) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert!((generalized_harmonic(4, 0.0) - 4.0).abs() < 1e-15);
    }

    #[test]
    fn pmf_sums_to_one() {
        for n in [1usize, 2, 10, 1000] {
            for a in [0.0, 0.44, 1.0, 2.0] {
                let z = ZipfDistribution::new(n, a);
                let sum: f64 = (1..=n).map(|r| z.pmf(r)).sum();
                assert!((sum - 1.0).abs() < 1e-9, "n={n} a={a} sum={sum}");
            }
        }
    }

    #[test]
    fn pmf_is_decreasing_in_rank() {
        let z = ZipfDistribution::new(100, 0.8);
        for i in 1..100 {
            assert!(z.pmf(i) > z.pmf(i + 1));
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfDistribution::new(8, 0.0);
        for i in 1..=8 {
            assert!((z.pmf(i) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_edges() {
        let z = ZipfDistribution::new(5, 1.0);
        assert_eq!(z.quantile(0.0), 1);
        assert_eq!(z.quantile(1.0), 5);
        // just below the first step boundary stays at rank 1
        assert_eq!(z.quantile(z.pmf(1) * 0.999), 1);
        // just above it moves to rank 2
        assert_eq!(z.quantile(z.pmf(1) * 1.001), 2);
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = ZipfDistribution::paper_popularity(50);
        let mut rng = SmallRng::seed_from_u64(7);
        let draws = 200_000;
        let mut counts = vec![0usize; 50];
        for _ in 0..draws {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        // Rank 1 empirical frequency within 5% relative of pmf.
        let emp = counts[0] as f64 / draws as f64;
        let expect = z.pmf(1);
        assert!(
            (emp - expect).abs() / expect < 0.05,
            "empirical {emp} vs pmf {expect}"
        );
        // Monotone-ish head: rank1 strictly dominates rank 10.
        assert!(counts[0] > counts[9]);
    }

    #[test]
    fn paper_distribution_head_weight() {
        // Table 1's skew: a small number of files get a large share. With
        // n = 40 000 and exponent ≈ 0.4425, the top 1% of files should carry
        // several percent of accesses (heavier than uniform's 1%).
        let z = ZipfDistribution::paper_popularity(40_000);
        let head: f64 = (1..=400).map(|r| z.pmf(r)).sum();
        assert!(head > 0.04, "head share {head}");
        assert!(head < 0.5);
    }

    #[test]
    fn single_rank_distribution() {
        let z = ZipfDistribution::new(1, 0.7);
        assert_eq!(z.len(), 1);
        assert!((z.pmf(1) - 1.0).abs() < 1e-15);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(z.sample(&mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = ZipfDistribution::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn pmf_rank_zero_panics() {
        let z = ZipfDistribution::new(3, 1.0);
        let _ = z.pmf(0);
    }
}
