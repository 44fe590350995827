//! Inverse-CDF sampling through a guide table.
//!
//! A [`CdfTable`] holds a discrete CDF and a guide table of `m + 1`
//! cutpoints (Chen & Asau, 1974): `guide[j]` is the first index whose CDF
//! value reaches `j / m`. A draw `u` starts at `guide[⌊u·m⌋]` and scans
//! forward, so with `m` equal to the number of outcomes a lookup costs
//! about two loads where a binary search over a 40 000-file catalog costs
//! sixteen. The guide and the lookup round `x·m` the same way, and that
//! product grows with `x`, so the start never lies past the answer: the
//! answer is exactly `partition_point(|c| c < u)` over the CDF, clamped
//! to the last index, for every `u`.

use rand::{Rng, RngExt};

/// A discrete CDF with its guide table.
#[derive(Debug, Clone)]
pub(crate) struct CdfTable {
    /// Running sums of the weights, capped at 1, with the last pinned to 1.
    cdf: Vec<f64>,
    /// `guide[j]` = the first index `i` with `⌊cdf[i]·m⌋ ≥ j`.
    guide: Vec<u32>,
}

impl CdfTable {
    /// The table over the running sums of `weights`, in order. The last
    /// sum is pinned to 1 so sampling never falls off the end, and every
    /// sum is capped at 1, which keeps the CDF ascending when rounding
    /// carries a sum past 1 early; for every `u ≤ 1` the capped CDF gives
    /// the index the uncapped one would.
    ///
    /// # Panics
    /// If `weights` is empty or holds more than `u32::MAX` entries.
    pub(crate) fn from_weights(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .into_iter()
            .map(|w| {
                acc += w;
                acc.min(1.0)
            })
            .collect();
        *cdf.last_mut().expect("a CDF needs at least one outcome") = 1.0;
        let m = cdf.len();
        assert!(u32::try_from(m).is_ok(), "{m} outcomes overflow the guide");
        // One pass over the CDF, one multiply an outcome: outcome `i`
        // starts every cell its value is the first to reach. The last
        // value is 1, so it fills the guide to cell `m`.
        let mut guide = Vec::with_capacity(m + 1);
        for (i, &c) in (0u32..).zip(&cdf) {
            let reach = ((c * m as f64) as usize).min(m);
            if guide.len() <= reach {
                guide.resize(reach + 1, i);
            }
        }
        CdfTable { cdf, guide }
    }

    /// The first index whose CDF value reaches `u`, or the last index when
    /// none does: `partition_point(|c| c < u)` clamped to the table.
    #[inline]
    pub(crate) fn index(&self, u: f64) -> usize {
        let m = self.cdf.len();
        // The answer's `⌊cdf·m⌋` is at least `u`'s cell, so the cell's
        // first outcome is at or before it. `as` saturates: NaN and
        // negative draws land in cell 0.
        let mut i = self.guide[((u * m as f64) as usize).min(m)] as usize;
        while i < m - 1 && self.cdf[i] < u {
            i += 1;
        }
        i
    }

    /// Draw an index with the CDF's probabilities.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index(rng.random())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The binary search the guide table stands in for.
    fn searched(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }

    /// Every probe worth checking: each CDF value, its neighbours, the
    /// ends of the unit interval and the random draws.
    fn probes(cdf: &[f64], draws: &[f64]) -> Vec<f64> {
        let mut us = vec![0.0, -0.0, 1.0, f64::MIN_POSITIVE, 1.0f64.next_down()];
        for &c in cdf {
            us.extend([c, c.next_up(), c.next_down()]);
        }
        us.extend_from_slice(draws);
        us
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_guide_table_finds_what_partition_point_finds(
            weights in prop::collection::vec(0.0f64..1.0, 1..300),
            zeros in prop::collection::vec(0usize..300, 0..20),
            draws in prop::collection::vec(0.0f64..1.0, 0..64),
        ) {
            let mut weights = weights;
            let n = weights.len();
            // Zero weights make flat runs in the CDF.
            for z in zeros {
                weights[z % n] = 0.0;
            }
            let total: f64 = weights.iter().sum();
            let normalised: Vec<f64> = weights.iter().map(|w| w / total.max(1e-300)).collect();
            for ws in [&weights, &normalised] {
                let table = CdfTable::from_weights(ws.iter().copied());
                // The uncapped running sums the callers used to search.
                let mut acc = 0.0;
                let mut uncapped: Vec<f64> = ws.iter().map(|w| { acc += w; acc }).collect();
                *uncapped.last_mut().unwrap() = 1.0;
                for u in probes(&table.cdf, &draws) {
                    prop_assert_eq!(table.index(u), searched(&table.cdf, u), "u = {}", u);
                    if (0.0..=1.0).contains(&u) {
                        prop_assert_eq!(table.index(u), searched(&uncapped, u), "u = {}", u);
                    }
                }
            }
        }
    }

    #[test]
    fn a_single_outcome_always_wins() {
        let table = CdfTable::from_weights([0.3]);
        for u in [0.0, 0.5, 1.0, 2.0, -1.0, f64::NAN] {
            assert_eq!(table.index(u), 0, "u = {u}");
        }
    }

    #[test]
    fn sums_past_one_are_capped_and_keep_their_answers() {
        // 0.6 + 0.6 passes 1 before the last outcome.
        let table = CdfTable::from_weights([0.6, 0.6, 0.1]);
        assert_eq!(table.cdf, vec![0.6, 1.0, 1.0]);
        assert_eq!(table.index(0.6), 0);
        assert_eq!(table.index(0.61), 1);
        assert_eq!(table.index(1.0), 1);
        assert_eq!(table.index(1.5), 2, "past the CDF clamps to the last");
    }
}
