//! Merge-algebra property tests (tier-1): [`StreamingHistogram::merge`]
//! and [`ResponseStats::merge`] are the primitives the sharded replay's
//! report merge is built on, so they must behave like a commutative
//! monoid over sample multisets — merging any partition of a sample
//! stream, in any order and any grouping, reproduces the single-recorder
//! collector exactly.
//!
//! Samples are drawn **dyadic** (k/64 with k < 2²⁰) so every partial sum
//! is exact in an f64: count, sum (hence mean), min and max must then be
//! *bit*-equal however the samples are partitioned, turning the
//! order-independence claim into an exact equality rather than a
//! tolerance check.

use proptest::prelude::*;
use spindown::sim::metrics::{ResponseStats, StreamingHistogram};

/// Dyadic sample: exactly representable, with exactly representable sums
/// for any realistic count, so summation order cannot matter.
fn dyadic() -> impl Strategy<Value = f64> {
    (0u32..1 << 20).prop_map(|k| k as f64 / 64.0)
}

/// Dyadic sample `m·2^(e−20)` (m < 2¹⁰, e < 30), a quarter of them exact
/// zeros: sums of a few hundred stay exact, and the values spread over
/// enough octaves that clears and merges leave stored ranges that differ.
fn wide_dyadic() -> impl Strategy<Value = f64> {
    let scaled =
        || (0u32..30, 0u32..1 << 10).prop_map(|(e, m)| m as f64 * 2f64.powi(e as i32 - 20));
    prop_oneof![scaled(), scaled(), scaled(), Just(0.0)]
}

fn hist_of(samples: &[f64]) -> StreamingHistogram {
    let mut h = StreamingHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

fn stats_of(samples: &[f64], exact: bool) -> ResponseStats {
    let mut r = if exact {
        ResponseStats::exact()
    } else {
        ResponseStats::histogram()
    };
    for &s in samples {
        r.record(s);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Any partition of the stream, merged back in partition order, is the
    // bulk recorder — bit for bit, including the scalar sidecars.
    #[test]
    fn histogram_partition_merge_equals_bulk_recording(
        samples in prop::collection::vec(dyadic(), 0..300),
        cuts in prop::collection::vec(0usize..300, 0..6),
    ) {
        let bulk = hist_of(&samples);
        // Split at the (sorted, clamped) cut points.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (samples.len() + 1)).collect();
        bounds.push(0);
        bounds.push(samples.len());
        bounds.sort_unstable();
        let mut merged = StreamingHistogram::new();
        for w in bounds.windows(2) {
            merged.merge(&hist_of(&samples[w[0]..w[1]]));
        }
        prop_assert_eq!(&merged, &bulk);
        prop_assert_eq!(merged.len(), bulk.len());
        prop_assert_eq!(merged.mean(), bulk.mean());
        prop_assert_eq!(merged.min(), bulk.min());
        prop_assert_eq!(merged.max(), bulk.max());
        prop_assert_eq!(merged.buckets(), bulk.buckets());
    }

    // Commutativity: a ⊕ b == b ⊕ a.
    #[test]
    fn histogram_merge_commutes(
        a in prop::collection::vec(dyadic(), 0..200),
        b in prop::collection::vec(dyadic(), 0..200),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.mean(), ba.mean());
    }

    // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn histogram_merge_associates(
        a in prop::collection::vec(dyadic(), 0..150),
        b in prop::collection::vec(dyadic(), 0..150),
        c in prop::collection::vec(dyadic(), 0..150),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.mean(), right.mean());
    }

    // The empty histogram is the identity on either side.
    #[test]
    fn empty_histogram_is_the_merge_identity(
        samples in prop::collection::vec(dyadic(), 0..200),
    ) {
        let h = hist_of(&samples);
        let mut left = StreamingHistogram::new();
        left.merge(&h);
        let mut right = h.clone();
        right.merge(&StreamingHistogram::new());
        prop_assert_eq!(&left, &h);
        prop_assert_eq!(&right, &h);
        prop_assert_eq!(left.min(), h.min());
        prop_assert_eq!(left.max(), h.max());
    }

    // Clears and merges leave each histogram's stored range wider than
    // its samples need; equality sees only the samples. After any history
    // every histogram equals a fresh bulk recording of what it holds.
    #[test]
    fn history_never_shows_in_equality(
        ops in prop::collection::vec((0usize..3, 0usize..3, 0u32..8, wide_dyadic()), 0..300),
    ) {
        let mut hists: Vec<StreamingHistogram> = (0..3).map(|_| StreamingHistogram::new()).collect();
        let mut held: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for (i, j, kind, v) in ops {
            match kind {
                0 if i != j => {
                    let src = hists[j].clone();
                    hists[i].merge(&src);
                    let more = held[j].clone();
                    held[i].extend(more);
                }
                1 => {
                    hists[i].clear();
                    held[i].clear();
                }
                _ => {
                    hists[i].record(v);
                    held[i].push(v);
                }
            }
        }
        for (h, samples) in hists.iter().zip(&held) {
            let bulk = hist_of(samples);
            prop_assert_eq!(h, &bulk);
            prop_assert!(h.buckets() >= bulk.buckets());
            for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
                prop_assert_eq!(h.quantile(q), bulk.quantile(q));
            }
        }
    }

    // ResponseStats in both modes: partition merge ≡ bulk. Exact mode
    // concatenates samples, so quantiles over the merged collector equal
    // the bulk collector's; histogram mode inherits the bucket algebra.
    #[test]
    fn response_stats_partition_merge_equals_bulk(
        samples in prop::collection::vec(dyadic(), 1..250),
        cut in 0usize..250,
        exact in any::<bool>(),
    ) {
        let cut = cut % (samples.len() + 1);
        let bulk = stats_of(&samples, exact);
        let mut merged = stats_of(&samples[..cut], exact);
        merged.merge(&stats_of(&samples[cut..], exact));
        prop_assert_eq!(merged.len(), bulk.len());
        prop_assert_eq!(merged.mean(), bulk.mean());
        prop_assert_eq!(merged.max(), bulk.max());
        if !exact {
            // Histogram collectors compare bit-exactly as values.
            prop_assert_eq!(&merged, &bulk);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(
                merged.clone().quantile(q),
                bulk.clone().quantile(q),
                "q={}", q
            );
        }
    }

    // A histogram-mode collector absorbs an exact-mode one by re-recording
    // its samples — the upgrade path the merge uses when a shard ran in
    // exact mode but the global collector is a histogram.
    #[test]
    fn histogram_stats_absorb_exact_stats(
        a in prop::collection::vec(dyadic(), 0..200),
        b in prop::collection::vec(dyadic(), 0..200),
    ) {
        let mut merged = stats_of(&a, false);
        merged.merge(&stats_of(&b, true));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let bulk = stats_of(&all, false);
        prop_assert_eq!(&merged, &bulk);
        prop_assert_eq!(merged.mean(), bulk.mean());
    }
}
