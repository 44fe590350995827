//! Property-based tests for the workload generators and trace containers.

use proptest::prelude::*;
use spindown_workload::arrivals::PoissonProcess;
use spindown_workload::bins::SizeBins;
use spindown_workload::sizes::RankSizeModel;
use spindown_workload::trace::Request;
use spindown_workload::zipf::{generalized_harmonic, ZipfDistribution};
use spindown_workload::{FileCatalog, FileId, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zipf_pmf_always_sums_to_one(n in 1usize..2_000, a in 0.0f64..3.0) {
        let z = ZipfDistribution::new(n, a);
        let sum: f64 = z.probabilities().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zipf_pmf_is_monotone_nonincreasing(n in 2usize..500, a in 0.0f64..3.0) {
        let z = ZipfDistribution::new(n, a);
        for r in 1..n {
            prop_assert!(z.pmf(r) >= z.pmf(r + 1) - 1e-15);
        }
    }

    #[test]
    fn zipf_quantile_inverts_cdf(n in 1usize..300, a in 0.0f64..2.5, u in 0.0f64..1.0) {
        let z = ZipfDistribution::new(n, a);
        let rank = z.quantile(u);
        prop_assert!(rank >= 1 && rank <= n);
        // cdf(rank-1) < u <= cdf(rank), up to float wiggle at edges
        let cdf_at = |r: usize| -> f64 { (1..=r).map(|k| z.pmf(k)).sum() };
        if rank > 1 {
            prop_assert!(cdf_at(rank - 1) < u + 1e-9);
        }
    }

    #[test]
    fn harmonic_is_monotone_in_n(n in 1usize..500, a in 0.0f64..3.0) {
        prop_assert!(generalized_harmonic(n + 1, a) > generalized_harmonic(n, a));
    }

    #[test]
    fn rank_size_model_is_monotone_and_bounded(
        n in 1usize..2_000, min_mb in 1u64..100, extra in 0u64..10_000
    ) {
        let min = min_mb * 1_000_000;
        let max = min + extra * 1_000_000;
        let m = RankSizeModel::with_endpoints(n, min, max);
        let mut last = u64::MAX;
        for k in 1..=n {
            let s = m.size_of_rank(k);
            prop_assert!(s <= last);
            // rounding can undershoot min by at most 1 byte
            prop_assert!(s + 1 >= min && s <= max + 1);
            last = s;
        }
        prop_assert_eq!(m.size_of_rank(1), max);
    }

    #[test]
    fn poisson_arrivals_sorted_and_bounded(rate in 0.01f64..50.0, seed in any::<u64>()) {
        let mut p = PoissonProcess::new(rate, seed);
        let arrivals = p.arrivals_until(50.0);
        for w in arrivals.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &t in &arrivals {
            prop_assert!((0.0..50.0).contains(&t));
        }
    }

    #[test]
    fn trace_csv_roundtrip(raw in prop::collection::vec((0.0f64..1e4, 0u32..500), 0..100)) {
        let mut reqs: Vec<Request> = raw
            .into_iter()
            .map(|(time, f)| Request { time, file: FileId(f) })
            .collect();
        reqs.sort_by(|a, b| a.time.total_cmp(&b.time));
        let trace = Trace::new(reqs, 1e4);
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(std::io::Cursor::new(&buf), Some(1e4)).unwrap();
        prop_assert_eq!(back.len(), trace.len());
        for (a, b) in back.requests().iter().zip(trace.requests()) {
            prop_assert_eq!(a.file, b.file);
            prop_assert!((a.time - b.time).abs() < 1e-5);
        }
    }

    #[test]
    fn per_file_counts_partition_the_trace(
        raw in prop::collection::vec((0.0f64..100.0, 0u32..20), 0..200)
    ) {
        let mut reqs: Vec<Request> = raw
            .into_iter()
            .map(|(time, f)| Request { time, file: FileId(f) })
            .collect();
        reqs.sort_by(|a, b| a.time.total_cmp(&b.time));
        let trace = Trace::new(reqs, 100.0);
        let counts = trace.per_file_counts(20);
        prop_assert_eq!(counts.iter().sum::<u64>() as usize, trace.len());
    }

    #[test]
    fn size_bins_cover_every_sample(
        sizes in prop::collection::vec(1u64..1_000_000_000_000, 1..200),
        bins in 1usize..100
    ) {
        let mut b = SizeBins::new(bins, 1_000, 1_000_000_000_000);
        b.record_all(sizes.iter().copied());
        prop_assert_eq!(b.counts().iter().sum::<u64>() as usize, sizes.len());
        let props = b.proportions();
        let total: f64 = props.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn catalog_loads_scale_linearly_with_rate(rate in 0.01f64..10.0) {
        let catalog = FileCatalog::paper_table1(200, 0);
        let base = catalog.loads(1.0, |b| b as f64 / 72.0e6);
        let scaled = catalog.loads(rate, |b| b as f64 / 72.0e6);
        for (b, s) in base.iter().zip(&scaled) {
            prop_assert!((s - b * rate).abs() < 1e-12);
        }
    }
}
