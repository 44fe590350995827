//! Property tests of the streaming-histogram metrics mode: on random
//! workloads the histogram's quantiles stay within the documented relative
//! error bound of the exact sorted quantiles, and an engine run in
//! histogram mode reports the same exact scalar statistics (count, mean,
//! max) as the same run in exact mode.

use proptest::prelude::*;
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::SimConfig;
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::{MetricsMode, ResponseStats, StreamingHistogram};
use spindown_workload::{FileCatalog, Trace};

const QS: [f64; 9] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];

/// Absolute slack for samples at the histogram's ≈1 ns resolution floor.
const FLOOR: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    // The documented contract: every quantile of the histogram is within
    // RELATIVE_ERROR_BOUND (relative) of the exact nearest-rank quantile,
    // for arbitrary sample sets spanning the whole dynamic range the
    // simulator produces (sub-millisecond cache hits to multi-hour waits).
    #[test]
    fn histogram_quantiles_within_relative_error_of_exact(
        samples in prop::collection::vec(0.0f64..100_000.0, 1..400),
        scale_exp in 0u32..7,
    ) {
        // Spread the decade coverage: scale by 10^-scale_exp so some cases
        // exercise the fine-grained sub-second buckets.
        let scale = 10f64.powi(-(scale_exp as i32));
        let mut exact = ResponseStats::exact();
        let mut hist = ResponseStats::histogram();
        for &s in &samples {
            exact.record(s * scale);
            hist.record(s * scale);
        }
        // The scalar statistics are exact, not approximate. (Compared
        // before any quantile call: exact-mode quantiles sort the sample
        // vector in place, which changes the float summation order.)
        prop_assert_eq!(exact.len(), hist.len());
        prop_assert_eq!(exact.mean(), hist.mean());
        prop_assert_eq!(exact.max(), hist.max());
        let bound = hist.quantile_error_bound();
        prop_assert!(bound > 0.0 && bound <= 1.0 / 256.0 + 1e-15);
        for q in QS {
            let e = exact.quantile(q);
            let h = hist.quantile(q);
            prop_assert!(
                (h - e).abs() <= bound * e + FLOOR,
                "q={}: histogram {} vs exact {} (bound {})", q, h, e, bound
            );
        }
    }

    // Memory is the octaves the samples span, however many stream
    // through: 128 buckets for each octave from the min's to the max's.
    #[test]
    fn histogram_memory_is_independent_of_sample_count(
        samples in prop::collection::vec(0.0f64..1.0e6, 1..400),
    ) {
        let mut h = StreamingHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let octaves = (octave(h.max()) - octave(h.min()) + 1) as usize;
        prop_assert!(
            h.buckets() <= SUB * octaves,
            "{} buckets for {} octaves", h.buckets(), octaves
        );
        prop_assert!(h.buckets() <= StreamingHistogram::max_buckets());
    }

    // Response times between 1 ms and 1000 s span the 20 octaves
    // 2⁻¹⁰..2⁹, whatever their distribution.
    #[test]
    fn millisecond_to_kilosecond_samples_hold_twenty_octaves(
        exps in prop::collection::vec(-3.0f64..=3.0, 1..2000),
    ) {
        let mut h = StreamingHistogram::new();
        for &e in &exps {
            h.record(10f64.powf(e).clamp(1e-3, 1e3));
        }
        prop_assert!(h.buckets() <= 20 * SUB, "{} buckets", h.buckets());
    }

    // A dense reference model — one count per bucket of the whole layout —
    // agrees with the stored-range histogram on every answer, through any
    // mix of records, merges and clears.
    #[test]
    fn histogram_matches_a_dense_reference_model(
        ops in prop::collection::vec(op(), 0..300),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let mut hists: Vec<StreamingHistogram> = (0..HISTS).map(|_| StreamingHistogram::new()).collect();
        let mut models: Vec<Dense> = (0..HISTS).map(|_| Dense::new()).collect();
        // The same operations with every clear replaced by a fresh
        // histogram: same multiset and summation order, no stored range
        // left over from before a clear.
        let mut fresh: Vec<StreamingHistogram> = hists.clone();
        // The nonzero-bucket sample extremes each histogram has ever held.
        let mut hull: Vec<Option<(f64, f64)>> = vec![None; HISTS];
        for op in ops {
            match op {
                Op::Record(i, v) => {
                    hists[i].record(v);
                    fresh[i].record(v);
                    models[i].record(v);
                    widen(&mut hull[i], v);
                }
                Op::Merge(i, j) if i != j => {
                    let (src, src_fresh, src_model) = (hists[j].clone(), fresh[j].clone(), models[j].clone());
                    hists[i].merge(&src);
                    fresh[i].merge(&src_fresh);
                    models[i].merge(&src_model);
                    if let Some((lo, hi)) = hull[j] {
                        widen(&mut hull[i], lo);
                        widen(&mut hull[i], hi);
                    }
                }
                Op::Merge(..) => {}
                Op::Clear(i, down, up) => {
                    hists[i].clear();
                    fresh[i] = StreamingHistogram::new();
                    models[i] = Dense::new();
                    // Below the lowest stored octave and above the highest.
                    if let Some((lo, hi)) = hull[i] {
                        for v in [lo / 2f64.powi(down as i32), (hi * 2f64.powi(up as i32)).min(1e300)] {
                            hists[i].record(v);
                            fresh[i].record(v);
                            models[i].record(v);
                            widen(&mut hull[i], v);
                        }
                    }
                }
            }
        }
        for i in 0..HISTS {
            let (h, m) = (&hists[i], &models[i]);
            prop_assert_eq!(h.len(), m.count);
            prop_assert_eq!(h.mean(), m.mean());
            prop_assert_eq!(h.min(), m.scalar(m.min));
            prop_assert_eq!(h.max(), m.scalar(m.max));
            let ks = (0..=100).map(|k| k as f64 / 100.0);
            for q in qs.iter().copied().chain(ks) {
                prop_assert_eq!(h.quantile(q), m.quantile(q), "hist {} q={}", i, q);
            }
            let mids = m.counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(b, _)| mid(b));
            let bounds = mids.flat_map(|x| [x.next_down(), x, x.next_up()]);
            for b in m.samples.iter().copied().chain(bounds) {
                prop_assert_eq!(h.fraction_within(b), m.fraction_within(b), "hist {} bound {}", i, b);
            }
            // Stored range: never outside the octaves ever held; exactly
            // the current samples' octaves without a clear behind it.
            let ever = hull[i].map_or(0, |(lo, hi)| octave(hi) - octave(lo) + 1) as usize;
            prop_assert!(h.buckets() % SUB == 0 && h.buckets() <= SUB * ever);
            prop_assert_eq!(fresh[i].buckets(), SUB * m.octaves());
            // History never shows in equality.
            prop_assert_eq!(h, &fresh[i]);
        }
    }
}

/// Layout of the histogram under test: 128 sub-buckets per octave, the
/// zero bucket at or below 2⁻³⁰ s, the top octave 2⁴⁰.
const SUB: usize = 128;
const MIN_EXP: i32 = -30;
const MAX_EXP: i32 = 40;
const BUCKETS: usize = 1 + (MAX_EXP - MIN_EXP + 1) as usize * SUB;
/// Histograms per dense-model case.
const HISTS: usize = 3;

/// Binary exponent of `v`, clamped into the resolved octaves.
fn octave(v: f64) -> i32 {
    ((v.to_bits() >> 52) as i32 - 1023).clamp(MIN_EXP, MAX_EXP)
}

/// Dense bucket index: 0 for the zero bucket, else the octave and the
/// sample's linear position in it.
fn dense_index(v: f64) -> usize {
    if v <= 2f64.powi(MIN_EXP) {
        return 0;
    }
    let e = (v.to_bits() >> 52) as i32 - 1023;
    if e > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((v / 2f64.powi(e) - 1.0) * SUB as f64) as usize;
    1 + (e - MIN_EXP) as usize * SUB + sub
}

/// Midpoint of dense bucket `b` (0 for the zero bucket).
fn mid(b: usize) -> f64 {
    if b == 0 {
        return 0.0;
    }
    let (o, sub) = ((b - 1) / SUB, (b - 1) % SUB);
    2f64.powi(MIN_EXP + o as i32) * (1.0 + (sub as f64 + 0.5) / SUB as f64)
}

fn widen(hull: &mut Option<(f64, f64)>, v: f64) {
    if dense_index(v) > 0 {
        let (lo, hi) = hull.unwrap_or((v, v));
        *hull = Some((lo.min(v), hi.max(v)));
    }
}

#[derive(Debug, Clone)]
enum Op {
    Record(usize, f64),
    Merge(usize, usize),
    /// Clear, then record the lowest value ever held scaled down by
    /// `2^down` and the highest scaled up by `2^up`.
    Clear(usize, u32, u32),
}

/// Log-uniform values over 2⁻³⁵…2⁴⁵, exact zeros, sub-nanosecond dust,
/// powers of two and the float just below each, and values past 2⁴⁰.
fn sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-35.0f64..45.0).prop_map(|e| 2f64.powf(e)),
        (-35.0f64..45.0).prop_map(|e| 2f64.powf(e)),
        Just(0.0),
        (0.0f64..=1.0).prop_map(|u| u * 2f64.powi(MIN_EXP)),
        Just(2f64.powi(MIN_EXP)),
        (0u32..81).prop_map(|e| 2f64.powi(e as i32 - 35)),
        (0u32..81).prop_map(|e| 2f64.powi(e as i32 - 35).next_down()),
        (40.0f64..60.0).prop_map(|e| 2f64.powf(e)),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let hist = 0..HISTS;
    prop_oneof![
        (hist.clone(), sample()).prop_map(|(i, v)| Op::Record(i, v)),
        (hist.clone(), sample()).prop_map(|(i, v)| Op::Record(i, v)),
        (hist.clone(), sample()).prop_map(|(i, v)| Op::Record(i, v)),
        (hist.clone(), sample()).prop_map(|(i, v)| Op::Record(i, v)),
        (hist.clone(), hist.clone()).prop_map(|(i, j)| Op::Merge(i, j)),
        (hist, 1u32..4, 1u32..4).prop_map(|(i, d, u)| Op::Clear(i, d, u)),
    ]
}

/// The reference: one count per bucket of the whole layout, and the
/// scalars kept the way the histogram keeps them.
#[derive(Debug, Clone)]
struct Dense {
    counts: Vec<u64>,
    samples: Vec<f64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Dense {
    fn new() -> Self {
        Dense {
            counts: vec![0; BUCKETS],
            samples: Vec::new(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    fn record(&mut self, v: f64) {
        self.counts[dense_index(v)] += 1;
        self.samples.push(v);
        self.extend(1, v, v, v);
    }

    fn merge(&mut self, other: &Dense) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.samples.extend_from_slice(&other.samples);
        self.extend(other.count, other.sum, other.min, other.max);
    }

    fn extend(&mut self, count: u64, sum: f64, min: f64, max: f64) {
        if self.count == 0 {
            (self.min, self.max) = (min, max);
        } else {
            (self.min, self.max) = (self.min.min(min), self.max.max(max));
        }
        self.count += count;
        self.sum += sum;
    }

    /// `v` when anything was recorded, else 0.
    fn scalar(&self, v: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            v
        }
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return mid(b).clamp(self.min, self.max);
            }
        }
        unreachable!("rank {rank} past {seen} samples")
    }

    fn fraction_within(&self, bound: f64) -> f64 {
        if self.count == 0 || bound >= self.max {
            return 1.0;
        }
        if bound < self.min {
            return 0.0;
        }
        let ok: u64 = (0..BUCKETS)
            .filter(|&b| mid(b) <= bound)
            .map(|b| self.counts[b])
            .sum();
        ok as f64 / self.count as f64
    }

    /// Octaves from the lowest counted bucket above the zero bucket to
    /// the highest (0 when there is none).
    fn octaves(&self) -> usize {
        let counted = |b: &usize| self.counts[*b] > 0;
        match ((1..BUCKETS).find(counted), (1..BUCKETS).rev().find(counted)) {
            (Some(lo), Some(hi)) => (hi - 1) / SUB - (lo - 1) / SUB + 1,
            _ => 0,
        }
    }
}

#[test]
fn a_millisecond_to_kilosecond_sweep_stores_twenty_octaves() {
    let mut h = StreamingHistogram::new();
    let mut v = 1e-3;
    while v <= 1e3 {
        h.record(v);
        v *= 1.001;
    }
    h.record(1e3);
    assert_eq!(h.buckets(), 20 * SUB);
}

/// One shared fixture for the engine-level mode comparison.
fn fixture() -> (FileCatalog, Trace, Assignment) {
    let catalog = FileCatalog::paper_table1(64, 0);
    let trace = Trace::poisson(&catalog, 2.0, 600.0, 4242);
    let mut bins: Vec<DiskBin> = (0..4).map(|_| DiskBin::default()).collect();
    for file in 0..catalog.len() {
        bins[file % 4].items.push(file);
    }
    (catalog, trace, Assignment { disks: bins })
}

#[test]
fn engine_histogram_mode_matches_exact_mode_scalars_and_tails() {
    let (catalog, trace, assignment) = fixture();
    let exact_cfg = SimConfig::paper_default();
    let hist_cfg = SimConfig::paper_default().with_metrics(MetricsMode::Histogram);
    let exact = Simulator::run(&catalog, &trace, &assignment, &exact_cfg).unwrap();
    let hist = Simulator::run(&catalog, &trace, &assignment, &hist_cfg).unwrap();

    // Identical simulation, different aggregation: count and max are
    // bit-identical. The histogram-mode global mean adds per-disk partial
    // sums, while the exact-mode mean sums the concatenated samples in one
    // pass, so the two agree only up to float-summation reordering.
    assert_eq!(exact.responses.len(), hist.responses.len());
    let (me, mh) = (exact.responses.mean(), hist.responses.mean());
    assert!(
        (me - mh).abs() <= 1e-12 * me.abs(),
        "mean {me} vs {mh} beyond summation-order slack"
    );
    assert_eq!(exact.responses.max(), hist.responses.max());
    assert_eq!(exact.energy.total_joules(), hist.energy.total_joules());
    assert_eq!(exact.spin_downs, hist.spin_downs);
    assert_eq!(hist.responses.mode(), MetricsMode::Histogram);

    // Quantiles agree to the documented bound.
    let bound = hist.responses.quantile_error_bound();
    for q in QS {
        let e = exact.response_quantile(q);
        let h = hist.response_quantile(q);
        assert!(
            (h - e).abs() <= bound * e + FLOOR,
            "q={q}: histogram {h} vs exact {e}"
        );
    }

    // Per-disk collectors follow the configured mode too.
    for d in 0..hist.disks {
        assert_eq!(hist.per_disk_responses[d].mode(), MetricsMode::Histogram);
        assert_eq!(
            hist.per_disk_responses[d].len(),
            exact.per_disk_responses[d].len()
        );
    }
}
