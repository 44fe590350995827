//! Response-time statistics and the simulation report.
//!
//! Two aggregation modes ([`MetricsMode`]):
//!
//! - [`MetricsMode::Exact`] — every sample is kept in a vector; quantiles
//!   are nearest-rank over the sorted samples, bit-meaningful. Memory is
//!   O(requests), which is why the golden-trace fixture and the invariant
//!   tests run in this mode. The default.
//! - [`MetricsMode::Histogram`] — samples stream into a log-bucketed
//!   [`StreamingHistogram`] (HDR-style): O(1) record, O(buckets) memory
//!   independent of request count, quantiles within a documented relative
//!   error bound ([`StreamingHistogram::RELATIVE_ERROR_BOUND`], 1/256 ≈
//!   0.4 %). Mean, max, min and count stay exact (tracked as scalars).
//!   Only the octaves from the smallest sample's to the largest's are
//!   stored, 128 buckets each (at most 9 089 buckets): a collector of
//!   millisecond-to-minute response times holds 16 octaves.
//!   This is what lets a sweep grid or a multi-billion-request replay run
//!   without holding one response vector per cell.
//!
//! ## NaN-safety and the empty-recorder path
//!
//! These edge cases are handled once, here, for both modes:
//!
//! - [`ResponseStats::record`] rejects non-finite and negative samples with
//!   a panic, so no NaN can ever enter a collector — the `total_cmp` sort
//!   in exact mode is a deterministic total order over what remains.
//! - An empty collector reports `mean() == 0`, `max() == 0`,
//!   `quantile(q) == 0` for every `q`, and `fraction_within(b) == 1`
//!   (an empty workload vacuously meets any deadline).
//! - [`ResponseStats::quantile`] panics for `q` outside `[0, 1]`.

use spindown_disk::energy::EnergyBreakdown;

use crate::cache::CacheStats;
use crate::complog::CompletionLogSummary;

/// How response-time samples are aggregated (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// Keep every sample; nearest-rank quantiles are bit-meaningful.
    /// O(requests) memory. The default (the paper's evaluation mode).
    #[default]
    Exact,
    /// Stream samples into a log-bucketed histogram; quantiles carry a
    /// bounded relative error, memory is O(buckets) independent of the
    /// request count.
    Histogram,
}

/// Number of mantissa bits per octave: 2^7 = 128 linear sub-buckets, so a
/// bucket spans at most `lo/128` and the midpoint representative is within
/// `1/256` of any sample in the bucket.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Smallest resolvable exponent: samples at or below 2⁻³⁰ s (≈ 0.93 ns —
/// far below any physical service time) collapse into the zero bucket.
const MIN_EXP: i32 = -30;
/// Largest resolvable exponent: 2⁴⁰ s ≈ 35 000 years caps the top octave.
const MAX_EXP: i32 = 40;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Zero bucket + full octave range.
const MAX_BUCKETS: usize = 1 + OCTAVES * SUB;

/// A log-bucketed streaming histogram of non-negative `f64` samples
/// (HDR-histogram style): base-2 octaves split into 128 linear sub-buckets
/// each, giving a guaranteed relative quantile error of at most
/// [`Self::RELATIVE_ERROR_BOUND`] while recording in O(1) and holding
/// O(buckets) memory regardless of how many samples stream through.
///
/// Only whole octaves are stored, from the octave of the smallest sample
/// recorded to the octave of the largest (the dense store of DDSketch):
/// the array starts at bucket `base` and grows at either end an octave at
/// a time, so a histogram of response times between 1 ms and 1000 s holds
/// 20 octaves, not the 40 from the 2⁻³⁰ floor up. The zero bucket is a
/// scalar beside the array, so a 0 s sample does not stretch it down.
/// [`Self::clear`] keeps the array and its `base` for the next samples.
///
/// Count, sum (hence mean), min and max are tracked exactly as scalars;
/// only quantiles and [`Self::fraction_within`] are bucket-approximate.
#[derive(Debug, Clone, Default)]
pub struct StreamingHistogram {
    /// Counts of buckets `base..base + counts.len()`: whole octaves, so
    /// `base` is an octave's first bucket and the length a multiple of
    /// 128 (empty until the first nonzero-bucket sample).
    counts: Vec<u64>,
    /// Bucket index of `counts[0]`.
    base: usize,
    /// Samples in the zero bucket (0 and sub-nanosecond dust).
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl StreamingHistogram {
    /// Guaranteed bound on the relative error of [`Self::quantile`] for
    /// samples above the ≈1 ns resolution floor: half a sub-bucket width,
    /// `1/2⁸ = 1/256 ≈ 0.39 %`.
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / (2 * SUB) as f64;

    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a finite non-negative sample.
    fn bucket_index(v: f64) -> usize {
        if v <= 2f64.powi(MIN_EXP) {
            return 0; // zero bucket: 0 and sub-nanosecond dust
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp > MAX_EXP {
            return MAX_BUCKETS - 1;
        }
        // v > 2^MIN_EXP and v is normal here, so exp ∈ [MIN_EXP, MAX_EXP].
        let sub = ((bits >> (52 - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        1 + (exp - MIN_EXP) as usize * SUB + sub
    }

    /// Midpoint representative of bucket `i` (0 for the zero bucket).
    fn bucket_mid(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let octave = (i - 1) / SUB;
        let sub = (i - 1) % SUB;
        let base = 2f64.powi(MIN_EXP + octave as i32);
        let width = base / SUB as f64;
        base + sub as f64 * width + width / 2.0
    }

    /// Record one sample in O(1).
    pub fn record(&mut self, v: f64) {
        debug_assert!(v.is_finite() && v >= 0.0, "bad sample {v}");
        let idx = Self::bucket_index(v);
        // The zero bucket (index 0) is below any `base`, so it wraps past
        // the stored length and takes the cold path too.
        match self.counts.get_mut(idx.wrapping_sub(self.base)) {
            Some(c) => *c += 1,
            None => self.record_outside(idx),
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Count a sample whose bucket is not stored: the zero bucket, or one
    /// the array grows to cover.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, idx: usize) {
        if idx == 0 {
            self.zero += 1;
        } else {
            self.cover(idx, idx);
            self.counts[idx - self.base] += 1;
        }
    }

    /// Grow the stored range by whole octaves to cover buckets `lo..=hi`
    /// (both above the zero bucket), in one exact-size allocation.
    fn cover(&mut self, lo: usize, hi: usize) {
        let octave_start = |i: usize| 1 + (i - 1) / SUB * SUB;
        let (lo, end) = (octave_start(lo), octave_start(hi) + SUB);
        let (old_lo, old_end) = if self.counts.is_empty() {
            (lo, lo)
        } else {
            (self.base, self.base + self.counts.len())
        };
        let (new_lo, new_end) = (lo.min(old_lo), end.max(old_end));
        if (new_lo, new_end) == (old_lo, old_end) {
            return;
        }
        let mut grown = Vec::with_capacity(new_end - new_lo);
        grown.resize(old_lo - new_lo, 0);
        grown.extend_from_slice(&self.counts);
        grown.resize(new_end - new_lo, 0);
        self.counts = grown;
        self.base = new_lo;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Stored bucket count — the O(buckets) memory term: 128 per octave
    /// from the smallest sample's to the largest's, over every sample held
    /// since creation ([`Self::clear`] keeps the array). The zero bucket is
    /// a scalar and not counted. At most [`Self::max_buckets`].
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Hard cap on the bucket count, independent of sample count.
    pub const fn max_buckets() -> usize {
        MAX_BUCKETS
    }

    /// Nearest-rank `q`-quantile, approximated by the midpoint of the
    /// bucket holding the rank-th smallest sample and clamped into the
    /// exactly-tracked `[min, max]`. The result is within
    /// [`Self::RELATIVE_ERROR_BOUND`] (relative) of the exact nearest-rank
    /// quantile for samples above the resolution floor. 0 when empty.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.occupied() {
            seen += c;
            if seen >= rank {
                return Self::bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max // unreachable for consistent counts; be robust anyway
    }

    /// Fraction of samples whose bucket representative is ≤ `bound` — the
    /// CDF evaluated to bucket resolution (exact answers for `bound` below
    /// the minimum or at/above the maximum; 1.0 when empty).
    pub fn fraction_within(&self, bound: f64) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        if bound >= self.max {
            return 1.0;
        }
        if bound < self.min {
            return 0.0;
        }
        // Bucket midpoints rise with the index: stop at the first above.
        let ok: u64 = self
            .occupied()
            .take_while(|&(i, _)| Self::bucket_mid(i) <= bound)
            .map(|(_, c)| c)
            .sum();
        ok as f64 / self.count as f64
    }

    /// Exact sum of the recorded samples.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Replace the running sum. The window fold merges the
    /// order-insensitive parts (counts, min, max) in any order, then
    /// re-adds the per-disk sums in ascending global disk order and
    /// installs the result here.
    pub(crate) fn set_sum(&mut self, sum: f64) {
        self.sum = sum;
    }

    /// The buckets above the zero bucket that can hold samples, as the
    /// first one's index and their positions in `counts`; `None` when
    /// there are none. They run from the bucket of the exactly-tracked
    /// min to that of the max (the bucket index is monotone in the
    /// value), or from the first counted bucket when the min is in the
    /// zero bucket.
    fn spread(&self) -> Option<(usize, std::ops::Range<usize>)> {
        let hi = Self::bucket_index(self.max);
        if self.count == 0 || hi == 0 {
            return None;
        }
        let lo = match Self::bucket_index(self.min) {
            0 => self.base + self.counts.iter().position(|&c| c > 0)?,
            lo => lo,
        };
        Some((lo, lo - self.base..hi + 1 - self.base))
    }

    /// `(bucket index, count)` of every bucket that can hold samples, the
    /// zero bucket first, in ascending bucket order.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (lo, stored) = self.spread().unwrap_or((1, 0..0));
        let stored = self.counts[stored].iter().copied();
        std::iter::once((0, self.zero)).chain((lo..).zip(stored))
    }

    /// Empty the histogram, keeping the zeroed bucket array and its `base`
    /// for reuse.
    pub fn clear(&mut self) {
        if let Some((_, stored)) = self.spread() {
            self.counts[stored].fill(0);
        }
        self.zero = 0;
        self.count = 0;
        self.sum = 0.0;
        self.min = 0.0;
        self.max = 0.0;
    }

    /// Merge another histogram into this one (bucket-wise over the other's
    /// occupied range; all histograms share one static bucket layout).
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.count == 0 {
            return;
        }
        if let Some((lo, stored)) = other.spread() {
            let src = &other.counts[stored];
            self.cover(lo, lo + src.len() - 1);
            let at = lo - self.base;
            // Only the occupied range can hold counts: a sparse window
            // histogram merges in O(its spread), not O(its stored range).
            for (a, &b) in self.counts[at..at + src.len()].iter_mut().zip(src) {
                *a += b;
            }
        }
        self.zero += other.zero;
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

impl PartialEq for StreamingHistogram {
    fn eq(&self, other: &Self) -> bool {
        // Stored ranges may differ (growth and `clear` history): only the
        // buckets that can hold samples are compared.
        self.count == other.count
            && self.sum == other.sum
            && (self.count == 0
                || (self.min == other.min
                    && self.max == other.max
                    && self.occupied().eq(other.occupied())))
    }
}

/// Collects response times and summarises them, in either metrics mode.
#[derive(Debug, Clone, PartialEq)]
enum Agg {
    /// Every sample, with a cached-sort flag for quantiles.
    Exact { samples: Vec<f64>, sorted: bool },
    /// Streaming log-bucketed histogram.
    Hist(StreamingHistogram),
}

/// Collects response times and summarises them (see the module docs for
/// the two modes and the shared edge-case contract).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseStats {
    agg: Agg,
}

impl Default for ResponseStats {
    fn default() -> Self {
        Self::exact()
    }
}

impl ResponseStats {
    /// Empty exact-mode collector (back-compatible default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty exact-mode collector.
    pub fn exact() -> Self {
        ResponseStats {
            agg: Agg::Exact {
                samples: Vec::new(),
                sorted: false,
            },
        }
    }

    /// Empty histogram-mode collector.
    pub fn histogram() -> Self {
        ResponseStats {
            agg: Agg::Hist(StreamingHistogram::new()),
        }
    }

    /// Empty collector in the given mode.
    pub fn with_mode(mode: MetricsMode) -> Self {
        match mode {
            MetricsMode::Exact => Self::exact(),
            MetricsMode::Histogram => Self::histogram(),
        }
    }

    /// The mode this collector aggregates in.
    pub fn mode(&self) -> MetricsMode {
        match self.agg {
            Agg::Exact { .. } => MetricsMode::Exact,
            Agg::Hist(_) => MetricsMode::Histogram,
        }
    }

    /// Relative error bound of [`Self::quantile`]: 0 in exact mode,
    /// [`StreamingHistogram::RELATIVE_ERROR_BOUND`] in histogram mode.
    pub fn quantile_error_bound(&self) -> f64 {
        match self.agg {
            Agg::Exact { .. } => 0.0,
            Agg::Hist(_) => StreamingHistogram::RELATIVE_ERROR_BOUND,
        }
    }

    /// Record one response time (seconds). O(1) amortised in both modes.
    ///
    /// # Panics
    /// If the sample is negative or not finite — NaN can never enter a
    /// collector (this is the single NaN gate for every statistic below).
    pub fn record(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "bad sample {seconds}"
        );
        match &mut self.agg {
            Agg::Exact { samples, sorted } => {
                samples.push(seconds);
                *sorted = false;
            }
            Agg::Hist(h) => h.record(seconds),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        match &self.agg {
            Agg::Exact { samples, .. } => samples.len(),
            Agg::Hist(h) => h.len() as usize,
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arithmetic mean — exact in both modes (0 when empty).
    pub fn mean(&self) -> f64 {
        match &self.agg {
            Agg::Exact { samples, .. } => {
                if samples.is_empty() {
                    0.0
                } else {
                    samples.iter().sum::<f64>() / samples.len() as f64
                }
            }
            Agg::Hist(h) => h.mean(),
        }
    }

    /// Maximum — exact in both modes (0 when empty).
    pub fn max(&self) -> f64 {
        match &self.agg {
            Agg::Exact { samples, .. } => samples.iter().copied().fold(0.0, f64::max),
            Agg::Hist(h) => h.max(),
        }
    }

    /// `q`-quantile with nearest-rank semantics, `q ∈ [0, 1]` (0 when
    /// empty). Exact mode sorts once and caches until the next `record`;
    /// histogram mode needs no sort and answers within
    /// [`Self::quantile_error_bound`].
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        match &mut self.agg {
            Agg::Exact { samples, sorted } => {
                if samples.is_empty() {
                    return 0.0;
                }
                if !*sorted {
                    samples.sort_by(|a, b| a.total_cmp(b));
                    *sorted = true;
                }
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                samples[rank - 1]
            }
            Agg::Hist(h) => h.quantile(q),
        }
    }

    /// 95th percentile — the tail metric the queue-discipline work targets.
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Fraction of samples at or below `bound` seconds (1.0 when empty —
    /// an empty workload vacuously meets any deadline). Exact in exact
    /// mode, bucket-resolution in histogram mode.
    pub fn fraction_within(&self, bound: f64) -> f64 {
        match &self.agg {
            Agg::Exact { samples, .. } => {
                if samples.is_empty() {
                    return 1.0;
                }
                let ok = samples.iter().filter(|&&s| s <= bound).count();
                ok as f64 / samples.len() as f64
            }
            Agg::Hist(h) => h.fraction_within(bound),
        }
    }

    /// Exact-mode collector over `samples`, kept in the given order.
    pub(crate) fn from_samples(samples: Vec<f64>) -> Self {
        ResponseStats {
            agg: Agg::Exact {
                samples,
                sorted: false,
            },
        }
    }

    /// Histogram-mode collector over `h`.
    pub(crate) fn from_histogram(h: StreamingHistogram) -> Self {
        ResponseStats { agg: Agg::Hist(h) }
    }

    /// Empty the collector, keeping its allocation for reuse.
    pub(crate) fn clear(&mut self) {
        match &mut self.agg {
            Agg::Exact { samples, sorted } => {
                samples.clear();
                *sorted = false;
            }
            Agg::Hist(h) => h.clear(),
        }
    }

    /// The histogram behind a histogram-mode collector (`None` in exact
    /// mode).
    pub(crate) fn histogram_mut(&mut self) -> Option<&mut StreamingHistogram> {
        match &mut self.agg {
            Agg::Hist(h) => Some(h),
            Agg::Exact { .. } => None,
        }
    }

    /// Move the samples out of an exact-mode collector in recording
    /// order, leaving it empty (empty in histogram mode).
    pub(crate) fn take_samples(&mut self) -> Vec<f64> {
        match &mut self.agg {
            Agg::Exact { samples, sorted } => {
                *sorted = false;
                std::mem::take(samples)
            }
            Agg::Hist(_) => Vec::new(),
        }
    }

    /// Merge another collector into this one. Histogram⇐histogram merges
    /// bucket-wise; exact⇐exact concatenates; histogram⇐exact re-records
    /// the samples (lossy, by design). Merging a histogram *into* an exact
    /// collector is impossible (samples are gone) and panics.
    pub fn merge(&mut self, other: &ResponseStats) {
        match (&mut self.agg, &other.agg) {
            (Agg::Exact { samples, sorted }, Agg::Exact { samples: o, .. }) => {
                samples.extend_from_slice(o);
                *sorted = false;
            }
            (Agg::Hist(h), Agg::Hist(o)) => h.merge(o),
            (Agg::Hist(h), Agg::Exact { samples, .. }) => {
                for &s in samples {
                    h.record(s);
                }
            }
            (Agg::Exact { .. }, Agg::Hist(_)) => {
                panic!("cannot merge a histogram into an exact collector")
            }
        }
    }
}

/// Availability accounting for a fault-injected run (carried on
/// [`SimReport::availability`]; `None` when the run had no fault plan, so
/// no-fault reports are untouched).
///
/// Counters obey the conservation invariant
/// `arrivals == completed + shed + failed + in_flight`: every arriving
/// request is eventually served, shed at admission, or dropped after its
/// retry budget is exhausted — or is still queued/backed-off when the
/// horizon closes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AvailabilityStats {
    /// Requests that arrived (mapped to a simulated disk), including
    /// cache hits.
    pub arrivals: u64,
    /// Requests that completed service (cache hits included).
    pub completed: u64,
    /// Retry attempts performed (transient-error re-queues; a request
    /// retried three times counts three).
    pub retried: u64,
    /// Requests shed at admission by the backlog watermark.
    pub shed: u64,
    /// Requests dropped after exhausting their retry budget.
    pub failed: u64,
    /// Spin-up attempts that failed (the disk fell back asleep and the
    /// wake was retried after backoff).
    pub wake_failures: u64,
    /// Fail-stop crashes applied (scheduled crashes plus wake-failure
    /// escalations past the retry budget).
    pub crashes: u64,
    /// Requests still queued or awaiting a retry when the run closed.
    pub in_flight: u64,
    /// Seconds each disk spent offline (crashed, pre-repair), disk order.
    pub per_disk_downtime_s: Vec<f64>,
    /// Fleet availability fraction:
    /// `1 − Σ downtime / (disks · sim_time)`. 1.0 for a zero-length run.
    pub availability: f64,
    /// Response times of *degraded* completions only: requests that were
    /// retried, served in a fail-slow window, or arrived while their disk
    /// was down/repairing. Aggregated per `SimConfig::metrics`, merged
    /// from the per-disk collectors in ascending disk order, so it is
    /// bit-identical at every shard count.
    pub degraded: ResponseStats,
}

impl AvailabilityStats {
    /// True when the conservation invariant holds.
    pub fn conservation_holds(&self) -> bool {
        self.arrivals == self.completed + self.shed + self.failed + self.in_flight
    }

    /// Total downtime summed over the fleet, seconds.
    pub fn total_downtime_s(&self) -> f64 {
        self.per_disk_downtime_s.iter().sum()
    }

    /// 95th percentile of the degraded-mode response distribution (0 when
    /// no completion was degraded).
    pub fn degraded_p95(&self) -> f64 {
        self.degraded.clone().quantile(0.95)
    }

    /// Recompute the availability fraction from the per-disk downtimes
    /// and the run's dimensions.
    pub fn recompute_availability(&mut self, disks: usize, sim_time_s: f64) {
        let span = disks as f64 * sim_time_s;
        self.availability = if span > 0.0 {
            (1.0 - self.total_downtime_s() / span).max(0.0)
        } else {
            1.0
        };
    }
}

/// One served request, for the optional completion log
/// (`SimConfig::with_completion_log`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Index into the trace.
    pub req: usize,
    /// Disk that served it.
    pub disk: usize,
    /// Completion time, seconds.
    pub time_s: f64,
}

/// Everything a simulation run produces.
///
/// ## Sharded merges: exact fields vs bounds
///
/// This is the one place that catalogues how each field behaves when a
/// `--shards N` run merges. Engines hand back per-disk values and
/// counters, and the driver folds them once, so one shard runs the same
/// fold (the per-field docs repeat the detail):
///
/// - **Exact (bit-identical at every shard count):** `sim_time_s`,
///   `energy` and `per_disk_energy` (summed in ascending global-disk
///   order), `responses` (merged from the per-disk collectors in
///   ascending disk order in both metrics modes), `per_disk_responses`,
///   `completions` / `completion_log` (canonical `(time, req)` order),
///   `spin_downs`/`spin_ups`, `cache`/`cache_tiers` (read off the one
///   hierarchy the reader walks in stream order), `per_disk_served`,
///   `peak_disk_queue` (per-disk trajectories are shard-invariant, so
///   the cross-shard max is the unsharded value), `availability`
///   (counters summed; downtimes and the `degraded` collector folded in
///   ascending global-disk order; the fraction computed once over the
///   fleet), `windows` (each closed window's per-shard partials folded
///   in ascending global-disk order, the fold the unsharded engine
///   applies to its own partial).
/// - **Per-shard observations (no single-run equivalent):**
///   `per_shard_event_peaks` — each shard's own heap peak. The sum is a
///   deterministic upper bound on the unsharded peak; the max is the
///   tightest per-thread bound. Exposed raw so callers pick the
///   aggregation ([`Self::peak_event_queue_max`] /
///   [`Self::peak_event_queue_sum`]).
/// - **Bound, not exact:** `CompletionLogSummary::peak_buffered` sums the
///   writers' and merger's peaks, which need not coincide in time.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Wall-clock span of the simulation (≥ trace horizon), seconds.
    pub sim_time_s: f64,
    /// Fleet-aggregate energy.
    pub energy: EnergyBreakdown,
    /// Per-disk energy, in disk order.
    pub per_disk_energy: Vec<EnergyBreakdown>,
    /// Response-time samples for requests served by disks *and* the cache,
    /// aggregated per `SimConfig::metrics`, derived at finish by merging
    /// the per-disk collectors in ascending disk order — a canonical
    /// order that makes the global statistics bit-identical at every
    /// shard count in both metrics modes.
    pub responses: ResponseStats,
    /// Response-time samples per disk, in disk order. Cache hits are
    /// recorded against the disk holding the file, which is what keeps
    /// the merged global statistics shard-invariant.
    pub per_disk_responses: Vec<ResponseStats>,
    /// Per-request completion log records, when
    /// `SimConfig::completion_log` is [`CompletionLogMode::Memory`]
    /// (`None` in the streamed CSV/digest modes — see `completion_log`).
    /// Canonical `(completion time, request ordinal)` order, identical at
    /// every shard count.
    ///
    /// [`CompletionLogMode::Memory`]: crate::complog::CompletionLogMode
    pub completions: Option<Vec<Completion>>,
    /// Counters and FNV-1a digest over the canonical completion stream,
    /// present whenever `SimConfig::completion_log` is not `Off`. Two
    /// runs wrote byte-identical logs iff these summaries match.
    pub completion_log: Option<CompletionLogSummary>,
    /// Total completed spin-down transitions across the fleet.
    pub spin_downs: u64,
    /// Total completed spin-up transitions across the fleet.
    pub spin_ups: u64,
    /// Cache statistics, when a cache was configured. For a multi-tier
    /// hierarchy this is the aggregate view (hits summed over tiers,
    /// misses = requests missing *every* tier, so `hits + misses` still
    /// counts every probed request); for the legacy flat LRU it is exactly
    /// that cache's counters.
    pub cache: Option<CacheStats>,
    /// Per-tier cache statistics, shallowest tier first, when a cache was
    /// configured (a single row for the legacy flat LRU). Oversize
    /// rejections are counted per tier — a file can fit the SSD tier while
    /// exceeding the DRAM tier. One hierarchy serves the whole stream in
    /// arrival order, so the rows are bit-identical at every shard count.
    pub cache_tiers: Option<Vec<CacheStats>>,
    /// Number of disks simulated (fleet size).
    pub disks: usize,
    /// Requests served per disk, in disk order (excludes cache hits).
    pub per_disk_served: Vec<u64>,
    /// Per-shard peaks of the event heap, in shard order (one entry for
    /// an unsharded run). Each entry is that shard's largest number of
    /// simultaneously pending events — O(shard disks), since arrivals
    /// never enter the heap. Kept raw rather than
    /// pre-aggregated: [`Self::peak_event_queue_max`] is the tightest
    /// per-thread bound (what the O(disks) invariants check), while
    /// [`Self::peak_event_queue_sum`] is a deterministic upper bound on
    /// the unsharded heap peak (the shards' heaps together never hold
    /// more than the one heap would).
    pub per_shard_event_peaks: Vec<usize>,
    /// Largest number of requests simultaneously pending in any one disk's
    /// queue. Together with the event-heap peaks and the histogram bucket
    /// cap this bounds the engine's per-request resident state: a streamed
    /// replay holds O(disks + buckets + peak backlog), where the backlog is
    /// a property of the workload's utilisation, not of the request count.
    /// Sharding does not change this value: each disk's queue trajectory is
    /// identical at every shard count, so the merged report takes the
    /// cross-shard **max** (never a sum), which equals the unsharded peak
    /// exactly.
    pub peak_disk_queue: usize,
    /// Availability accounting, present iff the run had a fault plan
    /// (`SimConfig::faults`); `None` on every no-fault run.
    pub availability: Option<AvailabilityStats>,
    /// Windowed time-series metrics (see [`crate::windows`]), present iff
    /// `SimConfig::windows` set a tumbling window width; `None` on every
    /// windows-off run. The derived rows (and the per-disk
    /// collectors they fold) are bit-identical at every shard count.
    pub windows: Option<crate::windows::WindowedReport>,
}

impl SimReport {
    /// Largest per-shard event-heap peak — the tightest per-thread bound
    /// (equals the unsharded peak when `shards == 1`).
    pub fn peak_event_queue_max(&self) -> usize {
        self.per_shard_event_peaks
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Sum of the per-shard event-heap peaks — a deterministic upper
    /// bound on what one unsharded heap would have peaked at.
    pub fn peak_event_queue_sum(&self) -> usize {
        self.per_shard_event_peaks.iter().sum()
    }

    /// Mean electrical power over the run, watts (whole fleet).
    pub fn mean_power_w(&self) -> f64 {
        if self.sim_time_s > 0.0 {
            self.energy.total_joules() / self.sim_time_s
        } else {
            0.0
        }
    }

    /// `q`-quantile of the global response distribution without requiring
    /// a mutable report — the test/reporting accessor that replaces the
    /// `report.responses.clone()` + sort pattern. Clones the collector
    /// once (O(n) in exact mode, O(buckets) in histogram mode); batch
    /// several quantiles through [`Self::response_quantiles`].
    pub fn response_quantile(&self, q: f64) -> f64 {
        self.responses.clone().quantile(q)
    }

    /// Several quantiles of the global response distribution from one
    /// clone (and, in exact mode, one sort).
    pub fn response_quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let mut stats = self.responses.clone();
        qs.iter().map(|&q| stats.quantile(q)).collect()
    }

    /// 95th percentile of the global response distribution.
    pub fn response_p95(&self) -> f64 {
        self.response_quantile(0.95)
    }

    /// Power-saving fraction of this run against a reference energy:
    /// `1 − E_this/E_ref`.
    pub fn saving_vs(&self, reference_joules: f64) -> f64 {
        if reference_joules <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy.total_joules() / reference_joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut r = ResponseStats::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            r.record(v);
        }
        assert_eq!(r.quantile(0.0), 1.0);
        assert_eq!(r.quantile(0.5), 3.0);
        assert_eq!(r.quantile(0.8), 4.0);
        assert_eq!(r.quantile(1.0), 5.0);
        assert_eq!(r.max(), 5.0);
        assert!((r.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn p95_p99_are_nearest_rank_tail_quantiles() {
        let mut r = ResponseStats::new();
        for v in 1..=100 {
            r.record(v as f64);
        }
        assert_eq!(r.p95(), 95.0);
        assert_eq!(r.p99(), 99.0);
        assert_eq!(r.quantile(1.0), 100.0);
    }

    /// The single empty-recorder contract, checked for both modes: zero
    /// statistics, vacuous deadline, zero quantiles at every rank.
    #[test]
    fn empty_stats_are_zeroes_in_both_modes() {
        for mode in [MetricsMode::Exact, MetricsMode::Histogram] {
            let mut r = ResponseStats::with_mode(mode);
            assert!(r.is_empty());
            assert_eq!(r.len(), 0);
            assert_eq!(r.mean(), 0.0, "{mode:?}");
            assert_eq!(r.quantile(0.5), 0.0, "{mode:?}");
            assert_eq!(r.max(), 0.0, "{mode:?}");
            assert_eq!(r.quantile(0.0), 0.0, "{mode:?}");
            assert_eq!(r.quantile(1.0), 0.0, "{mode:?}");
            assert_eq!(r.fraction_within(1.0), 1.0, "{mode:?}");
        }
    }

    #[test]
    fn fraction_within_bound() {
        let mut r = ResponseStats::new();
        for v in [1.0, 2.0, 10.0, 20.0] {
            r.record(v);
        }
        assert!((r.fraction_within(10.0) - 0.75).abs() < 1e-12);
        let _ = r.quantile(0.5);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = ResponseStats::new();
        a.record(1.0);
        let mut b = ResponseStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    /// NaN, infinity and negatives are rejected at the single `record`
    /// gate, in both modes — nothing downstream ever sees them.
    #[test]
    fn bad_samples_rejected_in_both_modes() {
        for mode in [MetricsMode::Exact, MetricsMode::Histogram] {
            for bad in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let result = std::panic::catch_unwind(move || {
                    let mut r = ResponseStats::with_mode(mode);
                    r.record(bad);
                });
                assert!(result.is_err(), "{mode:?} accepted {bad}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad sample")]
    fn negative_sample_rejected() {
        ResponseStats::new().record(-0.1);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_out_of_range_rejected() {
        ResponseStats::new().quantile(1.5);
    }

    #[test]
    fn record_after_quantile_resorts() {
        let mut r = ResponseStats::new();
        r.record(5.0);
        r.record(1.0);
        assert_eq!(r.quantile(0.5), 1.0);
        r.record(0.5);
        assert_eq!(r.quantile(0.0), 0.5, "sort flag must reset on record");
    }

    #[test]
    fn histogram_mode_tracks_exact_scalars() {
        let mut r = ResponseStats::histogram();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            r.record(v);
        }
        assert_eq!(r.mode(), MetricsMode::Histogram);
        assert_eq!(r.len(), 5);
        assert!((r.mean() - 3.0).abs() < 1e-12, "mean is exact");
        assert_eq!(r.max(), 5.0, "max is exact");
    }

    #[test]
    fn histogram_quantiles_within_documented_bound() {
        let mut h = ResponseStats::histogram();
        let mut x = ResponseStats::exact();
        // A decade-spanning deterministic sample set.
        let mut v = 0.001;
        while v < 5_000.0 {
            h.record(v);
            x.record(v);
            v *= 1.003;
        }
        let bound = h.quantile_error_bound();
        assert!(bound > 0.0 && bound <= 1.0 / 256.0 + 1e-15);
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let approx = h.quantile(q);
            let exact = x.quantile(q);
            assert!(
                (approx - exact).abs() <= bound * exact + 1e-12,
                "q={q}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(x.quantile_error_bound(), 0.0);
    }

    #[test]
    fn histogram_memory_is_bucket_bound() {
        let mut h = StreamingHistogram::new();
        for i in 0..100_000u64 {
            h.record((i % 977) as f64 * 0.01 + 1e-6);
        }
        assert_eq!(h.len(), 100_000);
        assert!(h.buckets() <= StreamingHistogram::max_buckets());
        assert!(
            StreamingHistogram::max_buckets() < 10_000,
            "bucket cap stays small: {}",
            StreamingHistogram::max_buckets()
        );
    }

    #[test]
    fn histogram_zero_bucket_and_clamping() {
        let mut h = StreamingHistogram::new();
        h.record(0.0);
        h.record(1e-12); // below the resolution floor → zero bucket
        h.record(2.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.quantile(0.0), 0.0);
        // quantile(1.0) clamps to the exactly-tracked max.
        assert!(h.quantile(1.0) <= 2.0 + 1e-12);
        assert!((h.quantile(1.0) - 2.0).abs() <= 2.0 / 256.0);
    }

    #[test]
    fn histogram_merge_matches_bulk_recording() {
        let mut a = ResponseStats::histogram();
        let mut b = ResponseStats::histogram();
        let mut all = ResponseStats::histogram();
        for i in 0..500 {
            let v = 0.01 * (i as f64 + 1.0);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        // Bucket counts and the exact min/max agree with bulk recording, so
        // every quantile lands in the same bucket; the running sum may
        // differ in the last ulps (float addition is order-dependent), so
        // mean is compared with a tolerance rather than bit-exactly.
        assert_eq!(a.len(), 500);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
        assert_eq!(a.max(), all.max());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
    }

    #[test]
    fn histogram_absorbs_exact_on_merge() {
        let mut h = ResponseStats::histogram();
        let mut e = ResponseStats::exact();
        e.record(1.0);
        e.record(2.0);
        h.merge(&e);
        assert_eq!(h.len(), 2);
        assert!((h.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot merge a histogram into an exact collector")]
    fn exact_cannot_absorb_histogram() {
        let mut e = ResponseStats::exact();
        let mut h = ResponseStats::histogram();
        h.record(1.0);
        e.merge(&h);
    }

    #[test]
    fn histogram_equality_ignores_trailing_bucket_growth() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        a.record(1.0);
        a.record(1000.0); // grows the bucket vector
        b.record(1.0);
        b.record(1000.0);
        assert_eq!(a, b);
        let mut c = StreamingHistogram::new();
        c.record(1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn availability_stats_conservation_and_fraction() {
        let mut a = AvailabilityStats {
            arrivals: 100,
            completed: 90,
            retried: 7,
            shed: 4,
            failed: 2,
            wake_failures: 3,
            crashes: 1,
            in_flight: 4,
            per_disk_downtime_s: vec![0.0, 30.0, 0.0, 70.0],
            availability: 0.0,
            degraded: ResponseStats::exact(),
        };
        assert!(a.conservation_holds());
        assert_eq!(a.total_downtime_s(), 100.0);
        a.recompute_availability(4, 250.0);
        assert!((a.availability - 0.9).abs() < 1e-12);
        assert_eq!(a.degraded_p95(), 0.0, "no degraded completions yet");
        a.degraded.record(2.5);
        assert_eq!(a.degraded_p95(), 2.5);
        a.failed += 1;
        assert!(!a.conservation_holds());
        // Zero-length runs are vacuously fully available.
        a.recompute_availability(0, 0.0);
        assert_eq!(a.availability, 1.0);
    }

    #[test]
    fn mode_default_and_constructors() {
        assert_eq!(ResponseStats::new().mode(), MetricsMode::Exact);
        assert_eq!(ResponseStats::default().mode(), MetricsMode::Exact);
        assert_eq!(ResponseStats::histogram().mode(), MetricsMode::Histogram);
        assert_eq!(MetricsMode::default(), MetricsMode::Exact);
    }
}
