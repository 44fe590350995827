//! Simulation configuration.

use spindown_disk::{break_even_threshold, DiskSpec, PowerLadder};
use spindown_workload::FaultPlan;

use crate::complog::CompletionLogMode;
use crate::discipline::DisciplineChoice;
use crate::hierarchy::CacheHierarchyConfig;
use crate::metrics::MetricsMode;

/// When (if ever) an idle disk spins down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Spin down after a fixed idle period (seconds).
    Fixed(f64),
    /// Spin down after the drive's break-even time — the paper's default
    /// (53.3 s for the Table 2 drive, following Pinheiro & Bianchini).
    BreakEven,
    /// Never spin down ("spinning N disks without any power-saving
    /// mechanism" — the normalisation baseline of §5.1).
    Never,
}

impl ThresholdPolicy {
    /// The threshold in seconds for a drive (`None` = never spin down). A
    /// fixed threshold is passed through as given: the engine rejects a
    /// negative or non-finite one as
    /// [`SimError::InvalidPolicyDelay`](crate::engine::SimError::InvalidPolicyDelay) when
    /// the policy first answers with it.
    pub fn threshold_s(&self, spec: &DiskSpec) -> Option<f64> {
        match *self {
            ThresholdPolicy::Fixed(s) => Some(s),
            ThresholdPolicy::BreakEven => Some(break_even_threshold(spec)),
            ThresholdPolicy::Never => None,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The drive model used for every disk in the fleet.
    pub disk: DiskSpec,
    /// Spin-down policy.
    pub threshold: ThresholdPolicy,
    /// Optional multi-tier cache hierarchy in front of the fleet
    /// (DRAM→SSD…; see [`crate::hierarchy`]): several tiers with per-tier
    /// replacement policies and bandwidths, shared by the whole fleet.
    /// The paper's §5.1 flat 16 GB LRU is
    /// [`CacheHierarchyConfig::paper_16gb`].
    pub cache_hierarchy: Option<CacheHierarchyConfig>,
    /// Per-disk queue discipline (FIFO by default — the paper's §4 model).
    pub discipline: DisciplineChoice,
    /// How response-time samples are aggregated: exact (every sample kept,
    /// bit-meaningful quantiles, O(requests) memory — the default, and what
    /// the golden-trace fixture runs) or a streaming log-bucketed histogram
    /// (O(buckets) memory independent of request count, quantiles within
    /// [`StreamingHistogram::RELATIVE_ERROR_BOUND`]).
    ///
    /// [`StreamingHistogram::RELATIVE_ERROR_BOUND`]:
    /// crate::metrics::StreamingHistogram::RELATIVE_ERROR_BOUND
    pub metrics: MetricsMode,
    /// Per-request completion log `(req, disk, completion time)` in
    /// canonical `(time, req)` order — off by default. Memory mode keeps
    /// the records on the report (O(requests), the legacy surface); CSV
    /// and digest modes stream, O(buffer) resident at any request count,
    /// and merge bit-identically across shard counts (see
    /// [`crate::complog`]).
    pub completion_log: CompletionLogMode,
    /// Number of replay shards: the fleet is partitioned by disk id
    /// (`disk % shards`), each shard runs its own event loop fed by one
    /// reader thread that demultiplexes the arrival stream, and
    /// per-shard reports are merged. `1` — the default — is one engine
    /// fed by the reader. The count is clamped to the fleet, so no shard
    /// is empty. Histogram-mode metrics, all energy totals, cache
    /// statistics and the completion log are bit-identical across shard
    /// counts.
    pub shards: usize,
    /// Seeded deterministic fault injection (crashes, transient I/O
    /// errors, wake failures, fail-slow windows, load shedding — see
    /// [`FaultPlan`]). The default, [`FaultPlan::none()`], leaves the
    /// engine on a fast path that is bit-identical to the pre-fault
    /// engine.
    pub faults: FaultPlan,
    /// Tumbling-window width in seconds for the windowed time-series
    /// metrics (see [`crate::windows`]). `None` — the default — keeps the
    /// legacy single-report path bit-for-bit untouched; `Some(width)`
    /// attaches a [`crate::windows::WindowedReport`] to the report,
    /// bit-identical at any shard count. The width must be finite and
    /// positive.
    pub windows: Option<f64>,
}

impl SimConfig {
    /// The paper's §4 setup: Table 2 drive, break-even idleness threshold,
    /// no cache.
    pub fn paper_default() -> Self {
        SimConfig {
            disk: DiskSpec::seagate_st3500630as(),
            threshold: ThresholdPolicy::BreakEven,
            cache_hierarchy: None,
            discipline: DisciplineChoice::Fifo,
            metrics: MetricsMode::Exact,
            completion_log: CompletionLogMode::Off,
            shards: 1,
            faults: FaultPlan::none(),
            windows: None,
        }
    }

    /// Swap the fleet's drive model (keeps any ladder the new spec
    /// carries). The planner and sweep driver treat this field as the
    /// *single* source of truth for the drive — packing, policy
    /// construction and simulation all read it.
    pub fn with_disk(mut self, disk: DiskSpec) -> Self {
        self.disk = disk;
        self
    }

    /// Same but with a fixed idleness threshold (Figures 5/6 sweep this).
    pub fn with_threshold(mut self, threshold: ThresholdPolicy) -> Self {
        self.threshold = threshold;
        self
    }

    /// Attach (or clear) a cache hierarchy (§5.1's "+LRU" series is
    /// [`CacheHierarchyConfig::paper_16gb`]).
    pub fn with_cache_hierarchy(mut self, hierarchy: Option<CacheHierarchyConfig>) -> Self {
        self.cache_hierarchy = hierarchy;
        self
    }

    /// Select the per-disk queue discipline.
    pub fn with_discipline(mut self, discipline: DisciplineChoice) -> Self {
        self.discipline = discipline;
        self
    }

    /// Set (or clear) the fleet drive's power-state ladder. `None` — the
    /// default — is the canonical two-state ladder derived from the
    /// drive's scalar fields, bit-identical to the pre-ladder engine;
    /// deeper ladders open per-level descents to multi-state policies.
    pub fn with_ladder(mut self, ladder: Option<PowerLadder>) -> Self {
        self.disk.ladder = ladder;
        self
    }

    /// Select the response-time aggregation mode. Histogram mode is what
    /// lets a sweep grid or a multi-billion-request replay run without one
    /// response vector per cell; exact mode keeps quantiles bit-meaningful.
    pub fn with_metrics(mut self, metrics: MetricsMode) -> Self {
        self.metrics = metrics;
        self
    }

    /// Record per-request completions in the report (O(requests) memory —
    /// [`CompletionLogMode::Memory`], the legacy surface).
    pub fn with_completion_log(mut self) -> Self {
        self.completion_log = CompletionLogMode::Memory;
        self
    }

    /// Select any completion-log mode (streamed CSV, digest-only, …).
    pub fn with_completion_log_mode(mut self, mode: CompletionLogMode) -> Self {
        self.completion_log = mode;
        self
    }

    /// Run the replay sharded over `shards` threads (clamped to at least 1;
    /// the engine further clamps to the fleet size so no shard is empty).
    /// Merged response metrics (either mode) and energy totals are
    /// bit-identical for any shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Collect windowed time-series metrics with the given tumbling
    /// window width (seconds). A run validates the width against its
    /// horizon before simulating anything: a width that is not finite and
    /// positive, or that makes more than
    /// [`MAX_WINDOWS`](crate::windows::MAX_WINDOWS) windows, fails with
    /// [`SimError::InvalidWindows`](crate::engine::SimError::InvalidWindows).
    pub fn with_windows(mut self, width_s: f64) -> Self {
        self.windows = Some(width_s);
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn break_even_policy_gives_53_3s() {
        let spec = DiskSpec::seagate_st3500630as();
        let t = ThresholdPolicy::BreakEven.threshold_s(&spec).unwrap();
        assert!((t - 53.3).abs() < 0.05);
    }

    #[test]
    fn fixed_policy_passthrough() {
        let spec = DiskSpec::default();
        assert_eq!(
            ThresholdPolicy::Fixed(1800.0).threshold_s(&spec),
            Some(1800.0)
        );
    }

    #[test]
    fn never_policy_is_none() {
        assert_eq!(
            ThresholdPolicy::Never.threshold_s(&DiskSpec::default()),
            None
        );
    }

    #[test]
    fn negative_threshold_is_a_typed_error() {
        use crate::engine::{SimError, Simulator};
        use spindown_packing::{Assignment, DiskBin};
        use spindown_workload::{FileCatalog, FileId, Request, Trace};
        let catalog = FileCatalog::from_parts(vec![1_000_000], vec![1.0]);
        let trace = Trace::new(
            vec![Request {
                time: 1.0,
                file: FileId(0),
            }],
            600.0,
        );
        let layout = Assignment {
            disks: vec![DiskBin {
                items: vec![0],
                ..Default::default()
            }],
        };
        for s in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(s));
            match Simulator::run(&catalog, &trace, &layout, &cfg) {
                Err(e @ SimError::InvalidPolicyDelay { rest_s, .. }) => {
                    assert!(rest_s.to_bits() == s.to_bits(), "{rest_s} vs {s}");
                    assert!(
                        e.to_string().contains(&format!("descent delay {s} s")),
                        "{e}"
                    );
                }
                other => panic!("threshold {s}: expected InvalidPolicyDelay, got {other:?}"),
            }
        }
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(0.0));
        assert!(Simulator::run(&catalog, &trace, &layout, &cfg).is_ok());
    }

    #[test]
    fn builder_combinators() {
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::Fixed(600.0))
            .with_cache_hierarchy(Some(CacheHierarchyConfig::paper_16gb()))
            .with_disk(DiskSpec::archival_5400());
        assert_eq!(cfg.threshold, ThresholdPolicy::Fixed(600.0));
        assert_eq!(
            cfg.cache_hierarchy.unwrap().tiers[0].capacity_bytes,
            16 * 1_000_000_000
        );
        assert_eq!(cfg.disk.model, DiskSpec::archival_5400().model);
    }

    #[test]
    fn cache_hierarchy_builder_and_legacy_lowering() {
        use crate::hierarchy::{CachePolicyChoice, CacheTierConfig};
        let cfg = SimConfig::paper_default();
        assert!(cfg.cache_hierarchy.is_none());

        // The paper's §5.1 flat cache is one global 16 GB LRU tier served
        // at 1 GB/s…
        let paper = CacheHierarchyConfig::paper_16gb();
        assert_eq!(paper.tiers.len(), 1);
        assert_eq!(paper.tiers[0].capacity_bytes, 16 * 1_000_000_000);
        assert_eq!(paper.tiers[0].bandwidth_bps, 1.0e9);
        assert_eq!(paper.tiers[0].policy, CachePolicyChoice::Lru);

        // …and the builder attaches any hierarchy as given.
        let tier = CacheTierConfig::dram(4_000_000_000, CachePolicyChoice::Lfu);
        let cfg = cfg.with_cache_hierarchy(Some(CacheHierarchyConfig::single(tier)));
        let h = cfg.cache_hierarchy.unwrap();
        assert_eq!(h.tiers[0].policy, CachePolicyChoice::Lfu);
        assert_eq!(h.tiers[0].capacity_bytes, 4_000_000_000);
    }

    #[test]
    fn metrics_default_to_exact_and_build() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.metrics, MetricsMode::Exact);
        let cfg = cfg.with_metrics(MetricsMode::Histogram);
        assert_eq!(cfg.metrics, MetricsMode::Histogram);
    }

    #[test]
    fn shards_default_to_one_and_clamp_to_at_least_one() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.clone().with_shards(8).shards, 8);
        assert_eq!(cfg.with_shards(0).shards, 1, "zero clamps to one");
    }

    #[test]
    fn faults_default_to_none_and_build() {
        let mut cfg = SimConfig::paper_default();
        assert!(cfg.faults.is_none());
        cfg.faults = FaultPlan::parse("transient:p=1e-4 | wakefail:p=0.02").unwrap();
        assert!(!cfg.faults.is_none());
    }

    #[test]
    fn windows_default_off_and_build() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.windows, None);
        let cfg = cfg.with_windows(60.0);
        assert_eq!(cfg.windows, Some(60.0));
    }

    #[test]
    fn zero_window_width_is_a_typed_error() {
        use crate::engine::{SimError, Simulator};
        use spindown_packing::{Assignment, DiskBin};
        use spindown_workload::{FileCatalog, Trace};
        let catalog = FileCatalog::from_parts(vec![1_000_000], vec![1.0]);
        let trace = Trace::new(Vec::new(), 600.0);
        let layout = Assignment {
            disks: vec![DiskBin {
                items: vec![0],
                ..Default::default()
            }],
        };
        for (width, windows) in [(0.0, 0), (f64::NAN, 0), (1e-4, 6_000_001)] {
            let cfg = SimConfig::paper_default().with_windows(width);
            match Simulator::run(&catalog, &trace, &layout, &cfg) {
                Err(SimError::InvalidWindows {
                    windows: got, max, ..
                }) => {
                    assert_eq!(got, windows, "width {width}");
                    assert_eq!(max, crate::windows::MAX_WINDOWS);
                }
                other => panic!("width {width}: expected InvalidWindows, got {other:?}"),
            }
        }
        let err = Simulator::run(
            &catalog,
            &trace,
            &layout,
            &SimConfig::paper_default().with_windows(1e-4),
        )
        .unwrap_err();
        assert!(err.to_string().contains("6000001 windows"), "{err}");
        let fine = SimConfig::paper_default().with_windows(60.0);
        assert!(Simulator::run(&catalog, &trace, &layout, &fine).is_ok());
    }

    #[test]
    fn horizon_past_the_trace_time_bound_is_a_typed_error() {
        use crate::engine::{SimError, Simulator};
        use spindown_packing::{Assignment, DiskBin};
        use spindown_workload::trace::MAX_TRACE_TIME_S;
        use spindown_workload::{FileCatalog, Trace};
        let catalog = FileCatalog::from_parts(vec![1_000_000], vec![1.0]);
        let layout = Assignment {
            disks: vec![DiskBin {
                items: vec![0],
                ..Default::default()
            }],
        };
        let trace = Trace::new(Vec::new(), 1e300);
        let err = Simulator::run(&catalog, &trace, &layout, &SimConfig::paper_default())
            .expect_err("a 1e300 s horizon is out of range");
        assert!(
            matches!(err, SimError::HorizonOutOfRange { max_s, .. } if max_s == MAX_TRACE_TIME_S),
            "{err:?}"
        );
        assert!(err.to_string().contains("1e300"), "{err}");
    }

    #[test]
    fn discipline_defaults_to_fifo_and_builds() {
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.discipline, DisciplineChoice::Fifo);
        assert_eq!(cfg.completion_log, CompletionLogMode::Off);
        let cfg = cfg
            .with_discipline(DisciplineChoice::sjf())
            .with_completion_log();
        assert_eq!(cfg.discipline, DisciplineChoice::sjf());
        assert_eq!(cfg.completion_log, CompletionLogMode::Memory);
        let cfg = cfg.with_completion_log_mode(CompletionLogMode::Digest);
        assert_eq!(cfg.completion_log, CompletionLogMode::Digest);
    }
}
