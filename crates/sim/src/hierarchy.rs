//! Multi-tier cache hierarchy in front of the fleet: DRAM → SSD → … →
//! disks, each tier a byte-budget [`CachePolicy`] with its own hit
//! bandwidth.
//!
//! A request probes the tiers in order. [`CachePolicy::access`] admits on
//! a miss, so walking the tiers *is* the upward fill: when tier k hits,
//! every shallower tier has already re-admitted the file on its way down,
//! and the request is served at tier k's bandwidth without waking a disk.
//! A miss at every tier falls through to the dispatcher (and the file is
//! now resident at every tier that could hold it).
//!
//! The hierarchy generalises the paper's §5.1 flat 16 GB LRU, which is the
//! single-tier hierarchy [`CacheHierarchyConfig::paper_16gb`]
//! (`tests/cache_equivalence.rs` pins a single-tier LRU against the
//! fixture captured from the original flat cache).
//!
//! ## Sharding
//!
//! A replay builds one hierarchy, and the reader thread walks it for
//! every request in arrival order before the request is routed to its
//! shard (`crate::shard`). A hit depends only on the order of `(file,
//! size)` pairs, so the walk makes the same decisions at every shard
//! count, eviction pressure included, and the shards just record the
//! tagged hits against the disks that own the files.

use spindown_workload::FileId;

use crate::cache::{CachePolicy, CacheStats, LfuCache, LruCache, SegmentedLru};

/// Which replacement policy a tier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicyChoice {
    /// Plain byte-budget LRU — the paper's §5.1 policy and the default.
    #[default]
    Lru,
    /// Segmented LRU: probation/protected split, scan-resistant.
    SegmentedLru {
        /// Percent of the tier's byte budget reserved for the protected
        /// segment (0 degenerates to plain LRU).
        protected_pct: u8,
    },
    /// Least-frequently-used with LRU tie-breaking.
    Lfu,
}

impl CachePolicyChoice {
    /// Segmented LRU with the common 80/20 protected split.
    pub fn slru() -> Self {
        CachePolicyChoice::SegmentedLru { protected_pct: 80 }
    }

    /// Instantiate the policy over a byte budget.
    pub fn build(&self, capacity_bytes: u64) -> Box<dyn CachePolicy> {
        match *self {
            CachePolicyChoice::Lru => Box::new(LruCache::new(capacity_bytes)),
            CachePolicyChoice::SegmentedLru { protected_pct } => {
                Box::new(SegmentedLru::new(capacity_bytes, protected_pct))
            }
            CachePolicyChoice::Lfu => Box::new(LfuCache::new(capacity_bytes)),
        }
    }

    /// Short label for tables and sweep-cell names.
    pub fn label(&self) -> String {
        match *self {
            CachePolicyChoice::Lru => "lru".to_owned(),
            CachePolicyChoice::SegmentedLru { protected_pct } => format!("slru{protected_pct}"),
            CachePolicyChoice::Lfu => "lfu".to_owned(),
        }
    }

    /// Parse `lru`, `lfu`, or `slruNN` (NN = protected percent ≤ 100).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lru" => Some(CachePolicyChoice::Lru),
            "lfu" => Some(CachePolicyChoice::Lfu),
            _ => {
                let pct = s.strip_prefix("slru")?.parse::<u8>().ok()?;
                (pct <= 100).then_some(CachePolicyChoice::SegmentedLru { protected_pct: pct })
            }
        }
    }
}

/// One tier of the hierarchy: a byte budget served at a bandwidth under a
/// replacement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheTierConfig {
    /// Byte budget of the tier.
    pub capacity_bytes: u64,
    /// Bandwidth at which this tier serves hits, bytes/second (hit
    /// response time = size / bandwidth).
    pub bandwidth_bps: f64,
    /// Replacement policy.
    pub policy: CachePolicyChoice,
}

impl CacheTierConfig {
    /// A DRAM-speed tier (1 GB/s — the §5.1 cache bandwidth).
    pub fn dram(capacity_bytes: u64, policy: CachePolicyChoice) -> Self {
        CacheTierConfig {
            capacity_bytes,
            bandwidth_bps: 1.0e9,
            policy,
        }
    }

    /// An SSD-speed tier (500 MB/s).
    pub fn ssd(capacity_bytes: u64, policy: CachePolicyChoice) -> Self {
        CacheTierConfig {
            capacity_bytes,
            bandwidth_bps: 0.5e9,
            policy,
        }
    }
}

/// Ordered cache tiers, shallowest first: one shared front cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchyConfig {
    /// Tiers, probed in order; index 0 is the fastest/closest.
    pub tiers: Vec<CacheTierConfig>,
}

impl CacheHierarchyConfig {
    /// A hierarchy from ordered tiers (shallowest first).
    pub fn new(tiers: Vec<CacheTierConfig>) -> Self {
        CacheHierarchyConfig { tiers }
    }

    /// A single-tier hierarchy.
    pub fn single(tier: CacheTierConfig) -> Self {
        Self::new(vec![tier])
    }

    /// The paper's §5.1 cache: one global 16 GB LRU tier served at DRAM
    /// speed (1 GB/s).
    pub fn paper_16gb() -> Self {
        Self::single(CacheTierConfig::dram(16 * GB, CachePolicyChoice::Lru))
    }

    /// Instantiate the runtime hierarchy with every tier's budget divided
    /// by `share`. The simulator builds with `share = 1`, the whole
    /// configured budget.
    pub fn build(&self, share: u64) -> CacheHierarchy {
        let share = share.max(1);
        CacheHierarchy {
            tiers: self
                .tiers
                .iter()
                .map(|t| Tier {
                    policy: t.policy.build(t.capacity_bytes / share),
                    bandwidth_bps: t.bandwidth_bps,
                })
                .collect(),
        }
    }
}

#[derive(Debug)]
struct Tier {
    policy: Box<dyn CachePolicy>,
    bandwidth_bps: f64,
}

/// A live stack of cache tiers (see the module docs for the probe/fill
/// discipline).
#[derive(Debug)]
pub struct CacheHierarchy {
    tiers: Vec<Tier>,
}

impl CacheHierarchy {
    /// Probe the tiers in order for `file`. A hit at tier k returns
    /// `Some(size / bandwidth_k)` — the hit's service time — after the
    /// shallower tiers have re-admitted the file (upward fill). `None`
    /// means a miss at every tier: the request must go to the disk.
    pub fn access(&mut self, file: FileId, size_bytes: u64) -> Option<f64> {
        for tier in &mut self.tiers {
            if tier.policy.access(file, size_bytes) {
                return Some(size_bytes as f64 / tier.bandwidth_bps);
            }
        }
        None
    }

    /// Per-tier statistics, shallowest first.
    pub fn tier_stats(&self) -> Vec<CacheStats> {
        self.tiers.iter().map(|t| t.policy.stats()).collect()
    }

    /// The hierarchy as one cache: hits sum over tiers, misses are the
    /// deepest tier's (a request misses the hierarchy only by missing
    /// every tier), byte and oversize counters sum. With these rules
    /// `hits + misses` still equals the number of requests probed, because
    /// each deeper tier only sees the previous tier's misses.
    pub fn aggregate_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for (i, t) in self.tiers.iter().enumerate() {
            let s = t.policy.stats();
            agg.hits += s.hits;
            agg.resident_bytes += s.resident_bytes;
            agg.evicted_bytes += s.evicted_bytes;
            agg.oversize_rejections += s.oversize_rejections;
            if i + 1 == self.tiers.len() {
                agg.misses = s.misses;
            }
        }
        agg
    }

    /// Number of tiers.
    pub fn depth(&self) -> usize {
        self.tiers.len()
    }
}

/// A compact, `Copy` cache-sizing choice — the fifth joint-planning leg
/// (cache × allocation × policy × discipline × ladder) and the
/// `--cache-tiers` CLI value. `hierarchy()` expands it to the full
/// [`CacheHierarchyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CacheChoice {
    /// No cache — the paper's base series and the default grid leg.
    #[default]
    None,
    /// A single DRAM-speed tier of `gb` GB.
    Flat {
        /// Tier capacity in GB (10⁹ bytes).
        gb: u32,
        /// Replacement policy.
        policy: CachePolicyChoice,
    },
    /// A DRAM tier over an SSD tier.
    TwoTier {
        /// DRAM tier capacity in GB.
        dram_gb: u32,
        /// SSD tier capacity in GB.
        ssd_gb: u32,
        /// Replacement policy (both tiers).
        policy: CachePolicyChoice,
    },
}

const GB: u64 = 1_000_000_000;

impl CacheChoice {
    /// Expand to the hierarchy this choice denotes (`None` for no cache).
    pub fn hierarchy(&self) -> Option<CacheHierarchyConfig> {
        match *self {
            CacheChoice::None => None,
            CacheChoice::Flat { gb, policy } => Some(CacheHierarchyConfig::single(
                CacheTierConfig::dram(u64::from(gb) * GB, policy),
            )),
            CacheChoice::TwoTier {
                dram_gb,
                ssd_gb,
                policy,
            } => Some(CacheHierarchyConfig::new(vec![
                CacheTierConfig::dram(u64::from(dram_gb) * GB, policy),
                CacheTierConfig::ssd(u64::from(ssd_gb) * GB, policy),
            ])),
        }
    }

    /// Short label for sweep cells: `none`, `lru:16`, `slru80:4+lfu:64` …
    pub fn label(&self) -> String {
        match *self {
            CacheChoice::None => "none".to_owned(),
            CacheChoice::Flat { gb, policy } => format!("{}:{gb}", policy.label()),
            CacheChoice::TwoTier {
                dram_gb,
                ssd_gb,
                policy,
            } => {
                let p = policy.label();
                format!("{p}:{dram_gb}+{p}:{ssd_gb}")
            }
        }
    }

    /// Parse a `--cache-tiers` spec: `none`, `POLICY:GB`, or
    /// `POLICY:GB+POLICY:GB` (two tiers, shallow first, same policy;
    /// POLICY = `lru` | `lfu` | `slruNN`).
    pub fn parse(s: &str) -> Option<Self> {
        if s == "none" {
            return Some(CacheChoice::None);
        }
        let parse_tier = |spec: &str| -> Option<(CachePolicyChoice, u32)> {
            let (policy, gb) = spec.split_once(':')?;
            Some((CachePolicyChoice::parse(policy)?, gb.parse().ok()?))
        };
        match s.split_once('+') {
            None => {
                let (policy, gb) = parse_tier(s)?;
                Some(CacheChoice::Flat { gb, policy })
            }
            Some((shallow, deep)) => {
                let (policy, dram_gb) = parse_tier(shallow)?;
                let (deep_policy, ssd_gb) = parse_tier(deep)?;
                (policy == deep_policy).then_some(CacheChoice::TwoTier {
                    dram_gb,
                    ssd_gb,
                    policy,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    #[test]
    fn single_tier_walk_matches_the_flat_policy() {
        let cfg = CacheHierarchyConfig::paper_16gb();
        let mut h = cfg.build(1);
        let mut flat = LruCache::new(16 * GB);
        for &(id, size) in &[(1u32, 5 * GB), (2, 5 * GB), (1, 5 * GB), (3, 20 * GB)] {
            let hit = h.access(f(id), size).is_some();
            assert_eq!(hit, flat.access(f(id), size));
        }
        assert_eq!(h.aggregate_stats(), flat.stats());
        assert_eq!(h.tier_stats(), vec![flat.stats()]);
    }

    #[test]
    fn two_tier_hit_fills_upward_and_reports_the_hit_tiers_latency() {
        // Tiny DRAM (10 B) over a large SSD (100 B): file 1 falls out of
        // DRAM but stays in SSD; the re-access hits SSD at SSD latency and
        // refills DRAM.
        let cfg = CacheHierarchyConfig::new(vec![
            CacheTierConfig {
                capacity_bytes: 10,
                bandwidth_bps: 10.0,
                policy: CachePolicyChoice::Lru,
            },
            CacheTierConfig {
                capacity_bytes: 100,
                bandwidth_bps: 2.0,
                policy: CachePolicyChoice::Lru,
            },
        ]);
        let mut h = cfg.build(1);
        assert_eq!(h.access(f(1), 8), None); // cold miss, admitted both tiers
        assert_eq!(h.access(f(2), 8), None); // evicts 1 from DRAM only
        let latency = h.access(f(1), 8).expect("SSD still holds file 1");
        assert!((latency - 8.0 / 2.0).abs() < 1e-12, "SSD latency, not DRAM");
        // The SSD hit refilled DRAM: the next access is DRAM-fast.
        let latency = h.access(f(1), 8).expect("DRAM hit");
        assert!((latency - 8.0 / 10.0).abs() < 1e-12);
        let tiers = h.tier_stats();
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0].hits, 1, "one DRAM hit");
        assert_eq!(tiers[1].hits, 1, "one SSD hit");
    }

    #[test]
    fn aggregate_conserves_requests_across_tiers() {
        let cfg = CacheHierarchyConfig::new(vec![
            CacheTierConfig::dram(20, CachePolicyChoice::Lru),
            CacheTierConfig::ssd(60, CachePolicyChoice::Lfu),
        ]);
        let mut h = cfg.build(1);
        let mut accesses = 0u64;
        for i in 0..50u32 {
            h.access(f(i % 7), 10 + u64::from(i % 3));
            accesses += 1;
        }
        let agg = h.aggregate_stats();
        assert_eq!(agg.hits + agg.misses, accesses);
    }

    #[test]
    fn share_splits_every_tier_budget() {
        let cfg = CacheHierarchyConfig::single(CacheTierConfig::dram(100, CachePolicyChoice::Lru));
        let mut quarter = cfg.build(4); // 25 B
        assert_eq!(quarter.access(f(1), 30), None);
        assert_eq!(
            quarter.tier_stats()[0].oversize_rejections,
            1,
            "30 B exceeds a quarter of 100 B"
        );
        assert_eq!(quarter.depth(), 1);
    }

    #[test]
    fn cache_choice_labels_round_trip_through_parse() {
        let choices = [
            CacheChoice::None,
            CacheChoice::Flat {
                gb: 16,
                policy: CachePolicyChoice::Lru,
            },
            CacheChoice::Flat {
                gb: 4,
                policy: CachePolicyChoice::slru(),
            },
            CacheChoice::TwoTier {
                dram_gb: 4,
                ssd_gb: 64,
                policy: CachePolicyChoice::Lfu,
            },
        ];
        for c in choices {
            assert_eq!(CacheChoice::parse(&c.label()), Some(c), "{}", c.label());
        }
        assert_eq!(CacheChoice::parse("bogus"), None);
        assert_eq!(CacheChoice::parse("slru200:4"), None, "pct over 100");
        assert_eq!(
            CacheChoice::parse("lru:4+lfu:64"),
            None,
            "mixed-policy tiers are not expressible as a CacheChoice"
        );
    }

    #[test]
    fn total_gb_is_the_equal_budget_axis() {
        assert!(CacheChoice::None.hierarchy().is_none());
        let two = CacheChoice::TwoTier {
            dram_gb: 4,
            ssd_gb: 60,
            policy: CachePolicyChoice::Lru,
        };
        let tiers = two.hierarchy().unwrap().tiers;
        assert_eq!(
            tiers.iter().map(|t| t.capacity_bytes).sum::<u64>(),
            64 * GB,
            "hierarchy expansion preserves the budget"
        );
    }
}
