#![warn(missing_docs)]
//! # spindown-sim
//!
//! A deterministic discrete-event simulator for multi-disk storage systems
//! with spin-down power management — the Rust replacement for the paper's
//! SimPy environment (§4).
//!
//! The simulated system is the paper's: a workload generator produces file
//! requests; a dispatcher (optionally fronted by a byte-budget cache — the
//! paper's flat LRU or a multi-tier DRAM→SSD hierarchy)
//! forwards each request to the disk holding the file, per a file→disk
//! mapping produced by an allocator from `spindown-packing`; each disk
//! serves its FIFO queue with seek + rotation + transfer timing from
//! `spindown-disk`, spins down after a configurable idleness threshold, and
//! pays the spin-up latency when a request finds it in standby. Energy is
//! integrated exactly per power state.
//!
//! Modules:
//! - [`event`] — the time-ordered event queue.
//! - [`cache`] — byte-budget whole-file replacement policies (LRU —
//!   the 16 GB front of §5.1 — plus segmented LRU and LFU) behind the
//!   [`cache::CachePolicy`] trait.
//! - [`hierarchy`] — ordered cache tiers ([`hierarchy::CacheHierarchy`]):
//!   DRAM→SSD with per-tier capacity, policy and hit bandwidth, one
//!   shared front walked by the reader thread.
//! - [`complog`] — the streaming completion log
//!   ([`complog::CompletionLogMode`]): canonical `(time, req)`-ordered
//!   records to memory, CSV or a digest, O(buffer) resident and merged
//!   bit-identically across shards.
//! - `decimal` (internal) — the log's allocation-free text encoder:
//!   integers, and `f64` in std `Display`'s shortest round-trip form
//!   (Ryū with std's half-up tie rule).
//! - [`config`] — [`config::SimConfig`] and the idleness-threshold
//!   configuration.
//! - [`policy`] — the pluggable [`policy::PowerPolicy`] trait and the
//!   fixed-timeout implementation; online policies plug in from
//!   `spindown-analysis`.
//! - [`discipline`] — pluggable per-disk queue disciplines
//!   ([`discipline::DisciplineChoice`]): FIFO, shortest-job-first with an
//!   aging bound, and elevator batching of requests that pile up during a
//!   spin-up.
//! - [`actor`] — per-disk actor bridging queueing and the state machine.
//! - [`metrics`] — response-time statistics and the simulation report.
//! - [`windows`] — tumbling-window time-series metrics behind
//!   `SimConfig::with_windows`: per-disk [`windows::DiskWindows`]
//!   collectors close each window as the clock passes it, and
//!   [`windows::fold_row`] folds the closed window in ascending global
//!   disk order into a [`windows::WindowedReport`] row — O(disks)
//!   resident, bit-identical at any shard count.
//! - `fault` (internal) — the seeded deterministic fault injector behind
//!   the `SimConfig::faults` plan: fail-stop crashes with timed repair,
//!   transient I/O retries with capped exponential backoff, wake
//!   failures, fail-slow windows and watermark load shedding, surfaced as
//!   [`metrics::AvailabilityStats`] on the report.
//! - [`engine`] — the [`engine::Simulator`] main loop: arrivals stream
//!   from a [`TraceSource`](spindown_workload::TraceSource) cursor, so the
//!   event queue peaks at O(disks). [`engine::Simulator::replay`] is its
//!   one entry point; `run_from_source` and `run` are shorthands.
//! - `shard` (internal) — the replay driver behind every run, sized by
//!   `SimConfig::with_shards`: one reader thread demultiplexes the
//!   arrivals, the fleet partitions by disk id, each shard runs its own
//!   event loop, and the per-shard reports merge bit-identically
//!   (histogram metrics, all energy totals) to the one-shard run.
//!
//! ## Power policies
//!
//! The engine consults a [`policy::PowerPolicy`] every time a disk settles
//! at a ladder level with an empty queue (level 0 = just became idle); the
//! policy answers with the next [`policy::DescentStep`] — rest here this
//! long, then descend that deep — or `None` to hold, and observes request
//! arrivals, so it can adapt online. On the default two-state ladder this
//! reduces to the classic "how long until spin-down?" consultation. The
//! paper's fixed-threshold family is [`policy::TimeoutPolicy`]; pass any
//! custom implementation through [`engine::Simulator::replay`], which
//! builds one instance per shard from a factory:
//!
//! ```
//! use spindown_packing::{Assignment, DiskBin};
//! use spindown_sim::config::SimConfig;
//! use spindown_sim::engine::Simulator;
//! use spindown_sim::policy::TimeoutPolicy;
//! use spindown_workload::{FileCatalog, InMemorySource, Trace};
//!
//! let catalog = FileCatalog::from_parts(vec![1_000_000], vec![1.0]);
//! let trace = Trace::poisson(&catalog, 0.05, 400.0, 7);
//! let assignment = Assignment { disks: vec![DiskBin { items: vec![0], total_s: 0.0, total_l: 0.0 }] };
//! let cfg = SimConfig::paper_default();
//! let report = Simulator::replay(
//!     &catalog, InMemorySource::new(&trace), &assignment, &cfg, 1,
//!     |_| Box::new(TimeoutPolicy::fixed(30.0)),
//! ).unwrap();
//! assert_eq!(report.responses.len(), trace.len());
//! ```
//!
//! ## Example
//!
//! ```
//! use spindown_packing::{pack_disks, Instance};
//! use spindown_sim::config::SimConfig;
//! use spindown_sim::engine::Simulator;
//! use spindown_workload::{FileCatalog, Trace};
//!
//! let catalog = FileCatalog::paper_table1(200, 0);
//! let trace = Trace::poisson(&catalog, 0.2, 500.0, 42);
//! let cfg = SimConfig::paper_default();
//! let loads = catalog.loads(0.2, |b| b as f64 / cfg.disk.transfer_rate_bps);
//! let sizes: Vec<u64> = catalog.iter().map(|f| f.size_bytes).collect();
//! let inst = Instance::from_raw(&sizes, &loads, cfg.disk.capacity_bytes, 0.7).unwrap();
//! let assignment = pack_disks(&inst);
//! let report = Simulator::run(&catalog, &trace, &assignment, &cfg).unwrap();
//! assert!(report.energy.total_joules() > 0.0);
//! ```

pub mod actor;
pub mod cache;
pub mod complog;
pub mod config;
mod decimal;
pub mod discipline;
pub mod engine;
pub mod event;
mod fault;
pub mod hierarchy;
pub mod metrics;
pub mod policy;
mod shard;
pub mod windows;

pub use cache::{CachePolicy, CacheStats, LfuCache, LruCache, SegmentedLru};
pub use complog::{CompletionLogMode, CompletionLogSummary};
pub use config::{SimConfig, ThresholdPolicy};
pub use discipline::DisciplineChoice;
pub use engine::{SimError, Simulator};
pub use hierarchy::{
    CacheChoice, CacheHierarchy, CacheHierarchyConfig, CachePolicyChoice, CacheTierConfig,
};
pub use metrics::{AvailabilityStats, MetricsMode, ResponseStats, SimReport, StreamingHistogram};
pub use policy::{PowerPolicy, TimeoutPolicy};
pub use windows::{DiskWindows, WindowRow, WindowedReport};
