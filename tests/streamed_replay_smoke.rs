//! Heavyweight smoke tests for the `--ignored` CI lane
//! (`cargo test -q -- --ignored`): a million-request streamed replay per
//! queue discipline, plus a 100-million-request generator-backed replay in
//! histogram-metrics mode, checking the invariants that matter at scale —
//! conservation, fleet-bound event heap, bucket-bound metrics, energy–time
//! accounting — without slowing the default tier-1 run.

use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::discipline::DisciplineChoice;
use spindown::sim::engine::Simulator;
use spindown::sim::metrics::MetricsMode;
use spindown::sim::CompletionLogMode;
use spindown::sim::StreamingHistogram;
use spindown::workload::{FileCatalog, SyntheticSource, Trace};

const FILES: usize = 64;
const DISKS: usize = 8;

/// 64 equally popular 8 MB files round-robined over 8 disks; 250 req/s for
/// 4000 s ≈ one million requests (the `arrival_scheduling` bench fixture).
fn fixture() -> (FileCatalog, Trace, Assignment) {
    let catalog = FileCatalog::from_parts(vec![8_000_000; FILES], vec![1.0 / FILES as f64; FILES]);
    let trace = Trace::poisson(&catalog, 250.0, 4_000.0, 1_000_003);
    let mut bins: Vec<DiskBin> = (0..DISKS).map(|_| DiskBin::default()).collect();
    for file in 0..FILES {
        bins[file % DISKS].items.push(file);
    }
    (catalog, trace, Assignment { disks: bins })
}

#[test]
#[ignore = "smoke lane: cargo test -- --ignored"]
fn one_million_request_streamed_replay_conserves_under_every_discipline() {
    let (catalog, trace, assignment) = fixture();
    assert!(
        trace.len() > 900_000,
        "want ~1M requests, got {}",
        trace.len()
    );
    let mut fifo_energy = None;
    for discipline in DisciplineChoice::all() {
        let cfg = SimConfig::paper_default()
            .with_threshold(ThresholdPolicy::BreakEven)
            .with_discipline(discipline);
        let report = Simulator::run(&catalog, &trace, &assignment, &cfg).expect("replay");
        // Conservation at scale: every request answered exactly once.
        assert_eq!(
            report.responses.len(),
            trace.len(),
            "{} dropped requests",
            discipline.label()
        );
        let served: u64 = report.per_disk_served.iter().sum();
        assert_eq!(served, trace.len() as u64);
        // The streamed engine keeps the heap fleet-bound even at 1M
        // requests, whatever the discipline does to the queue.
        assert!(
            report.peak_event_queue_max() <= 4 * report.disks + 4,
            "{}: peak {} for {} disks",
            discipline.label(),
            report.peak_event_queue_max(),
            report.disks
        );
        // Energy–time accounting never leaks.
        let covered = report.energy.total_seconds();
        let expected = report.sim_time_s * report.disks as f64;
        assert!(
            (covered - expected).abs() < 1e-6 * expected,
            "{}: covered {covered}s vs {expected}s",
            discipline.label()
        );
        // At 250 req/s the fleet never sleeps: reordering the queue
        // cannot change the energy integral.
        let energy = report.energy.total_joules();
        match fifo_energy {
            None => fifo_energy = Some(energy),
            Some(e) => assert!(
                (energy - e).abs() < 1e-6 * e,
                "{}: energy {energy} vs fifo {e}",
                discipline.label()
            ),
        }
    }
}

/// The acceptance bar for the constant-memory hot path: a 100M-request
/// generator-backed replay whose tracked structures are all independent of
/// the request count — no materialised trace, O(disks) event heap, O(
/// buckets) response metrics. (~10⁸ requests keeps this in the smoke lane,
/// not tier-1.)
#[test]
#[ignore = "smoke lane: cargo test -- --ignored"]
fn hundred_million_request_generator_replay_is_constant_memory() {
    // 40 req/s over 8 disks of 8 MB files ≈ 0.62 utilisation: a *stable*
    // queueing system, so pending-queue depth is workload-bound, not
    // request-count-bound — which is exactly the constant-memory claim.
    const RATE: f64 = 40.0;
    const REQUESTS: f64 = 100e6;
    let catalog = FileCatalog::from_parts(vec![8_000_000; FILES], vec![1.0 / FILES as f64; FILES]);
    let mut bins: Vec<DiskBin> = (0..DISKS).map(|_| DiskBin::default()).collect();
    for file in 0..FILES {
        bins[file % DISKS].items.push(file);
    }
    let assignment = Assignment { disks: bins };
    let cfg = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::BreakEven)
        .with_metrics(MetricsMode::Histogram);
    let source = SyntheticSource::poisson(&catalog, RATE, REQUESTS / RATE, 1_000_003);
    let report =
        Simulator::run_from_source(&catalog, source, &assignment, &cfg, DISKS).expect("replay");

    // ~100M arrivals actually streamed through (Poisson: ±0.1% at this n).
    let served = report.responses.len() as f64;
    assert!(
        (served - REQUESTS).abs() < 0.01 * REQUESTS,
        "expected ≈{REQUESTS} requests, got {served}"
    );
    let counted: u64 = report.per_disk_served.iter().sum();
    assert_eq!(counted, report.responses.len() as u64, "conservation");
    // Event heap stayed fleet-bound…
    assert!(
        report.peak_event_queue_max() <= 4 * report.disks + 4,
        "peak {} for {} disks",
        report.peak_event_queue_max(),
        report.disks
    );
    // …pending queues stayed backlog-bound (0.62 utilisation: depth is a
    // property of the load, independent of the 10⁸ request count)…
    assert!(
        report.peak_disk_queue < 10_000,
        "peak pending queue {} grew with the request count",
        report.peak_disk_queue
    );
    // …and the response metrics stayed bucket-bound: the only per-request
    // state left is a u64 bucket counter.
    assert_eq!(report.responses.mode(), MetricsMode::Histogram);
    assert!(StreamingHistogram::max_buckets() < 10_000);
    // Energy–time accounting never leaks, even over 4×10⁵ simulated
    // seconds.
    let covered = report.energy.total_seconds();
    let expected = report.sim_time_s * report.disks as f64;
    assert!(
        (covered - expected).abs() < 1e-6 * expected,
        "covered {covered}s vs {expected}s"
    );
    // Sanity on the aggregates the histogram carries exactly.
    assert!(report.responses.mean() > 0.0);
    assert!(report.response_quantile(0.99) >= report.responses.mean());
}

/// The billion-request bar from the sharded-replay work: a 10⁹-request
/// generator-backed replay across 4 shards, with the streaming completion
/// log on in digest mode. Each shard's generator view streams its own
/// partition and the per-shard log streams through the k-way merger, so
/// resident memory stays O(shards × (disks + buckets) + log buffers) and
/// the wall clock divides across cores. A 1-shard control at 10⁷ requests
/// is checked for bit-identity separately (tier-1 `shard_equivalence`);
/// here the claim is scale.
#[test]
#[ignore = "smoke lane (minutes): cargo test -- --ignored"]
fn billion_request_sharded_replay_completes_and_conserves() {
    const RATE: f64 = 40.0;
    const REQUESTS: f64 = 1e9;
    let catalog = FileCatalog::from_parts(vec![8_000_000; FILES], vec![1.0 / FILES as f64; FILES]);
    let mut bins: Vec<DiskBin> = (0..DISKS).map(|_| DiskBin::default()).collect();
    for file in 0..FILES {
        bins[file % DISKS].items.push(file);
    }
    let assignment = Assignment { disks: bins };
    let cfg = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::BreakEven)
        .with_metrics(MetricsMode::Histogram)
        .with_shards(4)
        .with_completion_log_mode(CompletionLogMode::Digest);
    let source = SyntheticSource::poisson(&catalog, RATE, REQUESTS / RATE, 1_000_003);
    let report =
        Simulator::run_from_source(&catalog, source, &assignment, &cfg, DISKS).expect("replay");

    let served = report.responses.len() as f64;
    assert!(
        (served - REQUESTS).abs() < 0.01 * REQUESTS,
        "expected ≈{REQUESTS} requests, got {served}"
    );
    let counted: u64 = report.per_disk_served.iter().sum();
    assert_eq!(counted, report.responses.len() as u64, "conservation");
    // Per-shard fleet-bound peaks, one per event loop.
    assert_eq!(report.per_shard_event_peaks.len(), cfg.shards);
    assert!(
        report.peak_event_queue_sum() <= 4 * report.disks + 4 * cfg.shards,
        "peak sum {} for {} disks × {} shards",
        report.peak_event_queue_sum(),
        report.disks,
        cfg.shards
    );
    assert!(report.peak_disk_queue < 10_000);
    // The digest log saw every completion without materialising any of
    // them: peak buffering is bounded by the chunked channel plumbing, not
    // the 10⁹ record count.
    let log = report.completion_log.as_ref().expect("digest log enabled");
    assert_eq!(log.records, report.responses.len() as u64);
    assert!(report.completions.is_none(), "digest mode keeps no records");
    assert!(
        log.peak_buffered < 1_000_000,
        "log buffering {} grew with the request count",
        log.peak_buffered
    );
    let covered = report.energy.total_seconds();
    let expected = report.sim_time_s * report.disks as f64;
    assert!((covered - expected).abs() < 1e-6 * expected);
}

/// The fleet-scale bar: 10⁵ disks (2×10⁵ files) replayed across 8 shards.
/// Most of the fleet idles and spins down — the paper's archival shape —
/// so the run exercises per-disk actor state, timer scheduling and the
/// merge across a fleet three orders of magnitude beyond the paper's 100
/// disks, and must complete in minutes.
#[test]
#[ignore = "smoke lane (minutes): cargo test -- --ignored"]
fn hundred_thousand_disk_fleet_replays_under_sharding() {
    const FLEET: usize = 100_000;
    const N_FILES: usize = 2 * FLEET;
    const RATE: f64 = 2_000.0; // ~5M requests over 2500 s, spread thin
    let catalog = FileCatalog::from_parts(
        vec![8_000_000; N_FILES],
        vec![1.0 / N_FILES as f64; N_FILES],
    );
    let mut bins: Vec<DiskBin> = (0..FLEET).map(|_| DiskBin::default()).collect();
    for file in 0..N_FILES {
        bins[file % FLEET].items.push(file);
    }
    let assignment = Assignment { disks: bins };
    let cfg = SimConfig::paper_default()
        .with_threshold(ThresholdPolicy::BreakEven)
        .with_metrics(MetricsMode::Histogram)
        .with_shards(8);
    let source = SyntheticSource::poisson(&catalog, RATE, 2_500.0, 77);
    let report =
        Simulator::run_from_source(&catalog, source, &assignment, &cfg, FLEET).expect("replay");

    assert_eq!(report.disks, FLEET);
    let served: u64 = report.per_disk_served.iter().sum();
    assert_eq!(served, report.responses.len() as u64, "conservation");
    assert!(
        report.responses.len() > 4_000_000,
        "want ~5M requests, got {}",
        report.responses.len()
    );
    // At 0.02 req/s per disk every disk spends most of the run asleep:
    // the spin-down machinery ran fleet-wide.
    assert!(
        report.spin_downs as usize >= FLEET / 2,
        "only {} spin-downs across {FLEET} disks",
        report.spin_downs
    );
    let covered = report.energy.total_seconds();
    let expected = report.sim_time_s * report.disks as f64;
    assert!((covered - expected).abs() < 1e-6 * expected);
}
