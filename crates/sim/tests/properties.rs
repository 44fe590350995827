//! Property-based tests of the simulator's global invariants: time/energy
//! conservation, response-time lower bounds, power-state bookkeeping and
//! determinism, over randomized small workloads.

use proptest::prelude::*;
use spindown_disk::mechanics::ServiceTimer;
use spindown_disk::{DiskSpec, PowerState};
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::discipline::DisciplineChoice;
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::Completion;
use spindown_workload::trace::Request;
use spindown_workload::FaultPlan;
use spindown_workload::{FileCatalog, FileId, InMemorySource, Trace};

/// Byte count and FNV-1a 64 digest of the canonical log text, rendered
/// with std formatting: the oracle for the simulator's own encoder.
fn std_rendered_log(records: &[Completion]) -> (u64, u64) {
    let text: String = records
        .iter()
        .map(|c| format!("{},{},{}\n", c.req, c.disk, c.time_s))
        .collect();
    let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (text.len() as u64, fnv1a)
}

/// A randomized mini-workload: n files (1–6 disks), m requests in [0, 500 s].
#[derive(Debug, Clone)]
struct MiniWorkload {
    catalog: FileCatalog,
    trace: Trace,
    assignment: Assignment,
}

fn mini_workload() -> impl Strategy<Value = MiniWorkload> {
    let files = prop::collection::vec(1_000_000u64..2_000_000_000, 1..12);
    (
        files,
        1usize..6,
        prop::collection::vec((0.0f64..500.0, any::<u8>()), 0..60),
    )
        .prop_map(|(sizes, disks, raw_reqs)| {
            let n = sizes.len();
            let pop = vec![1.0 / n as f64; n];
            let catalog = FileCatalog::from_parts(sizes, pop);
            // round-robin layout over `disks` disks
            let mut bins: Vec<DiskBin> = (0..disks).map(|_| DiskBin::default()).collect();
            for i in 0..n {
                bins[i % disks].items.push(i);
            }
            let assignment = Assignment { disks: bins };
            let mut reqs: Vec<Request> = raw_reqs
                .into_iter()
                .map(|(time, f)| Request {
                    time,
                    file: FileId((f as usize % n) as u32),
                })
                .collect();
            reqs.sort_by(|a, b| a.time.total_cmp(&b.time));
            let trace = Trace::new(reqs, 500.0);
            MiniWorkload {
                catalog,
                trace,
                assignment,
            }
        })
}

/// A randomized *active* fault plan: independent transient / wake-failure
/// rates, a retry budget down to zero (exhaustion → counted failures), an
/// optional backlog watermark (0 disables shedding) and a free seed.
fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..0.5,
        0.0f64..0.5,
        0u32..4,
        prop_oneof![Just(0usize), 1usize..6],
        any::<u64>(),
    )
        .prop_map(|(tp, wp, retries, shed, seed)| {
            let mut spec = format!(
                "transient:p={tp} | wakefail:p={wp} | retries={retries} | mttr=60 | seed={seed}"
            );
            if shed > 0 {
                spec.push_str(&format!(" | shed={shed}"));
            }
            FaultPlan::parse(&spec).expect("generated spec parses")
        })
}

fn discipline_strategy() -> impl Strategy<Value = DisciplineChoice> {
    prop_oneof![
        Just(DisciplineChoice::Fifo),
        (1.0f64..120.0)
            .prop_map(|aging_bound_s| DisciplineChoice::ShortestJobFirst { aging_bound_s }),
        Just(DisciplineChoice::ElevatorBatch),
    ]
}

fn threshold_strategy() -> impl Strategy<Value = ThresholdPolicy> {
    prop_oneof![
        Just(ThresholdPolicy::Never),
        Just(ThresholdPolicy::BreakEven),
        (1.0f64..300.0).prop_map(ThresholdPolicy::Fixed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn time_is_conserved_across_states(w in mini_workload(), th in threshold_strategy()) {
        let cfg = SimConfig::paper_default().with_threshold(th);
        let report = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        let covered = report.energy.total_seconds();
        let expected = report.sim_time_s * report.disks as f64;
        prop_assert!((covered - expected).abs() < 1e-6 * expected.max(1.0),
            "covered {covered} vs {expected}");
    }

    #[test]
    fn every_request_is_answered_no_faster_than_service(
        w in mini_workload(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default().with_threshold(th);
        let report = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        prop_assert_eq!(report.responses.len(), w.trace.len());
        if w.trace.is_empty() {
            return Ok(());
        }
        let timer = ServiceTimer::new(&cfg.disk);
        let min_service = w
            .catalog
            .iter()
            .map(|f| timer.service_time(f.size_bytes))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(report.response_quantile(0.0) >= min_service - 1e-9,
            "response below the smallest possible service time");
    }

    #[test]
    fn energy_bounded_between_standby_and_max_power(
        w in mini_workload(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default().with_threshold(th);
        let report = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        let t = report.energy.total_seconds();
        let spec = DiskSpec::seagate_st3500630as();
        prop_assert!(report.energy.total_joules() >= spec.standby_power_w * t - 1e-6);
        prop_assert!(report.energy.total_joules() <= spec.spin_up_power_w * t + 1e-6);
    }

    #[test]
    fn never_policy_never_sleeps(w in mini_workload()) {
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let report = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        prop_assert_eq!(report.spin_downs, 0);
        prop_assert_eq!(report.spin_ups, 0);
        prop_assert_eq!(report.energy.seconds_in(PowerState::Standby), 0.0);
        prop_assert_eq!(report.energy.seconds_in(PowerState::SpinningUp), 0.0);
    }

    #[test]
    fn spin_bookkeeping_is_consistent(w in mini_workload(), fixed in 1.0f64..120.0) {
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(fixed));
        let report = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        // A spin-up can only follow a spin-down.
        prop_assert!(report.spin_ups <= report.spin_downs);
        // Transitional residency equals count × fixed transition time.
        let spec = &cfg.disk;
        let down_s = report.energy.seconds_in(PowerState::SpinningDown);
        prop_assert!((down_s - report.spin_downs as f64 * spec.spin_down_time_s).abs() < 1e-6,
            "spin-down residency {down_s} vs {} transitions", report.spin_downs);
        let up_s = report.energy.seconds_in(PowerState::SpinningUp);
        prop_assert!((up_s - report.spin_ups as f64 * spec.spin_up_time_s).abs() < 1e-6);
    }

    #[test]
    fn sleepier_policies_never_serve_fewer_requests(w in mini_workload()) {
        let sleepy = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(5.0));
        let awake = SimConfig::paper_default().with_threshold(ThresholdPolicy::Never);
        let a = Simulator::run(&w.catalog, &w.trace, &w.assignment, &sleepy).unwrap();
        let b = Simulator::run(&w.catalog, &w.trace, &w.assignment, &awake).unwrap();
        prop_assert_eq!(a.responses.len(), b.responses.len());
        // and the awake fleet is at least as fast on average
        prop_assert!(b.responses.mean() <= a.responses.mean() + 1e-9);
    }

    #[test]
    fn simulation_is_deterministic(w in mini_workload(), th in threshold_strategy()) {
        let cfg = SimConfig::paper_default().with_threshold(th);
        let a = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        let b = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        prop_assert_eq!(a.energy.total_joules(), b.energy.total_joules());
        prop_assert_eq!(a.responses, b.responses);
        prop_assert_eq!(a.spin_downs, b.spin_downs);
    }

    #[test]
    fn streamed_peak_event_queue_is_fleet_bound(
        w in mini_workload(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default().with_threshold(th);
        let report = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        // At most one service-completion and one live timer per disk (plus
        // transiently retired entries) — never the trace length.
        prop_assert!(
            report.peak_event_queue_max() <= 3 * report.disks + 1,
            "peak {} for {} disks and {} requests",
            report.peak_event_queue_max(), report.disks, w.trace.len()
        );
    }

    // Fault conservation: whatever goes wrong, every arrival is
    // accounted for exactly once — completed, shed, failed, or stranded
    // in flight by an unrepaired outage — under every queue discipline
    // and every shard count, with the sharded counters merging exactly.
    #[test]
    fn fault_conservation_arrivals_balance_outcomes(
        w in mini_workload(),
        th in threshold_strategy(),
        plan in fault_plan_strategy(),
        discipline in discipline_strategy(),
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let mut cfg = SimConfig::paper_default()
            .with_threshold(th)
            .with_shards(shards);
        cfg.discipline = discipline;
        cfg.faults = plan;
        let report = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        let a = report.availability.as_ref().expect("active plan has stats");
        prop_assert_eq!(a.arrivals as usize, w.trace.len(), "every request arrives");
        prop_assert!(
            a.conservation_holds(),
            "arrivals {} != completed {} + shed {} + failed {} + in-flight {}",
            a.arrivals, a.completed, a.shed, a.failed, a.in_flight
        );
        // Only completions carry a response sample.
        prop_assert_eq!(report.responses.len() as u64, a.completed);
        // Downtime can never exceed the per-disk wall clock.
        for (d, &down) in a.per_disk_downtime_s.iter().enumerate() {
            prop_assert!(
                (0.0..=report.sim_time_s + 1e-9).contains(&down),
                "disk {} downtime {} vs sim time {}", d, down, report.sim_time_s
            );
        }
        prop_assert!((0.0..=1.0).contains(&a.availability));
    }

    // The streaming completion log's k-way merge: per-shard writers each
    // emit their own canonically ordered stream; the merger must weave
    // them back into exactly the unsharded sequence — same records, same
    // byte count, same FNV-1a digest — for any trace and any shard count,
    // and those bytes are the ones std formatting renders.
    #[test]
    fn completion_log_merge_matches_the_unsharded_log(
        w in mini_workload(),
        th in threshold_strategy(),
        shards in prop_oneof![Just(2usize), Just(3), Just(8)],
    ) {
        let base = SimConfig::paper_default()
            .with_threshold(th)
            .with_completion_log();
        let solo = Simulator::run(&w.catalog, &w.trace, &w.assignment, &base).unwrap();
        let sharded = Simulator::run(
            &w.catalog, &w.trace, &w.assignment, &base.clone().with_shards(shards),
        )
        .unwrap();
        let a = solo.completions.as_ref().expect("memory-mode records");
        let b = sharded.completions.as_ref().expect("merged records");
        prop_assert_eq!(a.len(), w.trace.len(), "one record per request");
        // Canonical (time, req) order with ties broken by request seq.
        for win in b.windows(2) {
            prop_assert!(
                win[0].time_s < win[1].time_s
                    || (win[0].time_s == win[1].time_s && win[0].req < win[1].req),
                "merged stream out of canonical order"
            );
        }
        prop_assert_eq!(a, b, "S={}: merged records", shards);
        let sa = solo.completion_log.as_ref().expect("summary");
        let sb = sharded.completion_log.as_ref().expect("summary");
        prop_assert_eq!(sa.records, sb.records);
        prop_assert_eq!(sa.bytes, sb.bytes);
        prop_assert_eq!(sa.fnv1a, sb.fnv1a);
        // The in-tree encoder against std formatting: the kept records
        // rendered with `format!` give the summary's byte count and digest.
        let (bytes, fnv1a) = std_rendered_log(a);
        prop_assert_eq!(sa.bytes, bytes, "log bytes vs the std rendering");
        prop_assert_eq!(sa.fnv1a, fnv1a, "log digest vs the std rendering");
    }

    #[test]
    fn fleet_extension_only_adds_idle_or_sleeping_disks(w in mini_workload()) {
        let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::BreakEven);
        let base = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        let bigger = Simulator::run_from_source(
            &w.catalog,
            InMemorySource::new(&w.trace),
            &w.assignment,
            &cfg,
            w.assignment.disk_slots() + 3,
        )
        .unwrap();
        // Responses are identical — extra disks never serve anything.
        prop_assert_eq!(base.responses, bigger.responses);
        // Energy strictly grows (idle/standby power of the extras).
        prop_assert!(bigger.energy.total_joules() >= base.energy.total_joules());
    }
}
