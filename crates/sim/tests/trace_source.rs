//! `TraceSource` equivalence properties: the engine driven from a source
//! cursor must be bit-identical to the engine driven from the materialised
//! trace — for the in-memory cursor on arbitrary workloads, for the CSV
//! reader on round-tripped files, and for the synthetic generator against
//! `Trace::poisson` with the same seed.

use proptest::prelude::*;
use spindown_packing::{Assignment, DiskBin};
use spindown_sim::config::{SimConfig, ThresholdPolicy};
use spindown_sim::engine::Simulator;
use spindown_sim::metrics::SimReport;
use spindown_workload::trace::Request;
use spindown_workload::{
    CsvTraceSource, FileCatalog, FileId, InMemorySource, SyntheticSource, Trace,
};

/// A randomized mini-workload (mirrors `disciplines.rs`).
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

fn threshold_strategy() -> impl Strategy<Value = ThresholdPolicy> {
    prop_oneof![
        Just(ThresholdPolicy::Never),
        Just(ThresholdPolicy::BreakEven),
        (1.0f64..300.0).prop_map(ThresholdPolicy::Fixed),
    ]
}

fn assert_bit_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.energy.total_joules(), b.energy.total_joules());
    assert_eq!(a.energy.total_seconds(), b.energy.total_seconds());
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.per_disk_responses, b.per_disk_responses);
    assert_eq!(a.spin_downs, b.spin_downs);
    assert_eq!(a.spin_ups, b.spin_ups);
    assert_eq!(a.per_disk_served, b.per_disk_served);
    assert_eq!(a.sim_time_s, b.sim_time_s);
    // (per_shard_event_peaks is deliberately excluded: it is a per-loop
    // resource bound, not part of the replay's result.)
    assert_eq!(a.completions, b.completions);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // TraceSource::InMemory is the engine's own arrival path: running from
    // the cursor must equal running from the trace, bit for bit.
    #[test]
    fn in_memory_source_is_bit_identical_to_the_trace_engine(
        w in mini_workload(), th in threshold_strategy()
    ) {
        let cfg = SimConfig::paper_default()
            .with_threshold(th)
            .with_completion_log();
        let direct = Simulator::run(&w.catalog, &w.trace, &w.assignment, &cfg).unwrap();
        let sourced = Simulator::run_from_source(
            &w.catalog,
            InMemorySource::new(&w.trace),
            &w.assignment,
            &cfg,
            w.assignment.disk_slots(),
        )
        .unwrap();
        assert_bit_identical(&direct, &sourced);
        // The same path on both sides: even the peak heap size agrees.
        assert_eq!(direct.per_shard_event_peaks, sourced.per_shard_event_peaks);
    }
}

#[test]
fn synthetic_source_replay_is_bit_identical_to_trace_poisson_replay() {
    let catalog = FileCatalog::paper_table1(64, 0);
    let (rate, horizon, seed) = (3.0, 800.0, 9_001);
    let trace = Trace::poisson(&catalog, rate, horizon, seed);
    let mut bins: Vec<DiskBin> = (0..4).map(|_| DiskBin::default()).collect();
    for file in 0..catalog.len() {
        bins[file % 4].items.push(file);
    }
    let assignment = Assignment { disks: bins };
    let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::BreakEven);
    let from_trace = Simulator::run(&catalog, &trace, &assignment, &cfg).unwrap();
    let from_generator = Simulator::run_from_source(
        &catalog,
        SyntheticSource::poisson(&catalog, rate, horizon, seed),
        &assignment,
        &cfg,
        4,
    )
    .unwrap();
    assert_eq!(from_trace.responses.len(), trace.len());
    assert_bit_identical(&from_trace, &from_generator);
}

#[test]
fn csv_source_replay_matches_the_parsed_trace_replay() {
    let catalog = FileCatalog::paper_table1(32, 0);
    let trace = Trace::poisson(&catalog, 2.0, 300.0, 321);
    let mut csv = Vec::new();
    trace.write_csv(&mut csv).unwrap();
    // Parse the whole file the old way…
    let parsed = Trace::read_csv(std::io::Cursor::new(&csv), Some(300.0)).unwrap();
    let mut bins: Vec<DiskBin> = (0..3).map(|_| DiskBin::default()).collect();
    for file in 0..catalog.len() {
        bins[file % 3].items.push(file);
    }
    let assignment = Assignment { disks: bins };
    let cfg = SimConfig::paper_default();
    let from_parsed = Simulator::run(&catalog, &parsed, &assignment, &cfg).unwrap();
    // …and stream it line by line: same simulation.
    let from_stream = Simulator::run_from_source(
        &catalog,
        CsvTraceSource::from_reader(std::io::Cursor::new(&csv), 300.0).unwrap(),
        &assignment,
        &cfg,
        3,
    )
    .unwrap();
    assert_bit_identical(&from_parsed, &from_stream);
}

#[test]
fn unmapped_file_from_a_source_errors_at_arrival() {
    let catalog = FileCatalog::from_parts(vec![1_000_000; 2], vec![0.5, 0.5]);
    let trace = Trace::new(
        vec![Request {
            time: 1.0,
            file: FileId(1),
        }],
        10.0,
    );
    // Assignment covers only file 0.
    let assignment = Assignment {
        disks: vec![DiskBin {
            items: vec![0],
            total_s: 0.0,
            total_l: 0.0,
        }],
    };
    let cfg = SimConfig::paper_default();
    let err =
        Simulator::run_from_source(&catalog, InMemorySource::new(&trace), &assignment, &cfg, 1)
            .unwrap_err();
    assert!(matches!(
        err,
        spindown_sim::engine::SimError::UnmappedFile { file } if file == FileId(1)
    ));
}

#[test]
fn malformed_csv_surfaces_as_a_source_error_mid_replay() {
    let catalog = FileCatalog::from_parts(vec![1_000_000], vec![1.0]);
    let assignment = Assignment {
        disks: vec![DiskBin {
            items: vec![0],
            total_s: 0.0,
            total_l: 0.0,
        }],
    };
    let bad = "time_s,file_id\n1.0,0\nBROKEN\n";
    // The reader thread's own error comes back at every shard count, not
    // a shared copy of it.
    for shards in [1, 2] {
        let cfg = SimConfig::paper_default().with_shards(shards);
        let err = Simulator::run_from_source(
            &catalog,
            CsvTraceSource::from_reader(std::io::Cursor::new(bad), 10.0).unwrap(),
            &assignment,
            &cfg,
            2,
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                spindown_sim::engine::SimError::Source(
                    spindown_workload::trace::TraceIoError::Malformed(3, text)
                ) if text == "BROKEN"
            ),
            "S={shards}: {err:?}"
        );
    }
}
