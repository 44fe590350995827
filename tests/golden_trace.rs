//! Golden-trace regression fixture (tier-1): a small deterministic replay
//! whose per-disk `(energy_j, mean_response_s, p95_response_s)` table was
//! captured from the engine *before* the queue-discipline refactor, so the
//! default FIFO path is pinned bit-for-bit (to printed precision) to the
//! pre-discipline engine. Any engine change that perturbs service timing,
//! dispatch order, spin-down scheduling or energy integration fails here
//! with a readable expected-vs-actual diff.
//!
//! ## Updating the fixture (deliberate engine-semantics changes only)
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! git diff tests/fixtures/golden_expected.csv   # review, then commit
//! ```
//!
//! The test rewrites `tests/fixtures/golden_expected.csv` from the current
//! engine and fails once (so an update can never silently pass CI); rerun
//! without the variable to verify. Never update to paper over an
//! unexplained diff — that is the regression this fixture exists to catch.
//!
//! The trace (`tests/fixtures/golden_trace.csv`) covers simultaneous
//! arrivals, queueing behind a large transfer, an arrival mid-spin-down,
//! and a multi-request pile-up during a spin-up — every engine code path
//! short of the cache.

use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;

use spindown::packing::{Assignment, DiskBin};
use spindown::sim::config::{SimConfig, ThresholdPolicy};
use spindown::sim::engine::Simulator;
use spindown::workload::{FileCatalog, Trace};

const MB: u64 = 1_000_000;
const TRACE: &str = "tests/fixtures/golden_trace.csv";
const EXPECTED: &str = "tests/fixtures/golden_expected.csv";
/// Values are compared to the printed precision of the fixture.
const TOL: f64 = 1e-6;

/// Three disks, two files each, mixed sizes; fixed 20 s idleness
/// threshold so the trace exercises spin-downs and wake-ups.
fn fixture() -> (FileCatalog, Assignment, SimConfig) {
    let sizes = vec![72 * MB, 8 * MB, 300 * MB, 2 * MB, 100 * MB, 50 * MB];
    let catalog = FileCatalog::from_parts(sizes, vec![1.0 / 6.0; 6]);
    let layout = [0usize, 0, 1, 1, 2, 2];
    let mut bins: Vec<DiskBin> = (0..3).map(|_| DiskBin::default()).collect();
    for (file, &d) in layout.iter().enumerate() {
        bins[d].items.push(file);
    }
    let cfg = SimConfig::paper_default().with_threshold(ThresholdPolicy::Fixed(20.0));
    (catalog, Assignment { disks: bins }, cfg)
}

fn compute_rows() -> Vec<(f64, f64, f64)> {
    let (catalog, assignment, cfg) = fixture();
    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    let report = Simulator::run(&catalog, &trace, &assignment, &cfg).expect("simulates");
    assert_eq!(report.responses.len(), trace.len(), "requests dropped");
    (0..report.disks)
        .map(|d| {
            (
                report.per_disk_energy[d].total_joules(),
                report.per_disk_responses[d].mean(),
                report.per_disk_response_quantile(d, 0.95),
            )
        })
        .collect()
}

fn render(rows: &[(f64, f64, f64)]) -> String {
    let mut s = String::from("disk,energy_j,mean_response_s,p95_response_s\n");
    for (d, (e, mean, p95)) in rows.iter().enumerate() {
        writeln!(s, "{d},{e:.9},{mean:.9},{p95:.9}").unwrap();
    }
    s
}

fn parse_expected(text: &str) -> Vec<(f64, f64, f64)> {
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<f64> = l
                .split(',')
                .skip(1)
                .map(|v| v.parse().expect("numeric fixture cell"))
                .collect();
            (f[0], f[1], f[2])
        })
        .collect()
}

#[test]
fn golden_trace_per_disk_table_matches_the_pre_discipline_engine() {
    let rows = compute_rows();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(Path::new(EXPECTED), render(&rows)).expect("fixture writable");
        panic!(
            "golden fixture rewritten from the current engine; review the diff, \
             commit it, and rerun without UPDATE_GOLDEN"
        );
    }
    let text = std::fs::read_to_string(EXPECTED).expect("golden expected fixture present");
    let expected = parse_expected(&text);
    assert_eq!(expected.len(), rows.len(), "fixture row count");
    let mut diff = String::new();
    for (d, (exp, act)) in expected.iter().zip(&rows).enumerate() {
        for (col, e, a) in [
            ("energy_j", exp.0, act.0),
            ("mean_response_s", exp.1, act.1),
            ("p95_response_s", exp.2, act.2),
        ] {
            if (e - a).abs() > TOL * e.abs().max(1.0) {
                writeln!(diff, "  disk {d} {col}: expected {e:.9}, got {a:.9}").unwrap();
            }
        }
    }
    assert!(
        diff.is_empty(),
        "golden trace diverged from the recorded engine behaviour:\n{diff}\n\
         full expected table:\n{text}\nfull actual table:\n{}\n\
         If this change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_trace",
        render(&rows)
    );
}

/// The same fixture replayed through every `TraceSource` front — the
/// in-memory cursor and the buffered CSV streamer reading the fixture file
/// directly — must land on the identical per-disk table: the source layer
/// is a pure arrival feed, never a semantic change.
#[test]
fn golden_trace_table_is_trace_source_invariant() {
    use spindown::sim::engine::Simulator;
    use spindown::workload::{CsvTraceSource, InMemorySource};
    let (catalog, assignment, cfg) = fixture();
    let text = std::fs::read_to_string(EXPECTED).expect("golden expected fixture present");
    let expected = parse_expected(&text);

    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    let in_memory = Simulator::run_from_source(
        &catalog,
        InMemorySource::new(&trace),
        &assignment,
        &cfg,
        assignment.disk_slots(),
    )
    .expect("in-memory source simulates");
    let csv_streamed = Simulator::run_from_source(
        &catalog,
        CsvTraceSource::open(TRACE, Some(600.0)).expect("fixture opens"),
        &assignment,
        &cfg,
        assignment.disk_slots(),
    )
    .expect("csv source simulates");

    for report in [&in_memory, &csv_streamed] {
        assert_eq!(report.responses.len(), trace.len(), "requests dropped");
        for (d, exp) in expected.iter().enumerate() {
            assert!(
                (report.per_disk_energy[d].total_joules() - exp.0).abs() < TOL * exp.0.max(1.0)
            );
            assert!((report.per_disk_responses[d].mean() - exp.1).abs() < TOL);
            assert!((report.per_disk_response_quantile(d, 0.95) - exp.2).abs() < TOL);
        }
    }
}

/// The same fixture with the canonical two-state ladder set *explicitly*
/// on the spec must land on the identical table — the ladder refactor's
/// pin: an explicit `PowerLadder::two_state` is the derived default, not a
/// different engine.
#[test]
fn golden_trace_table_is_ladder_representation_invariant() {
    use spindown::disk::PowerLadder;
    let (catalog, assignment, cfg) = fixture();
    let cfg = cfg
        .clone()
        .with_ladder(Some(PowerLadder::two_state(&cfg.disk)));
    let text = std::fs::read_to_string(EXPECTED).expect("golden expected fixture present");
    let expected = parse_expected(&text);
    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    let report = Simulator::run(&catalog, &trace, &assignment, &cfg).expect("simulates");
    assert_eq!(report.responses.len(), trace.len(), "requests dropped");
    for (d, exp) in expected.iter().enumerate() {
        assert!((report.per_disk_energy[d].total_joules() - exp.0).abs() < TOL * exp.0.max(1.0));
        assert!((report.per_disk_responses[d].mean() - exp.1).abs() < TOL);
        assert!((report.per_disk_response_quantile(d, 0.95) - exp.2).abs() < TOL);
    }
}

/// The same fixture replayed with an explicit FIFO discipline must land on
/// the identical table — the `--ignored` CI smoke lane runs this alongside
/// the 1M-request replay.
#[test]
#[ignore = "smoke lane: cargo test -- --ignored"]
fn golden_trace_table_is_discipline_invariant() {
    use spindown::sim::discipline::DisciplineChoice;
    let (catalog, assignment, cfg) = fixture();
    let raw = std::fs::File::open(TRACE).expect("golden trace fixture present");
    let trace = Trace::read_csv(BufReader::new(raw), Some(600.0)).expect("fixture parses");
    let text = std::fs::read_to_string(EXPECTED).expect("golden expected fixture present");
    let expected = parse_expected(&text);
    let cfg = cfg.with_discipline(DisciplineChoice::Fifo);
    let report = Simulator::run(&catalog, &trace, &assignment, &cfg).expect("simulates");
    for (d, exp) in expected.iter().enumerate() {
        assert!((report.per_disk_energy[d].total_joules() - exp.0).abs() < TOL * exp.0.max(1.0));
        assert!((report.per_disk_responses[d].mean() - exp.1).abs() < TOL);
        assert!((report.per_disk_response_quantile(d, 0.95) - exp.2).abs() < TOL);
    }
}
