//! Malformed-input hardening for the CSV trace parsers: every way a trace
//! file can be broken is pinned to a typed [`TraceIoError`] carrying the
//! 1-based line number of the offending row — never a panic, never a
//! silently skipped line. Each variant has its own fixture under
//! `tests/fixtures/malformed/` and is driven through both parsers: the
//! streaming [`CsvTraceSource`] (the replay path) and the batch
//! [`Trace::read_csv`] (the materialising path).

use std::io::BufReader;
use std::path::PathBuf;

use spindown_workload::source::{CsvTraceSource, TraceSource};
use spindown_workload::trace::{TraceIoError, MAX_TRACE_TIME_S};
use spindown_workload::Trace;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/malformed")
        .join(name)
}

/// Drain the streaming source until it errors; panics if it never does.
fn stream_error(name: &str, horizon: f64) -> TraceIoError {
    let mut src = CsvTraceSource::open(fixture(name), Some(horizon)).expect("fixture opens");
    loop {
        match src.next_request() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("{name}: streaming parser accepted a malformed fixture"),
            Err(e) => return e,
        }
    }
}

fn batch_error(name: &str) -> TraceIoError {
    let raw = std::fs::File::open(fixture(name)).expect("fixture opens");
    Trace::read_csv(BufReader::new(raw), Some(100.0))
        .err()
        .unwrap_or_else(|| panic!("{name}: batch parser accepted a malformed fixture"))
}

/// Both parsers must report `Malformed` at `line`, quoting the row text in
/// the error message so the user can find it without opening the file.
fn assert_malformed_both(name: &str, line: usize, quoted: &str) {
    for (parser, err) in [
        ("stream", stream_error(name, 100.0)),
        ("batch", batch_error(name)),
    ] {
        match &err {
            TraceIoError::Malformed(at, text) => {
                assert_eq!(*at, line, "{name}/{parser}: wrong line number");
                assert_eq!(text, quoted, "{name}/{parser}: wrong quoted row");
            }
            other => panic!("{name}/{parser}: expected Malformed, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("line {line}")),
            "{name}/{parser}: message {msg:?} must name the line"
        );
    }
}

#[test]
fn garbage_row_is_malformed_at_its_line() {
    // A JSON-ish line: splits on ',' into one comma-free field, so the
    // "two fields" check itself rejects it.
    assert_malformed_both("garbage.csv", 3, "{\"time\": 2.0}");
}

#[test]
fn missing_field_is_malformed_at_its_line() {
    assert_malformed_both("missing_field.csv", 3, "2.5");
}

#[test]
fn non_numeric_time_is_malformed_at_its_line() {
    assert_malformed_both("bad_time.csv", 3, "two,4");
}

#[test]
fn non_numeric_file_id_is_malformed_at_its_line() {
    assert_malformed_both("bad_file_id.csv", 3, "2.0,banana");
}

#[test]
fn negative_file_id_is_malformed_at_its_line() {
    // u32 parse rejects the sign; file ids are indices, not offsets.
    assert_malformed_both("negative_file_id.csv", 3, "2.0,-7");
}

#[test]
fn nan_time_is_malformed_at_its_line() {
    // "nan" *parses* as f64, so this exercises the finiteness check, not
    // the parse error.
    assert_malformed_both("nan_time.csv", 3, "nan,4");
}

#[test]
fn negative_time_is_malformed_at_its_line() {
    assert_malformed_both("negative_time.csv", 3, "-5.0,4");
}

#[test]
fn time_past_the_bound_is_malformed_at_its_line() {
    // 1e300 s is finite and in order; only the `MAX_TRACE_TIME_S` bound
    // (the histogram's 2⁴⁰ s top octave) keeps it out of the replay.
    assert_malformed_both("huge_time.csv", 3, "1e300,4");
    // The bound itself is a valid time; the next float past it is not.
    let at = |t: f64| Trace::read_csv(format!("{t},0\n").as_bytes(), None);
    assert_eq!(at(MAX_TRACE_TIME_S).unwrap().horizon(), MAX_TRACE_TIME_S);
    let past = f64::from_bits(MAX_TRACE_TIME_S.to_bits() + 1);
    assert!(matches!(at(past), Err(TraceIoError::Malformed(1, _))));
}

#[test]
fn out_of_order_row_is_typed_at_its_line() {
    match stream_error("out_of_order.csv", 100.0) {
        TraceIoError::OutOfOrder(3) => {}
        other => panic!("stream: expected OutOfOrder(3), got {other:?}"),
    }
    match batch_error("out_of_order.csv") {
        TraceIoError::OutOfOrder(3) => {}
        other => panic!("batch: expected OutOfOrder(3), got {other:?}"),
    }
    let msg = stream_error("out_of_order.csv", 100.0).to_string();
    assert!(msg.contains("line 3"), "message {msg:?} must name the line");
}

#[test]
fn row_beyond_a_declared_horizon_is_typed_at_its_line() {
    // Streaming-only by design: `read_csv` holds the whole file and grows
    // the horizon to fit, so the batch parser accepts this fixture.
    match stream_error("beyond_horizon.csv", 10.0) {
        TraceIoError::BeyondHorizon(3) => {}
        other => panic!("stream: expected BeyondHorizon(3), got {other:?}"),
    }
    let raw = std::fs::File::open(fixture("beyond_horizon.csv")).unwrap();
    let trace = Trace::read_csv(BufReader::new(raw), None).expect("batch grows the horizon");
    assert_eq!(trace.horizon(), 20.0);
}

#[test]
fn open_without_a_horizon_rejects_a_malformed_last_row() {
    // `open(path, None)` takes the horizon from the last row; a malformed
    // last row is the same typed error, at its line, before any streaming.
    let err = CsvTraceSource::open(fixture("nan_time.csv"), None)
        .err()
        .expect("the tail read rejects the fixture");
    assert!(
        matches!(err, TraceIoError::Malformed(3, _)),
        "expected Malformed(3, _), got {err:?}"
    );
    for (name, row) in [
        ("bad_file_id.csv", "2.0,banana"),
        ("bad_time.csv", "two,4"),
        ("garbage.csv", "{\"time\": 2.0}"),
        ("huge_time.csv", "1e300,4"),
        ("nan_time.csv", "nan,4"),
        ("negative_file_id.csv", "2.0,-7"),
        ("negative_time.csv", "-5.0,4"),
    ] {
        match CsvTraceSource::open(fixture(name), None) {
            Err(TraceIoError::Malformed(3, text)) => assert_eq!(text, row, "{name}"),
            Err(other) => panic!("{name}: expected Malformed(3, _), got {other:?}"),
            Ok(_) => panic!("{name}: opened without a horizon"),
        }
    }
}

#[test]
fn open_without_a_horizon_streams_up_to_the_first_bad_row() {
    // A valid last row fixes the horizon; errors in the rows before it
    // surface while streaming, at their own line.
    let open = |name: &str| CsvTraceSource::open(fixture(name), None).expect("last row parses");

    let mut src = open("missing_field.csv");
    assert_eq!(src.horizon(), 3.0);
    assert_eq!(src.next_request().unwrap().unwrap().time, 1.0);
    match src.next_request() {
        Err(TraceIoError::Malformed(3, text)) => assert_eq!(text, "2.5"),
        other => panic!("missing_field: expected Malformed(3, \"2.5\"), got {other:?}"),
    }

    // The first row (5.0) already lies past the last row's time (4.0).
    let mut src = open("out_of_order.csv");
    assert_eq!(src.horizon(), 4.0);
    assert!(matches!(
        src.next_request(),
        Err(TraceIoError::BeyondHorizon(2))
    ));

    let mut src = open("beyond_horizon.csv");
    assert_eq!(src.horizon(), 20.0);
    let mut times = Vec::new();
    while let Some(r) = src.next_request().expect("every row is within the horizon") {
        times.push(r.time);
    }
    assert_eq!(times, [5.0, 20.0]);
}

#[test]
fn rows_before_the_malformed_one_still_stream() {
    // The streaming parser is lazy: valid prefix rows are yielded before
    // the error surfaces, so a replay fails at the bad row, not at open.
    let mut src = CsvTraceSource::open(fixture("bad_time.csv"), Some(100.0)).unwrap();
    let first = src.next_request().unwrap().expect("valid first row");
    assert_eq!(first.time, 1.0);
    assert!(src.next_request().is_err());
}
