//! Property-based tests for the workload generators and trace containers.

use std::io::{BufRead, BufReader};

use proptest::prelude::*;
use spindown_workload::arrivals::PoissonProcess;
use spindown_workload::bins::SizeBins;
use spindown_workload::sizes::RankSizeModel;
use spindown_workload::source::{CsvTraceSource, TraceSource};
use spindown_workload::trace::{Request, TraceIoError, MAX_TRACE_TIME_S};
use spindown_workload::zipf::{generalized_harmonic, ZipfDistribution};
use spindown_workload::{FileCatalog, FileId, Trace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zipf_pmf_always_sums_to_one(n in 1usize..2_000, a in 0.0f64..3.0) {
        let z = ZipfDistribution::new(n, a);
        let sum: f64 = (1..=n).map(|r| z.pmf(r)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zipf_pmf_is_monotone_nonincreasing(n in 2usize..500, a in 0.0f64..3.0) {
        let z = ZipfDistribution::new(n, a);
        for r in 1..n {
            prop_assert!(z.pmf(r) >= z.pmf(r + 1) - 1e-15);
        }
    }

    #[test]
    fn zipf_quantile_inverts_cdf(n in 1usize..300, a in 0.0f64..2.5, u in 0.0f64..1.0) {
        let z = ZipfDistribution::new(n, a);
        let rank = z.quantile(u);
        prop_assert!(rank >= 1 && rank <= n);
        // cdf(rank-1) < u <= cdf(rank), up to float wiggle at edges
        let cdf_at = |r: usize| -> f64 { (1..=r).map(|k| z.pmf(k)).sum() };
        if rank > 1 {
            prop_assert!(cdf_at(rank - 1) < u + 1e-9);
        }
    }

    #[test]
    fn harmonic_is_monotone_in_n(n in 1usize..500, a in 0.0f64..3.0) {
        prop_assert!(generalized_harmonic(n + 1, a) > generalized_harmonic(n, a));
    }

    #[test]
    fn rank_size_model_is_monotone_and_bounded(
        n in 1usize..2_000, min_mb in 1u64..100, extra in 0u64..10_000
    ) {
        let min = min_mb * 1_000_000;
        let max = min + extra * 1_000_000;
        let m = RankSizeModel::with_endpoints(n, min, max);
        let mut last = u64::MAX;
        for k in 1..=n {
            let s = m.size_of_rank(k);
            prop_assert!(s <= last);
            // rounding can undershoot min by at most 1 byte
            prop_assert!(s + 1 >= min && s <= max + 1);
            last = s;
        }
        prop_assert_eq!(m.size_of_rank(1), max);
    }

    #[test]
    fn poisson_arrivals_sorted_and_bounded(rate in 0.01f64..50.0, seed in any::<u64>()) {
        let mut p = PoissonProcess::new(rate, seed);
        let arrivals = p.arrivals_until(50.0);
        for w in arrivals.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &t in &arrivals {
            prop_assert!((0.0..50.0).contains(&t));
        }
    }

    #[test]
    fn trace_csv_roundtrip(raw in prop::collection::vec((0.0f64..1e4, 0u32..500), 0..100)) {
        let mut reqs: Vec<Request> = raw
            .into_iter()
            .map(|(time, f)| Request { time, file: FileId(f) })
            .collect();
        reqs.sort_by(|a, b| a.time.total_cmp(&b.time));
        let trace = Trace::new(reqs, 1e4);
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(std::io::Cursor::new(&buf), Some(1e4)).unwrap();
        prop_assert_eq!(back.len(), trace.len());
        for (a, b) in back.requests().iter().zip(trace.requests()) {
            prop_assert_eq!(a.file, b.file);
            prop_assert!((a.time - b.time).abs() < 1e-5);
        }
    }

    #[test]
    fn per_file_counts_partition_the_trace(
        raw in prop::collection::vec((0.0f64..100.0, 0u32..20), 0..200)
    ) {
        let mut reqs: Vec<Request> = raw
            .into_iter()
            .map(|(time, f)| Request { time, file: FileId(f) })
            .collect();
        reqs.sort_by(|a, b| a.time.total_cmp(&b.time));
        let trace = Trace::new(reqs, 100.0);
        let mut counts = [0u64; 20];
        for r in trace.requests() {
            counts[r.file.index()] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<u64>() as usize, trace.len());
    }

    #[test]
    fn size_bins_cover_every_sample(
        sizes in prop::collection::vec(1u64..1_000_000_000_000, 1..200),
        bins in 1usize..100
    ) {
        let mut b = SizeBins::new(bins, 1_000, 1_000_000_000_000);
        for &bytes in &sizes {
            b.record(bytes);
        }
        prop_assert_eq!(b.counts().iter().sum::<u64>() as usize, sizes.len());
    }

    #[test]
    fn catalog_loads_scale_linearly_with_rate(rate in 0.01f64..10.0) {
        let catalog = FileCatalog::paper_table1(200, 0);
        let base = catalog.loads(1.0, |b| b as f64 / 72.0e6);
        let scaled = catalog.loads(rate, |b| b as f64 / 72.0e6);
        for (b, s) in base.iter().zip(&scaled) {
            prop_assert!((s - b * rate).abs() < 1e-12);
        }
    }
}

/// What a CSV decode produced: every request as `(time bits, file id)`,
/// then the error it stopped at as `(variant, line, quoted row)`.
#[derive(Debug, PartialEq)]
struct Decoded {
    rows: Vec<(u64, u32)>,
    error: Option<(&'static str, usize, String)>,
}

fn error_key(e: TraceIoError) -> (&'static str, usize, String) {
    match e {
        TraceIoError::Malformed(line, text) => ("Malformed", line, text),
        TraceIoError::OutOfOrder(line) => ("OutOfOrder", line, String::new()),
        TraceIoError::BeyondHorizon(line) => ("BeyondHorizon", line, String::new()),
        other => ("other", 0, other.to_string()),
    }
}

/// Drain a [`CsvTraceSource`] over `reader` to its end or first error.
fn stream<R: BufRead>(reader: R, horizon: f64) -> Decoded {
    let mut src = CsvTraceSource::from_reader(reader, horizon).unwrap();
    let mut rows = Vec::new();
    loop {
        match src.next_request() {
            Ok(Some(r)) => rows.push((r.time.to_bits(), r.file.0)),
            Ok(None) => return Decoded { rows, error: None },
            Err(e) => {
                return Decoded {
                    rows,
                    error: Some(error_key(e)),
                }
            }
        }
    }
}

/// The row semantics the CSV reader keeps, written the slow way: split
/// the bytes on `\n`, trim each line, skip blanks and a first-line
/// header, split on `,` and take std's parse of exactly two fields.
fn line_oracle(bytes: &[u8], horizon: f64) -> Decoded {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        lines.pop();
    }
    let mut rows = Vec::new();
    let mut last = 0.0;
    for (i, raw) in lines.into_iter().enumerate() {
        let line = i + 1;
        let stop = |rows, kind, text: &str| Decoded {
            rows,
            error: Some((kind, line, text.to_owned())),
        };
        let Ok(text) = std::str::from_utf8(raw) else {
            return stop(rows, "Malformed", String::from_utf8_lossy(raw).trim());
        };
        let text = text.trim();
        if text.is_empty() || (line == 1 && text.starts_with("time")) {
            continue;
        }
        let mut fields = text.split(',');
        let parsed = match (fields.next(), fields.next(), fields.next()) {
            (Some(t), Some(f), None) => t
                .trim()
                .parse::<f64>()
                .ok()
                .zip(f.trim().parse::<u32>().ok()),
            _ => None,
        };
        let Some((time, id)) = parsed.filter(|(t, _)| (0.0..=MAX_TRACE_TIME_S).contains(t)) else {
            return stop(rows, "Malformed", text);
        };
        if time > horizon {
            return stop(rows, "BeyondHorizon", "");
        }
        if time < last {
            return stop(rows, "OutOfOrder", "");
        }
        last = time;
        rows.push((time.to_bits(), id));
    }
    Decoded { rows, error: None }
}

/// `n` pseudo-random decimal digits drawn from `seed`.
fn digits(seed: u64, n: usize) -> String {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            char::from(b'0' + (x >> 60) as u8 % 10)
        })
        .collect()
}

/// One CSV row (with its line ending) in one of the forms a trace file
/// may hold. Row `i`'s time has integer part `i + 1`, so rows ascend
/// unless the form itself breaks the order; forms 20.. are canonical.
fn csv_row(i: usize, kind: u8, r: u64) -> Vec<u8> {
    let t = i + 1;
    let id = (r >> 20) % 500;
    let frac = r % 1000;
    let row = match kind {
        0 => format!("{t},{id}\n"),
        1 => format!("+{t}.5,{id}\n"),
        2 => format!("{t}5e-1,{id}\n"),
        3 => format!("{t}.,{id}\n"),
        4 => format!(".{frac},{id}\n"),
        5 => format!(" {t}.25 , {id} \n"),
        6 => format!("{t}.0,{id},x\n"),
        7 => format!("{t}.{},{id}\n", digits(r, 18 + (r >> 40) as usize % 8)),
        8 => format!("0.{},{id}\n", digits(r, 18 + (r >> 40) as usize % 8)),
        9 => format!("{t}.{frac:0>w$},{id}\n", w = 22 + (r & 1) as usize),
        10 => format!("0.{frac:0>w$},{id}\n", w = 22 + (r & 1) as usize),
        11 => format!("000{t}.500,00{id}\n"),
        12 => format!("{t}.5,{}\n", u64::from(u32::MAX) + (r & 1)),
        13 => format!("{t}.75,{id}\r\n"),
        14 => format!("{},{id}\n", ["nan", "inf", "-0.0", "-1.5"][r as usize % 4]),
        15 => ["\n", "  \n", "\r\n", "\t \r\n"][r as usize % 4].to_owned(),
        16 => {
            return [
                format!("{t}.5,").as_bytes(),
                b"\xff",
                format!("{id}\n").as_bytes(),
            ]
            .concat()
        }
        17 => format!("{t}.{frac}\n"),
        18 => format!("{t}.{frac};{id}\n"),
        19 => format!("{}{t}.{frac},{id}\n", "0".repeat(20)),
        _ => format!("{t}.{frac},{id}\n"),
    };
    row.into_bytes()
}

fn csv_bytes(header: bool, rows: &[(u8, u64)], final_newline: bool) -> Vec<u8> {
    let mut out = Vec::new();
    if header {
        out.extend_from_slice(b"time_s,file_id\n");
    }
    for (i, &(kind, r)) in rows.iter().enumerate() {
        out.extend(csv_row(i, kind, r));
    }
    if !final_newline && out.last() == Some(&b'\n') {
        out.pop();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The in-place decoder against the line oracle on rows mixing the
    // canonical form with every form std's parse decides: the streamed
    // result, and `Trace::read_csv` through a one-byte buffer (every row
    // straddles a fill), give the oracle's time bits and ids, or its
    // error variant at its line.
    #[test]
    fn csv_decoder_matches_the_line_oracle(
        rows in prop::collection::vec((0u8..96, any::<u64>()), 0..40),
        header in any::<bool>(),
        final_newline in any::<bool>(),
        horizon_rows in 0usize..48,
    ) {
        let bytes = csv_bytes(header, &rows, final_newline);
        let horizon = horizon_rows as f64 + 0.5;
        prop_assert_eq!(stream(&bytes[..], horizon), line_oracle(&bytes, horizon));
        let oracle = line_oracle(&bytes, MAX_TRACE_TIME_S);
        let batch = match Trace::read_csv(BufReader::with_capacity(1, &bytes[..]), None) {
            Ok(trace) => Decoded {
                rows: trace.requests().iter().map(|r| (r.time.to_bits(), r.file.0)).collect(),
                error: None,
            },
            Err(e) => Decoded { rows: oracle.rows.clone(), error: Some(error_key(e)) },
        };
        prop_assert_eq!(batch, oracle);
    }

    // A lone `int.frac,id` row decodes to std's bits whichever side of
    // the exact fast path it falls on (up to 16 integer and 25 fraction
    // digits, leading zeros included).
    #[test]
    fn decimal_rows_decode_to_std_bits(
        int_digits in 1usize..17,
        frac_digits in 0usize..26,
        seed in any::<u64>(),
        id in any::<u32>(),
    ) {
        let mut time = digits(seed, int_digits);
        if frac_digits > 0 {
            time = format!("{time}.{}", digits(seed.rotate_left(17), frac_digits));
        }
        let row = format!("{time},{id}\n");
        prop_assert_eq!(
            stream(row.as_bytes(), MAX_TRACE_TIME_S),
            line_oracle(row.as_bytes(), MAX_TRACE_TIME_S)
        );
    }
}

/// A `write_csv` trace with a header, blank lines and CRLF rows streams
/// the same requests and errors through every buffer capacity from 1 to
/// 48 bytes as through one whole buffer: every way a row can straddle
/// two fills decodes alike.
#[test]
fn every_buffer_capacity_streams_the_same() {
    let catalog = FileCatalog::paper_table1(100, 0);
    let trace = Trace::poisson(&catalog, 2.0, 120.0, 5);
    let mut written = Vec::new();
    trace.write_csv(&mut written).unwrap();
    let mut clean = Vec::new();
    for (i, line) in written.split_inclusive(|&b| b == b'\n').enumerate() {
        if i % 3 == 1 {
            clean.extend_from_slice(&line[..line.len() - 1]);
            clean.extend_from_slice(b"\r\n");
        } else {
            clean.extend_from_slice(line);
        }
        if i % 7 == 2 {
            clean.extend_from_slice(if i % 2 == 0 { b"\n" } else { b" \r\n" });
        }
    }
    let inputs = [
        clean.clone(),
        [&clean[..], b"0.5,1\r\n"].concat(),
        [&clean[..], b"1e9,\xff\r\n2.0,3"].concat(),
        clean[..clean.len() - 2].to_vec(),
    ];
    for (n, bytes) in inputs.iter().enumerate() {
        let whole = stream(&bytes[..], 130.0);
        assert!(whole.rows.len() >= trace.len() - 1, "input {n}: {whole:?}");
        assert_eq!(whole, line_oracle(bytes, 130.0), "input {n}");
        for k in 1..=48 {
            assert_eq!(
                stream(BufReader::with_capacity(k, &bytes[..]), 130.0),
                whole,
                "input {n}, capacity {k}"
            );
        }
    }
}
