//! Streaming request sources: feed arrivals to a consumer one at a time.
//!
//! A [`TraceSource`] is the cursor the simulation engine's streamed arrival
//! loop reads from. Where a [`Trace`] materialises every request up front
//! (O(requests) memory), a source hands out requests in time order and
//! holds only O(1) state per implementation — which is what lets a
//! multi-billion-request replay run with resident memory independent of the
//! request count.
//!
//! Implementations:
//!
//! - [`InMemorySource`] — a cursor over an existing [`Trace`]. Identical
//!   semantics to handing the trace to the engine directly
//!   (property-tested bit-identical in `crates/sim/tests/trace_source.rs`).
//! - [`CsvTraceSource`] — a reader of the CSV format [`Trace::write_csv`]
//!   produces (`time_s,file_id` rows). It decodes each row in place from
//!   the reader's own buffer: a byte scan finds the newline, and a
//!   canonical row (`D+[.D+],D+`) is parsed by a digit loop whose `f64`
//!   is exact, so it has the bits std's parse gives. Every other row
//!   (header, blank, whitespace, signs, exponents, …) goes through std's
//!   parse. Memory is the reader's buffer plus a carry for a row that
//!   straddles two buffer fills, regardless of file size.
//! - [`SyntheticSource`] — a seeded arrivals/popularity generator. Its
//!   Poisson form is the stream [`Trace::poisson`] collects, yielded one
//!   request at a time; its non-stationary form follows a [`RateCurve`]
//!   (diurnal, flash crowd, tenant ramps) by Lewis–Shedler thinning.

use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom};
use std::path::Path;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arrivals::{PoissonProcess, RateCurve, ThinnedProcess};
use crate::catalog::{FileCatalog, FileId};
use crate::cdf::CdfTable;
use crate::trace::{Request, Trace, TraceIoError};

/// A time-ordered stream of requests plus the horizon of the observation
/// window. The replay's reader thread drains it once, request by request.
///
/// Implementations must yield non-decreasing times, all within
/// `[0, horizon]`; [`CsvTraceSource`] enforces this on malformed input by
/// returning [`TraceIoError`]s through the `Result` layer.
pub trait TraceSource {
    /// Consume and return the next request (`None` when the stream is
    /// exhausted).
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError>;

    /// Observation-window length, seconds (≥ every request time the stream
    /// will yield).
    fn horizon(&self) -> f64;
}

/// A [`TraceSource`] cursor over an in-memory [`Trace`] — the streamed
/// engine's original arrival feed, now spelled as a source. Holds the
/// request slice directly and `#[inline]`s its accessors so the reader
/// thread's drain compiles down to a slice walk.
#[derive(Debug, Clone)]
pub struct InMemorySource<'a> {
    requests: &'a [Request],
    horizon: f64,
    next: usize,
}

impl<'a> InMemorySource<'a> {
    /// Cursor at the start of `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        InMemorySource {
            requests: trace.requests(),
            horizon: trace.horizon(),
            next: 0,
        }
    }
}

impl TraceSource for InMemorySource<'_> {
    #[inline]
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        let r = self.requests.get(self.next).copied();
        if r.is_some() {
            self.next += 1;
        }
        Ok(r)
    }

    #[inline]
    fn horizon(&self) -> f64 {
        self.horizon
    }
}

/// A streaming reader of the `time_s,file_id` CSV format
/// ([`Trace::write_csv`]). Rows are decoded in place from the [`BufRead`]
/// buffer; only a row that straddles two buffer fills is copied, into a
/// small carry — O(1) memory however long the file is. A canonical row
/// (`D+[.D+],D+`, optionally ending in `\r`) whose time is exact by
/// Clinger's fast path (mantissa ≤ 2⁵³, at most 22 fraction digits) is
/// parsed by a digit loop; every other row — header, blank, whitespace,
/// `+`, exponents, `nan`, long mantissas — takes std's parse on the
/// trimmed text, which stays the one `f64` grammar. A row with more than
/// two fields is malformed. Validates well-formed rows, finite
/// non-negative times and non-decreasing order, surfacing problems as
/// [`TraceIoError`] at the offending row instead of up front; a row that
/// is not UTF-8 is [`TraceIoError::Malformed`].
///
/// The horizon differs from [`Trace::read_csv`] by design: a streaming
/// replay must fix its horizon before the data has been seen, so a row
/// past the declared horizon is a [`TraceIoError::BeyondHorizon`] error —
/// `read_csv`, holding the whole file, instead grows the horizon to fit.
/// Rows ascend, so [`Self::open`] without a horizon takes the last row's.
pub struct CsvTraceSource<R> {
    reader: R,
    horizon: f64,
    last_time: f64,
    lineno: usize,
    /// The start of a row cut off by the end of the reader's buffer.
    carry: Vec<u8>,
}

impl CsvTraceSource<BufReader<File>> {
    /// Open `path` for streaming. With `horizon: None` the horizon is the
    /// time of the file's last non-empty row (0 for an empty or
    /// header-only file), read from its tail in a few KiB; that needs a
    /// seekable file, so a pipe without an explicit horizon is a
    /// [`TraceIoError::Io`] naming the path. An explicit horizon never
    /// seeks.
    pub fn open<P: AsRef<Path>>(path: P, horizon: Option<f64>) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let horizon = match horizon {
            Some(h) => h,
            None => {
                let h = last_row_time(&mut file).map_err(|e| match e {
                    TraceIoError::Io(e) if e.kind() == ErrorKind::NotSeekable => {
                        let msg = format!(
                            "{}: cannot seek to the last row for the horizon ({e}); \
                             give an explicit horizon",
                            path.display()
                        );
                        TraceIoError::Io(std::io::Error::new(e.kind(), msg))
                    }
                    e => e,
                })?;
                file.rewind()?;
                h
            }
        };
        CsvTraceSource::from_reader(BufReader::new(file), horizon)
    }
}

/// Time of the last row of the CSV in `r`, read backwards from the end in
/// blocks of 4 KiB, doubling, until one holds the last complete line that
/// is neither blank nor the header. An input with no such line has horizon
/// 0. A malformed last row is [`TraceIoError::Malformed`] at its 1-based
/// line, which only then costs a pass counting the newlines before it.
fn last_row_time<R: Read + Seek>(r: &mut R) -> Result<f64, TraceIoError> {
    let len = r.seek(SeekFrom::End(0))?;
    let mut block = 4096;
    loop {
        let start = len.saturating_sub(block);
        r.seek(SeekFrom::Start(start))?;
        let mut buf = Vec::new();
        r.by_ref().take(len - start).read_to_end(&mut buf)?;
        let mut end = buf.len();
        loop {
            let line_start = match buf[..end].iter().rposition(|&b| b == b'\n') {
                Some(nl) => nl + 1,
                None if start == 0 => 0,
                None => break,
            };
            let row = &buf[line_start..end];
            let text = std::str::from_utf8(row).map(str::trim);
            let at = start + line_start as u64;
            // The same rows `decode_row` skips: blank lines and a first-line
            // header.
            if !matches!(text, Ok(t) if t.is_empty() || (at == 0 && t.starts_with("time"))) {
                if let Ok(Ok(request)) = text.map(|t| crate::trace::parse_row(t, 0)) {
                    return Ok(request.time);
                }
                let quoted = malformed_text(row);
                r.rewind()?;
                let newlines = BufReader::new(r.take(at))
                    .split(b'\n')
                    .try_fold(0, |n, piece| piece.map(|_| n + 1))?;
                return Err(TraceIoError::Malformed(newlines + 1, quoted));
            }
            if at == 0 {
                return Ok(0.0);
            }
            end = line_start - 1;
        }
        block *= 2;
    }
}

impl<R: BufRead> CsvTraceSource<R> {
    /// Stream from any buffered reader with an explicit horizon; a
    /// negative or NaN horizon is a [`TraceIoError::InvalidHorizon`].
    pub fn from_reader(reader: R, horizon: f64) -> Result<Self, TraceIoError> {
        if !(horizon >= 0.0) {
            return Err(TraceIoError::InvalidHorizon(horizon));
        }
        Ok(CsvTraceSource {
            reader,
            horizon,
            last_time: 0.0,
            lineno: 0,
            carry: Vec::new(),
        })
    }
}

/// Decode one row (without its `\n`) as line `*lineno + 1`, advancing
/// the count: `None` for a blank row or a first-line header, else the
/// request, checked against the horizon and then the previous row's time.
#[inline]
fn decode_row(
    row: &[u8],
    lineno: &mut usize,
    horizon: f64,
    last_time: f64,
) -> Result<Option<Request>, TraceIoError> {
    *lineno += 1;
    let line = *lineno;
    let request = match parse_canonical(row) {
        Some(request) => request,
        None => {
            let Ok(text) = std::str::from_utf8(row).map(str::trim) else {
                return Err(TraceIoError::Malformed(line, malformed_text(row)));
            };
            if text.is_empty() || (line == 1 && text.starts_with("time")) {
                return Ok(None);
            }
            crate::trace::parse_row(text, line)?
        }
    };
    if request.time > horizon {
        return Err(TraceIoError::BeyondHorizon(line));
    }
    if request.time < last_time {
        return Err(TraceIoError::OutOfOrder(line));
    }
    Ok(Some(request))
}

/// The quoted text of a malformed row: trimmed, with any byte that is not
/// UTF-8 shown as U+FFFD.
fn malformed_text(row: &[u8]) -> String {
    String::from_utf8_lossy(row).trim().to_owned()
}

/// `10^k` for `k ≤ 22`: every one is exact in an `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Parse a canonical row `D+[.D+],D+`, optionally ending in `\r`, when
/// Clinger's fast path makes its time exact: the mantissa `m` (all the
/// digits, point removed) is at most 2⁵³ and there are `k ≤ 22` fraction
/// digits. Then `m` and `10^k` are both exact `f64`s and one correctly
/// rounded division gives the correctly rounded decimal — the bits std's
/// parse returns. `None` for every other row, and for a time past
/// [`crate::trace::MAX_TRACE_TIME_S`] or an id past `u32::MAX`, so that
/// [`crate::trace::parse_row`] decides it.
#[inline]
fn parse_canonical(row: &[u8]) -> Option<Request> {
    let row = row.strip_suffix(b"\r").unwrap_or(row);
    let mut i = 0;
    // Saturates rather than wraps, so `m` never falls and a mantissa too
    // long for a `u64` fails the `m ≤ 2⁵³` check below.
    let mut m = 0u64;
    let mut digits = |i: &mut usize| {
        let from = *i;
        while let Some(d) = row
            .get(*i)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d <= 9)
        {
            m = m.saturating_mul(10).saturating_add(u64::from(d));
            *i += 1;
        }
        *i - from
    };
    if digits(&mut i) == 0 {
        return None;
    }
    let mut k = 0;
    if row.get(i) == Some(&b'.') {
        i += 1;
        k = digits(&mut i);
        if k == 0 {
            return None;
        }
    }
    if row.get(i) != Some(&b',') || m > 1 << 53 || k >= POW10.len() {
        return None;
    }
    let id_digits = &row[i + 1..];
    if id_digits.is_empty() || id_digits.len() > 10 {
        return None;
    }
    let mut id = 0u64;
    for &b in id_digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        id = id * 10 + u64::from(d);
    }
    let time = m as f64 / POW10[k];
    if time > crate::trace::MAX_TRACE_TIME_S {
        return None;
    }
    Some(Request {
        time,
        file: FileId(u32::try_from(id).ok()?),
    })
}

impl<R: BufRead> TraceSource for CsvTraceSource<R> {
    /// Decode rows until one yields a request, or `None` at EOF. A row is
    /// decoded where it lies in the reader's buffer; the bytes of a row
    /// that runs past the buffer's end collect in `carry` until its
    /// newline (or EOF) arrives. A row is consumed before its error
    /// returns, so the next call reads on from the row after it.
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        loop {
            let buf = self.reader.fill_buf()?;
            let (row_end, used) = match buf.iter().position(|&b| b == b'\n') {
                Some(nl) => (nl, nl + 1),
                None if buf.is_empty() && self.carry.is_empty() => return Ok(None),
                // EOF: a last row without a newline is still a row.
                None if buf.is_empty() => (0, 0),
                None => {
                    let n = buf.len();
                    self.carry.extend_from_slice(buf);
                    self.reader.consume(n);
                    continue;
                }
            };
            let (lineno, horizon, last_time) = (&mut self.lineno, self.horizon, self.last_time);
            let decoded = if self.carry.is_empty() {
                decode_row(&buf[..row_end], lineno, horizon, last_time)
            } else {
                self.carry.extend_from_slice(&buf[..row_end]);
                let decoded = decode_row(&self.carry, lineno, horizon, last_time);
                self.carry.clear();
                decoded
            };
            self.reader.consume(used);
            if let Some(request) = decoded? {
                self.last_time = request.time;
                return Ok(Some(request));
            }
        }
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }
}

/// The arrival engine behind a [`SyntheticSource`]: either the
/// homogeneous Poisson draw sequence or a [`ThinnedProcess`] riding a
/// [`RateCurve`] for non-stationary workloads.
enum ArrivalProcess {
    Homogeneous(PoissonProcess),
    Thinned(ThinnedProcess),
}

impl ArrivalProcess {
    /// Next arrival strictly before `horizon`, `None` once exhausted. The
    /// homogeneous arm draws exactly as the pre-curve code did (one draw,
    /// then the horizon compare), so the random stream — and therefore the
    /// generated trace — is unchanged for stationary sources.
    fn next_arrival_before(&mut self, horizon: f64) -> Option<f64> {
        match self {
            ArrivalProcess::Homogeneous(p) => {
                let t = p.next_arrival();
                if t >= horizon {
                    None
                } else {
                    Some(t)
                }
            }
            ArrivalProcess::Thinned(p) => p.next_arrival_before(horizon),
        }
    }
}

/// A seeded arrivals/popularity request generator. With
/// [`SyntheticSource::poisson`] it yields the requests
/// [`Trace::poisson`]`(catalog, rate, horizon, seed)` collects, one at a
/// time — so a 10⁸-request replay costs O(files) for the popularity
/// table and O(1) beyond it. With
/// [`SyntheticSource::non_stationary`] the arrivals instead follow a
/// [`RateCurve`] via Lewis–Shedler thinning, with the same popularity
/// model and the same streaming cost.
pub struct SyntheticSource {
    process: ArrivalProcess,
    rng: SmallRng,
    popularity: CdfTable,
    horizon: f64,
}

impl SyntheticSource {
    /// Poisson arrivals at `rate`/s until `horizon`, each targeting a file
    /// drawn by catalog popularity — [`Trace::poisson`] as a stream.
    pub fn poisson(catalog: &FileCatalog, rate: f64, horizon: f64, seed: u64) -> Self {
        Self::with_process(
            catalog,
            ArrivalProcess::Homogeneous(PoissonProcess::new(rate, seed)),
            horizon,
            seed,
        )
    }

    /// Arrivals following `curve` (diurnal cycle, flash crowd, tenant
    /// ramps, …) via Lewis–Shedler thinning, each targeting a file drawn
    /// by catalog popularity. The popularity stream uses the same seed
    /// derivation as [`Self::poisson`], so two sources sharing a seed
    /// differ only in *when* requests land, not in what they ask for.
    pub fn non_stationary(
        catalog: &FileCatalog,
        curve: RateCurve,
        horizon: f64,
        seed: u64,
    ) -> Self {
        Self::with_process(
            catalog,
            ArrivalProcess::Thinned(ThinnedProcess::new(curve, seed)),
            horizon,
            seed,
        )
    }

    fn with_process(
        catalog: &FileCatalog,
        process: ArrivalProcess,
        horizon: f64,
        seed: u64,
    ) -> Self {
        assert!(!catalog.is_empty(), "cannot generate against empty catalog");
        assert!(horizon >= 0.0 && horizon.is_finite(), "bad horizon");
        SyntheticSource {
            process,
            rng: SmallRng::seed_from_u64(seed.wrapping_add(1)),
            popularity: CdfTable::from_weights(catalog.iter().map(|f| f.popularity)),
            horizon,
        }
    }

    /// The next arrival before the horizon, with its file drawn by
    /// popularity; `None` once the arrivals pass the horizon.
    pub(crate) fn draw(&mut self) -> Option<Request> {
        let time = self.process.next_arrival_before(self.horizon)?;
        Some(Request {
            time,
            file: FileId(self.popularity.sample(&mut self.rng) as u32),
        })
    }
}

impl TraceSource for SyntheticSource {
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        Ok(self.draw())
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MAX_TRACE_TIME_S;

    fn drain(src: &mut dyn TraceSource) -> Vec<Request> {
        let mut out = Vec::new();
        while let Some(r) = src.next_request().expect("source yields") {
            out.push(r);
        }
        out
    }

    #[test]
    fn in_memory_source_replays_the_trace_verbatim() {
        let catalog = FileCatalog::paper_table1(50, 0);
        let trace = Trace::poisson(&catalog, 2.0, 200.0, 11);
        let mut src = InMemorySource::new(&trace);
        assert_eq!(src.horizon(), trace.horizon());
        assert_eq!(drain(&mut src), trace.requests());
        assert_eq!(src.next_request().unwrap(), None);
    }

    #[test]
    fn csv_source_round_trips_write_csv() {
        let catalog = FileCatalog::paper_table1(20, 0);
        let trace = Trace::poisson(&catalog, 1.0, 100.0, 3);
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        let mut src = CsvTraceSource::from_reader(std::io::Cursor::new(&buf), 100.0).unwrap();
        let streamed = drain(&mut src);
        assert_eq!(streamed.len(), trace.len());
        for (a, b) in streamed.iter().zip(trace.requests()) {
            assert_eq!(a.file, b.file);
            assert!((a.time - b.time).abs() < 1e-5, "printed precision");
        }
    }

    #[test]
    fn csv_source_reports_malformed_rows_at_their_line() {
        for row in ["not-a-number,4", "1.0,3,x", "2.0,4,"] {
            let bad = format!("time_s,file_id\n1.0,3\n{row}\n");
            let mut src = CsvTraceSource::from_reader(bad.as_bytes(), 10.0).unwrap();
            assert_eq!(src.next_request().unwrap().unwrap().file.0, 3);
            let err = src.next_request().unwrap_err();
            assert!(
                matches!(&err, TraceIoError::Malformed(3, text) if text == row),
                "{row:?}: {err:?}"
            );
            // The tail read and `read_csv` name the same line.
            assert!(matches!(tail(&bad), Err(TraceIoError::Malformed(3, _))));
            let err = Trace::read_csv(bad.as_bytes(), None).unwrap_err();
            assert!(matches!(err, TraceIoError::Malformed(3, _)), "{row:?}");
        }
    }

    #[test]
    fn csv_source_rejects_out_of_order_and_beyond_horizon() {
        let unordered = "5.0,1\n4.0,2\n";
        let mut src = CsvTraceSource::from_reader(std::io::Cursor::new(unordered), 10.0).unwrap();
        assert!(src.next_request().is_ok());
        assert!(matches!(
            src.next_request().unwrap_err(),
            TraceIoError::OutOfOrder(2)
        ));
        let beyond = "5.0,1\n20.0,2\n";
        let mut src = CsvTraceSource::from_reader(std::io::Cursor::new(beyond), 10.0).unwrap();
        assert!(src.next_request().is_ok());
        assert!(matches!(
            src.next_request().unwrap_err(),
            TraceIoError::BeyondHorizon(2)
        ));
    }

    #[test]
    fn negative_or_nan_horizon_is_a_typed_error() {
        for h in [-1.0, f64::NAN] {
            let err = CsvTraceSource::from_reader(std::io::Cursor::new("1.0,0\n"), h)
                .err()
                .expect("bad horizon rejected");
            assert!(
                matches!(err, TraceIoError::InvalidHorizon(got) if got.to_bits() == h.to_bits()),
                "{err:?}"
            );
            assert!(err.to_string().contains(&format!("horizon {h} s")), "{err}");
        }
        assert!(CsvTraceSource::from_reader(std::io::Cursor::new(""), 0.0).is_ok());
    }

    /// A `Read + Seek` cursor counting the bytes read through it — the
    /// probe for "how much of the file did the tail read touch".
    struct CountingCursor {
        inner: std::io::Cursor<Vec<u8>>,
        bytes: usize,
    }

    impl Read for CountingCursor {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n;
            Ok(n)
        }
    }

    impl Seek for CountingCursor {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    fn tail(csv: &str) -> Result<f64, TraceIoError> {
        last_row_time(&mut std::io::Cursor::new(csv.as_bytes()))
    }

    fn write_csv_bytes(trace: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        trace.write_csv(&mut buf).unwrap();
        buf
    }

    #[test]
    fn tail_read_of_a_large_trace_touches_only_its_last_block() {
        let catalog = FileCatalog::paper_table1(100, 0);
        let trace = Trace::poisson(&catalog, 50.0, 2000.0, 7);
        let bytes = write_csv_bytes(&trace);
        assert!(bytes.len() >= 1 << 20, "{} bytes", bytes.len());
        let last = Trace::read_csv(bytes.as_slice(), None).unwrap().horizon();
        let mut cursor = CountingCursor {
            inner: std::io::Cursor::new(bytes),
            bytes: 0,
        };
        assert_eq!(
            last_row_time(&mut cursor).unwrap().to_bits(),
            last.to_bits()
        );
        assert!(cursor.bytes <= 8192, "read {} bytes", cursor.bytes);
    }

    #[test]
    fn tail_read_of_empty_blank_and_header_only_input_is_zero() {
        for csv in [
            "",
            "\n\n \n",
            "time_s,file_id",
            "time_s,file_id\n",
            "time_s,file_id\r\n\n",
        ] {
            assert_eq!(tail(csv).unwrap(), 0.0, "{csv:?}");
        }
    }

    #[test]
    fn tail_read_takes_the_last_non_empty_row() {
        for csv in [
            "time_s,file_id\n1.0,3\n2.5,4",
            "time_s,file_id\r\n1.0,3\r\n2.5,4\r\n",
            "1.0,3\n2.5,4\n\n  \n\t\r\n",
            "2.5,4\n",
        ] {
            assert_eq!(tail(csv).unwrap(), 2.5, "{csv:?}");
        }
    }

    #[test]
    fn tail_read_looks_past_blocks_of_blank_lines() {
        let csv = format!("time_s,file_id\n1.0,3\n7.5,4\n{}", "  \n".repeat(5000));
        assert!(csv.len() > 2 * 4096);
        assert_eq!(tail(&csv).unwrap(), 7.5);
        let header_only = format!("time_s,file_id\n{}", "\n".repeat(9000));
        assert_eq!(tail(&header_only).unwrap(), 0.0);
    }

    #[test]
    fn tail_read_reports_a_malformed_last_row_at_its_line() {
        let short = "time_s,file_id\n1.0,3\n2.0,4\n\nnan,4\n\n\n";
        let rows: String = (0..3000).map(|i| format!("{i}.0,1\n")).collect();
        let long = format!("{rows}{}oops\n{}", "\n".repeat(5000), "\n".repeat(5000));
        for (csv, line, text) in [(short, 5, "nan,4"), (long.as_str(), 8001, "oops")] {
            match tail(csv) {
                Err(TraceIoError::Malformed(at, got)) => {
                    assert_eq!((at, got.as_str()), (line, text));
                }
                other => panic!("expected Malformed({line}, _), got {other:?}"),
            }
            // The streaming reader names the same line.
            let mut src =
                CsvTraceSource::from_reader(csv.as_bytes(), crate::trace::MAX_TRACE_TIME_S)
                    .unwrap();
            let err = loop {
                match src.next_request() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("stream accepted {text:?}"),
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, TraceIoError::Malformed(at, _) if at == line));
        }
    }

    /// Drain `src` to its first error, or `None` at a clean end.
    fn first_error<R: BufRead>(mut src: CsvTraceSource<R>) -> Option<TraceIoError> {
        loop {
            match src.next_request() {
                Ok(Some(_)) => continue,
                Ok(None) => return None,
                Err(e) => return Some(e),
            }
        }
    }

    #[test]
    fn a_middle_row_that_is_not_utf8_is_malformed_at_its_line() {
        let csv = b"time_s,file_id\n0.5,1\n1.0,\xff2\n2.0,3\n";
        let mut src = CsvTraceSource::from_reader(&csv[..], 10.0).unwrap();
        assert_eq!(src.next_request().unwrap().unwrap().file.0, 1);
        match src.next_request() {
            Err(TraceIoError::Malformed(3, text)) => assert_eq!(text, "1.0,\u{fffd}2"),
            other => panic!("expected Malformed(3, _), got {other:?}"),
        }
        // The bad row is consumed: the stream reads on after it.
        assert_eq!(src.next_request().unwrap().unwrap().file.0, 3);
        // The tail read sees only the last row, which is fine.
        assert_eq!(
            last_row_time(&mut std::io::Cursor::new(&csv[..])).unwrap(),
            2.0
        );
    }

    #[test]
    fn a_last_row_that_is_not_utf8_is_malformed_at_its_line() {
        for csv in [
            &b"time_s,file_id\n0.5,1\n\n2.0,\xff3\n\n"[..],
            &b"time_s,file_id\r\n0.5,1\r\n\r\n2.0,\xff3"[..],
        ] {
            let quoted = "2.0,\u{fffd}3";
            match last_row_time(&mut std::io::Cursor::new(csv)) {
                Err(TraceIoError::Malformed(4, text)) => assert_eq!(text, quoted),
                other => panic!("tail read: expected Malformed(4, _), got {other:?}"),
            }
            let src = CsvTraceSource::from_reader(csv, 10.0).unwrap();
            match first_error(src) {
                Some(TraceIoError::Malformed(4, text)) => assert_eq!(text, quoted),
                other => panic!("stream: expected Malformed(4, _), got {other:?}"),
            }
        }
    }

    /// The digit loop takes exactly the rows Clinger's fast path makes
    /// exact, and gives each the bits std's parse does; every edge of the
    /// fast path (digit count, 2⁵³, 10²²) and every row it leaves to std
    /// decodes as std would.
    #[test]
    fn canonical_rows_decode_with_std_bits_on_both_sides_of_the_fast_path() {
        let cases: [(&str, bool); 25] = [
            ("0,0", true),
            ("1.5,3", true),
            ("007.250,01", true),
            ("1234567.891011,4294967295", true),
            ("9007.199254740992,1", true),
            ("9007.199254740993,1", false),
            ("900719925474099.3,1", false),
            ("0.9007199254740992,1", true),
            ("1.000000000000000000,1", false),
            // 2⁶⁴ and 2⁶⁵: a mantissa that wrapped a u64 would read 0.
            ("18446744073709551616,1", false),
            ("0.18446744073709551616,1", false),
            ("36893488147419103232,1", false),
            ("0.0000000000000000000001,1", true),
            ("0.00000000000000000000001,1", false),
            ("0.0000000000000000000012,1", true),
            ("1099511627776,1", true),
            ("1099511627777,1", false),
            ("1.5,4294967296", false),
            ("1.5,00000000001", false),
            ("1.5,3\r", true),
            ("1.,3", false),
            (".5,3", false),
            ("1.5,3,", false),
            ("1e3,3", false),
            ("+1.5,3", false),
        ];
        for (row, fast) in cases {
            let decoded = parse_canonical(row.as_bytes());
            assert_eq!(decoded.is_some(), fast, "{row:?}");
            let oracle = crate::trace::parse_row(row.trim(), 1).ok();
            if let Some(r) = decoded {
                let o = oracle.expect("the fast path takes only rows std accepts");
                assert_eq!(
                    (r.time.to_bits(), r.file),
                    (o.time.to_bits(), o.file),
                    "{row:?}"
                );
            }
            // Through the reader, every row decodes as std's parse does.
            let mut src = CsvTraceSource::from_reader(row.as_bytes(), MAX_TRACE_TIME_S).unwrap();
            let streamed = src.next_request().ok().flatten();
            assert_eq!(
                streamed.map(|r| (r.time.to_bits(), r.file)),
                oracle.map(|o| (o.time.to_bits(), o.file)),
                "{row:?}"
            );
        }
    }

    #[test]
    fn open_without_a_horizon_matches_read_csv_bit_for_bit() {
        let catalog = FileCatalog::paper_table1(100, 0);
        let burst = crate::arrivals::BatchConfig {
            burst_rate: 0.3,
            min_batch: 2,
            max_batch: 6,
            intra_batch_gap_s: 0.013,
        };
        let traces = [
            Trace::new(Vec::new(), 0.0),
            Trace::poisson(&catalog, 0.01, 10.0, 1),
            Trace::poisson(&catalog, 3.3, 777.7, 2),
            Trace::poisson(&catalog, 40.0, 1234.5, 3),
            Trace::batched(&catalog, &burst, 999.9, 4),
        ];
        let dir = std::env::temp_dir().join("spindown-tail-horizon-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, trace) in traces.iter().enumerate() {
            let bytes = write_csv_bytes(trace);
            let path = dir.join(format!("trace-{}-{i}.csv", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let read = Trace::read_csv(bytes.as_slice(), None).unwrap();
            let src = CsvTraceSource::open(&path, None).unwrap();
            assert_eq!(
                src.horizon().to_bits(),
                read.horizon().to_bits(),
                "trace {i}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn open_with_no_horizon_takes_the_last_row_and_streams_every_row() {
        let dir = std::env::temp_dir().join("spindown-tail-horizon-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.csv", std::process::id()));
        std::fs::write(&path, "time_s,file_id\n0.5,0\n4.0,1\n6.5,0\n").unwrap();
        let mut src = CsvTraceSource::open(&path, None).unwrap();
        assert_eq!(src.horizon(), 6.5);
        let times: Vec<f64> = drain(&mut src).iter().map(|r| r.time).collect();
        assert_eq!(times, [0.5, 4.0, 6.5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_stationary_source_is_monotone_deterministic_and_bounded() {
        let catalog = FileCatalog::paper_table1(50, 0);
        let curve = RateCurve::diurnal(3.0, 2.0, 400.0);
        let mut a = SyntheticSource::non_stationary(&catalog, curve.clone(), 1200.0, 17);
        let mut b = SyntheticSource::non_stationary(&catalog, curve, 1200.0, 17);
        let xs = drain(&mut a);
        assert_eq!(xs, drain(&mut b), "seed-deterministic");
        assert!(!xs.is_empty());
        for w in xs.windows(2) {
            assert!(w[0].time < w[1].time, "strictly increasing");
        }
        assert!(xs.iter().all(|r| r.time < 1200.0));
        assert!(
            xs.iter().all(|r| (r.file.0 as usize) < catalog.len()),
            "files come from the catalog"
        );
    }

    #[test]
    fn non_stationary_source_shares_the_popularity_stream_with_poisson() {
        // Same seed derivation for the popularity rng: the k-th request of
        // either source targets the same file, only the timestamps differ.
        let catalog = FileCatalog::paper_table1(80, 0);
        let mut flat = SyntheticSource::poisson(&catalog, 4.0, 300.0, 23);
        let curve = RateCurve::ramps(vec![crate::arrivals::RampStep {
            start_s: 0.0,
            rate: 4.0,
        }]);
        let mut curved = SyntheticSource::non_stationary(&catalog, curve, 300.0, 23);
        let a = drain(&mut flat);
        let b = drain(&mut curved);
        let n = a.len().min(b.len());
        assert!(n > 100, "enough overlap to be meaningful");
        for (x, y) in a[..n].iter().zip(&b[..n]) {
            assert_eq!(x.file, y.file);
        }
    }
}
