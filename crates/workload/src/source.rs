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
//! - [`CsvTraceSource`] — a buffered line-at-a-time reader of the CSV
//!   format [`Trace::write_csv`] produces (`time_s,file_id` rows). Memory
//!   is one line buffer regardless of file size.
//! - [`SyntheticSource`] — a seeded arrivals/popularity generator. Its
//!   Poisson form produces exactly the request sequence of
//!   [`Trace::poisson`] with the same arguments, without ever
//!   materialising it; its non-stationary form follows a [`RateCurve`]
//!   (diurnal, flash crowd, tenant ramps) by Lewis–Shedler thinning.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::SystemTime;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arrivals::{PoissonProcess, RateCurve, ThinnedProcess};
use crate::catalog::FileCatalog;
use crate::trace::{popularity_cdf, sample_by_cdf, Request, Trace, TraceIoError};

/// A time-ordered stream of requests plus the horizon of the observation
/// window. The engine peeks the next arrival time to interleave arrivals
/// with scheduled events, then consumes the request.
///
/// Implementations must yield non-decreasing times, all within
/// `[0, horizon]`; [`CsvTraceSource`] enforces this on malformed input by
/// returning [`TraceIoError`]s through the `Result` layer.
pub trait TraceSource {
    /// Arrival time of the next request without consuming it (`None` when
    /// the stream is exhausted).
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError>;

    /// Consume and return the next request.
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError>;

    /// Global ordinal of the next request in the *original* trace, when
    /// the source knows it (`None` otherwise — consumers fall back to a
    /// local arrival counter). Sharded views report the position in the
    /// undemuxed stream, so consumers on different shards label requests
    /// with the same ids an unsharded run would assign — the tie-break
    /// key the merged completion log sorts on. Valid whenever
    /// [`Self::peek_time`] would return `Some`.
    fn peek_seq(&mut self) -> Option<u64> {
        None
    }

    /// Observation-window length, seconds (≥ every request time the stream
    /// will yield).
    fn horizon(&self) -> f64;
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    #[inline]
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        (**self).peek_time()
    }

    #[inline]
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        (**self).next_request()
    }

    #[inline]
    fn peek_seq(&mut self) -> Option<u64> {
        (**self).peek_seq()
    }

    #[inline]
    fn horizon(&self) -> f64 {
        (**self).horizon()
    }
}

/// A [`TraceSource`] cursor over an in-memory [`Trace`] — the streamed
/// engine's original arrival feed, now spelled as a source. Holds the
/// request slice directly and `#[inline]`s its accessors so the engine's
/// monomorphised arrival loop compiles down to the slice-index-and-compare
/// it used before the source abstraction existed (this cursor sits on the
/// hottest path of a replay: one peek per event-loop step).
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
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        Ok(self.requests.get(self.next).map(|r| r.time))
    }

    #[inline]
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        let r = self.requests.get(self.next).copied();
        if r.is_some() {
            self.next += 1;
        }
        Ok(r)
    }

    #[inline]
    fn peek_seq(&mut self) -> Option<u64> {
        (self.next < self.requests.len()).then_some(self.next as u64)
    }

    #[inline]
    fn horizon(&self) -> f64 {
        self.horizon
    }
}

/// A buffered streaming reader of the `time_s,file_id` CSV format
/// ([`Trace::write_csv`]): one parsed line of look-ahead, one line buffer —
/// O(1) memory however long the file is. Validates well-formed rows,
/// finite non-negative times and non-decreasing order, surfacing problems
/// as [`TraceIoError`] at the offending row instead of up front.
///
/// The horizon differs from [`Trace::read_csv`] by design: a streaming
/// replay must fix its horizon before the data has been seen, so a row
/// past the declared horizon is a [`TraceIoError::BeyondHorizon`] error —
/// `read_csv`, holding the whole file, instead grows the horizon to fit.
/// Open with `horizon: None` to pre-scan the file for the true last
/// request time when a hard bound is not known.
pub struct CsvTraceSource<R> {
    reader: R,
    horizon: f64,
    pending: Option<Request>,
    last_time: f64,
    lineno: usize,
    line: String,
    done: bool,
}

/// Identity of a trace file for the horizon pre-scan cache: path plus the
/// size and modification time observed when the scan ran, so editing or
/// replacing the file invalidates its cached horizon.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TraceFileKey {
    path: PathBuf,
    len: u64,
    mtime: Option<SystemTime>,
}

impl TraceFileKey {
    fn probe(path: &Path) -> std::io::Result<Self> {
        let meta = std::fs::metadata(path)?;
        Ok(TraceFileKey {
            path: path.to_path_buf(),
            len: meta.len(),
            mtime: meta.modified().ok(),
        })
    }
}

fn horizon_cache() -> &'static Mutex<HashMap<TraceFileKey, f64>> {
    static CACHE: OnceLock<Mutex<HashMap<TraceFileKey, f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

impl CsvTraceSource<BufReader<File>> {
    /// Open `path` for streaming. When `horizon` is `None` the file is
    /// pre-scanned once (still O(1) memory) to find the last request time;
    /// pass an explicit horizon to skip that pass. The pre-scan result is
    /// cached process-wide, keyed on `(path, size, mtime)`, so repeated
    /// opens of the same unmodified file — sweep cells, shard demux setup —
    /// scan it once instead of once per construction.
    pub fn open<P: AsRef<Path>>(path: P, horizon: Option<f64>) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        let horizon = match horizon {
            Some(h) => h,
            None => {
                let key = TraceFileKey::probe(path)?;
                Self::prescan_horizon(key, || File::open(path).map(BufReader::new))?
            }
        };
        CsvTraceSource::from_reader(BufReader::new(File::open(path)?), horizon)
    }

    /// Cached last-request-time lookup: returns the horizon recorded for
    /// `key` if a previous scan stored one, otherwise opens a reader via
    /// `open`, drains it to find the last request time, and caches that
    /// under `key`. The cache lock is never held across the scan, so two
    /// threads racing on a cold key at worst both scan (and agree).
    fn prescan_horizon<R: BufRead>(
        key: TraceFileKey,
        open: impl FnOnce() -> std::io::Result<R>,
    ) -> Result<f64, TraceIoError> {
        let cache = horizon_cache();
        if let Some(&h) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return Ok(h);
        }
        let mut scan = CsvTraceSource::from_reader(open()?, f64::MAX)?;
        let mut last = 0.0_f64;
        while let Some(r) = scan.next_request()? {
            last = r.time;
        }
        cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, last);
        Ok(last)
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
            pending: None,
            last_time: 0.0,
            lineno: 0,
            line: String::new(),
            done: false,
        })
    }

    /// Parse rows until one yields a request (or EOF), buffering it.
    fn fill(&mut self) -> Result<(), TraceIoError> {
        while self.pending.is_none() && !self.done {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                self.done = true;
                return Ok(());
            }
            self.lineno += 1;
            let text = self.line.trim();
            if text.is_empty() || (self.lineno == 1 && text.starts_with("time")) {
                continue;
            }
            let request = crate::trace::parse_row(text, self.lineno)?;
            if request.time > self.horizon {
                return Err(TraceIoError::BeyondHorizon(self.lineno));
            }
            if request.time < self.last_time {
                return Err(TraceIoError::OutOfOrder(self.lineno));
            }
            self.last_time = request.time;
            self.pending = Some(request);
        }
        Ok(())
    }
}

impl<R: BufRead> TraceSource for CsvTraceSource<R> {
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        self.fill()?;
        Ok(self.pending.map(|r| r.time))
    }

    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        self.fill()?;
        Ok(self.pending.take())
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }
}

/// The arrival engine behind a [`SyntheticSource`]: either the original
/// homogeneous Poisson draw sequence (kept verbatim so [`Trace::poisson`]
/// bit-identity is preserved) or a [`ThinnedProcess`] riding a
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
/// [`SyntheticSource::poisson`] it produces exactly the request sequence
/// [`Trace::poisson`]`(catalog, rate, horizon, seed)` materialises (same
/// arrival process, same per-arrival popularity draws, same seed
/// derivation), but one request at a time — so a 10⁸-request replay costs
/// O(files) for the popularity table and O(1) beyond it. With
/// [`SyntheticSource::non_stationary`] the arrivals instead follow a
/// [`RateCurve`] via Lewis–Shedler thinning, with the same popularity
/// model and the same streaming cost.
pub struct SyntheticSource {
    process: ArrivalProcess,
    rng: SmallRng,
    cdf: Vec<f64>,
    horizon: f64,
    pending: Option<Request>,
    done: bool,
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
            cdf: popularity_cdf(catalog),
            horizon,
            pending: None,
            done: false,
        }
    }

    fn fill(&mut self) {
        if self.pending.is_none() && !self.done {
            match self.process.next_arrival_before(self.horizon) {
                None => self.done = true,
                Some(time) => {
                    self.pending = Some(Request {
                        time,
                        file: sample_by_cdf(&self.cdf, &mut self.rng),
                    });
                }
            }
        }
    }
}

impl TraceSource for SyntheticSource {
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        self.fill();
        Ok(self.pending.map(|r| r.time))
    }

    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        self.fill();
        Ok(self.pending.take())
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            src.peek_time().unwrap(),
            trace.requests().first().map(|r| r.time)
        );
        assert_eq!(drain(&mut src), trace.requests());
        assert_eq!(src.peek_time().unwrap(), None);
        assert_eq!(src.next_request().unwrap(), None);
    }

    #[test]
    fn synthetic_source_matches_trace_poisson_bit_for_bit() {
        let catalog = FileCatalog::paper_table1(100, 0);
        let (rate, horizon, seed) = (5.0, 500.0, 42);
        let trace = Trace::poisson(&catalog, rate, horizon, seed);
        let mut src = SyntheticSource::poisson(&catalog, rate, horizon, seed);
        let generated = drain(&mut src);
        assert_eq!(generated.len(), trace.len());
        assert_eq!(generated, trace.requests());
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
        let bad = "time_s,file_id\n1.0,3\nnot-a-number,4\n";
        let mut src = CsvTraceSource::from_reader(std::io::Cursor::new(bad), 10.0).unwrap();
        assert_eq!(src.next_request().unwrap().unwrap().file.0, 3);
        let err = src.next_request().unwrap_err();
        assert!(matches!(err, TraceIoError::Malformed(3, _)));
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

    /// A `Read` wrapper counting every underlying read call, shared across
    /// constructions through an `Arc` — the probe for "how many times was
    /// this file actually scanned".
    struct CountingReader<R> {
        inner: R,
        reads: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl<R: std::io::Read> std::io::Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.read(buf)
        }
    }

    fn unique_key(tag: &str, len: u64) -> TraceFileKey {
        TraceFileKey {
            path: PathBuf::from(format!("/virtual/prescan-cache-test/{tag}")),
            len,
            mtime: None,
        }
    }

    #[test]
    fn horizon_prescan_scans_the_file_once_per_key() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let data = "1.5,0\n3.0,1\n7.25,0\n";
        let reads = Arc::new(AtomicUsize::new(0));
        let opens = Arc::new(AtomicUsize::new(0));
        let open = |reads: &Arc<AtomicUsize>, opens: &Arc<AtomicUsize>| {
            let reads = Arc::clone(reads);
            let opens = Arc::clone(opens);
            move || {
                opens.fetch_add(1, Ordering::Relaxed);
                Ok(BufReader::new(CountingReader {
                    inner: std::io::Cursor::new(data),
                    reads,
                }))
            }
        };
        let key = unique_key("once", data.len() as u64);
        let h1 = CsvTraceSource::prescan_horizon(key.clone(), open(&reads, &opens)).unwrap();
        assert_eq!(h1, 7.25);
        let scanned = reads.load(Ordering::Relaxed);
        assert!(scanned > 0, "first call must actually read");
        assert_eq!(opens.load(Ordering::Relaxed), 1);
        // Second construction against the same unmodified key: no open, no
        // reads, same horizon.
        let h2 = CsvTraceSource::prescan_horizon(key, open(&reads, &opens)).unwrap();
        assert_eq!(h2, h1);
        assert_eq!(opens.load(Ordering::Relaxed), 1, "cache hit re-opened");
        assert_eq!(reads.load(Ordering::Relaxed), scanned, "cache hit re-read");
    }

    #[test]
    fn horizon_prescan_invalidates_when_the_file_changes() {
        // A changed file shows up as a different (len, mtime) key, so the
        // cache re-scans instead of serving the stale horizon.
        let old = "1.0,0\n2.0,1\n";
        let new = "1.0,0\n2.0,1\n9.5,2\n";
        let h_old = CsvTraceSource::prescan_horizon(unique_key("grow", old.len() as u64), || {
            Ok(BufReader::new(std::io::Cursor::new(old)))
        })
        .unwrap();
        let h_new = CsvTraceSource::prescan_horizon(unique_key("grow", new.len() as u64), || {
            Ok(BufReader::new(std::io::Cursor::new(new)))
        })
        .unwrap();
        assert_eq!(h_old, 2.0);
        assert_eq!(h_new, 9.5);
    }

    #[test]
    fn open_with_no_horizon_scans_the_file_once_across_repeat_opens() {
        let dir = std::env::temp_dir().join("spindown-prescan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.csv", std::process::id()));
        std::fs::write(&path, "time_s,file_id\n0.5,0\n4.0,1\n6.5,0\n").unwrap();
        let mut a = CsvTraceSource::open(&path, None).unwrap();
        let mut b = CsvTraceSource::open(&path, None).unwrap();
        assert_eq!(a.horizon(), 6.5);
        assert_eq!(b.horizon(), 6.5);
        assert_eq!(drain(&mut a), drain(&mut b));
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

    #[test]
    fn peek_is_idempotent_and_agrees_with_next() {
        let catalog = FileCatalog::paper_table1(10, 0);
        let mut src = SyntheticSource::poisson(&catalog, 3.0, 50.0, 9);
        while let Some(t) = src.peek_time().unwrap() {
            assert_eq!(src.peek_time().unwrap(), Some(t), "peek consumed");
            let r = src.next_request().unwrap().expect("peeked");
            assert_eq!(r.time, t);
        }
        assert_eq!(src.next_request().unwrap(), None);
    }
}
