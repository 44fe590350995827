//! Request traces: generation, statistics and CSV I/O.
//!
//! A [`Trace`] is a time-ordered list of file requests plus the horizon of
//! the observation window — exactly what the paper's dispatcher consumes.
//! Traces can be synthesised ([`Trace::poisson`], [`Trace::batched`]) or
//! loaded from/saved to a simple CSV format (`time_s,file_id` per line),
//! so real logs can be replayed when available.

use std::io::{BufRead, Write};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arrivals::{generate_bursts, BatchConfig};
use crate::catalog::{FileCatalog, FileId};
use crate::cdf::CdfTable;
use crate::source::{CsvTraceSource, SyntheticSource, TraceSource};

/// One read request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time, seconds from trace start.
    pub time: f64,
    /// Target file.
    pub file: FileId,
}

/// A time-ordered request trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    requests: Vec<Request>,
    horizon: f64,
}

/// Latest request time a CSV trace may carry: 2⁴⁰ s (≈ 34 800 years), the
/// top octave of the response-time histogram. Later times are rejected as
/// malformed rows, not replayed into absurd energy totals.
pub const MAX_TRACE_TIME_S: f64 = (1u64 << 40) as f64;

/// Parse one non-empty, non-header CSV row `time_s,file_id` found at
/// 1-based `line`; a row with a third field, even an empty one, is
/// malformed. The time must lie in `[0, MAX_TRACE_TIME_S]`, which also
/// rejects the `nan`, `inf` and `-5` that parse as `f64`.
pub(crate) fn parse_row(text: &str, line: usize) -> Result<Request, TraceIoError> {
    let malformed = || TraceIoError::Malformed(line, text.to_owned());
    let mut parts = text.split(',');
    let (Some(t), Some(f), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(malformed());
    };
    let time: f64 = t.trim().parse().map_err(|_| malformed())?;
    let id: u32 = f.trim().parse().map_err(|_| malformed())?;
    if !(0.0..=MAX_TRACE_TIME_S).contains(&time) {
        return Err(malformed());
    }
    Ok(Request {
        time,
        file: FileId(id),
    })
}

/// Errors from trace parsing.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed CSV line (line number, content).
    Malformed(usize, String),
    /// Requests out of order at the given line.
    OutOfOrder(usize),
    /// A request (at the given line) past the horizon a streaming reader
    /// was opened with. Streaming replays fix the horizon up front, so —
    /// unlike [`Trace::read_csv`], which grows the horizon to fit — late
    /// rows are an error rather than a silent extension.
    BeyondHorizon(usize),
    /// A streaming reader was opened with a negative or NaN horizon
    /// (seconds).
    InvalidHorizon(f64),
    /// A shared view of another error. `TraceIoError` holds an
    /// `std::io::Error` and so cannot be `Clone`; when one reader thread
    /// feeds many consumers (the demux), the single underlying failure is
    /// wrapped in an [`std::sync::Arc`] and every consumer observes it
    /// through this variant. The replay driver hands back the original
    /// once its shards are joined.
    Shared(std::sync::Arc<TraceIoError>),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "I/O error: {e}"),
            TraceIoError::Malformed(line, text) => {
                write!(f, "malformed trace line {line}: {text:?}")
            }
            TraceIoError::OutOfOrder(line) => {
                write!(f, "trace not time-ordered at line {line}")
            }
            TraceIoError::BeyondHorizon(line) => {
                write!(
                    f,
                    "request at line {line} is past the declared streaming horizon"
                )
            }
            TraceIoError::InvalidHorizon(h) => {
                write!(f, "streaming horizon {h} s is negative or NaN")
            }
            TraceIoError::Shared(inner) => inner.fmt(f),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Shared(inner) => Some(inner.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl Trace {
    /// Build from a pre-sorted request list.
    ///
    /// # Panics
    /// If requests are not time-ordered, times are negative/not finite, or
    /// the horizon is before the last request.
    pub fn new(requests: Vec<Request>, horizon: f64) -> Self {
        assert!(horizon >= 0.0 && horizon.is_finite());
        let mut last = 0.0_f64;
        for (i, r) in requests.iter().enumerate() {
            assert!(
                r.time.is_finite() && r.time >= 0.0,
                "request {i} has bad time {}",
                r.time
            );
            assert!(r.time >= last, "requests out of order at index {i}");
            last = r.time;
        }
        assert!(
            horizon >= last,
            "horizon {horizon} before last request {last}"
        );
        Trace { requests, horizon }
    }

    /// Poisson trace: arrivals at `rate`/s until `horizon`, each targeting a
    /// file drawn by catalog popularity. This is the Table 1 workload, the
    /// stream of [`SyntheticSource::poisson`] collected.
    pub fn poisson(catalog: &FileCatalog, rate: f64, horizon: f64, seed: u64) -> Self {
        let mut source = SyntheticSource::poisson(catalog, rate, horizon, seed);
        Trace::new(std::iter::from_fn(|| source.draw()).collect(), horizon)
    }

    /// Bursty trace (§3.2): bursts arrive Poisson; each burst requests a run
    /// of files with *adjacent sizes* ("a batch of files of similar sizes
    /// all at once"). The run's anchor file is drawn by popularity.
    pub fn batched(catalog: &FileCatalog, cfg: &BatchConfig, horizon: f64, seed: u64) -> Self {
        assert!(!catalog.is_empty(), "cannot generate against empty catalog");
        let bursts = generate_bursts(cfg, horizon, seed);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(2));
        let popularity = CdfTable::from_weights(catalog.iter().map(|f| f.popularity));
        // Order file ids by size so a burst can walk adjacent sizes.
        let mut by_size: Vec<FileId> = catalog.iter().map(|f| f.id).collect();
        by_size.sort_by_key(|id| catalog.file(*id).size_bytes);
        let mut rank_of = vec![0usize; catalog.len()];
        for (rank, id) in by_size.iter().enumerate() {
            rank_of[id.index()] = rank;
        }
        let mut requests = Vec::new();
        for burst in bursts {
            let start_rank = rank_of[popularity.sample(&mut rng)];
            for k in 0..burst.count {
                let rank = (start_rank + k).min(by_size.len() - 1);
                let time = burst.start + k as f64 * cfg.intra_batch_gap_s;
                if time < horizon {
                    requests.push(Request {
                        time,
                        file: by_size[rank],
                    });
                }
            }
        }
        requests.sort_by(|a, b| a.time.total_cmp(&b.time));
        Trace::new(requests, horizon)
    }

    /// The requests, time-ordered.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Observation-window length, seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Mean arrival rate over the horizon (requests per second).
    pub fn mean_rate(&self) -> f64 {
        if self.horizon > 0.0 {
            self.requests.len() as f64 / self.horizon
        } else {
            0.0
        }
    }

    /// Write as CSV: a header line, then `time,file_id` rows.
    pub fn write_csv<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "time_s,file_id")?;
        for r in &self.requests {
            writeln!(w, "{:.6},{}", r.time, r.file.0)?;
        }
        Ok(())
    }

    /// Read the CSV format produced by [`Self::write_csv`]. The horizon is
    /// the last request time (or 0 for an empty trace) unless a larger one
    /// is supplied.
    pub fn read_csv<R: BufRead>(r: R, horizon: Option<f64>) -> Result<Self, TraceIoError> {
        let mut source = CsvTraceSource::from_reader(r, MAX_TRACE_TIME_S)?;
        let requests: Vec<Request> =
            std::iter::from_fn(|| source.next_request().transpose()).collect::<Result<_, _>>()?;
        let last = requests.last().map_or(0.0, |r| r.time);
        Ok(Trace::new(requests, horizon.unwrap_or(last).max(last)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MB;

    impl Trace {
        /// Per-file request counts, indexed by file id, over `n_files` files.
        pub(crate) fn per_file_counts(&self, n_files: usize) -> Vec<u64> {
            let mut counts = vec![0u64; n_files];
            for r in &self.requests {
                counts[r.file.index()] += 1;
            }
            counts
        }

        /// Number of distinct files referenced.
        pub(crate) fn distinct_files(&self) -> usize {
            let mut ids: Vec<u32> = self.requests.iter().map(|r| r.file.0).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        }
    }

    /// Empirical popularity skew check:
    /// fits `log(count) = a − b·log(rank)` over files with non-zero counts and
    /// returns the slope `b` (positive for Zipf-like data).
    pub(crate) fn popularity_slope(counts: &[u64]) -> f64 {
        let mut sorted: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let points: Vec<(f64, f64)> = sorted
            .iter()
            .enumerate()
            .map(|(i, &c)| (((i + 1) as f64).ln(), (c as f64).ln()))
            .collect();
        if points.len() < 2 {
            return 0.0;
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return 0.0;
        }
        -(n * sxy - sx * sy) / denom
    }

    fn small_catalog() -> FileCatalog {
        FileCatalog::paper_table1(100, 0)
    }

    #[test]
    fn poisson_trace_rate_and_order() {
        let c = small_catalog();
        let t = Trace::poisson(&c, 5.0, 2000.0, 42);
        assert!((t.mean_rate() - 5.0).abs() < 0.3, "rate {}", t.mean_rate());
        for w in t.requests().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert_eq!(t.horizon(), 2000.0);
    }

    #[test]
    fn poisson_trace_respects_popularity() {
        let c = small_catalog();
        let t = Trace::poisson(&c, 50.0, 2000.0, 1);
        let counts = t.per_file_counts(c.len());
        // file 0 (most popular) should beat file 99 (least popular) clearly
        assert!(
            counts[0] > counts[99] * 2,
            "{} vs {}",
            counts[0],
            counts[99]
        );
    }

    #[test]
    fn trace_is_seed_deterministic() {
        let c = small_catalog();
        assert_eq!(
            Trace::poisson(&c, 3.0, 500.0, 9),
            Trace::poisson(&c, 3.0, 500.0, 9)
        );
        assert_ne!(
            Trace::poisson(&c, 3.0, 500.0, 9),
            Trace::poisson(&c, 3.0, 500.0, 10)
        );
    }

    #[test]
    fn batched_trace_targets_similar_sizes() {
        let c = small_catalog();
        let cfg = BatchConfig {
            burst_rate: 0.2,
            min_batch: 4,
            max_batch: 4,
            intra_batch_gap_s: 0.0,
        };
        let t = Trace::batched(&c, &cfg, 5000.0, 3);
        assert!(!t.is_empty());
        // Order files by size; a burst must reference a contiguous run of
        // size ranks (that is the §3.2 "similar sizes" semantics).
        let mut by_size: Vec<FileId> = c.iter().map(|f| f.id).collect();
        by_size.sort_by_key(|id| c.file(*id).size_bytes);
        let mut rank_of = vec![0usize; c.len()];
        for (rank, id) in by_size.iter().enumerate() {
            rank_of[id.index()] = rank;
        }
        let reqs = t.requests();
        let mut i = 0;
        while i < reqs.len() {
            let mut j = i;
            while j < reqs.len() && reqs[j].time == reqs[i].time {
                j += 1;
            }
            if j - i >= 2 {
                let mut ranks: Vec<usize> =
                    reqs[i..j].iter().map(|r| rank_of[r.file.index()]).collect();
                ranks.sort_unstable();
                for w in ranks.windows(2) {
                    assert!(w[1] - w[0] <= 1, "burst ranks not adjacent: {ranks:?}");
                }
            }
            i = j;
        }
    }

    #[test]
    fn csv_roundtrip() {
        let c = small_catalog();
        let t = Trace::poisson(&c, 2.0, 100.0, 5);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let back = Trace::read_csv(std::io::Cursor::new(&buf), Some(100.0)).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in back.requests().iter().zip(t.requests()) {
            assert_eq!(a.file, b.file);
            assert!((a.time - b.time).abs() < 1e-5);
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        let bad = "time_s,file_id\n1.0,3\nnot-a-number,4\n";
        let err = Trace::read_csv(std::io::Cursor::new(bad), None).unwrap_err();
        assert!(matches!(err, TraceIoError::Malformed(3, _)));
    }

    #[test]
    fn csv_rejects_out_of_order() {
        let bad = "time_s,file_id\n5.0,1\n4.0,2\n";
        let err = Trace::read_csv(std::io::Cursor::new(bad), None).unwrap_err();
        assert!(matches!(err, TraceIoError::OutOfOrder(3)));
    }

    #[test]
    fn distinct_files_counts_unique_ids() {
        let t = Trace::new(
            vec![
                Request {
                    time: 0.0,
                    file: FileId(1),
                },
                Request {
                    time: 1.0,
                    file: FileId(1),
                },
                Request {
                    time: 2.0,
                    file: FileId(7),
                },
            ],
            2.0,
        );
        assert_eq!(t.distinct_files(), 2);
    }

    #[test]
    fn popularity_slope_detects_zipf() {
        // counts ∝ 1/rank → slope ≈ 1
        let counts: Vec<u64> = (1..=200u64).map(|r| 10_000 / r).collect();
        let slope = popularity_slope(&counts);
        assert!((slope - 1.0).abs() < 0.1, "slope {slope}");
        // uniform counts → slope ≈ 0
        let flat = vec![50u64; 200];
        assert!(popularity_slope(&flat).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "requests out of order")]
    fn unordered_requests_rejected() {
        let _ = Trace::new(
            vec![
                Request {
                    time: 2.0,
                    file: FileId(0),
                },
                Request {
                    time: 1.0,
                    file: FileId(0),
                },
            ],
            2.0,
        );
    }

    #[test]
    fn empty_trace_mean_rate() {
        let t = Trace::new(vec![], 0.0);
        assert_eq!(t.mean_rate(), 0.0);
        let _ = MB; // keep the import used in all cfgs
    }
}
