//! Splitting one arrival stream into per-shard streams.
//!
//! The sharded replay engine partitions the fleet by disk id: global disk
//! `d` belongs to shard `d % shards`. After allocation every request's
//! target disk is a pure function of its file, so the arrival stream
//! splits the same way. [`demux`] is the one splitter: a single pump
//! thread drains any [`TraceSource`] — an in-memory trace, a CSV reader,
//! a generator — exactly once, routing each request by [`route_shard`]
//! into its shard's current batch, tagged with its ordinal in the whole
//! stream and with the answer of the pump's probe (the simulator's cache
//! walk, see [`DemuxPump::run_probed`]). Each shard consumes a
//! [`ShardReceiver`], which is itself a [`TraceSource`] and hands out
//! both tags through [`ShardReceiver::next_tagged`]. One shard is the
//! same driver with the routing skipped: the reader thread decodes while
//! the engine runs.
//!
//! Memory is bounded at every shard count: each shard's batches travel
//! over a [`batch_channel`], whose pool of at most [`crate::batch::POOL`]
//! buffers is allocated lazily on the pump thread. A slow shard holds the
//! reader back instead of growing a queue.
//!
//! Requests for unmapped files go to shard 0, which surfaces the same
//! unmapped-file error the unsharded engine would raise.

use std::sync::{Arc, OnceLock};

use crate::batch::{batch_channel, BatchReceiver, BatchSender};
use crate::source::TraceSource;
use crate::trace::{Request, TraceIoError};

/// Requests per batch: large enough to amortise a channel hand-off over
/// many requests, small enough that a shard's buffers stay a few dozen
/// pages (a batch is 32 bytes a request).
const CHUNK: usize = 1024;

/// The pump's terminal source error, shared with every receiver. The
/// pump sets it before it drops its senders, so a receiver that reaches
/// the end of its stream sees it.
type Failure = Arc<OnceLock<Arc<TraceIoError>>>;

/// A routed request: its ordinal in the whole (undemuxed) stream, the
/// request, and the probe's answer for it (`None` on a miss, or when the
/// pump ran without a probe).
pub type Tagged = (u64, Request, Option<f64>);

/// One batch slot: a [`Tagged`] request with the probe's answer packed as
/// a NaN-for-`None` float, so a slot stays 32 bytes.
#[derive(Clone, Copy)]
struct Entry {
    seq: u64,
    request: Request,
    hit: f64,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    #[inline]
    fn tagged(&self) -> Tagged {
        let hit = (!self.hit.is_nan()).then_some(self.hit);
        (self.seq, self.request, hit)
    }
}

/// The shard a request for `file` routes to, given the file→disk map and
/// the shard count: the target disk's `disk % shards`. Files outside the
/// map (or mapped to [`usize::MAX`], the engine's unmapped sentinel) route
/// to shard 0 so exactly one shard raises the unmapped-file error the
/// unsharded engine would.
#[inline]
pub fn route_shard(file_to_disk: &[usize], shards: usize, file: usize) -> usize {
    match file_to_disk.get(file) {
        Some(&disk) if disk != usize::MAX => disk % shards,
        _ => 0,
    }
}

/// The producer half of [`demux`]: owns the underlying source and the
/// pump's end of every shard. Run [`DemuxPump::run_probed`] on its own
/// thread while the shard engines consume their [`ShardReceiver`]s.
pub struct DemuxPump<S> {
    source: S,
    lanes: Vec<BatchSender<Entry>>,
    failure: Failure,
}

impl<S: TraceSource> DemuxPump<S> {
    /// [`Self::run_probed`] with no probe: every request is tagged as a
    /// miss.
    pub fn run(self, file_to_disk: &[usize]) {
        self.run_probed(file_to_disk, |_| None);
    }

    /// Drain the source to exhaustion, routing each request to its shard
    /// through `file_to_disk` (same rule as [`route_shard`]). With one
    /// shard every request goes to it and the map is never read.
    ///
    /// `probe` sees every request once, in stream order, before it is
    /// sent, and its answer travels with the request to its shard (a NaN
    /// answer reads back as `None`). The simulator passes its cache walk
    /// here, so one hierarchy serves the whole stream in arrival order
    /// whatever the shard count.
    ///
    /// On a source error the pump stops: each consumer reads the batches
    /// already shipped to it, then fails with [`TraceIoError::Shared`]
    /// over the one error. If a consumer hangs up (its engine failed), the
    /// pump stops at that shard's next batch — remaining consumers see end
    /// of stream, and the caller surfaces the consumer's own error.
    pub fn run_probed(
        mut self,
        file_to_disk: &[usize],
        mut probe: impl FnMut(&Request) -> Option<f64>,
    ) {
        let shards = self.lanes.len();
        let mut seq: u64 = 0;
        loop {
            match self.source.next_request() {
                Ok(Some(r)) => {
                    let s = if shards == 1 {
                        0
                    } else {
                        route_shard(file_to_disk, shards, r.file.0 as usize)
                    };
                    let hit = probe(&r).unwrap_or(f64::NAN);
                    let entry = Entry {
                        seq,
                        request: r,
                        hit,
                    };
                    if !self.lanes[s].push(entry) {
                        return;
                    }
                    seq += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    // Set before the senders drop (with `self`): a
                    // receiver reads it once its channel has closed.
                    let _ = self.failure.set(Arc::new(e));
                    return;
                }
            }
        }
        for lane in self.lanes {
            lane.finish();
        }
    }
}

/// The consumer half of [`demux`]: a blocking [`TraceSource`] over one
/// shard's channel. Yields the shard's requests in trace order; after the
/// pump fails, every later call returns [`TraceIoError::Shared`] over the
/// same underlying failure.
pub struct ShardReceiver {
    rx: BatchReceiver<Entry>,
    failure: Failure,
    horizon: f64,
}

impl ShardReceiver {
    /// Arrival time of the next request without consuming it (`None` at
    /// the end of the stream) — the engine's one peek, which interleaves
    /// arrivals with its scheduled events.
    #[inline]
    pub fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        match self.rx.head() {
            Some(entry) => Ok(Some(entry.request.time)),
            None => self.end(),
        }
    }

    /// The next request together with its ordinal in the whole stream
    /// and the pump's probe answer.
    #[inline]
    pub fn next_tagged(&mut self) -> Result<Option<Tagged>, TraceIoError> {
        match self.rx.head() {
            Some(entry) => {
                let tagged = entry.tagged();
                self.rx.advance();
                Ok(Some(tagged))
            }
            None => self.end(),
        }
    }

    /// The end of the shard's stream: clean, or the pump's error.
    #[cold]
    fn end<T>(&self) -> Result<Option<T>, TraceIoError> {
        match self.failure.get() {
            Some(e) => Err(TraceIoError::Shared(Arc::clone(e))),
            None => Ok(None),
        }
    }
}

impl TraceSource for ShardReceiver {
    #[inline]
    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        Ok(self.next_tagged()?.map(|(_, r, _)| r))
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }
}

/// Split `source` into `shards` per-shard streams. Returns the pump (drain
/// it on its own thread with [`DemuxPump::run_probed`]) and one
/// [`ShardReceiver`] per shard. The source is read exactly once.
pub fn demux<S: TraceSource>(source: S, shards: usize) -> (DemuxPump<S>, Vec<ShardReceiver>) {
    assert!(shards > 0, "demux needs at least one shard");
    let horizon = source.horizon();
    let failure = Failure::default();
    let (lanes, rxs) = (0..shards)
        .map(|_| {
            let (tx, rx) = batch_channel(CHUNK);
            let rx = ShardReceiver {
                rx,
                failure: Arc::clone(&failure),
                horizon,
            };
            (tx, rx)
        })
        .unzip();
    let pump = DemuxPump {
        source,
        lanes,
        failure,
    };
    (pump, rxs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FileCatalog, FileId};
    use crate::source::{CsvTraceSource, InMemorySource, SyntheticSource};
    use crate::trace::Trace;

    fn drain(src: &mut dyn TraceSource) -> Vec<Request> {
        let mut out = Vec::new();
        while let Some(r) = src.next_request().expect("source yields") {
            out.push(r);
        }
        out
    }

    fn fixture() -> (Trace, Vec<usize>) {
        let catalog = FileCatalog::paper_table1(24, 0);
        let trace = Trace::poisson(&catalog, 3.0, 300.0, 7);
        // 24 files round-robined over 5 disks.
        let file_to_disk: Vec<usize> = (0..24).map(|f| f % 5).collect();
        (trace, file_to_disk)
    }

    /// The requests of `trace` routed to shard `s` of `shards`, in trace
    /// order, each with its index in the trace and no probe answer.
    fn routed(trace: &Trace, file_to_disk: &[usize], shards: usize, s: usize) -> Vec<Tagged> {
        (0..)
            .zip(trace.requests())
            .filter(|(_, r)| route_shard(file_to_disk, shards, r.file.0 as usize) == s)
            .map(|(i, r)| (i, *r, None))
            .collect()
    }

    /// Demultiplex `source` into `shards` streams and drain each one,
    /// pairing every request with the ordinal its receiver reports.
    fn split<S: TraceSource + Send>(
        source: S,
        file_to_disk: &[usize],
        shards: usize,
    ) -> Vec<Vec<Tagged>> {
        let (pump, mut rxs) = demux(source, shards);
        std::thread::scope(|scope| {
            scope.spawn(move || pump.run(file_to_disk));
            rxs.iter_mut()
                .map(|rx| {
                    let mut out = Vec::new();
                    while let Some(tagged) = rx.next_tagged().expect("receiver yields") {
                        out.push(tagged);
                    }
                    assert!(rx.next_request().expect("clean end").is_none());
                    out
                })
                .collect()
        })
    }

    #[test]
    fn sharded_views_partition_the_trace_exactly() {
        // Every shard's stream is exactly its routed subsequence of the
        // trace, in trace order, each request tagged with its index in the
        // whole trace — so the shards partition the trace.
        let (trace, file_to_disk) = fixture();
        for shards in [1, 2, 3, 5, 8] {
            let got = split(InMemorySource::new(&trace), &file_to_disk, shards);
            let total: usize = got.iter().map(Vec::len).sum();
            assert_eq!(total, trace.len(), "{shards} shards dropped requests");
            for (s, stream) in got.iter().enumerate() {
                assert_eq!(
                    *stream,
                    routed(&trace, &file_to_disk, shards, s),
                    "shard {s} of {shards}"
                );
            }
        }
    }

    #[test]
    fn demux_round_trips_a_csv_stream_in_shard_order() {
        let (trace, file_to_disk) = fixture();
        let mut csv = Vec::new();
        trace.write_csv(&mut csv).unwrap();
        let source =
            CsvTraceSource::from_reader(std::io::Cursor::new(csv), trace.horizon()).unwrap();
        let shards = 3;
        let got = split(source, &file_to_disk, shards);
        // Compare against the routed subsequences of the in-memory trace
        // (CSV print precision rounds times, so compare ordinals, file ids
        // and times to that precision).
        for (s, stream) in got.iter().enumerate() {
            let want = routed(&trace, &file_to_disk, shards, s);
            assert_eq!(stream.len(), want.len(), "shard {s} length");
            for ((sa, a, _), (sb, b, _)) in stream.iter().zip(&want) {
                assert_eq!(sa, sb, "shard {s} ordinal");
                assert_eq!(a.file, b.file, "shard {s} order");
                assert!((a.time - b.time).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn demux_fans_a_source_error_out_to_every_shard() {
        let bad = "1.0,0\n2.0,1\n1.5,2\n"; // out of order at line 3
        let source = CsvTraceSource::from_reader(std::io::Cursor::new(bad), 10.0).unwrap();
        let (pump, mut rxs) = demux(source, 3);
        std::thread::scope(|scope| {
            scope.spawn(move || pump.run(&[0, 1, 2]));
            for (s, rx) in rxs.iter_mut().enumerate() {
                let mut saw_error = false;
                loop {
                    match rx.next_request() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(e) => {
                            assert!(
                                matches!(
                                    &e,
                                    TraceIoError::Shared(inner)
                                        if matches!(**inner, TraceIoError::OutOfOrder(3))
                                ),
                                "shard {s}: unexpected error {e}"
                            );
                            saw_error = true;
                            // The error is persistent.
                            assert!(rx.next_request().is_err());
                            break;
                        }
                    }
                }
                assert!(saw_error, "shard {s} missed the fan-out error");
            }
        });
    }

    #[test]
    fn a_source_error_follows_every_batch_shipped_before_it() {
        // 2.5 batches a shard, then an out-of-order row: each shard gets
        // its two full batches, then the error on every later call. The
        // half batch the pump was filling is dropped.
        let good = 5 * CHUNK / 2;
        let mut rows: String = (0..2 * good)
            .map(|i| format!("{i}.0,{}\n", i % 2))
            .collect();
        rows.push_str("0.5,0\n");
        let bad_line = 2 * good + 1;
        let source = CsvTraceSource::from_reader(std::io::Cursor::new(rows), 1e6).unwrap();
        let (pump, mut rxs) = demux(source, 2);
        std::thread::scope(|scope| {
            scope.spawn(move || pump.run(&[0, 1]));
            for (s, rx) in rxs.iter_mut().enumerate() {
                for k in 0..2 * CHUNK {
                    let (seq, r, _) = rx.next_tagged().unwrap().expect("a shipped request");
                    assert_eq!(seq as usize, 2 * k + s, "shard {s}");
                    assert_eq!(r.file, FileId(s as u32), "shard {s}");
                }
                for _ in 0..2 {
                    let e = rx.next_tagged().expect_err("the source error");
                    assert!(
                        matches!(
                            &e,
                            TraceIoError::Shared(inner)
                                if matches!(**inner, TraceIoError::OutOfOrder(n) if n == bad_line)
                        ),
                        "shard {s}: unexpected error {e}"
                    );
                }
            }
        });
    }

    #[test]
    fn probe_answers_travel_with_their_requests() {
        // The probe sees the whole stream in order, once, before routing,
        // and each answer reaches the shard its request routes to.
        let (trace, file_to_disk) = fixture();
        let answer = |r: &Request| {
            let f = r.file.0;
            f.is_multiple_of(3).then_some(f64::from(f) * 0.5)
        };
        for shards in [1, 3] {
            let mut probed = Vec::new();
            let (pump, mut rxs) = demux(InMemorySource::new(&trace), shards);
            let got: Vec<Vec<Tagged>> = std::thread::scope(|scope| {
                let (map, probed) = (&file_to_disk, &mut probed);
                scope.spawn(move || {
                    pump.run_probed(map, |r| {
                        probed.push(*r);
                        answer(r)
                    })
                });
                rxs.iter_mut()
                    .map(|rx| std::iter::from_fn(|| rx.next_tagged().unwrap()).collect())
                    .collect()
            });
            assert_eq!(probed, trace.requests(), "S={shards}: probed in order");
            for (s, stream) in got.iter().enumerate() {
                let want: Vec<Tagged> = routed(&trace, &file_to_disk, shards, s)
                    .into_iter()
                    .map(|(i, r, _)| (i, r, answer(&r)))
                    .collect();
                assert!(want.iter().any(|t| t.2.is_some()), "S={shards}: some hits");
                assert_eq!(*stream, want, "S={shards} shard {s}");
            }
        }
    }

    #[test]
    fn unmapped_files_route_to_shard_zero() {
        assert_eq!(route_shard(&[4, usize::MAX], 3, 0), 1);
        assert_eq!(route_shard(&[4, usize::MAX], 3, 1), 0, "MAX sentinel");
        assert_eq!(route_shard(&[4, usize::MAX], 3, 9), 0, "out of range");
        let trace = Trace::new(
            vec![Request {
                time: 1.0,
                file: FileId(77),
            }],
            10.0,
        );
        let got = split(InMemorySource::new(&trace), &[0, 1, 2], 3);
        for (s, stream) in got.iter().enumerate() {
            assert_eq!(stream.len(), usize::from(s == 0), "shard {s}");
        }
    }

    #[test]
    fn single_shard_view_is_the_whole_trace() {
        let (trace, file_to_disk) = fixture();
        let got = split(InMemorySource::new(&trace), &file_to_disk, 1);
        let whole: Vec<Request> = got[0].iter().map(|&(_, r, _)| r).collect();
        assert_eq!(whole, drain(&mut InMemorySource::new(&trace)));
        assert_eq!(got[0], routed(&trace, &file_to_disk, 1, 0));
    }

    #[test]
    fn a_million_requests_cycle_through_a_fixed_pool_of_batches() {
        // ~1M requests over 24 files: far more batches than a pool holds,
        // so the drain ends only if the buffers come back. A pump left
        // waiting on a buffer that never returns misses the deadline.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let catalog = FileCatalog::paper_table1(24, 0);
            let file_to_disk: Vec<usize> = (0..24).map(|f| f % 5).collect();
            for shards in [1, 2] {
                let source = SyntheticSource::poisson(&catalog, 1000.0, 1000.0, 11);
                let (pump, rxs) = demux(source, shards);
                let total: usize = std::thread::scope(|scope| {
                    scope.spawn(|| pump.run(&file_to_disk));
                    let drains: Vec<_> = rxs
                        .into_iter()
                        .map(|mut rx| scope.spawn(move || drain(&mut rx).len()))
                        .collect();
                    drains.into_iter().map(|h| h.join().unwrap()).sum()
                });
                let _ = done.send((shards, total));
            }
        });
        for _ in 0..2 {
            let (shards, total) = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the drain finished");
            assert!(total > 990_000, "S={shards}: drained {total}");
        }
    }
}
