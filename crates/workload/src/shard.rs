//! Splitting one arrival stream into per-shard streams.
//!
//! The sharded replay engine partitions the fleet by disk id: global disk
//! `d` belongs to shard `d % shards` and is local disk `d / shards` there.
//! After allocation every request's target disk is a pure function of its
//! file, so the arrival stream splits the same way. [`demux`] is the one
//! splitter: a single pump thread drains any [`TraceSource`] — an
//! in-memory trace, a CSV reader, a generator — exactly once, and its
//! resolver ([`DemuxPump::run_resolved`]) gives each request a [`Route`]:
//! the shard, the local disk, the file's size and the answer of the
//! simulator's cache walk. The request goes into its shard's current
//! batch with the route and its ordinal in the whole stream. Each shard
//! consumes a [`ShardReceiver`], which is itself a [`TraceSource`] and
//! hands out the routed requests through [`ShardReceiver::next_routed`],
//! so an engine reads no per-file table. One shard is the same pipeline:
//! the reader thread decodes and resolves while the engine runs.
//!
//! Memory is bounded at every shard count: each shard's batches travel
//! over a [`batch_channel`], whose pool of at most [`crate::batch::POOL`]
//! buffers is allocated lazily on the pump thread. A slow shard holds the
//! reader back instead of growing a queue.
//!
//! Requests for unmapped files go to shard 0 as [`UNMAPPED`], and its
//! engine raises the unmapped-file error.

use std::sync::{Arc, OnceLock};

use crate::batch::{batch_channel, BatchReceiver, BatchSender};
use crate::catalog::FileId;
use crate::source::TraceSource;
use crate::trace::{Request, TraceIoError};

/// Requests per batch: large enough to amortise a channel hand-off over
/// many requests, small enough that a shard's buffers stay a few dozen
/// pages (a batch is 40 bytes a request).
const CHUNK: usize = 1024;

/// The pump's terminal source error, shared with every receiver. The
/// pump sets it before it drops its senders, so a receiver that reaches
/// the end of its stream sees it.
type Failure = Arc<OnceLock<Arc<TraceIoError>>>;

/// The disk id of a file no disk holds, in a file → disk table and in a
/// [`Route`].
pub const UNMAPPED: u32 = u32::MAX;

/// Where the reader sends one request, and what the engine there needs
/// to know of its file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route {
    /// The shard whose engine takes the request.
    pub shard: usize,
    /// The target disk's local id in that shard, or [`UNMAPPED`].
    pub disk: u32,
    /// The file's size in bytes.
    pub size: u64,
    /// The cache hit's service time; `None` on a miss or without a cache.
    pub hit: Option<f64>,
}

impl Route {
    /// A request no disk serves: shard 0 takes it and fails the run.
    pub const UNMAPPED: Route = Route {
        shard: 0,
        disk: UNMAPPED,
        size: 0,
        hit: None,
    };

    /// The route to global disk `disk` (not [`UNMAPPED`]) of a fleet split
    /// over `shards` shards, with no size and no hit.
    #[inline]
    pub fn to_disk(disk: u32, shards: usize) -> Route {
        let (shard, disk) = match shards {
            1 => (0, disk),
            _ => ((disk as usize) % shards, disk / shards as u32),
        };
        Route {
            shard,
            disk,
            size: 0,
            hit: None,
        }
    }

    /// The route of a request for `file` through `disks`, the file →
    /// global disk table. Files outside the table, or mapped to
    /// [`UNMAPPED`], get [`Route::UNMAPPED`].
    #[inline]
    pub fn of(disks: &[u32], shards: usize, file: FileId) -> Route {
        match disks.get(file.index()) {
            Some(&disk) if disk != UNMAPPED => Route::to_disk(disk, shards),
            _ => Route::UNMAPPED,
        }
    }
}

/// A routed request as its shard reads it: one batch slot, with the hit
/// packed as a NaN-for-`None` float so a slot stays 40 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Routed {
    /// The request's ordinal in the whole (undemuxed) stream.
    pub seq: u64,
    /// Arrival time, seconds.
    pub time: f64,
    /// The requested file.
    pub file: FileId,
    /// The target disk's local id, or [`UNMAPPED`].
    pub disk: u32,
    /// The file's size in bytes.
    pub size: u64,
    hit: f64,
}

const _: () = assert!(std::mem::size_of::<Routed>() == 40);

impl Routed {
    /// The request itself.
    #[inline]
    pub fn request(&self) -> Request {
        Request {
            time: self.time,
            file: self.file,
        }
    }

    /// The cache hit's service time; `None` on a miss.
    #[inline]
    pub fn hit(&self) -> Option<f64> {
        (!self.hit.is_nan()).then_some(self.hit)
    }
}

/// The producer half of [`demux`]: owns the underlying source and the
/// pump's end of every shard. Run [`DemuxPump::run_resolved`] on its own
/// thread while the shard engines consume their [`ShardReceiver`]s.
pub struct DemuxPump<S> {
    source: S,
    lanes: Vec<BatchSender<Routed>>,
    failure: Failure,
}

impl<S: TraceSource> DemuxPump<S> {
    /// [`Self::run_resolved`] routing through `disks`, the file → global
    /// disk table ([`Route::of`]): every request is tagged with its local
    /// disk, no size and no hit.
    pub fn run(self, disks: &[u32]) {
        let shards = self.lanes.len();
        self.run_resolved(|r| Route::of(disks, shards, r.file));
    }

    /// Drain the source to exhaustion, sending each request to the shard
    /// `resolve` names, tagged with the rest of its [`Route`].
    ///
    /// `resolve` sees every request once, in stream order, before it is
    /// sent. The simulator walks its cache here, so one hierarchy serves
    /// the whole stream in arrival order whatever the shard count.
    ///
    /// On a source error the pump stops: each consumer reads the batches
    /// already shipped to it, then fails with [`TraceIoError::Shared`]
    /// over the one error. If a consumer hangs up (its engine failed), the
    /// pump stops at that shard's next batch — remaining consumers see end
    /// of stream, and the caller surfaces the consumer's own error.
    pub fn run_resolved(mut self, mut resolve: impl FnMut(&Request) -> Route) {
        let mut seq: u64 = 0;
        loop {
            match self.source.next_request() {
                Ok(Some(r)) => {
                    let route = resolve(&r);
                    let entry = Routed {
                        seq,
                        time: r.time,
                        file: r.file,
                        disk: route.disk,
                        size: route.size,
                        hit: route.hit.unwrap_or(f64::NAN),
                    };
                    if !self.lanes[route.shard].push(entry) {
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
    rx: BatchReceiver<Routed>,
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
            Some(entry) => Ok(Some(entry.time)),
            None => self.end(),
        }
    }

    /// The next request with its ordinal in the whole stream and its
    /// route.
    #[inline]
    pub fn next_routed(&mut self) -> Result<Option<Routed>, TraceIoError> {
        match self.rx.head() {
            Some(&entry) => {
                self.rx.advance();
                Ok(Some(entry))
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
        Ok(self.next_routed()?.map(|e| e.request()))
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }
}

/// Split `source` into `shards` per-shard streams. Returns the pump (drain
/// it on its own thread with [`DemuxPump::run_resolved`]) and one
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

    /// A routed request as a comparable tuple: its ordinal, the request,
    /// its local disk, its size and its hit.
    type Tagged = (u64, Request, u32, u64, Option<f64>);

    fn tagged(e: &Routed) -> Tagged {
        (e.seq, e.request(), e.disk, e.size, e.hit())
    }

    fn fixture() -> (Trace, Vec<u32>) {
        let catalog = FileCatalog::paper_table1(24, 0);
        let trace = Trace::poisson(&catalog, 3.0, 300.0, 7);
        // 24 files round-robined over 5 disks.
        let file_to_disk: Vec<u32> = (0..24).map(|f| f % 5).collect();
        (trace, file_to_disk)
    }

    /// The requests of `trace` routed to shard `s` of `shards`, in trace
    /// order, each with its index in the trace, its local disk, and no
    /// size or hit.
    fn routed(trace: &Trace, file_to_disk: &[u32], shards: usize, s: usize) -> Vec<Tagged> {
        (0..)
            .zip(trace.requests())
            .map(|(i, r)| (i, r, Route::of(file_to_disk, shards, r.file)))
            .filter(|(_, _, route)| route.shard == s)
            .map(|(i, r, route)| (i, *r, route.disk, 0, None))
            .collect()
    }

    /// Demultiplex `source` into `shards` streams and drain each one,
    /// pairing every request with the ordinal its receiver reports.
    fn split<S: TraceSource + Send>(
        source: S,
        file_to_disk: &[u32],
        shards: usize,
    ) -> Vec<Vec<Tagged>> {
        let (pump, mut rxs) = demux(source, shards);
        std::thread::scope(|scope| {
            scope.spawn(move || pump.run(file_to_disk));
            rxs.iter_mut()
                .map(|rx| {
                    let mut out = Vec::new();
                    while let Some(e) = rx.next_routed().expect("receiver yields") {
                        out.push(tagged(&e));
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
            for ((sa, a, da, ..), (sb, b, db, ..)) in stream.iter().zip(&want) {
                assert_eq!(sa, sb, "shard {s} ordinal");
                assert_eq!(a.file, b.file, "shard {s} order");
                assert_eq!(da, db, "shard {s} disk");
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
                    let e = rx.next_routed().unwrap().expect("a shipped request");
                    assert_eq!(e.seq as usize, 2 * k + s, "shard {s}");
                    assert_eq!(e.file, FileId(s as u32), "shard {s}");
                }
                for _ in 0..2 {
                    let e = rx.next_routed().expect_err("the source error");
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
    fn routes_travel_with_their_requests() {
        // The resolver sees the whole stream in order, once, and each
        // request reaches the shard it names with its disk, size and hit.
        let (trace, file_to_disk) = fixture();
        let resolve = |map: &[u32], shards, r: &Request| {
            let f = r.file.0;
            Route {
                size: u64::from(f) * 10 + 1,
                hit: f.is_multiple_of(3).then_some(f64::from(f) * 0.5),
                ..Route::of(map, shards, r.file)
            }
        };
        for shards in [1, 3] {
            let mut seen = Vec::new();
            let (pump, mut rxs) = demux(InMemorySource::new(&trace), shards);
            let got: Vec<Vec<Tagged>> = std::thread::scope(|scope| {
                let (map, seen) = (&file_to_disk, &mut seen);
                scope.spawn(move || {
                    pump.run_resolved(|r| {
                        seen.push(*r);
                        resolve(map, shards, r)
                    })
                });
                rxs.iter_mut()
                    .map(|rx| {
                        std::iter::from_fn(|| rx.next_routed().unwrap())
                            .map(|e| tagged(&e))
                            .collect()
                    })
                    .collect()
            });
            assert_eq!(seen, trace.requests(), "S={shards}: resolved in order");
            for (s, stream) in got.iter().enumerate() {
                let want: Vec<Tagged> = routed(&trace, &file_to_disk, shards, s)
                    .into_iter()
                    .map(|(i, r, disk, ..)| {
                        let route = resolve(&file_to_disk, shards, &r);
                        (i, r, disk, route.size, route.hit)
                    })
                    .collect();
                assert!(want.iter().any(|t| t.4.is_some()), "S={shards}: some hits");
                assert_eq!(*stream, want, "S={shards} shard {s}");
            }
        }
    }

    #[test]
    fn unmapped_files_route_to_shard_zero() {
        let disks = [4, UNMAPPED];
        assert_eq!(Route::of(&disks, 3, FileId(0)), Route::to_disk(4, 3));
        assert_eq!(
            (Route::to_disk(4, 3).shard, Route::to_disk(4, 3).disk),
            (1, 1)
        );
        assert_eq!(
            (Route::to_disk(4, 1).shard, Route::to_disk(4, 1).disk),
            (0, 4)
        );
        assert_eq!(Route::of(&disks, 3, FileId(1)), Route::UNMAPPED, "sentinel");
        assert_eq!(
            Route::of(&disks, 3, FileId(9)),
            Route::UNMAPPED,
            "out of range"
        );
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
        assert_eq!(got[0][0].2, UNMAPPED);
    }

    #[test]
    fn single_shard_view_is_the_whole_trace() {
        let (trace, file_to_disk) = fixture();
        let got = split(InMemorySource::new(&trace), &file_to_disk, 1);
        let whole: Vec<Request> = got[0].iter().map(|t| t.1).collect();
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
            let file_to_disk: Vec<u32> = (0..24).map(|f| f % 5).collect();
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
