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
//! Memory is bounded at every shard count. [`demux`] allocates each
//! shard's batch buffers once, on the calling thread, and the buffers
//! cycle: the pump fills one and sends it, the receiver reads it in place
//! and sends it back empty over a return channel. When every buffer of a
//! shard is in flight the pump waits for one to come back, so a slow
//! shard holds the reader back instead of growing a queue.
//!
//! Requests for unmapped files go to shard 0, which surfaces the same
//! unmapped-file error the unsharded engine would raise.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use crate::source::TraceSource;
use crate::trace::{Request, TraceIoError};

/// Requests per batch: large enough to amortise a channel hand-off over
/// many requests, small enough that a shard's buffers stay a few dozen
/// pages (a batch is 32 bytes a request).
const CHUNK: usize = 1024;
/// Full batches a shard's channel may hold ahead of its receiver. A shard
/// owns `DEPTH + 2` buffers: these, the one the pump fills and the one
/// the receiver reads.
const DEPTH: usize = 4;
/// Batch buffers per shard.
const POOL: usize = DEPTH + 2;

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

/// One message on a demux channel: a batch of routed requests, or the
/// shared copy of the pump's terminal error.
enum Msg {
    Batch(Vec<Entry>),
    Failed(Arc<TraceIoError>),
}

/// The pump's end of one shard: the batch being filled, the channel full
/// batches go out on, and the return channel empty ones come back on.
struct Lane {
    fill: Vec<Entry>,
    tx: SyncSender<Msg>,
    free: Receiver<Vec<Entry>>,
}

impl Lane {
    /// Send the full batch and take an empty buffer back from the shard's
    /// pool, waiting for the receiver to finish one if all are in flight.
    /// `false` once the receiver has hung up.
    fn ship(&mut self) -> bool {
        let full = std::mem::take(&mut self.fill);
        if self.tx.send(Msg::Batch(full)).is_err() {
            return false;
        }
        match self.free.recv() {
            Ok(empty) => {
                self.fill = empty;
                true
            }
            Err(_) => false,
        }
    }
}

/// The producer half of [`demux`]: owns the underlying source and the
/// pump's end of every shard. Run [`DemuxPump::run_probed`] on its own
/// thread while the shard engines consume their [`ShardReceiver`]s.
pub struct DemuxPump<S> {
    source: S,
    lanes: Vec<Lane>,
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
    /// On a source error the error is wrapped in an [`Arc`] and fanned out
    /// to every shard, so each consumer fails with
    /// [`TraceIoError::Shared`]. If a consumer hangs up (its engine
    /// failed), the pump stops at that shard's next batch — remaining
    /// consumers see end of stream, and the caller surfaces the consumer's
    /// own error.
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
                    let lane = &mut self.lanes[s];
                    lane.fill.push(Entry {
                        seq,
                        request: r,
                        hit,
                    });
                    seq += 1;
                    if lane.fill.len() == CHUNK && !lane.ship() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let shared = Arc::new(e);
                    for lane in &self.lanes {
                        let _ = lane.tx.send(Msg::Failed(Arc::clone(&shared)));
                    }
                    return;
                }
            }
        }
        for lane in self.lanes {
            if !lane.fill.is_empty() {
                let _ = lane.tx.send(Msg::Batch(lane.fill));
            }
        }
        // Dropping the senders closes every channel: consumers observe a
        // clean end of stream.
    }
}

/// The consumer half of [`demux`]: a blocking [`TraceSource`] over one
/// shard's channel. Yields the shard's requests in trace order, reading
/// each batch in place; after the pump reports an error, every subsequent
/// call returns [`TraceIoError::Shared`] over the same underlying failure.
pub struct ShardReceiver {
    batch: Vec<Entry>,
    next: usize,
    rx: Receiver<Msg>,
    free: SyncSender<Vec<Entry>>,
    horizon: f64,
    failed: Option<Arc<TraceIoError>>,
    done: bool,
    /// Batch buffers allocated for this shard, read by the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    allocations: usize,
}

impl ShardReceiver {
    /// The next request together with its ordinal in the whole stream
    /// and the pump's probe answer.
    #[inline]
    pub fn next_tagged(&mut self) -> Result<Option<Tagged>, TraceIoError> {
        if self.next == self.batch.len() {
            self.refill()?;
        }
        let tagged = self.batch.get(self.next).map(Entry::tagged);
        self.next += usize::from(tagged.is_some());
        Ok(tagged)
    }

    /// The current batch is spent: hand its buffer back to the pump and
    /// block until the next batch, the end of the stream, or the pump's
    /// error arrives.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> Result<(), TraceIoError> {
        while self.next == self.batch.len() && !self.done {
            let mut spent = std::mem::take(&mut self.batch);
            self.next = 0;
            if spent.capacity() > 0 {
                spent.clear();
                // A pump that has finished no longer takes buffers back.
                let _ = self.free.send(spent);
            }
            match self.rx.recv() {
                Ok(Msg::Batch(batch)) => self.batch = batch,
                Ok(Msg::Failed(e)) => {
                    self.failed = Some(e);
                    self.done = true;
                }
                Err(_) => self.done = true,
            }
        }
        match &self.failed {
            Some(e) => Err(TraceIoError::Shared(Arc::clone(e))),
            None => Ok(()),
        }
    }

    /// Batch buffers allocated for this shard (all of them by [`demux`]).
    #[cfg(test)]
    pub(crate) fn batch_allocations(&self) -> usize {
        self.allocations
    }
}

impl TraceSource for ShardReceiver {
    #[inline]
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        if self.next == self.batch.len() {
            self.refill()?;
        }
        Ok(self.batch.get(self.next).map(|e| e.request.time))
    }

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
/// [`ShardReceiver`] per shard. The source is read exactly once, and every batch buffer the
/// run will use is allocated here.
pub fn demux<S: TraceSource>(source: S, shards: usize) -> (DemuxPump<S>, Vec<ShardReceiver>) {
    assert!(shards > 0, "demux needs at least one shard");
    let horizon = source.horizon();
    let mut lanes = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        // A shard has `POOL` buffers, and the pump holds one whenever it
        // fans out an error, so neither channel ever holds more than
        // `POOL` messages: no send blocks, and the pump waits only for an
        // empty buffer (`free.recv`).
        let (tx, rx) = sync_channel(POOL);
        let (free_tx, free) = sync_channel(POOL);
        let mut allocations = 0;
        let mut buffer = || {
            allocations += 1;
            Vec::with_capacity(CHUNK)
        };
        let fill = buffer();
        for _ in 1..POOL {
            free_tx
                .send(buffer())
                .expect("the return channel holds the whole pool");
        }
        lanes.push(Lane { fill, tx, free });
        rxs.push(ShardReceiver {
            batch: Vec::new(),
            next: 0,
            rx,
            free: free_tx,
            horizon,
            failed: None,
            done: false,
            allocations,
        });
    }
    (DemuxPump { source, lanes }, rxs)
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
                let (pump, mut rxs) = demux(source, shards);
                let total: usize = std::thread::scope(|scope| {
                    scope.spawn(|| pump.run(&file_to_disk));
                    let drains: Vec<_> = rxs
                        .iter_mut()
                        .map(|rx| scope.spawn(move || drain(rx).len()))
                        .collect();
                    drains.into_iter().map(|h| h.join().unwrap()).sum()
                });
                let allocations: Vec<usize> = rxs.iter().map(|rx| rx.batch_allocations()).collect();
                let _ = done.send((shards, total, allocations));
            }
        });
        for _ in 0..2 {
            let (shards, total, allocations) = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the drain finished");
            assert!(total > 990_000, "S={shards}: drained {total}");
            for (s, &n) in allocations.iter().enumerate() {
                assert!(
                    n <= DEPTH + 2,
                    "S={shards} shard {s}: {n} batch allocations"
                );
            }
        }
    }
}
