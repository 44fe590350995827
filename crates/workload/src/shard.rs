//! Splitting one arrival stream into per-shard streams.
//!
//! The sharded replay engine partitions the fleet by disk id: global disk
//! `d` belongs to shard `d % shards`. After allocation every request's
//! target disk is a pure function of its file, so the arrival stream
//! splits the same way. [`demux`] is the one splitter: a single pump
//! thread drains any [`TraceSource`] — an in-memory trace, a CSV reader,
//! a generator — exactly once, routing each request by [`route_shard`]
//! into a bounded per-shard channel in [`Request`]-chunk batches, tagged
//! with its ordinal in the whole stream. Each shard consumes a
//! [`ShardReceiver`], which is itself a [`TraceSource`] and reports that
//! ordinal through [`TraceSource::peek_seq`].
//!
//! Requests for unmapped files go to shard 0, which surfaces the same
//! unmapped-file error the unsharded engine would raise.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use crate::source::TraceSource;
use crate::trace::{Request, TraceIoError};

/// Requests per channel batch: large enough to amortise channel overhead,
/// small enough that per-shard buffering stays a few pages.
const CHUNK: usize = 4096;
/// Bounded channel depth, in batches. With every consumer guaranteed to
/// drain or drop its receiver, a small bound caps memory without risking
/// deadlock.
const DEPTH: usize = 4;

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

/// One message on a demux channel: a batch of routed requests (each
/// tagged with its global ordinal in the undemuxed stream), or the shared
/// copy of the pump's terminal error.
enum Batch {
    Requests(Vec<(u64, Request)>),
    Failed(Arc<TraceIoError>),
}

/// The producer half of [`demux`]: owns the underlying source and the send
/// ends of every shard channel. Run [`DemuxPump::run`] on its own thread
/// while the shard engines consume their [`ShardReceiver`]s.
pub struct DemuxPump<S> {
    source: S,
    txs: Vec<SyncSender<Batch>>,
}

impl<S: TraceSource> DemuxPump<S> {
    /// Drain the source to exhaustion, routing each request to its shard's
    /// channel through `file_to_disk` (same rule as [`route_shard`]).
    ///
    /// On a source error the error is wrapped in an [`Arc`] and fanned out
    /// to every shard, so each consumer fails with
    /// [`TraceIoError::Shared`]. If a consumer hangs up (its engine
    /// failed), the pump stops early — remaining consumers see end of
    /// stream, and the caller surfaces the consumer's own error.
    pub fn run(mut self, file_to_disk: &[usize]) {
        let shards = self.txs.len();
        let mut chunks: Vec<Vec<(u64, Request)>> =
            (0..shards).map(|_| Vec::with_capacity(CHUNK)).collect();
        let mut seq: u64 = 0;
        loop {
            match self.source.next_request() {
                Ok(Some(r)) => {
                    let s = route_shard(file_to_disk, shards, r.file.0 as usize);
                    chunks[s].push((seq, r));
                    seq += 1;
                    if chunks[s].len() == CHUNK {
                        let full = std::mem::replace(&mut chunks[s], Vec::with_capacity(CHUNK));
                        if self.txs[s].send(Batch::Requests(full)).is_err() {
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let shared = Arc::new(e);
                    for tx in &self.txs {
                        let _ = tx.send(Batch::Failed(Arc::clone(&shared)));
                    }
                    return;
                }
            }
        }
        for (s, chunk) in chunks.into_iter().enumerate() {
            if !chunk.is_empty() && self.txs[s].send(Batch::Requests(chunk)).is_err() {
                return;
            }
        }
        // Dropping the senders closes every channel: consumers observe a
        // clean end of stream.
    }
}

/// The consumer half of [`demux`]: a blocking [`TraceSource`] over one
/// shard's channel. Yields the shard's requests in trace order; after the
/// pump reports an error, every subsequent call returns
/// [`TraceIoError::Shared`] over the same underlying failure.
pub struct ShardReceiver {
    rx: Receiver<Batch>,
    buf: VecDeque<(u64, Request)>,
    horizon: f64,
    failed: Option<Arc<TraceIoError>>,
    done: bool,
}

impl ShardReceiver {
    /// Block until a request is buffered, the stream ends, or the pump's
    /// error arrives.
    fn refill(&mut self) -> Result<(), TraceIoError> {
        while self.buf.is_empty() && !self.done {
            match self.rx.recv() {
                Ok(Batch::Requests(v)) => self.buf.extend(v),
                Ok(Batch::Failed(e)) => {
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
}

impl TraceSource for ShardReceiver {
    fn peek_time(&mut self) -> Result<Option<f64>, TraceIoError> {
        self.refill()?;
        Ok(self.buf.front().map(|(_, r)| r.time))
    }

    fn next_request(&mut self) -> Result<Option<Request>, TraceIoError> {
        self.refill()?;
        Ok(self.buf.pop_front().map(|(_, r)| r))
    }

    fn peek_seq(&mut self) -> Option<u64> {
        // A refill failure surfaces through the fallible accessors; here
        // it just reads as end-of-stream.
        let _ = self.refill();
        self.buf.front().map(|(seq, _)| *seq)
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }
}

/// Split `source` into `shards` per-shard streams behind bounded channels.
/// Returns the pump (drain it on its own thread with [`DemuxPump::run`])
/// and one [`ShardReceiver`] per shard. The source is read exactly once.
pub fn demux<S: TraceSource>(source: S, shards: usize) -> (DemuxPump<S>, Vec<ShardReceiver>) {
    assert!(shards > 0, "demux needs at least one shard");
    let horizon = source.horizon();
    let mut txs = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = sync_channel(DEPTH);
        txs.push(tx);
        rxs.push(ShardReceiver {
            rx,
            buf: VecDeque::new(),
            horizon,
            failed: None,
            done: false,
        });
    }
    (DemuxPump { source, txs }, rxs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FileCatalog, FileId};
    use crate::source::{CsvTraceSource, InMemorySource};
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
    /// order, each with its index in the trace.
    fn routed(
        trace: &Trace,
        file_to_disk: &[usize],
        shards: usize,
        s: usize,
    ) -> Vec<(u64, Request)> {
        (0..)
            .zip(trace.requests())
            .filter(|(_, r)| route_shard(file_to_disk, shards, r.file.0 as usize) == s)
            .map(|(i, r)| (i, *r))
            .collect()
    }

    /// Demultiplex `source` into `shards` streams and drain each one,
    /// pairing every request with the ordinal its receiver reports.
    fn split<S: TraceSource + Send>(
        source: S,
        file_to_disk: &[usize],
        shards: usize,
    ) -> Vec<Vec<(u64, Request)>> {
        let (pump, mut rxs) = demux(source, shards);
        std::thread::scope(|scope| {
            scope.spawn(move || pump.run(file_to_disk));
            rxs.iter_mut()
                .map(|rx| {
                    let mut out = Vec::new();
                    while let Some(seq) = rx.peek_seq() {
                        let r = rx.next_request().expect("receiver yields");
                        out.push((seq, r.expect("peeked request")));
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
            for ((sa, a), (sb, b)) in stream.iter().zip(&want) {
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
        let whole: Vec<Request> = got[0].iter().map(|&(_, r)| r).collect();
        assert_eq!(whole, drain(&mut InMemorySource::new(&trace)));
        assert_eq!(got[0], routed(&trace, &file_to_disk, 1, 0));
    }
}
