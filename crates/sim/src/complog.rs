//! Streaming completion log: O(buffer) resident at any request count and
//! any shard count.
//!
//! - `CompletionWriter` sits in the engine's completion path. It holds
//!   only the current *equal-time run* of completions, sorts each run by
//!   global request ordinal when time advances, and pushes the canonical
//!   stream onto its shard's [`batch_channel`] to the merger thread — a
//!   pool of at most [`spindown_workload::batch::POOL`] buffers a shard,
//!   however many records it carries.
//! - `merge_streams` is the merger: a k-way min walk over the per-shard
//!   channels keyed by `(time_s, req)`. Each shard's stream is already
//!   canonically sorted, so the walk emits the *globally* sorted stream —
//!   line-for-line the same at every shard count, one shard included.
//! - `CompletionSink` materialises the stream per
//!   [`CompletionLogMode`]: an in-memory `Vec` (the legacy surface, for
//!   tests and small runs), canonical CSV lines to a file, or nothing but
//!   counters. Every mode folds each canonical line into an FNV-1a 64-bit
//!   digest, so two logs are byte-identical iff their
//!   [`CompletionLogSummary`] digests match — the cheap cross-shard
//!   equivalence check that doesn't need the bytes kept around.
//!
//! The canonical order is *(completion time, request ordinal)*: a request
//! completes at most once (cache hits and failed requests are never
//! logged), so the key is unique and the order total. The merge of one
//! stream and of many produce the same sequence by construction, which
//! is what pins `--shards N` + completion log bit-identical in
//! `tests/cached_shard_equivalence.rs`.
//!
//! Canonical line format: `req,disk,time_s\n`, `time_s` in the shortest
//! round-trip form std's `Display` prints — deterministic across runs and
//! platforms. The sink encodes it in-tree (the `decimal` module) into one
//! reused buffer, with no allocation per record.

use std::fs::File;
use std::io::{BufWriter, Write};

use spindown_workload::batch::{batch_channel, BatchReceiver, BatchSender};

use crate::decimal;
use crate::metrics::Completion;

/// Completions per channel batch (same amortisation trade-off as the
/// workload demux chunk).
const LOG_CHUNK: usize = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// How (and whether) the per-request completion log is materialised.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CompletionLogMode {
    /// No log (the default): zero cost on the completion path.
    #[default]
    Off,
    /// Keep the log as `SimReport::completions` — the legacy
    /// `with_completion_log()` surface. O(requests) resident; meant for
    /// tests and small replays.
    Memory,
    /// Stream canonical `req,disk,time_s` lines to a file. O(buffer)
    /// resident at any request count.
    Csv {
        /// Destination path, created/truncated at run start.
        path: String,
    },
    /// Stream, but keep only the [`CompletionLogSummary`] counters and
    /// digest — the mode benchmarks and equivalence checks use.
    Digest,
}

/// Counters over the canonical completion stream. Two runs produced
/// byte-identical logs iff `records`, `bytes` and `fnv1a` all match
/// (FNV-1a 64 over the concatenated canonical lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionLogSummary {
    /// Completions logged.
    pub records: u64,
    /// Canonical bytes emitted.
    pub bytes: u64,
    /// FNV-1a 64-bit digest of the canonical byte stream.
    pub fnv1a: u64,
    /// Largest number of completions resident in log buffers at once
    /// (writer tie/batch buffers plus, in sharded runs, the merger's
    /// heads) — the O(buffer) bound the streaming design promises.
    pub peak_buffered: usize,
}

/// Append the canonical line for one completion: `req,disk,time_s\n`,
/// with `time_s` exactly as `format!("{}", time_s)` prints it.
#[inline]
fn encode_line(line: &mut Vec<u8>, c: &Completion) {
    decimal::push_u64(line, c.req as u64);
    line.push(b',');
    decimal::push_u64(line, c.disk as u64);
    line.push(b',');
    decimal::push_f64(line, c.time_s);
    line.push(b'\n');
}

/// Where a [`CompletionSink`] puts the canonical bytes.
enum Store {
    /// Keep the records (the legacy in-memory surface).
    Memory(Vec<Completion>),
    /// Write the lines to a buffered file.
    Csv(BufWriter<File>),
    /// Nowhere: counters and digest only.
    Digest,
}

/// Terminal consumer of the canonical stream: encodes each completion
/// into one reused line buffer, counts and digests it, and stores it as
/// the [`CompletionLogMode`] asks.
pub struct CompletionSink {
    store: Store,
    line: Vec<u8>,
    records: u64,
    bytes: u64,
    hash: u64,
}

impl CompletionSink {
    /// The sink a mode denotes, or `None` for [`CompletionLogMode::Off`].
    /// Creating the CSV file can fail.
    pub fn from_mode(mode: &CompletionLogMode) -> std::io::Result<Option<Self>> {
        let store = match mode {
            CompletionLogMode::Off => return Ok(None),
            CompletionLogMode::Memory => Store::Memory(Vec::new()),
            CompletionLogMode::Csv { path } => {
                // The run may start before the results directory exists
                // (the experiments driver creates it when it writes the
                // report), so create missing parents rather than failing.
                if let Some(parent) = std::path::Path::new(path).parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                // 64 KiB per `write`: the merger thread that feeds this
                // sink is a sharded run's busiest, and std's 8 KiB default
                // costs it ~3 400 system calls per million records.
                Store::Csv(BufWriter::with_capacity(64 << 10, File::create(path)?))
            }
            CompletionLogMode::Digest => Store::Digest,
        };
        Ok(Some(CompletionSink {
            store,
            line: Vec::new(),
            records: 0,
            bytes: 0,
            hash: FNV_OFFSET,
        }))
    }

    /// Consume one completion in canonical order.
    pub fn emit(&mut self, c: &Completion) -> std::io::Result<()> {
        self.line.clear();
        encode_line(&mut self.line, c);
        self.records += 1;
        self.bytes += self.line.len() as u64;
        self.hash = fnv1a(self.hash, &self.line);
        match &mut self.store {
            Store::Memory(kept) => kept.push(*c),
            Store::Csv(out) => out.write_all(&self.line)?,
            Store::Digest => {}
        }
        Ok(())
    }

    /// Flush any file buffer and fold the sink into its report fields:
    /// the kept records (memory mode only) and the summary, which records
    /// `peak_buffered` as the stream's peak residency.
    pub fn finish(
        self,
        peak_buffered: usize,
    ) -> std::io::Result<(Option<Vec<Completion>>, CompletionLogSummary)> {
        let kept = match self.store {
            Store::Memory(kept) => Some(kept),
            Store::Csv(mut out) => {
                out.flush()?;
                None
            }
            Store::Digest => None,
        };
        let summary = CompletionLogSummary {
            records: self.records,
            bytes: self.bytes,
            fnv1a: self.hash,
            peak_buffered,
        };
        Ok((kept, summary))
    }
}

/// One shard's log channel: the writer's end and the merger's.
pub(crate) fn log_channel() -> (BatchSender<Completion>, BatchReceiver<Completion>) {
    batch_channel(LOG_CHUNK)
}

/// The engine-side log front: canonicalises the shard-local completion
/// stream (sorting each equal-time run by request ordinal) and forwards
/// it in batches over a bounded channel to the merger thread. Engine
/// completions arrive in non-decreasing time order, so one tie buffer
/// suffices.
pub(crate) struct CompletionWriter {
    tie: Vec<Completion>,
    tie_time: f64,
    /// The merger channel; `None` once [`Self::finish`] has closed it or
    /// the merger has hung up.
    channel: Option<BatchSender<Completion>>,
    peak_buffered: usize,
}

impl CompletionWriter {
    pub(crate) fn new(channel: BatchSender<Completion>) -> Self {
        CompletionWriter {
            tie: Vec::new(),
            tie_time: f64::NEG_INFINITY,
            channel: Some(channel),
            peak_buffered: 0,
        }
    }

    /// Record one completion (non-decreasing `time_s` across calls).
    pub(crate) fn push(&mut self, c: Completion) {
        if !self.tie.is_empty() && c.time_s != self.tie_time {
            self.flush_tie();
        }
        self.tie_time = c.time_s;
        self.tie.push(c);
        let batched = self.channel.as_ref().map_or(0, BatchSender::buffered);
        self.peak_buffered = self.peak_buffered.max(self.tie.len() + batched);
    }

    /// Move the buffered equal-time run onto the channel in canonical
    /// (req) order. A hung-up merger means another shard already failed
    /// and that error wins, so the writer then drops what it is given.
    fn flush_tie(&mut self) {
        if self.tie.len() > 1 {
            self.tie.sort_unstable_by_key(|c| c.req);
        }
        for c in self.tie.drain(..) {
            let Some(channel) = &mut self.channel else {
                break;
            };
            if !channel.push(c) {
                self.channel = None;
            }
        }
    }

    /// Flush everything buffered and close the channel (dropping the
    /// sender) so the merger can terminate. Must run before the shard
    /// thread exits — the merger joins inside the same scope.
    pub(crate) fn finish(&mut self) {
        self.flush_tie();
        if let Some(channel) = self.channel.take() {
            channel.finish();
        }
    }

    /// Largest number of completions this writer had buffered at once.
    pub(crate) fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }
}

/// K-way merge of per-shard canonical streams into `sink`, keyed by
/// `(time_s, req)`. Blocks on the emptiest heads until every channel
/// closes; the shard writers drop their senders in
/// [`CompletionWriter::finish`] (and on engine error, by dropping the
/// writer), so the walk always terminates. Returns the sink and the
/// merger's own peak buffered count.
pub(crate) fn merge_streams(
    mut rxs: Vec<BatchReceiver<Completion>>,
    mut sink: CompletionSink,
) -> std::io::Result<(CompletionSink, usize)> {
    let mut peak = 0usize;
    loop {
        // Every open head must be non-empty before a min is trustworthy.
        let mut best: Option<(usize, Completion)> = None;
        let mut refilled = false;
        for (i, rx) in rxs.iter_mut().enumerate() {
            refilled |= rx.buffered() == 0;
            if let Some(&c) = rx.head() {
                if best.is_none_or(|(_, b)| (c.time_s, c.req) < (b.time_s, b.req)) {
                    best = Some((i, c));
                }
            }
        }
        // Buffered counts only fall between refills, so the peak is
        // reached just after one.
        if refilled {
            peak = peak.max(rxs.iter().map(BatchReceiver::buffered).sum());
        }
        match best {
            Some((i, c)) => {
                sink.emit(&c)?;
                rxs[i].advance();
            }
            None => break,
        }
    }
    Ok((sink, peak))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(req: usize, disk: usize, time_s: f64) -> Completion {
        Completion { req, disk, time_s }
    }

    fn drain_memory(sink: CompletionSink) -> (Vec<Completion>, CompletionLogSummary) {
        let (v, s) = sink.finish(0).expect("memory finish is infallible");
        (v.expect("memory sink keeps records"), s)
    }

    #[test]
    fn writer_sorts_equal_time_runs_by_request_ordinal() {
        let (tx, rx) = log_channel();
        let mut w = CompletionWriter::new(tx);
        for comp in [c(2, 0, 1.0), c(0, 1, 1.0), c(1, 2, 1.0), c(3, 0, 2.0)] {
            w.push(comp);
        }
        w.finish();
        assert_eq!(
            w.peak_buffered(),
            4,
            "three completions tied at t=1, batched, then the t=2 one"
        );
        let sink = CompletionSink::from_mode(&CompletionLogMode::Memory)
            .unwrap()
            .unwrap();
        let (sink, _) = merge_streams(vec![rx], sink).unwrap();
        let (got, summary) = drain_memory(sink);
        assert_eq!(
            got.iter().map(|x| x.req).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(summary.records, 4);
        assert_eq!(
            summary.bytes,
            got.iter()
                .map(|x| format!("{},{},{}\n", x.req, x.disk, x.time_s).len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn digest_matches_memory_byte_for_byte() {
        let comps = [c(0, 0, 0.5), c(1, 1, 0.75), c(2, 0, 1.25)];
        let mut mem = CompletionSink::from_mode(&CompletionLogMode::Memory)
            .unwrap()
            .unwrap();
        let mut dig = CompletionSink::from_mode(&CompletionLogMode::Digest)
            .unwrap()
            .unwrap();
        for comp in &comps {
            mem.emit(comp).unwrap();
            dig.emit(comp).unwrap();
        }
        let (_, ms) = mem.finish(0).unwrap();
        let (kept, ds) = dig.finish(0).unwrap();
        assert!(kept.is_none(), "digest keeps no records");
        assert_eq!(ms.fnv1a, ds.fnv1a);
        assert_eq!(ms.bytes, ds.bytes);
        assert_eq!(ms.records, ds.records);
    }

    #[test]
    fn merge_interleaves_shard_streams_in_time_then_req_order() {
        let (mut tx0, rx0) = log_channel();
        let (mut tx1, rx1) = log_channel();
        assert!(tx0.push(c(0, 0, 1.0)) && tx0.push(c(3, 0, 2.0)));
        assert!(tx1.push(c(1, 1, 1.0)) && tx1.push(c(2, 1, 1.5)));
        tx0.finish();
        tx1.finish();
        let sink = CompletionSink::from_mode(&CompletionLogMode::Memory)
            .unwrap()
            .unwrap();
        let (sink, peak) = merge_streams(vec![rx0, rx1], sink).unwrap();
        let (got, _) = drain_memory(sink);
        assert_eq!(
            got.iter().map(|x| x.req).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(peak >= 2, "both heads buffered at once");
    }

    /// The log streams from a bounded pool at any record count (the pool
    /// itself is `spindown_workload::batch`'s to test): 1M completions
    /// through one and through two writers merge to the same stream, and
    /// the merger never holds more than one batch a shard.
    #[test]
    fn log_batches_come_from_a_bounded_pool_per_shard() {
        const RECORDS: usize = 1_000_000;
        let mut summaries = Vec::new();
        for shards in [1, 2] {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| log_channel()).unzip();
            let sink = CompletionSink::from_mode(&CompletionLogMode::Digest)
                .unwrap()
                .unwrap();
            let (summary, merger_peak) = std::thread::scope(|scope| {
                let merger = scope.spawn(move || merge_streams(rxs, sink).unwrap());
                for (s, tx) in txs.into_iter().enumerate() {
                    scope.spawn(move || {
                        let mut w = CompletionWriter::new(tx);
                        // Request r completes at r / 4 s on disk r % 7 and
                        // belongs to shard r % shards: ties of four.
                        for r in (s..RECORDS).step_by(shards) {
                            w.push(c(r, r % 7, (r / 4) as f64));
                        }
                        w.finish();
                    });
                }
                let (sink, peak) = merger.join().unwrap();
                (sink.finish(0).unwrap().1, peak)
            });
            assert_eq!(summary.records, RECORDS as u64);
            assert!(
                merger_peak <= shards * LOG_CHUNK,
                "S={shards}: merger peak {merger_peak}"
            );
            summaries.push(summary);
        }
        assert_eq!(summaries[0].fnv1a, summaries[1].fnv1a);
        assert_eq!(summaries[0].bytes, summaries[1].bytes);
    }
}
