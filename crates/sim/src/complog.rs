//! Streaming completion log: O(buffer) resident at any request count and
//! any shard count.
//!
//! The legacy opt-in log (`SimConfig::with_completion_log`) accumulated a
//! `Vec<Completion>` on the report — O(requests) resident, and the reason
//! logging was clamped out of the billion-request smoke. This module
//! replaces the accumulation with a small state machine:
//!
//! - `CompletionWriter` sits in the engine's completion path. It holds
//!   only the current *equal-time run* of completions, sorts each run by
//!   global request ordinal when time advances, and hands the canonical
//!   stream to its output — a terminal `CompletionSink` in unsharded
//!   runs, or a bounded channel toward the merger thread in sharded ones.
//! - `merge_streams` is the merger: a k-way min walk over the per-shard
//!   channels keyed by `(time_s, req)`. Each shard's stream is already
//!   canonically sorted, so the walk emits the *globally* sorted stream —
//!   line-for-line identical to what an unsharded writer produces.
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
//! logged), so the key is unique and the order total. The unsharded
//! writer and the sharded merge produce the same sequence by
//! construction, which is what pins `--shards N` + completion log
//! bit-identical in `tests/cached_shard_equivalence.rs`.
//!
//! Canonical line format: `req,disk,time_s\n` with `f64` shortest
//! round-trip formatting — deterministic across runs and platforms.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::mpsc::{Receiver, SyncSender};

use serde::{Deserialize, Serialize};

use crate::metrics::Completion;

/// Completions per channel batch on the sharded path (same amortisation
/// trade-off as the workload demux chunk).
pub(crate) const LOG_CHUNK: usize = 4096;

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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
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

impl CompletionLogMode {
    /// Whether logging is disabled.
    pub fn is_off(&self) -> bool {
        matches!(self, CompletionLogMode::Off)
    }
}

/// Counters over the canonical completion stream. Two runs produced
/// byte-identical logs iff `records`, `bytes` and `fnv1a` all match
/// (FNV-1a 64 over the concatenated canonical lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// The canonical line for one completion.
#[inline]
fn canonical_line(c: &Completion) -> String {
    format!("{},{},{}\n", c.req, c.disk, c.time_s)
}

/// Terminal consumer of the canonical stream.
pub(crate) enum CompletionSink {
    /// Accumulate the records (legacy surface) while still digesting.
    Memory {
        completions: Vec<Completion>,
        records: u64,
        bytes: u64,
        hash: u64,
    },
    /// Write canonical lines to a buffered file.
    Csv {
        out: BufWriter<File>,
        records: u64,
        bytes: u64,
        hash: u64,
    },
    /// Counters and digest only.
    Digest { records: u64, bytes: u64, hash: u64 },
}

impl CompletionSink {
    /// The sink a mode denotes, or `None` for [`CompletionLogMode::Off`].
    /// Creating the CSV file can fail.
    pub(crate) fn from_mode(mode: &CompletionLogMode) -> std::io::Result<Option<Self>> {
        Ok(match mode {
            CompletionLogMode::Off => None,
            CompletionLogMode::Memory => Some(CompletionSink::Memory {
                completions: Vec::new(),
                records: 0,
                bytes: 0,
                hash: FNV_OFFSET,
            }),
            CompletionLogMode::Csv { path } => {
                // The run may start before the results directory exists
                // (the experiments driver creates it when it writes the
                // report), so create missing parents rather than failing.
                if let Some(parent) = std::path::Path::new(path).parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Some(CompletionSink::Csv {
                    out: BufWriter::new(File::create(path)?),
                    records: 0,
                    bytes: 0,
                    hash: FNV_OFFSET,
                })
            }
            CompletionLogMode::Digest => Some(CompletionSink::Digest {
                records: 0,
                bytes: 0,
                hash: FNV_OFFSET,
            }),
        })
    }

    /// Consume one completion in canonical order.
    pub(crate) fn emit(&mut self, c: &Completion) -> std::io::Result<()> {
        let line = canonical_line(c);
        match self {
            CompletionSink::Memory {
                completions,
                records,
                bytes,
                hash,
            } => {
                *records += 1;
                *bytes += line.len() as u64;
                *hash = fnv1a(*hash, line.as_bytes());
                completions.push(*c);
            }
            CompletionSink::Csv {
                out,
                records,
                bytes,
                hash,
            } => {
                *records += 1;
                *bytes += line.len() as u64;
                *hash = fnv1a(*hash, line.as_bytes());
                out.write_all(line.as_bytes())?;
            }
            CompletionSink::Digest {
                records,
                bytes,
                hash,
            } => {
                *records += 1;
                *bytes += line.len() as u64;
                *hash = fnv1a(*hash, line.as_bytes());
            }
        }
        Ok(())
    }

    /// Flush any file buffer and fold the sink into its report fields.
    pub(crate) fn finish(
        self,
        peak_buffered: usize,
    ) -> std::io::Result<(Option<Vec<Completion>>, CompletionLogSummary)> {
        match self {
            CompletionSink::Memory {
                completions,
                records,
                bytes,
                hash,
            } => Ok((
                Some(completions),
                CompletionLogSummary {
                    records,
                    bytes,
                    fnv1a: hash,
                    peak_buffered,
                },
            )),
            CompletionSink::Csv {
                mut out,
                records,
                bytes,
                hash,
            } => {
                out.flush()?;
                Ok((
                    None,
                    CompletionLogSummary {
                        records,
                        bytes,
                        fnv1a: hash,
                        peak_buffered,
                    },
                ))
            }
            CompletionSink::Digest {
                records,
                bytes,
                hash,
            } => Ok((
                None,
                CompletionLogSummary {
                    records,
                    bytes,
                    fnv1a: hash,
                    peak_buffered,
                },
            )),
        }
    }
}

/// Where a [`CompletionWriter`] sends the canonical stream.
pub(crate) enum CompletionOut {
    /// Directly into a terminal sink (unsharded, or the S=1 degenerate).
    Sink(CompletionSink),
    /// Batched over a bounded channel to the merger thread (sharded).
    Chan {
        tx: SyncSender<Vec<Completion>>,
        batch: Vec<Completion>,
    },
    /// Flushed and closed.
    Done,
}

/// The engine-side log front: canonicalises the shard-local completion
/// stream (sorting each equal-time run by request ordinal) and forwards
/// it. Engine completions arrive in non-decreasing time order, so one
/// tie buffer suffices.
pub(crate) struct CompletionWriter {
    tie: Vec<Completion>,
    tie_time: f64,
    out: CompletionOut,
    peak_buffered: usize,
}

impl CompletionWriter {
    pub(crate) fn new(out: CompletionOut) -> Self {
        CompletionWriter {
            tie: Vec::new(),
            tie_time: f64::NEG_INFINITY,
            out,
            peak_buffered: 0,
        }
    }

    /// Record one completion (non-decreasing `time_s` across calls).
    pub(crate) fn push(&mut self, c: Completion) -> std::io::Result<()> {
        if !self.tie.is_empty() && c.time_s != self.tie_time {
            self.flush_tie()?;
        }
        self.tie_time = c.time_s;
        self.tie.push(c);
        let resident = self.tie.len()
            + match &self.out {
                CompletionOut::Chan { batch, .. } => batch.len(),
                _ => 0,
            };
        self.peak_buffered = self.peak_buffered.max(resident);
        Ok(())
    }

    /// Emit the buffered equal-time run in canonical (req) order.
    fn flush_tie(&mut self) -> std::io::Result<()> {
        if self.tie.len() > 1 {
            self.tie.sort_unstable_by_key(|c| c.req);
        }
        for c in self.tie.drain(..) {
            match &mut self.out {
                CompletionOut::Sink(sink) => sink.emit(&c)?,
                CompletionOut::Chan { tx, batch } => {
                    batch.push(c);
                    if batch.len() >= LOG_CHUNK {
                        let full = std::mem::replace(batch, Vec::with_capacity(LOG_CHUNK));
                        // A hung-up merger means another shard already
                        // failed; that error wins.
                        let _ = tx.send(full);
                    }
                }
                CompletionOut::Done => {}
            }
        }
        Ok(())
    }

    /// Flush everything buffered and, on the sharded path, close the
    /// channel (dropping the sender) so the merger can terminate. Must
    /// run before the shard thread exits — the merger joins inside the
    /// same scope.
    pub(crate) fn finish(&mut self) -> std::io::Result<()> {
        self.flush_tie()?;
        match std::mem::replace(&mut self.out, CompletionOut::Done) {
            CompletionOut::Sink(sink) => self.out = CompletionOut::Sink(sink),
            CompletionOut::Chan { tx, batch } => {
                if !batch.is_empty() {
                    let _ = tx.send(batch);
                }
                drop(tx);
            }
            CompletionOut::Done => {}
        }
        Ok(())
    }

    /// Take the terminal sink back out (unsharded path, after
    /// [`Self::finish`]). `None` on the channel path.
    pub(crate) fn take_sink(&mut self) -> Option<CompletionSink> {
        match std::mem::replace(&mut self.out, CompletionOut::Done) {
            CompletionOut::Sink(sink) => Some(sink),
            other => {
                self.out = other;
                None
            }
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
    rxs: Vec<Receiver<Vec<Completion>>>,
    mut sink: CompletionSink,
) -> std::io::Result<(CompletionSink, usize)> {
    struct Head {
        rx: Receiver<Vec<Completion>>,
        buf: VecDeque<Completion>,
        open: bool,
    }
    let mut heads: Vec<Head> = rxs
        .into_iter()
        .map(|rx| Head {
            rx,
            buf: VecDeque::new(),
            open: true,
        })
        .collect();
    let mut peak = 0usize;
    loop {
        // Every open head must be non-empty before a min is trustworthy.
        for h in &mut heads {
            while h.open && h.buf.is_empty() {
                match h.rx.recv() {
                    Ok(batch) => h.buf.extend(batch),
                    Err(_) => h.open = false,
                }
            }
        }
        peak = peak.max(heads.iter().map(|h| h.buf.len()).sum());
        let mut best: Option<usize> = None;
        for (i, h) in heads.iter().enumerate() {
            if let Some(c) = h.buf.front() {
                let better = match best {
                    None => true,
                    Some(j) => {
                        let b = heads[j].buf.front().expect("best head non-empty");
                        (c.time_s, c.req) < (b.time_s, b.req)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        match best {
            Some(i) => {
                let c = heads[i].buf.pop_front().expect("chosen head non-empty");
                sink.emit(&c)?;
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
        let sink = CompletionSink::from_mode(&CompletionLogMode::Memory)
            .unwrap()
            .unwrap();
        let mut w = CompletionWriter::new(CompletionOut::Sink(sink));
        for comp in [c(2, 0, 1.0), c(0, 1, 1.0), c(1, 2, 1.0), c(3, 0, 2.0)] {
            w.push(comp).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(w.peak_buffered(), 3, "three completions tied at t=1");
        let (got, summary) = drain_memory(w.take_sink().unwrap());
        assert_eq!(
            got.iter().map(|x| x.req).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(summary.records, 4);
        assert_eq!(
            summary.bytes,
            got.iter()
                .map(|x| canonical_line(x).len() as u64)
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
        use std::sync::mpsc::sync_channel;
        let (tx0, rx0) = sync_channel(4);
        let (tx1, rx1) = sync_channel(4);
        tx0.send(vec![c(0, 0, 1.0), c(3, 0, 2.0)]).unwrap();
        tx1.send(vec![c(1, 1, 1.0), c(2, 1, 1.5)]).unwrap();
        drop(tx0);
        drop(tx1);
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
}
