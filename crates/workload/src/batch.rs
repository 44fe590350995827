//! A bounded hand-off of item batches from one thread to another.
//!
//! Both pipeline hand-offs use it: the demux's per-shard arrival batches
//! ([`crate::shard`]) and the simulator's per-shard completion-log
//! batches. The sender fills a batch and ships it once it holds `chunk`
//! items; the receiver reads each batch in place and sends the spent
//! buffer back over a return channel for the sender to refill. A channel
//! allocates a buffer only when none has come back, so it never owns more
//! than [`POOL`] of them, however many items it carries. When all of them
//! are in flight the sender waits, so a slow receiver holds its sender
//! back instead of growing a queue.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};

/// Full batches a channel holds ahead of its receiver.
pub const DEPTH: usize = 4;
/// Batch buffers a channel allocates at most: the [`DEPTH`] queued, the
/// one the sender fills and the one the receiver reads.
pub const POOL: usize = DEPTH + 2;

/// A bounded channel of batches of `chunk` items. Allocates no buffer.
pub fn batch_channel<T>(chunk: usize) -> (BatchSender<T>, BatchReceiver<T>) {
    let (tx, rx) = sync_channel(DEPTH);
    let (free_tx, free) = sync_channel(POOL);
    let sender = BatchSender {
        fill: Vec::new(),
        chunk,
        tx,
        free,
        unallocated: POOL,
    };
    let receiver = BatchReceiver {
        batch: Vec::new(),
        next: 0,
        rx,
        free: free_tx,
    };
    (sender, receiver)
}

/// The sending half of [`batch_channel`]. Dropping it without
/// [`BatchSender::finish`] discards the batch being filled and ends the
/// stream after the batches already shipped.
pub struct BatchSender<T> {
    fill: Vec<T>,
    chunk: usize,
    tx: SyncSender<Vec<T>>,
    free: Receiver<Vec<T>>,
    /// Pool buffers not allocated yet.
    unallocated: usize,
}

impl<T> BatchSender<T> {
    /// Append `item`, shipping the batch once it holds `chunk` items.
    /// `false` once the receiver has hung up; the item is then lost.
    #[inline]
    pub fn push(&mut self, item: T) -> bool {
        if self.fill.capacity() == 0 && !self.take_empty() {
            return false;
        }
        self.fill.push(item);
        self.fill.len() < self.chunk || self.tx.send(std::mem::take(&mut self.fill)).is_ok()
    }

    /// Items in the batch being filled.
    pub fn buffered(&self) -> usize {
        self.fill.len()
    }

    /// Ship the last, partly filled batch and close the channel.
    pub fn finish(self) {
        if !self.fill.is_empty() {
            // A receiver that has hung up wants nothing more.
            let _ = self.tx.send(self.fill);
        }
    }

    /// Take an empty buffer to fill: a spent one if the receiver has sent
    /// one back, else a new one while the pool has room, else the next
    /// spent one to come back. `false` once the receiver has hung up.
    #[cold]
    #[inline(never)]
    fn take_empty(&mut self) -> bool {
        let empty = match self.free.try_recv() {
            Ok(spent) => spent,
            Err(TryRecvError::Disconnected) => return false,
            Err(TryRecvError::Empty) if self.unallocated > 0 => {
                self.unallocated -= 1;
                Vec::with_capacity(self.chunk)
            }
            Err(TryRecvError::Empty) => match self.free.recv() {
                Ok(spent) => spent,
                Err(_) => return false,
            },
        };
        self.fill = empty;
        true
    }
}

/// The receiving half of [`batch_channel`]: yields the items in the order
/// they were pushed, reading each batch in place.
pub struct BatchReceiver<T> {
    batch: Vec<T>,
    next: usize,
    rx: Receiver<Vec<T>>,
    free: SyncSender<Vec<T>>,
}

impl<T> BatchReceiver<T> {
    /// The next unread item, blocking for the next batch when this one is
    /// spent. `None` once the sender is gone and every shipped item read.
    #[inline]
    pub fn head(&mut self) -> Option<&T> {
        if self.next == self.batch.len() {
            self.refill();
        }
        self.batch.get(self.next)
    }

    /// Consume the item [`Self::head`] returned.
    #[inline]
    pub fn advance(&mut self) {
        self.next += 1;
    }

    /// Unread items in the current batch.
    pub fn buffered(&self) -> usize {
        self.batch.len() - self.next
    }

    /// Hand the spent batch's buffer back and block until the next batch
    /// arrives or the sender is gone.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        while self.next == self.batch.len() {
            let mut spent = std::mem::take(&mut self.batch);
            self.next = 0;
            if spent.capacity() > 0 {
                spent.clear();
                // A sender that has finished takes no buffer back.
                let _ = self.free.send(spent);
            }
            match self.rx.recv() {
                Ok(batch) => self.batch = batch,
                Err(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain `rx` to its end.
    fn drain<T: Copy>(rx: &mut BatchReceiver<T>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(&item) = rx.head() {
            out.push(item);
            rx.advance();
        }
        out
    }

    #[test]
    fn a_dropped_sender_ends_the_stream_after_its_shipped_batches() {
        let (mut tx, mut rx) = batch_channel(2);
        assert!((1..=5).all(|i| tx.push(i)));
        assert_eq!(tx.buffered(), 1);
        drop(tx);
        assert_eq!(drain(&mut rx), [1, 2, 3, 4], "the unshipped 5 is lost");
        assert!(rx.head().is_none(), "the end is persistent");

        let (mut tx, mut rx) = batch_channel(2);
        assert!((1..=5).all(|i| tx.push(i)));
        tx.finish();
        assert_eq!(drain(&mut rx), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn push_reports_a_hung_up_receiver() {
        let (mut tx, rx) = batch_channel(2);
        assert!(tx.push(1));
        drop(rx);
        assert!(!tx.push(2), "shipping to a hung-up receiver fails");
        assert!(!tx.push(3), "and so does every later push");
    }

    /// Allocations of exactly one test batch's bytes (or reallocations to
    /// that size) made on threads that opted in through `COUNTED`.
    mod batch_allocs {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;
        use std::sync::atomic::{AtomicUsize, Ordering};

        pub(super) const CHUNK: usize = 1024;
        pub(super) static COUNT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            pub(super) static COUNTED: Cell<bool> = const { Cell::new(false) };
        }
        const BATCH_BYTES: usize = CHUNK * std::mem::size_of::<u64>();

        fn count(size: usize) {
            if size == BATCH_BYTES && COUNTED.with(Cell::get) {
                COUNT.fetch_add(1, Ordering::Relaxed);
            }
        }

        struct Counting;

        // SAFETY: every call forwards its arguments unchanged to `System`;
        // the count touches only an atomic and a const thread-local.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                count(layout.size());
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                count(new_size);
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static ALLOCATOR: Counting = Counting;
    }

    /// 1M items (977 batches) through one channel, in order, from a pool
    /// of at most `POOL` buffers, none of them allocated by
    /// `batch_channel`.
    #[test]
    fn a_million_items_come_from_a_bounded_pool() {
        use batch_allocs::{CHUNK, COUNT, COUNTED};
        use std::sync::atomic::Ordering;
        const ITEMS: u64 = 1_000_000;
        let count = || COUNT.load(Ordering::Relaxed);
        let counted = || COUNTED.with(|c| c.set(true));
        counted();
        let before = count();
        let (mut tx, mut rx) = batch_channel::<u64>(CHUNK);
        assert_eq!(count(), before, "batch_channel allocates no buffer");
        std::thread::scope(|scope| {
            scope.spawn(move || {
                counted();
                assert!((0..ITEMS).all(|i| tx.push(i)));
                tx.finish();
            });
            // Checked as they come: collecting them would allocate.
            let mut next = 0;
            while let Some(&item) = rx.head() {
                assert_eq!(item, next, "items arrive in order");
                next += 1;
                rx.advance();
            }
            assert_eq!(next, ITEMS);
        });
        let buffers = count() - before;
        assert!((1..=POOL).contains(&buffers), "{buffers} buffers allocated");
    }
}
