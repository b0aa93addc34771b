//! Double-buffered background prefetch.
//!
//! [`Prefetcher`] runs a producer closure on a **dedicated** OS thread and
//! hands its items to the consumer through a bounded channel, so the next
//! item is being produced while the current one is consumed. It is
//! deliberately *not* built on [`ThreadPool`](crate::ThreadPool) sections:
//! a pool worker that parks inside a long-lived producer loop would mark
//! itself in-section, forcing every parallel section the consumer starts
//! (e.g. the training matmuls) into the serial nested fallback for the
//! whole run. A plain thread keeps the pool's workers free.
//!
//! Determinism: the producer sends items strictly in production order and
//! the bounded channel preserves it, so the consumer sees exactly the
//! sequence a synchronous loop would — prefetching changes *when* items
//! are materialized, never *which* or in what order. The streaming
//! equivalence suite locks this down.
//!
//! Failure: a producer panic drops the channel's send half; the consumer's
//! next [`Prefetcher::recv`] call then joins the thread and surfaces
//! [`PrefetchError::WorkerPanicked`] — a typed error, never a hang or a
//! silent end-of-stream.

use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

/// The prefetch thread died without finishing its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchError {
    /// The producer closure panicked mid-stream.
    WorkerPanicked,
}

impl fmt::Display for PrefetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefetchError::WorkerPanicked => write!(f, "prefetch worker thread panicked"),
        }
    }
}

impl std::error::Error for PrefetchError {}

/// A background producer feeding a bounded in-order channel.
///
/// `capacity` items can be ready-and-waiting beyond the one the consumer
/// holds; `capacity = 1` is classic double buffering (one shard training,
/// one shard loading).
pub struct Prefetcher<T: Send + 'static> {
    rx: Option<Receiver<T>>,
    handle: Option<JoinHandle<()>>,
    failed: bool,
}

impl<T: Send + 'static> Prefetcher<T> {
    /// Spawns the producer thread. `produce` is called repeatedly; each
    /// `Some(item)` is sent to the consumer in call order, and `None` ends
    /// the stream cleanly.
    pub fn spawn<F>(capacity: usize, mut produce: F) -> Self
    where
        F: FnMut() -> Option<T> + Send + 'static,
    {
        let (tx, rx) = sync_channel(capacity.max(1));
        let handle = std::thread::Builder::new()
            .name("rpt-prefetch".into())
            .spawn(move || {
                while let Some(item) = produce() {
                    // A send error means the consumer hung up; stop quietly.
                    if tx.send(item).is_err() {
                        return;
                    }
                }
            })
            .expect("failed to spawn prefetch thread");
        Self {
            rx: Some(rx),
            handle: Some(handle),
            failed: false,
        }
    }

    /// Blocks until the next item is ready. `Ok(None)` is the clean end of
    /// the stream; [`PrefetchError`] means the producer died mid-stream.
    pub fn recv(&mut self) -> Result<Option<T>, PrefetchError> {
        if self.failed {
            return Err(PrefetchError::WorkerPanicked);
        }
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(item) => Ok(Some(item)),
            // The channel closed: either the producer finished (returned
            // `None`) or it panicked and the sender was dropped in the
            // unwind. Joining the thread tells them apart.
            Err(_) => {
                self.rx = None;
                match self.handle.take().map(JoinHandle::join) {
                    None | Some(Ok(())) => Ok(None),
                    Some(Err(_)) => {
                        self.failed = true;
                        Err(PrefetchError::WorkerPanicked)
                    }
                }
            }
        }
    }
}

impl<T: Send + 'static> Drop for Prefetcher<T> {
    fn drop(&mut self) {
        // Close the receive side first so a producer blocked on a full
        // channel wakes with a send error, then reap the thread.
        self.rx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_items_in_production_order() {
        let mut counter = 0u32;
        let mut p = Prefetcher::spawn(1, move || {
            counter += 1;
            (counter <= 100).then_some(counter)
        });
        let mut got = Vec::new();
        while let Some(x) = p.recv().unwrap() {
            got.push(x);
        }
        assert_eq!(got, (1..=100).collect::<Vec<u32>>());
        // The stream stays cleanly ended on repeated polls.
        assert_eq!(p.recv(), Ok(None));
    }

    #[test]
    fn producer_panic_surfaces_as_typed_error() {
        let mut n = 0u32;
        let mut p = Prefetcher::spawn(1, move || {
            n += 1;
            if n > 2 {
                panic!("injected prefetch death");
            }
            Some(n)
        });
        let mut ok = 0;
        let err = loop {
            match p.recv() {
                Ok(Some(_)) => ok += 1,
                Ok(None) => panic!("panic must not look like a clean end"),
                Err(e) => break e,
            }
        };
        assert_eq!(ok, 2);
        assert_eq!(err, PrefetchError::WorkerPanicked);
        // The failure is sticky.
        assert_eq!(p.recv(), Err(PrefetchError::WorkerPanicked));
    }

    #[test]
    fn drop_unblocks_a_full_producer() {
        // An unbounded producer against capacity 1: the worker is almost
        // certainly parked in `send` when we drop. Drop must not hang.
        let mut p = Prefetcher::spawn(1, move || Some(7u8));
        assert_eq!(p.recv().unwrap(), Some(7));
        drop(p);
    }
}
