//! Bounded MPSC channels with blocking-send backpressure.
//!
//! The streaming pipeline moves chunks of records from a single decode
//! thread to persistent shard workers. An unbounded queue would let a
//! fast decoder balloon RSS whenever classification is the bottleneck;
//! this channel blocks the sender once `capacity` items are queued, so
//! the slowest stage throttles the whole dataflow (classic backpressure).
//!
//! Built on `Mutex` + two `Condvar`s — no unsafe, no spinning. Senders
//! are cloneable (MPSC); the receiver is unique. Dropping the receiver
//! makes every subsequent `send` fail with the rejected value; dropping
//! the last sender makes `recv` drain the queue and then return `None`.
//!
//! Each channel exports a [`ChannelStats`] handle (shared atomics) so
//! callers can bridge queue depth and stall counts into `obs` gauges
//! without touching the queue lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by [`Sender::send`] when the receiver is gone. Carries
/// the rejected value back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

struct State<T> {
    queue: VecDeque<T>,
    /// Live sender handles; 0 means disconnected from the send side.
    senders: usize,
    receiver_alive: bool,
}

struct Stats {
    depth: AtomicU64,
    send_stalls: AtomicU64,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    stats: Arc<Stats>,
}

/// Read-only view of a channel's counters, detached from the item type
/// so it can be stored and polled after the channel itself is consumed
/// by worker threads.
#[derive(Clone)]
pub struct ChannelStats {
    stats: Arc<Stats>,
}

impl ChannelStats {
    /// Items currently queued.
    pub fn depth(&self) -> u64 {
        self.stats.depth.load(Ordering::Relaxed)
    }

    /// Number of sends that had to block because the queue was full —
    /// the backpressure signal.
    pub fn send_stalls(&self) -> u64 {
        self.stats.send_stalls.load(Ordering::Relaxed)
    }
}

/// The sending half. Clone freely; the channel disconnects when the last
/// clone drops.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half (unique).
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create a bounded channel holding at most `capacity` items (minimum 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity: capacity.max(1),
        stats: Arc::new(Stats {
            depth: AtomicU64::new(0),
            send_stalls: AtomicU64::new(0),
        }),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Send one item, blocking while the queue is full. Returns the item
    /// in `Err` if the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let inner = &*self.inner;
        let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.queue.len() >= inner.capacity && state.receiver_alive {
            inner.stats.send_stalls.fetch_add(1, Ordering::Relaxed);
            while state.queue.len() >= inner.capacity && state.receiver_alive {
                state = inner
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        if !state.receiver_alive {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        let depth = state.queue.len() as u64;
        inner.stats.depth.store(depth, Ordering::Relaxed);
        drop(state);
        inner.not_empty.notify_one();
        Ok(())
    }

    /// Counter handle for this channel.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            stats: Arc::clone(&self.inner.stats),
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders += 1;
        drop(state);
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders -= 1;
        let disconnected = state.senders == 0;
        drop(state);
        if disconnected {
            // Wake a receiver blocked on an empty queue so it can observe
            // the disconnect and return `None`.
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receive the next item, blocking while the queue is empty. Returns
    /// `None` once the queue is drained and every sender has dropped.
    pub fn recv(&self) -> Option<T> {
        let inner = &*self.inner;
        let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = state.queue.pop_front() {
                inner
                    .stats
                    .depth
                    .store(state.queue.len() as u64, Ordering::Relaxed);
                drop(state);
                inner.not_full.notify_one();
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            state = inner
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Counter handle for this channel.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            stats: Arc::clone(&self.inner.stats),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.receiver_alive = false;
        state.queue.clear();
        self.inner.stats.depth.store(0, Ordering::Relaxed);
        drop(state);
        // Wake every sender blocked on a full queue so they can fail fast.
        self.inner.not_full.notify_all();
    }
}

impl<T> Iterator for Receiver<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = bounded(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn recv_returns_none_after_last_sender_drops() {
        let (tx, rx) = bounded::<u8>(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None, "None is sticky");
    }

    #[test]
    fn send_fails_with_value_after_receiver_drops() {
        let (tx, rx) = bounded::<&str>(4);
        drop(rx);
        assert_eq!(tx.send("lost"), Err(SendError("lost")));
    }

    #[test]
    fn full_queue_blocks_sender_until_recv() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let unblocked = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&unblocked);
        let handle = std::thread::spawn(move || {
            tx.send(1).unwrap(); // must block: capacity 1, queue full
            flag.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !unblocked.load(Ordering::SeqCst),
            "send must block while full"
        );
        assert_eq!(rx.recv(), Some(0));
        handle.join().unwrap();
        assert!(unblocked.load(Ordering::SeqCst));
        assert_eq!(rx.recv(), Some(1));
        assert!(rx.stats().send_stalls() >= 1, "the stall was counted");
    }

    #[test]
    fn receiver_drop_unblocks_stalled_sender() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let handle = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(50));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(SendError(1)));
    }

    #[test]
    fn stats_track_depth() {
        let (tx, rx) = bounded(8);
        let stats = tx.stats();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(stats.depth(), 5);
        assert_eq!(stats.send_stalls(), 0);
        rx.recv();
        rx.recv();
        assert_eq!(stats.depth(), 3);
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = bounded(4);
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let got: Vec<u64> = rx.collect();
        assert_eq!(got.len(), 400);
        for h in handles {
            h.join().unwrap();
        }
        // Per-producer order preserved even though interleaving is free.
        for p in 0..4u64 {
            let mine: Vec<u64> = got.iter().copied().filter(|v| v / 1000 == p).collect();
            assert_eq!(mine, (0..100u64).map(|i| p * 1000 + i).collect::<Vec<_>>());
        }
    }
}
