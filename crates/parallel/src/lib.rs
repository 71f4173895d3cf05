//! A hand-rolled, std-only scoped worker pool.
//!
//! The build environment has no route to crates.io, so this crate plays
//! the role rayon would otherwise play for the trace pipeline: fan a
//! vector of independent jobs out over `std::thread::scope` workers and
//! collect the results **in input order**. Like `obs`, it sits at the
//! bottom of the dependency graph and uses nothing but `std`.
//!
//! Design points, in the order they matter:
//!
//! * **Determinism.** [`Pool::map`] returns outputs in the exact order of
//!   the inputs regardless of which worker ran which job or how the
//!   scheduler interleaved them. The per-user classification shards
//!   rely on this to produce byte-identical results at any thread count.
//! * **Work stealing without unsafe.** Jobs live behind one mutex and are
//!   popped one at a time; each job is expected to be chunky (a shard of
//!   users), so queue contention is noise. No
//!   `unsafe`, no lock-free cleverness to audit.
//! * **Panic propagation.** A panicking job does not deadlock or poison
//!   the pool: remaining jobs still run, every worker is joined, and the
//!   first panic payload (by input index, so deterministically the same
//!   one every run) is re-raised on the caller's thread via
//!   [`std::panic::resume_unwind`].
//! * **Scoped borrows.** Because workers run inside `std::thread::scope`,
//!   job closures may borrow from the caller's stack (the shared filter
//!   engine, the extracted records) — no `Arc` juggling at call sites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;

pub use channel::{bounded, ChannelStats, Receiver, SendError, Sender};

use std::collections::VecDeque;
use std::sync::Mutex;

/// The machine's available parallelism, with a floor of 1.
///
/// This is the default worker count everywhere a `--threads` knob is left
/// unset.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width worker pool. The pool itself is just a thread count —
/// workers are spawned per [`Pool::map`] call inside a scope, so the pool
/// holds no threads, channels or other state between calls and "shutdown"
/// is simply the scope joining every worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    /// `0` means "use [`available_parallelism`]".
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: if threads == 0 {
                available_parallelism()
            } else {
                threads
            },
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, in parallel, returning outputs in input
    /// order. `f` receives `(index, item)` so jobs can know their
    /// position without threading it through the item type.
    ///
    /// With one worker (or zero/one items) everything runs inline on the
    /// calling thread — the sequential path is the parallel path with
    /// `threads == 1`, not separate code.
    ///
    /// # Panics
    ///
    /// If any job panics, the panic with the smallest input index is
    /// re-raised here after all workers have been joined.
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        let queue: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let workers = self.threads.min(n);
        // (index, Ok(output) | Err(panic payload)) pairs, in completion
        // order; reassembled by index below.
        let mut tagged: Vec<(usize, JobResult<O>)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, JobResult<O>)> = Vec::new();
                        loop {
                            // A panicking job never holds the queue lock
                            // (f runs after the guard is dropped), but be
                            // robust to poisoning anyway.
                            let job = queue
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .pop_front();
                            let Some((idx, item)) = job else { break };
                            let out =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    f(idx, item)
                                }));
                            local.push((idx, out));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                // Worker bodies only panic if catch_unwind itself failed,
                // which cannot happen for unwinding panics; join errors
                // would still propagate via the scope. Collect normally.
                if let Ok(local) = h.join() {
                    tagged.extend(local);
                }
            }
        });

        let mut slots: Vec<Option<JobResult<O>>> = (0..n).map(|_| None).collect();
        for (idx, res) in tagged {
            slots[idx] = Some(res);
        }
        // Deterministic propagation: the lowest-index panic wins, no
        // matter which worker hit it first in wall-clock time.
        let mut out = Vec::with_capacity(n);
        for (idx, slot) in slots.into_iter().enumerate() {
            match slot.unwrap_or_else(|| panic!("job {idx} was never executed")) {
                Ok(o) => out.push(o),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }
}

impl Default for Pool {
    /// A pool sized to [`available_parallelism`].
    fn default() -> Pool {
        Pool::new(0)
    }
}

type JobResult<O> = Result<O, Box<dyn std::any::Any + Send + 'static>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map(items, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        let out = pool.map(vec![(); 8], |i, ()| {
            assert_eq!(std::thread::current().id(), tid);
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert_eq!(Pool::new(0).threads(), available_parallelism());
        assert_eq!(Pool::default().threads(), available_parallelism());
    }

    #[test]
    fn borrows_from_caller_stack() {
        let data: Vec<u64> = (0..100).collect();
        let pool = Pool::new(3);
        let out = pool.map(vec![0usize, 25, 50, 75], |_, start| {
            data[start..start + 25].iter().sum::<u64>()
        });
        assert_eq!(out.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn empty_input() {
        let pool = Pool::new(8);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let pool = Pool::new(64);
        let out = pool.map(vec![1, 2, 3], |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn panic_propagates_lowest_index() {
        let pool = Pool::new(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map((0..32).collect::<Vec<u32>>(), |i, x| {
                if i == 7 || i == 20 {
                    panic!("boom {i}");
                }
                x
            })
        }))
        .expect_err("must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "boom 7", "lowest index wins deterministically");
    }

    #[test]
    fn pool_usable_after_panic() {
        let pool = Pool::new(2);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(vec![0u8; 4], |i, _| {
                if i == 0 {
                    panic!("first");
                }
                i
            })
        }));
        // The pool holds no state: the next map is unaffected.
        assert_eq!(pool.map(vec![5, 6], |_, x| x), vec![5, 6]);
    }
}
