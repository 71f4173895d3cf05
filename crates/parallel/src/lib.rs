//! Std-only concurrency substrate for the stream engine: a bounded channel
//! with blocking backpressure and its stall accounting, and the default
//! worker count.
//!
//! The build environment has no route to crates.io, so this crate plays
//! the role crossbeam would otherwise play. Like `obs`, it sits at the
//! bottom of the dependency graph and uses nothing but `std`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;

pub use channel::{bounded, ChannelStats, Receiver, SendError, Sender};

/// The machine's available parallelism, with a floor of 1.
///
/// This is the default worker count everywhere a `--threads` knob is left
/// unset.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
