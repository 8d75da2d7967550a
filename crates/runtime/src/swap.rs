//! Epoch-swapped publication slot: the primitive behind zero-downtime
//! state swaps.
//!
//! A [`Slot<T>`] owns the current value behind an epoch counter. Writers
//! ([`Slot::publish`]) install a new `Arc<T>` and bump the epoch
//! atomically; readers hold a [`SlotReader<T>`] — one per shard — whose
//! [`current`](SlotReader::current) is **one acquire atomic load** on the
//! fast path: only when the epoch has moved since the reader's last
//! refresh does it take the (uncontended) slot lock to clone the new
//! `Arc`. A request therefore resolves its state exactly once and serves
//! the whole answer from that one immutable value — the *no-torn-reads*
//! guarantee: every reply is consistent with either the pre-swap or the
//! post-swap value, never a mixture (DESIGN.md §12).
//!
//! Epochs double as the "version" the owner reports: version 1 is the
//! value the slot started with, and every successful publish increments
//! it. The serve crate instantiates this with its oracle snapshot
//! (`Slot<Oracle>`), and the policy subsystem with its published
//! estimator tables (`Slot<PolicyTable>`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Shared<T> {
    /// Bumped (release) after the slot is replaced; readers acquire-load
    /// it to decide whether their cached `Arc` is current.
    epoch: AtomicU64,
    /// The current value, tagged with the epoch it was published at so a
    /// reader that races a publish records a consistent pair.
    slot: Mutex<(u64, Arc<T>)>,
}

/// Shared, swappable access to a published value. Cheap to clone; all
/// clones publish to and read from the same slot.
#[derive(Debug)]
pub struct Slot<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Slot<T> {
        Slot { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Slot<T> {
    /// Wrap `value` as version 1.
    pub fn new(value: Arc<T>) -> Slot<T> {
        Slot { shared: Arc::new(Shared { epoch: AtomicU64::new(1), slot: Mutex::new((1, value)) }) }
    }

    /// The current version (epoch). Starts at 1, incremented by every
    /// successful [`publish`](Self::publish).
    pub fn version(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The current value. Takes the slot lock — fine for admin and
    /// control paths; per-request code should hold a [`SlotReader`].
    pub fn current(&self) -> Arc<T> {
        self.shared.slot.lock().expect("swap slot poisoned").1.clone()
    }

    /// Atomically install `value` as the new current state and return
    /// the version it was assigned. Readers observe the swap on their
    /// next [`SlotReader::current`] call; requests already resolved keep
    /// answering from the value they started with.
    pub fn publish(&self, value: Arc<T>) -> u64 {
        let mut slot = self.shared.slot.lock().expect("swap slot poisoned");
        let version = slot.0 + 1;
        *slot = (version, value);
        // Publish the epoch while still holding the lock so a reader
        // that sees the new epoch always finds at-least-that-new a slot.
        self.shared.epoch.store(version, Ordering::Release);
        version
    }

    /// A per-thread reader whose fast path is a single atomic load.
    pub fn reader(&self) -> SlotReader<T> {
        let slot = self.shared.slot.lock().expect("swap slot poisoned");
        SlotReader { shared: Arc::clone(&self.shared), seen: slot.0, cached: slot.1.clone() }
    }
}

impl<T> From<Arc<T>> for Slot<T> {
    fn from(value: Arc<T>) -> Slot<T> {
        Slot::new(value)
    }
}

impl<T> From<T> for Slot<T> {
    fn from(value: T) -> Slot<T> {
        Slot::new(Arc::new(value))
    }
}

/// One shard's cached view of a [`Slot`]. Not `Sync` by design: each
/// shard owns one.
#[derive(Debug)]
pub struct SlotReader<T> {
    shared: Arc<Shared<T>>,
    /// Version of `cached`.
    seen: u64,
    cached: Arc<T>,
}

impl<T> SlotReader<T> {
    /// The current value — the versioned read guard a request takes.
    /// One `Acquire` load when the epoch is unchanged; a slot-lock clone
    /// only in the window right after a publish.
    pub fn current(&mut self) -> &Arc<T> {
        if self.shared.epoch.load(Ordering::Acquire) != self.seen {
            let slot = self.shared.slot.lock().expect("swap slot poisoned");
            self.seen = slot.0;
            self.cached = slot.1.clone();
        }
        &self.cached
    }

    /// Version of the value [`current`](Self::current) last returned.
    /// Shards compare it against their cache-stamp to invalidate
    /// version-dependent state (the reply cache) after a swap.
    pub fn version(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_version_and_swaps() {
        let slot = Slot::new(Arc::new(1u64));
        let mut reader = slot.reader();
        assert_eq!(slot.version(), 1);
        assert_eq!(reader.version(), 1);
        assert_eq!(**reader.current(), 1);

        assert_eq!(slot.publish(Arc::new(2)), 2);
        assert_eq!(slot.version(), 2);
        assert_eq!(**reader.current(), 2);
        assert_eq!(reader.version(), 2);
    }

    #[test]
    fn reader_keeps_old_arc_alive_across_swap() {
        let slot = Slot::new(Arc::new(1u64));
        let mut reader = slot.reader();
        let held = Arc::clone(reader.current());
        slot.publish(Arc::new(2));
        // The request that resolved before the swap still answers from
        // the old value — consistent, never torn.
        assert_eq!(*held, 1);
        assert_eq!(**reader.current(), 2);
    }

    #[test]
    fn from_impls_wrap_as_version_one() {
        let value = Arc::new(3u64);
        let from_arc: Slot<u64> = Arc::clone(&value).into();
        assert_eq!(from_arc.version(), 1);
        assert!(Arc::ptr_eq(&from_arc.current(), &value), "From<Arc<T>> must not re-wrap");
        let from_value: Slot<u64> = 4u64.into();
        assert_eq!(from_value.version(), 1);
        assert_eq!(*from_value.current(), 4);
    }

    #[test]
    fn concurrent_readers_always_see_old_or_new() {
        let slot = Slot::new(Arc::new(1u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut threads = Vec::new();
        for _ in 0..4 {
            let slot = slot.clone();
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut reader = slot.reader();
                let mut last_version = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v_val = **reader.current();
                    assert!(v_val == 1 || v_val == 2, "torn value {v_val}");
                    let v = reader.version();
                    assert!(v >= last_version, "version moved backwards: {last_version} -> {v}");
                    // Version and content must agree: version 1 is the
                    // initial value, anything later the published one.
                    assert_eq!(v_val, if v == 1 { 1 } else { 2 });
                    last_version = v;
                }
            }));
        }
        for _ in 0..100 {
            slot.publish(Arc::new(2));
        }
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(slot.version(), 101);
    }
}
