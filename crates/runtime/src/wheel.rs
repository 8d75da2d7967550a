//! The workspace's one deadline scheduler: a slab-indexed monotone radix
//! heap.
//!
//! [`TimerQueue<T>`] is the core. Its heap holds 24-byte
//! `(deadline_ns, seq, slot)` entries; the payload lives inline in a
//! `Vec` of slots, each stamped with the `seq` of the schedule call that
//! filled it. Freed slots go on a free list and are reused. A
//! [`TimerKey`] is the `Copy` pair `(slot, seq)`, so a stale key — its
//! timer fired or was cancelled, its slot since refilled — matches no
//! stamp and cannot touch the new occupant. Nothing on the schedule,
//! cancel or pop path hashes.
//!
//! Order is `(deadline, schedule sequence)`: earliest deadline first,
//! FIFO among equal deadlines, never hash order. Each entry's 128-bit
//! key `(deadline_ns << 64) | seq` is unique, so the order is total.
//!
//! **The radix heap** (Ahuja, Mehlhorn, Orlin and Tarjan) files entries
//! by their key's distance from `last`, the key of the most recent
//! front entry: bucket `i` holds the entries whose key first differs
//! from `last` at bit `i`, and the front holds the one entry whose key
//! *is* `last`. A bitmask records which buckets are occupied. Scheduling
//! is an O(1) push into one bucket. Finding the front empties the lowest
//! occupied bucket: its minimum becomes `last`, and every other entry in
//! it moves to a strictly lower bucket, so an entry moves at most 128
//! times in its life and each move is a sequential scan, not a walk
//! down a tree of cache misses. A drained bucket keeps its allocation
//! for reuse only up to `BUCKET_KEEP` entries.
//!
//! **Monotone precondition.** Every key in the heap is `>= last`. The
//! simulator never breaks this: it schedules at or after the event it
//! is running, which is never earlier than the front. A wall-clock
//! caller can: a new earliest deadline after [`TimerQueue::next_deadline`]
//! has peeked, or a deadline already in the past. Such a schedule
//! re-files every entry around the new key — O(n), rare, and the order
//! is kept.
//!
//! Cancellation is **lazy**: the slot is freed at once, its heap entry
//! stays behind and is dropped when it reaches the front. A key whose
//! deadline is pushed out on every event (a hot connection's idle timer)
//! would leave one dead entry per reschedule, so once dead entries
//! outnumber live ones by more than a small fixed slack every bucket
//! drops its dead entries in place. The rebuild costs O(heap) after at
//! least that many cancels — amortized O(1) — and cannot change the pop
//! order, which is a total order over `(deadline, seq)`.
//!
//! Two faces sit on the core:
//!
//! * `beware_netsim::event::EventQueue` wraps a `TimerQueue<E>` on the
//!   simulator's `SimTime` axis — one schedule per event, cancellation
//!   by key.
//! * [`DeadlineWheel<K>`] is the keyed face poll loops use (the server's
//!   idle wheel, the chaos proxy): at most one deadline per caller key
//!   `K` on the [`crate::Clock`] timebase, with reschedule and
//!   cancel-by-key through one `HashMap<K, TimerKey>`. Ask it for the
//!   next interesting deadline and pop keys whose time has come; the
//!   wheel itself never reads a clock, which keeps it trivially
//!   virtual-time-compatible.

use std::collections::HashMap;
use std::hash::Hash;
use std::time::Duration;

use crate::clock::duration_to_ns;

/// Dead heap entries tolerated beyond the live count: the heap is
/// rebuilt once `dead > live + REBUILD_SLACK`, so it never holds more
/// than `2 × live + REBUILD_SLACK` entries after a cancel.
const REBUILD_SLACK: usize = 64;

/// One bucket per bit of the 128-bit key; the front is kept apart.
const BUCKETS: usize = 128;

/// The most entries a drained bucket's allocation may hold and still be
/// kept for reuse. A larger one is released: every bucket keeping its
/// high-water capacity would pin several times the live set.
const BUCKET_KEEP: usize = 1024;

/// Handle to one scheduled timer: the slot that holds it and the
/// schedule sequence number stamped on that slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKey {
    slot: u32,
    seq: u64,
}

/// One heap entry. `seq` is unique per schedule call, so `(deadline_ns,
/// seq)` is a total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    deadline_ns: u64,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<HeapEntry>() == 24);

impl HeapEntry {
    /// The entry's place in the order, as one unique integer.
    fn key(&self) -> u128 {
        (u128::from(self.deadline_ns) << 64) | u128::from(self.seq)
    }
}

/// A payload slot. `value` is `None` while the slot sits on the free
/// list; `seq` is the stamp of the schedule call that last filled it.
#[derive(Debug)]
struct Slot<T> {
    seq: u64,
    deadline_ns: u64,
    value: Option<T>,
}

/// A deterministic timer queue over payloads of type `T`, on a
/// nanosecond `u64` deadline axis. See the [module docs](self).
#[derive(Debug)]
pub struct TimerQueue<T> {
    /// The entry whose key is `last`, if it is still in the heap.
    front: Option<HeapEntry>,
    /// `buckets[i]` holds the entries whose key first differs from
    /// `last` at bit `i`.
    buckets: [Vec<HeapEntry>; BUCKETS],
    /// Bit `i` set ⇔ `buckets[i]` is non-empty.
    occupied: u128,
    /// No entry's key is below this.
    last: u128,
    /// Heap entries, live and dead.
    entries: usize,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerQueue<T> {
    /// An empty queue.
    pub fn new() -> TimerQueue<T> {
        TimerQueue {
            front: None,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: 0,
            entries: 0,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `value` at `deadline_ns`. Timers scheduled for the same
    /// deadline pop in schedule order.
    pub fn schedule(&mut self, deadline_ns: u64, value: T) -> TimerKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let filled = Slot { seq, deadline_ns, value: Some(value) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX timers");
                self.slots.push(filled);
                slot
            }
        };
        self.live += 1;
        let entry = HeapEntry { deadline_ns, seq, slot };
        if entry.key() < self.last {
            // The monotone precondition is broken (see the module docs).
            self.lower_last(entry.key());
        }
        self.file(entry);
        self.entries += 1;
        TimerKey { slot, seq }
    }

    /// Cancel a pending timer, returning its payload. Keys of fired or
    /// already-cancelled timers return `None` and change nothing.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let value = self.take(key)?;
        if self.entries - self.live > self.live + REBUILD_SLACK {
            self.rebuild();
        }
        Some(value)
    }

    /// The deadline of a pending timer.
    fn deadline_of(&self, key: TimerKey) -> Option<u64> {
        let slot = self.slots.get(key.slot as usize)?;
        (slot.seq == key.seq && slot.value.is_some()).then_some(slot.deadline_ns)
    }

    /// The earliest pending deadline (dropping dead entries off the
    /// front).
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.settle().map(|e| e.deadline_ns)
    }

    /// Pop the earliest timer if its deadline is `<= now_ns`, with its
    /// deadline.
    fn pop_due(&mut self, now_ns: u64) -> Option<(u64, T)> {
        let top = self.settle()?;
        if top.deadline_ns > now_ns {
            return None;
        }
        self.front = None;
        self.entries -= 1;
        let value =
            self.take(TimerKey { slot: top.slot, seq: top.seq }).expect("settled front is live");
        Some((top.deadline_ns, value))
    }

    /// Pop the earliest timer regardless of its deadline.
    pub fn pop_next(&mut self) -> Option<(u64, T)> {
        self.pop_due(u64::MAX)
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Free `key`'s slot and return its payload, if the key is live.
    fn take(&mut self, key: TimerKey) -> Option<T> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.seq != key.seq {
            return None;
        }
        let value = slot.value.take()?;
        self.free.push(key.slot);
        self.live -= 1;
        Some(value)
    }

    /// Put `entry`, whose key is `>= last`, in its bucket.
    fn file(&mut self, entry: HeapEntry) {
        let diff = entry.key() ^ self.last;
        if diff == 0 {
            self.front = Some(entry);
            return;
        }
        let bit = 127 - diff.leading_zeros() as usize;
        self.buckets[bit].push(entry);
        self.occupied |= 1 << bit;
    }

    /// Bring the earliest live entry to the front and return it. Dead
    /// entries (cancelled, or their slot refilled) that reach the front
    /// are dropped.
    fn settle(&mut self) -> Option<HeapEntry> {
        loop {
            if let Some(front) = self.front {
                if is_live(&self.slots, &front) {
                    return Some(front);
                }
                self.front = None;
                self.entries -= 1;
            }
            if self.occupied == 0 {
                return None;
            }
            // The lowest occupied bucket holds the minimum. Its entries
            // agree with it above their first difference from `last`, so
            // re-filed around it they all land in lower buckets.
            let bit = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << bit);
            let mut drained = std::mem::take(&mut self.buckets[bit]);
            self.last = drained.iter().map(HeapEntry::key).min().expect("occupied bucket");
            for entry in drained.drain(..) {
                self.file(entry);
            }
            if drained.capacity() <= BUCKET_KEEP {
                self.buckets[bit] = drained;
            }
        }
    }

    /// Drop every dead entry, in place. O(entries).
    fn rebuild(&mut self) {
        let slots = &self.slots;
        self.front = self.front.filter(|e| is_live(slots, e));
        for (bit, bucket) in self.buckets.iter_mut().enumerate() {
            bucket.retain(|e| is_live(slots, e));
            if bucket.is_empty() {
                self.occupied &= !(1 << bit);
            }
        }
        self.entries = self.live;
    }

    /// Re-file every entry around a new `last` below all their keys.
    /// O(entries).
    fn lower_last(&mut self, last: u128) {
        let mut all: Vec<HeapEntry> = Vec::with_capacity(self.entries);
        all.extend(self.front.take());
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        self.occupied = 0;
        self.last = last;
        for entry in all {
            self.file(entry);
        }
    }
}

fn is_live<T>(slots: &[Slot<T>], e: &HeapEntry) -> bool {
    let slot = &slots[e.slot as usize];
    slot.seq == e.seq && slot.value.is_some()
}

/// A deadline scheduler over caller keys of type `K`.
///
/// Each key has at most one live deadline; [`schedule`] on an existing
/// key replaces it. Timestamps are [`Duration`]s on whatever
/// [`crate::Clock`] the caller uses, held as nanoseconds: deadlines past
/// `u64::MAX` ns (~584 years) saturate there.
///
/// [`schedule`]: DeadlineWheel::schedule
#[derive(Debug)]
pub struct DeadlineWheel<K> {
    timers: TimerQueue<K>,
    /// key → its live timer.
    keys: HashMap<K, TimerKey>,
}

impl<K> Default for DeadlineWheel<K> {
    fn default() -> Self {
        DeadlineWheel { timers: TimerQueue::new(), keys: HashMap::new() }
    }
}

impl<K: Eq + Hash + Clone> DeadlineWheel<K> {
    /// An empty wheel.
    pub fn new() -> DeadlineWheel<K> {
        DeadlineWheel::default()
    }

    /// Schedule (or reschedule) `key` to expire at `at`. Replaces any
    /// existing deadline for the key.
    pub fn schedule(&mut self, key: K, at: Duration) {
        let timer = self.timers.schedule(duration_to_ns(at), key.clone());
        if let Some(old) = self.keys.insert(key, timer) {
            self.timers.cancel(old);
        }
    }

    /// Cancel `key`'s deadline. Returns whether one was live.
    pub fn cancel(&mut self, key: &K) -> bool {
        self.keys.remove(key).and_then(|timer| self.timers.cancel(timer)).is_some()
    }

    /// The live deadline of `key`, if any.
    pub fn deadline_of(&self, key: &K) -> Option<Duration> {
        let timer = *self.keys.get(key)?;
        self.timers.deadline_of(timer).map(Duration::from_nanos)
    }

    /// The earliest live deadline.
    pub fn next_deadline(&mut self) -> Option<Duration> {
        self.timers.next_deadline().map(Duration::from_nanos)
    }

    /// Pop one key whose deadline is `<= now`, with its deadline.
    /// Deterministic order: earliest deadline first, FIFO among equals.
    pub fn pop_expired(&mut self, now: Duration) -> Option<(K, Duration)> {
        let (at, key) = self.timers.pop_due(duration_to_ns(now))?;
        self.keys.remove(&key);
        Some((key, Duration::from_nanos(at)))
    }

    /// Pop the earliest live key regardless of the current time, with its
    /// deadline. The discrete-event form of [`pop_expired`]: a simulated
    /// loop jumps its clock *to* each deadline instead of waiting for it,
    /// so "expired" is whatever is next. Same deterministic order.
    ///
    /// [`pop_expired`]: DeadlineWheel::pop_expired
    pub fn pop_next(&mut self) -> Option<(K, Duration)> {
        self.pop_expired(Duration::MAX)
    }

    /// Number of live deadlines.
    pub fn len(&self) -> usize {
        self.timers.len()
    }

    /// Whether no deadline is live.
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> Duration {
        Duration::from_secs(n)
    }

    #[test]
    fn pops_in_deadline_order() {
        let mut w = DeadlineWheel::new();
        w.schedule("b", s(20));
        w.schedule("a", s(10));
        w.schedule("c", s(30));
        assert_eq!(w.next_deadline(), Some(s(10)));
        assert_eq!(w.pop_expired(s(25)), Some(("a", s(10))));
        assert_eq!(w.pop_expired(s(25)), Some(("b", s(20))));
        assert_eq!(w.pop_expired(s(25)), None, "c is not due yet");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_expired(s(30)), Some(("c", s(30))));
        assert!(w.is_empty());
    }

    #[test]
    fn equal_deadlines_pop_fifo() {
        let mut w = DeadlineWheel::new();
        w.schedule(1u32, s(5));
        w.schedule(2u32, s(5));
        w.schedule(3u32, s(5));
        assert_eq!(w.pop_expired(s(5)), Some((1, s(5))));
        assert_eq!(w.pop_expired(s(5)), Some((2, s(5))));
        assert_eq!(w.pop_expired(s(5)), Some((3, s(5))));
    }

    #[test]
    fn reschedule_replaces_and_old_entry_goes_stale() {
        let mut w = DeadlineWheel::new();
        w.schedule("conn", s(10));
        w.schedule("conn", s(100)); // activity: push the deadline out
        assert_eq!(w.deadline_of(&"conn"), Some(s(100)));
        assert_eq!(w.pop_expired(s(50)), None, "the stale s(10) entry must be skipped");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_expired(s(100)), Some(("conn", s(100))));
    }

    #[test]
    fn reschedule_can_also_pull_a_deadline_in() {
        let mut w = DeadlineWheel::new();
        w.schedule("drain", s(100));
        w.schedule("drain", s(1));
        assert_eq!(w.next_deadline(), Some(s(1)));
        assert_eq!(w.pop_expired(s(1)), Some(("drain", s(1))));
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn cancel_removes_lazily() {
        let mut w = DeadlineWheel::new();
        w.schedule("x", s(1));
        w.schedule("y", s(2));
        assert!(w.cancel(&"x"));
        assert!(!w.cancel(&"x"), "double cancel reports nothing live");
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline(), Some(s(2)), "cancelled top entry swept");
        assert_eq!(w.pop_expired(s(5)), Some(("y", s(2))));
        assert_eq!(w.pop_expired(s(5)), None);
    }

    #[test]
    fn pop_next_ignores_now_but_keeps_order() {
        let mut w = DeadlineWheel::new();
        w.schedule("late", s(100));
        w.schedule("early", s(1));
        w.schedule("tie", s(1));
        assert_eq!(w.pop_next(), Some(("early", s(1))));
        assert_eq!(w.pop_next(), Some(("tie", s(1))), "FIFO among equal deadlines");
        assert_eq!(w.pop_next(), Some(("late", s(100))), "not gated on any notion of now");
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn heavy_rescheduling_stays_consistent() {
        // A hot connection rescheduling on every read: each reschedule
        // leaves a dead heap entry, the live view must never lie, and the
        // rebuild rule must keep the dead entries bounded.
        let mut w = DeadlineWheel::new();
        w.schedule("idle", s(2_000_000));
        for i in 0..1_000_000u64 {
            w.schedule("hot", s(i + 1));
            assert!(w.timers.entries <= 2 * w.len() + REBUILD_SLACK);
        }
        assert_eq!(w.len(), 2);
        assert_eq!(w.deadline_of(&"hot"), Some(s(1_000_000)));
        assert_eq!(w.pop_expired(s(999_999)), None);
        assert_eq!(w.pop_expired(s(1_000_000)), Some(("hot", s(1_000_000))));
        assert_eq!(w.pop_next(), Some(("idle", s(2_000_000))));
        assert!(w.is_empty());
    }

    #[test]
    fn stale_key_cannot_touch_the_slots_next_occupant() {
        let mut q = TimerQueue::new();
        let old = q.schedule(10, "old");
        assert_eq!(q.cancel(old), Some("old"));
        let new = q.schedule(20, "new");
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        assert_eq!(q.cancel(old), None, "a stale key cancels nothing");
        assert_eq!(q.deadline_of(old), None);
        assert_eq!(q.deadline_of(new), Some(20));
        assert_eq!(q.pop_next(), Some((20, "new")), "the new occupant still pops");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_now_and_fifo_ties() {
        let mut q = TimerQueue::new();
        q.schedule(7, 'b');
        q.schedule(3, 'a');
        q.schedule(7, 'c');
        assert_eq!(q.pop_due(2), None);
        assert_eq!(q.pop_due(7), Some((3, 'a')));
        assert_eq!(q.pop_due(7), Some((7, 'b')));
        assert_eq!(q.next_deadline(), Some(7));
        assert_eq!(q.pop_due(7), Some((7, 'c')));
        assert_eq!(q.pop_due(u64::MAX), None);
    }

    #[test]
    fn rebuild_preserves_pop_order() {
        // Cancel most of a deep queue so the heap is rebuilt, then check
        // the survivors still pop in (deadline, schedule order).
        let mut q = TimerQueue::new();
        let keys: Vec<TimerKey> = (0..1_000u64).map(|i| q.schedule(i % 16, i)).collect();
        for (i, &k) in keys.iter().enumerate() {
            if i % 10 != 0 {
                q.cancel(k);
            }
        }
        assert!(q.entries <= 2 * q.len() + REBUILD_SLACK, "rebuilt: {}", q.entries);
        let mut expect: Vec<(u64, u64)> = (0..1_000u64).step_by(10).map(|i| (i % 16, i)).collect();
        expect.sort();
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn simserve_churn_keeps_entries_and_capacity_bounded() {
        // The in-sim client's timer shape at depth 65 536: per query a
        // think timer, two network hops and a timeout, the timeout
        // cancelled when the answer lands, three timers firing.
        const DEPTH: usize = 65_536;
        const MS: u64 = 1_000_000;
        let mut rng = crate::rng::SplitMix64::new(7);
        let mut q = TimerQueue::new();
        for i in 0..DEPTH as u64 {
            q.schedule(rng.next_u64() % (1_000 * MS), i);
        }
        let mut now = 0;
        let mut peak = 0;
        for round in 0..200_000u64 {
            let keys = [10 * MS, 20 * MS, 1_000 * MS, 1_000 * MS]
                .map(|lead| q.schedule(now + lead + rng.next_u64() % MS, round));
            q.cancel(keys[3]);
            assert!(q.entries <= 2 * q.len() + REBUILD_SLACK, "round {round}: {}", q.entries);
            for _ in 0..3 {
                now = q.pop_next().expect("queue never drains").0;
            }
            peak = peak.max(q.buckets.iter().map(Vec::capacity).sum());
        }
        assert_eq!(q.len(), DEPTH);
        // Buckets grow by doubling, so they hold at most twice the entries
        // the rebuild rule allows, plus what drained buckets keep. Were
        // every drained bucket to keep its high-water capacity instead,
        // this would be exceeded.
        let bound = 2 * (2 * DEPTH + REBUILD_SLACK) + BUCKETS * BUCKET_KEEP;
        assert!(peak <= bound, "peak retained capacity {peak} > {bound}");
    }

    #[test]
    fn far_deadlines_saturate() {
        let mut w = DeadlineWheel::new();
        w.schedule("never", Duration::MAX);
        w.schedule("soon", s(1));
        assert_eq!(w.pop_expired(s(1)), Some(("soon", s(1))));
        assert_eq!(w.pop_next(), Some(("never", Duration::from_nanos(u64::MAX))));
    }
}
