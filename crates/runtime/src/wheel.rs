//! The workspace's one deadline scheduler: a slab-indexed binary heap.
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
//! FIFO among equal deadlines, never hash order.
//!
//! Cancellation is **lazy**: the slot is freed at once, its heap entry
//! stays behind and is skipped when it reaches the top. A key whose
//! deadline is pushed out on every event (a hot connection's idle
//! timer) would leave one dead entry per reschedule, so once dead
//! entries outnumber live ones by more than a small fixed slack the heap
//! is rebuilt from its live entries. The rebuild costs O(heap) after at
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

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::time::Duration;

use crate::clock::duration_to_ns;

/// Dead heap entries tolerated beyond the live count: the heap is
/// rebuilt once `dead > live + REBUILD_SLACK`, so it never holds more
/// than `2 × live + REBUILD_SLACK` entries after a cancel.
const REBUILD_SLACK: usize = 64;

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

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline on top.
        (other.deadline_ns, other.seq).cmp(&(self.deadline_ns, self.seq))
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
    heap: BinaryHeap<HeapEntry>,
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
            heap: BinaryHeap::new(),
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
        self.heap.push(HeapEntry { deadline_ns, seq, slot });
        TimerKey { slot, seq }
    }

    /// Cancel a pending timer, returning its payload. Keys of fired or
    /// already-cancelled timers return `None` and change nothing.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let value = self.take(key)?;
        if self.heap.len() - self.live > self.live + REBUILD_SLACK {
            let slots = &self.slots;
            self.heap.retain(|e| is_live(slots, e));
        }
        Some(value)
    }

    /// The deadline of a pending timer.
    fn deadline_of(&self, key: TimerKey) -> Option<u64> {
        let slot = self.slots.get(key.slot as usize)?;
        (slot.seq == key.seq && slot.value.is_some()).then_some(slot.deadline_ns)
    }

    /// The earliest pending deadline (sweeping dead entries off the top).
    pub fn next_deadline(&mut self) -> Option<u64> {
        self.sweep();
        self.heap.peek().map(|e| e.deadline_ns)
    }

    /// Pop the earliest timer if its deadline is `<= now_ns`, with its
    /// deadline.
    fn pop_due(&mut self, now_ns: u64) -> Option<(u64, T)> {
        self.sweep();
        let top = *self.heap.peek()?;
        if top.deadline_ns > now_ns {
            return None;
        }
        self.heap.pop();
        let value =
            self.take(TimerKey { slot: top.slot, seq: top.seq }).expect("swept top is live");
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

    /// Drop dead entries (cancelled, or their slot refilled) off the top.
    fn sweep(&mut self) {
        while let Some(top) = self.heap.peek() {
            if is_live(&self.slots, top) {
                return;
            }
            self.heap.pop();
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
            assert!(w.timers.heap.len() <= 2 * w.len() + REBUILD_SLACK);
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
        assert!(q.heap.len() <= 2 * q.len() + REBUILD_SLACK, "rebuilt: {}", q.heap.len());
        let mut expect: Vec<(u64, u64)> = (0..1_000u64).step_by(10).map(|i| (i % 16, i)).collect();
        expect.sort();
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(popped, expect);
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
