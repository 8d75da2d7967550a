//! The discrete-event queue at the heart of the simulator — a thin
//! [`SimTime`] wrapper over [`beware_runtime::TimerQueue`], the
//! workspace's one scheduler core.
//!
//! The core orders by `(deadline, schedule sequence)`, so the
//! simulator's determinism contract (time order, FIFO among
//! same-nanosecond ties) is inherited rather than re-implemented. The
//! core holds each event's payload inline in a slab slot, so nothing on
//! the push/pop path hashes. What the wrapper adds on top:
//!
//! * [`EventKey`]-based cancellation — the seam behind
//!   [`Ctx::cancel_timer`](crate::sim::Ctx::cancel_timer), retiring the
//!   generation-counter idiom agents used to fake it,
//! * the peak-pending gauge the run summaries report.

use crate::time::SimTime;
use beware_runtime::{TimerKey, TimerQueue};

/// Handle to one scheduled event, returned by [`EventQueue::push`] and
/// accepted by [`EventQueue::cancel`]. A stale handle (its event popped
/// or cancelled) is harmlessly inert, even after its slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(TimerKey);

/// A deterministic time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    timers: TimerQueue<E>,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { timers: TimerQueue::new(), peak: 0 }
    }

    /// Schedule `event` at `at`. Events pushed for the same instant pop
    /// in push order.
    pub fn push(&mut self, at: SimTime, event: E) -> EventKey {
        let key = self.timers.schedule(at.as_ns(), event);
        self.peak = self.peak.max(self.timers.len());
        EventKey(key)
    }

    /// Cancel a scheduled event, returning its payload if it was still
    /// pending. Popped or already-cancelled keys return `None`.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        self.timers.cancel(key.0)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.timers.pop_next()?;
        Some((SimTime::from_ns(at), event))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.timers.next_deadline().map(SimTime::from_ns)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.timers.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.timers.is_empty()
    }

    /// High-water mark: the largest number of events ever pending at once.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "c");
        q.push(t(1), "a");
        q.push(t(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_nanosecond_ties_break_by_insertion_order() {
        // Sub-second resolution: many events on one exact nanosecond.
        let at = SimTime::from_ns(1_234_567_891);
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.push(at, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| {
            q.pop().map(|(at_pop, e)| {
                assert_eq!(at_pop, at);
                e
            })
        })
        .collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), ());
        q.push(t(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(t(9)));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak(), 0);
        q.push(t(1), ());
        q.push(t(2), ());
        q.push(t(3), ());
        q.pop();
        q.pop();
        q.push(t(4), ());
        // Peak stays at 3 even though only 2 are pending now.
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(10), 10);
        q.push(t(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(t(5), 5);
        q.push(t(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_removes_exactly_one_event() {
        let mut q = EventQueue::new();
        let _a = q.push(t(1), "a");
        let b = q.push(t(2), "b");
        let _c = q.push(t(3), "c");
        assert_eq!(q.cancel(b), Some("b"));
        assert_eq!(q.cancel(b), None, "double cancel is inert");
        assert_eq!(q.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn cancel_after_pop_is_inert_and_peak_counts_live_only() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        let b = q.push(t(2), 2);
        assert_eq!(q.peak(), 2);
        assert_eq!(q.cancel(a), Some(1));
        // A cancelled slot frees capacity: pushing again does not bump
        // the peak past the true simultaneous maximum.
        q.push(t(3), 3);
        assert_eq!(q.peak(), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.cancel(b), None, "popped event can no longer be cancelled");
    }

    #[test]
    fn cancelled_head_never_surfaces() {
        let mut q = EventQueue::new();
        let head = q.push(t(1), "head");
        q.push(t(5), "tail");
        assert_eq!(q.cancel(head), Some("head"));
        assert_eq!(q.peek_time(), Some(t(5)), "peek skips the cancelled head");
        assert_eq!(q.pop(), Some((t(5), "tail")));
        assert!(q.pop().is_none());
    }
}
