//! The keyed [`DeadlineWheel`] against its reference model: the
//! `BinaryHeap` + `HashMap<K, (gen, at)>` wheel the runtime carried before
//! the slab-indexed core, kept verbatim below. Any interleaving of keyed
//! operations must produce the same answers from both.

use beware_runtime::DeadlineWheel;
use proptest::prelude::*;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::time::Duration;

/// One pending heap entry of the reference wheel, ordered by `(at, gen)`.
struct Entry<K> {
    at: Duration,
    gen: u64,
    key: K,
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.gen) == (other.at, other.gen)
    }
}

impl<K> Eq for Entry<K> {}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.at, other.gen).cmp(&(self.at, self.gen))
    }
}

/// The reference wheel: lazy cancellation by per-key generation.
struct RetiredWheel<K> {
    heap: BinaryHeap<Entry<K>>,
    live: HashMap<K, (u64, Duration)>,
    next_gen: u64,
}

impl<K: Eq + Hash + Clone> RetiredWheel<K> {
    fn new() -> Self {
        RetiredWheel { heap: BinaryHeap::new(), live: HashMap::new(), next_gen: 0 }
    }

    fn schedule(&mut self, key: K, at: Duration) {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.live.insert(key.clone(), (gen, at));
        self.heap.push(Entry { at, gen, key });
    }

    fn cancel(&mut self, key: &K) -> bool {
        self.live.remove(key).is_some()
    }

    fn deadline_of(&self, key: &K) -> Option<Duration> {
        self.live.get(key).map(|&(_, at)| at)
    }

    fn next_deadline(&mut self) -> Option<Duration> {
        self.sweep();
        self.heap.peek().map(|e| e.at)
    }

    fn pop_expired(&mut self, now: Duration) -> Option<(K, Duration)> {
        self.sweep();
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            let e = self.heap.pop().expect("peeked entry present");
            self.live.remove(&e.key);
            return Some((e.key, e.at));
        }
        None
    }

    fn pop_next(&mut self) -> Option<(K, Duration)> {
        self.sweep();
        let e = self.heap.pop()?;
        self.live.remove(&e.key);
        Some((e.key, e.at))
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn sweep(&mut self) {
        while let Some(top) = self.heap.peek() {
            match self.live.get(&top.key) {
                Some(&(gen, _)) if gen == top.gen => return,
                _ => {
                    self.heap.pop();
                }
            }
        }
    }
}

/// A deadline or `now`, by `shape`: from a 64 ns window (so equal
/// deadlines, the FIFO contract, are common), from the whole `u64`
/// nanosecond axis with both ends, or just below `seen`, the last
/// deadline popped or peeked (a schedule below the radix heap's front).
fn draw_at(shape: u8, draw: u64, seen: Duration) -> Duration {
    match (shape, draw % 4) {
        (0 | 1, _) => Duration::from_nanos(draw % 64),
        (2, 0) => Duration::ZERO,
        (2, 1) => Duration::from_nanos(u64::MAX),
        (2, _) => Duration::from_nanos(draw),
        _ => seen.saturating_sub(Duration::from_nanos(1 + draw % 4)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn keyed_wheel_matches_the_retired_wheel(
        ops in proptest::collection::vec((0u8..8, any::<u64>(), 0u8..4), 1..400),
    ) {
        // Sixteen keys, so schedule on a live key (a reschedule) is as
        // common as a fresh one.
        let mut wheel: DeadlineWheel<u8> = DeadlineWheel::new();
        let mut model: RetiredWheel<u8> = RetiredWheel::new();
        let mut seen = Duration::ZERO;
        for &(kind, draw, shape) in &ops {
            let key = (draw >> 32) as u8 % 16;
            let at = draw_at(shape, draw, seen);
            match kind {
                0..=2 => {
                    wheel.schedule(key, at);
                    model.schedule(key, at);
                }
                3 => prop_assert_eq!(wheel.cancel(&key), model.cancel(&key)),
                4 => {
                    let popped = wheel.pop_expired(at);
                    prop_assert_eq!(popped, model.pop_expired(at));
                    seen = popped.map_or(seen, |(_, at)| at);
                }
                5 => {
                    let popped = wheel.pop_next();
                    prop_assert_eq!(popped, model.pop_next());
                    seen = popped.map_or(seen, |(_, at)| at);
                }
                6 => {
                    let next = wheel.next_deadline();
                    prop_assert_eq!(next, model.next_deadline());
                    seen = next.unwrap_or(seen);
                }
                _ => prop_assert_eq!(wheel.deadline_of(&key), model.deadline_of(&key)),
            }
            prop_assert_eq!(wheel.len(), model.len());
            prop_assert_eq!(wheel.is_empty(), model.len() == 0);
        }
        loop {
            let popped = wheel.pop_next();
            prop_assert_eq!(popped, model.pop_next());
            if popped.is_none() {
                break;
            }
        }
    }
}
