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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn keyed_wheel_matches_the_retired_wheel(
        ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..400),
    ) {
        // Sixteen keys, so schedule on a live key (a reschedule) is as
        // common as a fresh one; deadlines and `now` from a 64 ns window,
        // so equal deadlines (the FIFO contract) are common too.
        let mut wheel: DeadlineWheel<u8> = DeadlineWheel::new();
        let mut model: RetiredWheel<u8> = RetiredWheel::new();
        for &(kind, draw) in &ops {
            let key = (draw >> 32) as u8 % 16;
            let at = Duration::from_nanos(draw % 64);
            match kind {
                0..=2 => {
                    wheel.schedule(key, at);
                    model.schedule(key, at);
                }
                3 => prop_assert_eq!(wheel.cancel(&key), model.cancel(&key)),
                4 => prop_assert_eq!(wheel.pop_expired(at), model.pop_expired(at)),
                5 => prop_assert_eq!(wheel.pop_next(), model.pop_next()),
                6 => prop_assert_eq!(wheel.next_deadline(), model.next_deadline()),
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
