//! Deterministic fan-out of independent simulations over a scoped worker
//! pool.
//!
//! The experiment campaigns are embarrassingly parallel at the granularity
//! of whole simulations — one zmap scan, one survey, one chunk of scamper
//! probe trains — while each simulation's event loop stays single-threaded
//! and seeded. This module supplies the one primitive the harness needs:
//! [`run_tasks`], which maps a worker function over an indexed list of
//! task inputs and returns the outputs **in task order**, regardless of
//! the number of worker threads or their scheduling.
//!
//! # Determinism contract
//!
//! * The task decomposition is fixed by the caller and never depends on
//!   the thread count: task `i` receives input `i` of the input vector.
//! * Every task must derive all of its randomness from its own index (the
//!   callers use `beware_runtime::rng::derive_seed` with a per-campaign stream
//!   constant plus the task index), never from shared mutable state.
//! * Results are collected into slot `i` for task `i`; the returned
//!   vector is therefore byte-identical between `threads = 1` and
//!   `threads = N`. The integration suite asserts this end to end.
//!
//! `threads <= 1` bypasses the pool entirely and runs the tasks in order
//! on the calling thread — that path is the reference the parallel path
//! is tested against, and keeps single-core and debugging runs free of
//! any locking.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism, with a serial fallback when the
/// runtime cannot tell (containers without cpuset information).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Run `f` over `items`, returning outputs in input order.
///
/// `f` receives `(task_index, item)`. With `threads <= 1` (or one item or
/// fewer) the calling thread runs every task in order; otherwise a scoped
/// pool of `min(threads, items.len())` workers claims tasks from a shared
/// counter in index order and writes each result into its input's slot.
///
/// A panic inside any task propagates to the caller after the scope
/// unwinds, matching the serial path's behavior.
pub fn run_tasks<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    // Feed queue: each slot is taken exactly once, by the worker that
    // claims its index; result slots are written exactly once each.
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .expect("input slot poisoned")
                    .take()
                    .expect("input slot claimed twice");
                let out = f(i, item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("every task ran to completion")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beware_runtime::rng::{derive_seed, Xoshiro256pp};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_tasks(8, items.clone(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Per-task seeded streams: the executor's intended usage pattern.
        let job = |i: usize, _: ()| {
            let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(42, i as u64));
            (0..50).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        let serial = run_tasks(1, vec![(); 17], job);
        for threads in [2, 3, 4, 8, 33] {
            assert_eq!(run_tasks(threads, vec![(); 17], job), serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = run_tasks(4, Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(run_tasks(4, vec![7u32], |i, x| x + i as u32), vec![7]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_tasks(64, (0..5u64).collect(), |_, x| x + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn non_send_sync_closure_state_not_required() {
        // The closure only needs Sync; captured shared state is fine.
        let base = 10u64;
        let out = run_tasks(4, (0..20u64).collect(), |_, x| x + base);
        assert_eq!(out[19], 29);
    }
}
