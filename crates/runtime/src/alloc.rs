//! A counting global allocator: [`System`] plus two relaxed counters, of
//! the times the program asked it for memory and of the bytes it asked
//! for.
//!
//! A program (or test binary) opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: beware_runtime::alloc::CountingAlloc = beware_runtime::alloc::CountingAlloc::new();
//! ```
//!
//! and reads [`CountingAlloc::allocs`] or [`CountingAlloc::bytes`] around
//! the code it wants to price. The counters are process-wide: a measurement is exact only while no
//! other thread allocates, which is why the serve crate's allocation test
//! is a single `#[test]` that runs its scenarios in sequence.
//!
//! The second `unsafe` surface of the workspace (DESIGN.md §11): a
//! `GlobalAlloc` impl cannot be written without it. Every method forwards
//! to [`System`] with the caller's arguments unchanged.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] with allocation and byte counters. See the module docs.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// Counters at zero; `const` so it can be a `#[global_allocator]`.
    pub const fn new() -> CountingAlloc {
        CountingAlloc { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// Allocations plus reallocations so far: the number of times the
    /// program asked the heap for memory.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes requested so far: the sizes of every allocation plus the new
    /// size of every reallocation. Frees do not subtract, so this prices
    /// what code asks for, not what it holds.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn count(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics that
// neither allocate nor touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // `new_size` meets the caller's obligations, which pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
