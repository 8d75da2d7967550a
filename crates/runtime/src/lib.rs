//! # beware-runtime
//!
//! The runtime substrate every layer above the simulator shares: **one
//! clock, one RNG, one deadline scheduler**.
//!
//! The paper's central finding is that realistic timeouts stretch to
//! 5–145 s. Code that handles such timeouts can only be tested honestly
//! if time itself is an injectable dependency — otherwise every test of a
//! 145 s stall costs 145 s of wall clock, so the tests are never written
//! and the timeout logic goes unexercised (exactly the failure mode
//! Jain's divergence analysis warns about). This crate supplies the three
//! seams that make the serving and chaos layers time-testable:
//!
//! * [`Clock`] — a monotonic time source with two implementations:
//!   [`WallClock`] (thin wrapper over [`std::time::Instant`]) and
//!   [`VirtualClock`], a deterministic, manually-advanced clock whose
//!   `sleep` advances simulated time instead of parking the thread. A
//!   seeded fault schedule spanning simulated minutes replays in
//!   milliseconds under it.
//! * [`rng`] — the workspace's two seeded generators, SplitMix64 and
//!   the simulator's xoshiro256++, and the seed-derivation finalizer.
//!   This is the **only** implementation of either in the workspace,
//!   with tests pinning the streams to the retired private copies.
//! * [`wheel`] — the workspace's one deadline scheduler. Its core,
//!   [`TimerQueue`], is a monotone radix heap of 24-byte
//!   `(deadline, seq, slot)` entries over a slab of inline payloads:
//!   O(1) schedule, pops that scan buckets sequentially, and the exact
//!   `(deadline, seq)` order. A [`TimerKey`] is a `Copy` `(slot, seq)`
//!   pair, so scheduling, cancelling and popping never hash, and a stale
//!   key cannot touch its slot's next occupant. Cancellation is lazy,
//!   and the heap is rebuilt from its live entries once dead ones
//!   outnumber them by a fixed slack. netsim's event
//!   queue wraps the core directly; [`DeadlineWheel`] is the keyed face
//!   (one deadline per caller key, reschedule and cancel by key) that the
//!   oracle server's shard loop (idle eviction) and the chaos proxy
//!   (deferred delayed chunks) use in place of ad-hoc `last_active` /
//!   inline-sleep deadline math.
//! * [`reactor`] — readiness-driven I/O: one Linux epoll reactor (with
//!   its own `extern "C"` glibc bindings — the build is hermetic, so no
//!   `mio`/`libc`), so the serve path blocks on *I/O or the next wheel
//!   deadline* instead of napping on a fixed interval. The server's
//!   deadlines fire through `epoll_wait`'s timeout on the wall clock,
//!   and `tests/serve.rs` waits them out on that same path.
//! * [`Slot`] — the epoch-swapped publication slot behind zero-downtime
//!   state swaps: writers publish an immutable `Arc`, per-shard
//!   [`SlotReader`]s see it with a single acquire load. The serve path
//!   uses it for oracle snapshots, the policy subsystem for published
//!   estimator tables.
//!
//! Determinism contract: under a [`VirtualClock`] every timestamp a
//! component observes is a pure function of its inputs and seeds — no
//! kernel scheduling, no wall time. See DESIGN.md §10.
//!
//! * [`alloc`] — [`CountingAlloc`], a counting wrapper over the system
//!   allocator that a test or benchmark binary installs to price code in
//!   heap allocations.
//!
//! Unsafe policy (DESIGN.md §11): this crate is `#![deny(unsafe_code)]`
//! with an `#[allow]` on two modules only — the private `sys` module,
//! whose safe wrappers are the only FFI surface in the workspace, and
//! [`alloc`], whose `GlobalAlloc` impl forwards to the system allocator;
//! every other crate keeps `#![forbid(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod reactor;
pub mod rng;
pub mod swap;
#[cfg(target_os = "linux")]
mod sys;
pub mod wheel;

pub use alloc::CountingAlloc;
pub use clock::{process_cpu_time, Clock, SharedClock, VirtualClock, WallClock};
pub use reactor::{EpollReactor, Event, Interest, StopSignal, Waker};
pub use rng::{derive_seed, unit_hash, SplitMix64, Xoshiro256pp};
pub use swap::{Slot, SlotReader};
pub use wheel::{DeadlineWheel, TimerKey, TimerQueue};
