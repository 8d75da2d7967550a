//! # beware-faultsim
//!
//! Deterministic fault injection for the serving stack. The paper's whole
//! point is that real networks deliver bytes late, in pieces, or not at
//! all — this crate makes our own TCP control plane meet such networks on
//! demand, reproducibly.
//!
//! Three layers:
//!
//! * [`FaultyTransport`] wraps any `Read + Write` transport and applies a
//!   seeded schedule of byte-level faults: writes split at arbitrary
//!   boundaries, reads that time out, corrupted bytes, mid-stream
//!   truncation, abrupt closes. It is pure and in-process — the right tool
//!   for unit tests of codec and client robustness.
//! * [`ChaosProxy`] is an in-process TCP proxy that
//!   sits between a real client and a real server and injects the same
//!   fault repertoire into live traffic — the right tool for end-to-end
//!   chaos suites (`tests/chaos.rs`, `beware chaos`).
//! * [`topology`] generates seeded [`LinkEvent`](beware_netsim::LinkEvent)
//!   schedules — partitions and capacity degrades of the netsim's shared
//!   links — so a fault hits every host behind a link at once instead of
//!   one connection's byte stream. The right tool for the in-sim campaign
//!   (`beware simserve`).
//!
//! Every decision is drawn from the workspace's canonical SplitMix64
//! stream (`beware_runtime::rng`), derived with the shared
//! seed-derivation discipline: connection *i* of a run seeded `s` draws
//! from `derive_seed(s, i)`, so the *sequence* of fault decisions per
//! connection is a pure function of `(seed, connection index)`. What
//! wall-clock moment each decision lands on depends on the
//! [`Clock`](beware_runtime::Clock) in use — real time by default, or a
//! [`VirtualClock`](beware_runtime::VirtualClock) under which a 145 s
//! delay schedule replays in microseconds (see DESIGN.md §10). Under a
//! wall clock the landing moments still depend on kernel scheduling,
//! which is why every fault counter lives in the nondeterministic
//! `faults/` telemetry family (see DESIGN.md §9).
//!
//! The contract this crate exists to enforce is stated once, here: under
//! any fault schedule, a request either completes with a correct answer
//! or fails with a **typed** error in bounded time. No hangs, no silently
//! wrong answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proxy;
pub mod topology;
mod transport;

pub use proxy::ChaosProxy;
pub use topology::{chaos_schedule, mid_campaign_partitions, TopologyFaultCfg};
pub use transport::FaultyTransport;

/// Fault-injection parameters shared by [`FaultyTransport`] and
/// [`ChaosProxy`]. All probabilities are per *decision point* (one chunk
/// of bytes moved, or one connection-lifetime event), in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct FaultCfg {
    /// Root seed; connection `i` draws from
    /// `beware_runtime::rng::derive_seed(seed, i)`.
    pub seed: u64,
    /// Forward/write at most this many bytes per chunk, with the actual
    /// chunk length drawn uniformly from `1..=max_chunk`. `0` disables
    /// splitting (chunks pass through whole).
    pub max_chunk: usize,
    /// Probability a chunk is delayed before being forwarded.
    pub delay_prob: f64,
    /// Upper bound on one injected delay, milliseconds (drawn uniformly
    /// from `1..=max_delay_ms`).
    pub max_delay_ms: u64,
    /// Probability one byte of a chunk is corrupted (XOR with a nonzero
    /// mask) before being forwarded.
    pub corrupt_prob: f64,
    /// Per-chunk probability the connection is truncated: the chunk and
    /// everything after it is swallowed and the connection closed, i.e. a
    /// frame can be cut anywhere, including inside its length prefix.
    pub truncate_prob: f64,
    /// Per-chunk probability of an abrupt close (RST-like: both
    /// directions die immediately, nothing is flushed).
    pub close_prob: f64,
    /// Per-chunk probability a direction stalls: bytes keep being
    /// accepted but nothing is forwarded ever again — the "peer stops
    /// reading" case that must not hang anyone.
    pub stall_prob: f64,
}

impl FaultCfg {
    /// No faults at all: traffic passes through verbatim (the proxy still
    /// counts connections and bytes).
    pub fn disabled(seed: u64) -> FaultCfg {
        FaultCfg {
            seed,
            max_chunk: 0,
            delay_prob: 0.0,
            max_delay_ms: 0,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            close_prob: 0.0,
            stall_prob: 0.0,
        }
    }

    /// The standard chaos mix used by `beware chaos` and the chaos test
    /// suite: aggressive splitting, occasional delays, and a steady trickle
    /// of corruption, truncation, stalls and aborts.
    pub fn chaos(seed: u64) -> FaultCfg {
        FaultCfg {
            seed,
            max_chunk: 7,
            delay_prob: 0.05,
            max_delay_ms: 3,
            corrupt_prob: 0.02,
            truncate_prob: 0.005,
            close_prob: 0.005,
            stall_prob: 0.003,
        }
    }

    /// Splitting only: every frame arrives in dribbles but intact — for
    /// exercising reassembly paths without any failures.
    pub fn split_only(seed: u64) -> FaultCfg {
        FaultCfg { max_chunk: 3, ..FaultCfg::disabled(seed) }
    }
}
