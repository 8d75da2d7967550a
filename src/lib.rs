//! # beware — *Timeouts: Beware Surprisingly High Delay*, reproduced in Rust
//!
//! Umbrella crate re-exporting the full stack of the IMC 2015 reproduction:
//!
//! * [`runtime`] — the shared execution substrate: the `Clock` trait
//!   (wall and deterministic virtual time), the workspace's one RNG
//!   module (SplitMix64 and xoshiro256++) and seed derivation, and the
//!   `DeadlineWheel` scheduler every timeout loop runs on (see DESIGN.md
//!   §10),
//! * [`wire`] — IPv4/ICMP/UDP/TCP codecs and the zmap-style payload embedding,
//! * [`asdb`] — longest-prefix-match AS/geo database and address-space generator,
//! * [`netsim`] — deterministic discrete-event Internet simulator,
//! * [`dataset`] — ISI-survey-like record model and codecs,
//! * [`probe`] — survey / zmap / scamper probing engines,
//! * [`analysis`] — the paper's analysis pipeline: unmatched-response
//!   matching, artifact filters, percentile aggregation and timeout tables,
//! * [`telemetry`] — deterministic counters/histograms threaded through the
//!   whole stack (see DESIGN.md §7 for schema and merge semantics),
//! * [`serve`] — the timeout-oracle service: snapshot builder, sharded TCP
//!   daemon, binary wire protocol, client library and load generator
//!   (see DESIGN.md §8),
//! * [`policy`] — online adaptive-timeout estimators (Jacobson/Karn RTO,
//!   exponential backoff, windowed quantile) plus the replay shootout
//!   that scores them against the static oracle (see DESIGN.md §13),
//! * [`faultsim`] — seeded fault injection for the service: a byte-level
//!   `FaultyTransport` wrapper and an in-process TCP chaos proxy backing
//!   `beware chaos` and the chaos test suite (see DESIGN.md §9),
//! * [`mod@bench`] — the campaign harness: scaled experiment contexts and the
//!   deterministic parallel fan-out behind `beware campaign --threads N`.
//!
//! See `examples/quickstart.rs` for the five-minute tour and `DESIGN.md` for
//! the per-experiment index.

#![forbid(unsafe_code)]

pub use beware_asdb as asdb;
pub use beware_bench as bench;
pub use beware_core as analysis;
pub use beware_dataset as dataset;
pub use beware_faultsim as faultsim;
pub use beware_netsim as netsim;
pub use beware_policy as policy;
pub use beware_probe as probe;
pub use beware_runtime as runtime;
pub use beware_serve as serve;
pub use beware_telemetry as telemetry;
pub use beware_wire as wire;
