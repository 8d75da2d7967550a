//! # beware-serve
//!
//! A timeout-oracle service: the paper's offline analysis, packaged as a
//! long-running daemon. The pipeline's per-address latency samples are
//! compiled into a canonical snapshot of per-prefix timeout tables
//! ([`builder`]), loaded into an immutable longest-prefix-match
//! [`Oracle`], and served over a compact checksummed binary protocol
//! ([`proto`]) by a sharded thread-per-core TCP server ([`server`]).
//! The protocol state machine itself lives in [`engine`], behind a
//! [`Transport`] seam, so the identical oracle+policy logic also runs
//! over in-memory channels inside the netsim (`beware simserve`).
//! The client's half of the protocol is one sans-IO [`machine`], driven
//! by the blocking [`client`] library (and through it the closed-loop
//! [`loadgen`]) and by `simserve`'s simulated clients.
//!
//! Two properties are load-bearing:
//!
//! * **Byte-exact answers.** Every served cell is the `f64` the offline
//!   `TimeoutTable::compute_at` produced, shipped as raw bits end to end
//!   — a served answer equals `recommend_timeout` bit for bit.
//! * **Deterministic metrics.** Per-shard telemetry registries are merged
//!   in fixed shard order, and scheduling-dependent counters live in the
//!   `sched/` family the JSON export excludes, so `--metrics` output is
//!   byte-identical across shard counts.
//!
//! The service also applies the paper's lesson to itself: connections are
//! read with bounded timeouts, never waited on indefinitely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod client;
pub mod engine;
pub mod loadgen;
pub mod machine;
pub mod oracle;
pub mod proto;
pub mod server;

pub use builder::{build_snapshot, SnapshotCfg};
pub use client::{Answer, Client, ClientError, ServerStats, SnapshotInfo};
pub use engine::{
    channel_pair, ChannelPeer, ChannelTransport, Conn, Engine, EngineCore, Transport,
};
pub use loadgen::{LoadCfg, LoadError, LoadReport, ReloadCfg, ReloadReport};
pub use machine::{AfterTimeout, ClientMachine, Outcome, Reply};
pub use oracle::{Lookup, LookupError, Oracle, OracleError, OracleHandle, OracleReader};
pub use proto::{ErrorCode, Message, ProtoError, ReloadKind, Status, PROTO_VERSION};
pub use server::{start, ConfigError, ServerCfg, ServerCfgBuilder, ServerHandle};
