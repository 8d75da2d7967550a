//! # beware-netsim
//!
//! A deterministic discrete-event simulator of the Internet as the paper
//! *Timeouts: Beware Surprisingly High Delay* (IMC 2015) measured it. We
//! cannot probe the real Internet from a hermetic build environment, so
//! the probers in `beware-probe` run against this world instead; its
//! behavior models implement the *mechanisms* the paper identifies as the
//! causes of surprisingly high round-trip times:
//!
//! * cellular radio wake-up (first-ping delay, Section 6.3),
//! * network-buffered disconnect episodes producing RTT-decay staircases
//!   and 100 s+ responses (Section 6.4),
//! * persistent deep-buffer congestion (sustained high latency + loss),
//! * geosynchronous-satellite floors with capped queues (Section 6.1),
//! * broadcast responders (Section 3.3.1), reflectors/DoS duplicate floods
//!   (Section 3.3.2), TCP-answering firewalls and ICMP rate limiting
//!   (Section 5.3).
//!
//! Module map: [`time`] and [`event`] are the discrete-event substrate
//! (scheduling through `beware_runtime::TimerQueue` and driving a
//! [`SimClock`] — one scheduler for the whole workspace),
//! [`rng`] the seeded distributions, [`packet`] the packet model bridging
//! to `beware-wire` bytes, [`profile`]/[`host`]/[`world`] the behavior
//! models, [`space`] the procedural (resolve-on-demand) address space and
//! bounded host table that let a full-IPv4-scale sweep stream in fixed
//! memory, [`link`] the shared router/link layer that turns one congested
//! uplink into correlated delay across every host behind it, [`sim`] the
//! agent event loop, [`scenario`] the paper-calibrated world builder, and
//! [`exec`] the deterministic worker pool fanning independent simulations
//! across threads.
//!
//! Everything is deterministic under a seed; two runs of the same scenario
//! produce identical packet traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod exec;
pub mod host;
pub mod link;
pub mod packet;
pub mod profile;
pub mod rng;
pub mod scenario;
pub mod sim;
pub mod space;
pub mod time;
pub mod trace;
pub mod world;

pub use exec::{default_threads, run_tasks};
pub use link::{LinkCfg, LinkEvent, LinkEventKind, LinkId};
pub use packet::{Arrival, Packet, L4};
pub use profile::{BlockProfile, PROFILE_KINDS};
pub use scenario::{Scenario, ScenarioCfg, Vantage, VANTAGES};
pub use sim::{Agent, Ctx, RunSummary, Simulation, TimerId};
pub use space::{LazyCfg, ProfileSource, ResolvedBlock};
pub use time::{SimClock, SimDuration, SimTime, TimeOutOfRange};
pub use world::{World, WorldStats};
