//! # beware-bench
//!
//! The experiment harness: regenerates every table and figure of
//! *Timeouts: Beware Surprisingly High Delay* against the simulated
//! Internet, at a configurable scale.
//!
//! [`Scale`] holds the knobs (blocks, rounds, scan counts); [`ExperimentCtx`]
//! runs the shared expensive steps once (one IT63-style survey pair, the
//! zmap scan campaign, the analysis pipeline) and each `experiments::*`
//! module derives its table/figure from that context, returning both
//! structured results (asserted by integration tests) and rendered text
//! (printed by the `paper_experiments` bench).
//!
//! [`fullspace`] and [`simserve`] are the campaigns behind `beware
//! fullspace` and `beware simserve`; their speed is measured by
//! `crates/benchmark`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod experiments;
pub mod fullspace;
pub mod scale;
pub mod simserve;

pub use ctx::ExperimentCtx;
pub use fullspace::{FullSpaceCfg, FullSpaceReport};
pub use scale::Scale;
pub use simserve::{Regime, SimServeCfg, SimServeReport};
