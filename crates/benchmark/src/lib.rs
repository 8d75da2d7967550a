//! # beware-benchmark
//!
//! The repo's one benchmark: five workloads, one end-to-end metric set
//! and an outside-in per-layer ladder, written to one result schema.
//!
//! * [`spec`] — the contract: workload and metric names, units,
//!   directions, bounds (`BENCHMARK.json` mirrors it);
//! * [`workloads`] — the five workloads behind one trait;
//! * [`harness`] — the run shape: timed set-ups, warm-up, timed repeats,
//!   output checks; the traced run and its tracing-overhead pairs;
//! * [`trace`] — in-memory spans around the harness's calls into each
//!   layer, and self-time arithmetic;
//! * [`ladder`] — per-layer rungs for the workloads whose entry point
//!   hides the layers;
//! * [`result`], [`json`], [`env`], [`stats`] — the result schema and
//!   what it is made of;
//! * [`compare`] — `ok` / `regressed` / `unresolved` per (workload,
//!   metric) between two result files;
//! * [`report`] — what a run prints.
//!
//! This PR defines the yardstick and claims no gain; see the crate's
//! README for the glossary and the measured noise floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod env;
pub mod harness;
pub mod json;
pub mod ladder;
pub mod report;
pub mod result;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
