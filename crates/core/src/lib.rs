//! # beware-core
//!
//! The analysis pipeline of *Timeouts: Beware Surprisingly High Delay*
//! (IMC 2015) — the paper's primary contribution, reimplemented as a
//! library. Given survey records (`beware-dataset`), zmap scans, and
//! scamper probe trains, it reproduces every analytical step of the paper:
//!
//! * [`matching`] — recover responses that arrived after the prober's
//!   timeout by source-address matching (Section 3.3);
//! * [`filters`] — remove broadcast responders (EWMA fingerprint of
//!   stable 165/330/495 s artifacts) and duplicate/DoS reflectors
//!   (Sections 3.3.1–3.3.2);
//! * [`pipeline`] — the end-to-end combination with Table 1 accounting;
//! * [`percentile`] / [`cdf`] — per-address percentile-of-percentile
//!   aggregation;
//! * [`timeout_table`] — Table 2, the minimum-timeout matrix;
//! * [`recommend`] — the practitioner API: pick a timeout, quantify the
//!   false loss any timeout induces;
//! * [`trend`] — the 2006–2015 longitudinal series (Figure 9) with the
//!   broken-survey screen;
//! * [`broadcast_octets`] — the last-octet evidence (Figures 2–3);
//! * [`turtles`] — AS and continent attribution (Tables 4–6);
//! * [`satellite`] — the satellite split (Figure 11);
//! * [`firstping`] — the wake-up analysis (Figures 12–14);
//! * [`patterns`] — the >100 s event taxonomy (Table 7);
//! * [`protocols`] — ICMP/UDP/TCP parity and firewall RSTs (Figure 10);
//! * [`report`] — table/series rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast_octets;
mod by_addr;
pub mod cdf;
pub mod filters;
pub mod firstping;
pub mod matching;
pub mod patterns;
pub mod percentile;
pub mod pipeline;
pub mod protocols;
pub mod recommend;
pub mod report;
pub mod satellite;
pub mod timeout_table;
pub mod trend;
pub mod turtles;

pub use cdf::Cdf;
pub use matching::{match_unmatched, DelayedResponse, MatchOutcome};
pub use percentile::{nearest_rank, percentile_sorted, LatencySamples, PAPER_PERCENTILES};
pub use pipeline::{run_pipeline, run_pipeline_with, survey_samples, PipelineCfg, PipelineOutput};
pub use recommend::{recommend_timeout, Recommendation};
pub use timeout_table::TimeoutTable;
