//! # beware-policy
//!
//! Online adaptive-timeout policies, and the machinery to score them
//! against the paper's *static* percentile-of-percentile oracle.
//!
//! The paper's contribution is a table: "the minimum timeout that
//! captures c% of pings from r% of addresses", computed offline from a
//! two-week survey. Jain's *Divergence of Timeout Algorithms* is the
//! classic study of what happens when the timeout instead adapts
//! *online*, and the COVID-19 latency studies (PAPERS.md) document the
//! regime shifts — step changes in baseline latency, diurnal swings —
//! that make a static snapshot stale. This crate holds both sides of
//! that argument under one interface:
//!
//! * [`TimeoutPolicy`] — the per-prefix estimator contract: feed it RTT
//!   samples ([`observe`](TimeoutPolicy::observe)), ask it for the
//!   current timeout, tell it when a probe timed out
//!   ([`on_timeout`](TimeoutPolicy::on_timeout)) so it can back off.
//! * [`JacobsonKarn`] — RFC 6298-style SRTT/RTTVAR with Karn's rule and
//!   exponential backoff: the TCP lineage.
//! * [`ExpBackoff`] — fixed base × multiplier, no RTT feedback at all:
//!   the conventional-prober baseline the paper critiques.
//! * [`CodelQuantile`] — a CoDel-flavoured sliding-window percentile
//!   tracker: remember the last *w* RTTs, serve a margin above their
//!   *q*-quantile.
//! * [`OracleAdapter`] — the paper's static table frozen into the same
//!   trait, so the offline recommendation is scored through exactly the
//!   interface the online policies use (built from an [`OracleTable`]).
//!
//! Per-prefix state lives in a [`PrefixPolicyMap`], a sorted array of
//! /24 prefixes with their estimators beside it; published, immutable
//! snapshots of the map travel as [`PolicyTable`]s through
//! `beware_runtime::swap::Slot` (the serve path's epoch-swap slot).
//! Everything is deterministic: no wall clock, no ambient RNG — sample
//! timestamps come in through [`RttSample::at_secs`].
//!
//! The [`shootout`] module replays simulated survey campaigns
//! ([`scenario`]) through every policy and scores false-timeout rate,
//! waiting-time tails and estimator memory against ground truth,
//! including the snapshot-staleness sweep that finds the crossover where
//! online adaptation beats a stale oracle. See DESIGN.md §13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod backoff;
pub mod codel;
pub mod map;
pub mod rto;
pub mod scenario;
pub mod shootout;
pub mod table;

pub use adapter::{OracleAdapter, OracleTable};
pub use backoff::ExpBackoff;
pub use codel::CodelQuantile;
pub use map::PrefixPolicyMap;
pub use rto::JacobsonKarn;
pub use scenario::{Scenario, ScenarioKind};
pub use shootout::{ShootoutCfg, ShootoutReport};
pub use table::PolicyTable;

/// One round-trip-time measurement, stamped with the (simulated or
/// injected) time it was taken. Policies must derive all adaptation from
/// these two numbers — never from wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSample {
    /// The measured round-trip time in seconds.
    pub rtt_secs: f64,
    /// When the sample was taken, seconds on the injected clock.
    pub at_secs: f64,
}

impl RttSample {
    /// Convenience constructor.
    pub fn new(rtt_secs: f64, at_secs: f64) -> RttSample {
        RttSample { rtt_secs, at_secs }
    }
}

/// The estimator contract every timeout policy implements.
///
/// A policy instance tracks **one** flow of samples (in this repo: one
/// /24 prefix, via [`PrefixPolicyMap`]). The replay harness and the
/// serve path drive it with exactly three verbs:
///
/// * [`observe`](Self::observe) — a probe was answered within the
///   current timeout; here is its RTT. (Karn's rule is the policy's own
///   business: the harness never feeds RTTs of probes it declared timed
///   out.)
/// * [`current_timeout`](Self::current_timeout) — how long would you
///   wait for the next probe? Must be pure (no state change) so the
///   same state always quotes the same timeout.
/// * [`on_timeout`](Self::on_timeout) — the timeout you quoted expired
///   with no answer; back off if you are going to.
///
/// Determinism: a policy must be a pure fold over its sample/timeout
/// event stream — same events in, bit-identical timeout sequence out.
/// The proptest suite pins this for every registered kind.
pub trait TimeoutPolicy: std::fmt::Debug + Send {
    /// Stable, registry-facing policy name (e.g. `"jacobson-karn"`).
    fn name(&self) -> &'static str;

    /// Feed one successfully measured RTT sample.
    fn observe(&mut self, sample: RttSample);

    /// The timeout (seconds) the policy would arm right now.
    fn current_timeout(&self) -> f64;

    /// A probe armed with [`current_timeout`](Self::current_timeout)
    /// expired unanswered.
    fn on_timeout(&mut self);

    /// Bytes of estimator state this instance holds — what a server
    /// would pay per tracked prefix. Used by the shootout's memory
    /// scoring.
    fn state_bytes(&self) -> usize;
}

/// The registry of policies the CLI and serve path can name.
///
/// `Oracle` is the paper's static snapshot scored through the same
/// interface; the other three adapt online.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// RFC 6298-style SRTT/RTTVAR with Karn's rule ([`JacobsonKarn`]).
    JacobsonKarn,
    /// Fixed base × multiplier backoff, no RTT feedback ([`ExpBackoff`]).
    ExpBackoff,
    /// Sliding-window percentile tracker ([`CodelQuantile`]).
    CodelQuantile,
    /// The static BWTS oracle behind [`OracleAdapter`].
    Oracle,
}

impl PolicyKind {
    /// Every registered policy, in scoring/display order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::JacobsonKarn,
        PolicyKind::ExpBackoff,
        PolicyKind::CodelQuantile,
        PolicyKind::Oracle,
    ];

    /// The online (adaptive) policies — everything except the oracle.
    pub const ONLINE: [PolicyKind; 3] =
        [PolicyKind::JacobsonKarn, PolicyKind::ExpBackoff, PolicyKind::CodelQuantile];

    /// Stable CLI/registry name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::JacobsonKarn => "jacobson-karn",
            PolicyKind::ExpBackoff => "exp-backoff",
            PolicyKind::CodelQuantile => "codel-quantile",
            PolicyKind::Oracle => "oracle",
        }
    }

    /// Look a policy up by its CLI name.
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One-line human description for `--list-policies`.
    pub fn summary(self) -> &'static str {
        match self {
            PolicyKind::JacobsonKarn => {
                "RFC 6298 SRTT/RTTVAR estimator with Karn's rule and exponential backoff"
            }
            PolicyKind::ExpBackoff => {
                "fixed base x multiplier exponential backoff (conventional prober, no RTT feedback)"
            }
            PolicyKind::CodelQuantile => {
                "sliding-window quantile tracker: margin above the q-quantile of the last w RTTs"
            }
            PolicyKind::Oracle => "static BWTS snapshot (the paper's offline recommendation)",
        }
    }

    /// Construct a fresh estimator of this kind with default parameters.
    ///
    /// Panics for [`PolicyKind::Oracle`]: the oracle is not a free
    /// function of samples — build it from a snapshot via
    /// [`OracleTable`].
    pub fn build(self) -> Box<dyn TimeoutPolicy> {
        match self {
            PolicyKind::JacobsonKarn => Box::new(JacobsonKarn::default()),
            PolicyKind::ExpBackoff => Box::new(ExpBackoff::default()),
            PolicyKind::CodelQuantile => Box::new(CodelQuantile::default()),
            PolicyKind::Oracle => {
                panic!("the oracle policy is built from a snapshot, not thin air")
            }
        }
    }
}

/// The timeout every online policy quotes before it has seen a single
/// sample: the conventional prober's 3 s (the value the paper's Table 1
/// benchmarks against).
pub const INITIAL_TIMEOUT_SECS: f64 = 3.0;

/// Upper clamp on every online policy's timeout, RFC 6298 §2.4's "at
/// least 60 seconds" maximum. Keeps a mis-adapted estimator from
/// quoting unbounded waits.
pub const MAX_TIMEOUT_SECS: f64 = 60.0;

/// Lower clamp on every online policy's timeout. RFC 6298 recommends a
/// whole second; probers on today's Internet routinely go lower, and the
/// paper's own 95/95 recommendation is sub-second for fast blocks.
pub const MIN_TIMEOUT_SECS: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_names() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::from_name("bogus"), None);
    }

    #[test]
    fn online_kinds_build_with_initial_timeout() {
        for kind in PolicyKind::ONLINE {
            let policy = kind.build();
            assert_eq!(policy.name(), kind.name());
            assert_eq!(policy.current_timeout(), INITIAL_TIMEOUT_SECS);
            assert!(policy.state_bytes() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "built from a snapshot")]
    fn oracle_kind_does_not_build_from_nothing() {
        let _ = PolicyKind::Oracle.build();
    }
}
