//! The EWMA broadcast-responder filter (Section 3.3.1).
//!
//! A broadcast responder answers the ping sent to its subnet's broadcast
//! address each round; under source-address matching this manufactures a
//! stable high latency (330 s, or 165/495 s for smaller subnets) round
//! after round. Genuine congestion-delayed responses vary; broadcast
//! artifacts repeat. The paper's filter: for every unmatched response with
//! latency ≥ 10 s, check whether the same source produced a similar
//! latency in the *previous* round; feed that indicator into an
//! exponentially weighted moving average (α = 0.01) per source, and mark
//! the source as a broadcast responder if the EWMA ever exceeds 0.2.

use crate::matching::DelayedResponse;
use std::collections::{BTreeSet, HashMap};

/// Filter parameters; defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BroadcastFilterCfg {
    /// Probing round length in seconds (ISI: 660).
    pub round_secs: u32,
    /// Only latencies at least this large are considered (paper: 10 s —
    /// genuine sub-10 s delays are too common to fingerprint).
    pub min_latency_s: u32,
    /// "Similar latency" tolerance between rounds, seconds.
    pub tolerance_s: u32,
    /// EWMA smoothing factor.
    pub alpha: f64,
    /// Mark a source when its EWMA maximum exceeds this ("most broadcast
    /// responders have the maximum > 0.9, but probe loss can decrease
    /// this, so we mark addresses with values > 0.2").
    pub mark_threshold: f64,
}

impl Default for BroadcastFilterCfg {
    fn default() -> Self {
        BroadcastFilterCfg {
            round_secs: 660,
            min_latency_s: 10,
            tolerance_s: 2,
            alpha: 0.01,
            mark_threshold: 0.2,
        }
    }
}

/// Detect broadcast responders among the delayed responses. Returns the
/// set of source addresses whose **every** response should be discarded.
pub fn detect_broadcast_responders(
    delayed: &[DelayedResponse],
    cfg: &BroadcastFilterCfg,
) -> BTreeSet<u32> {
    assert!(cfg.round_secs > 0, "round length must be positive");
    // Per address, per round: the qualifying latencies observed.
    let mut by_addr: HashMap<u32, HashMap<u32, Vec<u32>>> = HashMap::new();
    for d in delayed {
        if d.latency_s >= cfg.min_latency_s {
            let round = d.sent_s / cfg.round_secs;
            by_addr.entry(d.addr).or_default().entry(round).or_default().push(d.latency_s);
        }
    }

    let mut marked = BTreeSet::new();
    for (addr, rounds) in by_addr {
        let mut round_ids: Vec<u32> = rounds.keys().copied().collect();
        round_ids.sort_unstable();
        let mut ewma = 0.0f64;
        let mut max_ewma = 0.0f64;
        for &round in &round_ids {
            let prev = rounds.get(&round.wrapping_sub(1));
            for &lat in &rounds[&round] {
                let hit =
                    prev.is_some_and(|p| p.iter().any(|&pl| pl.abs_diff(lat) <= cfg.tolerance_s));
                ewma = (1.0 - cfg.alpha) * ewma + cfg.alpha * f64::from(u8::from(hit));
                max_ewma = max_ewma.max(ewma);
            }
        }
        if max_ewma > cfg.mark_threshold {
            marked.insert(addr);
        }
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delayed(addr: u32, round: u32, latency_s: u32) -> DelayedResponse {
        DelayedResponse { addr, sent_s: round * 660 + 17, latency_s }
    }

    /// A classic broadcast responder: 330 s latency, every round.
    fn steady_responder(addr: u32, rounds: u32) -> Vec<DelayedResponse> {
        (0..rounds).map(|r| delayed(addr, r, 330)).collect()
    }

    #[test]
    fn steady_broadcast_responder_is_marked_with_paper_params() {
        // With α = 0.01, a hit every round pushes the EWMA past 0.2 after
        // ~23 rounds; give it a survey-scale 100 rounds.
        let d = steady_responder(7, 100);
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(marked.contains(&7));
    }

    #[test]
    fn congestion_varied_latency_is_not_marked() {
        // High latencies that vary a lot between rounds: not broadcast.
        let d: Vec<DelayedResponse> =
            (0..100).map(|r| delayed(9, r, 10 + (r * 37) % 300)).collect();
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(!marked.contains(&9));
    }

    #[test]
    fn sub_threshold_latencies_ignored() {
        // Sub-10 s latencies, even if perfectly stable, are not eligible.
        let d: Vec<DelayedResponse> = (0..200).map(|r| delayed(5, r, 6)).collect();
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(marked.is_empty());
    }

    #[test]
    fn latency_of_exactly_min_latency_counts() {
        // "latency ≥ 10 s": a steady responder at exactly 10 s is marked.
        let d: Vec<DelayedResponse> = (0..100).map(|r| delayed(4, r, 10)).collect();
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(marked.contains(&4));
    }

    #[test]
    fn ewma_of_exactly_the_threshold_is_not_marked() {
        // "values > 0.2": with α = 0.5 one hit lifts the EWMA to exactly
        // 0.5, which a 0.5 threshold does not mark.
        let cfg = BroadcastFilterCfg { alpha: 0.5, mark_threshold: 0.5, ..Default::default() };
        let d = steady_responder(6, 2);
        assert!(detect_broadcast_responders(&d, &cfg).is_empty());
        let d = steady_responder(6, 3);
        assert!(detect_broadcast_responders(&d, &cfg).contains(&6));
    }

    #[test]
    fn tolerance_allows_second_quantization_wobble() {
        // Latency alternates 330/331 (timestamp truncation): still marked.
        let d: Vec<DelayedResponse> = (0..100).map(|r| delayed(3, r, 330 + r % 2)).collect();
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(marked.contains(&3));
    }

    #[test]
    fn occasional_responder_evades_default_filter() {
        // The paper's observed false negatives: responses only once every
        // ~50 rounds never accumulate EWMA (the previous round is empty).
        let d: Vec<DelayedResponse> =
            (0..200).filter(|r| r % 50 == 0).map(|r| delayed(11, r, 330)).collect();
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(!marked.contains(&11), "sparse responder should pass undetected");
    }

    #[test]
    fn loss_tolerated_once_ewma_accumulated() {
        // Respond rounds 0..60, lose rounds 60..63, respond again: the
        // EWMA decays but the *maximum* stays above the mark.
        let mut d = steady_responder(13, 60);
        d.extend((63..80).map(|r| delayed(13, r, 330)));
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(marked.contains(&13));
    }

    #[test]
    fn short_survey_needs_larger_alpha() {
        // 10 rounds is too short for α = 0.01...
        let d = steady_responder(21, 10);
        assert!(detect_broadcast_responders(&d, &BroadcastFilterCfg::default()).is_empty());
        // ...but a test-scale α catches it.
        let cfg = BroadcastFilterCfg { alpha: 0.1, ..Default::default() };
        assert!(detect_broadcast_responders(&d, &cfg).contains(&21));
    }

    #[test]
    fn multiple_addresses_independent() {
        let mut d = steady_responder(1, 100);
        d.extend((0..100).map(|r| delayed(2, r, 10 + (r * 53) % 400)));
        let marked = detect_broadcast_responders(&d, &BroadcastFilterCfg::default());
        assert!(marked.contains(&1));
        assert!(!marked.contains(&2));
    }
}
