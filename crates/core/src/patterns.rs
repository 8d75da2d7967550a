//! Classification of the contexts in which >100 s RTTs occur —
//! Section 6.4 and Table 7.
//!
//! The paper probes 1,400 extreme addresses with 2,000 pings at 1 Hz and
//! finds the >100 s samples embedded in four distinct patterns:
//!
//! * **Low latency, then decay** — a normal response, then a backlog flush
//!   in which "every subsequent response's round-trip latency was 1 second
//!   lower than the previous";
//! * **Loss, then decay** — the same staircase, preceded by losses;
//! * **Sustained high latency and loss** — minutes of >10 s latencies
//!   mixed with loss;
//! * **High latency between loss** — a single >100 s response sandwiched
//!   in loss.
//!
//! The decay staircase has an exact signature under 1 Hz probing: all the
//! buffered responses arrive together, so `send_index + RTT` is constant
//! across the run. The classifier keys on that invariant.

use std::collections::BTreeSet;

/// The four patterns of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HighRttPattern {
    /// A low-latency response immediately precedes the decay staircase.
    LowLatencyThenDecay,
    /// Losses precede the decay staircase.
    LossThenDecay,
    /// Minutes of high latency mixed with loss, no staircase.
    SustainedHighLatencyAndLoss,
    /// An isolated >100 s response between losses.
    HighLatencyBetweenLoss,
}

impl HighRttPattern {
    /// All patterns in Table 7 order.
    pub const ALL: [HighRttPattern; 4] = [
        HighRttPattern::LowLatencyThenDecay,
        HighRttPattern::LossThenDecay,
        HighRttPattern::SustainedHighLatencyAndLoss,
        HighRttPattern::HighLatencyBetweenLoss,
    ];

    /// Row label as printed in Table 7.
    pub fn label(self) -> &'static str {
        match self {
            HighRttPattern::LowLatencyThenDecay => "Low latency, then decay",
            HighRttPattern::LossThenDecay => "Loss, then decay",
            HighRttPattern::SustainedHighLatencyAndLoss => "Sustained high latency and loss",
            HighRttPattern::HighLatencyBetweenLoss => "High latency between loss",
        }
    }
}

/// One classified event in one address's probe train.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighRttEvent {
    /// The address.
    pub addr: u32,
    /// Index of the first >threshold ping in the event.
    pub start_idx: usize,
    /// Index of the last >threshold ping in the event.
    pub end_idx: usize,
    /// Number of pings above the threshold inside the event.
    pub high_pings: usize,
    /// The pattern.
    pub pattern: HighRttPattern,
}

/// Table 7: per-pattern totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternTable {
    /// Every classified event.
    pub events: Vec<HighRttEvent>,
}

impl PatternTable {
    /// `(pings, events, addresses)` for one pattern.
    pub fn totals(&self, pattern: HighRttPattern) -> (usize, usize, usize) {
        let evs: Vec<&HighRttEvent> = self.events.iter().filter(|e| e.pattern == pattern).collect();
        let pings = evs.iter().map(|e| e.high_pings).sum();
        let addrs: BTreeSet<u32> = evs.iter().map(|e| e.addr).collect();
        (pings, evs.len(), addrs.len())
    }
}

/// Probe spacing is 1 s, so this many *indices* of gap still belong to the
/// same underlying network event.
const EVENT_GAP: usize = 30;
/// Arrivals within this many seconds of each other count as "simultaneous"
/// for the staircase test.
const DECAY_TOLERANCE: f64 = 2.0;
/// "Higher than normal" per the paper's prose.
const HIGH_LATENCY: f64 = 10.0;

/// Classify every >`threshold` event in a set of 1 Hz probe trains.
/// `streams` holds `(addr, per-probe RTTs)`; `None` is an unanswered probe.
pub fn classify_streams(streams: &[(u32, Vec<Option<f64>>)], threshold: f64) -> PatternTable {
    let mut table = PatternTable::default();
    for (addr, rtts) in streams {
        classify_one(*addr, rtts, threshold, &mut table.events);
    }
    table
}

fn classify_one(addr: u32, rtts: &[Option<f64>], threshold: f64, out: &mut Vec<HighRttEvent>) {
    // Indices of pings above the threshold.
    let high: Vec<usize> = rtts
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.filter(|&v| v > threshold).map(|_| i))
        .collect();
    if high.is_empty() {
        return;
    }
    // Group into events by gap.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut start = high[0];
    let mut prev = high[0];
    for &i in &high[1..] {
        if i - prev > EVENT_GAP {
            groups.push((start, prev));
            start = i;
        }
        prev = i;
    }
    groups.push((start, prev));

    for (s, e) in groups {
        let high_pings = high.iter().filter(|&&i| i >= s && i <= e).count();
        let pattern = classify_event(rtts, s, e);
        out.push(HighRttEvent { addr, start_idx: s, end_idx: e, high_pings, pattern });
    }
}

fn classify_event(rtts: &[Option<f64>], s: usize, e: usize) -> HighRttPattern {
    // The decay staircase: find the maximal run of answered, high-latency
    // probes containing [s, e] whose arrival instants (index + RTT) agree.
    // Probes dropped *inside* the staircase (the buffer is lossy) must not
    // terminate it, so the extension tolerates gaps of unanswered probes
    // up to `MAX_GAP`; only a conflicting answered RTT breaks the run.
    const MAX_GAP: usize = 10;
    let arrival_at_s = s as f64 + rtts[s].expect("s indexes an answered ping");
    let on_staircase = |i: usize| -> Option<bool> {
        // Some(true) = matches the staircase; Some(false) = conflicts;
        // None = no response at i.
        rtts[i].map(|r| r > 1.5 && (i as f64 + r - arrival_at_s).abs() <= DECAY_TOLERANCE)
    };
    // Extend backwards (the staircase includes probes below the event
    // threshold: a 136 s flush ends in 1 s responses).
    let mut run_start = s;
    let mut gap = 0usize;
    for i in (0..s).rev() {
        match on_staircase(i) {
            Some(true) => {
                run_start = i;
                gap = 0;
            }
            Some(false) => break,
            None => {
                gap += 1;
                if gap > MAX_GAP {
                    break;
                }
            }
        }
    }
    // Extend forwards likewise.
    let mut run_end = s;
    gap = 0;
    for i in s + 1..rtts.len() {
        match on_staircase(i) {
            Some(true) => {
                run_end = i;
                gap = 0;
            }
            Some(false) => break,
            None => {
                gap += 1;
                if gap > MAX_GAP {
                    break;
                }
            }
        }
    }
    let run_len = run_end - run_start + 1;
    let answered_in_run = (run_start..=run_end).filter(|&i| rtts[i].is_some()).count();

    if run_len >= 3 && answered_in_run >= 3 && run_end >= e {
        // A genuine staircase covering the whole event. What preceded it?
        let lookback = run_start.saturating_sub(20)..run_start;
        let last_answered = lookback.rev().find_map(|i| rtts[i].map(|r| (i, r)));
        return match last_answered {
            Some((i, r)) if r < HIGH_LATENCY && run_start - i <= 3 => {
                HighRttPattern::LowLatencyThenDecay
            }
            _ => HighRttPattern::LossThenDecay,
        };
    }

    // Not a staircase. Isolated single high ping between losses?
    let answered_highs = (s..=e).filter(|&i| rtts[i].is_some_and(|r| r > HIGH_LATENCY)).count();
    if answered_highs == 1 {
        let before_lost = s == 0 || rtts[s - 1].is_none();
        let after_lost = s + 1 >= rtts.len() || rtts[s + 1].is_none();
        if before_lost && after_lost {
            return HighRttPattern::HighLatencyBetweenLoss;
        }
    }
    HighRttPattern::SustainedHighLatencyAndLoss
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a train of `len` probes at `base` RTT.
    fn base_train(len: usize, base: f64) -> Vec<Option<f64>> {
        vec![Some(base); len]
    }

    /// Install a backlog flush: probes in `range` all arrive at
    /// `flush_at` (seconds = index units).
    fn install_decay(rtts: &mut [Option<f64>], range: std::ops::Range<usize>, flush_at: usize) {
        for i in range {
            rtts[i] = Some(flush_at as f64 - i as f64 + 0.3);
        }
    }

    #[test]
    fn low_latency_then_decay_detected() {
        let mut rtts = base_train(400, 0.3);
        // Probes 100..240 buffered, flushed at 240: RTTs 140.3 down to 1.3.
        install_decay(&mut rtts, 100..240, 240);
        let t = classify_streams(&[(1, rtts)], 100.0);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].pattern, HighRttPattern::LowLatencyThenDecay);
        // Pings over 100 s: indices 100..=140 (RTT 140.3 down to 100.3).
        assert_eq!(t.events[0].high_pings, 41);
    }

    #[test]
    fn loss_then_decay_detected() {
        let mut rtts = base_train(400, 0.3);
        // Losses 80..100, then the flush.
        for r in rtts.iter_mut().take(100).skip(80) {
            *r = None;
        }
        install_decay(&mut rtts, 100..240, 240);
        let t = classify_streams(&[(2, rtts)], 100.0);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].pattern, HighRttPattern::LossThenDecay);
    }

    #[test]
    fn lossy_staircase_still_classified_as_decay() {
        // Real episode buffers drop ~20% of probes: holes inside the
        // staircase must not break the classification.
        let mut rtts = base_train(400, 0.3);
        install_decay(&mut rtts, 100..240, 240);
        for i in (100..240).step_by(5) {
            rtts[i] = None;
        }
        rtts[150] = None;
        rtts[151] = None;
        rtts[152] = None;
        let t = classify_streams(&[(1, rtts)], 100.0);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].pattern, HighRttPattern::LowLatencyThenDecay);
    }

    #[test]
    fn conflicting_rtt_breaks_staircase() {
        // A genuinely different high RTT adjacent to the staircase means
        // the arrivals do not line up: not a clean decay.
        let mut rtts = base_train(400, 0.3);
        install_decay(&mut rtts, 100..140, 240);
        // Conflicting high latencies after the staircase region.
        for (i, rtt) in rtts.iter_mut().enumerate().take(240).skip(141) {
            *rtt = if i % 2 == 0 { Some(120.0 + (i % 17) as f64) } else { None };
        }
        let t = classify_streams(&[(1, rtts)], 100.0);
        assert!(t.events.iter().any(|e| e.pattern == HighRttPattern::SustainedHighLatencyAndLoss));
    }

    #[test]
    fn sustained_high_latency_detected() {
        let mut rtts = base_train(600, 0.3);
        // Minutes of 90–150 s latencies with half the probes lost; the
        // arrival instants do not line up.
        for (i, rtt) in rtts.iter_mut().enumerate().take(400).skip(100) {
            *rtt = if i % 2 == 0 { Some(90.0 + ((i * 37) % 60) as f64) } else { None };
        }
        let t = classify_streams(&[(3, rtts)], 100.0);
        assert!(!t.events.is_empty());
        assert!(t.events.iter().all(|e| e.pattern == HighRttPattern::SustainedHighLatencyAndLoss));
    }

    #[test]
    fn isolated_high_between_loss_detected() {
        let mut rtts = base_train(300, 0.3);
        rtts[149] = None;
        rtts[150] = Some(130.0);
        rtts[151] = None;
        let t = classify_streams(&[(4, rtts)], 100.0);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].pattern, HighRttPattern::HighLatencyBetweenLoss);
        assert_eq!(t.events[0].high_pings, 1);
    }

    #[test]
    fn no_high_pings_no_events() {
        let rtts = base_train(100, 5.0);
        let t = classify_streams(&[(5, rtts)], 100.0);
        assert!(t.events.is_empty());
    }

    #[test]
    fn totals_aggregate_per_pattern() {
        let mut a = base_train(400, 0.3);
        install_decay(&mut a, 100..240, 240);
        let mut b = base_train(400, 0.3);
        install_decay(&mut b, 50..190, 190);
        let mut c = base_train(300, 0.3);
        c[149] = None;
        c[150] = Some(130.0);
        c[151] = None;
        let t = classify_streams(&[(1, a), (2, b), (3, c)], 100.0);
        let (pings, events, addrs) = t.totals(HighRttPattern::LowLatencyThenDecay);
        assert_eq!((pings, events, addrs), (82, 2, 2));
        let (pings, events, addrs) = t.totals(HighRttPattern::HighLatencyBetweenLoss);
        assert_eq!((pings, events, addrs), (1, 1, 1));
        let (p, e, a2) = t.totals(HighRttPattern::SustainedHighLatencyAndLoss);
        assert_eq!((p, e, a2), (0, 0, 0));
    }

    #[test]
    fn separate_events_in_one_stream_counted_separately() {
        let mut rtts = base_train(900, 0.3);
        install_decay(&mut rtts, 100..240, 240);
        install_decay(&mut rtts, 500..640, 640);
        let t = classify_streams(&[(9, rtts)], 100.0);
        assert_eq!(t.events.len(), 2);
    }

    #[test]
    fn paper_136s_example_reproduces() {
        // "After 136 seconds of no response from 191.225.110.96, we
        // received all 136 responses over a one second interval."
        let mut rtts = base_train(400, 0.4);
        for r in rtts.iter_mut().take(236).skip(100) {
            *r = None;
        }
        // They *did* arrive though — the paper's tcpdump caught them: all
        // 136 probes answered at t=236.
        install_decay(&mut rtts, 100..236, 236);
        let t = classify_streams(&[(7, rtts)], 100.0);
        assert_eq!(t.events.len(), 1);
        // Last answered before the run is the low-latency probe at 99.
        assert_eq!(t.events[0].pattern, HighRttPattern::LowLatencyThenDecay);
    }
}
