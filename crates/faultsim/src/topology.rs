//! Topology-level fault schedules: faults as *link events*, not byte
//! mangling.
//!
//! [`FaultyTransport`](crate::FaultyTransport) and the chaos proxy attack
//! the byte stream of one connection; this module attacks the *network* —
//! it emits seeded [`LinkEvent`] windows (partitions and capacity
//! degrades) for the netsim's shared link layer, so a fault hits every
//! host and every connection behind the affected link at once, the way
//! real outages do. `beware simserve` replays these schedules against the
//! in-sim oracle server: a partitioned access link black-holes a whole
//! /16 of clients mid-campaign, and the acceptance bar is the same as the
//! proxy's — bounded errors, zero wrong answers, no hangs.
//!
//! Schedules are pure functions of their configuration. Window `i` draws
//! from `derive_seed(cfg.seed, i)` (the workspace discipline: one
//! SplitMix64 stream per unit of work), so inserting or removing a window
//! never reshuffles the others.

use beware_netsim::{LinkEvent, LinkEventKind, LinkId};
use beware_runtime::rng::{derive_seed, SplitMix64};

/// Parameters for a seeded schedule of topology fault windows.
#[derive(Debug, Clone)]
pub struct TopologyFaultCfg {
    /// Root seed; window `i` draws from `derive_seed(seed, i)`.
    pub seed: u64,
    /// Campaign length: every window fits inside `[0, duration_secs)`.
    pub duration_secs: f64,
    /// Number of partition windows (black-holed link).
    pub partitions: usize,
    /// Number of degrade windows (scaled-down capacity).
    pub degrades: usize,
    /// Shortest fault window, seconds.
    pub min_window_secs: f64,
    /// Longest fault window, seconds.
    pub max_window_secs: f64,
    /// Capacity multiplier range `[lo, hi)` for degrade windows (e.g.
    /// `(0.01, 0.1)` = 10–100× slower).
    pub degrade_scale: (f64, f64),
}

impl TopologyFaultCfg {
    /// The standard chaos mix for a campaign of `duration_secs`: a couple
    /// of partitions and a handful of heavy degrades, each lasting
    /// roughly 2–10% of the campaign.
    pub fn chaos(seed: u64, duration_secs: f64) -> TopologyFaultCfg {
        TopologyFaultCfg {
            seed,
            duration_secs,
            partitions: 2,
            degrades: 4,
            min_window_secs: duration_secs * 0.02,
            max_window_secs: duration_secs * 0.10,
            degrade_scale: (0.01, 0.1),
        }
    }
}

/// Generate the schedule: `cfg.partitions + cfg.degrades` windows, each
/// over a link drawn from `targets`, sorted by start time (ties keep
/// draw order). Empty `targets` yields an empty schedule.
///
/// Partitions occupy window indices `0..partitions` and degrades the
/// rest, so changing one count never redraws the other kind's windows.
pub fn chaos_schedule(cfg: &TopologyFaultCfg, targets: &[LinkId]) -> Vec<LinkEvent> {
    if targets.is_empty() {
        return Vec::new();
    }
    let total = cfg.partitions + cfg.degrades;
    let mut events = Vec::with_capacity(total);
    let span = (cfg.max_window_secs - cfg.min_window_secs).max(0.0);
    for i in 0..total {
        let mut rng = SplitMix64::new(derive_seed(cfg.seed, i as u64));
        let link = targets[(rng.next_u64() % targets.len() as u64) as usize];
        let len = (cfg.min_window_secs + rng.unit() * span).min(cfg.duration_secs);
        let at_secs = rng.unit() * (cfg.duration_secs - len).max(0.0);
        let kind = if i < cfg.partitions {
            LinkEventKind::Partition
        } else {
            let (lo, hi) = cfg.degrade_scale;
            LinkEventKind::Degrade { capacity_scale: lo + rng.unit() * (hi - lo).max(0.0) }
        };
        events.push(LinkEvent { link, at_secs, until_secs: at_secs + len, kind });
    }
    events.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
    events
}

/// The simserve acceptance scenario: partition each listed link during
/// the middle fifth of the campaign (`[0.4·D, 0.6·D)`). Deterministic
/// and seed-free — the window is part of the campaign's identity, not a
/// random draw.
pub fn mid_campaign_partitions(links: &[LinkId], duration_secs: f64) -> Vec<LinkEvent> {
    links
        .iter()
        .map(|&link| LinkEvent {
            link,
            at_secs: duration_secs * 0.4,
            until_secs: duration_secs * 0.6,
            kind: LinkEventKind::Partition,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> Vec<LinkId> {
        vec![LinkId::Access(1), LinkId::Access(2), LinkId::Core(64500), LinkId::Spine(0)]
    }

    #[test]
    fn schedule_is_a_pure_function_of_cfg() {
        let cfg = TopologyFaultCfg::chaos(42, 300.0);
        assert_eq!(chaos_schedule(&cfg, &targets()), chaos_schedule(&cfg, &targets()));
        let other = TopologyFaultCfg::chaos(43, 300.0);
        assert_ne!(chaos_schedule(&cfg, &targets()), chaos_schedule(&other, &targets()));
    }

    #[test]
    fn windows_fit_the_campaign_and_counts_match() {
        let cfg = TopologyFaultCfg::chaos(7, 120.0);
        let events = chaos_schedule(&cfg, &targets());
        assert_eq!(events.len(), cfg.partitions + cfg.degrades);
        let partitions = events.iter().filter(|e| e.kind == LinkEventKind::Partition).count();
        assert_eq!(partitions, cfg.partitions);
        for ev in &events {
            assert!(ev.at_secs >= 0.0 && ev.until_secs <= 120.0 + 1e-9, "{ev:?}");
            assert!(ev.until_secs > ev.at_secs, "{ev:?}");
            let len = ev.until_secs - ev.at_secs;
            assert!(
                (cfg.min_window_secs - 1e-9..=cfg.max_window_secs + 1e-9).contains(&len),
                "{ev:?}"
            );
            if let LinkEventKind::Degrade { capacity_scale } = ev.kind {
                assert!((0.01..0.1).contains(&capacity_scale), "{ev:?}");
            }
        }
        assert!(events.windows(2).all(|w| w[0].at_secs <= w[1].at_secs), "sorted by start");
    }

    #[test]
    fn degrade_draws_survive_partition_count_changes() {
        // Window index is the stream id, partitions first: adding a
        // partition shifts which indices are degrades, but a degrade at
        // the same index draws identically.
        let base = TopologyFaultCfg { partitions: 0, ..TopologyFaultCfg::chaos(9, 100.0) };
        let more = TopologyFaultCfg { degrades: base.degrades + 2, ..base.clone() };
        let a = chaos_schedule(&base, &targets());
        let b = chaos_schedule(&more, &targets());
        for ev in &a {
            assert!(b.contains(ev), "original degrade windows must persist: {ev:?}");
        }
    }

    #[test]
    fn no_targets_no_events() {
        let cfg = TopologyFaultCfg::chaos(1, 60.0);
        assert!(chaos_schedule(&cfg, &[]).is_empty());
    }

    #[test]
    fn mid_campaign_partition_covers_the_middle_fifth() {
        let events = mid_campaign_partitions(&[LinkId::Access(3), LinkId::Spine(1)], 200.0);
        assert_eq!(events.len(), 2);
        for ev in &events {
            assert_eq!(ev.kind, LinkEventKind::Partition);
            assert_eq!((ev.at_secs, ev.until_secs), (80.0, 120.0));
        }
    }
}
