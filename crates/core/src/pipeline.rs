//! The end-to-end analysis pipeline of Section 4.1: recover delayed
//! responses, filter artifacts, and produce the per-address latency
//! samples plus the accounting of the paper's Table 1.

use crate::by_addr;
use crate::filters::broadcast::{detect_broadcast_responders, BroadcastFilterCfg};
use crate::filters::duplicates::{duplicate_offenders, max_per_request};
use crate::matching::{match_address, DelayedResponse, MatchOutcome};
use crate::percentile::LatencySamples;
use beware_dataset::Record;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Pipeline parameters; defaults are the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineCfg {
    /// Broadcast filter configuration.
    pub broadcast: BroadcastFilterCfg,
    /// Duplicate filter threshold. `None` uses the paper's value (4): an
    /// address is discarded once any single request drew more than this
    /// many responses.
    pub dup_threshold: Option<u32>,
}

/// The paper's duplicate-filter threshold (Section 3.3.2).
const PAPER_DUP_THRESHOLD: u32 = 4;

impl PipelineCfg {
    /// The configuration the paper's analysis used. Identical to
    /// [`Default`], spelled explicitly.
    pub fn paper() -> Self {
        PipelineCfg::default()
    }

    fn dup_threshold(&self) -> u32 {
        self.dup_threshold.unwrap_or(PAPER_DUP_THRESHOLD)
    }
}

/// One `(packets, addresses)` row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountRow {
    /// Response packets.
    pub packets: u64,
    /// Distinct addresses.
    pub addresses: u64,
}

/// The accounting of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Accounting {
    /// Responses matched by the prober itself.
    pub survey_detected: CountRow,
    /// Survey-detected plus naively recovered delayed responses, before
    /// filtering.
    pub naive_matching: CountRow,
    /// Responses discarded because their source is a broadcast responder.
    pub broadcast_responses: CountRow,
    /// Responses discarded because their source exceeded the duplicate
    /// threshold.
    pub duplicate_responses: CountRow,
    /// The final combined dataset: survey-detected plus delayed, filtered.
    pub survey_plus_delayed: CountRow,
}

/// Full pipeline output.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutput {
    /// Per-address latency samples of the **filtered combined** dataset:
    /// matched RTTs (µs precision) plus recovered delayed latencies
    /// (second precision), for addresses that survived both filters.
    pub samples: BTreeMap<u32, LatencySamples>,
    /// Samples of the addresses the filters removed. Disjoint from
    /// `samples`; the union of the two is the naive (pre-filter) dataset —
    /// see [`naive_samples`](Self::naive_samples). Partitioning by move
    /// avoids cloning every surviving sample set.
    pub rejected_samples: BTreeMap<u32, LatencySamples>,
    /// Addresses marked as broadcast responders.
    pub broadcast_responders: BTreeSet<u32>,
    /// Addresses exceeding the duplicate threshold (excluding those
    /// already marked as broadcast responders, matching the paper's
    /// disjoint accounting).
    pub duplicate_offenders: BTreeSet<u32>,
    /// Per-address maximum responses to a single request (Figure 5).
    pub max_responses: BTreeMap<u32, u32>,
    /// Table 1.
    pub accounting: Accounting,
}

impl PipelineOutput {
    /// The naive (pre-filter) view — the "before" curve of Figure 6 with
    /// its 165/330/495 s bumps: every address, surviving or rejected,
    /// with its unfiltered samples. Filtering removes whole addresses,
    /// never individual samples, so survivors' naive samples are their
    /// filtered ones.
    pub fn naive_samples(&self) -> impl Iterator<Item = (u32, &LatencySamples)> {
        self.samples.iter().chain(self.rejected_samples.iter()).map(|(&a, s)| (a, s))
    }

    /// Naive samples of one address, surviving or rejected.
    pub fn naive_sample(&self, addr: u32) -> Option<&LatencySamples> {
        self.samples.get(&addr).or_else(|| self.rejected_samples.get(&addr))
    }
}

/// One address's samples: its matched RTTs plus the latencies recovered
/// for it, unsorted.
fn address_samples(mut rtts: Vec<f64>, delayed: &[DelayedResponse]) -> LatencySamples {
    rtts.extend(delayed.iter().map(|d| f64::from(d.latency_s)));
    LatencySamples::from_values(rtts)
}

/// Per-address samples from **survey-detected responses only** (Figure 1's
/// view of the data, clipped at the prober timeout).
pub fn survey_samples(records: &[Record]) -> BTreeMap<u32, LatencySamples> {
    by_addr::index(records)
        .into_iter()
        .filter(|e| !e.rtts.is_empty())
        .map(|e| (e.addr, address_samples(e.rtts, &[])))
        .collect()
}

/// Run matching, filtering and accounting over one survey's records.
pub fn run_pipeline(records: &[Record], cfg: &PipelineCfg) -> PipelineOutput {
    run_pipeline_with(records, cfg, &mut beware_telemetry::Registry::disabled())
}

/// Like [`run_pipeline`], additionally flushing per-stage counters under
/// `pipeline/` into `metrics`: input size, each Table 1 row
/// (`pipeline/stage/<row>/{packets,addresses}`), match-window outcomes
/// (`pipeline/match/...`, including a histogram of recovered latencies)
/// and filter hit counts (`pipeline/filter/...`). Telemetry never alters
/// the output: the returned [`PipelineOutput`] is identical whether
/// `metrics` is enabled, disabled, or shared across calls.
///
/// Every rule but the broadcast filter is local to one address, so the
/// records are grouped by address once and one walk over the groups, in
/// address order, matches, counts Figure 5's per-request responses and
/// accumulates samples.
pub fn run_pipeline_with(
    records: &[Record],
    cfg: &PipelineCfg,
    metrics: &mut beware_telemetry::Registry,
) -> PipelineOutput {
    let mut outcome = MatchOutcome::default();
    let mut max_responses = Vec::new();
    let mut naive = Vec::new();
    let mut survey_detected = CountRow::default();
    for e in by_addr::index(records) {
        // 1. Survey-detected responses.
        if !e.rtts.is_empty() {
            survey_detected.packets += e.rtts.len() as u64;
            survey_detected.addresses += 1;
        }
        // 2. Naive matching of unmatched responses.
        let first = outcome.delayed.len();
        match_address(e.addr, &e.timeouts, &e.unmatched, &mut outcome);
        // 3. Figure 5's input to the duplicate filter.
        max_responses.push((e.addr, max_per_request(&e.requests, &e.matched_sent, &e.unmatched)));
        let delayed = &outcome.delayed[first..];
        if !e.rtts.is_empty() || !delayed.is_empty() {
            naive.push((e.addr, address_samples(e.rtts, delayed)));
        }
    }
    let naive_matching = CountRow {
        packets: survey_detected.packets + outcome.delayed.len() as u64,
        addresses: naive.len() as u64,
    };
    let max_responses: BTreeMap<u32, u32> = max_responses.into_iter().collect();

    // 4. Filters.
    let broadcast_responders = detect_broadcast_responders(&outcome.delayed, &cfg.broadcast);
    let mut dup_set = duplicate_offenders(&max_responses, cfg.dup_threshold());
    // Disjoint accounting, as in the paper: an address that is both is
    // counted under broadcast.
    dup_set.retain(|a| !broadcast_responders.contains(a));

    // 5. Partition into survivors and rejects by move — no sample set is
    // cloned. Both halves stay in address order, so the maps build in bulk.
    let (rejected, kept): (Vec<_>, Vec<_>) = naive
        .into_iter()
        .partition(|(a, _)| broadcast_responders.contains(a) || dup_set.contains(a));
    let rejected_samples: BTreeMap<u32, LatencySamples> = rejected.into_iter().collect();
    let samples: BTreeMap<u32, LatencySamples> = kept.into_iter().collect();

    // 6. Accounting of the discarded responses and the final dataset.
    let count_rejected_packets = |addrs: &BTreeSet<u32>| -> u64 {
        addrs.iter().filter_map(|a| rejected_samples.get(a)).map(|s| s.len() as u64).sum()
    };
    let broadcast_responses = CountRow {
        packets: count_rejected_packets(&broadcast_responders),
        addresses: broadcast_responders.len() as u64,
    };
    let duplicate_responses =
        CountRow { packets: count_rejected_packets(&dup_set), addresses: dup_set.len() as u64 };
    let survey_plus_delayed = CountRow {
        packets: samples.values().map(|s| s.len() as u64).sum(),
        addresses: samples.len() as u64,
    };

    let accounting = Accounting {
        survey_detected,
        naive_matching,
        broadcast_responses,
        duplicate_responses,
        survey_plus_delayed,
    };

    // 7. Telemetry, flushed once so the hot path above stays untouched.
    if metrics.enabled() {
        fn stage_row(stage: &mut beware_telemetry::Scope<'_>, name: &str, row: CountRow) {
            let mut s = stage.scope(name);
            s.add("packets", row.packets);
            s.add("addresses", row.addresses);
        }
        let mut p = metrics.scope("pipeline");
        p.add("runs", 1);
        p.add("records_in", records.len() as u64);
        {
            let mut m = p.scope("match");
            m.add("delayed", outcome.delayed.len() as u64);
            m.add("leftovers", outcome.leftovers.len() as u64);
            for d in &outcome.delayed {
                m.observe("latency_s", u64::from(d.latency_s));
            }
        }
        {
            let mut f = p.scope("filter");
            f.add("broadcast_addresses", accounting.broadcast_responses.addresses);
            f.add("duplicate_addresses", accounting.duplicate_responses.addresses);
            f.add("rejected_addresses", rejected_samples.len() as u64);
        }
        let mut stage = p.scope("stage");
        stage_row(&mut stage, "survey_detected", accounting.survey_detected);
        stage_row(&mut stage, "naive_matching", accounting.naive_matching);
        stage_row(&mut stage, "broadcast_responses", accounting.broadcast_responses);
        stage_row(&mut stage, "duplicate_responses", accounting.duplicate_responses);
        stage_row(&mut stage, "survey_plus_delayed", accounting.survey_plus_delayed);
    }

    PipelineOutput {
        samples,
        rejected_samples,
        broadcast_responders,
        duplicate_offenders: dup_set,
        max_responses,
        accounting,
    }
}

/// Merge per-address samples from several surveys (the paper combines
/// IT63w and IT63c before computing Table 2). Each input set is already
/// sorted, so per address this is a k-way merge of sorted runs rather
/// than a concat-and-resort.
pub fn merge_samples(parts: Vec<BTreeMap<u32, LatencySamples>>) -> BTreeMap<u32, LatencySamples> {
    let mut runs: HashMap<u32, Vec<Vec<f64>>> = HashMap::new();
    for part in parts {
        for (addr, samples) in part {
            runs.entry(addr).or_default().push(samples.into_sorted_vec());
        }
    }
    runs.into_iter().map(|(a, r)| (a, LatencySamples::from_sorted_runs(r))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u32 = 0x0a000010; // well-behaved
    const B: u32 = 0x0a000020; // slow (delayed responses)
    const C: u32 = 0x0a000030; // broadcast responder
    const D: u32 = 0x0a000040; // flood

    fn fixture() -> Vec<Record> {
        let mut r = Vec::new();
        for round in 0..100u32 {
            let t = round * 660;
            // A: always matched at 50 ms.
            r.push(Record::matched(A, t, 50_000));
            // B: times out, answers 15–40 s late — genuinely delayed, so
            // the latency *varies* between rounds (unlike broadcast
            // artifacts, which repeat exactly).
            r.push(Record::timeout(B, t + 3));
            r.push(Record::unmatched(B, t + 3 + 15 + (round * 7) % 25));
            // C: broadcast responder — stable 330 s artifact.
            r.push(Record::timeout(C, t + 5));
            r.push(Record::unmatched(C, t + 335));
        }
        // D: one request, a flood of responses.
        r.push(Record::timeout(D, 40));
        for i in 0..500u32 {
            r.push(Record::unmatched(D, 41 + i % 200));
        }
        r
    }

    #[test]
    fn accounting_matches_fixture() {
        let out = run_pipeline(&fixture(), &PipelineCfg::default());
        let acc = out.accounting;
        assert_eq!(acc.survey_detected, CountRow { packets: 100, addresses: 1 });
        // Naive adds B's 100, C's 100, and D's first-delayed 1.
        assert_eq!(acc.naive_matching.packets, 100 + 100 + 100 + 1);
        assert_eq!(acc.naive_matching.addresses, 4);
        assert_eq!(acc.broadcast_responses, CountRow { packets: 100, addresses: 1 });
        assert_eq!(acc.duplicate_responses, CountRow { packets: 1, addresses: 1 });
        assert_eq!(acc.survey_plus_delayed, CountRow { packets: 200, addresses: 2 });
    }

    #[test]
    fn filtered_samples_keep_real_latency() {
        let out = run_pipeline(&fixture(), &PipelineCfg::default());
        assert!(out.samples.contains_key(&A));
        assert!(out.samples.contains_key(&B));
        assert!(!out.samples.contains_key(&C));
        assert!(!out.samples.contains_key(&D));
        // B's recovered latencies are the genuine 15–39 s spread.
        let b = &out.samples[&B];
        assert_eq!(b.len(), 100);
        let med = b.percentile(50.0).unwrap();
        assert!((15.0..=39.0).contains(&med), "median {med}");
        // The naive (pre-filter) view still shows C's 330 s artifact.
        let c = out.naive_sample(C).expect("C rejected but visible naively");
        assert!((c.percentile(50.0).unwrap() - 330.0).abs() < 1e-9);
        // And the naive view is the disjoint union of both partitions.
        assert_eq!(out.naive_samples().count(), 4);
        assert!(out.naive_sample(A).is_some());
    }

    #[test]
    fn sets_are_disjoint() {
        let out = run_pipeline(&fixture(), &PipelineCfg::default());
        assert!(out.broadcast_responders.is_disjoint(&out.duplicate_offenders));
        assert_eq!(out.broadcast_responders, BTreeSet::from([C]));
        assert_eq!(out.duplicate_offenders, BTreeSet::from([D]));
        let sample_addrs: BTreeSet<u32> = out.samples.keys().copied().collect();
        let rejected_addrs: BTreeSet<u32> = out.rejected_samples.keys().copied().collect();
        assert!(sample_addrs.is_disjoint(&rejected_addrs));
    }

    #[test]
    fn fig5_distribution_available() {
        let out = run_pipeline(&fixture(), &PipelineCfg::default());
        assert_eq!(out.max_responses[&D], 500);
        assert_eq!(out.max_responses[&A], 1);
    }

    #[test]
    fn survey_samples_only_matched() {
        let s = survey_samples(&fixture());
        assert_eq!(s.len(), 1);
        assert_eq!(s[&A].len(), 100);
    }

    #[test]
    fn merge_combines_addresses() {
        let mut p1 = BTreeMap::new();
        p1.insert(1u32, LatencySamples::from_values(vec![0.1, 0.2]));
        let mut p2 = BTreeMap::new();
        p2.insert(1u32, LatencySamples::from_values(vec![0.3]));
        p2.insert(2u32, LatencySamples::from_values(vec![1.0]));
        let merged = merge_samples(vec![p1, p2]);
        assert_eq!(merged[&1].len(), 3);
        assert_eq!(merged[&1].values().as_ref(), &[0.1, 0.2, 0.3]);
        assert_eq!(merged[&2].len(), 1);
    }

    #[test]
    fn paper_cfg_is_the_default() {
        assert_eq!(PipelineCfg::paper(), PipelineCfg::default());
        assert_eq!(PipelineCfg::paper().dup_threshold(), 4);
        assert_eq!(
            PipelineCfg { dup_threshold: Some(9), ..PipelineCfg::paper() }.dup_threshold(),
            9
        );
    }

    #[test]
    fn explicit_low_threshold_is_honored() {
        // With Option, a threshold of 1 is expressible (the old zero
        // sentinel silently promoted nothing — but made 0 unusable and
        // easy to conflate with "default").
        let cfg = PipelineCfg { dup_threshold: Some(1), ..PipelineCfg::default() };
        let out = run_pipeline(&fixture(), &cfg);
        // B answers once per round but its *request* draws one response —
        // max_responses 1, which never exceeds 1, so B survives.
        assert!(out.samples.contains_key(&B));
        assert!(out.duplicate_offenders.contains(&D));
    }

    #[test]
    fn telemetry_mirrors_accounting() {
        let records = fixture();
        let mut metrics = beware_telemetry::Registry::new();
        let out = run_pipeline_with(&records, &PipelineCfg::paper(), &mut metrics);
        let acc = out.accounting;
        assert_eq!(metrics.counter("pipeline/runs"), Some(1));
        assert_eq!(metrics.counter("pipeline/records_in"), Some(records.len() as u64));
        assert_eq!(
            metrics.counter("pipeline/stage/survey_detected/packets"),
            Some(acc.survey_detected.packets)
        );
        assert_eq!(
            metrics.counter("pipeline/stage/naive_matching/addresses"),
            Some(acc.naive_matching.addresses)
        );
        assert_eq!(
            metrics.counter("pipeline/stage/survey_plus_delayed/packets"),
            Some(acc.survey_plus_delayed.packets)
        );
        assert_eq!(
            metrics.counter("pipeline/filter/broadcast_addresses"),
            Some(acc.broadcast_responses.addresses)
        );
        assert_eq!(
            metrics.counter("pipeline/filter/rejected_addresses"),
            Some(out.rejected_samples.len() as u64)
        );
        // The recovered-latency histogram counts every delayed response.
        let delayed = acc.naive_matching.packets - acc.survey_detected.packets;
        assert_eq!(metrics.counter("pipeline/match/delayed"), Some(delayed));
        match metrics.get("pipeline/match/latency_s") {
            Some(beware_telemetry::Metric::Histogram(h)) => assert_eq!(h.count, delayed),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_does_not_change_output() {
        let records = fixture();
        let plain = run_pipeline(&records, &PipelineCfg::paper());
        let mut metrics = beware_telemetry::Registry::new();
        let instrumented = run_pipeline_with(&records, &PipelineCfg::paper(), &mut metrics);
        assert_eq!(plain, instrumented);
        assert!(!metrics.is_empty());
    }

    #[test]
    fn empty_records_yield_empty_output() {
        let out = run_pipeline(&[], &PipelineCfg::default());
        assert!(out.samples.is_empty());
        assert!(out.rejected_samples.is_empty());
        assert_eq!(out.accounting.survey_detected, CountRow::default());
    }
}
