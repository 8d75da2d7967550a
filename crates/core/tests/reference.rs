//! Reference models of the paper's §3.3 rules, checked against the
//! library on generated surveys.
//!
//! Each model is written for obviousness, not speed: the matcher scans
//! every record for every response (O(n²)), the duplicate counter counts
//! each request's responses one request at a time, and the pipeline keeps
//! everything in `BTreeMap`/`BTreeSet`. The library must agree with them
//! exactly, including the order of `delayed` and `leftovers`.

use beware_core::filters::broadcast::{detect_broadcast_responders, BroadcastFilterCfg};
use beware_core::filters::duplicates::max_responses_per_request;
use beware_core::matching::{match_unmatched, DelayedResponse, MatchOutcome};
use beware_core::percentile::LatencySamples;
use beware_core::pipeline::{
    run_pipeline, survey_samples, Accounting, CountRow, PipelineCfg, PipelineOutput,
};
use beware_dataset::{Record, RecordKind};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The paper's duplicate threshold, used when `PipelineCfg` leaves it open.
const PAPER_DUP_THRESHOLD: u32 = 4;

/// Receive time of an unmatched response.
fn recv_of(r: &Record) -> Option<u32> {
    match r.kind {
        RecordKind::Unmatched { recv_s } => Some(recv_s),
        _ => None,
    }
}

fn is_request(r: &Record) -> bool {
    matches!(
        r.kind,
        RecordKind::Matched { .. } | RecordKind::Timeout | RecordKind::IcmpError { .. }
    )
}

/// Source-address matching, by brute force. Per address in ascending
/// order, responses in receive order: the candidate is the latest
/// timed-out request sent at or before the response, found by scanning
/// every record. It is taken unless an earlier response already took it
/// or a later request. Requests sent in the same second are one
/// candidate: the latest of them.
fn reference_match(records: &[Record]) -> MatchOutcome {
    let addrs: BTreeSet<u32> =
        records.iter().filter(|r| recv_of(r).is_some()).map(|r| r.addr).collect();
    let mut out = MatchOutcome::default();
    for addr in addrs {
        let mut resp: Vec<u32> =
            records.iter().filter(|r| r.addr == addr).filter_map(recv_of).collect();
        resp.sort();
        let mut taken: Option<u32> = None;
        for recv in resp {
            let candidate = records
                .iter()
                .filter(|r| r.addr == addr && r.kind == RecordKind::Timeout && r.time_s <= recv)
                .map(|r| r.time_s)
                .max();
            match candidate {
                Some(sent) if taken.map_or(true, |t| t < sent) => {
                    taken = Some(sent);
                    out.delayed.push(DelayedResponse {
                        addr,
                        sent_s: sent,
                        latency_s: recv - sent,
                    });
                }
                _ => out.leftovers.push((addr, recv)),
            }
        }
    }
    out
}

/// Figure 5's per-address maximum, one request at a time. A response
/// belongs to the latest request (matched, timeout or ICMP error) sent at
/// or before it; one that precedes every request belongs to the first;
/// an address with no request at all has one virtual request that owns
/// all its responses.
fn reference_max_responses(records: &[Record]) -> BTreeMap<u32, u32> {
    let responders: BTreeSet<u32> =
        records.iter().filter(|r| r.is_matched() || r.is_unmatched()).map(|r| r.addr).collect();
    let mut out = BTreeMap::new();
    for addr in responders {
        let mut reqs: Vec<u32> =
            records.iter().filter(|r| r.addr == addr && is_request(r)).map(|r| r.time_s).collect();
        reqs.sort();
        let responses: Vec<u32> = records
            .iter()
            .filter(|r| r.addr == addr)
            .filter_map(|r| match r.kind {
                RecordKind::Matched { .. } => Some(r.time_s),
                RecordKind::Unmatched { recv_s } => Some(recv_s),
                _ => None,
            })
            .collect();
        let owner = |t: u32| reqs.iter().filter(|&&s| s <= t).count().saturating_sub(1);
        let max = (0..reqs.len().max(1))
            .map(|j| responses.iter().filter(|&&t| owner(t) == j).count() as u32)
            .max()
            .unwrap_or(0);
        out.insert(addr, max);
    }
    out
}

/// The whole §4.1 pipeline on ordered maps: samples, both filters, the
/// partition and Table 1.
fn reference_pipeline(records: &[Record], cfg: &PipelineCfg) -> PipelineOutput {
    let mut naive: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for r in records {
        if let Some(rtt) = r.rtt_secs() {
            naive.entry(r.addr).or_default().push(rtt);
        }
    }
    let survey_detected = CountRow {
        packets: records.iter().filter(|r| r.is_matched()).count() as u64,
        addresses: naive.len() as u64,
    };
    let matching = reference_match(records);
    for d in &matching.delayed {
        naive.entry(d.addr).or_default().push(f64::from(d.latency_s));
    }
    let naive_matching = CountRow {
        packets: survey_detected.packets + matching.delayed.len() as u64,
        addresses: naive.len() as u64,
    };

    let broadcast_responders = detect_broadcast_responders(&matching.delayed, &cfg.broadcast);
    let max_responses = reference_max_responses(records);
    let threshold = cfg.dup_threshold.unwrap_or(PAPER_DUP_THRESHOLD);
    let duplicate_offenders: BTreeSet<u32> = max_responses
        .iter()
        .filter(|&(a, &m)| m > threshold && !broadcast_responders.contains(a))
        .map(|(&a, _)| a)
        .collect();

    let mut samples = BTreeMap::new();
    let mut rejected_samples = BTreeMap::new();
    for (a, v) in naive {
        let s = LatencySamples::from_values(v);
        if broadcast_responders.contains(&a) || duplicate_offenders.contains(&a) {
            rejected_samples.insert(a, s);
        } else {
            samples.insert(a, s);
        }
    }
    let row = |set: &BTreeSet<u32>| CountRow {
        packets: set.iter().map(|a| rejected_samples[a].len() as u64).sum(),
        addresses: set.len() as u64,
    };
    let accounting = Accounting {
        survey_detected,
        naive_matching,
        broadcast_responses: row(&broadcast_responders),
        duplicate_responses: row(&duplicate_offenders),
        survey_plus_delayed: CountRow {
            packets: samples.values().map(|s: &LatencySamples| s.len() as u64).sum(),
            addresses: samples.len() as u64,
        },
    };
    PipelineOutput {
        samples,
        rejected_samples,
        broadcast_responders,
        duplicate_offenders,
        max_responses,
        accounting,
    }
}

/// Probed addresses: a handful, so that episodes collide, including the
/// ends of the address space.
const ADDRS: [u32; 6] = [0, 1, 0x0a00_0001, 0x0a00_00fe, 0xc0a8_0101, u32::MAX];
const ROUND_S: u32 = 660;
/// Requests start here, leaving room for responses before any request.
const FIRST_REQUEST_S: u32 = 100;

fn request_time(round: u32, offset: u32) -> u32 {
    FIRST_REQUEST_S + round * ROUND_S + offset
}

/// One survey episode; each expands to one or more records.
#[derive(Debug, Clone)]
enum Episode {
    /// A survey-detected response.
    Matched { round: u32, offset: u32, rtt_us: u32 },
    /// A request that timed out and was never answered.
    Lost { round: u32, offset: u32 },
    /// A request answered by an ICMP error.
    Error { round: u32, offset: u32, code: u8 },
    /// A request that timed out, answered `latency` seconds later.
    Late { round: u32, offset: u32, latency: u32 },
    /// A matched request plus `extra` duplicate responses.
    Duplicated { round: u32, offset: u32, extra: u32 },
    /// A response before any request of the survey.
    Stray { recv: u32 },
    /// One timed-out request drawing a flood of responses.
    Flood { round: u32, offset: u32, responses: u32 },
    /// A broadcast responder: its own probe is lost every round and the
    /// broadcast ping sent `alias` seconds later draws its answer —
    /// 330 s for a /24, so the answer lands in the same round, 990 s
    /// when the alias crosses into the next round's request.
    Broadcast { first: u32, rounds: u32, offset: u32, alias: u32 },
}

fn arb_episode() -> impl Strategy<Value = Episode> {
    // Offsets 0..4 put several requests of one address in one second.
    prop_oneof![
        (0u32..12, 0u32..4, 0u32..3_000_000).prop_map(|(round, offset, rtt_us)| Episode::Matched {
            round,
            offset,
            rtt_us
        }),
        (0u32..12, 0u32..4).prop_map(|(round, offset)| Episode::Lost { round, offset }),
        (0u32..12, 0u32..4, 0u8..16).prop_map(|(round, offset, code)| Episode::Error {
            round,
            offset,
            code
        }),
        (0u32..12, 0u32..4, prop_oneof![0u32..40, Just(165), Just(330), Just(495), 600u32..800])
            .prop_map(|(round, offset, latency)| Episode::Late { round, offset, latency }),
        (0u32..12, 0u32..4, 1u32..4).prop_map(|(round, offset, extra)| Episode::Duplicated {
            round,
            offset,
            extra
        }),
        (0u32..FIRST_REQUEST_S).prop_map(|recv| Episode::Stray { recv }),
        (0u32..12, 0u32..4, 3u32..14).prop_map(|(round, offset, responses)| Episode::Flood {
            round,
            offset,
            responses
        }),
        (0u32..3, 8u32..40, 0u32..4, prop_oneof![Just(330), Just(165), Just(990)]).prop_map(
            |(first, rounds, offset, alias)| Episode::Broadcast { first, rounds, offset, alias }
        ),
    ]
}

fn expand(addr: u32, episode: &Episode, out: &mut Vec<Record>) {
    match *episode {
        Episode::Matched { round, offset, rtt_us } => {
            out.push(Record::matched(addr, request_time(round, offset), rtt_us))
        }
        Episode::Lost { round, offset } => {
            out.push(Record::timeout(addr, request_time(round, offset)))
        }
        Episode::Error { round, offset, code } => {
            out.push(Record::icmp_error(addr, request_time(round, offset), code))
        }
        Episode::Late { round, offset, latency } => {
            let sent = request_time(round, offset);
            out.push(Record::timeout(addr, sent));
            out.push(Record::unmatched(addr, sent + latency));
        }
        Episode::Duplicated { round, offset, extra } => {
            let sent = request_time(round, offset);
            out.push(Record::matched(addr, sent, 40_000));
            for i in 0..extra {
                out.push(Record::unmatched(addr, sent + 1 + i % 2));
            }
        }
        Episode::Stray { recv } => out.push(Record::unmatched(addr, recv)),
        Episode::Flood { round, offset, responses } => {
            let sent = request_time(round, offset);
            out.push(Record::timeout(addr, sent));
            for i in 0..responses {
                out.push(Record::unmatched(addr, sent + 1 + i % 5));
            }
        }
        Episode::Broadcast { first, rounds, offset, alias } => {
            for round in first..first + rounds {
                let sent = request_time(round, offset);
                out.push(Record::timeout(addr, sent));
                out.push(Record::unmatched(addr, sent + alias));
            }
        }
    }
}

/// A survey: episodes at random addresses, records in either episode
/// order or reversed (the rules must not depend on record order).
fn arb_survey() -> impl Strategy<Value = Vec<Record>> {
    (proptest::collection::vec((0usize..ADDRS.len(), arb_episode()), 0..40), any::<bool>())
        .prop_map(|(episodes, reverse)| {
            let mut records = Vec::new();
            for (a, e) in &episodes {
                expand(ADDRS[*a], e, &mut records);
            }
            if reverse {
                records.reverse();
            }
            records
        })
}

/// The paper's configuration, or one whose broadcast filter fires on a
/// few rounds and whose duplicate threshold varies.
fn arb_cfg() -> impl Strategy<Value = PipelineCfg> {
    (any::<bool>(), proptest::option::of(1u32..6)).prop_map(|(sensitive, dup_threshold)| {
        let broadcast = if sensitive {
            BroadcastFilterCfg { alpha: 0.3, ..BroadcastFilterCfg::default() }
        } else {
            BroadcastFilterCfg::default()
        };
        PipelineCfg { broadcast, dup_threshold }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matcher_agrees_with_brute_force(records in arb_survey()) {
        prop_assert_eq!(match_unmatched(&records), reference_match(&records));
    }

    #[test]
    fn duplicate_counts_agree_with_per_request_count(records in arb_survey()) {
        prop_assert_eq!(max_responses_per_request(&records), reference_max_responses(&records));
    }

    #[test]
    fn pipeline_agrees_with_ordered_map_model(records in arb_survey(), cfg in arb_cfg()) {
        let want = reference_pipeline(&records, &cfg);
        prop_assert_eq!(run_pipeline(&records, &cfg), want);
    }

    #[test]
    fn survey_samples_are_the_matched_rtts(records in arb_survey()) {
        let mut want: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for r in &records {
            if let Some(rtt) = r.rtt_secs() {
                want.entry(r.addr).or_default().push(rtt);
            }
        }
        let want: BTreeMap<u32, LatencySamples> =
            want.into_iter().map(|(a, v)| (a, LatencySamples::from_values(v))).collect();
        prop_assert_eq!(survey_samples(&records), want);
    }
}

/// The generators reach every rule the models encode: without this, a
/// generator change could quietly stop exercising floods or broadcast
/// responders and the properties above would still pass.
#[test]
fn generators_cover_every_rule() {
    let mut rng = proptest::TestRng::for_test("reference::generators_cover_every_rule");
    let (survey, cfg) = (arb_survey(), arb_cfg());
    let mut seen = [false; 6];
    for _ in 0..256 {
        let records = survey.generate(&mut rng);
        let cfg = cfg.generate(&mut rng);
        let out = reference_pipeline(&records, &cfg);
        let m = reference_match(&records);
        let mut requests: Vec<(u32, u32)> =
            records.iter().filter(|r| is_request(r)).map(|r| (r.addr, r.time_s)).collect();
        requests.sort();
        seen[0] |= requests.windows(2).any(|w| w[0] == w[1]);
        seen[1] |= m.leftovers.iter().any(|&(_, recv)| recv < FIRST_REQUEST_S);
        seen[2] |= out.max_responses.values().any(|&n| n > PAPER_DUP_THRESHOLD);
        seen[3] |= !out.broadcast_responders.is_empty();
        seen[4] |= m.delayed.iter().any(|d| d.latency_s == 330);
        seen[5] |= records.iter().any(|r| matches!(r.kind, RecordKind::IcmpError { .. }));
    }
    let names = [
        "same-second requests",
        "responses before any request",
        "floods",
        "broadcast responders",
        "330 s latencies",
        "ICMP errors",
    ];
    for (hit, name) in seen.iter().zip(names) {
        assert!(hit, "no generated survey covers {name}");
    }
}
