//! Property tests: every registered policy is a deterministic, bounded
//! function of its event stream.

use beware_asdb::PrefixTrie;
use beware_policy::{
    PolicyKind, PolicyTable, PrefixPolicyMap, RttSample, MAX_TIMEOUT_SECS, MIN_TIMEOUT_SECS,
};
use proptest::prelude::*;

/// One step of an estimator's life.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A measured RTT in microseconds (bounded to keep samples finite).
    Observe { rtt_us: u32 },
    /// An armed timeout expired.
    Timeout,
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    // ~4:1 observes to timeouts, like a mostly-responsive network.
    proptest::collection::vec(
        (any::<u8>(), 1u32..120_000_000).prop_map(|(pick, rtt_us)| {
            if pick < 204 {
                Event::Observe { rtt_us }
            } else {
                Event::Timeout
            }
        }),
        0..200,
    )
}

/// Drive a fresh policy of `kind` through `events`, recording the
/// timeout quoted before each step.
fn timeout_trace(kind: PolicyKind, events: &[Event]) -> Vec<u64> {
    let mut policy = kind.build();
    let mut trace = Vec::with_capacity(events.len() + 1);
    for (i, ev) in events.iter().enumerate() {
        trace.push(policy.current_timeout().to_bits());
        match *ev {
            Event::Observe { rtt_us } => {
                policy.observe(RttSample::new(f64::from(rtt_us) / 1e6, i as f64));
            }
            Event::Timeout => policy.on_timeout(),
        }
    }
    trace.push(policy.current_timeout().to_bits());
    trace
}

proptest! {
    /// Same event stream ⇒ bit-identical timeout sequence, for every
    /// online policy. (The oracle is frozen by construction and pinned
    /// against the offline pipeline in tests/policy.rs instead.)
    #[test]
    fn policies_are_deterministic(events in arb_events()) {
        for kind in PolicyKind::ONLINE {
            let a = timeout_trace(kind, &events);
            let b = timeout_trace(kind, &events);
            prop_assert_eq!(a, b, "{} diverged", kind.name());
        }
    }

    /// Quoted timeouts stay finite and inside the global clamp no matter
    /// what the network does.
    #[test]
    fn timeouts_stay_bounded(events in arb_events()) {
        for kind in PolicyKind::ONLINE {
            let mut policy = kind.build();
            for (i, ev) in events.iter().enumerate() {
                let t = policy.current_timeout();
                prop_assert!(t.is_finite(), "{}: non-finite timeout", kind.name());
                prop_assert!(
                    (MIN_TIMEOUT_SECS..=MAX_TIMEOUT_SECS).contains(&t),
                    "{}: {} outside [{MIN_TIMEOUT_SECS}, {MAX_TIMEOUT_SECS}]",
                    kind.name(),
                    t
                );
                match *ev {
                    Event::Observe { rtt_us } => {
                        policy.observe(RttSample::new(f64::from(rtt_us) / 1e6, i as f64));
                    }
                    Event::Timeout => policy.on_timeout(),
                }
            }
        }
    }

    /// The per-prefix map is as deterministic as its estimators: same
    /// (addr, event) stream ⇒ identical quotes and state accounting.
    #[test]
    fn prefix_map_replay_is_deterministic(
        steps in proptest::collection::vec((any::<u32>(), arb_events()), 0..8)
    ) {
        for kind in PolicyKind::ONLINE {
            let run = || {
                let mut map = PrefixPolicyMap::for_kind(kind);
                let mut quotes = Vec::new();
                for (addr, events) in &steps {
                    for (i, ev) in events.iter().enumerate() {
                        quotes.push(map.timeout_for(*addr).to_bits());
                        match *ev {
                            Event::Observe { rtt_us } => {
                                map.observe(*addr, RttSample::new(f64::from(rtt_us) / 1e6, i as f64));
                            }
                            Event::Timeout => map.on_timeout(*addr),
                        }
                    }
                }
                (quotes, map.state_bytes(), map.tracked())
            };
            prop_assert_eq!(run(), run(), "{} map diverged", kind.name());
        }
    }

    /// The sorted-array table answers exactly like a longest-prefix match
    /// over a trie fed the same entries: low bits ignored, the last of
    /// duplicate prefixes wins, at the extreme lengths too. Entries are
    /// drawn near a few bases so duplicates and near-misses are common.
    #[test]
    fn policy_table_lookup_matches_trie_lpm(
        len_pick in 0usize..4,
        bases in proptest::collection::vec(any::<u32>(), 1..4),
        entries in proptest::collection::vec((0usize..4, any::<u16>(), 1u32..100_000), 0..40),
        probes in proptest::collection::vec((0usize..4, any::<u16>()), 1..40),
    ) {
        let prefix_len = [0u8, 24, 24, 32][len_pick];
        let near = |(b, low): (usize, u16)| bases[b % bases.len()] ^ u32::from(low);
        let pairs: Vec<(u32, f64)> = entries
            .iter()
            .map(|&(b, low, ms)| (near((b, low)), f64::from(ms) / 1e3))
            .collect();
        let table = PolicyTable::from_entries(prefix_len, 3.0, pairs.iter().copied());
        let mut trie = PrefixTrie::new();
        for &(prefix, secs) in &pairs {
            trie.insert(prefix, prefix_len, secs.to_bits());
        }
        prop_assert_eq!(table.entries(), trie.len());
        let addrs = probes.iter().map(|&p| near(p)).chain(pairs.iter().map(|&(a, _)| a));
        for addr in addrs {
            let got = table.lookup(addr);
            match trie.lookup(addr) {
                Some(&bits) => {
                    prop_assert!(got.exact, "{:#x}/{} missed", addr, prefix_len);
                    prop_assert_eq!(got.timeout_secs.to_bits(), bits);
                }
                None => {
                    prop_assert!(!got.exact, "{:#x}/{} matched", addr, prefix_len);
                    prop_assert_eq!(got.timeout_secs, 3.0);
                }
            }
        }
    }

    /// A freeze of the map equals a table built through `from_entries`
    /// from the map's own per-prefix quotes.
    #[test]
    fn snapshot_table_matches_from_entries(
        steps in proptest::collection::vec((any::<u16>(), any::<u8>(), arb_events()), 0..8)
    ) {
        for kind in PolicyKind::ONLINE {
            let mut map = PrefixPolicyMap::for_kind(kind);
            let mut seen = Vec::new();
            for &(block, host, ref events) in &steps {
                let addr = 0x0a00_0000 | u32::from(block) << 8 | u32::from(host);
                seen.push(addr);
                map.timeout_for(addr); // tracked even with no events
                for (i, ev) in events.iter().enumerate() {
                    match *ev {
                        Event::Observe { rtt_us } => {
                            map.observe(addr, RttSample::new(f64::from(rtt_us) / 1e6, i as f64));
                        }
                        Event::Timeout => map.on_timeout(addr),
                    }
                }
            }
            let frozen = map.snapshot_table(3.0);
            let quotes: Vec<(u32, f64)> =
                seen.iter().map(|&addr| (addr, map.timeout_for(addr))).collect();
            let reference = PolicyTable::from_entries(24, 3.0, quotes);
            prop_assert_eq!(frozen.entries(), reference.entries(), "{}", kind.name());
            for &addr in seen.iter().chain(&[0x0b00_0001u32]) {
                let (a, b) = (frozen.lookup(addr), reference.lookup(addr));
                prop_assert_eq!(a.exact, b.exact, "{}", kind.name());
                prop_assert_eq!(a.timeout_secs.to_bits(), b.timeout_secs.to_bits(), "{}", kind.name());
            }
        }
    }
}
