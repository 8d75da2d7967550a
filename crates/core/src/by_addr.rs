//! The per-address index every §3.3 rule runs on.
//!
//! Source-address matching, the duplicate filter's per-request counts and
//! the latency samples all look at one address at a time. So the survey is
//! grouped once, here, and each rule is a function of one address's
//! [`AddrRecords`]. Only addresses that drew a response (matched or
//! unmatched) are indexed: an address that never answered has nothing to
//! match, count or sample, and its records cost one lookup each.

use beware_dataset::{Record, RecordKind};
use std::collections::HashMap;

/// One responding address's records, split by role. Every list is sorted
/// ascending once [`index`] returns.
#[derive(Debug, Default)]
pub(crate) struct AddrRecords {
    /// The address.
    pub addr: u32,
    /// Send times of every request: matched, timed out or answered by an
    /// ICMP error.
    pub requests: Vec<u32>,
    /// Send times of the timed-out requests, the matcher's targets.
    pub timeouts: Vec<u32>,
    /// Send times of the requests the prober matched itself.
    pub matched_sent: Vec<u32>,
    /// Receive times of the unmatched responses.
    pub unmatched: Vec<u32>,
    /// RTTs of the matched responses, seconds, in record order.
    pub rtts: Vec<f64>,
}

/// Group `records` by responding address, in ascending address order.
///
/// Two passes, one hash lookup per record: responses create entries,
/// then requests join the entry of their address if it has one. The map
/// is std's randomly keyed `HashMap`, since addresses may come from an
/// untrusted survey file.
pub(crate) fn index(records: &[Record]) -> Vec<AddrRecords> {
    let mut slots: HashMap<u32, usize> = HashMap::new();
    let mut out: Vec<AddrRecords> = Vec::new();
    for r in records {
        if !matches!(r.kind, RecordKind::Matched { .. } | RecordKind::Unmatched { .. }) {
            continue;
        }
        let i = *slots.entry(r.addr).or_insert_with(|| {
            out.push(AddrRecords { addr: r.addr, ..AddrRecords::default() });
            out.len() - 1
        });
        let e = &mut out[i];
        match r.kind {
            RecordKind::Matched { .. } => {
                e.requests.push(r.time_s);
                e.matched_sent.push(r.time_s);
                e.rtts.extend(r.rtt_secs());
            }
            RecordKind::Unmatched { recv_s } => e.unmatched.push(recv_s),
            RecordKind::Timeout | RecordKind::IcmpError { .. } => {}
        }
    }
    for r in records {
        let timed_out = match r.kind {
            RecordKind::Timeout => true,
            RecordKind::IcmpError { .. } => false,
            RecordKind::Matched { .. } | RecordKind::Unmatched { .. } => continue,
        };
        if let Some(&i) = slots.get(&r.addr) {
            let e = &mut out[i];
            e.requests.push(r.time_s);
            if timed_out {
                e.timeouts.push(r.time_s);
            }
        }
    }
    out.sort_unstable_by_key(|e| e.addr);
    for e in &mut out {
        e.requests.sort_unstable();
        e.timeouts.sort_unstable();
        e.matched_sent.sort_unstable();
        e.unmatched.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_responders_are_indexed_and_lists_are_sorted() {
        let records = vec![
            Record::timeout(3, 700),
            Record::unmatched(3, 720),
            Record::timeout(3, 40),
            Record::icmp_error(3, 1400, 1),
            Record::matched(1, 660, 250_000),
            Record::matched(1, 0, 50_000),
            Record::timeout(2, 0), // never answered: not indexed
        ];
        let idx = index(&records);
        assert_eq!(idx.iter().map(|e| e.addr).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(idx[0].requests, vec![0, 660]);
        assert_eq!(idx[0].matched_sent, vec![0, 660]);
        assert_eq!(idx[0].rtts, vec![0.25, 0.05]);
        assert!(idx[0].timeouts.is_empty() && idx[0].unmatched.is_empty());
        assert_eq!(idx[1].requests, vec![40, 700, 1400]);
        assert_eq!(idx[1].timeouts, vec![40, 700]);
        assert_eq!(idx[1].unmatched, vec![720]);
        assert!(idx[1].rtts.is_empty());
    }

    #[test]
    fn empty_input_empty_index() {
        assert!(index(&[]).is_empty());
    }
}
