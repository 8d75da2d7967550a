//! The duplicate/DoS filter (Section 3.3.2, Figure 5).
//!
//! Some addresses answer one echo request with thousands — in the paper's
//! data, up to ~11 million — echo responses; these are misconfigurations
//! or retaliatory DoS floods, and their latencies are untrustworthy. The
//! filter counts, per address, the maximum number of responses attributable
//! to a single echo request, and discards addresses exceeding four:
//! "Even if a response from the probed IP address is duplicated and a
//! broadcast response is also duplicated, there should be only 4 echo
//! responses."

use crate::by_addr;
use beware_dataset::Record;
use std::collections::{BTreeMap, BTreeSet};

/// Per-address maximum number of responses observed for a single echo
/// request, for every address that drew a response. A matched response
/// counts toward its own request; every unmatched response counts toward
/// the most recent request to that address at its receive time.
pub fn max_responses_per_request(records: &[Record]) -> BTreeMap<u32, u32> {
    by_addr::index(records)
        .iter()
        .map(|e| (e.addr, max_per_request(&e.requests, &e.matched_sent, &e.unmatched)))
        .collect()
}

/// The counting rule for one address. `requests` are the send times of
/// all its requests (matched, timeout and ICMP error), `matched_sent` the
/// send times of its matched ones and `unmatched` its unmatched receive
/// times, all sorted ascending.
///
/// A response belongs to the last request sent at or before it. One that
/// precedes every request belongs to the first; with no request at all,
/// every response belongs to one virtual request — either way it is
/// certainly not trustworthy. Owners never decrease with time, so one
/// walk over both response lists in time order counts each request's
/// responses as a run.
pub(crate) fn max_per_request(requests: &[u32], matched_sent: &[u32], unmatched: &[u32]) -> u32 {
    let (mut m, mut u) = (0, 0);
    // `requests[..owner_end]` were sent at or before the current response.
    let mut owner_end = 0;
    let (mut run_owner, mut run, mut max) = (None, 0, 0);
    loop {
        let t = match (matched_sent.get(m), unmatched.get(u)) {
            (Some(&a), Some(&b)) if a <= b => {
                m += 1;
                a
            }
            (_, Some(&b)) => {
                u += 1;
                b
            }
            (Some(&a), None) => {
                m += 1;
                a
            }
            (None, None) => return max,
        };
        while owner_end < requests.len() && requests[owner_end] <= t {
            owner_end += 1;
        }
        let owner = owner_end.saturating_sub(1);
        if run_owner == Some(owner) {
            run += 1;
        } else {
            (run_owner, run) = (Some(owner), 1);
        }
        max = max.max(run);
    }
}

/// Addresses whose maximum per-request response count exceeds
/// `threshold` (paper: 4). Their records must be discarded entirely.
pub fn duplicate_offenders(max_counts: &BTreeMap<u32, u32>, threshold: u32) -> BTreeSet<u32> {
    max_counts.iter().filter(|&(_, &max)| max > threshold).map(|(&addr, _)| addr).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u32 = 0x0a000001;
    const B: u32 = 0x0a000002;

    #[test]
    fn single_match_counts_one() {
        let records = vec![Record::matched(A, 100, 50_000)];
        let m = max_responses_per_request(&records);
        assert_eq!(m[&A], 1);
        assert!(duplicate_offenders(&m, 4).is_empty());
    }

    #[test]
    fn match_plus_duplicates_accumulate() {
        let records = vec![
            Record::matched(A, 100, 50_000),
            Record::unmatched(A, 101),
            Record::unmatched(A, 102),
        ];
        let m = max_responses_per_request(&records);
        assert_eq!(m[&A], 3);
    }

    #[test]
    fn flood_is_flagged() {
        let mut records = vec![Record::timeout(A, 100)];
        for i in 0..50 {
            records.push(Record::unmatched(A, 101 + i % 300));
        }
        let m = max_responses_per_request(&records);
        assert_eq!(m[&A], 50);
        assert_eq!(duplicate_offenders(&m, 4), BTreeSet::from([A]));
    }

    #[test]
    fn responses_split_across_requests_not_flagged() {
        // One late response per round: each request gets exactly one.
        let mut records = Vec::new();
        for round in 0..20 {
            records.push(Record::timeout(A, round * 660));
            records.push(Record::unmatched(A, round * 660 + 30));
        }
        let m = max_responses_per_request(&records);
        assert_eq!(m[&A], 1);
        assert!(duplicate_offenders(&m, 4).is_empty());
    }

    #[test]
    fn exactly_threshold_passes_above_fails() {
        let mk = |n: u32| {
            let mut records = vec![Record::timeout(B, 0)];
            for i in 0..n {
                records.push(Record::unmatched(B, 1 + i));
            }
            max_responses_per_request(&records)
        };
        assert!(duplicate_offenders(&mk(4), 4).is_empty());
        assert_eq!(duplicate_offenders(&mk(5), 4), BTreeSet::from([B]));
    }

    #[test]
    fn response_with_no_requests_counted() {
        let records = vec![Record::unmatched(A, 5), Record::unmatched(A, 6)];
        let m = max_responses_per_request(&records);
        assert_eq!(m[&A], 2);
    }

    #[test]
    fn addresses_independent() {
        let records =
            vec![Record::timeout(A, 0), Record::unmatched(A, 1), Record::matched(B, 0, 10)];
        let m = max_responses_per_request(&records);
        assert_eq!(m[&A], 1);
        assert_eq!(m[&B], 1);
    }
}
