//! Matching unmatched responses to timed-out requests — Section 3.3's
//! source-address scheme.
//!
//! "Given an unmatched response having a source IP address, we look for
//! the last request sent to that IP address. If the last request timed out
//! and has not been matched, the latency is then the difference between
//! the timestamp of the response and the timestamp of the request."
//!
//! The ISI data records neither ICMP id/seq nor payload for unmatched
//! responses, so source address is all there is; latencies recovered this
//! way are precise only to whole seconds. Responses whose "last request"
//! was already matched are returned separately — they are the raw material
//! of the duplicate-response analysis (Figure 5).

use crate::by_addr;
use beware_dataset::Record;

/// A response recovered after the prober's timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayedResponse {
    /// The probed (and responding) address.
    pub addr: u32,
    /// Send time of the matched request, seconds since survey start.
    pub sent_s: u32,
    /// Recovered latency, whole seconds.
    pub latency_s: u32,
}

/// Result of the matching pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchOutcome {
    /// Unmatched responses successfully paired with a timed-out request.
    pub delayed: Vec<DelayedResponse>,
    /// Responses whose last request was already consumed (duplicates,
    /// floods) or that preceded any request, as `(addr, recv_s)`.
    pub leftovers: Vec<(u32, u32)>,
}

/// Run the source-address matching scheme over a survey's records.
///
/// ```
/// use beware_core::matching::match_unmatched;
/// use beware_dataset::Record;
///
/// let records = vec![
///     Record::timeout(0x0a000001, 660),    // probe timed out at t=660
///     Record::unmatched(0x0a000001, 680),  // its response, 20 s late
/// ];
/// let out = match_unmatched(&records);
/// assert_eq!(out.delayed[0].latency_s, 20);
/// ```
///
/// Only `Timeout` records are eligible targets: a request that was matched
/// within the window already has its response, and requests answered by an
/// ICMP error are excluded by the paper's methodology.
pub fn match_unmatched(records: &[Record]) -> MatchOutcome {
    let mut out = MatchOutcome::default();
    for e in by_addr::index(records) {
        match_address(e.addr, &e.timeouts, &e.unmatched, &mut out);
    }
    out
}

/// The matching rule for one address: `timeouts` are its timed-out
/// requests' send times and `responses` its unmatched receive times, both
/// sorted ascending. Appends to `out` in receive order.
pub(crate) fn match_address(
    addr: u32,
    timeouts: &[u32],
    responses: &[u32],
    out: &mut MatchOutcome,
) {
    // `timeouts[..sent]` were sent at or before the current response;
    // `timeouts[..consumed]` can match no further response, because each
    // request matches at most one and a response never reaches back past
    // the last request before it.
    let (mut sent, mut consumed) = (0, 0);
    for &recv in responses {
        while sent < timeouts.len() && timeouts[sent] <= recv {
            sent += 1;
        }
        if sent > consumed {
            consumed = sent;
            let sent_s = timeouts[sent - 1];
            out.delayed.push(DelayedResponse { addr, sent_s, latency_s: recv - sent_s });
        } else {
            out.leftovers.push((addr, recv));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beware_dataset::Record;

    const A: u32 = 0x0a000001;
    const B: u32 = 0x0a000002;

    #[test]
    fn pairs_response_with_last_timed_out_request() {
        let records = vec![
            Record::timeout(A, 100),
            Record::timeout(A, 760), // next round
            Record::unmatched(A, 790),
        ];
        let m = match_unmatched(&records);
        assert_eq!(m.delayed, vec![DelayedResponse { addr: A, sent_s: 760, latency_s: 30 }]);
        assert!(m.leftovers.is_empty());
    }

    #[test]
    fn each_request_matches_at_most_once() {
        let records = vec![
            Record::timeout(A, 100),
            Record::unmatched(A, 105),
            Record::unmatched(A, 106), // duplicate: request consumed
        ];
        let m = match_unmatched(&records);
        assert_eq!(m.delayed.len(), 1);
        assert_eq!(m.delayed[0].latency_s, 5);
        assert_eq!(m.leftovers, vec![(A, 106)]);
    }

    #[test]
    fn response_in_the_request_second_matches_it() {
        // Whole-second timestamps: a response logged in the same second
        // as its request is a 0 s latency, not a response before it.
        let records = vec![Record::timeout(A, 100), Record::unmatched(A, 100)];
        let m = match_unmatched(&records);
        assert_eq!(m.delayed, vec![DelayedResponse { addr: A, sent_s: 100, latency_s: 0 }]);
        assert!(m.leftovers.is_empty());
    }

    #[test]
    fn response_before_any_request_is_leftover() {
        let records = vec![Record::unmatched(A, 50), Record::timeout(A, 100)];
        let m = match_unmatched(&records);
        assert!(m.delayed.is_empty());
        assert_eq!(m.leftovers, vec![(A, 50)]);
    }

    #[test]
    fn broadcast_style_330s_latency_recovered() {
        // The Figure 4 scenario: probe to .254 at 660 lost; broadcast ping
        // to .255 at 990 triggers a response from .254 — matched to the
        // 660 request, yielding the spurious 330 s latency the filter must
        // later remove. The matcher itself reports what the data says.
        let records = vec![Record::timeout(A, 660), Record::unmatched(A, 990)];
        let m = match_unmatched(&records);
        assert_eq!(m.delayed[0].latency_s, 330);
    }

    #[test]
    fn addresses_are_independent() {
        let records = vec![
            Record::timeout(A, 100),
            Record::timeout(B, 101),
            Record::unmatched(B, 130),
            Record::unmatched(A, 120),
        ];
        let m = match_unmatched(&records);
        assert_eq!(m.delayed.len(), 2);
        assert_eq!(m.delayed[0], DelayedResponse { addr: A, sent_s: 100, latency_s: 20 });
        assert_eq!(m.delayed[1], DelayedResponse { addr: B, sent_s: 101, latency_s: 29 });
    }

    #[test]
    fn matched_records_are_not_eligible_targets() {
        // A matched request already has its response; an unmatched
        // response from the same address must not pair with it.
        let records = vec![Record::matched(A, 100, 50_000), Record::unmatched(A, 101)];
        let m = match_unmatched(&records);
        assert!(m.delayed.is_empty());
        assert_eq!(m.leftovers, vec![(A, 101)]);
    }

    #[test]
    fn interleaved_rounds_resolve_in_order() {
        let records = vec![
            Record::timeout(A, 0),
            Record::timeout(A, 660),
            Record::timeout(A, 1320),
            Record::unmatched(A, 10),   // pairs with 0 (lat 10)
            Record::unmatched(A, 700),  // pairs with 660 (lat 40)
            Record::unmatched(A, 1321), // pairs with 1320 (lat 1)
            Record::unmatched(A, 1322), // duplicate
        ];
        let m = match_unmatched(&records);
        let lats: Vec<u32> = m.delayed.iter().map(|d| d.latency_s).collect();
        assert_eq!(lats, vec![10, 40, 1]);
        assert_eq!(m.leftovers.len(), 1);
    }

    #[test]
    fn empty_input() {
        let m = match_unmatched(&[]);
        assert!(m.delayed.is_empty() && m.leftovers.is_empty());
    }
}
