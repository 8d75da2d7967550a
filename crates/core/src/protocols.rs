//! The protocol-parity experiment — Section 5.3, Figure 10.
//!
//! Triplets of ICMP, UDP and TCP-ACK probes against high-latency
//! addresses test whether ICMP is deprioritized (it is not). Two artifacts
//! must be handled:
//!
//! * the **first probe** of a triplet is slower (the wake-up effect — the
//!   paper plots seq 0 and seq 1,2 separately), and
//! * a cluster of **TCP responses near 200 ms with identical TTLs across
//!   whole /24s** — firewalls RST-ing on behalf of their networks — must
//!   be identified and set aside before comparing protocols.

use crate::cdf::Cdf;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Probe protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proto {
    /// ICMP echo.
    Icmp,
    /// UDP to an unlikely port.
    Udp,
    /// TCP ACK.
    Tcp,
}

impl Proto {
    /// All protocols, plot order.
    pub const ALL: [Proto; 3] = [Proto::Icmp, Proto::Udp, Proto::Tcp];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Proto::Icmp => "ICMP",
            Proto::Udp => "UDP",
            Proto::Tcp => "TCP",
        }
    }
}

/// One address × protocol triplet outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripletResult {
    /// Probed address.
    pub addr: u32,
    /// Protocol used.
    pub proto: Proto,
    /// RTTs of the three probes (1 s apart).
    pub rtts: [Option<f64>; 3],
    /// TTLs of the responses as received.
    pub ttls: [Option<u8>; 3],
}

/// The Figure 10 data.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolComparison {
    /// Per protocol: CDF over addresses of the first-probe RTT ("seq 0").
    pub seq0: BTreeMap<Proto, Cdf>,
    /// Per protocol: CDF over addresses of the worst of probes 2–3
    /// ("seq 1, 2" — with three samples the 98th percentile is the max).
    pub rest: BTreeMap<Proto, Cdf>,
    /// /24 blocks identified as firewall-fronted for TCP.
    pub firewall_blocks: BTreeSet<u32>,
    /// TCP seq-0 CDF with firewall-fronted blocks removed.
    pub tcp_seq0_no_firewall: Cdf,
    /// TCP rest CDF with firewall-fronted blocks removed.
    pub tcp_rest_no_firewall: Cdf,
}

/// Identify firewall-fronted /24s: at least `min_addrs` TCP-responding
/// addresses in the block, and **every** TCP response TTL in the block is
/// identical (the paper: "this cluster of responses all had the same TTL
/// and applied to all probes to entire /24 blocks").
pub fn detect_firewall_blocks(results: &[TripletResult], min_addrs: usize) -> BTreeSet<u32> {
    let mut per_block: HashMap<u32, (BTreeSet<u32>, BTreeSet<u8>)> = HashMap::new();
    for r in results.iter().filter(|r| r.proto == Proto::Tcp) {
        let ttls: Vec<u8> = r.ttls.iter().flatten().copied().collect();
        if ttls.is_empty() {
            continue;
        }
        let e = per_block.entry(r.addr >> 8).or_default();
        e.0.insert(r.addr);
        e.1.extend(ttls);
    }
    per_block
        .into_iter()
        .filter(|(_, (addrs, ttls))| addrs.len() >= min_addrs && ttls.len() == 1)
        .map(|(block, _)| block)
        .collect()
}

/// Build the Figure 10 comparison.
pub fn compare(results: &[TripletResult]) -> ProtocolComparison {
    let firewall_blocks = detect_firewall_blocks(results, 2);
    let mut seq0: BTreeMap<Proto, Vec<f64>> = BTreeMap::new();
    let mut rest: BTreeMap<Proto, Vec<f64>> = BTreeMap::new();
    let mut tcp_seq0_nf = Vec::new();
    let mut tcp_rest_nf = Vec::new();

    for r in results {
        let first = r.rtts[0];
        let worst_rest = match (r.rtts[1], r.rtts[2]) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        if let Some(v) = first {
            seq0.entry(r.proto).or_default().push(v);
            if r.proto == Proto::Tcp && !firewall_blocks.contains(&(r.addr >> 8)) {
                tcp_seq0_nf.push(v);
            }
        }
        if let Some(v) = worst_rest {
            rest.entry(r.proto).or_default().push(v);
            if r.proto == Proto::Tcp && !firewall_blocks.contains(&(r.addr >> 8)) {
                tcp_rest_nf.push(v);
            }
        }
    }

    ProtocolComparison {
        seq0: seq0.into_iter().map(|(p, v)| (p, Cdf::new(v))).collect(),
        rest: rest.into_iter().map(|(p, v)| (p, Cdf::new(v))).collect(),
        firewall_blocks,
        tcp_seq0_no_firewall: Cdf::new(tcp_seq0_nf),
        tcp_rest_no_firewall: Cdf::new(tcp_rest_nf),
    }
}

impl ProtocolComparison {
    /// Median of a protocol's seq-0 distribution, for quick parity checks.
    pub fn seq0_median(&self, proto: Proto) -> Option<f64> {
        self.seq0.get(&proto)?.quantile(0.5)
    }

    /// Median of a protocol's rest distribution.
    pub fn rest_median(&self, proto: Proto) -> Option<f64> {
        self.rest.get(&proto)?.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triplet(addr: u32, proto: Proto, rtts: [f64; 3], ttl: u8) -> TripletResult {
        TripletResult { addr, proto, rtts: rtts.map(Some), ttls: [Some(ttl); 3] }
    }

    #[test]
    fn firewall_blocks_detected_by_constant_ttl() {
        let results = vec![
            // Block 0x0a0000: two addresses, identical TTL 243 → firewall.
            triplet(0x0a000001, Proto::Tcp, [0.2, 0.21, 0.19], 243),
            triplet(0x0a000002, Proto::Tcp, [0.2, 0.2, 0.22], 243),
            // Block 0x0b0000: two addresses, differing TTLs → genuine.
            triplet(0x0b000001, Proto::Tcp, [1.0, 0.9, 1.1], 57),
            triplet(0x0b000002, Proto::Tcp, [1.2, 1.0, 0.8], 112),
            // Block 0x0c0000: single address → insufficient evidence.
            triplet(0x0c000001, Proto::Tcp, [0.2, 0.2, 0.2], 243),
        ];
        let fw = detect_firewall_blocks(&results, 2);
        assert_eq!(fw, BTreeSet::from([0x0a0000]));
    }

    #[test]
    fn comparison_splits_seq0_from_rest() {
        let results = vec![
            triplet(1, Proto::Icmp, [3.0, 0.3, 0.4], 50),
            triplet(1, Proto::Udp, [2.8, 0.35, 0.3], 50),
        ];
        let c = compare(&results);
        assert_eq!(c.seq0_median(Proto::Icmp), Some(3.0));
        assert_eq!(c.rest_median(Proto::Icmp), Some(0.4)); // max of 0.3, 0.4
        assert_eq!(c.seq0_median(Proto::Udp), Some(2.8));
        assert!(!c.seq0.contains_key(&Proto::Tcp));
    }

    #[test]
    fn firewall_excluded_tcp_distributions() {
        let results = vec![
            // Firewall block: fast constant-TTL RSTs.
            triplet(0x0a000001, Proto::Tcp, [0.2, 0.2, 0.2], 243),
            triplet(0x0a000002, Proto::Tcp, [0.2, 0.2, 0.2], 243),
            // Genuine slow host.
            triplet(0x0b000001, Proto::Tcp, [4.0, 1.0, 1.2], 57),
            triplet(0x0b000002, Proto::Tcp, [4.1, 0.9, 1.2], 101),
        ];
        let c = compare(&results);
        // All four addresses in the raw CDF...
        assert_eq!(c.seq0[&Proto::Tcp].len(), 4);
        // ...only the genuine two without the firewall block.
        assert_eq!(c.tcp_seq0_no_firewall.len(), 2);
        assert!(c.tcp_seq0_no_firewall.min().unwrap() > 3.0);
        assert_eq!(c.tcp_rest_no_firewall.len(), 2);
    }

    #[test]
    fn missing_responses_handled() {
        let results = vec![TripletResult {
            addr: 9,
            proto: Proto::Icmp,
            rtts: [None, Some(0.5), None],
            ttls: [None, Some(60), None],
        }];
        let c = compare(&results);
        assert!(!c.seq0.contains_key(&Proto::Icmp));
        assert_eq!(c.rest_median(Proto::Icmp), Some(0.5));
    }

    #[test]
    fn protocol_parity_visible() {
        // Same host latency model across protocols → similar medians.
        let mut results = Vec::new();
        for a in 0..50u32 {
            let lat = 1.0 + f64::from(a % 7) * 0.3;
            for proto in Proto::ALL {
                results.push(triplet(a, proto, [lat + 2.0, lat, lat * 1.01], 60));
            }
        }
        let c = compare(&results);
        let med: Vec<f64> = Proto::ALL.iter().map(|&p| c.rest_median(p).unwrap()).collect();
        let spread = med.iter().cloned().fold(f64::MIN, f64::max)
            - med.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.1, "protocols diverge: {med:?}");
    }
}
