//! Property-based tests over the wire codecs: every representation that
//! emits must parse back to itself, checksums must verify, and corrupting
//! any byte of a checksummed region must be detected or change the parse.

use beware_wire::icmp::{IcmpKind, IcmpPacket, IcmpRepr};
use beware_wire::ipv4::{Ipv4Header, Ipv4Packet, Protocol};
use beware_wire::payload::{ProbePayload, PAYLOAD_LEN};
use beware_wire::tcp::{TcpFlags, TcpPacket, TcpRepr};
use beware_wire::udp::{UdpPacket, UdpRepr};
use beware_wire::{checksum, LastOctetClass};
use proptest::prelude::*;

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Icmp),
        Just(Protocol::Tcp),
        Just(Protocol::Udp),
        any::<u8>().prop_map(Protocol::from),
    ]
}

proptest! {
    #[test]
    fn checksum_of_buffer_with_embedded_sum_is_zero(data in proptest::collection::vec(any::<u8>(), 2..256)) {
        let mut data = data;
        // Zero a 16-bit-aligned checksum slot, compute, embed, verify.
        data[0] = 0;
        data[1] = 0;
        let ck = checksum::internet_checksum(&data);
        data[0..2].copy_from_slice(&ck.to_be_bytes());
        prop_assert!(checksum::verify(&data));
    }

    #[test]
    fn ipv4_roundtrip(src in any::<u32>(), dst in any::<u32>(), proto in arb_protocol(),
                      ttl in any::<u8>(), ident in any::<u16>(), df in any::<bool>(),
                      payload_len in 0usize..512) {
        let hdr = Ipv4Header { src, dst, protocol: proto, ttl, ident, dont_frag: df, payload_len };
        let mut buf = vec![0u8; hdr.total_len()];
        hdr.emit(&mut buf).unwrap();
        let parsed = Ipv4Packet::parse(&buf[..]).unwrap();
        prop_assert_eq!(parsed.header(), hdr);
    }

    #[test]
    fn ipv4_single_byte_corruption_never_parses_to_same_header(
        src in any::<u32>(), dst in any::<u32>(), idx in 0usize..20, bit in 0u8..8
    ) {
        let hdr = Ipv4Header {
            src, dst, protocol: Protocol::Icmp, ttl: 64, ident: 7,
            dont_frag: false, payload_len: 0,
        };
        let mut buf = vec![0u8; hdr.total_len()];
        hdr.emit(&mut buf).unwrap();
        buf[idx] ^= 1 << bit;
        // A 16-bit one's-complement checksum cannot catch every multi-bit
        // pattern, but any *single-bit* flip in the header must be caught
        // or alter version/IHL/length validation.
        if let Ok(p) = Ipv4Packet::parse(&buf[..]) {
            prop_assert_ne!(p.header(), hdr);
        }
    }

    #[test]
    fn icmp_echo_roundtrip(ident in any::<u16>(), seq in any::<u16>(),
                           payload in proptest::collection::vec(any::<u8>(), 0..128),
                           reply in any::<bool>()) {
        let kind = if reply {
            IcmpKind::EchoReply { ident, seq }
        } else {
            IcmpKind::EchoRequest { ident, seq }
        };
        let repr = IcmpRepr { kind, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.len()];
        repr.emit(&payload, &mut buf).unwrap();
        let pkt = IcmpPacket::parse(&buf[..]).unwrap();
        prop_assert_eq!(pkt.kind(), kind);
        prop_assert_eq!(pkt.payload(), &payload[..]);
    }

    #[test]
    fn udp_roundtrip(sp in any::<u16>(), dp in any::<u16>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..256),
                     src in any::<u32>(), dst in any::<u32>()) {
        let repr = UdpRepr { src_port: sp, dst_port: dp, payload_len: payload.len() };
        let ip = Ipv4Header {
            src, dst, protocol: Protocol::Udp, ttl: 64, ident: 0,
            dont_frag: false, payload_len: repr.len(),
        };
        let mut buf = vec![0u8; repr.len()];
        repr.emit(&ip, &payload, &mut buf).unwrap();
        let pkt = UdpPacket::parse(&buf[..], &ip).unwrap();
        prop_assert_eq!(pkt.repr(), repr);
        prop_assert_eq!(pkt.payload(), &payload[..]);
    }

    #[test]
    fn tcp_roundtrip(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
                     ack_no in any::<u32>(), window in any::<u16>(),
                     syn in any::<bool>(), ack in any::<bool>(), rst in any::<bool>(), fin in any::<bool>(),
                     src in any::<u32>(), dst in any::<u32>()) {
        let repr = TcpRepr {
            src_port: sp, dst_port: dp, seq, ack_no,
            flags: TcpFlags { syn, ack, rst, fin }, window,
        };
        let ip = Ipv4Header {
            src, dst, protocol: Protocol::Tcp, ttl: 255, ident: 0,
            dont_frag: true, payload_len: repr.len(),
        };
        let mut buf = vec![0u8; repr.len()];
        repr.emit(&ip, &mut buf).unwrap();
        let pkt = TcpPacket::parse(&buf[..], &ip).unwrap();
        prop_assert_eq!(pkt.repr(), repr);
    }

    #[test]
    fn probe_payload_roundtrip(dest in any::<u32>(), send_ns in any::<u64>(), key in any::<u64>()) {
        let p = ProbePayload { dest, send_ns };
        let buf = p.encode(key);
        prop_assert_eq!(buf.len(), PAYLOAD_LEN);
        prop_assert_eq!(ProbePayload::decode(&buf, key).unwrap(), p);
    }

    #[test]
    fn probe_payload_key_separation(dest in any::<u32>(), send_ns in any::<u64>(),
                                    k1 in any::<u64>(), k2 in any::<u64>()) {
        prop_assume!(k1 != k2);
        let buf = ProbePayload { dest, send_ns }.encode(k1);
        prop_assert!(ProbePayload::decode(&buf, k2).is_err());
    }

    #[test]
    fn last_octet_class_total(o in any::<u8>()) {
        // Classification is total and broadcast-likeness matches its bits.
        let c = LastOctetClass::of(o);
        let expect = o.trailing_ones() >= 2 || o.trailing_zeros() >= 2;
        prop_assert_eq!(c.is_broadcast_like(), expect);
    }
}
