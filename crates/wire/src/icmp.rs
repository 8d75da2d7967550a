//! ICMP message encoding and zero-copy decoding.
//!
//! Echo request/reply carry the probe identifier, sequence number and an
//! opaque payload (see [`crate::payload`] for what the stateless scanner
//! puts there). Destination-unreachable and time-exceeded are modeled
//! because the ISI survey records them — the analysis pipeline must be able
//! to recognize and exclude them ("we ignore all probes associated with such
//! responses since the latency of ICMP error responses is not relevant").

use crate::checksum::internet_checksum;
use crate::error::WireError;
use crate::Result;

/// Fixed ICMP header length in bytes (type, code, checksum, rest-of-header).
pub const HEADER_LEN: usize = 8;

const TYPE_ECHO_REPLY: u8 = 0;
const TYPE_DEST_UNREACHABLE: u8 = 3;
const TYPE_ECHO_REQUEST: u8 = 8;
const TYPE_TIME_EXCEEDED: u8 = 11;

/// The ICMP message kinds this stack models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpKind {
    /// Echo request (type 8): what a prober sends.
    EchoRequest {
        /// Identifier (probers typically burn their PID or a hash here).
        ident: u16,
        /// Sequence number.
        seq: u16,
    },
    /// Echo reply (type 0): what a responsive host answers.
    EchoReply {
        /// Identifier echoed back.
        ident: u16,
        /// Sequence number echoed back.
        seq: u16,
    },
    /// Destination unreachable (type 3) with its code.
    DestUnreachable {
        /// RFC 792 code (0 net, 1 host, 3 port, ...).
        code: u8,
    },
    /// Time exceeded (type 11) with its code.
    TimeExceeded {
        /// RFC 792 code (0 TTL expired in transit).
        code: u8,
    },
    /// Any other type/code, preserved verbatim.
    Other {
        /// ICMP type.
        ty: u8,
        /// ICMP code.
        code: u8,
    },
}

impl IcmpKind {
    /// True for echo request or reply.
    pub fn is_echo(self) -> bool {
        matches!(self, IcmpKind::EchoRequest { .. } | IcmpKind::EchoReply { .. })
    }

    /// True for the error kinds the survey excludes from latency analysis.
    pub fn is_error(self) -> bool {
        matches!(self, IcmpKind::DestUnreachable { .. } | IcmpKind::TimeExceeded { .. })
    }

    /// The reply kind matching this request, if it is an echo request.
    pub fn reply(self) -> Option<IcmpKind> {
        match self {
            IcmpKind::EchoRequest { ident, seq } => Some(IcmpKind::EchoReply { ident, seq }),
            _ => None,
        }
    }
}

/// Owned representation of an ICMP message: a kind plus payload length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpRepr {
    /// Message kind (type/code/rest-of-header).
    pub kind: IcmpKind,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl IcmpRepr {
    /// Total emitted length.
    pub fn len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// True if the emitted message would carry no payload.
    pub fn is_empty(&self) -> bool {
        self.payload_len == 0
    }

    /// Emit header and `payload` into `buf`, computing the checksum over
    /// the whole message. Returns bytes written.
    pub fn emit(&self, payload: &[u8], buf: &mut [u8]) -> Result<usize> {
        if payload.len() != self.payload_len {
            return Err(WireError::Malformed("payload length mismatch with repr"));
        }
        let total = self.len();
        if buf.len() < total {
            return Err(WireError::Truncated { need: total, have: buf.len() });
        }
        let (ty, code, rest) = match self.kind {
            IcmpKind::EchoRequest { ident, seq } => {
                (TYPE_ECHO_REQUEST, 0u8, (u32::from(ident) << 16) | u32::from(seq))
            }
            IcmpKind::EchoReply { ident, seq } => {
                (TYPE_ECHO_REPLY, 0, (u32::from(ident) << 16) | u32::from(seq))
            }
            IcmpKind::DestUnreachable { code } => (TYPE_DEST_UNREACHABLE, code, 0),
            IcmpKind::TimeExceeded { code } => (TYPE_TIME_EXCEEDED, code, 0),
            IcmpKind::Other { ty, code } => (ty, code, 0),
        };
        buf[0] = ty;
        buf[1] = code;
        buf[2..4].fill(0);
        buf[4..8].copy_from_slice(&rest.to_be_bytes());
        buf[8..total].copy_from_slice(payload);
        let ck = internet_checksum(&buf[..total]);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        Ok(total)
    }
}

/// Zero-copy view over a byte buffer holding an ICMP message.
#[derive(Debug)]
pub struct IcmpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> IcmpPacket<T> {
    /// Validate `buffer` (length and checksum) and build a view.
    pub fn parse(buffer: T) -> Result<Self> {
        let data = buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated { need: HEADER_LEN, have: data.len() });
        }
        let computed = internet_checksum(data);
        if computed != 0 {
            let found = u16::from_be_bytes([data[2], data[3]]);
            return Err(WireError::BadChecksum { found, computed });
        }
        Ok(IcmpPacket { buffer })
    }

    fn data(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// The message kind.
    pub fn kind(&self) -> IcmpKind {
        let d = self.data();
        let ident = u16::from_be_bytes([d[4], d[5]]);
        let seq = u16::from_be_bytes([d[6], d[7]]);
        match (d[0], d[1]) {
            (TYPE_ECHO_REQUEST, 0) => IcmpKind::EchoRequest { ident, seq },
            (TYPE_ECHO_REPLY, 0) => IcmpKind::EchoReply { ident, seq },
            (TYPE_DEST_UNREACHABLE, code) => IcmpKind::DestUnreachable { code },
            (TYPE_TIME_EXCEEDED, code) => IcmpKind::TimeExceeded { code },
            (ty, code) => IcmpKind::Other { ty, code },
        }
    }

    /// The payload following the 8-byte header.
    pub fn payload(&self) -> &[u8] {
        &self.data()[HEADER_LEN..]
    }

    /// Owned representation.
    pub fn repr(&self) -> IcmpRepr {
        IcmpRepr { kind: self.kind(), payload_len: self.payload().len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_request_roundtrip() {
        let repr =
            IcmpRepr { kind: IcmpKind::EchoRequest { ident: 0x4242, seq: 7 }, payload_len: 16 };
        let payload = [0xa5u8; 16];
        let mut buf = vec![0u8; repr.len()];
        assert_eq!(repr.emit(&payload, &mut buf).unwrap(), 24);
        let pkt = IcmpPacket::parse(&buf[..]).unwrap();
        assert_eq!(pkt.kind(), IcmpKind::EchoRequest { ident: 0x4242, seq: 7 });
        assert_eq!(pkt.payload(), &payload);
        assert_eq!(pkt.repr(), repr);
    }

    #[test]
    fn reply_matches_request() {
        let req = IcmpKind::EchoRequest { ident: 1, seq: 2 };
        assert_eq!(req.reply(), Some(IcmpKind::EchoReply { ident: 1, seq: 2 }));
        assert_eq!(IcmpKind::EchoReply { ident: 1, seq: 2 }.reply(), None);
    }

    #[test]
    fn error_kinds_flagged() {
        assert!(IcmpKind::DestUnreachable { code: 1 }.is_error());
        assert!(IcmpKind::TimeExceeded { code: 0 }.is_error());
        assert!(!IcmpKind::EchoReply { ident: 0, seq: 0 }.is_error());
        assert!(IcmpKind::EchoRequest { ident: 0, seq: 0 }.is_echo());
        assert!(!IcmpKind::Other { ty: 13, code: 0 }.is_echo());
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let repr = IcmpRepr { kind: IcmpKind::EchoReply { ident: 9, seq: 9 }, payload_len: 0 };
        let mut buf = vec![0u8; repr.len()];
        repr.emit(&[], &mut buf).unwrap();
        buf[7] ^= 1;
        assert!(matches!(IcmpPacket::parse(&buf[..]), Err(WireError::BadChecksum { .. })));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            IcmpPacket::parse(&[0u8; 4][..]),
            Err(WireError::Truncated { need: 8, have: 4 })
        ));
    }

    #[test]
    fn payload_length_must_match_repr() {
        let repr = IcmpRepr { kind: IcmpKind::EchoRequest { ident: 0, seq: 0 }, payload_len: 4 };
        let mut buf = vec![0u8; 32];
        assert!(repr.emit(&[0u8; 3], &mut buf).is_err());
    }

    #[test]
    fn other_types_preserved() {
        let repr = IcmpRepr { kind: IcmpKind::Other { ty: 13, code: 2 }, payload_len: 0 };
        let mut buf = vec![0u8; repr.len()];
        repr.emit(&[], &mut buf).unwrap();
        let pkt = IcmpPacket::parse(&buf[..]).unwrap();
        assert_eq!(pkt.kind(), IcmpKind::Other { ty: 13, code: 2 });
    }
}
