//! The oracle wire protocol: versioned, length-prefixed, checksummed
//! binary frames over TCP.
//!
//! Frame layout (lengths little-endian, checksum big-endian like every
//! Internet checksum on the wire):
//!
//! ```text
//! len u16 | body: version u8 | opcode u8 | payload … | checksum u16
//! ```
//!
//! `len` counts the body bytes (version through checksum). The checksum
//! is RFC 1071 ([`beware_wire::checksum`]) over everything before it —
//! the same fold the probers compute over every simulated ICMP packet,
//! now guarding the service's own control plane. Payloads are fixed-size
//! per opcode, so a frame decodes with no allocation beyond the body
//! buffer and a malformed length can never request more than
//! [`MAX_FRAME`] bytes.
//!
//! Percentile coverage levels travel as tenths of a percent (`950` =
//! 95.0%), matching the snapshot encoding exactly — no float equality on
//! the wire. Timeout answers travel as raw `f64` bits so the served value
//! byte-matches the offline `TimeoutTable` computation.

use beware_wire::checksum::Checksum;
use beware_wire::{Cursor, WireError};

/// Current protocol version. A server answers a mismatched version with
/// [`ErrorCode::BadVersion`] rather than dropping the connection, so old
/// clients get a diagnosable error.
pub const PROTO_VERSION: u8 = 1;

/// Upper bound on the body length of any frame.
pub const MAX_FRAME: usize = 64;

/// Where an answer's timeout came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A prefix in the snapshot covers the address (longest match).
    Exact = 0,
    /// No covering prefix: the global fallback table answered.
    Fallback = 1,
}

/// Error codes a server can return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame carried an unsupported protocol version.
    BadVersion = 1,
    /// Opcode is not a request the server understands.
    UnknownOpcode = 2,
    /// Queried percentile level is not in the snapshot's grid.
    UnsupportedPercentile = 3,
    /// Payload failed structural validation.
    Malformed = 4,
    /// A `Reload` arrived but the server has no configured reload source
    /// (`beware serve --reload-from`).
    ReloadUnavailable = 5,
    /// The reload source could not be read, decoded, or validated —
    /// the serving snapshot is unchanged.
    SnapshotRejected = 6,
    /// A delta reload's base checksum did not match the serving
    /// snapshot: the delta was computed against a different generation.
    StaleDelta = 7,
    /// A `Report` arrived but the server is not running an online policy
    /// (`beware serve --policy`): there is no estimator to feed.
    PolicyUnavailable = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadVersion),
            2 => Some(ErrorCode::UnknownOpcode),
            3 => Some(ErrorCode::UnsupportedPercentile),
            4 => Some(ErrorCode::Malformed),
            5 => Some(ErrorCode::ReloadUnavailable),
            6 => Some(ErrorCode::SnapshotRejected),
            7 => Some(ErrorCode::StaleDelta),
            8 => Some(ErrorCode::PolicyUnavailable),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadVersion => "bad protocol version",
            ErrorCode::UnknownOpcode => "unknown opcode",
            ErrorCode::UnsupportedPercentile => "unsupported percentile level",
            ErrorCode::Malformed => "malformed payload",
            ErrorCode::ReloadUnavailable => "no reload source configured",
            ErrorCode::SnapshotRejected => "reload source rejected; snapshot unchanged",
            ErrorCode::StaleDelta => "delta computed against a different snapshot generation",
            ErrorCode::PolicyUnavailable => "server is not running an online policy",
        };
        f.write_str(s)
    }
}

/// Which kind of reload source a [`Message::Reload`] asks the server to
/// apply from its configured path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadKind {
    /// The path holds a complete `BWTS` snapshot.
    Full = 0,
    /// The path holds a `BWTD` delta against the serving snapshot.
    Delta = 1,
}

/// A protocol message, request or reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// "What timeout should I use for `addr` at coverage (r%, c%)?"
    Query {
        /// Address being probed.
        addr: u32,
        /// Address-percentile coverage, tenths of a percent.
        addr_pct_tenths: u16,
        /// Ping-percentile coverage, tenths of a percent.
        ping_pct_tenths: u16,
    },
    /// Request the server's aggregate counters.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Reply to [`Message::Query`].
    Answer {
        /// Whether a prefix matched or the fallback answered.
        status: Status,
        /// Recommended timeout, as `f64` bits (seconds).
        timeout_bits: u64,
        /// The matched prefix (0 for fallback).
        prefix: u32,
        /// The matched prefix length (0 for fallback).
        prefix_len: u8,
    },
    /// Reply to [`Message::Stats`].
    StatsReply {
        /// Queries answered so far.
        queries: u64,
        /// Answers served from a matching prefix.
        hits_exact: u64,
        /// Answers served from the global fallback.
        hits_fallback: u64,
    },
    /// Reply to [`Message::Shutdown`]: the server is stopping.
    ShutdownAck,
    /// Admin: describe the serving snapshot (version, entry count,
    /// checksum). Answered with [`Message::SnapshotInfoReply`].
    SnapshotInfo,
    /// Admin: load the configured reload source (`--reload-from`) and
    /// atomically swap the serving snapshot. Answered with
    /// [`Message::SnapshotInfoReply`] describing the post-reload state,
    /// or an [`Message::Error`] (`ReloadUnavailable`, `SnapshotRejected`,
    /// `StaleDelta`) with the serving snapshot unchanged.
    Reload {
        /// Whether the source is a full snapshot or a delta.
        kind: ReloadKind,
    },
    /// Reply to [`Message::SnapshotInfo`] and [`Message::Reload`].
    SnapshotInfoReply {
        /// Snapshot version (epoch): 1 at startup, +1 per reload.
        version: u64,
        /// Per-prefix entry count of the serving snapshot.
        entries: u32,
        /// Identity of the serving snapshot — the fletcher-64 trailer
        /// checksum of its canonical encoding.
        checksum: u64,
    },
    /// A measured RTT for `addr`, feeding the server's online policy
    /// (`beware serve --policy`). Answered with [`Message::ReportAck`],
    /// or [`ErrorCode::PolicyUnavailable`] when the server is snapshot-
    /// only.
    Report {
        /// Address the RTT was measured against.
        addr: u32,
        /// Round-trip time in microseconds.
        rtt_us: u32,
    },
    /// Reply to [`Message::Report`].
    ReportAck {
        /// RTT reports absorbed so far (across all connections).
        reports: u64,
    },
    /// Error reply.
    Error {
        /// What went wrong.
        code: ErrorCode,
    },
}

const OP_QUERY: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_SHUTDOWN: u8 = 0x03;
const OP_SNAPSHOT_INFO: u8 = 0x04;
const OP_RELOAD: u8 = 0x05;
const OP_REPORT: u8 = 0x06;
const OP_ANSWER: u8 = 0x81;
const OP_STATS_REPLY: u8 = 0x82;
const OP_SHUTDOWN_ACK: u8 = 0x83;
const OP_SNAPSHOT_INFO_REPLY: u8 = 0x84;
const OP_REPORT_ACK: u8 = 0x86;
const OP_ERROR: u8 = 0x7f;

/// Errors arising while decoding a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Structural problem: bad length, unknown opcode, wrong payload size.
    Corrupt(&'static str),
    /// Checksum mismatch.
    Checksum {
        /// Checksum carried by the frame.
        stored: u16,
        /// Checksum recomputed over the received bytes.
        computed: u16,
    },
    /// Frame declared a protocol version this build does not speak.
    Version(u8),
}

impl From<WireError> for ProtoError {
    fn from(_: WireError) -> Self {
        ProtoError::Corrupt("payload length does not match opcode")
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            ProtoError::Checksum { stored, computed } => {
                write!(f, "frame checksum mismatch: stored {stored:#06x}, computed {computed:#06x}")
            }
            ProtoError::Version(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Encode a message into a complete frame (length prefix included). The
/// frame is allocated at its exact size, so a caller that keeps many
/// frames holds no slack; hot paths use [`encode_into`] instead.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::with_capacity(MAX_FRAME + 2);
    encode_into(msg, &mut frame);
    frame.as_slice().to_vec()
}

/// Append one complete frame for `msg` to `out`: the length prefix, the
/// body, then its checksum. Bytes already in `out` are left untouched, so
/// a caller reusing one buffer allocates nothing once it has grown.
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0, 0]); // length, patched once the body is written
    let body_at = out.len();
    out.push(PROTO_VERSION);
    match *msg {
        Message::Query { addr, addr_pct_tenths, ping_pct_tenths } => {
            out.push(OP_QUERY);
            out.extend_from_slice(&addr.to_le_bytes());
            out.extend_from_slice(&addr_pct_tenths.to_le_bytes());
            out.extend_from_slice(&ping_pct_tenths.to_le_bytes());
        }
        Message::Stats => out.push(OP_STATS),
        Message::Shutdown => out.push(OP_SHUTDOWN),
        Message::Answer { status, timeout_bits, prefix, prefix_len } => {
            out.push(OP_ANSWER);
            out.push(status as u8);
            out.extend_from_slice(&timeout_bits.to_le_bytes());
            out.extend_from_slice(&prefix.to_le_bytes());
            out.push(prefix_len);
        }
        Message::StatsReply { queries, hits_exact, hits_fallback } => {
            out.push(OP_STATS_REPLY);
            out.extend_from_slice(&queries.to_le_bytes());
            out.extend_from_slice(&hits_exact.to_le_bytes());
            out.extend_from_slice(&hits_fallback.to_le_bytes());
        }
        Message::ShutdownAck => out.push(OP_SHUTDOWN_ACK),
        Message::SnapshotInfo => out.push(OP_SNAPSHOT_INFO),
        Message::Reload { kind } => {
            out.push(OP_RELOAD);
            out.push(kind as u8);
        }
        Message::SnapshotInfoReply { version, entries, checksum } => {
            out.push(OP_SNAPSHOT_INFO_REPLY);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&entries.to_le_bytes());
            out.extend_from_slice(&checksum.to_le_bytes());
        }
        Message::Report { addr, rtt_us } => {
            out.push(OP_REPORT);
            out.extend_from_slice(&addr.to_le_bytes());
            out.extend_from_slice(&rtt_us.to_le_bytes());
        }
        Message::ReportAck { reports } => {
            out.push(OP_REPORT_ACK);
            out.extend_from_slice(&reports.to_le_bytes());
        }
        Message::Error { code } => {
            out.push(OP_ERROR);
            out.push(code as u8);
        }
    }
    let body_len = out.len() - body_at;
    // Every current payload is far below MAX_FRAME by construction, but a
    // future opcode with a bigger payload would silently truncate the u16
    // length prefix (and desynchronize every decoder downstream) — fail
    // loudly at the encode site instead.
    assert!(
        body_len + 2 <= MAX_FRAME,
        "encoded body ({body_len} bytes + 2 checksum) exceeds MAX_FRAME ({MAX_FRAME})"
    );
    let mut ck = Checksum::new();
    ck.add_bytes(&out[body_at..]);
    let ck = ck.finish();
    out[start..body_at].copy_from_slice(&((body_len + 2) as u16).to_le_bytes());
    out.extend_from_slice(&ck.to_be_bytes());
}

/// Decode a frame body (everything after the length prefix).
pub fn decode_body(body: &[u8]) -> Result<Message, ProtoError> {
    if body.len() < 4 {
        return Err(ProtoError::Corrupt("frame shorter than minimum"));
    }
    let (msg, trailer) = body.split_at(body.len() - 2);
    let stored = u16::from_be_bytes([trailer[0], trailer[1]]);
    let mut ck = Checksum::new();
    ck.add_bytes(msg);
    let computed = ck.finish();
    if stored != computed {
        return Err(ProtoError::Checksum { stored, computed });
    }
    let mut b = Cursor::new(msg);
    let version = b.u8()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Version(version));
    }
    let opcode = b.u8()?;
    let need = |n: usize| -> Result<(), ProtoError> {
        if b.remaining() == n {
            Ok(())
        } else {
            Err(ProtoError::Corrupt("payload length does not match opcode"))
        }
    };
    match opcode {
        OP_QUERY => {
            need(8)?;
            Ok(Message::Query {
                addr: b.u32()?,
                addr_pct_tenths: b.u16()?,
                ping_pct_tenths: b.u16()?,
            })
        }
        OP_STATS => {
            need(0)?;
            Ok(Message::Stats)
        }
        OP_SHUTDOWN => {
            need(0)?;
            Ok(Message::Shutdown)
        }
        OP_ANSWER => {
            need(14)?;
            let status = match b.u8()? {
                0 => Status::Exact,
                1 => Status::Fallback,
                _ => return Err(ProtoError::Corrupt("unknown answer status")),
            };
            Ok(Message::Answer {
                status,
                timeout_bits: b.u64()?,
                prefix: b.u32()?,
                prefix_len: b.u8()?,
            })
        }
        OP_STATS_REPLY => {
            need(24)?;
            Ok(Message::StatsReply {
                queries: b.u64()?,
                hits_exact: b.u64()?,
                hits_fallback: b.u64()?,
            })
        }
        OP_SHUTDOWN_ACK => {
            need(0)?;
            Ok(Message::ShutdownAck)
        }
        OP_SNAPSHOT_INFO => {
            need(0)?;
            Ok(Message::SnapshotInfo)
        }
        OP_RELOAD => {
            need(1)?;
            let kind = match b.u8()? {
                0 => ReloadKind::Full,
                1 => ReloadKind::Delta,
                _ => return Err(ProtoError::Corrupt("unknown reload kind")),
            };
            Ok(Message::Reload { kind })
        }
        OP_SNAPSHOT_INFO_REPLY => {
            need(20)?;
            Ok(Message::SnapshotInfoReply {
                version: b.u64()?,
                entries: b.u32()?,
                checksum: b.u64()?,
            })
        }
        OP_REPORT => {
            need(8)?;
            Ok(Message::Report { addr: b.u32()?, rtt_us: b.u32()? })
        }
        OP_REPORT_ACK => {
            need(8)?;
            Ok(Message::ReportAck { reports: b.u64()? })
        }
        OP_ERROR => {
            need(1)?;
            let code =
                ErrorCode::from_u8(b.u8()?).ok_or(ProtoError::Corrupt("unknown error code"))?;
            Ok(Message::Error { code })
        }
        _ => Err(ProtoError::Corrupt("unknown opcode")),
    }
}

/// Split complete frames out of an accumulation buffer (the server's
/// nonblocking read path). Returns the decoded message and how many bytes
/// it consumed, `Ok(None)` when the buffer holds only a partial frame.
pub fn try_decode(buf: &[u8]) -> Result<Option<(Message, usize)>, ProtoError> {
    if buf.len() < 2 {
        return Ok(None);
    }
    let len = u16::from_le_bytes([buf[0], buf[1]]) as usize;
    if !(4..=MAX_FRAME).contains(&len) {
        return Err(ProtoError::Corrupt("frame length out of range"));
    }
    if buf.len() < 2 + len {
        return Ok(None);
    }
    decode_body(&buf[2..2 + len]).map(|m| Some((m, 2 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Query { addr: 0x0a010203, addr_pct_tenths: 950, ping_pct_tenths: 980 },
            Message::Stats,
            Message::Shutdown,
            Message::Answer {
                status: Status::Exact,
                timeout_bits: 3.25f64.to_bits(),
                prefix: 0x0a010200,
                prefix_len: 24,
            },
            Message::Answer {
                status: Status::Fallback,
                timeout_bits: 60.0f64.to_bits(),
                prefix: 0,
                prefix_len: 0,
            },
            Message::StatsReply { queries: 10, hits_exact: 7, hits_fallback: 3 },
            Message::ShutdownAck,
            Message::SnapshotInfo,
            Message::Reload { kind: ReloadKind::Full },
            Message::Reload { kind: ReloadKind::Delta },
            Message::SnapshotInfoReply {
                version: 3,
                entries: 1771,
                checksum: 0xdead_beef_0bad_a110,
            },
            Message::Report { addr: 0x0a010203, rtt_us: 137_421 },
            Message::ReportAck { reports: 98_765 },
            Message::Error { code: ErrorCode::UnsupportedPercentile },
            Message::Error { code: ErrorCode::ReloadUnavailable },
            Message::Error { code: ErrorCode::SnapshotRejected },
            Message::Error { code: ErrorCode::StaleDelta },
            Message::Error { code: ErrorCode::PolicyUnavailable },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let frame = encode(&msg);
            assert!(frame.len() <= MAX_FRAME + 2, "{msg:?}");
            let (incr, used) = try_decode(&frame).unwrap().unwrap();
            assert_eq!(incr, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn length_prefix_matches_body_and_respects_max_frame() {
        for msg in all_messages() {
            let frame = encode(&msg);
            let declared = u16::from_le_bytes([frame[0], frame[1]]) as usize;
            assert_eq!(declared, frame.len() - 2, "{msg:?}");
            assert!(declared <= MAX_FRAME, "{msg:?} declares {declared} > MAX_FRAME");
            assert!(declared >= 4, "{msg:?} declares an impossible body");
        }
    }

    #[test]
    fn fragmented_decode_equals_whole_decode() {
        // Split every frame at every boundary, and also feed it byte at a
        // time: an accumulation buffer must decode the same message no
        // matter how the bytes were fragmented.
        for msg in all_messages() {
            let frame = encode(&msg);
            for cut in 0..=frame.len() {
                let mut buf = Vec::new();
                buf.extend_from_slice(&frame[..cut]);
                let early = try_decode(&buf).unwrap();
                if cut < frame.len() {
                    assert!(early.is_none(), "{msg:?} decoded from {cut} bytes");
                }
                buf.extend_from_slice(&frame[cut..]);
                let (got, used) = try_decode(&buf).unwrap().unwrap();
                assert_eq!(got, msg, "split at {cut}");
                assert_eq!(used, frame.len());
            }
            let mut buf = Vec::new();
            let mut decoded = None;
            for (i, &b) in frame.iter().enumerate() {
                buf.push(b);
                match try_decode(&buf).unwrap() {
                    Some((m, used)) => {
                        assert_eq!(i, frame.len() - 1, "decoded before the last byte");
                        assert_eq!(used, frame.len());
                        decoded = Some(m);
                    }
                    None => assert!(i < frame.len() - 1),
                }
            }
            assert_eq!(decoded, Some(msg));
        }
    }

    #[test]
    fn partial_frames_wait_for_more() {
        let frame = encode(&Message::Stats);
        for cut in 0..frame.len() {
            assert!(try_decode(&frame[..cut]).unwrap().is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_frames_decode_one_at_a_time() {
        let mut buf = encode(&Message::Stats);
        buf.extend(encode(&Message::Shutdown));
        let (m1, used) = try_decode(&buf).unwrap().unwrap();
        assert_eq!(m1, Message::Stats);
        let (m2, used2) = try_decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(m2, Message::Shutdown);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn corruption_caught_by_checksum() {
        for msg in all_messages() {
            let clean = encode(&msg);
            // Flip each body byte in turn: every flip must surface as an
            // error, never as a silently different message.
            for i in 2..clean.len() {
                let mut bad = clean.clone();
                bad[i] ^= 0x10;
                if let Ok(Some((got, _))) = try_decode(&bad) {
                    assert_eq!(got, msg, "flip at {i} silently accepted");
                }
            }
        }
    }

    #[test]
    fn version_mismatch_reported() {
        let mut frame = encode(&Message::Stats);
        frame[2] = 9; // version byte
                      // Checksum now fails first unless recomputed; patch it.
        let body_len = frame.len() - 2;
        let mut ck = Checksum::new();
        ck.add_bytes(&frame[2..body_len]);
        let ck = ck.finish().to_be_bytes();
        frame[body_len] = ck[0];
        frame[body_len + 1] = ck[1];
        assert!(matches!(try_decode(&frame), Err(ProtoError::Version(9))));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let frame = [0xffu8, 0xff, 0, 0, 0, 0];
        assert!(matches!(
            try_decode(&frame),
            Err(ProtoError::Corrupt("frame length out of range"))
        ));
    }

    #[test]
    fn truncated_frame_waits_for_the_rest() {
        let frame = encode(&Message::Stats);
        assert!(matches!(try_decode(&frame[..frame.len() - 1]), Ok(None)));
    }
}
