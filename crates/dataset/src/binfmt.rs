//! Compact binary codec for survey records.
//!
//! Layout (all little-endian):
//!
//! ```text
//! header:  magic "BWSV" | version u16 | reserved u16 | record count u64
//! record:  tag u8 | addr u32 | time_s u32 | tag-specific payload
//!   tag 0 Matched:   rtt_us u32
//!   tag 1 Timeout:   (nothing)
//!   tag 2 Unmatched: recv_s u32
//!   tag 3 IcmpError: code u8
//! trailer: fletcher-64 checksum u64 over all record bytes
//! ```
//!
//! The variable-width records average ~10 bytes, so a 10 M-probe survey
//! stays near 100 MB — the reason this exists instead of serde to JSON.

use crate::record::{Record, RecordKind};
use beware_wire::{Cursor, WireError};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"BWSV";
const VERSION: u16 = 1;

/// Errors arising while decoding a binary survey stream.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Magic/version mismatch or a malformed record.
    Corrupt(&'static str),
    /// Checksum mismatch over the record payload.
    Checksum {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the records read.
        computed: u64,
    },
    /// The payload decoded and checksummed cleanly but failed semantic
    /// validation (snapshot/delta canonical-form invariants — produced
    /// by [`crate::snapshot`], never by the record codec itself).
    Invalid(crate::snapshot::SnapshotError),
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

/// Cursor reads run over exact-length sections, so an underflow is the
/// section's bytes missing: an I/O-level truncation.
impl From<WireError> for DecodeError {
    fn from(e: WireError) -> Self {
        DecodeError::Io(e.into())
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error: {e}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt survey stream: {what}"),
            DecodeError::Checksum { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            DecodeError::Invalid(e) => write!(f, "invalid snapshot: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Fletcher-64-style running checksum (two u64 accumulators over u32
/// words; simple, fast, and order-sensitive). Shared with the streaming
/// and snapshot codecs ([`crate::stream`], [`crate::snapshot`]), which
/// frame their payloads the same way.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fletcher {
    a: u64,
    b: u64,
}

impl Fletcher {
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.a = (self.a + u64::from(u32::from_le_bytes(word))) % 0xffff_ffff;
            self.b = (self.b + self.a) % 0xffff_ffff;
        }
    }

    pub(crate) fn finish(self) -> u64 {
        (self.b << 32) | self.a
    }

    /// The checksum of `bytes` hashed in one call.
    pub(crate) fn of(bytes: &[u8]) -> u64 {
        let mut checksum = Fletcher::default();
        checksum.update(bytes);
        checksum.finish()
    }
}

/// Append one record: tag, address, send time, tag-specific payload.
/// Shared with [`crate::stream`].
pub(crate) fn encode_record(r: &Record, buf: &mut Vec<u8>) {
    let tag = match r.kind {
        RecordKind::Matched { .. } => 0,
        RecordKind::Timeout => 1,
        RecordKind::Unmatched { .. } => 2,
        RecordKind::IcmpError { .. } => 3,
    };
    buf.push(tag);
    buf.extend_from_slice(&r.addr.to_le_bytes());
    buf.extend_from_slice(&r.time_s.to_le_bytes());
    match r.kind {
        RecordKind::Matched { rtt_us: v } | RecordKind::Unmatched { recv_s: v } => {
            buf.extend_from_slice(&v.to_le_bytes())
        }
        RecordKind::Timeout => {}
        RecordKind::IcmpError { code } => buf.push(code),
    }
}

/// Read the rest of a record whose tag byte `tag` was just read from
/// `input`, fold the whole record into `checksum`, and decode it.
/// `Ok(None)` means `tag` names no record kind. Shared with
/// [`crate::stream`].
pub(crate) fn decode_record<R: Read>(
    input: &mut R,
    tag: u8,
    checksum: &mut Fletcher,
) -> io::Result<Option<Record>> {
    let len = match tag {
        0 | 2 => 13,
        1 => 9,
        3 => 10,
        _ => return Ok(None),
    };
    let mut raw = [tag; 13];
    input.read_exact(&mut raw[1..len])?;
    checksum.update(&raw[..len]);
    let mut b = Cursor::new(&raw[1..len]);
    let (addr, time_s) = (b.u32()?, b.u32()?);
    let kind = match tag {
        0 => RecordKind::Matched { rtt_us: b.u32()? },
        1 => RecordKind::Timeout,
        2 => RecordKind::Unmatched { recv_s: b.u32()? },
        _ => RecordKind::IcmpError { code: b.u8()? },
    };
    Ok(Some(Record { addr, time_s, kind }))
}

/// Serialize `records` to `out`.
///
/// ```
/// use beware_dataset::{binfmt, Record};
///
/// let records = vec![Record::matched(0x0a000001, 0, 250_000)];
/// let mut buf = Vec::new();
/// binfmt::write_records(&mut buf, &records).unwrap();
/// assert_eq!(binfmt::read_records(&mut &buf[..]).unwrap(), records);
/// ```
pub fn write_records<W: Write>(out: &mut W, records: &[Record]) -> io::Result<()> {
    let count = (records.len() as u64).to_le_bytes();
    out.write_all(&[&MAGIC[..], &VERSION.to_le_bytes(), &[0, 0], &count].concat())?;

    let mut checksum = Fletcher::default();
    let mut buf = Vec::with_capacity(16);
    for r in records {
        buf.clear();
        encode_record(r, &mut buf);
        checksum.update(&buf);
        out.write_all(&buf)?;
    }
    out.write_all(&checksum.finish().to_le_bytes())?;
    Ok(())
}

/// Deserialize records previously written by [`write_records`].
pub fn read_records<R: Read>(input: &mut R) -> Result<Vec<Record>, DecodeError> {
    let mut header = [0u8; 16];
    input.read_exact(&mut header)?;
    let mut h = Cursor::new(&header);
    if h.take(4)? != MAGIC {
        return Err(DecodeError::Corrupt("bad magic"));
    }
    if h.u16()? != VERSION {
        return Err(DecodeError::Corrupt("unsupported version"));
    }
    let _reserved = h.u16()?;
    let count = h.u64()?;

    let mut checksum = Fletcher::default();
    // The count is untrusted until the records arrive: reserve at most
    // 64 Ki up front, as the snapshot decoders do, and grow from there.
    let mut records = Vec::with_capacity(count.min(1 << 16) as usize);
    let mut tag = [0u8];
    for _ in 0..count {
        input.read_exact(&mut tag)?;
        let record = decode_record(input, tag[0], &mut checksum)?;
        records.push(record.ok_or(DecodeError::Corrupt("unknown record tag"))?);
    }

    let mut trailer = [0u8; 8];
    input.read_exact(&mut trailer)?;
    let stored = u64::from_le_bytes(trailer);
    let computed = checksum.finish();
    if stored != computed {
        return Err(DecodeError::Checksum { stored, computed });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        vec![
            Record::matched(0x0a000001, 0, 123_456),
            Record::timeout(0x0a000002, 3),
            Record::unmatched(0x0a000002, 333),
            Record::icmp_error(0x0a000003, 4, 1),
            Record::matched(0xffffffff, u32::MAX, u32::MAX),
        ]
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let mut buf = Vec::new();
        write_records(&mut buf, &records).unwrap();
        let back = read_records(&mut &buf[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_roundtrip() {
        let mut buf = Vec::new();
        write_records(&mut buf, &[]).unwrap();
        assert_eq!(read_records(&mut &buf[..]).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_records(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_records(&mut &buf[..]), Err(DecodeError::Corrupt("bad magic"))));
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let mut buf = Vec::new();
        write_records(&mut buf, &sample()).unwrap();
        // Flip a byte inside a record's addr field (not the tag — a tag
        // flip changes framing and surfaces as Corrupt/Io instead).
        buf[16 + 1] ^= 0x01;
        match read_records(&mut &buf[..]) {
            Err(DecodeError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_io_error() {
        let mut buf = Vec::new();
        write_records(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 12);
        assert!(matches!(read_records(&mut &buf[..]), Err(DecodeError::Io(_))));
    }

    #[test]
    fn size_is_compact() {
        let records: Vec<Record> = (0..1000).map(|i| Record::matched(i, i, i * 3)).collect();
        let mut buf = Vec::new();
        write_records(&mut buf, &records).unwrap();
        // 13 bytes/record + 24 framing.
        assert_eq!(buf.len(), 13 * 1000 + 24);
    }
}
