//! Streaming binary survey I/O.
//!
//! [`binfmt`](crate::binfmt) requires the record count up front, which
//! forces buffering a whole survey in memory. Long-running probers instead
//! write through [`StreamWriter`] — a [`RecordSink`] that emits records as
//! they happen — and analyses read back through [`StreamReader`], an
//! iterator, so a multi-gigabyte survey never has to fit in RAM.
//!
//! Layout (little-endian):
//!
//! ```text
//! header:  magic "BWSS" | version u16 | reserved u16
//! records: tag u8 | addr u32 | time_s u32 | tag payload   (as binfmt)
//! trailer: tag 0xFF | record count u64 | fletcher-64 checksum u64
//! ```

use crate::binfmt::{decode_record, encode_record, Fletcher};
use crate::record::Record;
use crate::survey::RecordSink;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"BWSS";
const VERSION: u16 = 1;
const END_TAG: u8 = 0xFF;

/// Incremental survey writer. Must be [`StreamWriter::finish`]ed — dropping
/// it without finishing leaves a truncated stream, which [`StreamReader`]
/// will reject rather than silently accept.
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    out: W,
    checksum: Fletcher,
    count: u64,
    scratch: Vec<u8>,
    /// I/O error deferred from `push` (the `RecordSink` trait is
    /// infallible); surfaced by `finish`.
    deferred: Option<io::Error>,
}

impl<W: Write> StreamWriter<W> {
    /// Start a stream on `out`.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&[&MAGIC[..], &VERSION.to_le_bytes(), &[0, 0]].concat())?;
        Ok(StreamWriter {
            out,
            checksum: Fletcher::default(),
            count: 0,
            scratch: Vec::with_capacity(16),
            deferred: None,
        })
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Write the trailer and return the underlying writer. Surfaces any
    /// I/O error deferred from pushes.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        let (count, checksum) = (self.count.to_le_bytes(), self.checksum.finish().to_le_bytes());
        self.out.write_all(&[&[END_TAG][..], &count, &checksum].concat())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> RecordSink for StreamWriter<W> {
    fn push(&mut self, record: Record) {
        if self.deferred.is_some() {
            return;
        }
        self.scratch.clear();
        encode_record(&record, &mut self.scratch);
        self.checksum.update(&self.scratch);
        self.count += 1;
        if let Err(e) = self.out.write_all(&self.scratch) {
            self.deferred = Some(e);
        }
    }
}

/// Streaming reader: an iterator of records that verifies the trailer when
/// the stream ends.
#[derive(Debug)]
pub struct StreamReader<R: Read> {
    input: R,
    checksum: Fletcher,
    read_count: u64,
    done: bool,
}

/// Errors from the streaming reader.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying I/O failure (including truncation).
    Io(io::Error),
    /// Structural problem.
    Corrupt(&'static str),
    /// Trailer count or checksum mismatch.
    TrailerMismatch,
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error: {e}"),
            StreamError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            StreamError::TrailerMismatch => write!(f, "trailer count/checksum mismatch"),
        }
    }
}

impl std::error::Error for StreamError {}

impl<R: Read> StreamReader<R> {
    /// Open a stream, validating the header.
    pub fn new(mut input: R) -> Result<Self, StreamError> {
        let mut header = [0u8; 8];
        input.read_exact(&mut header)?;
        if &header[0..4] != MAGIC {
            return Err(StreamError::Corrupt("bad magic"));
        }
        if u16::from_le_bytes([header[4], header[5]]) != VERSION {
            return Err(StreamError::Corrupt("unsupported version"));
        }
        Ok(StreamReader { input, checksum: Fletcher::default(), read_count: 0, done: false })
    }

    fn read_one(&mut self) -> Result<Option<Record>, StreamError> {
        let mut tag = [0u8];
        self.input.read_exact(&mut tag)?;
        if tag[0] == END_TAG {
            let mut trailer = [0u8; 16];
            self.input.read_exact(&mut trailer)?;
            let count = u64::from_le_bytes(trailer[0..8].try_into().expect("length"));
            let stored = u64::from_le_bytes(trailer[8..16].try_into().expect("length"));
            self.done = true;
            if count != self.read_count || stored != self.checksum.finish() {
                return Err(StreamError::TrailerMismatch);
            }
            return Ok(None);
        }
        let record = decode_record(&mut self.input, tag[0], &mut self.checksum)?
            .ok_or(StreamError::Corrupt("unknown record tag"))?;
        self.read_count += 1;
        Ok(Some(record))
    }
}

impl<R: Read> Iterator for StreamReader<R> {
    type Item = Result<Record, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_one() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
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
        ]
    }

    fn write_stream(records: &[Record]) -> Vec<u8> {
        let mut w = StreamWriter::new(Vec::new()).unwrap();
        for &r in records {
            w.push(r);
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let bytes = write_stream(&records);
        let reader = StreamReader::new(&bytes[..]).unwrap();
        let back: Result<Vec<Record>, StreamError> = reader.collect();
        assert_eq!(back.unwrap(), records);
    }

    #[test]
    fn empty_stream_roundtrip() {
        let bytes = write_stream(&[]);
        let back: Vec<Record> =
            StreamReader::new(&bytes[..]).unwrap().map(Result::unwrap).collect();
        assert!(back.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_silence() {
        let bytes = write_stream(&sample());
        // Chop off the trailer entirely.
        let cut = &bytes[..bytes.len() - 17];
        let reader = StreamReader::new(cut).unwrap();
        let result: Result<Vec<Record>, StreamError> = reader.collect();
        assert!(result.is_err(), "truncated stream must not read cleanly");
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = write_stream(&sample());
        bytes[10] ^= 0x40; // inside the first record
        let reader = StreamReader::new(&bytes[..]).unwrap();
        let result: Result<Vec<Record>, StreamError> = reader.collect();
        match result {
            Err(StreamError::TrailerMismatch)
            | Err(StreamError::Io(_))
            | Err(StreamError::Corrupt(_)) => {}
            other => panic!("corruption slipped through: {other:?}"),
        }
    }

    #[test]
    fn count_is_tracked() {
        let mut w = StreamWriter::new(Vec::new()).unwrap();
        assert_eq!(w.count(), 0);
        for r in sample() {
            w.push(r);
        }
        assert_eq!(w.count(), 4);
    }

    #[test]
    fn compatible_with_large_streams() {
        let records: Vec<Record> = (0..50_000u32).map(|i| Record::matched(i, i, i * 2)).collect();
        let bytes = write_stream(&records);
        let n = StreamReader::new(&bytes[..]).unwrap().map(Result::unwrap).count();
        assert_eq!(n, 50_000);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = write_stream(&sample());
        bytes[0] = b'X';
        assert!(matches!(StreamReader::new(&bytes[..]), Err(StreamError::Corrupt("bad magic"))));
    }
}
