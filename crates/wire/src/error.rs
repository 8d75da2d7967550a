//! Error type shared by all decoders in this crate.

use core::fmt;

/// Reasons a byte buffer fails to decode as a given packet type.
///
/// Decoders validate on construction; every accessor called afterwards is
/// panic-free. The error carries enough detail to be actionable in logs
/// without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer is shorter than the fixed header of the packet type, or
    /// than a [`Cursor`](crate::Cursor) read.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A version/IHL/type field identifies a packet we do not model.
    Malformed(&'static str),
    /// A length field points outside the buffer.
    BadLength {
        /// The claimed length.
        claimed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Checksum found in the packet.
        found: u16,
        /// Checksum recomputed over the packet.
        computed: u16,
    },
    /// A probe payload failed its validation tag, i.e. the response does
    /// not correspond to a probe we sent (or was corrupted in flight).
    BadValidation,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated packet: need {need} bytes, have {have}")
            }
            WireError::Malformed(what) => write!(f, "malformed packet: {what}"),
            WireError::BadLength { claimed, have } => {
                write!(f, "bad length field: claims {claimed} bytes, buffer has {have}")
            }
            WireError::BadChecksum { found, computed } => {
                write!(f, "bad checksum: found {found:#06x}, computed {computed:#06x}")
            }
            WireError::BadValidation => write!(f, "probe payload failed validation tag"),
        }
    }
}

impl std::error::Error for WireError {}

/// For decoders that report through `std::io`: a wire error is invalid
/// data.
impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let e = WireError::Truncated { need: 20, have: 7 };
        assert_eq!(e.to_string(), "truncated packet: need 20 bytes, have 7");
        let e = WireError::BadChecksum { found: 0x1234, computed: 0xabcd };
        assert!(e.to_string().contains("0x1234"));
        assert!(e.to_string().contains("0xabcd"));
    }

    #[test]
    fn error_is_copy_and_eq() {
        let e = WireError::Malformed("x");
        let f = e;
        assert_eq!(e, f);
    }
}
