//! A bounds-checked little-endian read cursor over a byte slice: the one
//! reader behind the dataset codecs and the oracle protocol. A read past
//! the end returns [`WireError::Truncated`] instead of panicking.

use crate::error::WireError;

/// Reads little-endian integers and byte runs off the front of a slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated { need: n, have: self.buf.len() });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_width_then_underflows_without_consuming() {
        let mut bytes = vec![0xab];
        bytes.extend_from_slice(&0x1234u16.to_le_bytes());
        bytes.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        bytes.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        bytes.extend_from_slice(b"xyz");
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8(), Ok(0xab));
        assert_eq!(c.u16(), Ok(0x1234));
        assert_eq!(c.u32(), Ok(0xdead_beef));
        assert_eq!(c.u64(), Ok(0x0123_4567_89ab_cdef));
        assert_eq!(c.remaining(), 3);
        assert_eq!(c.u32(), Err(WireError::Truncated { need: 4, have: 3 }));
        assert_eq!(c.take(3), Ok(&b"xyz"[..]));
        assert_eq!(c.u8(), Err(WireError::Truncated { need: 1, have: 0 }));
    }
}
