//! The `MARAEVID` on-disk layout: primitives shared by the writer and the
//! reader.
//!
//! File shape (all integers little-endian):
//!
//! ```text
//! +------------------+----------------------------------------------------+
//! | header (28 B)    | magic "MARAEVID" · format version u32 ·            |
//! |                  | meta length u64 · meta FNV-1a checksum u64         |
//! | meta section     | quarter · record/block geometry · symbol table ·   |
//! |                  | case index · drug/ADR/severity postings ·          |
//! |                  | block index (offset, length, checksum per block)   |
//! | data section     | fixed-size record blocks, varint-packed columns    |
//! +------------------+----------------------------------------------------+
//! ```
//!
//! The meta section is covered by the header checksum; each data block is
//! covered by its own checksum stored in the (checksummed) block index, so
//! any single flipped byte anywhere in the file is detected before a record
//! is handed to a caller. Every decode path returns [`EvidenceError`] —
//! corrupt input must never panic.

use std::fmt;
use std::io;

/// File magic: 8 bytes at offset 0.
pub const MAGIC: &[u8; 8] = b"MARAEVID";

/// Bumped on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Header bytes before the meta section: magic + version + len + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Default records per block. Small enough that a point lookup decodes a
/// bounded slice, large enough that varint packing and the shared symbol
/// table amortize.
pub const DEFAULT_BLOCK_SIZE: u32 = 256;

/// FNV-1a 64-bit hash — same checksum the snapshot store uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Why an archive was refused or a record could not be produced.
#[derive(Debug)]
pub enum EvidenceError {
    /// Underlying I/O failure (open, read, write, rename).
    Io(io::Error),
    /// The file does not start with `MARAEVID`.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The file ends before a declared section does.
    Truncated,
    /// A checksum mismatch; `what` names the damaged section.
    ChecksumMismatch {
        /// Which section failed verification (`"meta"` or `"block N"`).
        what: String,
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the bytes actually read.
        actual: u64,
    },
    /// Structurally invalid contents (bad enum code, out-of-range id, …).
    Corrupt(&'static str),
}

impl fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvidenceError::Io(e) => write!(f, "evidence archive I/O error: {e}"),
            EvidenceError::BadMagic => write!(f, "not an evidence archive (bad magic)"),
            EvidenceError::BadVersion(v) => {
                write!(f, "unsupported evidence format version {v} (expected {FORMAT_VERSION})")
            }
            EvidenceError::Truncated => write!(f, "evidence archive is truncated"),
            EvidenceError::ChecksumMismatch { what, stored, actual } => write!(
                f,
                "evidence archive checksum mismatch in {what}: stored {stored:#018x}, actual {actual:#018x}"
            ),
            EvidenceError::Corrupt(what) => write!(f, "evidence archive is corrupt: {what}"),
        }
    }
}

impl std::error::Error for EvidenceError {}

impl From<io::Error> for EvidenceError {
    fn from(e: io::Error) -> Self {
        EvidenceError::Io(e)
    }
}

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a `u32` LE.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` LE.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a decoded byte buffer. Every accessor returns
/// `Truncated` instead of slicing past the end.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Capacity to reserve for `count` decoded items of at least `min_bytes`
    /// each: no more than the unread bytes can encode, so a lying count in a
    /// checksummed section cannot drive an allocation past the input's size.
    pub(crate) fn capacity_for(&self, count: usize, min_bytes: usize) -> usize {
        count.min((self.buf.len() - self.pos) / min_bytes)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EvidenceError> {
        let end = self.pos.checked_add(n).ok_or(EvidenceError::Truncated)?;
        if end > self.buf.len() {
            return Err(EvidenceError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, EvidenceError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` LE.
    pub fn u32(&mut self) -> Result<u32, EvidenceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` LE.
    pub fn u64(&mut self) -> Result<u64, EvidenceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a LEB128 varint (max 10 bytes).
    pub fn varint(&mut self) -> Result<u64, EvidenceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(EvidenceError::Corrupt("varint longer than 10 bytes"))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, EvidenceError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| EvidenceError::Corrupt("non-UTF-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint().unwrap(), v);
            assert!(c.is_exhausted());
        }
    }

    #[test]
    fn varint_rejects_overlong_encoding() {
        let buf = [0x80u8; 11];
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.varint(), Err(EvidenceError::Corrupt(_))));
    }

    #[test]
    fn cursor_reports_truncation() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        buf.truncate(buf.len() - 2);
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.str(), Err(EvidenceError::Truncated)));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis; "a" is a
        // published reference value.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
