//! The on-disk container shared by both files analysis writes: the
//! MARASNAP serving snapshot (`maras-serve`) and the MARAEVID evidence
//! archive (`maras-evidence`).
//!
//! Every file starts with the same header, all integers little-endian:
//!
//! ```text
//! magic     8 bytes  names the format: b"MARASNAP", b"MARAEVID"
//! version   u32      the format's version; any other is refused
//! length    u64      byte length of the checksummed section that follows
//! checksum  u64      FNV-1a 64 over that section
//! ```
//!
//! What follows is each format's own business, written with the `put_*`
//! helpers and read back through a [`Cursor`]. This crate makes the
//! decisions both formats must make the same way:
//!
//! * every refusal is one typed [`FormatError`], never a panic;
//! * a read never slices past the end, and a count read from the file
//!   reserves no more items than the unread bytes can encode
//!   ([`Cursor::capacity_for`]), so allocation stays bounded by the input's
//!   size even when a length field lies under a valid checksum;
//! * [`write_atomic`] replaces a file so that a crash or a concurrent
//!   reader sees the old file or the new one, never a torn mix.
//!
//! FNV-1a detects accidents, not tampering: it is not a MAC.

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Header bytes before the checksummed section: magic, version, length,
/// checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a file was refused or a record could not be produced.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the format's magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    BadVersion(u32),
    /// The file ends before a declared section or field does.
    Truncated,
    /// A checksum mismatch; `what` names the damaged section.
    ChecksumMismatch {
        /// Which section failed verification (`"payload"`, `"meta"`,
        /// `"block N"`).
        what: String,
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the bytes actually read.
        actual: u64,
    },
    /// Structurally invalid contents (bad enum code, out-of-range id, …).
    Corrupt(&'static str),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic => write!(f, "bad magic: not a file of this format"),
            FormatError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::Truncated => write!(f, "file truncated"),
            FormatError::ChecksumMismatch { what, stored, actual } => write!(
                f,
                "checksum mismatch in {what}: stored {stored:#018x}, actual {actual:#018x}"
            ),
            FormatError::Corrupt(what) => write!(f, "corrupt contents: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, and enough to detect corruption.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Checks `section` against a stored checksum; `what` names the section in
/// the error and is only formatted on a mismatch.
pub fn verify(section: &[u8], stored: u64, what: impl fmt::Display) -> Result<(), FormatError> {
    let actual = fnv1a(section);
    if actual != stored {
        return Err(FormatError::ChecksumMismatch { what: what.to_string(), stored, actual });
    }
    Ok(())
}

/// The header for `section`: magic, version, the section's length and its
/// checksum.
pub fn header(magic: &[u8; 8], version: u32, section: &[u8]) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(magic);
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out[12..20].copy_from_slice(&(section.len() as u64).to_le_bytes());
    out[20..].copy_from_slice(&fnv1a(section).to_le_bytes());
    out
}

/// What a header declares about the checksummed section after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Section length in bytes, as stored (not yet checked against the
    /// file).
    pub len: u64,
    /// Section checksum, as stored.
    pub checksum: u64,
}

impl Header {
    /// Parses the header at the start of `bytes`, refusing a wrong magic
    /// or version.
    pub fn parse(bytes: &[u8], magic: &[u8; 8], version: u32) -> Result<Header, FormatError> {
        if bytes.get(..magic.len()).ok_or(FormatError::Truncated)? != magic {
            return Err(FormatError::BadMagic);
        }
        let mut c = Cursor::new(&bytes[magic.len()..]);
        let found = c.u32()?;
        if found != version {
            return Err(FormatError::BadVersion(found));
        }
        Ok(Header { len: c.u64()?, checksum: c.u64()? })
    }

    /// Checks that `section` has the declared length and checksum.
    pub fn verify(&self, section: &[u8], what: &str) -> Result<(), FormatError> {
        if section.len() as u64 != self.len {
            return Err(FormatError::Truncated);
        }
        verify(section, self.checksum, what)
    }
}

/// Replaces `path` with `parts` written back to back, durably. The bytes go
/// to the sibling `<file name>.tmp`, which is fsynced and renamed over
/// `path`; then the parent directory is fsynced so that the rename itself
/// survives a crash. A missing parent directory is created. A reader sees
/// the old file or the new one, never a torn mix.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "destination has no file name")
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    {
        let mut file = fs::File::create(&tmp)?;
        for part in parts {
            file.write_all(part)?;
        }
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}

#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
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

/// Appends an `f64` as its LE bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a UTF-8 string behind its `u32` byte length.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a verified section. Every accessor returns
/// [`FormatError::Truncated`] instead of reading past the end.
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

    /// Capacity to reserve for `count` decoded items of at least
    /// `min_bytes` each: no more than the unread bytes can encode, so a
    /// lying count cannot drive an allocation past the input's size.
    pub fn capacity_for(&self, count: usize, min_bytes: usize) -> usize {
        count.min((self.buf.len() - self.pos) / min_bytes)
    }

    /// Decodes `count` items of at least `min_bytes` each with `item`,
    /// reserving through [`Self::capacity_for`].
    pub fn items<T>(
        &mut self,
        count: usize,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, FormatError>,
    ) -> Result<Vec<T>, FormatError> {
        let mut out = Vec::with_capacity(self.capacity_for(count, min_bytes));
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self.pos.checked_add(n).ok_or(FormatError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(FormatError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FormatError> {
        Ok(self.take(N)?.try_into().expect("take returns exactly N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32` LE.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` LE.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its LE bit pattern.
    pub fn f64(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a LEB128 varint (at most 10 bytes).
    pub fn varint(&mut self) -> Result<u64, FormatError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(FormatError::Corrupt("varint longer than 10 bytes"))
    }

    /// Reads a string written by [`put_str`].
    pub fn str(&mut self) -> Result<&'a str, FormatError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| FormatError::Corrupt("non-UTF-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis; "a" is a
        // published reference value.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn header_roundtrips_and_refuses_magic_version_length_and_checksum() {
        let body = b"section bytes";
        let head = header(b"TESTMAGC", 7, body);
        let parsed = Header::parse(&head, b"TESTMAGC", 7).unwrap();
        assert_eq!(parsed, Header { len: body.len() as u64, checksum: fnv1a(body) });
        parsed.verify(body, "body").unwrap();

        assert!(matches!(Header::parse(&head, b"OTHERMAG", 7), Err(FormatError::BadMagic)));
        assert!(matches!(Header::parse(&head, b"TESTMAGC", 8), Err(FormatError::BadVersion(7))));
        assert!(matches!(Header::parse(&head[..5], b"TESTMAGC", 7), Err(FormatError::Truncated)));
        assert!(matches!(
            Header::parse(&head[..HEADER_LEN - 1], b"TESTMAGC", 7),
            Err(FormatError::Truncated)
        ));
        assert!(matches!(parsed.verify(&body[1..], "body"), Err(FormatError::Truncated)));
        let mut flipped = *body;
        flipped[0] ^= 1;
        assert!(matches!(
            parsed.verify(&flipped, "body"),
            Err(FormatError::ChecksumMismatch { what, .. }) if what == "body"
        ));
    }

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
        assert!(matches!(c.varint(), Err(FormatError::Corrupt(_))));
    }

    #[test]
    fn cursor_reports_truncation() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        buf.truncate(buf.len() - 2);
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.str(), Err(FormatError::Truncated)));
        let lying = u32::MAX.to_le_bytes();
        assert!(matches!(Cursor::new(&lying).str(), Err(FormatError::Truncated)));
    }

    #[test]
    fn a_lying_count_reserves_only_what_the_bytes_can_hold() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 40);
        put_f64(&mut buf, 1.5);
        put_f64(&mut buf, -2.0);
        let mut c = Cursor::new(&buf);
        let count = c.u64().unwrap() as usize;
        assert_eq!(c.capacity_for(count, 8), 2);
        let mut c = Cursor::new(&buf[8..]);
        assert_eq!(c.items(2, 8, Cursor::f64).unwrap(), vec![1.5, -2.0]);
        let mut c = Cursor::new(&buf[8..]);
        assert!(matches!(c.items(count, 8, Cursor::f64), Err(FormatError::Truncated)));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("maras-format-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = temp_dir("replace");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.snap");
        write_atomic(&path, &[b"old"]).unwrap();
        write_atomic(&path, &[b"head", b"", b"body"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"headbody");
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["q.snap"], "nothing but the destination remains");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_leaves_a_sibling_tmp_untouched() {
        let dir = temp_dir("sibling");
        fs::create_dir_all(&dir).unwrap();
        let sibling = dir.join("q.tmp");
        fs::write(&sibling, b"someone else's file").unwrap();
        write_atomic(&dir.join("q.snap"), &[b"snapshot"]).unwrap();
        assert_eq!(fs::read(&sibling).unwrap(), b"someone else's file");
        assert_eq!(fs::read(dir.join("q.snap")).unwrap(), b"snapshot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_creates_a_missing_directory() {
        let dir = temp_dir("mkdir");
        let path = dir.join("nested").join("q.evid");
        write_atomic(&path, &[b"archive"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"archive");
        fs::remove_dir_all(&dir).unwrap();
    }
}
