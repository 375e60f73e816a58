//! The durable-file container behind every on-disk format.
//!
//! Checkpoints, dataset files, paged feature shards and their parity
//! sidecars all write and validate their bytes through this module, so
//! the CRC, the framing, the bounds checks and the crash-safe write exist
//! exactly once:
//!
//! * [`crc32`] — IEEE CRC-32 (reflected polynomial `0xEDB88320`).
//! * [`write_atomic`] — tmp file, fsync, rename, directory fsync; or
//!   [`write_atomic_batched`] for many files and one [`sync_dir`].
//! * [`frame`] / [`unframe`] — a whole file as `magic | body | crc32(body)`.
//! * [`put_section`] / [`Cursor::section`] — a CRC-trailed span inside a
//!   file, `tag | u32 len | payload | crc32(tag | len | payload)`.
//! * [`Cursor`] — a little-endian reader over a byte slice that checks
//!   every read against the bytes left and every `count × width` length
//!   for overflow, so a hostile header is a [`FormatError`], never a
//!   panic or a huge allocation.
//!
//! All integers are little-endian.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected 0xEDB88320). Any single-bit error within a
// checked span is guaranteed to change the checksum.

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Atomic writes.

/// Writes `bytes` to `path` atomically: the data goes to `<path>.tmp`, is
/// fsynced, and is renamed over `path`; the containing directory is then
/// fsynced ([`sync_dir`]) so the rename itself survives a power cut. A
/// crash at any point leaves either the old file or the new one — never a
/// torn mix.
///
/// # Errors
///
/// The underlying I/O error; `InvalidInput` if `path` has no file name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_batched(path, bytes)?;
    sync_dir(path.parent().unwrap_or(Path::new("")));
    Ok(())
}

/// [`write_atomic`] without the directory fsync, for a writer that puts
/// many files into one directory: it makes all their renames durable with
/// one [`sync_dir`] at the end instead of one journal commit per file.
///
/// # Errors
///
/// The underlying I/O error; `InvalidInput` if `path` has no file name.
pub fn write_atomic_batched(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let Some(name) = path.file_name() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot write to '{}': no file name", path.display()),
        ));
    };
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        use io::Write;
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Fsyncs directory `dir` (the current directory when empty) so renames
/// into it survive a power cut. Best effort, and only where the platform
/// can open directories (unix).
pub fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    {
        let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = dir;
}

// ---------------------------------------------------------------------------
// Errors.

/// A structural defect in a file: truncation, a bad magic, a CRC
/// mismatch, an overflowing length, trailing bytes, or a header value the
/// caller rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// Byte offset in the file where validation failed.
    pub offset: usize,
    /// What went wrong.
    pub detail: String,
}

impl FormatError {
    /// A defect at file offset `offset`.
    pub fn new(offset: usize, detail: impl Into<String>) -> Self {
        FormatError { offset, detail: detail.into() }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for FormatError {}

// ---------------------------------------------------------------------------
// Whole-file framing: magic | body | crc32(body).

/// Encodes a whole file as `magic | body | crc32(body)`.
pub fn frame(magic: &[u8], body: &[u8]) -> Vec<u8> {
    let mut file = Vec::with_capacity(magic.len() + body.len() + 4);
    file.extend_from_slice(magic);
    file.extend_from_slice(body);
    file.extend_from_slice(&crc32(body).to_le_bytes());
    file
}

/// Splits a file written by [`frame`] with one of `magics` (all of the
/// same length) and verifies its CRC. Returns which magic matched and a
/// [`Cursor`] over the body whose offsets are file offsets. `what` names
/// the file kind in error messages.
///
/// # Errors
///
/// [`FormatError`] if the file is shorter than magic + CRC, its magic is
/// none of `magics`, or the CRC does not match the body.
pub fn unframe<'a>(
    bytes: &'a [u8],
    magics: &[&[u8]],
    what: &str,
) -> Result<(usize, Cursor<'a>), FormatError> {
    let magic_len = magics.first().map_or(0, |m| m.len());
    if bytes.len() < magic_len + 4 {
        return Err(FormatError::new(bytes.len(), format!("truncated {what} file")));
    }
    let Some(which) = magics.iter().position(|m| bytes[..magic_len] == **m) else {
        return Err(FormatError::new(0, format!("bad {what} magic")));
    };
    let crc_at = bytes.len() - 4;
    let body = &bytes[magic_len..crc_at];
    let stored = u32::from_le_bytes(bytes[crc_at..].try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(FormatError::new(crc_at, format!("{what} CRC mismatch")));
    }
    Ok((which, Cursor::at(body, magic_len)))
}

// ---------------------------------------------------------------------------
// CRC-trailed spans: tag | u32 len | payload | crc32(tag | len | payload).

/// Appends one CRC-trailed section `tag | u32 len | payload | crc32` to
/// `out`; the CRC covers the tag and length as well as the payload.
pub fn put_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    let start = out.len();
    out.extend_from_slice(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Bounds-checked reader.

/// A little-endian reader over a byte slice. Every read is checked
/// against the bytes left and every `count × width` length for overflow
/// ([`Cursor::size`]); a failed read returns a [`FormatError`] naming
/// `what` at the file offset it failed at, so no header value can make a
/// reader panic or allocate more than the file holds.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// File offset of `buf[0]`, so errors name file positions.
    base: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over a whole file.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor::at(buf, 0)
    }

    fn at(buf: &'a [u8], base: usize) -> Self {
        Cursor { buf, pos: 0, base }
    }

    /// File offset of the next byte to read.
    fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`FormatError`] at the current offset.
    pub fn error(&self, detail: impl Into<String>) -> FormatError {
        FormatError::new(self.offset(), detail)
    }

    /// `count × width`, or an error if the product overflows `usize`.
    pub fn size(&self, count: usize, width: usize, what: &str) -> Result<usize, FormatError> {
        count
            .checked_mul(width)
            .ok_or_else(|| self.error(format!("{what} size {count} × {width} overflows")))
    }

    /// The next `count × width` bytes.
    pub fn take(
        &mut self,
        count: usize,
        width: usize,
        what: &str,
    ) -> Result<&'a [u8], FormatError> {
        let len = self.size(count, width, what)?;
        if self.remaining() < len {
            return Err(self.error(format!(
                "truncated at {what} ({len} bytes needed, {} left)",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], FormatError> {
        Ok(self.take(N, 1, what)?.try_into().expect("took N bytes"))
    }

    fn words<T>(
        &mut self,
        count: usize,
        what: &str,
        decode: fn([u8; 4]) -> T,
    ) -> Result<Vec<T>, FormatError> {
        let bytes = self.take(count, 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| decode(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads `magic`; anything else is a "bad magic" error.
    pub fn magic(&mut self, magic: &[u8], what: &str) -> Result<(), FormatError> {
        let at = self.offset();
        if self.take(magic.len(), 1, &format!("{what} magic"))? != magic {
            return Err(FormatError::new(at, format!("bad {what} magic")));
        }
        Ok(())
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, FormatError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u32` count or length as a `usize`.
    pub fn count(&mut self, what: &str) -> Result<usize, FormatError> {
        Ok(self.u32(what)? as usize)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads `count` `u32`s.
    pub fn u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>, FormatError> {
        self.words(count, what, u32::from_le_bytes)
    }

    /// Reads `count` `f32`s.
    pub fn f32s(&mut self, count: usize, what: &str) -> Result<Vec<f32>, FormatError> {
        self.words(count, what, f32::from_le_bytes)
    }

    /// Reads one section written by [`put_section`] and verifies its CRC;
    /// returns the tag and a cursor over the payload.
    pub fn section(&mut self) -> Result<([u8; 4], Cursor<'a>), FormatError> {
        let start = self.pos;
        let tag: [u8; 4] = self.array("section header")?;
        let len = self.count("section header")?;
        let payload_at = self.offset();
        let payload = self.take(len, 1, "section payload")?;
        let span = &self.buf[start..self.pos];
        if crc32(span) != self.u32("section crc")? {
            let tag = String::from_utf8_lossy(&tag);
            let detail = format!("crc mismatch in section {tag:?}");
            return Err(FormatError::new(self.base + start, detail));
        }
        Ok((tag, Cursor::at(payload, payload_at)))
    }

    /// Requires that every byte has been read.
    pub fn finish(&self, what: &str) -> Result<(), FormatError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.error(format!("{n} trailing bytes after {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips_and_rejects_every_defect() {
        let file = frame(b"MAGICv01", b"body bytes");
        let (which, mut c) = unframe(&file, &[b"OTHERv01", b"MAGICv01"], "test").unwrap();
        assert_eq!(which, 1);
        assert_eq!(c.offset(), 8);
        assert_eq!(c.take(10, 1, "body").unwrap(), b"body bytes");
        c.finish("body").unwrap();

        let err = unframe(&file[..11], &[b"MAGICv01"], "test").unwrap_err();
        assert_eq!(err.detail, "truncated test file");
        let err = unframe(&file, &[b"OTHERv01"], "test").unwrap_err();
        assert_eq!((err.offset, err.detail.as_str()), (0, "bad test magic"));
        for cut in 12..file.len() {
            let err = unframe(&file[..cut], &[b"MAGICv01"], "test").unwrap_err();
            assert!(err.detail.contains("CRC"), "cut {cut}: {err}");
        }
        let mut flipped = file.clone();
        flipped[9] ^= 1;
        let err = unframe(&flipped, &[b"MAGICv01"], "test").unwrap_err();
        assert_eq!(err.offset, file.len() - 4);
    }

    #[test]
    fn sections_round_trip_and_detect_damage() {
        let mut out = b"HDR".to_vec();
        put_section(&mut out, b"ABCD", &[1, 2, 3]);
        put_section(&mut out, b"EFGH", &[]);
        let mut c = Cursor::new(&out);
        c.magic(b"HDR", "test").unwrap();
        let (tag, mut payload) = c.section().unwrap();
        assert_eq!(&tag, b"ABCD");
        assert_eq!(payload.offset(), 3 + 8);
        assert_eq!(payload.take(3, 1, "p").unwrap(), &[1, 2, 3]);
        let (tag, payload) = c.section().unwrap();
        assert_eq!((&tag, payload.remaining()), (b"EFGH", 0));
        c.finish("sections").unwrap();

        for byte in 3..out.len() {
            let mut bad = out.clone();
            bad[byte] ^= 0x10;
            let mut c = Cursor::new(&bad);
            c.magic(b"HDR", "test").unwrap();
            assert!(
                c.section().and_then(|_| c.section()).is_err(),
                "flip at {byte}"
            );
        }
    }

    #[test]
    fn overflowing_lengths_are_errors_not_panics() {
        let bytes = [0u8; 16];
        let mut c = Cursor::new(&bytes);
        assert!(c
            .size(usize::MAX, 2, "x")
            .unwrap_err()
            .detail
            .contains("overflows"));
        assert!(c.take(usize::MAX / 2 + 1, 4, "x").is_err());
        assert!(c.u32s(usize::MAX, "x").is_err());
        assert!(c.f32s(5, "x").unwrap_err().detail.contains("truncated"));
        assert_eq!(c.remaining(), 16, "failed reads consume nothing");
        assert_eq!(c.u64("x").unwrap(), 0);
        assert!(c
            .finish("x")
            .unwrap_err()
            .detail
            .contains("8 trailing bytes"));
    }
}
