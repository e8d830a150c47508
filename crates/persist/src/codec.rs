//! Hand-rolled little-endian binary codec shared by the WAL and snapshots.
//!
//! The workspace is vendored offline, so there is no serde: every on-disk
//! structure is encoded field by field through [`Enc`] and decoded through the
//! bounds-checked [`Dec`] cursor. Decoding never panics — a short or mangled
//! buffer surfaces as [`DecodeError`], which callers map to
//! [`crate::PersistError::Corrupt`] with file/offset context.

use std::fmt;

/// A decode failure: the cursor ran off the end of the buffer or hit a value
/// that cannot be interpreted (bad enum tag, non-UTF-8 string, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset (within the decoded buffer) where decoding failed.
    pub offset: usize,
    /// Human-readable description of what was expected.
    pub reason: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian encoder over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` (on-disk format is 64-bit).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed (guards against trailing junk).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(format!("{} trailing bytes after record", self.remaining())))
        }
    }

    fn err(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads `n` raw bytes (the counterpart of [`Enc::raw`]).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n, "byte string")
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an IEEE-754 `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting overflow.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("length {v} does not fit in usize")))
    }

    /// Reads a `usize` length prefix and rejects values above `cap` — a guard
    /// against allocating gigabytes off four corrupted bytes.
    pub fn bounded_len(&mut self, cap: usize, what: &str) -> Result<usize, DecodeError> {
        let v = self.usize()?;
        if v > cap {
            return Err(self.err(format!("{what} length {v} exceeds sanity cap {cap}")));
        }
        Ok(v)
    }

    /// Reads a `usize` element count and rejects one whose elements, at
    /// `elem_bytes` each, the rest of the buffer cannot hold — so nothing is
    /// ever allocated from a count the bytes behind it do not back.
    pub fn counted_len(&mut self, elem_bytes: usize, what: &str) -> Result<usize, DecodeError> {
        let v = self.usize()?;
        if v > self.remaining() / elem_bytes.max(1) {
            return Err(self.err(format!(
                "{what} count {v} needs more than the {} bytes left",
                self.remaining()
            )));
        }
        Ok(v)
    }

    /// Reads a length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let start = self.pos;
        let b = self.take(n, "string body")?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError {
            offset: start,
            reason: "string is not valid UTF-8".to_string(),
        })
    }
}

/// CRC-32 (IEEE/zlib polynomial, reflected) over `bytes`.
///
/// Table-driven; the 1 KiB table is built once on first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Enc::new();
        e.u8(0xAB);
        e.u16(0x1234);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 7);
        e.f32(-0.0);
        e.f32(f32::NAN);
        e.usize(42);
        e.str("héllo");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u16().unwrap(), 0x1234);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(d.f32().unwrap().is_nan());
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn truncated_read_is_an_error_not_a_panic() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert!(d.u16().is_ok());
        let err = d.u32().unwrap_err();
        assert_eq!(err.offset, 2);
        assert!(err.reason.contains("truncated"), "{}", err.reason);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Enc::new();
        e.u32(7);
        e.u8(9);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u32().unwrap(), 7);
        assert!(d.finish().is_err());
    }

    #[test]
    fn bounded_len_guards_absurd_allocations() {
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.bounded_len(1 << 20, "nodes").is_err());
    }

    #[test]
    fn counted_len_guards_allocations_the_buffer_cannot_back() {
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).counted_len(1, "nodes").is_err());
        // Three 4-byte elements announced, two present.
        let mut e = Enc::new();
        e.u64(3);
        e.u32(1);
        e.u32(2);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).counted_len(4, "ids").is_err());
        assert_eq!(Dec::new(&bytes).counted_len(2, "ids"), Ok(3));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = b"write-ahead log record payload".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x20;
        assert_ne!(crc32(&data), clean);
    }
}
