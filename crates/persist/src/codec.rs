//! Hand-rolled little-endian binary codec shared by the WAL and snapshots.
//!
//! The workspace is vendored offline, so there is no serde: every on-disk
//! structure is encoded field by field through [`Enc`] and decoded through the
//! bounds-checked [`Dec`] cursor, with each array written and read as one
//! section (one bounds check, then a straight copy). Decoding never panics —
//! a short or mangled buffer surfaces as [`DecodeError`], which callers map to
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

    /// Appends each `u16` little-endian, with no length prefix.
    pub(crate) fn u16s(&mut self, vals: &[u16]) {
        self.put_all(vals, u16::to_le_bytes);
    }

    /// Appends each `u32` little-endian, with no length prefix.
    pub(crate) fn u32s(&mut self, vals: &[u32]) {
        self.put_all(vals, u32::to_le_bytes);
    }

    /// Appends each `f32`'s bit pattern little-endian, with no length prefix.
    pub(crate) fn f32s(&mut self, vals: &[f32]) {
        self.put_all(vals, |v| v.to_bits().to_le_bytes());
    }

    /// Appends each `usize` widened to `u64`, with no length prefix.
    pub(crate) fn usizes(&mut self, vals: &[usize]) {
        self.put_all(vals, |v| (v as u64).to_le_bytes());
    }

    /// Appends each `bool` as one byte (0 or 1), with no length prefix.
    pub(crate) fn bools(&mut self, vals: &[bool]) {
        self.put_all(vals, |v| [u8::from(v)]);
    }

    /// Grows the buffer once by the whole array, then fills it in place.
    fn put_all<T: Copy, const N: usize>(&mut self, vals: &[T], to_le: impl Fn(T) -> [u8; N]) {
        let start = self.buf.len();
        self.buf.resize(start + vals.len() * N, 0);
        let (chunks, _) = self.buf[start..].as_chunks_mut::<N>();
        for (dst, &v) in chunks.iter_mut().zip(vals) {
            *dst = to_le(v);
        }
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

    /// Reads `count` elements of `N` bytes each as one section. The count is
    /// checked against the bytes that remain once, before the caller
    /// allocates anything from it.
    pub(crate) fn section<const N: usize>(
        &mut self,
        count: usize,
        what: &str,
    ) -> Result<&'a [[u8; N]], DecodeError> {
        if count > self.remaining() / N {
            return Err(self.err(format!(
                "{what} count {count} needs more than the {} bytes left",
                self.remaining()
            )));
        }
        let (chunks, _) = self.take(count * N, what)?.as_chunks::<N>();
        Ok(chunks)
    }

    /// Reads `count` little-endian `u16`s (the counterpart of [`Enc::u16s`]).
    pub(crate) fn u16s(&mut self, count: usize, what: &str) -> Result<Vec<u16>, DecodeError> {
        Ok(self
            .section(count, what)?
            .iter()
            .map(|b| u16::from_le_bytes(*b))
            .collect())
    }

    /// Reads `count` little-endian `u32`s (the counterpart of [`Enc::u32s`]).
    pub(crate) fn u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>, DecodeError> {
        Ok(self
            .section(count, what)?
            .iter()
            .map(|b| u32::from_le_bytes(*b))
            .collect())
    }

    /// Reads `count` `f32` bit patterns (the counterpart of [`Enc::f32s`]).
    pub(crate) fn f32s(&mut self, count: usize, what: &str) -> Result<Vec<f32>, DecodeError> {
        Ok(self
            .section(count, what)?
            .iter()
            .map(|b| f32::from_bits(u32::from_le_bytes(*b)))
            .collect())
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

/// Reflected IEEE/zlib CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables (Kounavis & Berry, ISCC 2005), built once on first
/// use: `t[0]` is the byte-at-a-time table, and `t[k][b]` is the CRC state
/// after byte `b` is followed by `k` zero bytes, so sixteen lookups advance
/// the CRC over sixteen bytes at once.
fn crc32_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 16]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    CRC32_POLY ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Incremental CRC-32 (IEEE/zlib polynomial, reflected): feeding the bytes
/// in any split gives the value [`crc32`] gives over their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A CRC over no bytes yet.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes`, sixteen at a time and then one at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = crc32_tables();
        let mut crc = self.state;
        let (blocks, tail) = bytes.as_chunks::<16>();
        for b in blocks {
            let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(a & 0xFF) as usize]
                ^ t[14][((a >> 8) & 0xFF) as usize]
                ^ t[13][((a >> 16) & 0xFF) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in tail {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The CRC of every byte fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE/zlib polynomial, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
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

    /// The byte-at-a-time table CRC the slicing-by-16 one replaced, kept as
    /// its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut crc = !0u32;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// xorshift64*: a fixed pseudo-random byte stream with no dependency.
    fn pseudo_random_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle_at_every_length_and_alignment() {
        for v in [
            &b""[..],
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
        ] {
            assert_eq!(crc32(v), crc32_bytewise(v));
        }
        let data = pseudo_random_bytes(4096 + 16, 0x9E37_79B9_7F4A_7C15);
        let lens = pseudo_random_bytes(64, 7);
        for align in 0..16 {
            // Every length around a block edge, then random ones up to 4095.
            let random = lens
                .chunks(2)
                .map(|b| usize::from(b[0]) << 4 | usize::from(b[1] >> 4));
            for len in (0..48).chain(random) {
                let bytes = &data[align..align + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at +{align}");
            }
        }
    }

    #[test]
    fn crc32_is_the_same_in_any_split() {
        let data = pseudo_random_bytes(1000, 3);
        for cut in [0, 1, 8, 15, 16, 17, 500, 999, 1000] {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finish(), crc32(&data), "cut at {cut}");
        }
    }

    #[test]
    fn bulk_sections_round_trip_and_match_the_scalar_writers() {
        let (u16s, u32s) = ([0u16, 1, 0xBEEF, u16::MAX], [7u32, 0xDEAD_BEEF, 0]);
        let (f32s, usizes) = ([-0.0f32, 1.5, f32::INFINITY], [0usize, 3, usize::MAX]);
        let mut bulk = Enc::new();
        bulk.u16s(&u16s);
        bulk.u32s(&u32s);
        bulk.f32s(&f32s);
        bulk.usizes(&usizes);
        bulk.bools(&[true, false]);
        let mut scalar = Enc::new();
        u16s.iter().for_each(|&v| scalar.u16(v));
        u32s.iter().for_each(|&v| scalar.u32(v));
        f32s.iter().for_each(|&v| scalar.f32(v));
        usizes.iter().for_each(|&v| scalar.usize(v));
        [true, false].iter().for_each(|&v| scalar.u8(v as u8));
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, scalar.into_bytes());
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u16s(4, "a").unwrap(), u16s);
        assert_eq!(d.u32s(3, "b").unwrap(), u32s);
        let back: Vec<u32> = d
            .f32s(3, "c")
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(back, f32s.map(f32::to_bits));
        assert_eq!(d.section::<8>(3, "d").unwrap().len(), 3);
        assert_eq!(d.bytes(2).unwrap(), [1, 0]);
        d.finish().unwrap();
    }

    #[test]
    fn bulk_sections_refuse_counts_the_buffer_cannot_back() {
        let bytes = [0u8; 10];
        let mut d = Dec::new(&bytes);
        for count in [6, usize::MAX / 2, usize::MAX] {
            let err = d.u16s(count, "types").unwrap_err();
            assert!(err.reason.contains("types count"), "{}", err.reason);
            assert_eq!(d.offset(), 0, "a refused section consumes nothing");
        }
        assert!(d.u32s(3, "ids").is_err());
        assert!(d.f32s(3, "weights").is_err());
        assert!(d.section::<8>(2, "offsets").is_err());
        assert_eq!(d.u16s(5, "types").unwrap(), vec![0; 5]);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = b"write-ahead log record payload".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x20;
        assert_ne!(crc32(&data), clean);
    }
}
