//! A hand-rolled binary codec for persistent artifacts.
//!
//! No serde, no derive: every persisted structure writes itself field by
//! field through [`ByteWriter`] and reads itself back through
//! [`ByteReader`], so the on-disk layout is explicit, versionable, and
//! reviewable byte for byte. All integers are little-endian fixed-width;
//! strings and byte slices are length-prefixed with a `u32`.
//!
//! Readers are **total**: every read checks remaining length and returns
//! `Err` instead of panicking, so a truncated or corrupted artifact can
//! never take the process down — callers treat any `Err` as a cache miss.

/// Appends fixed-width little-endian primitives to a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` by bit pattern (exact round trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string too long for artifact"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix (caller knows the layout).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length prefix for a sequence the caller is about to emit.
    pub fn seq(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("sequence too long for artifact"));
    }
}

/// Reads fixed-width little-endian primitives from a byte slice,
/// returning `Err` (never panicking) on truncation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Shorthand for the codec's error type: a human-readable reason the
/// artifact was rejected.
pub type ReadResult<T> = Result<T, String>;

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> ReadResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!(
                "truncated artifact: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> ReadResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn bool(&mut self) -> ReadResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("invalid bool byte {b}")),
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> ReadResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> ReadResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> ReadResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i32`.
    pub fn i32(&mut self) -> ReadResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> ReadResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> ReadResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not
    /// fit the platform.
    pub fn usize(&mut self) -> ReadResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| "usize overflow in artifact".to_string())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> ReadResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in artifact".to_string())
    }

    /// Reads a sequence length, sanity-capped against the remaining bytes
    /// (every element of every persisted sequence is at least one byte).
    fn seq(&mut self) -> ReadResult<usize> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(format!(
                "corrupt sequence length {len} exceeds {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(len)
    }

    /// Reads a length-prefixed sequence written with [`ByteWriter::seq`],
    /// decoding each element with `elem` into a collection that grows
    /// only as elements decode. A corrupt length therefore costs at most
    /// the elements really present — never a reservation of the claimed
    /// length times the element's size, which nested sequences would
    /// multiply at every level.
    ///
    /// # Errors
    ///
    /// A corrupt length, or the first element `elem` rejects.
    pub fn collect<T, C: Default + Extend<T>>(
        &mut self,
        mut elem: impl FnMut(&mut Self) -> ReadResult<T>,
    ) -> ReadResult<C> {
        let mut out = C::default();
        for _ in 0..self.seq()? {
            out.extend(Some(elem(self)?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.i32(-5);
        w.i64(-6_000_000_000);
        w.f64(core::f64::consts::PI);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i32().unwrap(), -5);
        assert_eq!(r.i64().unwrap(), -6_000_000_000);
        assert!((r.f64().unwrap() - core::f64::consts::PI).abs() < 1e-15);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn corrupt_sequence_length_is_rejected() {
        let mut w = ByteWriter::new();
        w.seq(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.seq().is_err(), "length exceeding payload must not alloc");
    }

    #[test]
    fn collect_decodes_each_element_in_order() {
        let mut w = ByteWriter::new();
        w.seq(3);
        for v in [5u16, 6, 7] {
            w.u16(v);
        }
        w.seq(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let got: Vec<u16> = r.collect(ByteReader::u16).unwrap();
        assert_eq!(got, [5, 6, 7]);
        // Two elements claimed, none present: an error, not a panic.
        assert!(r.collect::<_, Vec<u16>>(ByteReader::u16).is_err());
    }

    #[test]
    fn nan_round_trips_by_bits() {
        let mut w = ByteWriter::new();
        w.f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.f64().unwrap().is_nan());
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool().is_err());
    }
}
