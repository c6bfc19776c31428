//! Little-endian byte (de)serialization shared by the WAL and the artifact
//! format. The reader is bounds-checked end to end: running off the end of
//! a buffer is a typed [`StoreError::Truncated`], never a panic — corrupt
//! bytes must fail loudly *and gracefully*.

use crate::error::StoreError;

/// An append-only little-endian byte builder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far — the offset the next write lands at, which is
    /// what sectioned formats need to lay out aligned payloads.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Zero-pads so the next write lands on a multiple of `align` (a
    /// power-of-two section alignment; no-op when already aligned).
    pub fn pad_to(&mut self, align: usize) {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let rem = self.buf.len() & (align - 1);
        if rem != 0 {
            self.buf.resize(self.buf.len() + (align - rem), 0);
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn u32_slice(&mut self, v: &[u32]) {
        for &x in v {
            self.u32(x);
        }
    }

    pub fn u64_slice(&mut self, v: &[u64]) {
        for &x in v {
            self.u64(x);
        }
    }

    pub fn f32_slice(&mut self, v: &[f32]) {
        for &x in v {
            self.f32(x);
        }
    }

    pub fn i8_slice(&mut self, v: &[i8]) {
        for &x in v {
            self.buf.push(x as u8);
        }
    }

    /// A length-prefixed UTF-8 string (u32 byte length + bytes).
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    /// `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        self.take(n, what)
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn u64_vec(&mut self, n: usize, what: &'static str) -> Result<Vec<u64>, StoreError> {
        let raw = self.take(
            n.checked_mul(8).ok_or(StoreError::Truncated { what })?,
            what,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn f32_vec(&mut self, n: usize, what: &'static str) -> Result<Vec<f32>, StoreError> {
        let raw = self.take(
            n.checked_mul(4).ok_or(StoreError::Truncated { what })?,
            what,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// A string written by [`Writer::str`].
    pub fn str(&mut self, what: &'static str) -> Result<String, StoreError> {
        let n = self.u32(what)? as usize;
        let raw = self.take(n, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| StoreError::Malformed {
            what: format!("{what}: invalid UTF-8"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u32_slice(&[5, 6]);
        w.u64_slice(&[1, 2, 3]);
        w.f32_slice(&[0.25, -0.0]);
        w.i8_slice(&[-128, 0, 127]);
        w.str("snapshot §");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(r.u32("d").unwrap(), 5);
        assert_eq!(r.u32("d").unwrap(), 6);
        assert_eq!(r.u64_vec(3, "e").unwrap(), vec![1, 2, 3]);
        let f = r.f32_vec(2, "f").unwrap();
        assert_eq!(f[0], 0.25);
        assert!(f[1] == 0.0 && f[1].is_sign_negative(), "-0.0 is bit-exact");
        assert_eq!(r.bytes(3, "g").unwrap(), &[0x80, 0, 0x7F]);
        assert_eq!(r.str("h").unwrap(), "snapshot §");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn pad_to_aligns_the_next_write_with_zeros() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.pad_to(4096);
        assert_eq!(w.len(), 0, "already aligned is a no-op");
        w.u8(0xAB);
        w.pad_to(8);
        assert_eq!(w.len(), 8);
        w.pad_to(8);
        assert_eq!(w.len(), 8, "aligned stays put");
        w.u32(0xDEAD_BEEF);
        w.pad_to(4096);
        assert_eq!(w.len(), 4096);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0xAB);
        assert!(bytes[1..8].iter().all(|&b| b == 0), "padding is zeros");
        assert!(bytes[12..].iter().all(|&b| b == 0));
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let bytes = [1u8, 2, 3];
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.u32("four bytes"),
            Err(StoreError::Truncated { what: "four bytes" })
        ));
        // the failed read consumed nothing
        assert_eq!(r.remaining(), 3);
        assert!(matches!(
            Reader::new(&bytes).f32_vec(usize::MAX / 2, "overflow"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = Writer::new();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).str("s"),
            Err(StoreError::Malformed { .. })
        ));
    }
}
