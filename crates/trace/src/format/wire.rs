//! Shared binary-encoding primitives for every wire codec in the workspace.
//!
//! Two hand-rolled codecs live in this repository: the `.rwf` trace format
//! ([`binary`](super::binary), magic `"RWF\0"`) and the engine's `Outcome`
//! result codec (magic `"RWO\0"`, `rapid_engine::outcome::wire`), plus the
//! coordinator/worker protocol frames built on top of the latter.  All of
//! them share one house style — little-endian fixed-width integers,
//! `u32`-length-prefixed byte strings, lossy UTF-8 on decode — and this
//! module is that style's single implementation, extracted from the `.rwf`
//! reader so the codecs cannot drift apart: a change to how a length prefix
//! or a string is read changes every codec at once.
//!
//! The reading side is [`Cursor`], a bounds-checked little-endian reader
//! over a byte slice whose only error is [`Truncated`] (each codec maps it
//! into its own typed error, with whatever position context it tracks).
//! The `.rwf` reader streams its input instead of holding it as a slice, so
//! it repeats the same checks over a `BufRead`, read front to back.  The
//! writing side is the `put_*` free functions over a `Vec<u8>`.
//!
//! No varints: every integer on every wire is fixed-width LE, matching the
//! normative layout of `docs/FORMAT.md` §3 (and keeping every `.rwf` frame
//! 13 bytes).

/// The single decode error of the shared primitives: the input ended before
/// the structure it declared.  Codecs map this into their own error types
/// (`WireErrorKind::Truncated` for the outcome codec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

impl std::fmt::Display for Truncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("input ends before the structure its header declares")
    }
}

impl std::error::Error for Truncated {}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Current byte offset from the start of the input.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every input byte has been consumed (how codecs detect
    /// trailing garbage).
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Takes the next `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], Truncated> {
        let end = self.pos.checked_add(len).ok_or(Truncated)?;
        let slice = self.data.get(self.pos..end).ok_or(Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("took 2 bytes")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("took 4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("took 8 bytes")))
    }

    /// Reads an `f64` stored as its IEEE-754 bits, little-endian.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string, replacing invalid UTF-8
    /// with U+FFFD (names never abort a decode, per `docs/FORMAT.md` §1.4).
    ///
    /// # Errors
    ///
    /// [`Truncated`] when the prefix or the bytes run past the input.
    pub fn str(&mut self) -> Result<String, Truncated> {
        let len = self.u32()? as usize;
        Ok(String::from_utf8_lossy(self.take(len)?).into_owned())
    }

    /// Checks that at least `count * width` bytes could still follow — the
    /// hostile-header guard every codec applies before `reserve`-ing for a
    /// declared element count (each element needs at least `width` bytes, so
    /// a count larger than this bound cannot be honest).
    ///
    /// # Errors
    ///
    /// [`Truncated`] when the declared count cannot possibly fit.
    pub fn check_count(&self, count: u32, width: usize) -> Result<(), Truncated> {
        match (count as usize).checked_mul(width) {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(Truncated),
        }
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bits, little-endian.
pub fn put_f64(out: &mut Vec<u8>, value: f64) {
    put_u64(out, value.to_bits());
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.125);
        put_str(&mut out, "Account.java:41");
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.u8().unwrap(), 7);
        assert_eq!(cursor.u16().unwrap(), 0xBEEF);
        assert_eq!(cursor.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cursor.u64().unwrap(), u64::MAX - 1);
        assert_eq!(cursor.f64().unwrap(), -0.125);
        assert_eq!(cursor.str().unwrap(), "Account.java:41");
        assert!(cursor.at_end());
        assert_eq!(cursor.pos(), out.len());
    }

    #[test]
    fn every_prefix_is_truncated() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        put_str(&mut out, "xy");
        for len in 0..out.len() {
            let mut cursor = Cursor::new(&out[..len]);
            let result = cursor.u32().and_then(|_| cursor.str());
            assert!(result.is_err(), "prefix of {len} bytes must not decode");
        }
    }

    #[test]
    fn lossy_strings_replace_invalid_utf8() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[b'a', 0xFF, b'b']);
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.str().unwrap(), "a\u{FFFD}b");
    }

    #[test]
    fn check_count_guards_hostile_declarations() {
        let bytes = [0u8; 16];
        let cursor = Cursor::new(&bytes);
        assert!(cursor.check_count(4, 4).is_ok());
        assert!(cursor.check_count(5, 4).is_err());
        assert!(cursor.check_count(u32::MAX, usize::MAX / 2).is_err(), "overflow is truncation");
    }

    #[test]
    fn take_past_the_end_does_not_advance() {
        let bytes = [1u8, 2];
        let mut cursor = Cursor::new(&bytes);
        assert!(cursor.take(3).is_err());
        assert_eq!(cursor.remaining(), 2, "a failed take must not consume input");
        assert_eq!(cursor.take(2).unwrap(), &[1, 2]);
    }
}
