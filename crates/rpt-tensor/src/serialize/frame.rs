//! The framing every binary file of the workspace shares — streaming
//! corpus shards and checkpoints:
//!
//! ```text
//! magic [8 bytes] · u32 version · payload · u64 FNV-1a64 of everything before it
//! ```
//!
//! All integers are little-endian. [`unframe`] checks the magic, the
//! trailer and the version before a decoder sees a payload byte, so a torn
//! write, a torn read or a bit flip is caught whole. [`ByteReader`] then
//! walks the payload with every read bounds-checked: a length field is
//! compared against the bytes that remain before anything is allocated
//! for it, so no decoder allocates more than the file it was given.

use std::fmt;

/// Size of the fixed header: magic plus the `u32` version.
const HEADER: usize = 8 + 4;
/// Size of the checksum trailer.
const TRAILER: usize = 8;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A framed file or payload that does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A read of `need` bytes at payload offset `at` ran past the end
    /// (`have` bytes were left): a truncated file or an out-of-range
    /// length field.
    Truncated { at: usize, need: u64, have: usize },
    /// The file does not start with the expected magic.
    Magic,
    /// The trailer disagrees with the bytes it covers.
    Checksum { stored: u64, computed: u64 },
    /// A format revision this build does not read.
    Version { found: u32, expected: u32 },
    /// Bytes left over after the last record.
    Trailing { extra: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { at, need, have } => write!(
                f,
                "truncated: {need} bytes needed at offset {at}, {have} left"
            ),
            FrameError::Magic => write!(f, "magic mismatch"),
            FrameError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            FrameError::Version { found, expected } => {
                write!(f, "format version {found}, this build reads {expected}")
            }
            FrameError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the last record")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Starts a framed buffer: the magic and the version, with room reserved
/// for `payload` more bytes.
pub fn begin_frame(magic: &[u8; 8], version: u32, payload: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload + TRAILER);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Seals a buffer from [`begin_frame`] with its checksum trailer.
pub fn end_frame(mut out: Vec<u8>) -> Vec<u8> {
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Checks a framed file — length, magic, checksum, version, in that
/// order — and returns a reader over its payload.
pub fn unframe<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<ByteReader<'a>, FrameError> {
    if bytes.len() < HEADER + TRAILER {
        return Err(FrameError::Truncated {
            at: 0,
            need: (HEADER + TRAILER) as u64,
            have: bytes.len(),
        });
    }
    if &bytes[..magic.len()] != magic {
        return Err(FrameError::Magic);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(FrameError::Checksum { stored, computed });
    }
    let found = u32::from_le_bytes(
        body[magic.len()..HEADER]
            .try_into()
            .expect("4-byte version"),
    );
    if found != version {
        return Err(FrameError::Version {
            found,
            expected: version,
        });
    }
    Ok(ByteReader::new(&body[HEADER..]))
}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: u64) -> Result<&'a [u8], FrameError> {
        let have = self.remaining();
        if n > have as u64 {
            return Err(FrameError::Truncated {
                at: self.pos,
                need: n,
                have,
            });
        }
        let start = self.pos;
        self.pos += n as usize;
        Ok(&self.bytes[start..self.pos])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self
            .take(N as u64)?
            .try_into()
            .expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, FrameError> {
        self.array().map(f32::from_le_bytes)
    }

    /// A `u32` element count, checked against the remaining bytes for
    /// elements of at least `min_bytes` encoded bytes each.
    pub fn count(&mut self, min_bytes: u64) -> Result<usize, FrameError> {
        let at = self.pos;
        let n = self.u32()?;
        let need = n as u64 * min_bytes;
        let have = self.remaining();
        if need > have as u64 {
            return Err(FrameError::Truncated { at, need, have });
        }
        Ok(n as usize)
    }

    /// An empty `Vec` for `n` elements decoded from the rest of this
    /// reader, pre-sized to at most as many bytes as remain: a hostile
    /// count cannot reserve more memory than the file holds.
    pub fn vec_for<T>(&self, n: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / std::mem::size_of::<T>().max(1)))
    }

    /// Succeeds only when every byte was read.
    pub fn finish(self) -> Result<(), FrameError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(FrameError::Trailing { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTFRM1";

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = begin_frame(MAGIC, 3, payload.len());
        out.extend_from_slice(payload);
        end_frame(out)
    }

    #[test]
    fn frame_round_trips_and_checks_every_field() {
        let bytes = framed(&[1, 0, 0, 0, 9]);
        let mut r = unframe(&bytes, MAGIC, 3).unwrap();
        assert_eq!(r.u32().unwrap(), 1);
        assert_eq!(r.u8().unwrap(), 9);
        r.finish().unwrap();

        assert_eq!(
            unframe(&bytes, b"OTHERFR1", 3).unwrap_err(),
            FrameError::Magic
        );
        assert!(matches!(
            unframe(&bytes, MAGIC, 4).unwrap_err(),
            FrameError::Version { found: 3, .. }
        ));
        let mut flipped = bytes.clone();
        flipped[13] ^= 1;
        assert!(matches!(
            unframe(&flipped, MAGIC, 3).unwrap_err(),
            FrameError::Checksum { .. }
        ));
        assert!(matches!(
            unframe(&bytes[..10], MAGIC, 3).unwrap_err(),
            FrameError::Truncated { .. }
        ));
    }

    #[test]
    fn counts_are_bounded_by_the_remaining_bytes() {
        let mut r = ByteReader::new(&[3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(matches!(
            r.clone().count(4).unwrap_err(),
            FrameError::Truncated {
                need: 12,
                have: 8,
                ..
            }
        ));
        assert_eq!(r.count(2).unwrap(), 3);
        assert!(r.take(u64::MAX).is_err());
        assert_eq!(r.take(8).unwrap().len(), 8);
        r.finish().unwrap();
    }
}
