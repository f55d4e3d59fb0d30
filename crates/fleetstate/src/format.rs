//! The one frame codec: the framed binary container shared by
//! snapshots, the journal and the `fleetd` wire protocol.
//!
//! Every record or message is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  ("FLST" for STORE, "FLTD" for WIRE)
//! 4       2     format version (little-endian u16, currently 1)
//! 6       1     frame kind
//! 7       1     reserved (zero)
//! 8       4     payload length (little-endian u32)
//! 12      n     payload
//! 12+n    4     CRC-32 (IEEE) over bytes [0, 12+n)
//! ```
//!
//! Two [`FrameSpec`]s use it: [`STORE`] for snapshot and journal files
//! (kinds in [`FrameKind`]) and [`WIRE`] for `fleetd` messages; their
//! magics differ, so neither accepts the other's frames.
//! [`FrameSpec::append`] is the only frame writer and
//! [`FrameSpec::decode`] the only verifier. Payloads are little-endian,
//! floats raw IEEE-754 bits, written with the `put_*` helpers and read
//! with the bounds-checked [`Reader`]. The checksum covers the header
//! too, so a flipped length fails verification; decoding arbitrary bytes
//! gives a typed [`FrameError`], never a panic or an unchecked allocation.
//!
//! Files concatenate frames back to back with no padding; a reader walks
//! the file frame by frame and distinguishes a **torn tail** (the
//! expected artifact of a crash mid-append: the last frame runs out of
//! bytes or fails its checksum, with nothing valid after it) from
//! **mid-stream corruption** (damage followed by further valid frames,
//! which is never a crash artifact and always an error).

use crate::error::PersistError;
use numeric::crc32;
use std::io::Read;

/// Bytes of the fixed frame header (before the payload).
pub const HEADER_LEN: usize = 12;

/// Bytes of the trailing checksum.
pub const TRAILER_LEN: usize = 4;

/// Cap on a [`put_string`] / [`Reader::string`] field, in bytes.
pub const MAX_STRING: u32 = 1 << 16;

/// What tells one framed format from another; the layout and every
/// function on this type are shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// The four magic bytes opening every frame.
    pub magic: [u8; 4],
    /// The format version.
    pub version: u16,
    /// Cap on one frame's payload, checked against the header's length
    /// field *before* any buffer is sized from it.
    pub max_payload: u32,
}

/// Snapshots and the journal: magic `FLST`, payloads up to 256 MiB.
pub const STORE: FrameSpec = FrameSpec { magic: *b"FLST", version: 1, max_payload: 1 << 28 };

/// The `fleetd` wire protocol: magic `FLTD`, payloads up to 64 MiB.
pub const WIRE: FrameSpec = FrameSpec { magic: *b"FLTD", version: 1, max_payload: 1 << 26 };

/// Why decoding a frame or its payload failed. Every variant names the
/// offset in the frame (in the payload, for `BadPayload`) where it was
/// detected; [`FrameError::at`] turns it into a [`PersistError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Offset where more bytes were needed.
        offset: u64,
        /// Bytes the frame claims to need from offset 0.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The first four bytes are not the format's magic.
    BadMagic {
        /// Offset of the expected magic (always 0 for a frame decode).
        offset: u64,
    },
    /// A frame from a different format version.
    UnsupportedVersion {
        /// Offset of the version field.
        offset: u64,
        /// The version the header claims.
        version: u16,
    },
    /// The payload length field exceeds [`FrameSpec::max_payload`].
    OversizedPayload {
        /// Offset of the length field.
        offset: u64,
        /// The length the header claims.
        len: u32,
    },
    /// The frame's CRC-32 does not match its contents.
    ChecksumMismatch {
        /// Offset of the stored checksum.
        offset: u64,
        /// The checksum stored in the frame.
        stored: u32,
        /// The checksum computed over the frame's bytes.
        computed: u32,
    },
    /// A valid frame whose kind byte this decoder does not accept.
    UnknownKind {
        /// Offset of the kind byte.
        offset: u64,
        /// The kind byte the header carries.
        kind: u8,
    },
    /// A CRC-valid frame whose payload does not decode.
    BadPayload {
        /// Offset (within the payload) where decoding failed.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
}

impl FrameError {
    /// The [`PersistError`] for this error in the frame that starts at
    /// file offset `offset`, which it names instead of the in-frame one.
    #[must_use]
    pub fn at(self, offset: u64) -> PersistError {
        match self {
            Self::Truncated { needed, available, .. } => {
                PersistError::TruncatedFrame { offset, needed, available }
            }
            Self::BadMagic { .. } => PersistError::BadMagic { offset },
            Self::UnsupportedVersion { version, .. } => {
                PersistError::UnsupportedVersion { offset, version }
            }
            Self::OversizedPayload { .. } => {
                PersistError::BadPayload { offset, what: "frame length exceeds the format maximum" }
            }
            Self::ChecksumMismatch { stored, computed, .. } => {
                PersistError::ChecksumMismatch { offset, stored, computed }
            }
            Self::UnknownKind { kind, .. } => PersistError::UnknownFrameKind { offset, kind },
            Self::BadPayload { what, .. } => PersistError::BadPayload { offset, what },
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { offset, needed, available } => write!(
                f,
                "truncated frame at offset {offset}: needs {needed} bytes, {available} available"
            ),
            Self::BadMagic { offset } => write!(f, "bad magic at offset {offset}"),
            Self::UnsupportedVersion { offset, version } => {
                write!(f, "unsupported frame version {version} at offset {offset}")
            }
            Self::OversizedPayload { offset, len } => {
                write!(f, "oversized payload length {len} at offset {offset}")
            }
            Self::ChecksumMismatch { offset, stored, computed } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::UnknownKind { offset, kind } => {
                write!(f, "unknown frame kind {kind} at offset {offset}")
            }
            Self::BadPayload { offset, what } => {
                write!(f, "bad payload at offset {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameSpec {
    /// Appends one frame of `kind` to `out`. `payload` writes the
    /// payload bytes straight into `out`; the length field and the
    /// checksum are filled in afterwards, so no payload is copied.
    pub fn append(&self, out: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) {
        let start = out.len();
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&[kind, 0, 0, 0, 0, 0]);
        payload(out);
        let len = (out.len() - start - HEADER_LEN) as u32;
        out[start + 8..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let crc = crc32::crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Checks a frame header alone and returns `(kind, payload_len)`. An
    /// oversized length is rejected here, before any buffer is sized.
    ///
    /// # Errors
    ///
    /// `Truncated`, `BadMagic`, `UnsupportedVersion` or `OversizedPayload`.
    pub fn check_header(&self, bytes: &[u8]) -> Result<(u8, u32), FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                offset: bytes.len() as u64,
                needed: HEADER_LEN as u64,
                available: bytes.len() as u64,
            });
        }
        if bytes[0..4] != self.magic {
            return Err(FrameError::BadMagic { offset: 0 });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != self.version {
            return Err(FrameError::UnsupportedVersion { offset: 4, version });
        }
        let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if len > self.max_payload {
            return Err(FrameError::OversizedPayload { offset: 8, len });
        }
        Ok((bytes[6], len))
    }

    /// Verifies the frame at the start of `bytes` and returns `(kind,
    /// payload)`, the payload borrowed. Bytes past the frame are ignored.
    ///
    /// # Errors
    ///
    /// Any [`FrameSpec::check_header`] error, `Truncated`, or
    /// `ChecksumMismatch`.
    pub fn decode<'a>(&self, bytes: &'a [u8]) -> Result<(u8, &'a [u8]), FrameError> {
        let (kind, len) = self.check_header(bytes)?;
        let at = HEADER_LEN + len as usize;
        if bytes.len() < at + TRAILER_LEN {
            return Err(FrameError::Truncated {
                offset: bytes.len() as u64,
                needed: (at + TRAILER_LEN) as u64,
                available: bytes.len() as u64,
            });
        }
        let stored = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let computed = crc32::crc32(&bytes[..at]);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { offset: at as u64, stored, computed });
        }
        Ok((kind, &bytes[HEADER_LEN..at]))
    }

    /// Reads one whole frame from a stream, verified up to its header;
    /// `Ok(None)` on clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// Transport failure, or a header error (as `InvalidData`) before
    /// the body is read, so garbage cannot make it wait for gigabytes.
    pub fn read_frame<R: Read>(&self, stream: &mut R) -> std::io::Result<Option<Vec<u8>>> {
        let mut header = [0u8; HEADER_LEN];
        let mut got = 0usize;
        while got < HEADER_LEN {
            let n = stream.read(&mut header[got..])?;
            if n == 0 {
                if got == 0 {
                    return Ok(None);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            got += n;
        }
        let (_, len) = self
            .check_header(&header)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut frame = vec![0u8; HEADER_LEN + len as usize + TRAILER_LEN];
        frame[..HEADER_LEN].copy_from_slice(&header);
        stream.read_exact(&mut frame[HEADER_LEN..])?;
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------
// Little-endian payload writers and the bounds-checked payload reader.
// ---------------------------------------------------------------------

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bits, little-endian.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends each of `vs` as [`put_f64`] would, in one pass: one resize,
/// then one 8-byte store per value.
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    let start = out.len();
    out.resize(start + vs.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Appends a `u32`-length-prefixed UTF-8 string, cut to at most
/// [`MAX_STRING`] bytes at a character boundary so it always decodes.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(MAX_STRING as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    put_u32(out, end as u32);
    out.extend_from_slice(&s.as_bytes()[..end]);
}

/// Cursor over a payload. Every read is bounds-checked; every failure is
/// a [`FrameError::BadPayload`] at the offset within the payload.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// A [`FrameError::BadPayload`] at the current offset.
    #[inline]
    #[must_use]
    pub fn err(&self, what: &'static str) -> FrameError {
        FrameError::BadPayload { offset: self.at as u64, what }
    }

    /// The next `n` bytes, or an error if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.at.checked_add(n).filter(|&end| end <= self.bytes.len());
        let end = end.ok_or(self.err("payload ends early"))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.take(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.take(8).map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// The next `f64`, from its raw bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The next `n` `f64`s ([`put_f64s`]), with one bounds check for
    /// all of them.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, FrameError> {
        let len = n.checked_mul(8).ok_or(self.err("payload ends early"))?;
        let bytes = self.take(len)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(b);
                f64::from_bits(u64::from_le_bytes(raw))
            })
            .collect())
    }

    /// The next [`put_string`] field, at most [`MAX_STRING`] bytes.
    pub fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()?;
        if len > MAX_STRING {
            return Err(self.err("string too long"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("string is not UTF-8"))
    }

    /// Bytes not yet consumed: check counts read from the payload against
    /// this BEFORE sizing any allocation from them.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Checks that the whole payload was consumed.
    pub fn finish(self) -> Result<(), FrameError> {
        (self.remaining() == 0).then_some(()).ok_or(self.err("trailing payload bytes"))
    }
}

// ---------------------------------------------------------------------
// Snapshot and journal files.
// ---------------------------------------------------------------------

/// What a [`STORE`] frame carries.
///
/// A journal file is one `JournalHeader` frame followed by
/// `Observations` frames. A snapshot file holds `Snapshot` frames, each
/// followed (in the same write) by the `Checkpoint` frame that makes it
/// a restart point; recovery skips a snapshot without one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A full fleet snapshot ([`crate::state::FleetState`]).
    Snapshot = 1,
    /// The journal's opening configuration echo.
    JournalHeader = 2,
    /// One step's observations, one `f64` per lane.
    Observations = 3,
    /// A scalar controller snapshot ([`skirental::degraded::LadderState`]).
    ScalarSnapshot = 4,
    /// The companion of the `Snapshot` frame just before it
    /// ([`crate::snapshot::Checkpoint`]): the journal's length at the
    /// snapshot's step and the fleet's realized-CR sketches.
    Checkpoint = 5,
}

/// One decoded [`STORE`] frame: its kind, payload, and location in the
/// file.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<'a> {
    /// The frame's kind byte; the readers check it against [`FrameKind`].
    pub kind: u8,
    /// The payload bytes, borrowed from the scanned file.
    pub payload: &'a [u8],
    /// Byte offset of the frame's header in the file.
    pub offset: u64,
    /// Total encoded length (header + payload + checksum).
    pub len: u64,
}

/// Decodes the [`STORE`] frame starting at file offset `offset`.
///
/// # Errors
///
/// The [`FrameSpec::decode`] error, named at `offset` by [`FrameError::at`].
pub fn decode_frame_at(bytes: &[u8], offset: u64) -> Result<Frame<'_>, PersistError> {
    frame_in(bytes, offset as usize, 0)
}

/// Decodes the frame at `at` in `bytes`, a region of a file that starts
/// at file offset `base`; the frame and any error carry file offsets.
fn frame_in(bytes: &[u8], at: usize, base: u64) -> Result<Frame<'_>, PersistError> {
    let offset = base + at as u64;
    let (kind, payload) = STORE.decode(&bytes[at..]).map_err(|e| e.at(offset))?;
    Ok(Frame { kind, payload, offset, len: (HEADER_LEN + payload.len() + TRAILER_LEN) as u64 })
}

/// The result of walking a file frame by frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan<'a> {
    /// The valid frames, in file order.
    pub frames: Vec<Frame<'a>>,
    /// File offset where the clean prefix ends (everything before the
    /// first damage; the end of the file when undamaged).
    pub clean_len: u64,
    /// The error that stopped the walk at the file's tail, if any —
    /// `None` for a cleanly terminated file. A `Some` here means the
    /// trailing bytes look like a torn write (no valid frame follows
    /// the damage).
    pub torn_tail: Option<PersistError>,
}

/// Lenient resync probe: the next offset strictly after `from` at which
/// the [`STORE`] magic occurs. Readers that tolerate damage use it to
/// skip past an unreadable region.
fn next_frame_probe(bytes: &[u8], from: usize) -> Option<usize> {
    let magic = STORE.magic;
    let mut i = from + 1;
    while i + magic.len() <= bytes.len() {
        if bytes[i..i + magic.len()] == magic {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Walks `bytes` frame by frame. Damage at the **tail** (nothing valid
/// after it) is reported in [`FrameScan::torn_tail`] and the clean
/// prefix returned; damage **mid-stream** (any later offset decodes to a
/// valid frame) is a hard [`PersistError::CorruptMidStream`].
///
/// # Errors
///
/// [`PersistError::CorruptMidStream`] naming both the damaged offset and
/// the offset where valid frames resume.
pub fn scan_frames(bytes: &[u8]) -> Result<FrameScan<'_>, PersistError> {
    scan_region(bytes, 0)
}

/// [`scan_frames`] over `bytes`, the region of a file that starts at
/// file offset `base`: frame offsets, [`FrameScan::clean_len`] and
/// errors are file offsets.
pub(crate) fn scan_region(bytes: &[u8], base: u64) -> Result<FrameScan<'_>, PersistError> {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        match frame_in(bytes, at, base) {
            Ok(frame) => {
                at += frame.len as usize;
                frames.push(frame);
            }
            Err(e) => {
                // Distinguish torn tail from mid-stream damage: is there
                // any *valid* frame after the damaged region?
                let mut probe = at;
                while let Some(r) = next_frame_probe(bytes, probe) {
                    if frame_in(bytes, r, base).is_ok() {
                        return Err(PersistError::CorruptMidStream {
                            offset: base + at as u64,
                            resync_offset: base + r as u64,
                        });
                    }
                    probe = r;
                }
                let clean_len = base + at as u64;
                return Ok(FrameScan { frames, clean_len, torn_tail: Some(e) });
            }
        }
    }
    Ok(FrameScan { frames, clean_len: base + at as u64, torn_tail: None })
}

/// Walks `bytes` leniently: each valid frame as `Some`, and each
/// damaged region, skipped by resyncing on the magic, as one `None`.
pub(crate) fn walk_frames(bytes: &[u8]) -> impl Iterator<Item = Option<Frame<'_>>> {
    let mut offset = 0usize;
    std::iter::from_fn(move || {
        if offset >= bytes.len() {
            return None;
        }
        Some(match decode_frame_at(bytes, offset as u64) {
            Ok(frame) => {
                offset += frame.len as usize;
                Some(frame)
            }
            Err(_) => {
                offset = next_frame_probe(bytes, offset).unwrap_or(bytes.len());
                None
            }
        })
    })
}

/// The `(offset, total_len)` of every frame-shaped region in `bytes`,
/// scanning leniently. Fault injectors use this to address "frame #k"
/// in a file without trusting it to be fully clean.
#[must_use]
pub fn frame_offsets(bytes: &[u8]) -> Vec<(u64, u64)> {
    walk_frames(bytes).flatten().map(|frame| (frame.offset, frame.len)).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One [`STORE`] frame of `kind` carrying `payload`.
    pub(crate) fn store_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        STORE.append(&mut out, kind as u8, |p| p.extend_from_slice(payload));
        out
    }

    fn two_frames() -> Vec<u8> {
        let mut buf = store_frame(FrameKind::JournalHeader, b"header");
        buf.extend_from_slice(&store_frame(FrameKind::Observations, b"step zero"));
        buf
    }

    #[test]
    fn roundtrip_single_frame() {
        let buf = store_frame(FrameKind::Snapshot, b"payload bytes");
        let frame = decode_frame_at(&buf, 0).unwrap();
        assert_eq!(frame.kind, FrameKind::Snapshot as u8);
        assert_eq!(frame.payload, b"payload bytes");
        assert_eq!(frame.len as usize, buf.len());
    }

    #[test]
    fn scan_walks_concatenated_frames() {
        let buf = two_frames();
        let scan = scan_frames(&buf).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.clean_len as usize, buf.len());
        assert!(scan.torn_tail.is_none());
        assert_eq!(frame_offsets(&buf).len(), 2);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let mut buf = two_frames();
        let cut = buf.len() - 5;
        buf.truncate(cut);
        let scan = scan_frames(&buf).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(scan.torn_tail, Some(PersistError::TruncatedFrame { .. })));

        // A bare header claiming a u32::MAX payload is rejected by the
        // header check, before anything is sized from its length.
        let mut buf = two_frames();
        let clean = buf.len() as u64;
        buf.extend_from_slice(&store_frame(FrameKind::Observations, b"")[..HEADER_LEN]);
        buf[clean as usize + 8..].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = scan_frames(&buf).unwrap();
        assert_eq!((scan.frames.len(), scan.clean_len), (2, clean));
        assert!(
            matches!(scan.torn_tail, Some(PersistError::BadPayload { offset, .. }) if offset == clean)
        );
    }

    #[test]
    fn bit_flip_in_last_frame_is_a_tail_condition() {
        let mut buf = two_frames();
        let n = buf.len();
        buf[n - 6] ^= 0x40; // payload of the final frame
        let scan = scan_frames(&buf).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(scan.torn_tail, Some(PersistError::ChecksumMismatch { .. })));
    }

    #[test]
    fn bit_flip_mid_stream_is_fatal() {
        let mut buf = two_frames();
        buf[HEADER_LEN + 2] ^= 0x01; // payload of the first frame
        let err = scan_frames(&buf).unwrap_err();
        match err {
            PersistError::CorruptMidStream { offset, resync_offset } => {
                assert_eq!(offset, 0);
                assert!(resync_offset > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_bump_detected() {
        let mut buf = store_frame(FrameKind::Snapshot, b"x");
        buf[4] = 2;
        // Recompute the checksum so only the version differs.
        let body_len = buf.len() - TRAILER_LEN;
        let crc = crc32::crc32(&buf[..body_len]).to_le_bytes();
        buf[body_len..].copy_from_slice(&crc);
        let err = decode_frame_at(&buf, 0).unwrap_err();
        assert_eq!(err, PersistError::UnsupportedVersion { offset: 0, version: 2 });
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = store_frame(FrameKind::Snapshot, b"x");
        buf[0] = b'X';
        assert_eq!(decode_frame_at(&buf, 0).unwrap_err(), PersistError::BadMagic { offset: 0 });
    }

    #[test]
    fn empty_file_scans_clean() {
        let scan = scan_frames(&[]).unwrap();
        assert!(scan.frames.is_empty());
        assert!(scan.torn_tail.is_none());
        assert_eq!(scan.clean_len, 0);
    }

    /// The slice codecs write and read the bytes of the per-value ones,
    /// and a short payload fails before anything is allocated from `n`.
    #[test]
    fn f64_slices_match_per_value_codec() {
        let vs = [0.0, -0.0, 1.5, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE, 28.0];
        let mut one = vec![7u8];
        vs.iter().for_each(|&v| put_f64(&mut one, v));
        let mut many = vec![7u8];
        put_f64s(&mut many, &vs);
        assert_eq!(one, many);
        let mut r = Reader::new(&many[1..]);
        let back = r.f64s(vs.len()).unwrap();
        assert_eq!(back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), vs.map(f64::to_bits));
        r.finish().unwrap();
        let mut r = Reader::new(&many[1..]);
        r.u8().unwrap();
        assert_eq!(r.f64s(vs.len()).unwrap_err(), r.err("payload ends early"));
        let overflow = Reader::new(&many).f64s(usize::MAX).unwrap_err();
        assert_eq!(overflow, FrameError::BadPayload { offset: 0, what: "payload ends early" });
    }

    #[test]
    fn reader_reports_overlong_payload() {
        let mut r = Reader::new(&[0u8; 4]);
        r.u8().unwrap();
        let err = r.finish().unwrap_err();
        assert_eq!(err, FrameError::BadPayload { offset: 1, what: "trailing payload bytes" });
        assert!(matches!(err.at(3), PersistError::BadPayload { offset: 3, .. }));
    }
}
