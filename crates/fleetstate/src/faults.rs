//! Storage fault injection for recovery drills.
//!
//! A [`StorageFaultPlan`] mutates the on-disk bytes of the journal or
//! snapshot file the way real failures do — torn writes, truncation,
//! bit rot, duplicated appends, format-version skew, zeroed sectors —
//! so the drill can assert that recovery either succeeds (and is then
//! checked bit-identical against a reference run) or fails with a
//! typed, offset-carrying error. Silent corruption is the one outcome
//! the drill exists to rule out.

use crate::format::frame_offsets;

/// Which persisted file a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The write-ahead journal.
    Journal,
    /// The snapshot file.
    Snapshot,
}

/// One way the bytes on disk can be damaged. Frame indices are taken
/// modulo the file's frame count, byte offsets modulo its length, so a
/// seeded generator never produces an out-of-range no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// A crash mid-append: frame `frame` onward is cut, keeping only
    /// `keep_bytes` of that frame.
    TornWrite {
        /// Index of the frame the tear lands in.
        frame: usize,
        /// Bytes of that frame that made it to disk.
        keep_bytes: usize,
    },
    /// Blunt truncation at an arbitrary byte.
    Truncate {
        /// Length to truncate the file to.
        at_byte: usize,
    },
    /// A single flipped bit.
    BitFlip {
        /// Byte offset of the flip.
        offset: usize,
        /// Bit within the byte (0–7).
        bit: u8,
    },
    /// A frame appended twice (a retried write that landed both times).
    DuplicateFrame {
        /// Index of the frame to duplicate at the end of the file.
        frame: usize,
    },
    /// A frame rewritten with a bumped format version and a recomputed
    /// checksum — simulating a newer writer, not random rot.
    VersionBump {
        /// Index of the frame to bump.
        frame: usize,
    },
    /// A run of zeroed bytes (a lost sector).
    ZeroRun {
        /// Byte offset the run starts at.
        offset: usize,
        /// Length of the run.
        len: usize,
    },
}

/// A fault bound to its target file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultPlan {
    /// Which file to damage.
    pub target: FaultTarget,
    /// How to damage it.
    pub fault: StorageFault,
}

/// SplitMix64 — a self-contained mixer so seeded fault plans are
/// reproducible without touching the engine's RNG streams.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state ^= z ^ (z >> 31);
}

fn draw(state: &mut u64) -> u64 {
    splitmix64(state);
    *state
}

impl StorageFaultPlan {
    /// The `case`-th fault plan of a seeded sweep. The mapping is pure:
    /// the same `(seed, case)` always produces the same plan, so a
    /// failing drill case can be re-run in isolation.
    #[must_use]
    pub fn generate(seed: u64, case: u64) -> Self {
        let mut s = seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F);
        let target =
            if draw(&mut s) % 3 == 0 { FaultTarget::Snapshot } else { FaultTarget::Journal };
        let fault = match draw(&mut s) % 6 {
            0 => StorageFault::TornWrite {
                frame: draw(&mut s) as usize,
                keep_bytes: (draw(&mut s) % 64) as usize,
            },
            1 => StorageFault::Truncate { at_byte: draw(&mut s) as usize },
            2 => StorageFault::BitFlip {
                offset: draw(&mut s) as usize,
                bit: (draw(&mut s) % 8) as u8,
            },
            3 => StorageFault::DuplicateFrame { frame: draw(&mut s) as usize },
            4 => StorageFault::VersionBump { frame: draw(&mut s) as usize },
            _ => StorageFault::ZeroRun {
                offset: draw(&mut s) as usize,
                len: 1 + (draw(&mut s) % 96) as usize,
            },
        };
        Self { target, fault }
    }

    /// Applies the fault to `bytes`, returning a human-readable
    /// description of what was actually done (after clamping/modulo),
    /// or `None` if the file was too small to damage this way (empty,
    /// or no frames to address).
    pub fn apply(&self, bytes: &mut Vec<u8>) -> Option<String> {
        if bytes.is_empty() {
            return None;
        }
        let frames = frame_offsets(bytes);
        match self.fault {
            StorageFault::TornWrite { frame, keep_bytes } => {
                if frames.is_empty() {
                    return None;
                }
                let (off, len) = frames[frame % frames.len()];
                let keep = keep_bytes.min(len as usize - 1);
                bytes.truncate(off as usize + keep);
                Some(format!("torn write: frame at offset {off} cut to {keep} of {len} bytes"))
            }
            StorageFault::Truncate { at_byte } => {
                let at = at_byte % bytes.len();
                bytes.truncate(at);
                Some(format!("truncated to {at} bytes"))
            }
            StorageFault::BitFlip { offset, bit } => {
                let at = offset % bytes.len();
                bytes[at] ^= 1 << (bit & 7);
                Some(format!("flipped bit {} of byte {at}", bit & 7))
            }
            StorageFault::DuplicateFrame { frame } => {
                if frames.is_empty() {
                    return None;
                }
                let (off, len) = frames[frame % frames.len()];
                let dup = bytes[off as usize..(off + len) as usize].to_vec();
                bytes.extend_from_slice(&dup);
                Some(format!("duplicated frame at offset {off} ({len} bytes) at the tail"))
            }
            StorageFault::VersionBump { frame } => {
                if frames.is_empty() {
                    return None;
                }
                let (off, len) = frames[frame % frames.len()];
                let (start, end) = (off as usize, (off + len) as usize);
                bytes[start + 4] = bytes[start + 4].wrapping_add(1);
                // Recompute the checksum so only the version differs —
                // this must surface as UnsupportedVersion, not as a
                // checksum mismatch.
                let crc = numeric::crc32::crc32(&bytes[start..end - 4]);
                bytes[end - 4..end].copy_from_slice(&crc.to_le_bytes());
                Some(format!("bumped format version of frame at offset {off}"))
            }
            StorageFault::ZeroRun { offset, len } => {
                let at = offset % bytes.len();
                let end = (at + len.max(1)).min(bytes.len());
                for b in &mut bytes[at..end] {
                    *b = 0;
                }
                Some(format!("zeroed bytes [{at}, {end})"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PersistError;
    use crate::format::tests::store_frame;
    use crate::format::{decode_frame_at, FrameKind};

    fn file() -> Vec<u8> {
        let mut buf = store_frame(FrameKind::JournalHeader, b"header payload");
        buf.extend_from_slice(&store_frame(FrameKind::Observations, b"step payload 0"));
        buf.extend_from_slice(&store_frame(FrameKind::Observations, b"step payload 1"));
        buf
    }

    #[test]
    fn generation_is_deterministic() {
        for case in 0..32 {
            assert_eq!(StorageFaultPlan::generate(42, case), StorageFaultPlan::generate(42, case));
        }
        // The sweep actually varies.
        let distinct: std::collections::HashSet<_> =
            (0..32).map(|c| format!("{:?}", StorageFaultPlan::generate(42, c))).collect();
        assert!(distinct.len() > 8);
    }

    #[test]
    fn every_fault_kind_mutates_or_declines() {
        let faults = [
            StorageFault::TornWrite { frame: 5, keep_bytes: 7 },
            StorageFault::Truncate { at_byte: 1_000_000 },
            StorageFault::BitFlip { offset: 3, bit: 11 },
            StorageFault::DuplicateFrame { frame: 1 },
            StorageFault::VersionBump { frame: 0 },
            StorageFault::ZeroRun { offset: 9, len: 12 },
        ];
        for fault in faults {
            let mut bytes = file();
            let before = bytes.clone();
            let desc = StorageFaultPlan { target: FaultTarget::Journal, fault }
                .apply(&mut bytes)
                .expect("file is non-empty");
            assert!(!desc.is_empty());
            assert_ne!(bytes, before, "{fault:?} did not change the file");
        }
        let mut empty = Vec::new();
        assert!(StorageFaultPlan {
            target: FaultTarget::Journal,
            fault: StorageFault::BitFlip { offset: 0, bit: 0 }
        }
        .apply(&mut empty)
        .is_none());
    }

    #[test]
    fn version_bump_surfaces_as_unsupported_version() {
        let mut bytes = file();
        StorageFaultPlan {
            target: FaultTarget::Journal,
            fault: StorageFault::VersionBump { frame: 0 },
        }
        .apply(&mut bytes)
        .unwrap();
        assert!(matches!(
            decode_frame_at(&bytes, 0),
            Err(PersistError::UnsupportedVersion { offset: 0, version: 2 })
        ));
    }
}
