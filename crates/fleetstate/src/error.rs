//! The typed, offset-carrying error taxonomy of the persistence layer.
//!
//! Every failure mode of snapshot/journal decoding names the byte offset
//! (and where relevant the frame) at which it was detected, so a
//! corruption report can be tied to a specific location in the file —
//! recovery either succeeds cleanly or fails with one of these, never by
//! silently installing corrupt state.

use std::fmt;

/// Why a persistence operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// An I/O error from the filesystem, with the path it hit.
    Io {
        /// The file being read or written.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// A frame that extends past the end of the file — at the tail of a
    /// journal this is classified as a torn write and dropped cleanly;
    /// anywhere it cannot be, it is this error.
    TruncatedFrame {
        /// Byte offset of the frame's header.
        offset: u64,
        /// Bytes the frame claims to need.
        needed: u64,
        /// Bytes actually available from `offset`.
        available: u64,
    },
    /// Bytes at a frame boundary that are not the frame magic.
    BadMagic {
        /// Byte offset where a frame header was expected.
        offset: u64,
    },
    /// A frame written by a newer (or corrupted-into-nonsense) format
    /// version.
    UnsupportedVersion {
        /// Byte offset of the frame's header.
        offset: u64,
        /// The version the header claims.
        version: u16,
    },
    /// The frame's CRC-32 does not match its contents.
    ChecksumMismatch {
        /// Byte offset of the frame's header.
        offset: u64,
        /// The checksum stored in the frame.
        stored: u32,
        /// The checksum computed over the frame's bytes.
        computed: u32,
    },
    /// A structurally valid frame of a kind this reader does not accept
    /// in this file.
    UnknownFrameKind {
        /// Byte offset of the frame's header.
        offset: u64,
        /// The kind byte the header carries.
        kind: u8,
    },
    /// Corruption in the middle of a journal: an unreadable region
    /// *followed by* further valid frames. Unlike a torn tail (the
    /// expected artifact of a crash mid-append), this means recorded
    /// history was damaged after the fact, and replaying around it would
    /// silently corrupt state.
    CorruptMidStream {
        /// Byte offset where decoding first failed.
        offset: u64,
        /// Byte offset of the next valid frame found after the damage.
        resync_offset: u64,
    },
    /// A CRC-valid frame whose payload does not decode — a writer bug or
    /// a deliberately crafted file, never random corruption (the
    /// checksum would have caught that).
    BadPayload {
        /// Byte offset of the frame's header.
        offset: u64,
        /// What was wrong with the payload.
        what: &'static str,
    },
    /// Journal observation frames out of order: a step was skipped or
    /// repeated with different contents.
    NonContiguousStep {
        /// Byte offset of the offending frame's header.
        offset: u64,
        /// The step the journal should carry next.
        expected: u64,
        /// The step the frame actually carries.
        found: u64,
    },
    /// The journal's first frame is not a journal header.
    MissingJournalHeader,
    /// A persisted configuration echo disagrees with the configuration
    /// the caller is recovering under.
    ConfigMismatch {
        /// Which field disagrees.
        what: &'static str,
    },
    /// A valid snapshot captures a step later than the journal records —
    /// the stale-journal mismatch. Journal history was lost; rolling the
    /// fleet back silently would hide that, so it is an error.
    SnapshotAheadOfJournal {
        /// The step of the newest valid snapshot.
        snapshot_step: u64,
        /// Steps the journal actually records.
        journal_steps: u64,
    },
    /// An earlier append to this journal failed, so the file's tail is
    /// unknown; nothing more is written until the directory is
    /// recovered.
    JournalPoisoned {
        /// The journal file.
        path: String,
    },
    /// The decision engine rejected restored or replayed state.
    Engine(skirental::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, message } => write!(f, "i/o error on {path}: {message}"),
            Self::TruncatedFrame { offset, needed, available } => write!(
                f,
                "truncated frame at offset {offset}: needs {needed} bytes, {available} available"
            ),
            Self::BadMagic { offset } => {
                write!(f, "bad frame magic at offset {offset}")
            }
            Self::UnsupportedVersion { offset, version } => {
                write!(f, "unsupported frame version {version} at offset {offset}")
            }
            Self::ChecksumMismatch { offset, stored, computed } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {stored:#010x}, \
                 computed {computed:#010x}"
            ),
            Self::UnknownFrameKind { offset, kind } => {
                write!(f, "unknown frame kind {kind} at offset {offset}")
            }
            Self::CorruptMidStream { offset, resync_offset } => write!(
                f,
                "corrupt frame mid-stream at offset {offset} \
                 (valid frames resume at offset {resync_offset})"
            ),
            Self::BadPayload { offset, what } => {
                write!(f, "bad frame payload at offset {offset}: {what}")
            }
            Self::NonContiguousStep { offset, expected, found } => write!(
                f,
                "non-contiguous journal at offset {offset}: expected step {expected}, \
                 found {found}"
            ),
            Self::MissingJournalHeader => {
                write!(f, "journal does not start with a journal header frame")
            }
            Self::ConfigMismatch { what } => {
                write!(f, "persisted configuration disagrees on {what}")
            }
            Self::SnapshotAheadOfJournal { snapshot_step, journal_steps } => write!(
                f,
                "snapshot at step {snapshot_step} is ahead of the journal \
                 ({journal_steps} steps recorded): journal history was lost"
            ),
            Self::JournalPoisoned { path } => write!(
                f,
                "journal {path} is poisoned by an earlier failed append; recover the \
                 directory before writing again"
            ),
            Self::Engine(e) => write!(f, "decision engine rejected persisted state: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<skirental::Error> for PersistError {
    fn from(e: skirental::Error) -> Self {
        Self::Engine(e)
    }
}

/// Builds an [`PersistError::Io`] from a path and an [`std::io::Error`].
pub(crate) fn io_err(path: &std::path::Path, e: &std::io::Error) -> PersistError {
    PersistError::Io { path: path.display().to_string(), message: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_for_every_variant() {
        let errs = [
            PersistError::Io { path: "x".into(), message: "denied".into() },
            PersistError::TruncatedFrame { offset: 4, needed: 20, available: 3 },
            PersistError::BadMagic { offset: 0 },
            PersistError::UnsupportedVersion { offset: 12, version: 9 },
            PersistError::ChecksumMismatch { offset: 12, stored: 1, computed: 2 },
            PersistError::UnknownFrameKind { offset: 24, kind: 255 },
            PersistError::CorruptMidStream { offset: 36, resync_offset: 60 },
            PersistError::BadPayload { offset: 0, what: "short" },
            PersistError::NonContiguousStep { offset: 48, expected: 3, found: 5 },
            PersistError::MissingJournalHeader,
            PersistError::ConfigMismatch { what: "lanes" },
            PersistError::SnapshotAheadOfJournal { snapshot_step: 32, journal_steps: 20 },
            PersistError::JournalPoisoned { path: "x".into() },
            PersistError::Engine(skirental::Error::EmptyTrace),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn engine_error_has_source() {
        let e: PersistError = skirental::Error::EmptyTrace.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
