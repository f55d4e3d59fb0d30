//! The write-ahead journal of per-stop observations.
//!
//! The journal is a redo log: every block of stop durations is appended
//! (and flushed) *before* the decision engine processes it, so any state
//! a crash destroys can be recomputed by replaying the journal tail on
//! top of the latest valid snapshot. One
//! [`crate::format::FrameKind::JournalHeader`] frame opens the file with
//! a configuration echo; each subsequent
//! [`crate::format::FrameKind::Observations`] frame carries one step —
//! the step index and one stop duration per lane, as raw IEEE-754 bits.
//!
//! Reading tolerates exactly the damage a crash can cause: a torn final
//! frame is dropped cleanly, and a byte-identical duplicate of the
//! previous frame (a retried append that was interrupted after the write
//! but before the bookkeeping) is skipped and counted. Everything else —
//! mid-stream damage, skipped steps, contradictory duplicates — is a
//! typed error.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::error::{io_err, PersistError};
use crate::format::{
    decode_frame_at, put_f64s, put_u64, scan_frames, scan_region, Frame, FrameError, FrameKind,
    Reader, HEADER_LEN, STORE, TRAILER_LEN,
};
use crate::snapshot::Checkpoint;
use crate::state::{decode_config, encode_config, FleetConfig};

/// Wall-clock cost of one [`Journal::append_block_timed`] call, split
/// into the buffered write and the `sync_data` flush. Timing is
/// measurement-only: it never influences what bytes are written.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AppendTiming {
    /// Seconds spent in `write_all` (page-cache copy).
    pub write_s: f64,
    /// Seconds spent in `sync_data` (the durable part).
    pub sync_s: f64,
}

/// Checks one observation row: `lanes` wide, every stop finite and
/// `>= 0`.
///
/// # Errors
///
/// [`PersistError::BadPayload`] on a row of the wrong width;
/// [`PersistError::Engine`] carrying [`skirental::Error::InvalidStop`]
/// (the first offender) on a negative or non-finite stop.
pub(crate) fn check_row(row: &[f64], lanes: usize) -> Result<(), PersistError> {
    if row.len() != lanes {
        return Err(PersistError::BadPayload {
            offset: 0,
            what: "observation row width does not match the fleet",
        });
    }
    match row.iter().find(|y| !(y.is_finite() && **y >= 0.0)) {
        Some(y) => Err(skirental::Error::InvalidStop { bits: y.to_bits() }.into()),
        None => Ok(()),
    }
}

/// [`check_row`] over a whole block, row by row: the first bad row
/// decides the error.
pub(crate) fn check_rows(rows: &[Vec<f64>], lanes: usize) -> Result<(), PersistError> {
    rows.iter().try_for_each(|row| check_row(row, lanes))
}

/// An open journal being appended to.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    config: FleetConfig,
    /// The step index the next appended frame must carry.
    next_step: u64,
    /// Frames written through this handle (header included).
    frames_written: u64,
    /// Bytes in the journal file (clean prefix on reopen, everything
    /// this handle appended since).
    bytes_written: u64,
    /// Set by a failed write or flush: the file may then end in a torn
    /// fragment and the page cache may have lost data, so nothing more
    /// is written through this handle.
    poisoned: bool,
}

impl Journal {
    /// Creates (truncating any existing file) a journal at `path` and
    /// writes its header frame.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn create(path: &Path, config: &FleetConfig) -> Result<Self, PersistError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        let mut frame = Vec::new();
        STORE.append(&mut frame, FrameKind::JournalHeader as u8, |out| encode_config(out, config));
        file.write_all(&frame).map_err(|e| io_err(path, &e))?;
        file.sync_data().map_err(|e| io_err(path, &e))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            config: *config,
            next_step: 0,
            frames_written: 1,
            bytes_written: frame.len() as u64,
            poisoned: false,
        })
    }

    /// Reopens an existing journal for appending after recovery. The
    /// caller has already truncated the file to its clean prefix and
    /// knows how many steps it holds.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn reopen(
        path: &Path,
        config: &FleetConfig,
        steps_recorded: u64,
        frames_on_disk: u64,
    ) -> Result<Self, PersistError> {
        let file = OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, &e))?;
        let bytes_written = file.metadata().map_err(|e| io_err(path, &e))?.len();
        Ok(Self {
            path: path.to_path_buf(),
            file,
            config: *config,
            next_step: steps_recorded,
            frames_written: frames_on_disk,
            bytes_written,
            poisoned: false,
        })
    }

    /// Appends one step of observations (one stop duration per lane) and
    /// flushes it to disk. Must be called *before* the engine processes
    /// the step — that ordering is what makes the journal a redo log.
    ///
    /// # Errors
    ///
    /// [`PersistError::NonContiguousStep`] if `step` is not the next
    /// expected step, [`PersistError::BadPayload`] if the row width does
    /// not match the fleet, [`PersistError::Engine`] on a negative or
    /// non-finite stop (the engine would reject it, so a journaled one
    /// could never be replayed), or [`PersistError::Io`] on write
    /// failure. Nothing is written on a validation failure. An `Io`
    /// failure poisons the journal: every later append returns
    /// [`PersistError::JournalPoisoned`] and writes nothing.
    pub fn append_step(&mut self, step: u64, row: &[f64]) -> Result<(), PersistError> {
        self.check_writable()?;
        self.check_next(step)?;
        check_row(row, self.config.lanes)?;
        let mut buf = Vec::with_capacity(HEADER_LEN + 8 + row.len() * 8 + TRAILER_LEN);
        put_observations(&mut buf, step, row);
        self.commit(&buf, 1).map(|_| ())
    }

    /// Appends a whole block of steps as one write + one flush —
    /// `rows[t]` becomes step `first_step + t`. The redo-log ordering
    /// contract is per *block*: callers journal the block, then process
    /// it. A crash mid-write leaves a torn tail that recovery drops
    /// cleanly, losing only unprocessed observations.
    ///
    /// # Errors
    ///
    /// Same as [`Journal::append_step`]; nothing is written on a
    /// validation failure.
    pub fn append_block(&mut self, first_step: u64, rows: &[Vec<f64>]) -> Result<(), PersistError> {
        self.append_block_timed(first_step, rows).map(|_| ())
    }

    /// [`Journal::append_block`] that also reports where the wall time
    /// went. The produced bytes are identical to the untimed call — the
    /// only additions are two monotonic-clock reads around the write and
    /// two around the flush.
    ///
    /// # Errors
    ///
    /// Same as [`Journal::append_block`].
    pub fn append_block_timed(
        &mut self,
        first_step: u64,
        rows: &[Vec<f64>],
    ) -> Result<AppendTiming, PersistError> {
        self.check_writable()?;
        self.check_next(first_step)?;
        check_rows(rows, self.config.lanes)?;
        if rows.is_empty() {
            return Ok(AppendTiming::default());
        }
        let mut buf =
            Vec::with_capacity(rows.len() * (HEADER_LEN + 8 + self.config.lanes * 8 + TRAILER_LEN));
        for (t, row) in rows.iter().enumerate() {
            put_observations(&mut buf, first_step + t as u64, row);
        }
        self.commit(&buf, rows.len() as u64)
    }

    /// Rejects a step that is not the next one the journal expects.
    fn check_next(&self, step: u64) -> Result<(), PersistError> {
        if step == self.next_step {
            return Ok(());
        }
        Err(PersistError::NonContiguousStep { offset: 0, expected: self.next_step, found: step })
    }

    /// Refuses every write once an append has failed.
    ///
    /// # Errors
    ///
    /// [`PersistError::JournalPoisoned`] if an earlier append failed.
    pub(crate) fn check_writable(&self) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::JournalPoisoned { path: self.path.display().to_string() });
        }
        Ok(())
    }

    /// Writes `buf` (`steps` whole observation frames) and flushes it.
    /// Either failure poisons the journal: a failed write may leave a
    /// torn fragment that a later frame would land behind, and after a
    /// failed `sync_data` a retry can report success for lost data.
    fn commit(&mut self, buf: &[u8], steps: u64) -> Result<AppendTiming, PersistError> {
        let write_start = Instant::now();
        let written = self.file.write_all(buf);
        let sync_start = Instant::now();
        if let Err(e) = written.and_then(|()| self.file.sync_data()) {
            self.poisoned = true;
            return Err(io_err(&self.path, &e));
        }
        let sync_s = sync_start.elapsed().as_secs_f64();
        let write_s = (sync_start - write_start).as_secs_f64();
        self.next_step += steps;
        self.frames_written += steps;
        self.bytes_written += buf.len() as u64;
        Ok(AppendTiming { write_s, sync_s })
    }

    /// Steps recorded so far (equivalently: the step index the next
    /// append must carry).
    #[must_use]
    pub fn steps_recorded(&self) -> u64 {
        self.next_step
    }

    /// Frames written to the file, header included.
    #[must_use]
    pub fn frames_written(&self) -> u64 {
        self.frames_written
    }

    /// Bytes in the journal file as of this handle's last append.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// A parsed journal: the whole of it from [`parse_journal`], or the
/// tail past a checkpoint when recovery reads only that.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// The configuration echo from the header frame.
    pub config: FleetConfig,
    /// The step of `steps[0]` (0 for a whole journal).
    pub first_step: u64,
    /// One row of observations per recorded step, in step order.
    pub steps: Vec<Vec<f64>>,
    /// Whether a torn tail was dropped.
    pub torn_tail: bool,
    /// Byte-identical duplicate frames skipped during the walk.
    pub duplicates_skipped: u64,
    /// Bytes of the clean prefix — truncate the file here before
    /// appending again.
    pub clean_len: u64,
    /// Valid frames in the clean prefix (header included, duplicates
    /// included).
    pub frames: u64,
    /// Journal bytes read to parse it.
    pub bytes_read: u64,
}

/// Appends one [`FrameKind::Observations`] frame: the step, then the
/// row's stops as raw bits.
fn put_observations(out: &mut Vec<u8>, step: u64, row: &[f64]) {
    STORE.append(out, FrameKind::Observations as u8, |out| {
        put_u64(out, step);
        put_f64s(out, row);
    });
}

fn decode_observations(payload: &[u8], lanes: usize) -> Result<(u64, Vec<f64>), FrameError> {
    let mut r = Reader::new(payload);
    let step = r.u64()?;
    let row = r.f64s(lanes)?;
    r.finish()?;
    Ok((step, row))
}

/// Decodes a [`FrameKind::JournalHeader`] frame's configuration echo.
fn decode_header(frame: &Frame<'_>) -> Result<FleetConfig, PersistError> {
    if frame.kind != FrameKind::JournalHeader as u8 {
        return Err(PersistError::MissingJournalHeader);
    }
    let mut r = Reader::new(frame.payload);
    let config = decode_config(&mut r).and_then(|c| r.finish().map(|()| c));
    config.map_err(|e| e.at(frame.offset))
}

/// Parses journal bytes: header first, then observation frames in strict
/// step order. A byte-identical consecutive duplicate frame is skipped
/// and counted; a torn tail is dropped and flagged.
///
/// # Errors
///
/// [`PersistError::MissingJournalHeader`] if the file does not open with
/// a header frame, [`PersistError::CorruptMidStream`] on damage followed
/// by valid frames, [`PersistError::UnknownFrameKind`] on a foreign
/// frame, [`PersistError::NonContiguousStep`] on a skipped or
/// contradictory step, or [`PersistError::BadPayload`] on a malformed
/// payload.
pub fn parse_journal(bytes: &[u8]) -> Result<JournalContents, PersistError> {
    let scan = scan_frames(bytes)?;
    let header = scan.frames.first().ok_or(PersistError::MissingJournalHeader)?;
    let config = decode_header(header)?;
    let (steps, duplicates_skipped) = parse_steps(&scan.frames[1..], config.lanes, 0)?;
    Ok(JournalContents {
        config,
        first_step: 0,
        steps,
        torn_tail: scan.torn_tail.is_some(),
        duplicates_skipped,
        clean_len: scan.clean_len,
        frames: scan.frames.len() as u64,
        bytes_read: bytes.len() as u64,
    })
}

/// The observation rows of `frames`, which must start at step
/// `first_step` and count up by one; a byte-identical repeat of the
/// previous frame is skipped and counted. Returns the rows and the
/// number of repeats skipped.
fn parse_steps(
    frames: &[Frame<'_>],
    lanes: usize,
    first_step: u64,
) -> Result<(Vec<Vec<f64>>, u64), PersistError> {
    let mut steps: Vec<Vec<f64>> = Vec::with_capacity(frames.len());
    let mut duplicates_skipped = 0u64;
    let mut prev: Option<&Frame<'_>> = None;
    for frame in frames {
        if frame.kind != FrameKind::Observations as u8 {
            return Err(PersistError::UnknownFrameKind { offset: frame.offset, kind: frame.kind });
        }
        // A retried append interrupted between the write and the
        // bookkeeping leaves the previous frame repeated verbatim.
        if prev.is_some_and(|p| p.payload == frame.payload) {
            duplicates_skipped += 1;
            continue;
        }
        let (step, row) =
            decode_observations(frame.payload, lanes).map_err(|e| e.at(frame.offset))?;
        let expected = first_step + steps.len() as u64;
        if step != expected {
            return Err(PersistError::NonContiguousStep {
                offset: frame.offset,
                expected,
                found: step,
            });
        }
        steps.push(row);
        prev = Some(frame);
    }
    Ok((steps, duplicates_skipped))
}

/// The journal past `checkpoint`, reading only the header frame and the
/// bytes from the checkpoint's offset to the end of the file.
///
/// The first frame at the offset must be step `checkpoint.step`, which
/// proves the offset is the frame boundary the checkpoint recorded; the
/// frames after it parse by the [`parse_journal`] rules. With no whole
/// frame past the offset, the bytes there must be empty or one torn
/// frame that opens with the frame magic. Damage wholly before the
/// offset is not read, so not seen. `None` when anything does not match
/// — the caller then parses the whole journal, which names the error.
pub(crate) fn read_tail(
    path: &Path,
    expected: &FleetConfig,
    checkpoint: &Checkpoint,
) -> Option<JournalContents> {
    let offset = checkpoint.journal_offset;
    let mut file = File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    let header = STORE.read_frame(&mut file).ok()??;
    let header_len = header.len() as u64;
    let config = decode_header(&decode_frame_at(&header, 0).ok()?).ok()?;
    expected.ensure_matches(&config).ok()?;
    if !(header_len..=len).contains(&offset) {
        return None;
    }
    file.seek(SeekFrom::Start(offset)).ok()?;
    let mut bytes = Vec::with_capacity((len - offset) as usize);
    file.read_to_end(&mut bytes).ok()?;
    let scan = scan_region(&bytes, offset).ok()?;
    if scan.frames.is_empty() && !(bytes.is_empty() || bytes.starts_with(&STORE.magic)) {
        return None;
    }
    let (steps, duplicates_skipped) =
        parse_steps(&scan.frames, config.lanes, checkpoint.step).ok()?;
    Some(JournalContents {
        config,
        first_step: checkpoint.step,
        steps,
        torn_tail: scan.torn_tail.is_some(),
        duplicates_skipped,
        clean_len: scan.clean_len,
        frames: checkpoint.journal_frames + scan.frames.len() as u64,
        bytes_read: header_len + bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::tests::store_frame;
    use crate::format::{frame_offsets, WIRE};

    fn cfg() -> FleetConfig {
        FleetConfig {
            lanes: 3,
            break_even: 28.0,
            window: None,
            min_history: 2,
            seed: 1,
            trace_stream_base: 0,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fleetstate-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// A journal whose device refuses every write (`/dev/full` fails
    /// with `ENOSPC`): the first append fails with `Io`, and every
    /// append after it with the poison error, before any byte is
    /// written or any counter moves.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_poisons_the_journal() {
        let mut journal = Journal::reopen(Path::new("/dev/full"), &cfg(), 5, 6).unwrap();
        let before = (journal.steps_recorded(), journal.bytes_written(), journal.frames_written());
        let row = vec![1.0, 2.0, 3.0];
        assert!(matches!(journal.append_step(5, &row), Err(PersistError::Io { .. })));
        let poisoned = Err(PersistError::JournalPoisoned { path: "/dev/full".into() });
        assert_eq!(journal.check_writable(), poisoned);
        assert_eq!(journal.append_step(5, &row), poisoned);
        assert_eq!(journal.append_block(5, &[row.clone(), row]), poisoned);
        // Even a block that validation would refuse sees the poison.
        assert_eq!(journal.append_block(9, &[vec![-1.0]]), poisoned);
        let after = (journal.steps_recorded(), journal.bytes_written(), journal.frames_written());
        assert_eq!(after, before);
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path, &cfg()).unwrap();
        j.append_step(0, &[1.0, 2.0, 3.0]).unwrap();
        j.append_step(1, &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(j.steps_recorded(), 2);
        assert_eq!(j.frames_written(), 3);
        let bytes = std::fs::read(&path).unwrap();
        let parsed = parse_journal(&bytes).unwrap();
        assert_eq!(parsed.config, cfg());
        assert_eq!(parsed.steps, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.duplicates_skipped, 0);
        assert_eq!(parsed.clean_len as usize, bytes.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_enforces_contiguity_and_width() {
        let path = tmp("contiguity");
        let mut j = Journal::create(&path, &cfg()).unwrap();
        assert!(matches!(
            j.append_step(5, &[1.0, 2.0, 3.0]),
            Err(PersistError::NonContiguousStep { expected: 0, found: 5, .. })
        ));
        assert!(matches!(j.append_step(0, &[1.0]), Err(PersistError::BadPayload { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_dropped_cleanly() {
        let path = tmp("torn");
        let mut j = Journal::create(&path, &cfg()).unwrap();
        j.append_step(0, &[1.0, 2.0, 3.0]).unwrap();
        j.append_step(1, &[4.0, 5.0, 6.0]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() - 7;
        bytes.truncate(cut);
        let parsed = parse_journal(&bytes).unwrap();
        assert_eq!(parsed.steps.len(), 1);
        assert!(parsed.torn_tail);
        assert!(parsed.clean_len < cut as u64);
        // A wire frame appended to a journal is foreign bytes at the
        // tail: dropped as torn, never read as a step.
        let mut bytes = std::fs::read(&path).unwrap();
        let clean = bytes.len() as u64;
        WIRE.append(&mut bytes, FrameKind::Observations as u8, |out| put_u64(out, 2));
        let parsed = parse_journal(&bytes).unwrap();
        assert_eq!((parsed.steps.len(), parsed.torn_tail, parsed.clean_len), (2, true, clean));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_frame_skipped_and_counted() {
        let path = tmp("dup");
        let mut j = Journal::create(&path, &cfg()).unwrap();
        j.append_step(0, &[1.0, 2.0, 3.0]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let offsets = frame_offsets(&bytes);
        let (off, len) = offsets[1];
        let dup = bytes[off as usize..(off + len) as usize].to_vec();
        bytes.extend_from_slice(&dup);
        let parsed = parse_journal(&bytes).unwrap();
        assert_eq!(parsed.steps.len(), 1);
        assert_eq!(parsed.duplicates_skipped, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn skipped_step_is_an_error() {
        let path = tmp("skip");
        let mut j = Journal::create(&path, &cfg()).unwrap();
        j.append_step(0, &[1.0, 2.0, 3.0]).unwrap();
        j.append_step(1, &[4.0, 5.0, 6.0]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Splice out the middle observation frame so steps jump 0 -> skip.
        let offsets = frame_offsets(&bytes);
        let (off, len) = offsets[1];
        let mut spliced = bytes[..off as usize].to_vec();
        spliced.extend_from_slice(&bytes[(off + len) as usize..]);
        assert!(matches!(
            parse_journal(&spliced),
            Err(PersistError::NonContiguousStep { expected: 0, found: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_is_an_error() {
        let frame = store_frame(FrameKind::Observations, &[0u8; 8]);
        assert!(matches!(parse_journal(&frame), Err(PersistError::MissingJournalHeader)));
        assert!(matches!(parse_journal(&[]), Err(PersistError::MissingJournalHeader)));
    }

    #[test]
    fn append_block_matches_per_step_appends() {
        let (pa, pb) = (tmp("block-a"), tmp("block-b"));
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]];
        let mut a = Journal::create(&pa, &cfg()).unwrap();
        for (t, row) in rows.iter().enumerate() {
            a.append_step(t as u64, row).unwrap();
        }
        let mut b = Journal::create(&pb, &cfg()).unwrap();
        b.append_block(0, &rows).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        assert_eq!(a.steps_recorded(), b.steps_recorded());
        assert_eq!(a.frames_written(), b.frames_written());
        // Contiguity and width are enforced before anything is written.
        assert!(matches!(
            b.append_block(7, &rows),
            Err(PersistError::NonContiguousStep { expected: 3, found: 7, .. })
        ));
        assert!(matches!(b.append_block(3, &[vec![1.0]]), Err(PersistError::BadPayload { .. })));
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        assert_eq!(b.bytes_written(), std::fs::read(&pb).unwrap().len() as u64);
        assert_eq!(a.bytes_written(), b.bytes_written());
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn timed_append_produces_identical_bytes_and_tracks_length() {
        let (pa, pb) = (tmp("timed-a"), tmp("timed-b"));
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let mut a = Journal::create(&pa, &cfg()).unwrap();
        a.append_block(0, &rows).unwrap();
        let mut b = Journal::create(&pb, &cfg()).unwrap();
        let timing = b.append_block_timed(0, &rows).unwrap();
        assert!(timing.write_s >= 0.0 && timing.sync_s >= 0.0);
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        // An empty block writes nothing and costs nothing.
        assert_eq!(b.append_block_timed(2, &[]).unwrap(), AppendTiming::default());
        assert_eq!(b.bytes_written(), std::fs::read(&pb).unwrap().len() as u64);
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn reopen_resumes_appending() {
        let path = tmp("reopen");
        let mut j = Journal::create(&path, &cfg()).unwrap();
        j.append_step(0, &[1.0, 2.0, 3.0]).unwrap();
        drop(j);
        let mut j = Journal::reopen(&path, &cfg(), 1, 2).unwrap();
        j.append_step(1, &[4.0, 5.0, 6.0]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(j.bytes_written(), bytes.len() as u64, "reopen seeds byte count from disk");
        let parsed = parse_journal(&bytes).unwrap();
        assert_eq!(parsed.steps.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
