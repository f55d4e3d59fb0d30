//! Crash recovery: newest restart point + journal-tail replay.
//!
//! Recovery is a pure function of the two files on disk (and of
//! whether the risk hub records, which only decides how far back it may
//! start). It either
//! returns a fleet whose state is **bit-identical** to the state an
//! uninterrupted run would hold at the journal's last recorded step, or
//! fails with a typed [`PersistError`] naming exactly what was wrong and
//! where — it never silently installs corrupt state.
//!
//! A restart point is a snapshot plus the checkpoint written with it
//! ([`crate::snapshot::Checkpoint`]). Recovery starts from the newest
//! one and reads only the journal's header frame and the bytes past the
//! checkpoint's offset, so its cost follows the work since that
//! snapshot, not the uptime. While the [`obsv::risk`] hub records, the
//! checkpoint's per-lane realized-CR digests seed the lanes' sketches
//! and the tail replay records on top; a checkpoint saved without them
//! is then not a restart point. With no restart point, recovery cold
//! starts and replays the whole journal, which rebuilds the sketches
//! from scratch.
//!
//! The tolerance envelope covers the bytes recovery reads, and is
//! precisely what a crash can cause:
//!
//! * a **torn journal tail** (truncated or checksum-failing final frame,
//!   nothing valid after it) is dropped cleanly and flagged;
//! * a **byte-identical duplicate** journal frame (a retried append) is
//!   skipped and counted;
//! * **damaged or mismatched snapshots**, and snapshots without their
//!   checkpoint, are skipped (damaged and mismatched ones are counted) —
//!   any older restart point (or cold start) plus a longer replay
//!   substitutes for them.
//!
//! Everything else — mid-stream journal damage, skipped steps, a
//! snapshot from the future of the journal — is an error, because no
//! crash produces it and replaying around it would corrupt state. When
//! the tail does not line up with the checkpoint (a missing or shifted
//! frame at its offset, damage, a snapshot past the tail's end),
//! recovery parses the whole journal from byte 0 and reports what that
//! strict parse finds. Damage wholly before the checkpoint's offset is
//! not read, so not seen; the state recovery installs still comes only
//! from checksummed frames. [`replay_session`] reads the whole history
//! and stays strict about all of it.

use std::path::Path;

use crate::error::{io_err, PersistError};
use crate::journal::{parse_journal, read_tail, JournalContents};
use crate::runner::FleetRunner;
use crate::snapshot::scan_snapshots;
use crate::state::FleetConfig;

/// What recovery found and did — mirrored into the
/// [`obsv::TraceEvent::Recovery`] trace event and `persist.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The step the fleet resumed at (= steps the journal records).
    pub resumed_step: u64,
    /// The step of the snapshot recovery started from (0 = cold start).
    pub snapshot_step: u64,
    /// Journal steps replayed on top of the snapshot.
    pub frames_replayed: u64,
    /// Whether a torn journal tail was dropped.
    pub torn_tail_dropped: bool,
    /// Byte-identical duplicate journal frames skipped.
    pub duplicates_skipped: u64,
    /// Snapshots rejected (damaged, undecodable, or mismatched).
    pub snapshots_rejected: u64,
    /// Valid frames in the journal's clean prefix (header and
    /// duplicates included) — bookkeeping for reopening the journal.
    pub journal_frames: u64,
    /// Journal bytes recovery read: the header frame plus the tail past
    /// the restart point's checkpoint, or the whole file when it had to
    /// parse all of it.
    pub journal_bytes_read: u64,
}

/// Recovers a fleet from its journal and snapshot files.
///
/// Steps: leniently scan the snapshots and pick the newest restart
/// point (a snapshot with its checkpoint, carrying risk digests while
/// the risk hub records); read the journal tail past it, or, when the
/// tail does not line up, read + parse the whole journal (config echo
/// must match `expected`); truncate the journal file to its clean
/// prefix; restore (or cold-start) a [`FleetRunner`], seed its risk
/// sketches, and replay the journal tail **without emitting trace
/// events** — the pre-crash run already emitted them, so the merged
/// trace equals an uninterrupted run's.
///
/// # Errors
///
/// [`PersistError::Io`] if the journal is unreadable (a missing journal
/// is unrecoverable — snapshots alone cannot prove how far processing
/// got); any [`parse_journal`] error; [`PersistError::ConfigMismatch`]
/// if the journal header disagrees with `expected`;
/// [`PersistError::SnapshotAheadOfJournal`] if a valid snapshot
/// postdates the journal's history; or a replay/restore error from the
/// engine.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn recover_fleet(
    journal_path: &Path,
    snapshot_path: &Path,
    expected: &FleetConfig,
    threads: usize,
) -> Result<(FleetRunner, RecoveryOutcome), PersistError> {
    // An unreadable snapshot file scans as empty; its error surfaces
    // after the journal's own, as the strict parse orders them.
    let snapshot_bytes = match std::fs::read(snapshot_path) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err(snapshot_path, &e)),
    };
    let scan = scan_snapshots(snapshot_bytes.as_deref().unwrap_or_default(), expected);
    let newest = scan.states.iter().map(|s| s.step).max();
    let risk = obsv::risk::active();
    let best = scan
        .states
        .iter()
        .zip(&scan.checkpoints)
        .filter_map(|(state, checkpoint)| {
            Some((state, checkpoint.as_ref().filter(|c| !risk || c.risk.is_some())?))
        })
        .max_by_key(|(state, _)| state.step);

    let fast = best
        .and_then(|(_, checkpoint)| read_tail(journal_path, expected, checkpoint))
        .filter(|tail| newest.map_or(true, |n| n <= tail.first_step + tail.steps.len() as u64));
    let journal = match fast {
        Some(tail) => tail,
        None => read_journal(journal_path, expected, snapshot_bytes.map(drop), newest)?,
    };
    let journal_steps = journal.first_step + journal.steps.len() as u64;

    // Drop the torn tail on disk too, so the reopened journal appends
    // cleanly after the last valid frame.
    if journal.torn_tail {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(journal_path)
            .map_err(|e| io_err(journal_path, &e))?;
        file.set_len(journal.clean_len).map_err(|e| io_err(journal_path, &e))?;
        file.sync_data().map_err(|e| io_err(journal_path, &e))?;
    }

    let (mut runner, snapshot_step) = match best {
        Some((state, checkpoint)) => {
            let mut runner = FleetRunner::from_state(state, threads)?;
            if let Some(digests) = &checkpoint.risk {
                runner.add_risk(digests);
            }
            (runner, state.step)
        }
        None => (FleetRunner::new(expected, threads)?, 0),
    };
    let tail = &journal.steps[(snapshot_step - journal.first_step) as usize..];
    runner.run_block(tail, false)?;
    debug_assert_eq!(runner.step(), journal_steps);

    let outcome = RecoveryOutcome {
        resumed_step: journal_steps,
        snapshot_step,
        frames_replayed: tail.len() as u64,
        torn_tail_dropped: journal.torn_tail,
        duplicates_skipped: journal.duplicates_skipped,
        snapshots_rejected: scan.rejected,
        journal_frames: journal.frames,
        journal_bytes_read: journal.bytes_read,
    };
    let m = crate::obs::metrics();
    m.recoveries.inc();
    m.journal_frames_replayed.add(outcome.frames_replayed);
    if outcome.torn_tail_dropped {
        m.torn_tails_dropped.inc();
    }
    m.duplicates_skipped.add(outcome.duplicates_skipped);
    m.snapshots_rejected.add(outcome.snapshots_rejected);
    if obsv::tracer::observing() {
        obsv::tracer::set_stream(expected.meta_stream());
        obsv::tracer::begin_stop(outcome.resumed_step);
        obsv::tracer::emit(obsv::TraceEvent::Recovery {
            resumed_step: outcome.resumed_step,
            snapshot_step: outcome.snapshot_step,
            frames_replayed: outcome.frames_replayed,
            torn_tail_dropped: outcome.torn_tail_dropped,
            duplicates_skipped: outcome.duplicates_skipped,
            snapshots_rejected: outcome.snapshots_rejected,
        });
    }
    Ok((runner, outcome))
}

/// The strict path: reads and parses the whole journal, checks its
/// configuration echo, then `snapshots` (the snapshot file's read), and
/// rejects a `newest` snapshot past the journal's end.
fn read_journal(
    path: &Path,
    expected: &FleetConfig,
    snapshots: Result<(), PersistError>,
    newest: Option<u64>,
) -> Result<JournalContents, PersistError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, &e))?;
    let journal = parse_journal(&bytes)?;
    expected.ensure_matches(&journal.config)?;
    snapshots?;
    let journal_steps = journal.steps.len() as u64;
    if let Some(snapshot_step) = newest.filter(|&n| n > journal_steps) {
        return Err(PersistError::SnapshotAheadOfJournal { snapshot_step, journal_steps });
    }
    Ok(journal)
}

/// Steps per replay block in [`replay_session`] — bounds transient
/// memory without changing results (block boundaries are invisible to
/// the lane-local engine).
const REPLAY_SESSION_BLOCK: usize = 256;

/// Replays the *complete* journal — every step from zero, not just the
/// tail past a snapshot — through a fresh cold-start runner **with
/// trace emission on**, regenerating the canonical per-stop event
/// history of the whole session.
///
/// Snapshots never truncate the journal, so this works at any point in
/// a session's life: a client that missed events (it connected late, or
/// the daemon was SIGKILLed and restarted) gets the full history back
/// and can merge it with whatever it recorded — deduplicating by
/// `(stream, stop, seq)` yields exactly the uninterrupted run's trace.
/// The caller owns the tracer: enable (or point a monitor at) the
/// global tracer before calling, drain after.
///
/// # Errors
///
/// [`PersistError::Io`] if the journal is unreadable, any
/// [`parse_journal`] error, [`PersistError::ConfigMismatch`] if the
/// journal header disagrees with `expected`, or an engine error during
/// replay.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn replay_session(
    journal_path: &Path,
    expected: &FleetConfig,
    threads: usize,
) -> Result<FleetRunner, PersistError> {
    let bytes = std::fs::read(journal_path).map_err(|e| io_err(journal_path, &e))?;
    let journal = parse_journal(&bytes)?;
    expected.ensure_matches(&journal.config)?;
    let mut runner = FleetRunner::new(expected, threads)?;
    for block in journal.steps.chunks(REPLAY_SESSION_BLOCK) {
        runner.run_block(block, true)?;
    }
    Ok(runner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{PersistentFleet, JOURNAL_FILE, SNAPSHOT_FILE};
    use crate::state::encode_fleet_state;
    use std::path::PathBuf;

    fn cfg(lanes: usize) -> FleetConfig {
        FleetConfig {
            lanes,
            break_even: 28.0,
            window: Some(8),
            min_history: 4,
            seed: 20_140_601,
            trace_stream_base: 100,
        }
    }

    fn rows(lanes: usize, steps: usize, phase: u64) -> Vec<Vec<f64>> {
        (0..steps)
            .map(|t| {
                (0..lanes)
                    .map(|i| {
                        let k = (phase + t as u64 * 31 + i as u64 * 7) % 97;
                        0.5 + (k as f64) * 0.9
                    })
                    .collect()
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir()
            .join("fleetstate-recovery-tests")
            .join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn recovery_matches_uninterrupted_state() {
        let dir = tmp("clean");
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(6);
        let block = rows(6, 50, 1);

        let mut reference = FleetRunner::new(&config, 2).unwrap();
        reference.run_block(&block, false).unwrap();

        let mut fleet = PersistentFleet::create(&dir, &config, 2, 12).unwrap();
        for chunk in block.chunks(7) {
            fleet.run_block(chunk, false).unwrap();
        }
        drop(fleet); // "crash": files are already durable

        let (recovered, outcome) =
            recover_fleet(&dir.join(JOURNAL_FILE), &dir.join(SNAPSHOT_FILE), &config, 4).unwrap();
        assert_eq!(outcome.resumed_step, 50);
        assert_eq!(outcome.snapshot_step, 49);
        assert_eq!(outcome.frames_replayed, 1);
        assert!(!outcome.torn_tail_dropped);
        assert_eq!(
            encode_fleet_state(&recovered.export_state()),
            encode_fleet_state(&reference.export_state())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_reads_only_the_tail_past_the_newest_checkpoint() {
        let dir = tmp("tail");
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(5);
        let block = rows(5, 38, 6);
        // Snapshots land at steps 12, 24 and 30.
        let mut fleet = PersistentFleet::create(&dir, &config, 2, 10).unwrap();
        for chunk in block.chunks(6) {
            fleet.run_block(chunk, false).unwrap();
        }
        drop(fleet);
        // Tear the last frame, step 37.
        let jp = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&jp).unwrap();
        let offsets = crate::format::frame_offsets(&bytes);
        let (header, frame) = (offsets[0].1, offsets[1].1);
        std::fs::write(&jp, &bytes[..bytes.len() - 5]).unwrap();

        let (recovered, outcome) =
            recover_fleet(&jp, &dir.join(SNAPSHOT_FILE), &config, 3).unwrap();
        assert_eq!((outcome.resumed_step, outcome.snapshot_step), (37, 30));
        assert_eq!((outcome.frames_replayed, outcome.journal_frames), (7, 38));
        assert!(outcome.torn_tail_dropped);
        // The header frame, and everything from step 30's frame on.
        assert_eq!(outcome.journal_bytes_read, header + 8 * frame - 5);
        assert_eq!(std::fs::metadata(&jp).unwrap().len(), header + 37 * frame);
        let mut reference = FleetRunner::new(&config, 1).unwrap();
        reference.run_block(&block[..37], false).unwrap();
        assert_eq!(
            encode_fleet_state(&recovered.export_state()),
            encode_fleet_state(&reference.export_state())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_offset_shifted_mid_frame_is_not_taken_for_a_torn_tail() {
        let dir = tmp("shifted");
        std::fs::remove_dir_all(&dir).ok();
        // Six lanes: a step frame (72 bytes) outgrows the header (52).
        let config = cfg(6);
        // The snapshot at step 8 ends the journal: nothing lies past its
        // checkpoint's offset.
        let mut fleet = PersistentFleet::create(&dir, &config, 1, 4).unwrap();
        fleet.run_block(&rows(6, 8, 5), false).unwrap();
        drop(fleet);
        // A second header frame after the first shifts every step frame,
        // so the offset now lands inside step 7's frame, at bytes that
        // parse as no frame at all.
        let jp = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&jp).unwrap();
        let header = crate::format::frame_offsets(&bytes)[0].1 as usize;
        let shifted = [&bytes[..header], &bytes[..header], &bytes[header..]].concat();
        std::fs::write(&jp, &shifted).unwrap();
        // The whole-journal parse names the damage; nothing is truncated.
        assert!(matches!(
            recover_fleet(&jp, &dir.join(SNAPSHOT_FILE), &config, 1),
            Err(PersistError::UnknownFrameKind { offset, kind: 2 }) if offset == header as u64
        ));
        assert_eq!(std::fs::read(&jp).unwrap(), shifted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_session_rebuilds_full_history_despite_snapshots() {
        let dir = tmp("session");
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(4);
        let block = rows(4, 40, 21);

        let mut reference = FleetRunner::new(&config, 1).unwrap();
        reference.run_block(&block, false).unwrap();

        // Aggressive snapshot cadence: replay must still start at step 0
        // (snapshots never truncate the journal).
        let mut fleet = PersistentFleet::create(&dir, &config, 2, 5).unwrap();
        for chunk in block.chunks(6) {
            fleet.run_block(chunk, false).unwrap();
        }
        drop(fleet);

        let replayed = replay_session(&dir.join(JOURNAL_FILE), &config, 3).unwrap();
        assert_eq!(replayed.step(), 40);
        assert_eq!(
            encode_fleet_state(&replayed.export_state()),
            encode_fleet_state(&reference.export_state())
        );

        let wrong = FleetConfig { lanes: 5, ..config };
        assert!(matches!(
            replay_session(&dir.join(JOURNAL_FILE), &wrong, 1),
            Err(PersistError::ConfigMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_step() {
        let dir = tmp("torn");
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(3);
        let block = rows(3, 20, 2);
        let mut fleet = PersistentFleet::create(&dir, &config, 1, 0).unwrap();
        fleet.run_block(&block, false).unwrap();
        drop(fleet);
        // Tear the final journal frame.
        let jp = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&jp).unwrap();
        let truncated = bytes.len() - 9;
        std::fs::write(&jp, &bytes[..truncated]).unwrap();

        let (recovered, outcome) =
            recover_fleet(&jp, &dir.join(SNAPSHOT_FILE), &config, 1).unwrap();
        assert_eq!(outcome.resumed_step, 19);
        assert!(outcome.torn_tail_dropped);
        assert_eq!(outcome.snapshot_step, 0); // snapshot_every = 0: cold start

        // The file was truncated to the clean prefix on disk.
        let after = std::fs::metadata(&jp).unwrap().len();
        assert!(after < truncated as u64);

        let mut reference = FleetRunner::new(&config, 1).unwrap();
        reference.run_block(&block[..19], false).unwrap();
        assert_eq!(
            encode_fleet_state(&recovered.export_state()),
            encode_fleet_state(&reference.export_state())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_journal_is_detected() {
        let dir = tmp("stale");
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(2);
        let mut fleet = PersistentFleet::create(&dir, &config, 1, 5).unwrap();
        fleet.run_block(&rows(2, 10, 3), false).unwrap();
        drop(fleet);
        // Roll the journal back below the last snapshot (step 10) by
        // keeping only its header frame.
        let jp = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&jp).unwrap();
        let offsets = crate::format::frame_offsets(&bytes);
        let keep = (offsets[0].0 + offsets[0].1) as usize;
        std::fs::write(&jp, &bytes[..keep]).unwrap();
        assert!(matches!(
            recover_fleet(&jp, &dir.join(SNAPSHOT_FILE), &config, 1),
            Err(PersistError::SnapshotAheadOfJournal { snapshot_step: 10, journal_steps: 0 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_is_an_io_error() {
        let dir = tmp("missing");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            recover_fleet(&dir.join(JOURNAL_FILE), &dir.join(SNAPSHOT_FILE), &cfg(2), 1),
            Err(PersistError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_detected() {
        let dir = tmp("mismatch");
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(2);
        let fleet = PersistentFleet::create(&dir, &config, 1, 0).unwrap();
        drop(fleet);
        let other = FleetConfig { seed: 7, ..config };
        assert!(matches!(
            recover_fleet(&dir.join(JOURNAL_FILE), &dir.join(SNAPSHOT_FILE), &other, 1),
            Err(PersistError::ConfigMismatch { what: "seed" })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_fleet_continues_identically() {
        let dir = tmp("continue");
        std::fs::remove_dir_all(&dir).ok();
        let config = cfg(4);
        let block = rows(4, 30, 4);

        let mut reference = FleetRunner::new(&config, 1).unwrap();
        reference.run_block(&block, false).unwrap();

        let mut fleet = PersistentFleet::create(&dir, &config, 1, 7).unwrap();
        fleet.run_block(&block[..18], false).unwrap();
        drop(fleet);
        let (mut resumed, outcome) = PersistentFleet::recover(&dir, &config, 2, 7).unwrap();
        assert_eq!(outcome.resumed_step, 18);
        resumed.run_block(&block[18..], false).unwrap();
        assert_eq!(
            encode_fleet_state(&resumed.runner().export_state()),
            encode_fleet_state(&reference.export_state())
        );
        // The journal now records the whole run.
        let parsed =
            crate::journal::parse_journal(&std::fs::read(dir.join(JOURNAL_FILE)).unwrap()).unwrap();
        assert_eq!(parsed.steps.len(), 30);
        std::fs::remove_dir_all(&dir).ok();
    }
}
