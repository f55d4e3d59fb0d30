//! Snapshot file handling.
//!
//! Snapshots are appended to a single file, newest last. Each is one
//! [`FrameKind::Snapshot`] frame followed, in the same write and the
//! same flush, by one [`FrameKind::Checkpoint`] frame ([`Checkpoint`]):
//! the journal's length at the snapshot's step, so recovery can seek
//! straight to the journal tail, and the fleet's realized-CR sketches,
//! so it need not re-decide history to rebuild them. Only such a pair
//! is a restart point; a snapshot without its checkpoint (a torn pair,
//! or a file written by [`append_snapshot`] alone) is decoded but
//! skipped, and recovery falls back to an older pair or a cold start.
//!
//! Because every frame is independently checksummed, the reader scans
//! the file leniently: damaged regions, frames that fail to decode, and
//! snapshots from a different configuration are *rejected and counted*
//! rather than aborting recovery — any one valid pair is enough, and the
//! journal can always rebuild from cold start if none survive.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use obsv::risk::{SketchDigest, BOUND_COUNT};

use crate::error::{io_err, PersistError};
use crate::format::{put_u64, walk_frames, FrameError, FrameKind, Reader, STORE};
use crate::state::{decode_fleet_state, encode_fleet_state, FleetConfig, FleetState};

/// What makes a snapshot a restart point: written as the
/// [`FrameKind::Checkpoint`] frame right after its snapshot.
///
/// Payload: `step`, `journal_offset` and `journal_frames` as `u64`s,
/// then one byte — `0` when risk was not recorded, `1` when one sparse
/// digest per lane follows: a bucket count `n` (`u8`), then `n`
/// ascending `(index: u8, count: u64)` pairs, 9 bytes per non-zero
/// bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The step of the snapshot this checkpoint completes.
    pub step: u64,
    /// Journal bytes at that step: the file offset of step `step`'s
    /// frame, the first one the snapshot does not cover.
    pub journal_offset: u64,
    /// Journal frames at that step, header included.
    pub journal_frames: u64,
    /// Every lane's realized-CR digest, in lane order; `None` when the
    /// risk hub was not recording.
    pub risk: Option<Vec<SketchDigest>>,
}

fn encode_checkpoint(out: &mut Vec<u8>, checkpoint: &Checkpoint) {
    put_u64(out, checkpoint.step);
    put_u64(out, checkpoint.journal_offset);
    put_u64(out, checkpoint.journal_frames);
    let Some(digests) = &checkpoint.risk else {
        out.push(0);
        return;
    };
    out.push(1);
    for digest in digests {
        out.push(digest.buckets.len() as u8);
        for &(index, count) in &digest.buckets {
            out.push(index as u8);
            put_u64(out, count);
        }
    }
}

/// Decodes a [`Checkpoint`] payload of a `lanes`-wide fleet. Digests
/// must list at most one non-zero count per bucket, in ascending bucket
/// order.
fn decode_checkpoint(payload: &[u8], lanes: usize) -> Result<Checkpoint, FrameError> {
    let mut r = Reader::new(payload);
    let (step, journal_offset, journal_frames) = (r.u64()?, r.u64()?, r.u64()?);
    let risk = match r.u8()? {
        0 => None,
        1 => Some((0..lanes).map(|_| decode_digest(&mut r)).collect::<Result<_, _>>()?),
        _ => return Err(r.err("unknown risk marker")),
    };
    r.finish()?;
    Ok(Checkpoint { step, journal_offset, journal_frames, risk })
}

fn decode_digest(r: &mut Reader<'_>) -> Result<SketchDigest, FrameError> {
    let n = usize::from(r.u8()?);
    let mut digest = SketchDigest { count: 0, buckets: Vec::with_capacity(n) };
    let mut lowest = 0u32;
    for _ in 0..n {
        let (index, count) = (u32::from(r.u8()?), r.u64()?);
        if index < lowest || index as usize > BOUND_COUNT || count == 0 {
            return Err(r.err("digest bucket out of order, out of range or empty"));
        }
        lowest = index + 1;
        digest.count = digest.count.checked_add(count).ok_or(r.err("digest count overflows"))?;
        digest.buckets.push((index, count));
    }
    Ok(digest)
}

/// Appends one snapshot frame to the file at `path` (creating it if
/// absent) and flushes it. Returns the encoded frame's size in bytes.
///
/// The snapshot alone is not a restart point: recovery also needs the
/// [`Checkpoint`] that [`crate::PersistentFleet::snapshot`] writes with
/// it.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failure.
pub fn append_snapshot(path: &Path, state: &FleetState) -> Result<u64, PersistError> {
    append_frames(path, state, None)
}

/// Appends a snapshot frame and, when given, its checkpoint frame in one
/// write and one flush. Returns the bytes appended.
pub(crate) fn append_frames(
    path: &Path,
    state: &FleetState,
    checkpoint: Option<&Checkpoint>,
) -> Result<u64, PersistError> {
    let mut frames = Vec::new();
    STORE.append(&mut frames, FrameKind::Snapshot as u8, |out| {
        out.extend_from_slice(&encode_fleet_state(state));
    });
    if let Some(checkpoint) = checkpoint {
        STORE.append(&mut frames, FrameKind::Checkpoint as u8, |out| {
            encode_checkpoint(out, checkpoint);
        });
    }
    let mut file =
        OpenOptions::new().append(true).create(true).open(path).map_err(|e| io_err(path, &e))?;
    file.write_all(&frames).map_err(|e| io_err(path, &e))?;
    file.sync_data().map_err(|e| io_err(path, &e))?;
    Ok(frames.len() as u64)
}

/// The result of leniently scanning a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotScan {
    /// Every snapshot that decoded cleanly under `expected`, in file
    /// order.
    pub states: Vec<FleetState>,
    /// `checkpoints[i]` is the checkpoint frame that directly follows
    /// `states[i]` and names the same step, if one does; only such a
    /// pair is a restart point.
    pub checkpoints: Vec<Option<Checkpoint>>,
    /// Regions or frames that were rejected: corrupt bytes, foreign
    /// frame kinds, undecodable payloads, or configuration mismatches.
    /// Checkpoint frames are never counted here.
    pub rejected: u64,
}

/// Scans snapshot-file bytes leniently, keeping every snapshot that is
/// frame-valid, payload-valid, and matches `expected`, paired with its
/// checkpoint. Damage never aborts the scan — it resyncs on the next
/// frame magic and counts the loss in [`SnapshotScan::rejected`].
#[must_use]
pub fn scan_snapshots(bytes: &[u8], expected: &FleetConfig) -> SnapshotScan {
    let mut scan = SnapshotScan { states: Vec::new(), checkpoints: Vec::new(), rejected: 0 };
    // Whether the previous frame was a snapshot still waiting for its
    // checkpoint.
    let mut open = false;
    for frame in walk_frames(bytes) {
        if let Some(f) = frame.as_ref().filter(|f| f.kind == FrameKind::Checkpoint as u8) {
            if let (true, Some(state), Some(slot)) =
                (std::mem::take(&mut open), scan.states.last(), scan.checkpoints.last_mut())
            {
                let checkpoint = decode_checkpoint(f.payload, expected.lanes).ok();
                *slot = checkpoint.filter(|c| c.step == state.step);
            }
            continue;
        }
        let state = frame
            .filter(|f| f.kind == FrameKind::Snapshot as u8)
            .and_then(|f| decode_fleet_state(f.payload, f.offset).ok())
            .filter(|state| expected.ensure_matches(&state.config).is_ok());
        open = state.is_some();
        match state {
            Some(state) => {
                scan.states.push(state);
                scan.checkpoints.push(None);
            }
            None => scan.rejected += 1,
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::WIRE;
    use crate::state::LaneSnapshot;
    use skirental::batch::LaneState;
    use std::path::PathBuf;

    fn cfg() -> FleetConfig {
        FleetConfig {
            lanes: 1,
            break_even: 28.0,
            window: None,
            min_history: 2,
            seed: 1,
            trace_stream_base: 0,
        }
    }

    fn state_at(step: u64) -> FleetState {
        FleetState {
            config: cfg(),
            step,
            lanes: vec![LaneSnapshot {
                lane: LaneState {
                    count: step as u32,
                    short_sum: step as f64,
                    sum_sq: 0.0,
                    long_count: 0,
                    head: 0,
                    ring: Vec::new(),
                },
                rng_key: 7,
                rng_ctr: step,
                online: 0.0,
                offline: 0.0,
            }],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fleetstate-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn append_then_scan_recovers_all() {
        let path = tmp("append");
        std::fs::remove_file(&path).ok();
        for step in [10, 20, 30] {
            append_snapshot(&path, &state_at(step)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_snapshots(&bytes, &cfg());
        assert_eq!(scan.states.iter().map(|s| s.step).collect::<Vec<_>>(), vec![10, 20, 30]);
        assert_eq!(scan.rejected, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_snapshot_rejected_not_fatal() {
        let path = tmp("damaged");
        std::fs::remove_file(&path).ok();
        append_snapshot(&path, &state_at(10)).unwrap();
        let first_len = std::fs::metadata(&path).unwrap().len() as usize;
        append_snapshot(&path, &state_at(20)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first_len / 2] ^= 0xFF; // damage the first snapshot
        let scan = scan_snapshots(&bytes, &cfg());
        assert_eq!(scan.states.iter().map(|s| s.step).collect::<Vec<_>>(), vec![20]);
        assert_eq!(scan.rejected, 1);
        // A wire frame carrying a valid snapshot payload is still rejected.
        let payload = encode_fleet_state(&state_at(30));
        WIRE.append(&mut bytes, FrameKind::Snapshot as u8, |out| out.extend_from_slice(&payload));
        let scan = scan_snapshots(&bytes, &cfg());
        assert_eq!(scan.states.iter().map(|s| s.step).collect::<Vec<_>>(), vec![20]);
        assert_eq!(scan.rejected, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_mismatch_rejected_not_fatal() {
        let path = tmp("mismatch");
        std::fs::remove_file(&path).ok();
        append_snapshot(&path, &state_at(10)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let other = FleetConfig { seed: 999, ..cfg() };
        let scan = scan_snapshots(&bytes, &other);
        assert!(scan.states.is_empty());
        assert_eq!(scan.rejected, 1);
    }

    fn checkpoint_at(step: u64, risk: bool) -> Checkpoint {
        let digest = SketchDigest { count: 7, buckets: vec![(0, 2), (9, 4), (97, 1)] };
        Checkpoint {
            step,
            journal_offset: 1000 + step,
            journal_frames: 1 + step,
            risk: risk.then(|| vec![digest]),
        }
    }

    #[test]
    fn checkpoints_pair_with_the_snapshot_before_them() {
        let path = tmp("pairs");
        std::fs::remove_file(&path).ok();
        append_frames(&path, &state_at(10), Some(&checkpoint_at(10, false))).unwrap();
        append_frames(&path, &state_at(20), Some(&checkpoint_at(20, true))).unwrap();
        // A snapshot alone, and one followed by a checkpoint naming
        // another step: neither is a restart point, neither is rejected.
        append_snapshot(&path, &state_at(30)).unwrap();
        append_frames(&path, &state_at(40), Some(&checkpoint_at(39, true))).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let scan = scan_snapshots(&bytes, &cfg());
        assert_eq!(scan.states.iter().map(|s| s.step).collect::<Vec<_>>(), vec![10, 20, 30, 40]);
        assert_eq!(
            scan.checkpoints,
            vec![Some(checkpoint_at(10, false)), Some(checkpoint_at(20, true)), None, None]
        );
        assert_eq!(scan.rejected, 0);

        // A checkpoint is 25 bytes plus 1 + 9 per bucket per lane.
        let mut payload = Vec::new();
        encode_checkpoint(&mut payload, &checkpoint_at(20, true));
        assert_eq!(payload.len(), 25 + 1 + 3 * 9);
        assert_eq!(decode_checkpoint(&payload, 1).unwrap(), checkpoint_at(20, true));
        assert!(decode_checkpoint(&payload, 2).is_err(), "one digest per lane");
        // Empty buckets, buckets out of order and buckets past the
        // overflow bucket are refused.
        for (at, byte) in [(27, 0u8), (35, 0), (26, 98)] {
            let mut bad = payload.clone();
            bad[at] = byte;
            assert!(decode_checkpoint(&bad, 1).is_err(), "byte {at} = {byte}");
        }

        // Damage to a checkpoint unpairs its snapshot and is counted.
        let mut damaged = bytes.clone();
        let (offset, len) = crate::format::frame_offsets(&bytes)[3];
        damaged[(offset + len / 2) as usize] ^= 0x10;
        let scan = scan_snapshots(&damaged, &cfg());
        assert_eq!(scan.states.len(), 4);
        assert_eq!(scan.checkpoints[1], None);
        assert_eq!(scan.rejected, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_or_missing_file_scans_empty() {
        let scan = scan_snapshots(&[], &cfg());
        assert!(scan.states.is_empty());
        assert_eq!(scan.rejected, 0);
    }
}
