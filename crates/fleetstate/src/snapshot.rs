//! Snapshot file handling.
//!
//! Snapshots are appended to a single file, newest last, each as one
//! [`crate::format::FrameKind::Snapshot`] frame. Because every frame is
//! independently checksummed, the reader can scan the file leniently:
//! damaged regions, frames that fail to decode, and snapshots from a
//! different configuration are *rejected and counted* rather than
//! aborting recovery — any one valid snapshot is enough, and the journal
//! can always rebuild from cold start if none survive.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use crate::error::{io_err, PersistError};
use crate::format::{walk_frames, FrameKind, HEADER_LEN, STORE, TRAILER_LEN};
use crate::state::{decode_fleet_state, encode_fleet_state, FleetConfig, FleetState};

/// Appends one snapshot frame to the file at `path` (creating it if
/// absent) and flushes it. Returns the encoded frame's size in bytes.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failure.
pub fn append_snapshot(path: &Path, state: &FleetState) -> Result<u64, PersistError> {
    let payload = encode_fleet_state(state);
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    STORE.append(&mut frame, FrameKind::Snapshot as u8, |out| out.extend_from_slice(&payload));
    let mut file =
        OpenOptions::new().append(true).create(true).open(path).map_err(|e| io_err(path, &e))?;
    file.write_all(&frame).map_err(|e| io_err(path, &e))?;
    file.sync_data().map_err(|e| io_err(path, &e))?;
    Ok(frame.len() as u64)
}

/// The result of leniently scanning a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotScan {
    /// Every snapshot that decoded cleanly under `expected`, in file
    /// order.
    pub states: Vec<FleetState>,
    /// Regions or frames that were rejected: corrupt bytes, foreign
    /// frame kinds, undecodable payloads, or configuration mismatches.
    pub rejected: u64,
}

/// Scans snapshot-file bytes leniently, keeping every snapshot that is
/// frame-valid, payload-valid, and matches `expected`. Damage never
/// aborts the scan — it resyncs on the next frame magic and counts the
/// loss in [`SnapshotScan::rejected`].
#[must_use]
pub fn scan_snapshots(bytes: &[u8], expected: &FleetConfig) -> SnapshotScan {
    let mut states = Vec::new();
    let mut rejected = 0u64;
    for frame in walk_frames(bytes) {
        let state = frame
            .filter(|f| f.kind == FrameKind::Snapshot as u8)
            .and_then(|f| decode_fleet_state(f.payload, f.offset).ok())
            .filter(|state| expected.ensure_matches(&state.config).is_ok());
        match state {
            Some(state) => states.push(state),
            None => rejected += 1,
        }
    }
    SnapshotScan { states, rejected }
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

    #[test]
    fn empty_or_missing_file_scans_empty() {
        let scan = scan_snapshots(&[], &cfg());
        assert!(scan.states.is_empty());
        assert_eq!(scan.rejected, 0);
    }
}
