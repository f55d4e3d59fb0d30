//! Crash-safe persistence contracts (`fleetstate`):
//!
//! * Snapshot round-trips are **lossless** — encode → decode → re-encode
//!   reproduces the same bytes for fleets at arbitrary eviction-ring
//!   positions, cold start (`n = 0`), the min-history boundary, and
//!   degraded-ladder states frozen mid-handoff.
//! * Journal replay after a crash at **every** frame (step) boundary of
//!   a 200-stop run reproduces the uninterrupted decision trace
//!   byte-for-byte and the uninterrupted final state bit-for-bit.
//! * Decoders never panic on arbitrary bytes: every outcome is `Ok` or
//!   a typed `PersistError`.
//! * A block with a bad stop or width is rejected before the journal
//!   writes a byte: the fleet keeps going and recovers as if the block
//!   had never been sent. A snapshot that fails after its block was
//!   journaled does not fail the block.
//! * Recovery starts from the newest snapshot + checkpoint pair and
//!   reads only the journal tail past it; when the pair or the tail
//!   does not line up, it falls back to an older pair, a cold start or
//!   the whole journal, and ends in the same state.
//!
//! Property-based where the state space is wide; deterministic for the
//! exhaustive cut sweep.

use automotive_idling::fleetstate::format::frame_offsets;
use automotive_idling::fleetstate::{
    append_snapshot, decode_fleet_state, decode_ladder_state, encode_fleet_state,
    encode_ladder_state, scan_snapshots, FleetConfig, FleetRunner, Journal, PersistError,
    PersistentFleet, RecoveryOutcome, JOURNAL_FILE, SNAPSHOT_FILE,
};
use automotive_idling::skirental::batch::CounterRng;
use automotive_idling::skirental::degraded::{DegradationConfig, DegradedController};
use automotive_idling::skirental::BreakEven;
use obsv::TraceRecord;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn b28() -> BreakEven {
    BreakEven::new(28.0).unwrap()
}

/// Stop lengths straddling the 28 s break-even so all four vertices
/// (and both ring branches) stay live.
fn stop_length() -> impl Strategy<Value = f64> {
    (0u32..6, 0.0f64..1.0).prop_map(|(arm, u)| match arm {
        0..=2 => u * 27.9,
        3..=4 => 28.0 + u * 172.0,
        _ => 28.0,
    })
}

/// `Option<window>` stand-in for `prop::option::of`: roughly half the
/// cases run unwindowed.
fn window_strategy(max: usize) -> impl Strategy<Value = Option<usize>> {
    (0u32..2, 1usize..max).prop_map(|(flag, w)| (flag == 1).then_some(w))
}

/// Deterministic synthetic stop rows, time-major (`rows[t][lane]`).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fleet snapshots are lossless at any point in a run: `steps` from
    /// 0 (cold start) through several window wraps puts every lane's
    /// eviction ring at an arbitrary head position, and small
    /// `min_history` values park lanes on either side of the boundary.
    /// Decode must reproduce the exported state exactly, re-encode the
    /// same bytes, and a runner restored from it must re-export the
    /// same bytes again.
    #[test]
    fn fleet_snapshot_roundtrip_is_lossless(
        lanes in 1usize..9,
        window in window_strategy(12),
        min_history in 1usize..6,
        steps in 0usize..100,
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let config = FleetConfig {
            lanes,
            break_even: 28.0,
            window,
            min_history,
            seed,
            trace_stream_base: 0,
        };
        let mut runner = FleetRunner::new(&config, threads).unwrap();
        runner.run_block(&rows(lanes, steps, seed), false).unwrap();

        let state = runner.export_state();
        let bytes = encode_fleet_state(&state);
        let decoded = decode_fleet_state(&bytes, 0).unwrap();
        prop_assert_eq!(&decoded, &state);
        prop_assert_eq!(encode_fleet_state(&decoded), bytes.clone());

        let restored = FleetRunner::from_state(&decoded, threads).unwrap();
        prop_assert_eq!(encode_fleet_state(&restored.export_state()), bytes);
    }

    /// Degraded-ladder snapshots are lossless mid-handoff: a stream with
    /// injected anomalies (NaN bursts and stuck-at runs) walks the
    /// controller through degradations, demotions, and estimator resets;
    /// frozen at an arbitrary stop, the ladder must round-trip through
    /// the binary codec byte-identically, and a controller rebuilt from
    /// the decoded state must continue bit-identically to the original.
    #[test]
    fn ladder_snapshot_roundtrip_mid_handoff(
        stops in prop::collection::vec(stop_length(), 1..150),
        anomaly_every in 2usize..12,
        seed in 0u64..1_000,
    ) {
        let b = b28();
        // A tight ladder so short traces still cross levels (handoff).
        let cfg = DegradationConfig {
            window: 12,
            degrade_at: 3,
            demote_at: 6,
            promote_after: 4,
            stale_after: 5,
            stuck_run: 3,
            reset_on_demote: true,
            ..DegradationConfig::default()
        };
        let mut ctl = DegradedController::new(b).config(cfg);
        let mut rng = CounterRng::for_stream(seed, 0);
        for (i, &y) in stops.iter().enumerate() {
            ctl.decide(&mut rng);
            // Periodic anomalies: NaN readings and stuck-at repeats.
            if i % anomaly_every == 0 {
                ctl.observe(f64::NAN);
            } else if i % anomaly_every == 1 {
                ctl.observe(13.25);
            } else {
                ctl.observe(y);
            }
        }

        let state = ctl.export_state();
        let bytes = encode_ladder_state(&state);
        let decoded = decode_ladder_state(&bytes, 0).unwrap();
        prop_assert_eq!(&decoded, &state);
        prop_assert_eq!(encode_ladder_state(&decoded), bytes);

        // The rebuilt controller continues in lockstep with the
        // original: same thresholds (bitwise), same RNG consumption.
        let mut rebuilt = DegradedController::from_state(b, cfg, &decoded).unwrap();
        let mut rng2 = CounterRng::from_state(rng.state().0, rng.state().1);
        for (i, &y) in stops.iter().take(20).enumerate() {
            let xa = ctl.decide(&mut rng);
            let xb = rebuilt.decide(&mut rng2);
            prop_assert!(
                xa.to_bits() == xb.to_bits(),
                "threshold drifted {} stops after restore ({} vs {})", i, xa, xb
            );
            prop_assert!(rng.state() == rng2.state(), "RNG consumption drifted at {}", i);
            ctl.observe(y);
            rebuilt.observe(y);
        }
        prop_assert_eq!(rebuilt.export_state(), ctl.export_state());
    }

    /// Decoders are total: arbitrary bytes either decode or fail with a
    /// typed error — never a panic. (Frame CRCs catch corruption before
    /// payload decoding in the real pipeline; this pins the inner layer
    /// as panic-free defence in depth.)
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..300),
    ) {
        let _ = decode_fleet_state(&bytes, 7);
        let _ = decode_ladder_state(&bytes, 7);
    }
}

/// The exhaustive cut sweep the issue pins: a 200-stop fleet run is
/// crashed after every journal frame (= step) boundary in turn; each
/// crashed run is recovered (snapshot + journal-tail replay, at a
/// rotating thread count) and resumed, and the merged pre-crash +
/// post-recovery decision trace must equal the uninterrupted run's
/// trace byte-for-byte — as must the final state bytes.
///
/// Uses the process-wide tracer on a dedicated stream range
/// (`TRACE_BASE`), filtering drained records to it, so concurrent tests
/// in this binary cannot perturb the comparison.
#[test]
fn journal_replay_reproduces_trace_at_every_cut_of_200_stops() {
    const LANES: usize = 5;
    const STEPS: usize = 200;
    const TRACE_BASE: u64 = 800_000;
    const SNAPSHOT_EVERY: u64 = 32;
    const BLOCK: usize = 7;
    let config = FleetConfig {
        lanes: LANES,
        break_even: 28.0,
        window: Some(9),
        min_history: 3,
        seed: 20_140_601,
        trace_stream_base: TRACE_BASE,
    };
    let workload = rows(LANES, STEPS, 17);
    let dir: PathBuf =
        std::env::temp_dir().join("persistence-test").join(format!("cuts-{}", std::process::id()));

    let tracer = obsv::tracer::global();
    tracer.clear();
    tracer.enable();
    // Only this test's lane streams; persistence meta events
    // (checkpoint/recovery on `meta_stream`) depend on where the crash
    // fell and are excluded, as are any records from concurrent tests.
    let lane_jsonl = |mut records: Vec<TraceRecord>| {
        records.retain(|r| (TRACE_BASE..TRACE_BASE + LANES as u64).contains(&r.stream));
        records.sort_by_key(TraceRecord::key);
        obsv::event::to_jsonl(&records)
    };

    // Uninterrupted golden run.
    let mut golden_runner = FleetRunner::new(&config, 2).unwrap();
    golden_runner.run_block(&workload, true).unwrap();
    let golden = lane_jsonl(tracer.drain_sorted());
    let golden_state = encode_fleet_state(&golden_runner.export_state());
    assert!(!golden.is_empty(), "golden run must trace");

    for cut in 0..=STEPS {
        let pre_threads = [1, 2, 8][cut % 3];
        let post_threads = [1, 2, 8][(cut + 1) % 3];
        std::fs::remove_dir_all(&dir).ok();
        tracer.clear();

        let mut fleet =
            PersistentFleet::create(&dir, &config, pre_threads, SNAPSHOT_EVERY).unwrap();
        for chunk in workload[..cut].chunks(BLOCK) {
            fleet.run_block(chunk, true).unwrap();
        }
        let pre_records = tracer.drain_sorted();
        drop(fleet); // crash

        let (mut resumed, outcome) =
            PersistentFleet::recover(&dir, &config, post_threads, SNAPSHOT_EVERY)
                .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        assert_eq!(outcome.resumed_step, cut as u64, "cut {cut}: wrong resume point");
        resumed.run_block(&workload[cut..], true).unwrap();

        let mut merged = pre_records;
        merged.extend(tracer.drain_sorted());
        assert_eq!(
            lane_jsonl(merged),
            golden,
            "cut {cut} ({pre_threads}->{post_threads} threads): merged trace diverges"
        );
        assert_eq!(
            encode_fleet_state(&resumed.runner().export_state()),
            golden_state,
            "cut {cut}: final state bytes diverge"
        );
    }
    tracer.disable();
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-frame (torn tail) loses at most the torn frame: the
/// journal's clean prefix replays, and resuming from it converges to
/// the same final state as the uninterrupted run.
#[test]
fn torn_journal_tail_resumes_at_last_complete_step() {
    const LANES: usize = 4;
    const STEPS: usize = 40;
    let config = FleetConfig {
        lanes: LANES,
        break_even: 28.0,
        window: None,
        min_history: 2,
        seed: 7,
        trace_stream_base: 0,
    };
    let workload = rows(LANES, STEPS, 3);
    let dir =
        std::env::temp_dir().join("persistence-test").join(format!("torn-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Feed in small blocks so the last snapshot (step 20) lands before
    // the frame we tear: a real crash tears the journal tail only when
    // it strikes BEFORE any later snapshot is written.
    let mut fleet = PersistentFleet::create(&dir, &config, 2, 16).unwrap();
    for chunk in workload[..25].chunks(5) {
        fleet.run_block(chunk, false).unwrap();
    }
    drop(fleet);

    // Tear the last journal frame: drop 3 trailing bytes.
    let journal_path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal_path).unwrap();
    let torn_len = bytes.len() - 3;
    bytes.truncate(torn_len);
    std::fs::write(&journal_path, &bytes).unwrap();

    let (mut resumed, outcome) = PersistentFleet::recover(&dir, &config, 1, 16).unwrap();
    assert_eq!(outcome.resumed_step, 24, "torn tail must cost exactly the torn frame");
    assert!(outcome.torn_tail_dropped);

    // Replay the lost step and the rest; the final state must match an
    // uninterrupted run bit-for-bit.
    resumed.run_block(&workload[24..], false).unwrap();
    let mut whole = FleetRunner::new(&config, 2).unwrap();
    whole.run_block(&workload, false).unwrap();
    assert_eq!(
        encode_fleet_state(&resumed.runner().export_state()),
        encode_fleet_state(&whole.export_state())
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_stop_block_is_rejected_before_the_journal_and_the_fleet_recovers() {
    const LANES: usize = 4;
    let config = FleetConfig {
        lanes: LANES,
        break_even: 28.0,
        window: Some(6),
        min_history: 2,
        seed: 11,
        trace_stream_base: 0,
    };
    let workload = rows(LANES, 12, 5);
    let dir = std::env::temp_dir()
        .join("persistence-test")
        .join(format!("bad-stop-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let journal_path = dir.join(JOURNAL_FILE);

    let mut fleet = PersistentFleet::create(&dir, &config, 2, 0).unwrap();
    fleet.run_block(&workload[..1], false).unwrap();
    let journal_before = std::fs::read(&journal_path).unwrap();
    let state_before = encode_fleet_state(&fleet.runner().export_state());

    // A negative stop, a NaN behind a good row, and a short row: each is
    // a typed error, and neither the journal nor the runner moves.
    let negative = vec![vec![1.0, -2.0, 3.0, 4.0]];
    let late_nan = vec![workload[1].clone(), vec![1.0, 2.0, f64::NAN, 4.0]];
    let short = vec![vec![1.0, 2.0, 3.0]];
    for bad in [&negative, &late_nan] {
        let err = fleet.run_block_decided_timed(bad, false).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Engine(automotive_idling::skirental::Error::InvalidStop { .. })
            ),
            "{err:?}"
        );
    }
    let err = fleet.run_block_decided_timed(&short, false).unwrap_err();
    assert!(matches!(err, PersistError::BadPayload { .. }), "{err:?}");
    assert_eq!(std::fs::read(&journal_path).unwrap(), journal_before);
    assert_eq!(fleet.journal().steps_recorded(), 1);
    assert_eq!(fleet.runner().step(), 1);
    assert_eq!(encode_fleet_state(&fleet.runner().export_state()), state_before);

    // The next block goes through, and so does the rest.
    fleet.run_block(&workload[1..7], false).unwrap();
    fleet.run_block(&workload[7..], false).unwrap();
    drop(fleet);

    // The journal itself refuses bad stops, even called directly.
    let mut journal = Journal::reopen(&journal_path, &config, 12, 13).unwrap();
    assert!(matches!(journal.append_step(12, &negative[0]), Err(PersistError::Engine(_))));
    assert!(matches!(journal.append_block(12, &late_nan), Err(PersistError::Engine(_))));
    assert_eq!(journal.steps_recorded(), 12);
    drop(journal);

    let (recovered, outcome) = PersistentFleet::recover(&dir, &config, 1, 0).unwrap();
    assert_eq!(outcome.resumed_step, 12);
    let mut whole = FleetRunner::new(&config, 2).unwrap();
    whole.run_block(&workload, false).unwrap();
    assert_eq!(
        encode_fleet_state(&recovered.runner().export_state()),
        encode_fleet_state(&whole.export_state())
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot that fails after its block was journaled and decided does
/// not fail the block: the decisions come back, the step advances, and
/// the client's next block is accepted.
#[test]
fn failed_snapshot_keeps_the_block_that_triggered_it() {
    let config = FleetConfig {
        lanes: 3,
        break_even: 28.0,
        window: Some(5),
        min_history: 2,
        seed: 17,
        trace_stream_base: 0,
    };
    let workload = rows(3, 12, 17);
    let dir = std::env::temp_dir()
        .join("persistence-test")
        .join(format!("snapshot-fails-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut fleet = PersistentFleet::create(&dir, &config, 1, 4).unwrap();
    // A directory where the snapshot file belongs: every append fails.
    std::fs::create_dir(dir.join(SNAPSHOT_FILE)).unwrap();
    let (decisions, _) = fleet.run_block_decided_timed(&workload[..6], false).unwrap();
    assert_eq!(decisions.steps(), 6);
    assert_eq!((fleet.runner().step(), fleet.last_snapshot_step()), (6, 0));
    fleet.run_block(&workload[6..], false).unwrap();
    assert_eq!(fleet.journal().steps_recorded(), 12);
    drop(fleet);

    std::fs::remove_dir(dir.join(SNAPSHOT_FILE)).unwrap();
    let (recovered, outcome) = PersistentFleet::recover(&dir, &config, 2, 4).unwrap();
    assert_eq!((outcome.resumed_step, outcome.snapshot_step), (12, 0));
    let mut whole = FleetRunner::new(&config, 1).unwrap();
    whole.run_block(&workload, false).unwrap();
    assert_eq!(
        encode_fleet_state(&recovered.runner().export_state()),
        encode_fleet_state(&whole.export_state())
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A crashed journaled run for the recovery tests below: 51 steps fed
/// 4 at a time with a snapshot (and its checkpoint) every 8 steps, so
/// the newest restart point is step 48 and the one before it step 40.
fn crashed_run(name: &str) -> (PathBuf, FleetConfig, Vec<Vec<f64>>) {
    let config = FleetConfig {
        lanes: 5,
        break_even: 28.0,
        window: Some(6),
        min_history: 2,
        seed: 29,
        trace_stream_base: 0,
    };
    let workload = rows(5, 51, 13);
    let dir = std::env::temp_dir()
        .join("persistence-test")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut fleet = PersistentFleet::create(&dir, &config, 2, 8).unwrap();
    for chunk in workload.chunks(4) {
        fleet.run_block(chunk, false).unwrap();
    }
    drop(fleet);
    (dir, config, workload)
}

/// Recovers `dir` and checks its state bit for bit against an
/// uninterrupted run of the whole `workload`.
fn recover_whole_run(dir: &Path, config: &FleetConfig, workload: &[Vec<f64>]) -> RecoveryOutcome {
    let (recovered, outcome) = PersistentFleet::recover(dir, config, 3, 8).unwrap();
    assert_eq!(outcome.resumed_step, workload.len() as u64);
    let mut whole = FleetRunner::new(config, 2).unwrap();
    whole.run_block(workload, false).unwrap();
    assert_eq!(
        encode_fleet_state(&recovered.runner().export_state()),
        encode_fleet_state(&whole.export_state())
    );
    std::fs::remove_dir_all(dir).ok();
    outcome
}

/// Recovery reads only the journal's header and the tail past the
/// newest checkpoint, so zeroing every byte between the two changes
/// nothing.
#[test]
fn zeroed_journal_before_the_newest_checkpoint_is_not_read() {
    let (dir, config, workload) = crashed_run("zeroed");
    let path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    // Frame k + 1 holds step k: step 48's frame starts at the offset the
    // newest checkpoint recorded.
    let offsets = frame_offsets(&bytes);
    bytes[offsets[0].1 as usize..offsets[49].0 as usize].fill(0);
    std::fs::write(&path, &bytes).unwrap();
    let outcome = recover_whole_run(&dir, &config, &workload);
    assert_eq!((outcome.snapshot_step, outcome.frames_replayed), (48, 3));
}

/// A damaged checkpoint unpairs its snapshot: recovery starts from the
/// pair before it and replays a longer tail to the same state.
#[test]
fn damaged_newest_checkpoint_falls_back_to_the_previous_pair() {
    let (dir, config, workload) = crashed_run("checkpoint-flip");
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let (offset, len) = *frame_offsets(&bytes).last().unwrap();
    bytes[(offset + len / 2) as usize] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    let outcome = recover_whole_run(&dir, &config, &workload);
    assert_eq!((outcome.snapshot_step, outcome.frames_replayed), (40, 11));
    assert_eq!(outcome.snapshots_rejected, 1);
}

/// Snapshots without checkpoints, the layout `append_snapshot` writes
/// alone, are not restart points: recovery cold-starts and replays the
/// whole journal to the same state.
#[test]
fn snapshots_without_checkpoints_cold_start() {
    let (dir, config, workload) = crashed_run("no-checkpoints");
    let path = dir.join(SNAPSHOT_FILE);
    let scan = scan_snapshots(&std::fs::read(&path).unwrap(), &config);
    assert_eq!(scan.states.iter().map(|s| s.step).collect::<Vec<_>>(), [8, 16, 24, 32, 40, 48]);
    std::fs::remove_file(&path).unwrap();
    for state in &scan.states {
        append_snapshot(&path, state).unwrap();
    }
    let outcome = recover_whole_run(&dir, &config, &workload);
    assert_eq!((outcome.snapshot_step, outcome.frames_replayed), (0, 51));
    assert_eq!(outcome.snapshots_rejected, 0);
}

/// A duplicate frame injected before the checkpoint's offset shifts the
/// tail off it: recovery notices, parses the whole journal, which skips
/// the duplicate, and still ends in the same state.
#[test]
fn duplicate_before_the_checkpoint_offset_falls_back_to_the_whole_journal() {
    let (dir, config, workload) = crashed_run("duplicate");
    let path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&path).unwrap();
    let (offset, len) = frame_offsets(&bytes)[21];
    let end = (offset + len) as usize;
    let mut shifted = bytes[..end].to_vec();
    shifted.extend_from_slice(&bytes[offset as usize..]);
    std::fs::write(&path, &shifted).unwrap();
    let outcome = recover_whole_run(&dir, &config, &workload);
    assert_eq!((outcome.snapshot_step, outcome.frames_replayed), (48, 3));
    assert_eq!(outcome.duplicates_skipped, 1);
    assert_eq!(outcome.journal_bytes_read, shifted.len() as u64);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Golden on-disk bytes: a fixed two-step run writes exactly this
/// journal `Observations` frame, a snapshot frame with exactly this
/// length and CRC-32 trailer, and exactly this checkpoint frame. Recovery round-trips cannot catch a
/// checksum (or codec) change made on both the writing and the reading
/// side; these constants can.
#[test]
fn golden_journal_and_snapshot_frames() {
    let config = FleetConfig {
        lanes: 3,
        break_even: 28.0,
        window: Some(4),
        min_history: 1,
        seed: 20_140_601,
        trace_stream_base: 0,
    };
    let dir = std::env::temp_dir()
        .join("persistence-test")
        .join(format!("golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut fleet = PersistentFleet::create(&dir, &config, 1, u64::MAX).unwrap();
    fleet.run_block(&[vec![0.0, 12.5, 28.0], vec![31.25, 1e-3, 600.0]], false).unwrap();
    fleet.snapshot().unwrap();
    drop(fleet);

    let frame_at = |bytes: &[u8], k: usize| {
        let (offset, len) = frame_offsets(bytes)[k];
        bytes[offset as usize..(offset + len) as usize].to_vec()
    };
    // Frame 0 is the journal header; frame 2 is step 1.
    let journal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    assert_eq!(
        hex(&frame_at(&journal, 2)),
        concat!(
            "464c53540100030020000000", // header: magic, version, kind, payload length
            "01000000000000000000000000403f40fca9f1d24d62503f0000000000c08240",
            "a072c50f", // CRC-32 trailer
        )
    );
    let snapshots = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let snapshot = frame_at(&snapshots, 0);
    assert_eq!((snapshot.len(), hex(&snapshot[snapshot.len() - 4..]).as_str()), (336, "5518f748"));
    // Frame 1 is the snapshot's checkpoint: its step, the journal's
    // length and frame count then, and "risk not recorded".
    let checkpoint = frame_at(&snapshots, 1);
    assert_eq!(
        hex(&checkpoint),
        concat!(
            "464c53540100050019000000", // header: magic, version, kind 5, payload length
            "0200000000000000",         // step 2
            "9400000000000000",         // journal offset: 148 bytes
            "0300000000000000",         // journal frames: header + 2 steps
            "00",                       // risk not recorded
            "b56af586",                 // CRC-32 trailer
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}
