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
//!
//! Property-based where the state space is wide; deterministic for the
//! exhaustive cut sweep.

use automotive_idling::fleetstate::format::frame_offsets;
use automotive_idling::fleetstate::{
    decode_fleet_state, decode_ladder_state, encode_fleet_state, encode_ladder_state, FleetConfig,
    FleetRunner, PersistentFleet, JOURNAL_FILE, SNAPSHOT_FILE,
};
use automotive_idling::skirental::batch::CounterRng;
use automotive_idling::skirental::degraded::{DegradationConfig, DegradedController};
use automotive_idling::skirental::BreakEven;
use obsv::TraceRecord;
use proptest::prelude::*;
use std::path::PathBuf;

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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Golden on-disk bytes: a fixed two-step run writes exactly this
/// journal `Observations` frame and a snapshot frame with exactly this
/// length and CRC-32 trailer. Recovery round-trips cannot catch a
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
    std::fs::remove_dir_all(&dir).ok();
}
