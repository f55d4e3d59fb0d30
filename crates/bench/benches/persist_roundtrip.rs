//! Criterion group `persist_roundtrip`: the crash-safe persistence
//! layer's four hot paths at fleet scale (10 000 vehicles).
//!
//! * `snapshot_encode` / `snapshot_decode` — serialising a warm
//!   [`fleetstate::FleetState`] to the checksummed frame payload and
//!   parsing it back, the cost a checkpoint adds on top of the fsync.
//! * `journal_append_block` — write-ahead logging one 64-step block of
//!   per-lane observations to a tmpfile (one `write_all` + one
//!   `sync_data`, the same path `PersistentFleet::run_block` takes).
//! * `journal_replay` — parsing a full journal image and replaying it
//!   through a fresh [`fleetstate::FleetRunner`], the recovery path's
//!   cost when no snapshot shortens the tail.
//!
//! The group exists so the perf job catches codec or replay
//! regressions in isolation, where the stops/sec gate in
//! `recovery_drill` would only show a blended slowdown.
//!
//! Criterion group `crc32`: [`numeric::crc32::crc32`] over 64 B (a
//! small control frame), 4 KiB (the two-stream cut,
//! `numeric::crc32::SPLIT_MIN`), 16 KiB (one journal `Observations`
//! frame at 2048 lanes) and 128 KiB (the order of a bulk `Submit`
//! frame), reported as bytes/s. Every wire, journal and snapshot frame
//! pays this kernel; a daemon round trip runs it five times over each
//! decision byte. The kernel is slicing-by-16, folded as two interleaved
//! streams from 4 KiB up. Measured on a 2-vCPU Intel Xeon (std-only
//! kernels, same tables, release build), in ns/byte:
//!
//! | input   | byte loop | slicing-by-8 | slicing-by-16 | two streams |
//! |---------|-----------|--------------|---------------|-------------|
//! | 64 B    | 2.33      | 0.58         | 0.49          | (one stream) |
//! | 4 KiB   | 3.26      | 0.80         | 0.62          | 0.46        |
//! | 16 KiB  |           |              | 0.65          | 0.44        |
//! | 128 KiB | 3.24      | 0.83         | 0.63          | 0.43        |
//!
//! Slicing-by-16 wins at every size for 8 KiB more table (16 KiB in
//! all), so it is the one table layout. The two-stream column and the
//! 16 KiB row come from a later session on the same VM type, in which
//! one stream read 0.66, 0.65 and 0.66 ns/byte at 4 KiB, 16 KiB and
//! 128 KiB: two streams cut the time by about a third at every size from
//! the cut up, where the 64 B control frames stay on one stream.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fleetstate::{
    decode_fleet_state, encode_fleet_state, parse_journal, FleetConfig, FleetRunner, Journal,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use skirental::BreakEven;

const SEED: u64 = 20_140_601;
const VEHICLES: usize = 10_000;
const WARMUP_STEPS: usize = 64;
const BLOCK_STEPS: usize = 64;

fn config() -> FleetConfig {
    FleetConfig {
        lanes: VEHICLES,
        break_even: BreakEven::SSV.seconds(),
        window: Some(50),
        min_history: 3,
        seed: SEED,
        trace_stream_base: 0,
    }
}

/// Time-major seeded stop durations, 0..120 s around the 28 s break-even.
fn rows(steps: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(SEED + 211);
    (0..steps)
        .map(|_| (0..VEHICLES).map(|_| 120.0 * stopmodel::uniform01(&mut rng)).collect())
        .collect()
}

fn bench_persist_roundtrip(c: &mut Criterion) {
    let config = config();
    let mut g = c.benchmark_group("persist_roundtrip");
    g.sample_size(20);

    // A warm fleet: estimator windows full, eviction rings mid-rotation.
    let mut runner = FleetRunner::new(&config, 1).expect("valid bench config");
    runner.run_block(&rows(WARMUP_STEPS), false).expect("warmup rows are clean");
    let state = runner.export_state();

    g.bench_function(format!("snapshot_encode_{VEHICLES}_vehicles"), |bencher| {
        bencher.iter(|| black_box(encode_fleet_state(black_box(&state))));
    });

    let encoded = encode_fleet_state(&state);
    g.bench_function(format!("snapshot_decode_{VEHICLES}_vehicles"), |bencher| {
        bencher.iter(|| decode_fleet_state(black_box(&encoded), 0).expect("payload is valid"));
    });

    let block = rows(BLOCK_STEPS);
    let dir = std::env::temp_dir().join(format!("persist_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create bench tmpdir");
    let journal_path = dir.join("bench.journal");
    g.bench_function(format!("journal_append_block_{BLOCK_STEPS}x{VEHICLES}"), |bencher| {
        bencher.iter(|| {
            let mut journal = Journal::create(&journal_path, &config).expect("tmpdir is writable");
            journal.append_block(0, black_box(&block)).expect("rows match config");
            black_box(journal.frames_written())
        });
    });

    // Journal image for the replay benchmark: header + one warmup run.
    let mut journal = Journal::create(&journal_path, &config).expect("tmpdir is writable");
    journal.append_block(0, &block).expect("rows match config");
    drop(journal);
    let image = std::fs::read(&journal_path).expect("journal exists");
    g.bench_function(format!("journal_replay_{BLOCK_STEPS}x{VEHICLES}"), |bencher| {
        bencher.iter(|| {
            let contents = parse_journal(black_box(&image)).expect("image is clean");
            let mut fresh = FleetRunner::new(&config, 1).expect("valid bench config");
            fresh.run_block(&contents.steps, false).expect("journaled rows are clean");
            black_box(fresh.step())
        });
    });

    std::fs::remove_dir_all(&dir).ok();
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    let data: Vec<u8> =
        (0..128u32 << 10).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
    for (label, len) in [("64B", 64), ("4KiB", 4 << 10), ("16KiB", 16 << 10), ("128KiB", 128 << 10)]
    {
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(label, |bencher| {
            bencher.iter(|| numeric::crc32::crc32(black_box(&data[..len])));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_persist_roundtrip, bench_crc32);
criterion_main!(benches);
