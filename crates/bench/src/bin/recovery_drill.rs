//! Recovery drill: proves the crash-safe persistence layer's two
//! contracts under fire.
//!
//! **Bit-identical recovery.** A seeded fleet is run three times without
//! persistence (1, 2, and 8 worker threads) and the decision traces are
//! asserted byte-identical — the golden trace. Then, for *every* cut
//! point `c` in `0..=steps`, a fresh journaled run is crashed after `c`
//! steps, recovered at a rotating thread count, and resumed; the merged
//! pre-crash + post-recovery trace must equal the golden trace
//! byte-for-byte, the final fleet state must encode to the same bytes
//! as the uninterrupted reference, and every lane's realized-CR risk
//! digest must equal the reference's.
//!
//! **No silent corruption.** A seeded sweep of storage faults (torn
//! writes, truncation, bit flips, duplicated frames, version skew,
//! zeroed sectors — [`fleetstate::StorageFaultPlan`]) is applied to
//! copies of a crashed run's journal/snapshot files. Every recovery
//! attempt must either succeed *and* match the reference state at its
//! resumed step bit-for-bit, or fail with a typed error. An `Ok` whose
//! state differs from the reference is silent corruption — the drill
//! exits `1` and writes divergence artifacts.
//!
//! **Bounded recovery.** Every clean cut must replay exactly the
//! journal frames written since its last snapshot. Then two journals
//! that share the same tail past their last snapshot, one with 10× the
//! uptime before it, must recover reading the same journal bytes and
//! replaying the same frames; both recovery times are printed (they
//! still differ by the snapshot-file scan, which is linear in the
//! number of snapshots).
//!
//! A final throughput phase (skippable with `--skip-perf`) times the
//! journaled engine on the perf gate's batched workload shape and
//! enforces the checked-in `batch_stops_per_sec` floor divided by
//! `PERF_GATE_TOLERANCE` — write-ahead logging must not cost an order
//! of magnitude.
//!
//! ```text
//! recovery_drill [--steps N] [--snapshot-every N] [--corruption-cases N]
//!                [--artifact-dir DIR] [--skip-perf] [--report out.json]
//! ```
//!
//! Exit status: `0` pass, `1` contract violation, `2` usage/I-O error.

use bench::RunReporter;
use fleetstate::{
    encode_fleet_state, recover_fleet, FaultTarget, FleetConfig, FleetRunner, PersistError,
    PersistentFleet, StorageFaultPlan, JOURNAL_FILE, SNAPSHOT_FILE,
};
use obsv::TraceRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use skirental::BreakEven;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 20140601;
const VEHICLES: usize = 96;
const ESTIMATOR_WINDOW: usize = 50;
const MIN_HISTORY: usize = 3;
/// Thread counts the sweep rotates through, per the acceptance bar.
const THREAD_CYCLE: [usize; 3] = [1, 2, 8];
/// Chunk size pre-crash runs are fed in, so cuts land mid-journal with
/// several snapshots already on disk.
const PRE_CRASH_BLOCK: usize = 7;

/// Bounded-recovery phase: the shorter uptime before the last snapshot
/// (the longer one is 10× this), the snapshot cadence, and the tail the
/// two journals share past their last snapshot.
const BOUND_UPTIME: usize = 120;
const BOUND_SNAPSHOT_EVERY: usize = 40;
const BOUND_TAIL: usize = 25;
const BOUND_REPS: usize = 3;

/// Perf phase: the perf gate's batched workload shape, journaled.
const PERF_STOPS_PER_VEHICLE: usize = 2_000;
const PERF_REPS: usize = 3;
const PERF_BLOCK: usize = 500;
const PERF_THREADS: usize = 4;
const DEFAULT_TOLERANCE: f64 = 4.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: recovery_drill [--steps N] [--snapshot-every N] [--corruption-cases N]\n\
         \x20                     [--artifact-dir DIR] [--skip-perf] [--report out.json]"
    );
    ExitCode::from(2)
}

fn config() -> FleetConfig {
    FleetConfig {
        lanes: VEHICLES,
        break_even: BreakEven::SSV.seconds(),
        window: Some(ESTIMATOR_WINDOW),
        min_history: MIN_HISTORY,
        seed: SEED,
        trace_stream_base: 0,
    }
}

/// The seeded workload, time-major: `rows[t][lane]`. Uniform 0..120 s
/// stops straddle the 28 s break-even, keeping all four vertices live.
fn workload_rows(steps: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(SEED + 211);
    (0..steps)
        .map(|_| (0..VEHICLES).map(|_| 120.0 * stopmodel::uniform01(&mut rng)).collect())
        .collect()
}

/// Serializes records to JSONL after dropping persistence meta events
/// (checkpoint/recovery ride on stream `lanes`; their cadence depends on
/// where the crash fell, so they are excluded from byte comparison) and
/// re-sorting by the canonical `(stream, stop, seq)` key.
fn lane_trace_jsonl(mut records: Vec<TraceRecord>, config: &FleetConfig) -> String {
    records.retain(|r| r.stream < config.meta_stream());
    records.sort_by_key(TraceRecord::key);
    obsv::event::to_jsonl(&records)
}

/// Maps a typed recovery error to the class name the sweep tallies.
fn error_class(e: &PersistError) -> &'static str {
    match e {
        PersistError::Io { .. } => "io",
        PersistError::TruncatedFrame { .. } => "truncated_frame",
        PersistError::BadMagic { .. } => "bad_magic",
        PersistError::UnsupportedVersion { .. } => "unsupported_version",
        PersistError::ChecksumMismatch { .. } => "checksum_mismatch",
        PersistError::UnknownFrameKind { .. } => "unknown_frame_kind",
        PersistError::CorruptMidStream { .. } => "corrupt_mid_stream",
        PersistError::BadPayload { .. } => "bad_payload",
        PersistError::NonContiguousStep { .. } => "non_contiguous_step",
        PersistError::MissingJournalHeader => "missing_journal_header",
        PersistError::ConfigMismatch { .. } => "config_mismatch",
        PersistError::SnapshotAheadOfJournal { .. } => "snapshot_ahead_of_journal",
        PersistError::Engine(_) => "engine_rejected",
    }
}

/// Writes the golden trace, the diverging merged trace, and a
/// first-divergence report into the artifact directory.
fn write_divergence(dir: &Path, label: &str, golden: &str, merged: &str) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join("golden.jsonl"), golden);
    let _ = std::fs::write(dir.join(format!("merged-{label}.jsonl")), merged);
    let report = match obsv::first_divergence(
        BufReader::new(golden.as_bytes()),
        BufReader::new(merged.as_bytes()),
        3,
    ) {
        Ok(Some(d)) => {
            let mut out = format!("first divergence at line {}\n", d.line);
            for c in &d.context {
                out.push_str(&format!("  context: {c}\n"));
            }
            out.push_str(&format!("  golden: {:?}\n  merged: {:?}\n", d.left, d.right));
            out
        }
        Ok(None) => "traces are identical (state oracle diverged instead)".to_string(),
        Err(e) => format!("divergence scan failed: {e}"),
    };
    let _ = std::fs::write(dir.join(format!("divergence-{label}.txt")), report);
    eprintln!("  divergence artifacts written to {}", dir.display());
}

struct DrillOptions {
    steps: usize,
    snapshot_every: u64,
    corruption_cases: u64,
    artifact_dir: PathBuf,
    skip_perf: bool,
}

fn main() -> ExitCode {
    let mut opts = DrillOptions {
        steps: 60,
        snapshot_every: 12,
        corruption_cases: 200,
        artifact_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/recovery_drill"),
        skip_perf: false,
    };
    let mut reporter = RunReporter::from_args("recovery_drill");

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let take = |v: Option<String>, rest: &mut dyn Iterator<Item = String>| match v {
            Some(v) => Some(v),
            None => rest.next(),
        };
        if a == "--steps" || a.starts_with("--steps=") {
            match take(a.strip_prefix("--steps=").map(str::to_string), &mut args)
                .and_then(|v| v.parse().ok())
            {
                Some(v) if v > 0 => opts.steps = v,
                _ => return usage(),
            }
        } else if a == "--snapshot-every" || a.starts_with("--snapshot-every=") {
            match take(a.strip_prefix("--snapshot-every=").map(str::to_string), &mut args)
                .and_then(|v| v.parse().ok())
            {
                Some(v) => opts.snapshot_every = v,
                None => return usage(),
            }
        } else if a == "--corruption-cases" || a.starts_with("--corruption-cases=") {
            match take(a.strip_prefix("--corruption-cases=").map(str::to_string), &mut args)
                .and_then(|v| v.parse().ok())
            {
                Some(v) => opts.corruption_cases = v,
                None => return usage(),
            }
        } else if a == "--artifact-dir" || a.starts_with("--artifact-dir=") {
            match take(a.strip_prefix("--artifact-dir=").map(str::to_string), &mut args) {
                Some(v) => opts.artifact_dir = PathBuf::from(v),
                None => return usage(),
            }
        } else if a == "--skip-perf" {
            opts.skip_perf = true;
        } else if a == "--report" || a.starts_with("--report=") {
            // Parsed by RunReporter::from_args; consume the value form.
            if a == "--report" && args.next().is_none() {
                return usage();
            }
        } else {
            return usage();
        }
    }

    let config = config();
    let rows = workload_rows(opts.steps);
    reporter.meta("seed", SEED);
    reporter.meta("vehicles", VEHICLES);
    reporter.meta("steps", opts.steps);
    reporter.meta("snapshot_every", opts.snapshot_every);
    reporter.meta("corruption_cases", opts.corruption_cases);

    let tracer = obsv::tracer::global();
    tracer.clear();
    tracer.enable();

    let work = opts.artifact_dir.join("work");
    let mut failures = 0u64;

    // --- Phase 1: golden traces at 1/2/8 threads --------------------
    println!("=== recovery drill: {VEHICLES} vehicles x {} steps ===", opts.steps);
    let mut golden: Option<String> = None;
    let mut reference_final = Vec::new();
    let mut reference_risk = Vec::new();
    for &threads in &THREAD_CYCLE {
        tracer.clear();
        let mut runner = match FleetRunner::new(&config, threads) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("recovery_drill: cannot build fleet: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = runner.run_block(&rows, true) {
            eprintln!("recovery_drill: golden run failed: {e}");
            return ExitCode::from(2);
        }
        let jsonl = lane_trace_jsonl(tracer.drain_sorted(), &config);
        match &golden {
            None => {
                golden = Some(jsonl);
                reference_final = encode_fleet_state(&runner.export_state());
                reference_risk = runner.risk_digests();
            }
            Some(g) if *g == jsonl => {}
            Some(g) => {
                eprintln!("FAIL: golden trace at {threads} threads differs from 1 thread");
                write_divergence(&opts.artifact_dir, &format!("golden-{threads}t"), g, &jsonl);
                failures += 1;
            }
        }
    }
    let golden = golden.unwrap_or_default();
    println!(
        "golden: traces byte-identical across {:?} threads ({} bytes)",
        THREAD_CYCLE,
        golden.len()
    );

    // Per-step reference states for the corruption oracle: the encoded
    // state an uninterrupted run holds after each step.
    let reference_at: Vec<Vec<u8>> = {
        let mut runner = FleetRunner::new(&config, 1).expect("config validated above");
        let mut states = vec![encode_fleet_state(&runner.export_state())];
        for row in &rows {
            runner.run_block(std::slice::from_ref(row), false).expect("golden rows are clean");
            states.push(encode_fleet_state(&runner.export_state()));
        }
        states
    };

    // --- Phase 2: clean-cut sweep -----------------------------------
    let sweep_start = Instant::now();
    let mut cut_failures = 0u64;
    for cut in 0..=opts.steps {
        let pre_threads = THREAD_CYCLE[cut % THREAD_CYCLE.len()];
        let post_threads = THREAD_CYCLE[(cut + 1) % THREAD_CYCLE.len()];
        std::fs::remove_dir_all(&work).ok();
        tracer.clear();

        let mut fleet =
            match PersistentFleet::create(&work, &config, pre_threads, opts.snapshot_every) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("recovery_drill: cut {cut}: create failed: {e}");
                    return ExitCode::from(2);
                }
            };
        for chunk in rows[..cut].chunks(PRE_CRASH_BLOCK) {
            if let Err(e) = fleet.run_block(chunk, true) {
                eprintln!("recovery_drill: cut {cut}: pre-crash run failed: {e}");
                return ExitCode::from(2);
            }
        }
        let pre_records = tracer.drain_sorted();
        let replay_debt = fleet.frames_since_snapshot();
        drop(fleet); // crash

        let (mut resumed, outcome) =
            match PersistentFleet::recover(&work, &config, post_threads, opts.snapshot_every) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("FAIL: cut {cut}: recovery errored on an undamaged store: {e}");
                    cut_failures += 1;
                    continue;
                }
            };
        if outcome.resumed_step != cut as u64 {
            eprintln!("FAIL: cut {cut}: resumed at step {} instead of {cut}", outcome.resumed_step);
            cut_failures += 1;
            continue;
        }
        if outcome.frames_replayed != replay_debt {
            eprintln!(
                "FAIL: cut {cut}: replayed {} frames, but only {replay_debt} were written since \
                 the last snapshot",
                outcome.frames_replayed
            );
            cut_failures += 1;
            continue;
        }
        if let Err(e) = resumed.run_block(&rows[cut..], true) {
            eprintln!("FAIL: cut {cut}: post-recovery run failed: {e}");
            cut_failures += 1;
            continue;
        }
        let mut merged = pre_records.clone();
        merged.extend(tracer.drain_sorted());
        let merged_jsonl = lane_trace_jsonl(merged, &config);
        if merged_jsonl != golden {
            eprintln!(
                "FAIL: cut {cut} ({pre_threads}->{post_threads} threads): merged trace \
                 diverges from golden"
            );
            write_divergence(&opts.artifact_dir, &format!("cut-{cut}"), &golden, &merged_jsonl);
            cut_failures += 1;
            continue;
        }
        let final_state = encode_fleet_state(&resumed.runner().export_state());
        if final_state != reference_final {
            eprintln!(
                "FAIL: cut {cut} ({pre_threads}->{post_threads} threads): trace matches but \
                 final state bytes diverge"
            );
            cut_failures += 1;
            continue;
        }
        let risk = resumed.runner().risk_digests();
        if let Some(lane) = risk.iter().zip(&reference_risk).position(|(got, want)| got != want) {
            eprintln!(
                "FAIL: cut {cut} ({pre_threads}->{post_threads} threads): state matches but \
                 lane {lane}'s risk digest diverges"
            );
            cut_failures += 1;
        }
    }
    failures += cut_failures;
    println!(
        "clean-cut sweep: {} cuts (trace, state and per-lane risk digests), threads rotating \
         {:?}, {} failure(s) ({:.2} s)",
        opts.steps + 1,
        THREAD_CYCLE,
        cut_failures,
        sweep_start.elapsed().as_secs_f64()
    );
    reporter.meta("cut_failures", cut_failures);

    // --- Phase 3: corruption sweep ----------------------------------
    tracer.disable();
    let sweep_start = Instant::now();
    std::fs::remove_dir_all(&work).ok();
    {
        let mut fleet = PersistentFleet::create(&work, &config, 2, opts.snapshot_every)
            .expect("work dir was writable in phase 2");
        for chunk in rows.chunks(PRE_CRASH_BLOCK) {
            fleet.run_block(chunk, false).expect("golden rows are clean");
        }
    }
    let journal_base = std::fs::read(work.join(JOURNAL_FILE)).expect("journal exists");
    let snapshot_base = std::fs::read(work.join(SNAPSHOT_FILE)).expect("snapshots exist");

    let mut silent_corruptions = 0u64;
    let mut recovered_ok = 0u64;
    let mut noop_faults = 0u64;
    let mut error_classes: BTreeMap<&'static str, u64> = BTreeMap::new();
    for case in 0..opts.corruption_cases {
        let plan = StorageFaultPlan::generate(SEED, case);
        let mut journal = journal_base.clone();
        let mut snapshots = snapshot_base.clone();
        let applied = match plan.target {
            FaultTarget::Journal => plan.apply(&mut journal),
            FaultTarget::Snapshot => plan.apply(&mut snapshots),
        };
        if applied.is_none() {
            noop_faults += 1;
            continue;
        }
        std::fs::remove_dir_all(&work).ok();
        std::fs::create_dir_all(&work).expect("can recreate work dir");
        std::fs::write(work.join(JOURNAL_FILE), &journal).expect("can write journal copy");
        std::fs::write(work.join(SNAPSHOT_FILE), &snapshots).expect("can write snapshot copy");

        match recover_fleet(
            &work.join(JOURNAL_FILE),
            &work.join(SNAPSHOT_FILE),
            &config,
            THREAD_CYCLE[(case % 3) as usize],
        ) {
            Ok((runner, outcome)) => {
                recovered_ok += 1;
                let r = outcome.resumed_step as usize;
                let state = encode_fleet_state(&runner.export_state());
                if r >= reference_at.len() || state != reference_at[r] {
                    silent_corruptions += 1;
                    eprintln!(
                        "FAIL: case {case} ({plan:?}): recovery returned Ok at step {r} with \
                         state bytes that do not match the reference — SILENT CORRUPTION\n  \
                         fault applied: {}",
                        applied.unwrap_or_default()
                    );
                }
            }
            Err(e) => {
                *error_classes.entry(error_class(&e)).or_default() += 1;
            }
        }
    }
    failures += silent_corruptions;
    println!(
        "corruption sweep: {} seeded cases in {:.2} s — {} recovered bit-identical, \
         {} rejected with typed errors, {} no-op fault(s), {} SILENT corruption(s)",
        opts.corruption_cases,
        sweep_start.elapsed().as_secs_f64(),
        recovered_ok,
        error_classes.values().sum::<u64>(),
        noop_faults,
        silent_corruptions
    );
    for (class, n) in &error_classes {
        println!("  {class:<26} {n}");
    }
    reporter.meta("silent_corruptions", silent_corruptions);
    reporter.meta("corruption_recovered_ok", recovered_ok);
    for (class, n) in &error_classes {
        reporter.meta(&format!("corruption_errors.{class}"), *n);
    }

    // --- Phase 4: recovery cost follows the tail, not the uptime -----
    let mut bounded = Vec::new();
    for uptime in [BOUND_UPTIME, 10 * BOUND_UPTIME] {
        let dir = work.join(format!("uptime-{uptime}"));
        let rows = workload_rows(uptime + BOUND_TAIL);
        let mut fleet = PersistentFleet::create(&dir, &config, 2, BOUND_SNAPSHOT_EVERY as u64)
            .expect("work dir was writable above");
        for chunk in rows[..uptime].chunks(BOUND_SNAPSHOT_EVERY) {
            fleet.run_block(chunk, false).expect("golden rows are clean");
        }
        fleet.run_block(&rows[uptime..], false).expect("golden rows are clean");
        drop(fleet);
        let journal_bytes = std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len());
        // Recovering an undamaged store changes nothing on disk, so the
        // best of a few runs is a fair time.
        let mut secs = f64::INFINITY;
        let mut recovered = None;
        for _ in 0..BOUND_REPS {
            let t = Instant::now();
            recovered =
                Some(recover_fleet(&dir.join(JOURNAL_FILE), &dir.join(SNAPSHOT_FILE), &config, 2));
            secs = secs.min(t.elapsed().as_secs_f64());
        }
        match recovered.expect("BOUND_REPS > 0") {
            Ok((_, outcome)) => {
                println!(
                    "bounded recovery: {uptime} steps before the last snapshot, {journal_bytes}-byte \
                     journal: read {} bytes, replayed {} frames in {:.2} ms (best of {BOUND_REPS})",
                    outcome.journal_bytes_read,
                    outcome.frames_replayed,
                    secs * 1e3
                );
                reporter.meta(&format!("bounded.uptime_{uptime}.recovery_s"), format!("{secs:.6}"));
                bounded.push((outcome.journal_bytes_read, outcome.frames_replayed));
            }
            Err(e) => {
                eprintln!("FAIL: bounded recovery of the {uptime}-step uptime errored: {e}");
                failures += 1;
            }
        }
    }
    match bounded.as_slice() {
        [short, long] if short == long && short.1 == BOUND_TAIL as u64 => {
            println!("bounded recovery: both uptimes read and replay the same tail — PASS");
        }
        _ => {
            eprintln!(
                "FAIL: bounded recovery: (journal bytes read, frames replayed) differ with \
                 uptime: {bounded:?}"
            );
            failures += 1;
        }
    }
    reporter.meta("bounded.journal_bytes_read", bounded.first().map_or(0, |b| b.0));

    // --- Phase 5: journaled throughput vs the perf-gate floor -------
    if !opts.skip_perf {
        let perf_rows = {
            let mut rng = StdRng::seed_from_u64(SEED + 211);
            (0..PERF_STOPS_PER_VEHICLE)
                .map(|_| (0..VEHICLES).map(|_| 120.0 * stopmodel::uniform01(&mut rng)).collect())
                .collect::<Vec<Vec<f64>>>()
        };
        let total_stops = (VEHICLES * PERF_STOPS_PER_VEHICLE) as f64;
        let mut best = f64::INFINITY;
        for _ in 0..PERF_REPS {
            std::fs::remove_dir_all(&work).ok();
            let mut fleet = PersistentFleet::create(&work, &config, PERF_THREADS, 0)
                .expect("work dir was writable above");
            let t = Instant::now();
            for chunk in perf_rows.chunks(PERF_BLOCK) {
                fleet.run_block(chunk, false).expect("perf rows are clean");
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        let sps = total_stops / best;
        reporter.meta("journaled_stops_per_sec", format!("{sps:.0}"));

        let tolerance = std::env::var("PERF_GATE_TOLERANCE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|t| t.is_finite() && *t > 0.0)
            .unwrap_or(DEFAULT_TOLERANCE);
        let baseline_path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_BASELINE.json");
        let floor = std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|text| obsv::RunReport::from_json(&text).ok())
            .and_then(|r| r.meta.get("batch_stops_per_sec").and_then(|v| v.parse::<f64>().ok()));
        match floor {
            Some(floor) if floor > 0.0 => {
                let bar = floor / tolerance;
                let verdict = if sps >= bar { "PASS" } else { "FAIL" };
                println!(
                    "journaled throughput: {sps:.0} stops/s vs floor {floor:.0}/{tolerance} = \
                     {bar:.0} stops/s — {verdict}"
                );
                if sps < bar {
                    failures += 1;
                }
            }
            _ => {
                eprintln!(
                    "recovery_drill: no batch_stops_per_sec floor in {} — skipping the \
                     throughput bar",
                    baseline_path.display()
                );
            }
        }
    }

    std::fs::remove_dir_all(&work).ok();
    reporter.meta("failures", failures);
    reporter.finish();

    if failures == 0 {
        println!("recovery drill PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("recovery drill FAIL: {failures} contract violation(s)");
        ExitCode::FAILURE
    }
}
