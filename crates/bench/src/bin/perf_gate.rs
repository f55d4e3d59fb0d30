//! Performance-regression gate for CI.
//!
//! Runs a fixed-seed, pinned-thread-count workload that exercises every
//! instrumented layer (engine drives, the adaptive controller, the
//! degradation ladder, the sanitizer, the parallel fleet evaluator),
//! captures a [`RunReport`], and compares it against the checked-in
//! `BENCH_BASELINE.json` at the repository root:
//!
//! * **wall clock** must be within `PERF_GATE_TOLERANCE` × the baseline
//!   (default 4×, loose enough for machine-to-machine variance but tight
//!   enough to catch an order-of-magnitude regression);
//! * **deterministic counters and histograms** must match the baseline
//!   *exactly* — the workload is seeded and the thread count pinned, so
//!   any drift means behavior changed (a silent extra restart, a lost
//!   observation, a policy flip), not noise;
//! * **metric invariants** must hold on the fresh run regardless of the
//!   baseline: the sanitizer drops nothing on clean input, engine stops
//!   partition into restarts + idle-throughs, and the report round-trips
//!   through its own JSON;
//! * **batched-decision throughput** must clear two floors: the fresh
//!   structure-of-arrays batch path (`skirental::batch`, sharded over the
//!   pinned thread count) must decide at least [`MIN_BATCH_SPEEDUP`] × as
//!   many stops per second as the fresh scalar reference on the same
//!   seeded workload (machine-independent, so a CI box can't mask a
//!   batch-path regression), and at least the baseline's recorded
//!   `batch_stops_per_sec` / `PERF_GATE_TOLERANCE` (the absolute floor).
//!   The two paths' outcomes are asserted **bit-identical** before any
//!   timing is trusted. Each rep's wall time is scaled by one minus the
//!   host's CPU steal share over it (`/proc/stat`), so a preempted VM
//!   does not read as a slow engine.
//!
//! Timing-derived values (latency-histogram buckets, `busy_micros`,
//! utilization gauges) are compared by *event count* only.
//!
//! Exit status: `0` pass, `1` regression (each failure names the metric),
//! `2` usage/configuration error. Regenerate the baseline after an
//! intentional behavior change with `--write-baseline` (see
//! EXPERIMENTS.md); `--report out.json` additionally writes the fresh
//! report for artifact upload, and `--trace out.jsonl` records the full
//! decision trace of the workload (each phase runs under its own stream
//! id, so the JSONL is deterministic and `trace_diff`-able across runs).

use bench::RunReporter;
use drivesim::faults::{Fault, FaultPlan};
use drivesim::sanitize::TraceSanitizer;
use drivesim::{Area, FleetConfig, VehicleTrace};
use obsv::RunReport;
use powertrain::{StopStartController, VehicleSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use skirental::analysis::bootstrap_cr_ci_parallel;
use skirental::batch::{run_fleet_batch, run_fleet_scalar, BatchConfig};
use skirental::estimator::AdaptiveController;
use skirental::fleet_eval::evaluate_fleet_parallel;
use skirental::{BreakEven, ConstrainedStats, DegradedController, Strategy};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use std::{env, fs};

const SEED: u64 = 20140601;
/// Pinned worker-thread count: parallel-runtime counters (chunk counts,
/// serial-vs-sharded path) depend on it, so the gate never uses the
/// machine's core count.
const THREADS: usize = 4;
const VEHICLES: usize = 96;
/// Bootstrap resamples in the parallel-bootstrap phase.
const RESAMPLES: usize = 2000;
/// Jittered sub-second stops in the long-stream phase.
const STREAM_STOPS: usize = 1_000_000;
const ESTIMATOR_WINDOW: usize = 50;
/// Default wall-clock tolerance factor vs the baseline.
const DEFAULT_TOLERANCE: f64 = 4.0;
/// Stops per vehicle in the batched-throughput phase.
const BATCH_STOPS_PER_VEHICLE: usize = 2_000;
/// Timed repetitions per path in the throughput phase (best rep wins, so
/// a one-off scheduler hiccup can't fail the gate).
const BATCH_REPS: usize = 3;
/// Relative floor: fresh batch stops/s must be at least this multiple of
/// the fresh scalar path's stops/s on the same workload.
const MIN_BATCH_SPEEDUP: f64 = 5.0;
/// Trace-stream base for the throughput phase: the scalar reference
/// streams per-stop records here; batch shard digests follow above it.
const BATCH_STREAM_BASE: u64 = 940_000;

/// Measured stop-decision throughput of the two engines.
struct BatchThroughput {
    /// Stops decided per second by `run_fleet_batch` at [`THREADS`].
    batch_sps: f64,
    /// Stops decided per second by the serial scalar reference.
    scalar_sps: f64,
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_BASELINE.json")
}

/// The measured workload. Everything is seeded; the only nondeterminism
/// in the resulting report is wall-clock time, latency-bucket shapes,
/// and the returned throughput measurements.
fn workload() -> BatchThroughput {
    let b = BreakEven::SSV;
    let spec = VehicleSpec::stop_start_vehicle();
    let fleet = FleetConfig::new(Area::Chicago).vehicles(VEHICLES).synthesize(SEED);
    let vehicles: Vec<Vec<f64>> = fleet.iter().map(VehicleTrace::stop_lengths).collect();

    // Each phase runs under a disjoint trace-stream id space so a traced
    // gate run keys every record uniquely (set_stream resets the per-
    // stream seq counter; it is a no-op without --trace).

    // Engine drives under the proposed policy (powertrain counters).
    for (i, stops) in vehicles.iter().enumerate() {
        obsv::tracer::set_stream(i as u64);
        let policy =
            ConstrainedStats::from_samples(stops, b).expect("non-empty trace").optimal_policy();
        let mut rng = StdRng::seed_from_u64(SEED ^ (i as u64 + 1));
        StopStartController::new(&policy, spec).drive(stops, &mut rng).expect("valid trace");
    }

    // Adaptive controller on clean readings (estimator counters).
    for (i, stops) in vehicles.iter().enumerate() {
        obsv::tracer::set_stream(100_000 + i as u64);
        let mut ctl = AdaptiveController::with_window(b, ESTIMATOR_WINDOW);
        let mut rng = StdRng::seed_from_u64(SEED + i as u64);
        ctl.run(stops, &mut rng).expect("non-empty trace");
    }

    // Degradation ladder under a composed fault plan (trust transitions,
    // anomaly counters).
    let plan = FaultPlan::new(vec![
        Fault::StuckAt { rate: 0.05, run: 40, value_s: 900.0 },
        Fault::Corrupt { rate: 0.02 },
    ])
    .expect("valid fault plan");
    for (i, stops) in vehicles.iter().enumerate() {
        obsv::tracer::set_stream(200_000 + i as u64);
        let observed = plan.corrupt_observations(stops, SEED ^ ((i as u64 + 1) * 7919));
        let mut deg = DegradedController::with_estimator_window(b, ESTIMATOR_WINDOW);
        let mut rng = StdRng::seed_from_u64(SEED + 31 + i as u64);
        deg.run_observed(stops, &observed, &mut rng).expect("clean true stops");
    }

    // Sanitizer on known-clean durations (the zero-drop invariant).
    for stops in &vehicles {
        let (clean, report) = TraceSanitizer::default().sanitize_durations(stops);
        assert_eq!(clean.len(), stops.len());
        assert!(report.is_clean(), "synthesized stop lengths must sanitize clean");
    }

    // Parallel fleet evaluation on the pinned thread count.
    evaluate_fleet_parallel(
        &vehicles,
        b,
        &[Strategy::Det, Strategy::Toi, Strategy::NRand, Strategy::Proposed],
        THREADS,
    )
    .expect("non-empty fleet");

    // Parallel bootstrap on the densest trace — the heaviest single
    // computation, so wall time reflects real per-item work.
    let stops = vehicles.iter().max_by_key(|v| v.len()).expect("non-empty fleet");
    let policy =
        ConstrainedStats::from_samples(stops, b).expect("non-empty trace").optimal_policy();
    let mut rng = StdRng::seed_from_u64(SEED + 97);
    bootstrap_cr_ci_parallel(&policy, stops, RESAMPLES, 0.95, &mut rng, THREADS)
        .expect("non-empty trace");

    // Long jittered stream through the full ladder — the fault_sweep
    // adversarial fixture at reduced size, so the gate's wall time is
    // dominated by per-stop decision work rather than setup.
    obsv::tracer::set_stream(900_000);
    let mut rng = StdRng::seed_from_u64(SEED + 7);
    let stream: Vec<f64> =
        (0..STREAM_STOPS).map(|_| 0.2 + 0.1 * stopmodel::uniform01(&mut rng)).collect();
    let observed = plan.corrupt_observations(&stream, SEED + 13);
    let mut deg = DegradedController::with_estimator_window(b, ESTIMATOR_WINDOW);
    let mut rng = StdRng::seed_from_u64(SEED + 131);
    deg.run_observed(&stream, &observed, &mut rng).expect("clean true stops");

    batch_phase()
}

/// Batched-decision throughput phase: the same seeded equal-length fleet
/// through the scalar per-vehicle controller (serial) and the
/// structure-of-arrays batch engine (sharded over [`THREADS`]), timed.
/// Outcomes must be bit-identical — a fast wrong answer is a gate
/// failure, not a throughput win.
fn batch_phase() -> BatchThroughput {
    let b = BreakEven::SSV;
    // Equal-length jittered traces so every shard carries the same work:
    // uniform 0..120 s stops straddle the 28 s break-even (~3/4 short),
    // which keeps all four vertices live in the argmin.
    let mut rng = StdRng::seed_from_u64(SEED + 211);
    let fleet: Vec<Vec<f64>> = (0..VEHICLES)
        .map(|_| {
            (0..BATCH_STOPS_PER_VEHICLE).map(|_| 120.0 * stopmodel::uniform01(&mut rng)).collect()
        })
        .collect();
    let cfg = BatchConfig {
        window: Some(ESTIMATOR_WINDOW),
        min_history: 3,
        seed: SEED,
        trace_stream_base: BATCH_STREAM_BASE + 1_000,
    };
    let total_stops = (VEHICLES * BATCH_STOPS_PER_VEHICLE) as f64;

    // Scalar reference: per-vehicle controller, serial, per-stop
    // instrumentation — the path every release before the batch engine
    // shipped was measured on.
    obsv::tracer::set_stream(BATCH_STREAM_BASE);
    let mut scalar_best = f64::INFINITY;
    let mut scalar = Vec::new();
    for _ in 0..BATCH_REPS {
        let (r, secs) = time_unstolen(|| run_fleet_scalar(&fleet, b, &cfg));
        scalar = r.expect("non-empty fleet");
        scalar_best = scalar_best.min(secs);
    }

    // Batch engine at the pinned thread count.
    let mut batch_best = f64::INFINITY;
    let mut report = None;
    for _ in 0..BATCH_REPS {
        let (r, secs) = time_unstolen(|| run_fleet_batch(&fleet, b, &cfg, THREADS));
        batch_best = batch_best.min(secs);
        report = Some(r.expect("non-empty fleet"));
    }
    let report = report.expect("BATCH_REPS >= 1");
    assert_eq!(report.outcomes, scalar, "batch path must be bit-identical to the scalar reference");
    BatchThroughput { batch_sps: total_stops / batch_best, scalar_sps: total_stops / scalar_best }
}

/// CPU time the hypervisor gave to other guests while this one's CPUs
/// wanted to run (`steal` in `/proc/stat`), in clock ticks of 1/100 s
/// summed over CPUs; 0 where the kernel does not report it.
fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Times `f` and scales its wall time by one minus the share of the
/// machine's CPU time the host stole meanwhile (capped at 0.9), so a
/// throughput rep that a noisy neighbour preempted is not read as a
/// slow engine.
fn time_unstolen<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (start, ticks) = (Instant::now(), steal_ticks());
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let stolen = steal_ticks().saturating_sub(ticks) as f64 / 100.0;
    let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    (out, wall * (1.0 - (stolen / (cpus * wall.max(1e-9))).min(0.9)))
}

/// Decision throughput through the full daemon path: an in-process
/// `fleetd` on a unix socket, one client streaming seeded blocks —
/// frame codec, socket hops, bounded queue, write-ahead journal, and
/// the sharded engine all on the clock — with the telemetry plane
/// enabled (stage histograms + HTTP listener), so the floor also
/// guards the instrumentation's overhead. Recorded in meta as
/// `daemon_decisions_per_sec` and gated by [`daemon_gate`].
fn daemon_phase() -> f64 {
    const DAEMON_LANES: usize = 2_048;
    const DAEMON_BLOCKS: usize = 24;
    const DAEMON_BLOCK_STEPS: usize = 8;
    // The daemon drives the same engine and persistence layers the
    // gated workload does; recording its counters would shift the
    // exact-match comparison. This phase is timing-only.
    obsv::global().disable();
    let scratch = std::env::temp_dir().join(format!("perf-gate-daemon-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).expect("scratch dir");
    let socket = scratch.join("fleetd.sock");
    let options = fleetd::server::ServeOptions {
        dir: scratch.join("fleet"),
        config: fleetstate::FleetConfig {
            lanes: DAEMON_LANES,
            break_even: BreakEven::SSV.seconds(),
            window: Some(ESTIMATOR_WINDOW),
            min_history: 3,
            seed: SEED,
            trace_stream_base: 960_000,
        },
        threads: THREADS,
        snapshot_every: 0,
        queue_capacity: 64,
        emit_trace: false,
        engine_delay_ms: 0,
        recover: false,
        telemetry_addr: Some("127.0.0.1:0".to_string()),
    };
    let started = fleetd::server::serve(&options, &socket, None).expect("daemon starts");
    let mut client = fleetd::client::Client::connect_unix(&socket).expect("daemon accepts");
    client.hello("perf-gate").expect("handshake");

    let mut rng = StdRng::seed_from_u64(SEED + 307);
    let blocks: Vec<Vec<Vec<f64>>> = (0..DAEMON_BLOCKS)
        .map(|_| {
            (0..DAEMON_BLOCK_STEPS)
                .map(|_| {
                    (0..DAEMON_LANES).map(|_| 120.0 * stopmodel::uniform01(&mut rng)).collect()
                })
                .collect()
        })
        .collect();

    let t = Instant::now();
    let mut step = 0u64;
    for block in &blocks {
        match client.submit(step, block).expect("submit succeeds") {
            fleetd::proto::Reply::Decisions { steps, .. } => step += u64::from(steps),
            other => panic!("daemon phase: unexpected reply {other:?}"),
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    drop(client);
    started.handle.stop();
    let _ = fs::remove_dir_all(&scratch);
    obsv::global().enable();
    (DAEMON_LANES * DAEMON_BLOCKS * DAEMON_BLOCK_STEPS) as f64 / elapsed
}

/// Gates the batched-decision throughput: the relative ≥
/// [`MIN_BATCH_SPEEDUP`]× floor against the fresh scalar path, and the
/// absolute `batch_stops_per_sec` floor recorded in the baseline
/// (divided by `tolerance` for machine-to-machine variance).
fn throughput_gate(tp: &BatchThroughput, baseline: &RunReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let speedup = tp.batch_sps / tp.scalar_sps;
    // NaN (a broken measurement) must fail the floor, not slip past it.
    if speedup.is_nan() || speedup < MIN_BATCH_SPEEDUP {
        failures.push(format!(
            "batch_speedup: batch path {:.0} stops/s is only {speedup:.2}x the scalar path \
             {:.0} stops/s (floor {MIN_BATCH_SPEEDUP}x)",
            tp.batch_sps, tp.scalar_sps
        ));
    }
    match baseline.meta.get("batch_stops_per_sec").map(|v| v.parse::<f64>()) {
        Some(Ok(floor)) if floor.is_finite() && floor > 0.0 => {
            if tp.batch_sps < floor / tolerance {
                failures.push(format!(
                    "batch_stops_per_sec: fresh {:.0} below baseline {floor:.0} / tolerance \
                     {tolerance} (set PERF_GATE_TOLERANCE to override)",
                    tp.batch_sps
                ));
            }
        }
        _ => failures.push(
            "batch_stops_per_sec: baseline records no throughput floor \
             (regenerate with --write-baseline)"
                .to_string(),
        ),
    }
    failures
}

/// Gates the daemon-path throughput against the baseline's
/// `daemon_decisions_per_sec` floor (divided by `tolerance`). A
/// baseline written before the daemon phase existed carries no key;
/// the gate only bites once a baseline refresh records the floor.
fn daemon_gate(fresh_dps: f64, baseline: &RunReport, tolerance: f64) -> Vec<String> {
    match baseline.meta.get("daemon_decisions_per_sec").map(|v| v.parse::<f64>()) {
        Some(Ok(floor)) if floor.is_finite() && floor > 0.0 => {
            // NaN (a broken measurement) must fail the floor too.
            if fresh_dps.is_nan() || fresh_dps < floor / tolerance {
                vec![format!(
                    "daemon_decisions_per_sec: fresh {fresh_dps:.0} below baseline {floor:.0} / \
                     tolerance {tolerance} (set PERF_GATE_TOLERANCE to override)"
                )]
            } else {
                Vec::new()
            }
        }
        _ => Vec::new(),
    }
}

/// Whether a counter's value is timing-derived (excluded from exact
/// comparison).
fn timing_counter(name: &str) -> bool {
    name.ends_with("busy_micros")
}

/// Whether a histogram holds latencies (bucket shape is noise; only the
/// event count is deterministic).
fn timing_histogram(name: &str) -> bool {
    name.ends_with("_seconds")
}

/// Whether a gauge's value is timing-derived.
fn timing_gauge(name: &str) -> bool {
    name.ends_with("utilization")
}

/// Baseline-independent sanity checks on the fresh report.
fn invariants(fresh: &RunReport) -> Vec<String> {
    let m = &fresh.metrics;
    let mut failures = Vec::new();
    for class in ["non_finite", "negative", "out_of_order", "duplicate", "implausible", "stuck"] {
        let name = format!("drivesim.sanitize.dropped.{class}");
        let v = m.counter(&name);
        if v != 0 {
            failures.push(format!("{name}: {v} drops on clean input (expected 0)"));
        }
    }
    if m.counter("drivesim.sanitize.events_in") != m.counter("drivesim.sanitize.events_clean") {
        failures.push("drivesim.sanitize.events_clean: != events_in on clean input".to_string());
    }
    let stops = m.counter("powertrain.controller.stops");
    let split = m.counter("powertrain.controller.restarts")
        + m.counter("powertrain.controller.idled_through");
    if stops != split {
        failures.push(format!(
            "powertrain.controller.stops: {stops} != restarts+idled_through {split}"
        ));
    }
    if stops == 0 {
        failures.push("powertrain.controller.stops: workload recorded no stops".to_string());
    }
    if m.counter("skirental.parallel.calls") == 0 {
        failures
            .push("skirental.parallel.calls: workload never hit the parallel runtime".to_string());
    }
    match RunReport::from_json(&fresh.to_json()) {
        Ok(back) if &back == fresh => {}
        Ok(_) => failures.push("report JSON: round-trip is not the identity".to_string()),
        Err(e) => failures.push(format!("report JSON: does not re-parse: {e}")),
    }
    failures
}

/// Compares the fresh report against the baseline; returns one line per
/// regression, each naming the offending metric.
fn compare(fresh: &RunReport, baseline: &RunReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if fresh.wall_s > baseline.wall_s * tolerance {
        failures.push(format!(
            "wall_s: fresh {:.3} s exceeds baseline {:.3} s x tolerance {tolerance} \
             (set PERF_GATE_TOLERANCE to override)",
            fresh.wall_s, baseline.wall_s
        ));
    }
    for (name, &base) in &baseline.metrics.counters {
        if timing_counter(name) {
            continue;
        }
        let got = fresh.metrics.counter(name);
        if got != base {
            failures.push(format!("counter {name}: fresh {got} != baseline {base}"));
        }
    }
    for name in fresh.metrics.counters.keys() {
        if !timing_counter(name) && !baseline.metrics.counters.contains_key(name) {
            failures.push(format!(
                "counter {name}: not in baseline (regenerate with --write-baseline)"
            ));
        }
    }
    for (name, base) in &baseline.metrics.histograms {
        let Some(got) = fresh.metrics.histograms.get(name) else {
            failures.push(format!("histogram {name}: missing from fresh run"));
            continue;
        };
        if got.count() != base.count() {
            failures.push(format!(
                "histogram {name}: fresh count {} != baseline count {}",
                got.count(),
                base.count()
            ));
        } else if !timing_histogram(name)
            && (got.counts != base.counts || got.sum_micros != base.sum_micros)
        {
            failures.push(format!("histogram {name}: bucket contents differ from baseline"));
        }
    }
    for name in fresh.metrics.histograms.keys() {
        if !baseline.metrics.histograms.contains_key(name) {
            failures.push(format!(
                "histogram {name}: not in baseline (regenerate with --write-baseline)"
            ));
        }
    }
    for (name, &base) in &baseline.metrics.gauges {
        if timing_gauge(name) {
            continue;
        }
        let got = fresh.metrics.gauges.get(name).copied();
        if got != Some(base) {
            failures.push(format!("gauge {name}: fresh {got:?} != baseline {base}"));
        }
    }
    failures
}

fn main() -> ExitCode {
    let write_baseline = env::args().skip(1).any(|a| a == "--write-baseline");
    let mut reporter = RunReporter::from_args("perf_gate");
    // The gate always measures, with or without `--report`.
    obsv::global().reset();
    obsv::global().enable();
    reporter.meta("seed", SEED);
    reporter.meta("threads", THREADS);
    reporter.meta("vehicles", VEHICLES);
    // Streams the CR-regret monitor must skip when replaying this run's
    // trace: the fault-injection ladder fixture (900000) and the scalar
    // throughput reference (940000) intentionally trip drift alarms.
    // `monitor --ignore-from <this report>` reads this list, so the CI
    // replay step doesn't hardcode harness-internal stream ids.
    reporter.meta("monitor.ignored_streams", format!("900000,{BATCH_STREAM_BASE}"));

    let throughput = workload();
    // Measured throughputs ride in meta: `compare` ignores meta, so they
    // never trip exact-match checks, but `--write-baseline` records them
    // as the floor for future runs.
    reporter.meta("batch_stops_per_sec", format!("{:.0}", throughput.batch_sps));
    reporter.meta("scalar_stops_per_sec", format!("{:.0}", throughput.scalar_sps));
    // Daemon-path throughput (telemetry plane on) is both observability
    // and, once a baseline records it, a floor via `daemon_gate`.
    let daemon_dps = daemon_phase();
    reporter.meta("daemon_decisions_per_sec", format!("{daemon_dps:.0}"));

    let fresh = reporter.capture();
    reporter.finish();
    let path = baseline_path();

    if write_baseline {
        if let Err(e) = fs::write(&path, fresh.to_json() + "\n") {
            eprintln!("perf_gate: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("baseline written to {} (wall {:.3} s)", path.display(), fresh.wall_s);
        return ExitCode::SUCCESS;
    }

    let baseline = match fs::read_to_string(&path) {
        Ok(text) => match RunReport::from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perf_gate: malformed baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!(
                "perf_gate: cannot read baseline {} ({e}); generate it with --write-baseline",
                path.display()
            );
            return ExitCode::from(2);
        }
    };

    let tolerance = env::var("PERF_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t > 0.0)
        .unwrap_or(DEFAULT_TOLERANCE);

    let mut failures = invariants(&fresh);
    failures.extend(compare(&fresh, &baseline, tolerance));
    failures.extend(throughput_gate(&throughput, &baseline, tolerance));
    failures.extend(daemon_gate(daemon_dps, &baseline, tolerance));

    if failures.is_empty() {
        println!(
            "perf gate PASS: wall {:.3} s (baseline {:.3} s, tolerance {tolerance}x), \
             {} counters / {} histograms matched, batch {:.0} stops/s \
             ({:.1}x scalar {:.0} stops/s), daemon {daemon_dps:.0} decisions/s",
            fresh.wall_s,
            baseline.wall_s,
            baseline.metrics.counters.len(),
            baseline.metrics.histograms.len(),
            throughput.batch_sps,
            throughput.batch_sps / throughput.scalar_sps,
            throughput.scalar_sps
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAIL ({} regression(s)):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}
