//! Determinism guarantees of the shared parallel runtime: sharding work
//! over scoped threads must never change results. Fleet evaluation and
//! the bootstrap resampler are required to be **bit-identical** for any
//! worker-thread count, so CSV artifacts and paper tables reproduce
//! exactly on any machine.

use automotive_idling::drivesim::{Area, FleetConfig, VehicleTrace};
use automotive_idling::fleetstate;
use automotive_idling::skirental::analysis::bootstrap_cr_ci_parallel;
use automotive_idling::skirental::batch::{run_fleet_batch, run_fleet_scalar, BatchConfig};
use automotive_idling::skirental::estimator::AdaptiveController;
use automotive_idling::skirental::fleet_eval::{evaluate_fleet, evaluate_fleet_parallel};
use automotive_idling::skirental::parallel::chunked_map;
use automotive_idling::skirental::policy::Det;
use automotive_idling::skirental::{BreakEven, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

const THREADS: [usize; 5] = [1, 2, 4, 7, 64];

/// Serializes the tests that drive the process-wide tracer: an enabled
/// tracer would otherwise record stops from a concurrently running test
/// thread.
static PROCESS_WIDE: Mutex<()> = Mutex::new(());

#[test]
fn fleet_eval_bit_identical_across_thread_counts() {
    let traces = FleetConfig::new(Area::Chicago).vehicles(23).synthesize(9);
    let stops: Vec<Vec<f64>> = traces.iter().map(VehicleTrace::stop_lengths).collect();
    let b = BreakEven::SSV;
    let reference = evaluate_fleet(&stops, b, &Strategy::ALL).unwrap();
    for threads in THREADS {
        let report = evaluate_fleet_parallel(&stops, b, &Strategy::ALL, threads).unwrap();
        // PartialEq on f64 fields: any drift — even 1 ulp — fails here.
        assert_eq!(report, reference, "fleet report drifted at {threads} threads");
    }
}

#[test]
fn bootstrap_ci_bit_identical_across_thread_counts() {
    let traces = FleetConfig::new(Area::Atlanta).vehicles(1).days(14).synthesize(31);
    let stops = traces[0].stop_lengths();
    let b = BreakEven::SSV;
    let policy = Det::new(b);
    let reference = {
        let mut rng = StdRng::seed_from_u64(123);
        bootstrap_cr_ci_parallel(&policy, &stops, 300, 0.95, &mut rng, 1).unwrap()
    };
    for threads in THREADS {
        let mut rng = StdRng::seed_from_u64(123);
        let ci = bootstrap_cr_ci_parallel(&policy, &stops, 300, 0.95, &mut rng, threads).unwrap();
        assert_eq!(ci, reference, "bootstrap CI drifted at {threads} threads");
    }
    assert!(reference.lo <= reference.point && reference.point <= reference.hi);
}

/// The sharded structure-of-arrays batch engine reproduces the scalar
/// per-vehicle controller **bit for bit** at every worker-thread count:
/// per-vehicle RNG streams are keyed by global vehicle index, so shard
/// boundaries cannot influence a single draw.
#[test]
fn batch_engine_bit_identical_across_thread_counts() {
    let traces = FleetConfig::new(Area::Chicago).vehicles(23).synthesize(41);
    let stops: Vec<Vec<f64>> = traces.iter().map(VehicleTrace::stop_lengths).collect();
    let b = BreakEven::SSV;
    let cfg = BatchConfig {
        window: Some(50),
        min_history: 3,
        seed: 20_140_601,
        ..BatchConfig::default()
    };
    let reference = run_fleet_scalar(&stops, b, &cfg).unwrap();
    for threads in THREADS {
        let report = run_fleet_batch(&stops, b, &cfg, threads).unwrap();
        // AdaptiveOutcome is PartialEq over raw f64s: 1 ulp of drift fails.
        assert_eq!(report.outcomes, reference, "batch outcomes drifted at {threads} threads");
        assert_eq!(report.total_decisions(), stops.iter().map(Vec::len).sum::<usize>() as u64);
    }
}

/// The serialized decision trace of a sharded workload is **byte**
/// identical for any worker-thread count: records are keyed by logical
/// `(stream, stop, seq)` coordinates, never by thread or arrival order.
///
/// Uses the process-wide tracer (like a `--trace` bin run would); safe
/// here because the other tests in this binary drive no instrumented
/// per-stop call sites, so nothing else records into it.
#[test]
fn decision_traces_bit_identical_across_thread_counts() {
    let _guard = PROCESS_WIDE.lock().unwrap_or_else(PoisonError::into_inner);
    let traces = FleetConfig::new(Area::Chicago).vehicles(8).synthesize(77);
    let vehicles: Vec<Vec<f64>> = traces.iter().map(VehicleTrace::stop_lengths).collect();
    let b = BreakEven::SSV;
    let tracer = obsv::tracer::global();

    let trace_with = |threads: usize| -> String {
        tracer.clear();
        tracer.enable();
        let outcomes = chunked_map(&vehicles, threads, |i, stops| {
            obsv::tracer::set_stream(i as u64);
            let mut ctl = AdaptiveController::with_window(b, 50);
            let mut rng = StdRng::seed_from_u64(500 + i as u64);
            ctl.run(stops, &mut rng).unwrap()
        });
        tracer.disable();
        assert_eq!(outcomes.len(), vehicles.len());
        let records = tracer.drain_sorted();
        assert_eq!(tracer.dropped(), 0, "workload must fit the ring buffers");
        assert!(!records.is_empty(), "instrumentation recorded nothing");
        obsv::event::to_jsonl(&records)
    };

    let reference = trace_with(1);
    for threads in [2, 8] {
        let jsonl = trace_with(threads);
        assert_eq!(jsonl, reference, "trace bytes drifted at {threads} threads");
    }
    tracer.clear();

    // And the reference parses back into as many records as it has lines.
    let parsed = obsv::event::parse_jsonl(&reference).unwrap();
    assert_eq!(parsed.len(), reference.lines().count());
}

/// The serialized risk report of a sharded fleet run is **byte**
/// identical for any worker-thread count: sketch buckets are integer
/// counts in the runner's per-lane sketches, so sharding cannot move a
/// sample, and the report walks vehicles in sorted stream order. The fleet digest —
/// hence every published CVaR / quantile / exceedance gauge — also
/// re-derives bit-exactly from the per-vehicle digests of the
/// round-tripped JSON, which is the offline-audit contract.
#[test]
fn risk_reports_bit_identical_across_thread_counts() {
    let lanes = 23usize;
    let steps = 200usize;
    let mut rng = StdRng::seed_from_u64(20_140_601);
    let rows: Vec<Vec<f64>> = (0..steps)
        .map(|_| {
            (0..lanes)
                .map(|_| 1.0 + 180.0 * automotive_idling::stopmodel::uniform01(&mut rng))
                .collect()
        })
        .collect();
    let config = fleetstate::FleetConfig {
        lanes,
        break_even: 28.0,
        window: Some(50),
        min_history: 3,
        seed: 7,
        trace_stream_base: 9_000,
    };
    let report_with = |threads: usize| -> obsv::RiskReport {
        let mut runner = fleetstate::FleetRunner::new(&config, threads).unwrap();
        for block in rows.chunks(64) {
            runner.run_block(block, false).unwrap();
        }
        let streams = (config.trace_stream_base..).zip(runner.risk_sketches().iter());
        obsv::RiskReport::from_sketches(streams)
    };

    let reference = report_with(1);
    let reference_json = reference.to_value().to_string();
    assert_eq!(reference.vehicles.len(), lanes, "every lane must have a sketch");
    assert_eq!(reference.fleet.count, (lanes * steps) as u64);
    for threads in [2, 8] {
        let report = report_with(threads);
        assert_eq!(report, reference, "risk report drifted at {threads} threads");
        assert_eq!(
            report.to_value().to_string(),
            reference_json,
            "risk report bytes drifted at {threads} threads"
        );
    }

    // Offline audit: parse the serialized report back, re-merge the
    // vehicle digests, and re-derive every gauge — bit-for-bit equal to
    // the live values, including the fleet CVaR ledger.
    let parsed =
        obsv::RiskReport::from_value(&obsv::json::Value::parse(&reference_json).unwrap()).unwrap();
    assert_eq!(parsed, reference);
    let remerged =
        parsed.vehicles.values().fold(obsv::SketchDigest::default(), |acc, d| acc.merge(d));
    assert_eq!(remerged, reference.fleet, "fleet digest must equal the vehicle merge");
    for alpha in [0.95, 0.99] {
        let live = reference.fleet.cvar(alpha).unwrap();
        let offline = remerged.cvar(alpha).unwrap();
        assert_eq!(offline.to_bits(), live.to_bits(), "cvar({alpha}) drifted offline");
    }
    for q in [0.5, 0.9, 0.99] {
        let live = reference.fleet.quantile(q).unwrap();
        let offline = remerged.quantile(q).unwrap();
        assert_eq!(offline.to_bits(), live.to_bits(), "quantile({q}) drifted offline");
    }
    for tau in obsv::risk::TAU_LADDER {
        assert_eq!(remerged.exceed_count(tau), reference.fleet.exceed_count(tau));
    }
}
