//! The `offline_batch` workload: repeated `run_fleet_batch` passes over
//! a seeded `drivesim` Chicago fleet — the paper-evaluation path, with
//! ragged per-vehicle histories and full-history lanes.

use std::path::PathBuf;
use std::time::Instant;

use drivesim::{Area, FleetConfig, VehicleTrace};
use skirental::batch::{
    run_fleet_batch, run_fleet_scalar, BatchConfig, BatchStore, CounterRng, VertexKind,
};
use skirental::BreakEven;

use crate::measure::{median, peak_rss_mb, time_unstolen, OpLog, Spans};
use crate::{check, Ctx, Outcome};

#[derive(Clone, Copy)]
struct Shape {
    vehicles: usize,
    days: u32,
    threads: usize,
    /// Leading vehicles re-run through `run_fleet_scalar`.
    scalar_check: usize,
}

const FULL: Shape = Shape { vehicles: 1024, days: 365, threads: 2, scalar_check: 24 };
const TINY: Shape = Shape { vehicles: 16, days: 7, threads: 2, scalar_check: 4 };

/// Fleet syntheses per run; `setup_s` is the median of their
/// steal-scaled times.
const SETUP_REPS: usize = 3;
/// Traced runs make one single-thread pass every this many passes.
const ONE_THREAD_EVERY: u64 = 4;
const MIN_HISTORY: usize = 8;

fn synthesize(shape: &Shape, seed: u64) -> Vec<Vec<f64>> {
    FleetConfig::new(Area::Chicago)
        .vehicles(shape.vehicles)
        .days(shape.days)
        .synthesize(seed)
        .iter()
        .map(VehicleTrace::stop_lengths)
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let shape = if ctx.tiny { TINY } else { FULL };
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fleet: Vec<Vec<f64>> = Vec::new();
    for _ in 0..SETUP_REPS {
        let (synthesized, secs) = time_unstolen(|| synthesize(&shape, ctx.seed));
        fleet = synthesized;
        setup.push(secs);
    }
    if fleet.iter().any(Vec::is_empty) {
        return Err("the synthesized fleet has a vehicle without stops".into());
    }
    let stops: usize = fleet.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "fleet: {} vehicles, {stops} stops, {}-{} per vehicle",
        fleet.len(),
        fleet.iter().map(Vec::len).min().unwrap_or(0),
        fleet.iter().map(Vec::len).max().unwrap_or(0)
    ));
    let b = BreakEven::SSV;
    let cfg = BatchConfig {
        window: None,
        min_history: MIN_HISTORY,
        seed: ctx.seed,
        trace_stream_base: 0,
    };

    let mut spans = Spans::new(ctx.trace);
    let mut log = OpLog::new(1);
    let mut first = None;
    let started = Instant::now();
    let mut pass = 0u64;
    while log.len() == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        spans.begin_op(pass, "pass");
        log.before_op();
        let (report, secs) =
            spans.time("batch.run_fleet_batch", || run_fleet_batch(&fleet, b, &cfg, shape.threads));
        let report = report.map_err(|e| e.to_string())?;
        log.push(secs);
        // Every pass must repeat the first one bit for bit.
        match &first {
            None => first = Some(report.outcomes),
            Some(f) => out.check(check::outcomes_match(f, &report.outcomes)),
        }
        if ctx.trace && pass.is_multiple_of(ONE_THREAD_EVERY) {
            let (one, _) =
                spans.time("batch.run_fleet_batch_1t", || run_fleet_batch(&fleet, b, &cfg, 1));
            let one = one.map_err(|e| e.to_string())?;
            out.check(first.as_ref().is_some_and(|f| check::outcomes_match(f, &one.outcomes)));
            kernel_probe(&mut spans, &fleet, &cfg, b)?;
        }
        spans.end_op();
        pass += 1;
    }
    let first = first.ok_or("no pass ran")?;
    let k = shape.scalar_check.min(fleet.len());
    let scalar = run_fleet_scalar(&fleet[..k], b, &cfg).map_err(|e| e.to_string())?;
    out.check(check::outcomes_match(&first[..k], &scalar));

    out.e2e.insert("setup_s", median(&setup));
    log.record(&mut out, stops as f64);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    let dps = out.e2e["decisions_per_s"];
    if ctx.trace {
        let (one_s, one_n) = spans.total("batch.run_fleet_batch_1t");
        let dps_1t = stops as f64 * one_n as f64 / one_s;
        let (decide_s, decide_n) = spans.total("batch.decide_batch");
        let (observe_s, observe_n) = spans.total("batch.observe_batch");
        let lanes = fleet.len() as f64;
        let decide_ns = decide_s / (decide_n as f64 * lanes) * 1e9;
        let observe_ns = observe_s / (observe_n as f64 * lanes) * 1e9;
        let l = &mut out.layers;
        l.insert("offline.decisions_per_s_1t", dps_1t);
        l.insert("offline.parallel_efficiency", dps / (shape.threads as f64 * dps_1t));
        l.insert("kernel.decide_ns_per_lane", decide_ns);
        l.insert("kernel.observe_ns_per_lane", observe_ns);
        l.insert("runner.settle_ns_per_decision", 1e9 / dps_1t - decide_ns - observe_ns);
        let path =
            PathBuf::from(format!("perfbench/out/spans-offline_batch-seed{}.jsonl", ctx.seed));
        spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Times the decision kernel alone on the fleet's lanes: one
/// `decide_batch` and one `observe_batch` per step of the common prefix
/// every vehicle shares.
fn kernel_probe(
    spans: &mut Spans,
    fleet: &[Vec<f64>],
    cfg: &BatchConfig,
    b: BreakEven,
) -> Result<(), String> {
    let lanes = fleet.len();
    let mut store = BatchStore::new(b, lanes).min_history(cfg.min_history);
    let mut rngs: Vec<CounterRng> =
        (0..lanes).map(|i| CounterRng::for_stream(cfg.seed, i as u64)).collect();
    let mut thresholds = vec![0.0; lanes];
    let mut vertices = vec![VertexKind::ColdStart; lanes];
    let common = fleet.iter().map(Vec::len).min().unwrap_or(0);
    let mut row = vec![0.0; lanes];
    for t in 0..common {
        for (y, stops) in row.iter_mut().zip(fleet) {
            *y = stops[t];
        }
        let (decided, _) = spans.time("batch.decide_batch", || {
            store.decide_batch(&mut rngs, &mut thresholds, &mut vertices)
        });
        let (observed, _) = spans.time("batch.observe_batch", || store.observe_batch(&row));
        decided.map_err(|e| e.to_string())?;
        observed.map_err(|e| e.to_string())?;
    }
    Ok(())
}
