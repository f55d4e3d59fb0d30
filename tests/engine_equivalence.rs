//! The two callers of the block engine agree bit for bit: the resumable
//! [`FleetRunner`] (daemon and recovery path), fed the fleet in random
//! block splits at any thread count, ends with exactly the per-lane cost
//! ledgers of the paper-evaluation path [`run_fleet_batch`] and of the
//! per-vehicle scalar reference [`run_fleet_scalar`], and plays the same
//! vertex mix. On a fleet wide enough that blocks straddle
//! `parallel::DECISIONS_PER_WORKER`, the runner's fan-out (blocks on one worker
//! and on several) reproduces its one-thread run bit for bit.

use automotive_idling::fleetstate::{encode_fleet_state, FleetConfig, FleetRunner};
use automotive_idling::skirental::batch::{
    run_fleet_batch, run_fleet_scalar, BatchConfig, CounterRng, VertexKind, VertexTally,
};
use automotive_idling::skirental::parallel::plan_workers;
use automotive_idling::skirental::BreakEven;
use rand::RngCore;

const LANES: usize = 13;
const STEPS: usize = 120;
const SEED: u64 = 20_140_601;
/// Lanes of the wide fleet: random splits of 1–40 steps give blocks of
/// 97–3880 decisions, so some run on one worker and some on several
/// (`DECISIONS_PER_WORKER` is 1024).
const WIDE_LANES: usize = 97;
const WIDE_STEPS: usize = 160;

fn uniform(rng: &mut CounterRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Equal-length lanes whose long-stop share ranges from rare to
/// dominant, so the fleet visits every vertex of the decision rule.
fn fleet(lanes: usize, steps: usize) -> Vec<Vec<f64>> {
    (0..lanes)
        .map(|lane| {
            let mut rng = CounterRng::for_stream(77, lane as u64);
            let p_long = 0.05 + 0.9 * (lane as f64) / (lanes - 1) as f64;
            (0..steps)
                .map(|_| {
                    let u = uniform(&mut rng);
                    if uniform(&mut rng) < p_long {
                        28.0 + 170.0 * u
                    } else {
                        28.0 * u
                    }
                })
                .collect()
        })
        .collect()
}

/// Time-major rows `rows[t][lane]`, the shape [`FleetRunner`] consumes.
fn rows(fleet: &[Vec<f64>]) -> Vec<Vec<f64>> {
    (0..fleet[0].len()).map(|t| fleet.iter().map(|stops| stops[t]).collect()).collect()
}

#[test]
fn runner_ledgers_and_vertices_equal_batch_and_scalar() {
    let b = BreakEven::new(28.0).unwrap();
    let stops = fleet(LANES, STEPS);
    let rows = rows(&stops);
    // A window shorter than `min_history` would never leave cold start.
    let configs = [(None, 1), (None, 8), (Some(10), 3), (Some(10), 8), (Some(5), 3)];
    for (window, min_history) in configs {
        let cfg = BatchConfig { window, min_history, seed: SEED, trace_stream_base: 0 };
        let scalar = run_fleet_scalar(&stops, b, &cfg).unwrap();
        let batch = run_fleet_batch(&stops, b, &cfg, 2).unwrap();
        let config = FleetConfig {
            lanes: LANES,
            break_even: 28.0,
            window,
            min_history,
            seed: SEED,
            trace_stream_base: 0,
        };
        let mut splits = CounterRng::for_stream(SEED, 1_000 + min_history as u64);
        for threads in [1, 2, 7] {
            let mut runner = FleetRunner::new(&config, threads).unwrap();
            let mut tally = VertexTally::default();
            let mut t = 0;
            while t < STEPS {
                let len = (1 + splits.next_u64() % 17) as usize;
                let block = &rows[t..(t + len).min(STEPS)];
                let decided = runner.run_block_decided(block, false).unwrap();
                decided.vertices().iter().for_each(|&v| tally.count(v));
                t += block.len();
            }
            let state = runner.export_state();
            let ctx = format!("window {window:?}, min_history {min_history}, {threads} threads");
            for (lane, snap) in state.lanes.iter().enumerate() {
                for (name, want) in [("batch", &batch.outcomes[lane]), ("scalar", &scalar[lane])] {
                    assert_eq!(
                        snap.online.to_bits(),
                        want.online_cost.to_bits(),
                        "{ctx}: lane {lane} online ledger differs from {name}"
                    );
                    assert_eq!(
                        snap.offline.to_bits(),
                        want.offline_cost.to_bits(),
                        "{ctx}: lane {lane} offline ledger differs from {name}"
                    );
                }
            }
            assert_eq!(tally, batch.vertex_totals(), "{ctx}: vertex counts differ");
        }
        let totals = batch.vertex_totals();
        assert!(totals.det > 0 && totals.toi > 0 && totals.n_rand > 0, "{totals:?}");
        assert_eq!(totals.cold_start, (LANES * min_history) as u64);
    }
}

/// Everything a runner run decided and ended with: per-lane threshold
/// bits and vertices over the whole run, and the exported state bytes.
struct WideRun {
    thresholds: Vec<Vec<u64>>,
    vertices: Vec<Vec<VertexKind>>,
    state: Vec<u8>,
    ledgers: Vec<(u64, u64)>,
    /// Whether some blocks ran on one worker and some on several.
    both_paths: (bool, bool),
}

/// Feeds `rows` to a fresh runner in random blocks of 1–40 steps.
fn wide_run(config: &FleetConfig, rows: &[Vec<f64>], threads: usize) -> WideRun {
    let mut runner = FleetRunner::new(config, threads).unwrap();
    let mut splits = CounterRng::for_stream(SEED, 2_000 + threads as u64);
    let mut thresholds = vec![Vec::new(); WIDE_LANES];
    let mut vertices = vec![Vec::new(); WIDE_LANES];
    let mut both_paths = (false, false);
    let mut t = 0;
    while t < rows.len() {
        let len = (1 + splits.next_u64() % 40) as usize;
        let block = &rows[t..(t + len).min(rows.len())];
        let workers = plan_workers(WIDE_LANES, WIDE_LANES * block.len(), threads);
        both_paths.0 |= workers == 1;
        both_paths.1 |= workers > 1;
        let decided = runner.run_block_decided(block, false).unwrap();
        for lane in 0..WIDE_LANES {
            for step in 0..decided.steps() {
                thresholds[lane].push(decided.threshold(lane, step).to_bits());
                vertices[lane].push(decided.vertex(lane, step));
            }
        }
        t += block.len();
    }
    let state = runner.export_state();
    let ledgers = state.lanes.iter().map(|l| (l.online.to_bits(), l.offline.to_bits())).collect();
    WideRun { thresholds, vertices, state: encode_fleet_state(&state), ledgers, both_paths }
}

#[test]
fn wide_fleet_fan_out_matches_one_thread_and_batch() {
    let b = BreakEven::new(28.0).unwrap();
    let stops = fleet(WIDE_LANES, WIDE_STEPS);
    let rows = rows(&stops);
    for (window, min_history) in [(None, 4), (Some(12), 3)] {
        let cfg = BatchConfig { window, min_history, seed: SEED, trace_stream_base: 0 };
        let batch = run_fleet_batch(&stops, b, &cfg, 2).unwrap();
        let config = FleetConfig {
            lanes: WIDE_LANES,
            break_even: 28.0,
            window,
            min_history,
            seed: SEED,
            trace_stream_base: 0,
        };
        let one = wide_run(&config, &rows, 1);
        for (lane, &(online, offline)) in one.ledgers.iter().enumerate() {
            let want = &batch.outcomes[lane];
            assert_eq!(online, want.online_cost.to_bits(), "lane {lane} online vs batch");
            assert_eq!(offline, want.offline_cost.to_bits(), "lane {lane} offline vs batch");
        }
        let mut tally = VertexTally::default();
        one.vertices.iter().flatten().for_each(|&v| tally.count(v));
        assert_eq!(tally, batch.vertex_totals(), "vertex counts vs batch");
        for threads in [2, 7] {
            let many = wide_run(&config, &rows, threads);
            let ctx = format!("window {window:?}, min_history {min_history}, {threads} threads");
            assert_eq!(many.both_paths, (true, true), "{ctx}: blocks must straddle W");
            assert!(many.thresholds == one.thresholds, "{ctx}: thresholds differ");
            assert!(many.vertices == one.vertices, "{ctx}: vertices differ");
            assert!(many.state == one.state, "{ctx}: exported state differs");
            assert_eq!(many.ledgers, one.ledgers, "{ctx}: ledgers differ");
        }
    }
}
