//! The two callers of the block engine agree bit for bit: the resumable
//! [`FleetRunner`] (daemon and recovery path), fed the fleet in random
//! block splits at any thread count, ends with exactly the per-lane cost
//! ledgers of the paper-evaluation path [`run_fleet_batch`] and of the
//! per-vehicle scalar reference [`run_fleet_scalar`], and plays the same
//! vertex mix.

use automotive_idling::fleetstate::{FleetConfig, FleetRunner};
use automotive_idling::skirental::batch::{
    run_fleet_batch, run_fleet_scalar, BatchConfig, CounterRng, VertexTally,
};
use automotive_idling::skirental::BreakEven;
use rand::RngCore;

const LANES: usize = 13;
const STEPS: usize = 120;
const SEED: u64 = 20_140_601;

fn uniform(rng: &mut CounterRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Equal-length lanes whose long-stop share ranges from rare to
/// dominant, so the fleet visits every vertex of the decision rule.
fn fleet() -> Vec<Vec<f64>> {
    (0..LANES)
        .map(|lane| {
            let mut rng = CounterRng::for_stream(77, lane as u64);
            let p_long = 0.05 + 0.9 * (lane as f64) / (LANES - 1) as f64;
            (0..STEPS)
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
    (0..STEPS).map(|t| fleet.iter().map(|stops| stops[t]).collect()).collect()
}

#[test]
fn runner_ledgers_and_vertices_equal_batch_and_scalar() {
    let b = BreakEven::new(28.0).unwrap();
    let stops = fleet();
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
