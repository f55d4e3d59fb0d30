//! Per-vehicle realized-CR sketches survive a crash exactly.
//!
//! The P(CR > τ) budgets read each vehicle's sketch, which the fleet
//! runner keeps as lane state. A restart seeds every lane's sketch from
//! the checkpoint saved with the newest snapshot and replays the journal
//! tail on top. A crash at any step must leave every vehicle's digest
//! equal to an uninterrupted run's, lane by lane — fleet totals alone
//! would not notice two lanes swapping sketches. (A checkpoint without
//! digests, as older builds wrote, is covered by a `fleetstate` unit
//! test: recovery cold-starts from it.)

use automotive_idling::fleetstate::{FleetConfig, FleetRunner, PersistentFleet};

/// Deterministic synthetic stop rows, time-major (`rows[t][lane]`),
/// straddling the 28 s break-even.
fn rows(lanes: usize, steps: usize) -> Vec<Vec<f64>> {
    (0..steps)
        .map(|t| {
            (0..lanes)
                .map(|i| {
                    let k = (5 + t as u64 * 31 + i as u64 * 7) % 97;
                    0.5 + (k as f64) * 0.9
                })
                .collect()
        })
        .collect()
}

/// `rows` in blocks of 1, 2, 3, 4, 5, 1, 2, … steps.
fn ragged(rows: &[Vec<f64>]) -> impl Iterator<Item = &[Vec<f64>]> {
    let (mut rest, mut size) = (rows, 0);
    std::iter::from_fn(move || {
        size = size % 5 + 1;
        let (block, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        (!block.is_empty()).then_some(block)
    })
}

#[test]
fn per_vehicle_risk_digests_survive_a_crash_at_every_cut() {
    const STEPS: usize = 37;
    const SNAPSHOT_EVERY: u64 = 4;
    let config = FleetConfig {
        lanes: 6,
        break_even: 28.0,
        window: Some(5),
        min_history: 3,
        seed: 20_140_601,
        trace_stream_base: 40,
    };
    let workload = rows(config.lanes, STEPS);
    let mut reference = FleetRunner::new(&config, 2).unwrap();
    reference.run_block(&workload, false).unwrap();
    let want = reference.risk_digests();
    assert_eq!(want.len(), config.lanes);
    assert!(want.iter().all(|d| d.count == STEPS as u64), "one sample per lane and step");

    let dir = std::env::temp_dir()
        .join("risk-recovery-test")
        .join(format!("fleet-{}", std::process::id()));
    for cut in 0..=STEPS {
        std::fs::remove_dir_all(&dir).ok();
        let mut fleet =
            PersistentFleet::create(&dir, &config, 1 + cut % 3, SNAPSHOT_EVERY).unwrap();
        for block in ragged(&workload[..cut]) {
            fleet.run_block(block, false).unwrap();
        }
        let snapshot_step = fleet.last_snapshot_step();
        drop(fleet); // crash

        let (mut fleet, outcome) =
            PersistentFleet::recover(&dir, &config, 1 + (cut + 1) % 3, SNAPSHOT_EVERY).unwrap();
        assert_eq!(outcome.resumed_step, cut as u64);
        assert_eq!(outcome.snapshot_step, snapshot_step, "cut {cut}: restart point");
        for block in ragged(&workload[cut..]) {
            fleet.run_block(block, false).unwrap();
        }
        let got = fleet.runner().risk_digests();
        assert_eq!(got.len(), want.len(), "cut {cut}");
        for (lane, (got, want)) in got.iter().zip(&want).enumerate() {
            let stream = config.trace_stream_base + lane as u64;
            assert_eq!(got, want, "cut {cut}: stream {stream}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
