//! Crate-internal observability handles, registered once against the
//! process-wide [`obsv::global`] registry.
//!
//! Instrumentation is free unless a harness binary enables the registry:
//! every recording call on the disabled global registry is one relaxed
//! atomic load (plus one `OnceLock` acquire for the handle bundle), which
//! the criterion naive-vs-summary groups confirm is below noise.

use crate::constrained::StrategyChoice;
use obsv::{Counter, Gauge, Histogram, Timer};
use std::sync::OnceLock;

/// Bucket bounds (seconds) for decision thresholds: `[0, B]` with the
/// paper's break-evens at 28 s and 47 s.
const THRESHOLD_BOUNDS_S: [f64; 9] = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0];

/// Bucket bounds for realized competitive ratios: 1 is perfect, e/(e−1) ≈
/// 1.582 is the distribution-free guarantee, 2 is DET's worst case.
const CR_BOUNDS: [f64; 9] = [1.0, 1.1, 1.25, 1.5, 1.582, 1.7, 2.0, 3.0, 5.0];

pub(crate) struct Metrics {
    // parallel runtime
    pub parallel_calls: Counter,
    pub parallel_serial_calls: Counter,
    pub parallel_items: Counter,
    pub parallel_chunks: Counter,
    pub parallel_busy_micros: Counter,
    pub parallel_chunk_seconds: Timer,
    pub parallel_threads: Gauge,
    pub parallel_utilization: Gauge,
    // adaptive estimator / controller
    pub observations_accepted: Counter,
    pub observations_rejected: Counter,
    pub decisions_cold_start: Counter,
    pub decide_seconds: Timer,
    pub threshold_s: Histogram,
    pub realized_cr: Histogram,
    policy_det: Counter,
    policy_toi: Counter,
    policy_b_det: Counter,
    policy_n_rand: Counter,
    // batched decision engine (per-shard amortized flushes)
    pub batch_shards: Counter,
    pub batch_vehicles: Counter,
    pub batch_decisions: Counter,
    // degradation ladder
    pub degraded_readings: Counter,
    pub anomaly_non_finite: Counter,
    pub anomaly_negative: Counter,
    pub anomaly_implausible: Counter,
    pub anomaly_stuck: Counter,
    pub trans_full_to_degraded: Counter,
    pub trans_degraded_to_full: Counter,
    pub trans_demotions: Counter,
    pub trans_promotions: Counter,
}

impl Metrics {
    /// Counts which of the four-vertex policies the adaptive controller
    /// selected for a decision.
    pub fn count_choice(&self, choice: StrategyChoice) {
        match choice {
            StrategyChoice::Det => self.policy_det.inc(),
            StrategyChoice::Toi => self.policy_toi.inc(),
            StrategyChoice::BDet { .. } => self.policy_b_det.inc(),
            StrategyChoice::NRand => self.policy_n_rand.inc(),
        }
    }

    /// Records a realized competitive ratio (skipping the degenerate `+∞`
    /// convention, which would pin the histogram's fixed-point sum).
    pub fn record_cr(&self, cr: f64) {
        if cr.is_finite() {
            self.realized_cr.record(cr);
        }
    }

    /// Bulk flush of one batched shard's worth of decisions (each of
    /// which observed its stop): shard/lane counters plus the same
    /// `skirental.policy.*` / `skirental.estimator.*` tallies the scalar
    /// path increments one stop at a time — so dashboards see identical
    /// totals whichever path served the fleet.
    pub fn flush_batch_shard(&self, vehicles: u64, tally: &crate::batch::VertexTally) {
        self.batch_shards.inc();
        self.batch_vehicles.add(vehicles);
        self.batch_decisions.add(tally.total());
        self.observations_accepted.add(tally.total());
        self.decisions_cold_start.add(tally.cold_start);
        self.policy_det.add(tally.det);
        self.policy_toi.add(tally.toi);
        self.policy_b_det.add(tally.b_det);
        self.policy_n_rand.add(tally.n_rand);
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static Metrics {
    METRICS.get_or_init(|| {
        let r = obsv::global();
        Metrics {
            parallel_calls: r.counter("skirental.parallel.calls"),
            parallel_serial_calls: r.counter("skirental.parallel.serial_calls"),
            parallel_items: r.counter("skirental.parallel.items"),
            parallel_chunks: r.counter("skirental.parallel.chunks"),
            parallel_busy_micros: r.counter("skirental.parallel.busy_micros"),
            parallel_chunk_seconds: r.timer("skirental.parallel.chunk_seconds"),
            parallel_threads: r.gauge("skirental.parallel.threads"),
            parallel_utilization: r.gauge("skirental.parallel.utilization"),
            observations_accepted: r.counter("skirental.estimator.observations_accepted"),
            observations_rejected: r.counter("skirental.estimator.observations_rejected"),
            decisions_cold_start: r.counter("skirental.estimator.decisions_cold_start"),
            decide_seconds: r.timer("skirental.estimator.decide_seconds"),
            threshold_s: r.histogram("skirental.estimator.threshold_s", &THRESHOLD_BOUNDS_S),
            realized_cr: r.histogram("skirental.realized_cr", &CR_BOUNDS),
            policy_det: r.counter("skirental.policy.det"),
            policy_toi: r.counter("skirental.policy.toi"),
            policy_b_det: r.counter("skirental.policy.b_det"),
            policy_n_rand: r.counter("skirental.policy.n_rand"),
            batch_shards: r.counter("skirental.batch.shards"),
            batch_vehicles: r.counter("skirental.batch.vehicles"),
            batch_decisions: r.counter("skirental.batch.decisions"),
            degraded_readings: r.counter("skirental.degraded.readings"),
            anomaly_non_finite: r.counter("skirental.degraded.anomalies.non_finite"),
            anomaly_negative: r.counter("skirental.degraded.anomalies.negative"),
            anomaly_implausible: r.counter("skirental.degraded.anomalies.implausible"),
            anomaly_stuck: r.counter("skirental.degraded.anomalies.stuck"),
            trans_full_to_degraded: r.counter("skirental.degraded.transitions.full_to_degraded"),
            trans_degraded_to_full: r.counter("skirental.degraded.transitions.degraded_to_full"),
            trans_demotions: r.counter("skirental.degraded.transitions.demotions"),
            trans_promotions: r.counter("skirental.degraded.transitions.promotions"),
        }
    })
}
