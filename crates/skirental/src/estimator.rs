//! Online estimation of `(μ_B⁻, q_B⁺)` and the adaptive proposed policy.
//!
//! The paper assumes the constrained statistics are known; a deployed
//! stop-start controller has to estimate them from the vehicle's own
//! history, *before* each decision. [`MomentEstimator`] maintains the
//! plug-in estimates incrementally (optionally over a sliding window, so
//! the policy tracks changing traffic), and [`AdaptiveController`] runs
//! the honest online loop: decide a threshold from past stops only, pay
//! the cost, then observe the stop's true length.
//!
//! Until the first stop is observed the controller falls back to N-Rand,
//! whose `e/(e−1)` guarantee needs no statistics at all.

use crate::analysis::empirical_cr_with;
use crate::constrained::ConstrainedStats;
use crate::cost::BreakEven;
use crate::obs;
use crate::policy::{NRand, Policy};
use crate::summary::StopSummary;
use crate::Error;
use rand::RngCore;
use std::collections::VecDeque;

/// Incremental plug-in estimator of the constrained moments.
#[derive(Debug, Clone)]
pub struct MomentEstimator {
    break_even: BreakEven,
    window: Option<usize>,
    buffer: VecDeque<f64>,
    short_sum: f64,
    long_count: usize,
}

impl MomentEstimator {
    /// An estimator over the full history.
    #[must_use]
    pub fn new(break_even: BreakEven) -> Self {
        Self { break_even, window: None, buffer: VecDeque::new(), short_sum: 0.0, long_count: 0 }
    }

    /// An estimator over a sliding window of the last `window` stops.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_window(break_even: BreakEven, window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        Self {
            break_even,
            window: Some(window),
            buffer: VecDeque::with_capacity(window),
            short_sum: 0.0,
            long_count: 0,
        }
    }

    /// Number of stops currently contributing to the estimate.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether no stops have been observed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Records one completed stop.
    ///
    /// # Panics
    ///
    /// Panics if `y` is negative or non-finite. Sensor-facing callers
    /// should prefer [`MomentEstimator::try_observe`], which rejects such
    /// readings with a typed error instead.
    pub fn observe(&mut self, y: f64) {
        assert!(y.is_finite() && y >= 0.0, "stop length must be finite and >= 0, got {y}");
        obs::metrics().observations_accepted.inc();
        if let (Some(w), Some(&front)) = (self.window, self.buffer.front()) {
            if self.buffer.len() == w {
                self.buffer.pop_front();
                if front >= self.break_even.seconds() {
                    self.long_count -= 1;
                } else {
                    self.short_sum -= front;
                }
            }
        }
        self.buffer.push_back(y);
        if y >= self.break_even.seconds() {
            self.long_count += 1;
        } else {
            self.short_sum += y;
        }
        if obsv::tracer::observing() {
            let (mu_b_minus, q_b_plus) = self.trace_moments();
            obsv::tracer::emit(obsv::TraceEvent::EstimatorUpdate {
                observed_s: y,
                accepted: true,
                len: self.buffer.len() as u64,
                mu_b_minus,
                q_b_plus,
            });
        }
    }

    /// Non-panicking [`MomentEstimator::observe`]: rejects a negative or
    /// non-finite reading with [`Error::InvalidStop`], leaving the
    /// estimator state untouched.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStop`] if `y` is negative or non-finite.
    pub fn try_observe(&mut self, y: f64) -> Result<(), Error> {
        if !(y.is_finite() && y >= 0.0) {
            obs::metrics().observations_rejected.inc();
            if obsv::tracer::observing() {
                let (mu_b_minus, q_b_plus) = self.trace_moments();
                obsv::tracer::emit(obsv::TraceEvent::EstimatorUpdate {
                    observed_s: y,
                    accepted: false,
                    len: self.buffer.len() as u64,
                    mu_b_minus,
                    q_b_plus,
                });
            }
            return Err(Error::InvalidStop { bits: y.to_bits() });
        }
        self.observe(y);
        Ok(())
    }

    /// The current plug-in moments as trace-event payload (`None` before
    /// the first observation).
    fn trace_moments(&self) -> (Option<f64>, Option<f64>) {
        match self.stats() {
            Some(s) => {
                let m = s.moments();
                (Some(m.mu_b_minus), Some(m.q_b_plus))
            }
            None => (None, None),
        }
    }

    /// Discards all observed history, returning the estimator to its
    /// just-constructed state (window configuration is kept). The
    /// degradation ladder uses this to forget statistics accumulated from
    /// a sensor stream that later proved untrustworthy.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.short_sum = 0.0;
        self.long_count = 0;
    }

    /// Current constrained statistics, or `None` before the first stop.
    #[must_use]
    pub fn stats(&self) -> Option<ConstrainedStats> {
        if self.buffer.is_empty() {
            return None;
        }
        let n = self.buffer.len() as f64;
        let q = self.long_count as f64 / n;
        // Sliding-window subtraction leaves O(ε) residue in the running
        // sum; clamp to the feasible region.
        let mu_cap = (1.0 - q) * self.break_even.seconds();
        let mu = (self.short_sum / n).clamp(0.0, mu_cap);
        Some(
            ConstrainedStats::new(self.break_even, mu, q)
                .unwrap_or_else(|_| unreachable!("clamped plug-in estimates are feasible")),
        )
    }

    /// The break-even interval this estimator classifies against.
    #[must_use]
    pub fn break_even(&self) -> BreakEven {
        self.break_even
    }
}

/// A full copy of a [`MomentEstimator`]'s mutable state, as exported by
/// [`MomentEstimator::export_state`] and re-installed by
/// [`MomentEstimator::from_state`] — the unit of crash-safe persistence
/// for the scalar estimator.
///
/// The short-stop sum is carried **raw** (unclamped): sliding-window
/// subtraction leaves an O(ε) residue in the running sum, and restoring
/// the clamped value instead would diverge from an uninterrupted run on
/// the next eviction. Round-tripping the raw sum keeps resumed decisions
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorState {
    /// Sliding window (`None` = full history), as configured.
    pub window: Option<usize>,
    /// The buffered stops, oldest first.
    pub buffer: Vec<f64>,
    /// Raw running short-stop sum `Σy·1{y<B}` (unclamped).
    pub short_sum: f64,
    /// Long-stop count `#{y ≥ B}`.
    pub long_count: usize,
}

impl MomentEstimator {
    /// Exports the estimator's complete mutable state for persistence
    /// (the inverse of [`MomentEstimator::from_state`]).
    #[must_use]
    pub fn export_state(&self) -> EstimatorState {
        EstimatorState {
            window: self.window,
            buffer: self.buffer.iter().copied().collect(),
            short_sum: self.short_sum,
            long_count: self.long_count,
        }
    }

    /// Reconstructs an estimator from a persisted [`EstimatorState`],
    /// validating its invariants against `break_even`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPersistedState`] if the state is inconsistent: a
    /// zero window, a buffer longer than the window, a non-finite or
    /// negative buffered stop, a non-finite short-stop sum, or a long
    /// count that disagrees with the buffer's actual `y ≥ B` census.
    pub fn from_state(break_even: BreakEven, state: &EstimatorState) -> Result<Self, Error> {
        if state.window == Some(0) {
            return Err(Error::InvalidPersistedState { reason: "window must be non-empty" });
        }
        if let Some(w) = state.window {
            if state.buffer.len() > w {
                return Err(Error::InvalidPersistedState {
                    reason: "buffer longer than the configured window",
                });
            }
        }
        if state.buffer.iter().any(|y| !(y.is_finite() && *y >= 0.0)) {
            return Err(Error::InvalidPersistedState {
                reason: "buffered stop is negative or non-finite",
            });
        }
        if !state.short_sum.is_finite() {
            return Err(Error::InvalidPersistedState { reason: "non-finite short-stop sum" });
        }
        let long = state.buffer.iter().filter(|&&y| y >= break_even.seconds()).count();
        if long != state.long_count {
            return Err(Error::InvalidPersistedState {
                reason: "long count disagrees with the buffered stops",
            });
        }
        Ok(Self {
            break_even,
            window: state.window,
            buffer: state.buffer.iter().copied().collect(),
            short_sum: state.short_sum,
            long_count: state.long_count,
        })
    }
}

/// A full copy of an [`AdaptiveController`]'s mutable state (estimator
/// state plus the cold-start gate), for crash-safe persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// The wrapped estimator's state.
    pub estimator: EstimatorState,
    /// Stops required before trusting the estimate.
    pub min_history: usize,
}

impl AdaptiveController {
    /// Exports the controller's complete mutable state for persistence
    /// (the inverse of [`AdaptiveController::from_state`]).
    #[must_use]
    pub fn export_state(&self) -> ControllerState {
        ControllerState { estimator: self.estimator.export_state(), min_history: self.min_history }
    }

    /// Reconstructs a controller from a persisted [`ControllerState`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPersistedState`] if `min_history` is zero or the
    /// estimator state fails [`MomentEstimator::from_state`] validation.
    pub fn from_state(break_even: BreakEven, state: &ControllerState) -> Result<Self, Error> {
        if state.min_history == 0 {
            return Err(Error::InvalidPersistedState { reason: "min history must be positive" });
        }
        Ok(Self {
            estimator: MomentEstimator::from_state(break_even, &state.estimator)?,
            cold_start: NRand::new(break_even),
            min_history: state.min_history,
        })
    }
}

/// Summary of an adaptive run over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOutcome {
    /// Total realized online cost (idle-equivalent seconds).
    pub online_cost: f64,
    /// Total offline-optimal cost.
    pub offline_cost: f64,
    /// Realized competitive ratio. Convention for `offline_cost == 0`
    /// (every stop had zero length): `1.0` if the online cost is also
    /// zero, `f64::INFINITY` otherwise — a degenerate trace must not hide
    /// real paid cost behind a perfect-looking ratio. The raw costs are
    /// always carried alongside.
    pub cr: f64,
    /// Stops processed.
    pub stops: usize,
}

/// The honest online controller: estimates from the past, decides, pays,
/// then learns the stop's true length.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    estimator: MomentEstimator,
    cold_start: NRand,
    /// Stops required before trusting the estimate (before that, N-Rand).
    min_history: usize,
}

impl AdaptiveController {
    /// A controller using the full history, trusting it from the first
    /// observed stop.
    #[must_use]
    pub fn new(break_even: BreakEven) -> Self {
        Self {
            estimator: MomentEstimator::new(break_even),
            cold_start: NRand::new(break_even),
            min_history: 1,
        }
    }

    /// Uses a sliding window of the last `window` stops.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_window(break_even: BreakEven, window: usize) -> Self {
        Self {
            estimator: MomentEstimator::with_window(break_even, window),
            cold_start: NRand::new(break_even),
            min_history: 1,
        }
    }

    /// Requires `n` observed stops before switching from the N-Rand cold
    /// start to the estimated proposed policy; returns `self`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn min_history(mut self, n: usize) -> Self {
        assert!(n > 0, "min history must be positive");
        self.min_history = n;
        self
    }

    /// The current estimator state.
    #[must_use]
    pub fn estimator(&self) -> &MomentEstimator {
        &self.estimator
    }

    /// Discards the estimator's observed history (keeping the window
    /// configuration), returning the controller to its cold-start state.
    /// See [`MomentEstimator::clear`].
    pub fn reset_estimator(&mut self) {
        self.estimator.clear();
    }

    /// Chooses the idle threshold for the *next* stop, from history alone.
    ///
    /// When the [`obsv::global`] registry is enabled, each decision
    /// records its latency (`skirental.estimator.decide_seconds`), the
    /// drawn threshold, and which of the four vertex policies was
    /// selected (`skirental.policy.*`); when the decision tracer
    /// ([`obsv::tracer`]) is active, a per-stop `StopDecision` event
    /// captures the chosen vertex together with the estimator state
    /// behind it. Instrumentation consumes no RNG and does not alter
    /// the draw.
    pub fn decide(&self, rng: &mut dyn RngCore) -> f64 {
        let m = obs::metrics();
        let span = m.decide_seconds.start();
        let x = if let Some(stats) =
            (self.estimator.len() >= self.min_history).then(|| self.estimator.stats()).flatten()
        {
            let policy = stats.optimal_policy();
            m.count_choice(policy.choice());
            let x = policy.sample_threshold(rng);
            if obsv::tracer::observing() {
                obsv::tracer::emit(policy.trace_decision(x));
            }
            x
        } else {
            m.decisions_cold_start.inc();
            let x = self.cold_start.sample_threshold(rng);
            if obsv::tracer::observing() {
                obsv::tracer::emit(obsv::TraceEvent::StopDecision {
                    vertex: self.cold_start.name().into(),
                    threshold_b: x,
                    mu_b_minus: None,
                    q_b_plus: None,
                    chosen_cost_bound: None,
                });
            }
            x
        };
        m.threshold_s.record(x);
        span.finish();
        x
    }

    /// Records a completed stop.
    ///
    /// # Panics
    ///
    /// Panics if `y` is negative or non-finite. Sensor-facing callers
    /// should prefer [`AdaptiveController::try_observe`].
    pub fn observe(&mut self, y: f64) {
        self.estimator.observe(y);
    }

    /// Non-panicking [`AdaptiveController::observe`]: rejects a negative
    /// or non-finite reading with [`Error::InvalidStop`], leaving the
    /// estimator untouched.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidStop`] if `y` is negative or non-finite.
    pub fn try_observe(&mut self, y: f64) -> Result<(), Error> {
        self.estimator.try_observe(y)
    }

    /// Runs the full online loop over a trace: for each stop, decide →
    /// pay → observe.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrace`] if `stops` is empty.
    pub fn run(&mut self, stops: &[f64], rng: &mut dyn RngCore) -> Result<AdaptiveOutcome, Error> {
        if stops.is_empty() {
            return Err(Error::EmptyTrace);
        }
        let b = self.estimator.break_even;
        let mut online = 0.0;
        let mut offline = 0.0;
        for (i, &y) in stops.iter().enumerate() {
            obsv::tracer::begin_stop(i as u64);
            let x = self.decide(rng);
            let cost = if x.is_infinite() { y } else { b.online_cost(x, y) };
            online += cost;
            let off = b.offline_cost(y);
            offline += off;
            if obsv::tracer::observing() {
                obsv::tracer::emit(obsv::TraceEvent::StopCost {
                    threshold_b: x,
                    stop_s: y,
                    online_s: cost,
                    offline_s: off,
                    restarted: !x.is_infinite() && y >= x,
                });
            }
            obsv::risk::record_current(cost, off);
            self.observe(y);
        }
        let cr = realized_cr(online, offline);
        obs::metrics().record_cr(cr);
        Ok(AdaptiveOutcome { online_cost: online, offline_cost: offline, cr, stops: stops.len() })
    }
}

pub use obsv::realized_cr;

/// Convenience: the oracle (in-sample) CR of the proposed policy on the
/// same trace — what the adaptive run converges to with enough history.
///
/// # Errors
///
/// Returns [`Error::EmptyTrace`] if `stops` is empty.
pub fn oracle_cr(stops: &[f64], break_even: BreakEven) -> Result<f64, Error> {
    let summary = StopSummary::new(stops)?;
    let policy = summary.constrained_stats(break_even)?.optimal_policy();
    Ok(empirical_cr_with(&policy, &summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numeric::approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stopmodel::dist::{LogNormal, Mixture, Pareto, StopDistribution};

    fn b28() -> BreakEven {
        BreakEven::new(28.0).unwrap()
    }

    #[test]
    fn estimator_matches_batch() {
        let stops = [3.0, 40.0, 7.0, 28.0, 12.0];
        let mut est = MomentEstimator::new(b28());
        for &y in &stops {
            est.observe(y);
        }
        let inc = est.stats().unwrap();
        let batch = ConstrainedStats::from_samples(&stops, b28()).unwrap();
        assert!(approx_eq(inc.moments().mu_b_minus, batch.moments().mu_b_minus, 1e-12));
        assert!(approx_eq(inc.moments().q_b_plus, batch.moments().q_b_plus, 1e-12));
        assert_eq!(est.len(), 5);
        assert!(!est.is_empty());
    }

    #[test]
    fn estimator_empty_state() {
        let est = MomentEstimator::new(b28());
        assert!(est.stats().is_none());
        assert!(est.is_empty());
    }

    #[test]
    fn window_slides() {
        let mut est = MomentEstimator::with_window(b28(), 3);
        for &y in &[100.0, 100.0, 100.0, 1.0, 2.0, 3.0] {
            est.observe(y);
        }
        // Only [1, 2, 3] remain: all short.
        let s = est.stats().unwrap();
        assert_eq!(est.len(), 3);
        assert!(approx_eq(s.moments().mu_b_minus, 2.0, 1e-12));
        assert_eq!(s.moments().q_b_plus, 0.0);
    }

    #[test]
    fn window_slides_mixed() {
        let mut est = MomentEstimator::with_window(b28(), 2);
        est.observe(5.0);
        est.observe(50.0);
        est.observe(10.0); // evicts the 5
        let s = est.stats().unwrap();
        assert!(approx_eq(s.moments().mu_b_minus, 5.0, 1e-12)); // (10)/2
        assert!(approx_eq(s.moments().q_b_plus, 0.5, 1e-12));
    }

    #[test]
    fn cold_start_uses_nrand() {
        let ctl = AdaptiveController::new(b28());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let x = ctl.decide(&mut rng);
            assert!((0.0..=28.0).contains(&x), "cold-start threshold {x}");
        }
    }

    #[test]
    fn adaptive_converges_to_oracle_on_iid_stream() {
        let dist = Mixture::new(vec![
            (0.9, Box::new(LogNormal::new(2.0, 0.8).unwrap()) as _),
            (0.1, Box::new(Pareto::new(45.0, 1.1).unwrap()) as _),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let stops: Vec<f64> = (0..5000).map(|_| dist.sample(&mut rng)).collect();
        let mut ctl = AdaptiveController::new(b28());
        let out = ctl.run(&stops, &mut rng).unwrap();
        let oracle = oracle_cr(&stops, b28()).unwrap();
        assert!((out.cr - oracle).abs() < 0.08, "adaptive {} vs oracle {oracle}", out.cr);
        assert_eq!(out.stops, 5000);
        assert!(out.cr >= 1.0 - 1e-9);
    }

    #[test]
    fn adaptive_tracks_regime_change_with_window() {
        // Light traffic then heavy traffic: the windowed controller must
        // end up making heavy-traffic decisions (short thresholds).
        let mut rng = StdRng::seed_from_u64(3);
        let light = LogNormal::new(1.5, 0.5).unwrap();
        let heavy = Pareto::new(50.0, 1.2).unwrap();
        let mut stops: Vec<f64> = (0..500).map(|_| light.sample(&mut rng)).collect();
        stops.extend((0..500).map(|_| heavy.sample(&mut rng)));
        let mut ctl = AdaptiveController::with_window(b28(), 100);
        let _ = ctl.run(&stops, &mut rng).unwrap();
        // After the heavy block, q̂ ≈ 1 → TOI-like decisions.
        let s = ctl.estimator().stats().unwrap();
        assert!(s.moments().q_b_plus > 0.9, "q̂ = {}", s.moments().q_b_plus);
        let mut short_decisions = 0;
        for _ in 0..20 {
            if ctl.decide(&mut rng) < 1.0 {
                short_decisions += 1;
            }
        }
        assert_eq!(short_decisions, 20, "should turn off (almost) immediately");
    }

    #[test]
    fn min_history_extends_cold_start() {
        let mut ctl = AdaptiveController::new(b28()).min_history(10);
        let mut rng = StdRng::seed_from_u64(4);
        // After 5 huge stops, a trusting controller would go TOI (x = 0);
        // with min_history 10 it must still randomize à la N-Rand.
        for _ in 0..5 {
            ctl.observe(1000.0);
        }
        let mut nonzero = 0;
        for _ in 0..20 {
            if ctl.decide(&mut rng) > 0.0 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 15, "still in cold start: {nonzero}");
    }

    #[test]
    fn run_rejects_empty() {
        let mut ctl = AdaptiveController::new(b28());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(ctl.run(&[], &mut rng), Err(Error::EmptyTrace)));
    }

    #[test]
    fn zero_offline_cr_is_one() {
        let mut ctl = AdaptiveController::new(b28());
        let mut rng = StdRng::seed_from_u64(6);
        let out = ctl.run(&[0.0, 0.0, 0.0], &mut rng).unwrap();
        assert_eq!(out.cr, 1.0);
        assert_eq!(out.offline_cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_rejected() {
        let _ = MomentEstimator::with_window(b28(), 0);
    }

    #[test]
    fn zero_offline_with_paid_cost_is_infinite() {
        // All stops have zero length, but a TOI-leaning controller that
        // shuts off pays the restart; the ratio must not pretend 1.0.
        assert_eq!(realized_cr(5.0, 0.0), f64::INFINITY);
        assert_eq!(realized_cr(0.0, 0.0), 1.0);
        assert!((realized_cr(3.0, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn try_observe_rejects_garbage_and_leaves_state() {
        let mut est = MomentEstimator::new(b28());
        est.observe(10.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let err = est.try_observe(bad).unwrap_err();
            assert_eq!(err, Error::InvalidStop { bits: bad.to_bits() });
            assert!(!err.to_string().is_empty());
        }
        assert_eq!(est.len(), 1, "rejected readings must not count");
        est.try_observe(4.0).unwrap();
        assert_eq!(est.len(), 2);

        let mut ctl = AdaptiveController::new(b28());
        assert!(ctl.try_observe(f64::NAN).is_err());
        assert!(ctl.try_observe(7.0).is_ok());
        assert_eq!(ctl.estimator().len(), 1);
    }

    #[test]
    fn estimator_state_roundtrip() {
        let mut est = MomentEstimator::with_window(b28(), 3);
        for &y in &[5.0, 50.0, 8.0, 2.0] {
            est.observe(y);
        }
        let state = est.export_state();
        let mut restored = MomentEstimator::from_state(b28(), &state).unwrap();
        assert_eq!(restored.export_state(), state);
        let sa = est.stats().unwrap();
        let sb = restored.stats().unwrap();
        let (a, b) = (sa.moments(), sb.moments());
        assert_eq!(a.mu_b_minus.to_bits(), b.mu_b_minus.to_bits());
        assert_eq!(a.q_b_plus.to_bits(), b.q_b_plus.to_bits());
        // Future evolution is identical (same raw sums, same evictions).
        est.observe(44.0);
        restored.observe(44.0);
        assert_eq!(est.export_state(), restored.export_state());
    }

    #[test]
    fn estimator_from_state_rejects_inconsistencies() {
        let mut est = MomentEstimator::with_window(b28(), 3);
        est.observe(5.0);
        est.observe(50.0);
        let good = est.export_state();
        let cases = [
            EstimatorState { window: Some(0), ..good.clone() },
            EstimatorState { window: Some(1), ..good.clone() },
            EstimatorState { buffer: vec![5.0, f64::NAN], ..good.clone() },
            EstimatorState { buffer: vec![5.0, -1.0], ..good.clone() },
            EstimatorState { short_sum: f64::INFINITY, ..good.clone() },
            EstimatorState { long_count: 2, ..good.clone() },
        ];
        for bad in cases {
            assert!(
                matches!(
                    MomentEstimator::from_state(b28(), &bad),
                    Err(Error::InvalidPersistedState { .. })
                ),
                "accepted {bad:?}"
            );
        }
        assert!(MomentEstimator::from_state(b28(), &good).is_ok());
    }

    #[test]
    fn controller_state_roundtrip_resumes_decisions() {
        let mut ctl = AdaptiveController::with_window(b28(), 5).min_history(3);
        let mut rng = StdRng::seed_from_u64(7);
        let stops = [3.0, 40.0, 7.0, 28.0, 12.0];
        ctl.run(&stops, &mut rng).unwrap();
        let state = ctl.export_state();
        let restored = AdaptiveController::from_state(b28(), &state).unwrap();
        assert_eq!(restored.export_state(), state);
        // Same RNG stream position → same decisions.
        let mut r1 = crate::batch::CounterRng::for_stream(1, 0);
        let mut r2 = r1;
        for _ in 0..10 {
            assert_eq!(ctl.decide(&mut r1).to_bits(), restored.decide(&mut r2).to_bits());
        }
        assert!(matches!(
            AdaptiveController::from_state(b28(), &ControllerState { min_history: 0, ..state }),
            Err(Error::InvalidPersistedState { .. })
        ));
    }

    #[test]
    fn clear_resets_to_fresh_state() {
        let mut est = MomentEstimator::with_window(b28(), 3);
        for &y in &[5.0, 50.0, 8.0] {
            est.observe(y);
        }
        est.clear();
        assert!(est.is_empty());
        assert!(est.stats().is_none());
        assert_eq!(est.break_even().seconds(), 28.0);
        // Refilling after clear behaves like a fresh estimator.
        est.observe(2.0);
        let s = est.stats().unwrap();
        assert!(approx_eq(s.moments().mu_b_minus, 2.0, 1e-12));
        assert_eq!(s.moments().q_b_plus, 0.0);
    }
}
