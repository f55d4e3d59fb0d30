//! Trust-gated graceful degradation for the adaptive controller.
//!
//! The proposed policy's guarantee is only as good as its `(μ_B⁻, q_B⁺)`
//! estimate, and the estimate is only as good as the sensor stream feeding
//! it. [`DegradedController`] wraps [`AdaptiveController`] with a
//! three-rung trust ladder, trading expected-case optimality for
//! worst-case safety as the stream deteriorates:
//!
//! * [`TrustLevel::Full`] — healthy input: delegate to the wrapped
//!   adaptive controller (the estimated proposed policy). On a clean
//!   stream the wrapper is **bit-identical** to running
//!   [`AdaptiveController`] directly: same RNG draws, same floating-point
//!   operation order, same costs.
//! * [`TrustLevel::Degraded`] — recent anomalies or a stale estimate:
//!   fall back to DET (threshold `B`). DET needs no statistics, is
//!   deterministic, and its competitive ratio never exceeds 2; crucially
//!   it never *shuts off early* on the strength of a contaminated
//!   estimate.
//! * [`TrustLevel::Untrusted`] — the anomaly rate crossed the demotion
//!   threshold: fall back to N-Rand, whose `e/(e−1) ≈ 1.582` expected
//!   guarantee is distribution-free, so no amount of sensor garbage can
//!   degrade it. Demotion optionally clears the wrapped estimator, so
//!   statistics accumulated from the untrustworthy stream are forgotten.
//!
//! Promotion back to [`TrustLevel::Full`] is hysteretic: it requires a
//! run of [`DegradationConfig::promote_after`] consecutive valid readings,
//! by which point the (cleared) estimator has been refilled entirely with
//! post-fault data.
//!
//! Readings are classified *online*, before they can touch the estimator:
//! non-finite, negative, implausibly long (above
//! [`DegradationConfig::max_plausible_s`]), and stuck-at (more than
//! [`DegradationConfig::stuck_run`] consecutive bit-identical readings)
//! anomalies are quarantined and counted, never observed.

use crate::cost::BreakEven;
use crate::estimator::{realized_cr, AdaptiveController, ControllerState, MomentEstimator};
use crate::obs;
use crate::policy::{NRand, Policy};
use crate::Error;
use rand::RngCore;
use std::collections::VecDeque;

/// How much the controller currently trusts its sensor stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrustLevel {
    /// Healthy: run the estimated proposed policy.
    Full,
    /// Suspicious: run DET (threshold `B`, worst-case CR ≤ 2).
    Degraded,
    /// Compromised: run N-Rand (distribution-free `e/(e−1)` guarantee).
    Untrusted,
}

impl TrustLevel {
    /// The level's name as it appears in decision traces and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Full => "Full",
            Self::Degraded => "Degraded",
            Self::Untrusted => "Untrusted",
        }
    }
}

/// Per-class counts of quarantined sensor readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnomalyCounts {
    /// NaN or ±∞ readings.
    pub non_finite: u64,
    /// Finite but negative readings.
    pub negative: u64,
    /// Readings above the plausibility cap.
    pub implausible: u64,
    /// Excess readings in a stuck-at run.
    pub stuck: u64,
}

impl AnomalyCounts {
    /// Total quarantined readings across all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.non_finite + self.negative + self.implausible + self.stuck
    }

    fn minus(&self, earlier: &Self) -> Self {
        Self {
            non_finite: self.non_finite - earlier.non_finite,
            negative: self.negative - earlier.negative,
            implausible: self.implausible - earlier.implausible,
            stuck: self.stuck - earlier.stuck,
        }
    }
}

/// Tuning knobs for the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Sliding window (in readings) over which anomalies are counted.
    pub window: usize,
    /// Anomalies in the window at which trust drops to
    /// [`TrustLevel::Degraded`].
    pub degrade_at: usize,
    /// Anomalies in the window at which trust drops to
    /// [`TrustLevel::Untrusted`].
    pub demote_at: usize,
    /// Consecutive valid readings required to climb from
    /// [`TrustLevel::Untrusted`] back to [`TrustLevel::Full`].
    pub promote_after: usize,
    /// Consecutive invalid readings after which the estimate is
    /// considered stale (trust drops to at least
    /// [`TrustLevel::Degraded`] even if windowed anomaly counts have not
    /// crossed `degrade_at`).
    pub stale_after: usize,
    /// More than this many consecutive bit-identical readings are treated
    /// as a stuck sensor (the excess readings are quarantined).
    pub stuck_run: usize,
    /// Readings above this are quarantined as implausible. Default `+∞`
    /// (disabled): heavy-tailed traces legitimately contain very long
    /// stops.
    pub max_plausible_s: f64,
    /// Whether demotion to [`TrustLevel::Untrusted`] clears the wrapped
    /// estimator, forgetting statistics learned from the bad stream.
    pub reset_on_demote: bool,
    /// Whether a `drift` alarm from the streaming monitor
    /// (`obsv::monitor`) also forces at least [`TrustLevel::Degraded`]
    /// for the next [`DegradationConfig::window`] readings. Off by
    /// default, and inert unless the monitor is enabled, so clean runs
    /// stay bit-identical to the unwrapped controller.
    pub drift_degrades: bool,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            window: 200,
            degrade_at: 1,
            demote_at: 8,
            promote_after: 200,
            stale_after: 200,
            stuck_run: 8,
            max_plausible_s: f64::INFINITY,
            reset_on_demote: true,
            drift_degrades: false,
        }
    }
}

impl DegradationConfig {
    fn validate(self) -> Self {
        assert!(self.window > 0, "anomaly window must be non-empty");
        assert!(self.degrade_at > 0, "degrade_at must be positive");
        assert!(self.demote_at >= self.degrade_at, "demote_at must be >= degrade_at");
        assert!(self.promote_after > 0, "promote_after must be positive");
        assert!(self.stuck_run > 0, "stuck_run must be positive");
        assert!(
            self.max_plausible_s > 0.0 && !self.max_plausible_s.is_nan(),
            "max_plausible_s must be positive"
        );
        self
    }
}

/// Summary of a degraded-mode run over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedOutcome {
    /// Total realized online cost (idle-equivalent seconds), on the
    /// **true** stop lengths.
    pub online_cost: f64,
    /// Total offline-optimal cost, on the true stop lengths.
    pub offline_cost: f64,
    /// Realized competitive ratio (same convention as
    /// [`crate::estimator::AdaptiveOutcome::cr`]).
    pub cr: f64,
    /// Stops processed.
    pub stops: usize,
    /// Readings quarantined during the run, by class.
    pub anomalies: AnomalyCounts,
    /// Decisions made at [`TrustLevel::Full`].
    pub decisions_full: usize,
    /// Decisions made at [`TrustLevel::Degraded`].
    pub decisions_degraded: usize,
    /// Decisions made at [`TrustLevel::Untrusted`].
    pub decisions_untrusted: usize,
    /// Demotions to [`TrustLevel::Untrusted`] during the run.
    pub demotions: u64,
}

/// A full copy of a [`DegradedController`]'s mutable state — ladder
/// position, hysteresis counters, anomaly window, stuck-at tracker, and
/// the wrapped controller's state — as exported by
/// [`DegradedController::export_state`] and re-installed by
/// [`DegradedController::from_state`]. The configuration itself is not
/// carried: the restoring caller supplies it (and the restore validates
/// the state against it), matching how the batched engine re-derives
/// per-lane configuration from its own construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderState {
    /// The wrapped adaptive controller's state.
    pub controller: ControllerState,
    /// Current trust level.
    pub level: TrustLevel,
    /// The anomaly window's classifications, oldest first
    /// (`true` = anomaly).
    pub recent: Vec<bool>,
    /// Consecutive valid readings ending at the present.
    pub clean_streak: usize,
    /// Consecutive invalid readings ending at the present.
    pub since_valid: usize,
    /// Bit pattern of the last structurally-valid reading, for stuck-at
    /// detection.
    pub last_bits: Option<u64>,
    /// Length of the current bit-identical run.
    pub run_len: usize,
    /// Cumulative quarantine counts.
    pub counts: AnomalyCounts,
    /// Demotions to [`TrustLevel::Untrusted`] since construction.
    pub demotions: u64,
    /// Readings left on a monitor-drift degradation hold.
    pub drift_holdoff: usize,
}

enum ReadingClass {
    Valid,
    NonFinite,
    Negative,
    Implausible,
    Stuck,
}

/// [`AdaptiveController`] wrapped in the trust ladder.
#[derive(Debug, Clone)]
pub struct DegradedController {
    inner: AdaptiveController,
    fallback: NRand,
    break_even: BreakEven,
    config: DegradationConfig,
    level: TrustLevel,
    /// Last `config.window` classifications (`true` = anomaly).
    recent: VecDeque<bool>,
    anomalies_in_window: usize,
    clean_streak: usize,
    since_valid: usize,
    /// Bit pattern of the last reading, for stuck-at detection.
    last_bits: Option<u64>,
    run_len: usize,
    counts: AnomalyCounts,
    demotions: u64,
    /// Readings left on a monitor-drift degradation hold
    /// ([`DegradationConfig::drift_degrades`]); `0` when clear.
    drift_holdoff: usize,
}

impl DegradedController {
    /// A degraded-mode controller whose inner estimator uses the full
    /// history, with the default [`DegradationConfig`].
    #[must_use]
    pub fn new(break_even: BreakEven) -> Self {
        Self::wrap(AdaptiveController::new(break_even), break_even)
    }

    /// Uses an inner estimator over a sliding window of the last
    /// `window` stops.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_estimator_window(break_even: BreakEven, window: usize) -> Self {
        Self::wrap(AdaptiveController::with_window(break_even, window), break_even)
    }

    fn wrap(inner: AdaptiveController, break_even: BreakEven) -> Self {
        Self {
            inner,
            fallback: NRand::new(break_even),
            break_even,
            config: DegradationConfig::default(),
            level: TrustLevel::Full,
            recent: VecDeque::new(),
            anomalies_in_window: 0,
            clean_streak: 0,
            since_valid: 0,
            last_bits: None,
            run_len: 0,
            counts: AnomalyCounts::default(),
            demotions: 0,
            drift_holdoff: 0,
        }
    }

    /// Requires `n` observed stops before the inner controller trusts its
    /// estimate (see [`AdaptiveController::min_history`]); returns `self`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn min_history(mut self, n: usize) -> Self {
        self.inner = self.inner.min_history(n);
        self
    }

    /// Replaces the ladder configuration; returns `self`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (empty window,
    /// `demote_at < degrade_at`, zero thresholds, non-positive
    /// plausibility cap).
    #[must_use]
    pub fn config(mut self, config: DegradationConfig) -> Self {
        self.config = config.validate();
        self
    }

    /// The current trust level.
    #[must_use]
    pub fn trust(&self) -> TrustLevel {
        self.level
    }

    /// Cumulative quarantine counts since construction.
    #[must_use]
    pub fn anomaly_counts(&self) -> AnomalyCounts {
        self.counts
    }

    /// The wrapped estimator's state.
    #[must_use]
    pub fn estimator(&self) -> &MomentEstimator {
        self.inner.estimator()
    }

    /// Exports the ladder's complete mutable state for persistence (the
    /// inverse of [`DegradedController::from_state`]).
    #[must_use]
    pub fn export_state(&self) -> LadderState {
        LadderState {
            controller: self.inner.export_state(),
            level: self.level,
            recent: self.recent.iter().copied().collect(),
            clean_streak: self.clean_streak,
            since_valid: self.since_valid,
            last_bits: self.last_bits,
            run_len: self.run_len,
            counts: self.counts,
            demotions: self.demotions,
            drift_holdoff: self.drift_holdoff,
        }
    }

    /// Reconstructs a controller from a persisted [`LadderState`] under
    /// the given configuration, validating the state against it. The
    /// windowed anomaly count is re-derived from the persisted window
    /// contents rather than stored separately, so it can never disagree.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPersistedState`] if the anomaly window is longer
    /// than the configured window, the stuck-at tracker is inconsistent
    /// (a run length without a last reading, or vice versa), or the
    /// wrapped controller state fails
    /// [`AdaptiveController::from_state`] validation.
    ///
    /// # Panics
    ///
    /// Panics if `config` itself is inconsistent (same contract as
    /// [`DegradedController::config`]).
    pub fn from_state(
        break_even: BreakEven,
        config: DegradationConfig,
        state: &LadderState,
    ) -> Result<Self, Error> {
        let config = config.validate();
        if state.recent.len() > config.window {
            return Err(Error::InvalidPersistedState {
                reason: "anomaly window longer than configured",
            });
        }
        if state.last_bits.is_none() != (state.run_len == 0) {
            return Err(Error::InvalidPersistedState { reason: "stuck-at tracker inconsistent" });
        }
        let inner = AdaptiveController::from_state(break_even, &state.controller)?;
        let anomalies_in_window = state.recent.iter().filter(|&&a| a).count();
        Ok(Self {
            inner,
            fallback: NRand::new(break_even),
            break_even,
            config,
            level: state.level,
            recent: state.recent.iter().copied().collect(),
            anomalies_in_window,
            clean_streak: state.clean_streak,
            since_valid: state.since_valid,
            last_bits: state.last_bits,
            run_len: state.run_len,
            counts: state.counts,
            demotions: state.demotions,
            drift_holdoff: state.drift_holdoff,
        })
    }

    /// Chooses the idle threshold for the next stop according to the
    /// current trust level. At [`TrustLevel::Full`] this consumes exactly
    /// the RNG draws the wrapped [`AdaptiveController::decide`] would; at
    /// [`TrustLevel::Degraded`] it consumes none (DET is deterministic).
    pub fn decide(&self, rng: &mut dyn RngCore) -> f64 {
        match self.level {
            TrustLevel::Full => self.inner.decide(rng),
            TrustLevel::Degraded => {
                let x = self.break_even.seconds();
                // Statistics are untrusted here, so the decision event
                // carries none (DET's distribution-free guarantee is
                // CR ≤ 2; `chosen_cost_bound` is reserved for the
                // statistics-derived expected-cost bound).
                if obsv::tracer::observing() {
                    obsv::tracer::emit(obsv::TraceEvent::StopDecision {
                        vertex: "DET".into(),
                        threshold_b: x,
                        mu_b_minus: None,
                        q_b_plus: None,
                        chosen_cost_bound: None,
                    });
                }
                x
            }
            TrustLevel::Untrusted => {
                let x = self.fallback.sample_threshold(rng);
                if obsv::tracer::observing() {
                    obsv::tracer::emit(obsv::TraceEvent::StopDecision {
                        vertex: self.fallback.name().into(),
                        threshold_b: x,
                        mu_b_minus: None,
                        q_b_plus: None,
                        chosen_cost_bound: None,
                    });
                }
                x
            }
        }
    }

    /// Feeds one sensor reading through classification: a valid reading
    /// reaches the wrapped estimator, an anomalous one is quarantined and
    /// counted. Never panics, for any `f64`. Trust transitions happen
    /// here.
    pub fn observe(&mut self, reading: f64) {
        let m = obs::metrics();
        m.degraded_readings.inc();
        let class = self.classify(reading);
        match class {
            ReadingClass::Valid => {
                self.since_valid = 0;
                self.clean_streak += 1;
                self.push_recent(false);
                self.inner.observe(reading);
            }
            anomaly => {
                match anomaly {
                    ReadingClass::NonFinite => {
                        self.counts.non_finite += 1;
                        m.anomaly_non_finite.inc();
                    }
                    ReadingClass::Negative => {
                        self.counts.negative += 1;
                        m.anomaly_negative.inc();
                    }
                    ReadingClass::Implausible => {
                        self.counts.implausible += 1;
                        m.anomaly_implausible.inc();
                    }
                    ReadingClass::Stuck => {
                        self.counts.stuck += 1;
                        m.anomaly_stuck.inc();
                    }
                    ReadingClass::Valid => unreachable!("valid handled above"),
                }
                self.since_valid += 1;
                self.clean_streak = 0;
                self.push_recent(true);
            }
        }
        // Poll the streaming monitor *after* the estimator saw the reading
        // (a drift alarm raised by this very update is caught immediately)
        // and *before* the trust decision. Behind the config flag and a
        // relaxed load, so the default path is untouched.
        if self.config.drift_degrades && obsv::monitor::take_drift_pending() {
            self.drift_holdoff = self.config.window;
        }
        self.update_trust();
        self.drift_holdoff = self.drift_holdoff.saturating_sub(1);
    }

    fn classify(&mut self, reading: f64) -> ReadingClass {
        if !reading.is_finite() {
            return ReadingClass::NonFinite;
        }
        if reading < 0.0 {
            return ReadingClass::Negative;
        }
        if reading > self.config.max_plausible_s {
            return ReadingClass::Implausible;
        }
        // Stuck-at: compare exact bit patterns across structurally-valid
        // readings. A genuinely continuous sensor essentially never
        // repeats bits; a frozen register always does.
        let bits = reading.to_bits();
        if self.last_bits == Some(bits) {
            self.run_len += 1;
        } else {
            self.last_bits = Some(bits);
            self.run_len = 1;
        }
        if self.run_len > self.config.stuck_run {
            return ReadingClass::Stuck;
        }
        ReadingClass::Valid
    }

    fn push_recent(&mut self, anomaly: bool) {
        if self.recent.len() == self.config.window {
            if let Some(true) = self.recent.pop_front() {
                self.anomalies_in_window -= 1;
            }
        }
        self.recent.push_back(anomaly);
        if anomaly {
            self.anomalies_in_window += 1;
        }
    }

    fn update_trust(&mut self) {
        let before = self.level;
        let wants_untrusted = self.anomalies_in_window >= self.config.demote_at;
        let wants_degraded = self.anomalies_in_window >= self.config.degrade_at
            || self.since_valid > self.config.stale_after
            || self.drift_holdoff > 0;
        match self.level {
            TrustLevel::Untrusted => {
                // Hysteresis: only a sustained clean run re-promotes, and
                // it jumps straight to Full with the anomaly window wiped
                // (everything in it predates the clean run).
                if !wants_untrusted && self.clean_streak >= self.config.promote_after {
                    self.level = TrustLevel::Full;
                    self.recent.clear();
                    self.anomalies_in_window = 0;
                }
            }
            TrustLevel::Full | TrustLevel::Degraded => {
                if wants_untrusted {
                    self.level = TrustLevel::Untrusted;
                    self.demotions += 1;
                    self.clean_streak = 0;
                    if self.config.reset_on_demote {
                        self.inner.reset_estimator();
                    }
                } else if wants_degraded {
                    self.level = TrustLevel::Degraded;
                } else {
                    self.level = TrustLevel::Full;
                }
            }
        }
        if before != self.level {
            let m = obs::metrics();
            match (before, self.level) {
                (TrustLevel::Full, TrustLevel::Degraded) => m.trans_full_to_degraded.inc(),
                (TrustLevel::Degraded, TrustLevel::Full) => m.trans_degraded_to_full.inc(),
                (_, TrustLevel::Untrusted) => m.trans_demotions.inc(),
                (TrustLevel::Untrusted, _) => m.trans_promotions.inc(),
                _ => unreachable!("no other transition exists in the ladder"),
            }
            if obsv::tracer::observing() {
                obsv::tracer::emit(obsv::TraceEvent::LadderTransition {
                    from: before.name().to_string(),
                    to: self.level.name().to_string(),
                    anomalies_in_window: self.anomalies_in_window as u64,
                    clean_streak: self.clean_streak as u64,
                });
            }
        }
    }

    /// Runs the online loop with a perfect sensor (`observed == stops`).
    /// On clean input this is bit-identical to
    /// [`AdaptiveController::run`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrace`] if `stops` is empty, or
    /// [`Error::InvalidStop`] if a *true* stop length is negative or
    /// non-finite.
    pub fn run(&mut self, stops: &[f64], rng: &mut dyn RngCore) -> Result<DegradedOutcome, Error> {
        self.run_observed(stops, stops, rng)
    }

    /// Runs the online loop: for each stop, decide a threshold, pay the
    /// cost on the **true** length `stops[i]`, then feed the **sensor
    /// reading** `observed[i]` through classification into the estimator.
    ///
    /// `stops` is ground truth (what the vehicle physically did) and must
    /// be clean; `observed` is what the sensor claimed and may be
    /// arbitrary garbage.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyTrace`] if `stops` is empty,
    /// [`Error::MismatchedLengths`] if the slices differ in length, or
    /// [`Error::InvalidStop`] if a *true* stop length is negative or
    /// non-finite.
    pub fn run_observed(
        &mut self,
        stops: &[f64],
        observed: &[f64],
        rng: &mut dyn RngCore,
    ) -> Result<DegradedOutcome, Error> {
        if stops.is_empty() {
            return Err(Error::EmptyTrace);
        }
        if stops.len() != observed.len() {
            return Err(Error::MismatchedLengths {
                stops: stops.len(),
                observations: observed.len(),
            });
        }
        if let Some(&bad) = stops.iter().find(|y| !(y.is_finite() && **y >= 0.0)) {
            return Err(Error::InvalidStop { bits: bad.to_bits() });
        }
        let counts_before = self.counts;
        let demotions_before = self.demotions;
        let b = self.break_even;
        let mut online = 0.0;
        let mut offline = 0.0;
        let mut decisions = [0usize; 3];
        for (i, (&y, &reading)) in stops.iter().zip(observed).enumerate() {
            obsv::tracer::begin_stop(i as u64);
            let x = self.decide(rng);
            decisions[match self.level {
                TrustLevel::Full => 0,
                TrustLevel::Degraded => 1,
                TrustLevel::Untrusted => 2,
            }] += 1;
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
            self.observe(reading);
        }
        let cr = realized_cr(online, offline);
        obs::metrics().record_cr(cr);
        Ok(DegradedOutcome {
            online_cost: online,
            offline_cost: offline,
            cr,
            stops: stops.len(),
            anomalies: self.counts.minus(&counts_before),
            decisions_full: decisions[0],
            decisions_degraded: decisions[1],
            decisions_untrusted: decisions[2],
            demotions: self.demotions - demotions_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e_ratio;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stopmodel::uniform01;

    fn b28() -> BreakEven {
        BreakEven::new(28.0).unwrap()
    }

    /// Jittered tiny stops: continuous values, so stuck detection never
    /// fires on clean data.
    fn tiny_stops(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| 0.2 + 0.1 * uniform01(&mut rng)).collect()
    }

    fn mixed_stops(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u = uniform01(&mut rng);
                if u < 0.8 {
                    40.0 * uniform01(&mut rng)
                } else {
                    30.0 + 300.0 * uniform01(&mut rng)
                }
            })
            .collect()
    }

    #[test]
    fn clean_run_is_bit_identical_to_adaptive() {
        let stops = mixed_stops(4000, 1);
        let mut plain = AdaptiveController::with_window(b28(), 100);
        let mut wrapped = DegradedController::with_estimator_window(b28(), 100);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let a = plain.run(&stops, &mut rng_a).unwrap();
        let d = wrapped.run(&stops, &mut rng_b).unwrap();
        assert_eq!(a.online_cost.to_bits(), d.online_cost.to_bits());
        assert_eq!(a.offline_cost.to_bits(), d.offline_cost.to_bits());
        assert_eq!(a.cr.to_bits(), d.cr.to_bits());
        assert_eq!(d.decisions_full, stops.len());
        assert_eq!(d.decisions_degraded + d.decisions_untrusted, 0);
        assert_eq!(d.anomalies.total(), 0);
        assert_eq!(wrapped.trust(), TrustLevel::Full);
    }

    #[test]
    fn clean_run_is_bit_identical_with_drift_flag_off() {
        let stops = mixed_stops(3000, 7);
        let mut plain = AdaptiveController::with_window(b28(), 100);
        let mut off = DegradedController::with_estimator_window(b28(), 100)
            .config(DegradationConfig { drift_degrades: false, ..DegradationConfig::default() });
        // The flag is also inert while the monitor is disabled (the
        // default process state): no poll, no holdoff, no divergence.
        let mut on = DegradedController::with_estimator_window(b28(), 100)
            .config(DegradationConfig { drift_degrades: true, ..DegradationConfig::default() });
        let mut rng_a = StdRng::seed_from_u64(41);
        let mut rng_b = StdRng::seed_from_u64(41);
        let mut rng_c = StdRng::seed_from_u64(41);
        let a = plain.run(&stops, &mut rng_a).unwrap();
        let b = off.run(&stops, &mut rng_b).unwrap();
        let c = on.run(&stops, &mut rng_c).unwrap();
        assert_eq!(a.online_cost.to_bits(), b.online_cost.to_bits());
        assert_eq!(a.cr.to_bits(), b.cr.to_bits());
        assert_eq!(a.online_cost.to_bits(), c.online_cost.to_bits());
        assert_eq!(a.cr.to_bits(), c.cr.to_bits());
        assert_eq!(b.decisions_full, stops.len());
        assert_eq!(c.decisions_full, stops.len());
    }

    #[test]
    fn drift_holdoff_forces_degraded_until_it_expires() {
        // Exercise the holdoff path directly (the monitor-driven set is
        // integration-tested with the process-global monitor): a pending
        // holdoff forces Degraded on otherwise clean readings, then
        // expires after `window` readings.
        let mut ctl = DegradedController::new(b28()).config(DegradationConfig {
            window: 5,
            drift_degrades: true,
            ..DegradationConfig::default()
        });
        for y in [5.0, 9.0, 3.5] {
            ctl.observe(y);
        }
        assert_eq!(ctl.trust(), TrustLevel::Full);
        ctl.drift_holdoff = 3;
        for i in 0..3 {
            ctl.observe(4.0 + 0.1 * f64::from(i));
            assert_eq!(ctl.trust(), TrustLevel::Degraded, "holdoff reading {i}");
        }
        ctl.observe(6.5);
        assert_eq!(ctl.trust(), TrustLevel::Full, "holdoff expired");
    }

    #[test]
    fn single_anomaly_degrades_then_recovers() {
        let mut ctl = DegradedController::new(b28())
            .config(DegradationConfig { window: 10, ..DegradationConfig::default() });
        for y in [5.0, 9.0, 3.5] {
            ctl.observe(y);
        }
        assert_eq!(ctl.trust(), TrustLevel::Full);
        ctl.observe(f64::NAN);
        assert_eq!(ctl.trust(), TrustLevel::Degraded);
        // DET while degraded: the threshold is exactly B, no RNG draws.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ctl.decide(&mut rng), 28.0);
        // The anomaly ages out of the 10-reading window.
        for i in 0..10 {
            ctl.observe(4.0 + i as f64 * 0.1);
        }
        assert_eq!(ctl.trust(), TrustLevel::Full);
        assert_eq!(ctl.anomaly_counts().non_finite, 1);
    }

    #[test]
    fn fault_burst_demotes_and_hysteresis_repromotes() {
        let cfg = DegradationConfig {
            window: 50,
            degrade_at: 1,
            demote_at: 4,
            promote_after: 60,
            ..DegradationConfig::default()
        };
        let mut ctl = DegradedController::new(b28()).config(cfg);
        for y in [5.0, 9.0, 3.5, 7.0, 2.0] {
            ctl.observe(y);
        }
        assert!(!ctl.estimator().is_empty());
        // Burst of garbage → Untrusted, estimator wiped.
        for _ in 0..4 {
            ctl.observe(f64::NAN);
        }
        assert_eq!(ctl.trust(), TrustLevel::Untrusted);
        assert!(ctl.estimator().is_empty(), "demotion must forget the estimate");
        // Untrusted decisions are N-Rand samples: randomized in (0, B].
        let mut rng = StdRng::seed_from_u64(2);
        let draws: Vec<f64> = (0..20).map(|_| ctl.decide(&mut rng)).collect();
        assert!(draws.iter().all(|&x| (0.0..=28.0).contains(&x)));
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "DET would be constant");
        // 59 clean readings: still below the promotion threshold.
        for i in 0..59 {
            ctl.observe(4.0 + i as f64 * 0.01);
        }
        assert_eq!(ctl.trust(), TrustLevel::Untrusted, "hysteresis holds");
        ctl.observe(3.0);
        assert_eq!(ctl.trust(), TrustLevel::Full, "sustained clean run re-promotes");
        // The refilled estimator contains exactly the post-fault readings.
        assert_eq!(ctl.estimator().len(), 60);
    }

    #[test]
    fn stuck_and_implausible_classes_quarantined() {
        let cfg = DegradationConfig {
            stuck_run: 3,
            max_plausible_s: 3600.0,
            // Keep the ladder out of the way: only classification is
            // under test, and a demotion would wipe the estimator.
            demote_at: 100,
            ..DegradationConfig::default()
        };
        let mut ctl = DegradedController::new(b28()).config(cfg);
        for _ in 0..10 {
            ctl.observe(900.0);
        }
        ctl.observe(40_000.0);
        ctl.observe(-5.0);
        let counts = ctl.anomaly_counts();
        assert_eq!(counts.stuck, 7, "first 3 of the frozen run pass, the rest quarantine");
        assert_eq!(counts.implausible, 1);
        assert_eq!(counts.negative, 1);
        assert_eq!(counts.total(), 9);
        assert_eq!(ctl.estimator().len(), 3);
    }

    #[test]
    fn hundred_percent_dropout_stays_within_nrand_bound() {
        // Every reading lost (NaN): the ladder must pin Untrusted and the
        // realized CR on an adversarial tiny-stop trace must stay within
        // the distribution-free N-Rand guarantee.
        let stops = tiny_stops(150_000, 7);
        let observed = vec![f64::NAN; stops.len()];
        let mut ctl = DegradedController::new(b28());
        let mut rng = StdRng::seed_from_u64(11);
        let out = ctl.run_observed(&stops, &observed, &mut rng).unwrap();
        assert_eq!(out.anomalies.non_finite as usize, stops.len());
        assert!(out.decisions_untrusted > stops.len() - 300, "ladder should pin Untrusted");
        assert!(out.cr <= e_ratio() + 0.05, "realized CR {} vs bound {}", out.cr, e_ratio() + 0.05);
        assert_eq!(ctl.trust(), TrustLevel::Untrusted);
    }

    #[test]
    fn run_observed_validates_inputs() {
        let mut ctl = DegradedController::new(b28());
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(ctl.run_observed(&[], &[], &mut rng), Err(Error::EmptyTrace)));
        assert!(matches!(
            ctl.run_observed(&[1.0, 2.0], &[1.0], &mut rng),
            Err(Error::MismatchedLengths { stops: 2, observations: 1 })
        ));
        assert!(matches!(
            ctl.run_observed(&[1.0, f64::NAN], &[1.0, 2.0], &mut rng),
            Err(Error::InvalidStop { .. })
        ));
        // Garbage *readings* are fine — that is the whole point.
        let out = ctl.run_observed(&[1.0, 2.0], &[f64::NAN, -3.0], &mut rng).unwrap();
        assert_eq!(out.anomalies.non_finite, 1);
        assert_eq!(out.anomalies.negative, 1);
    }

    #[test]
    fn ladder_state_roundtrip_mid_handoff() {
        // Freeze the ladder mid-demotion-recovery: Untrusted with a
        // partial clean streak, then check a restored controller evolves
        // identically to the original.
        let cfg = DegradationConfig {
            window: 20,
            degrade_at: 1,
            demote_at: 3,
            promote_after: 10,
            ..DegradationConfig::default()
        };
        let mut ctl = DegradedController::new(b28()).config(cfg);
        for y in [5.0, 9.0, 3.5] {
            ctl.observe(y);
        }
        for _ in 0..3 {
            ctl.observe(f64::NAN);
        }
        for i in 0..6 {
            ctl.observe(4.0 + 0.01 * f64::from(i));
        }
        assert_eq!(ctl.trust(), TrustLevel::Untrusted, "mid-hysteresis");
        let state = ctl.export_state();
        let mut restored = DegradedController::from_state(b28(), cfg, &state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.trust(), ctl.trust());
        // Identical evolution from the cut: same promotions, decisions,
        // and counters.
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        for i in 0..30 {
            let y = 4.0 + 0.02 * f64::from(i);
            assert_eq!(ctl.decide(&mut rng_a).to_bits(), restored.decide(&mut rng_b).to_bits());
            ctl.observe(y);
            restored.observe(y);
        }
        assert_eq!(ctl.export_state(), restored.export_state());
        assert_eq!(ctl.trust(), TrustLevel::Full, "both re-promoted in lockstep");
    }

    #[test]
    fn ladder_from_state_rejects_inconsistencies() {
        let cfg = DegradationConfig { window: 5, ..DegradationConfig::default() };
        let mut ctl = DegradedController::new(b28()).config(cfg);
        for y in [5.0, 9.0] {
            ctl.observe(y);
        }
        let good = ctl.export_state();
        assert!(matches!(
            DegradedController::from_state(
                b28(),
                cfg,
                &LadderState { recent: vec![false; 6], ..good.clone() }
            ),
            Err(Error::InvalidPersistedState { .. })
        ));
        assert!(matches!(
            DegradedController::from_state(
                b28(),
                cfg,
                &LadderState { last_bits: None, run_len: 2, ..good.clone() }
            ),
            Err(Error::InvalidPersistedState { .. })
        ));
        assert!(DegradedController::from_state(b28(), cfg, &good).is_ok());
    }

    #[test]
    fn config_validation_panics_on_nonsense() {
        let bad = DegradationConfig { demote_at: 1, degrade_at: 5, ..DegradationConfig::default() };
        let result = std::panic::catch_unwind(|| DegradedController::new(b28()).config(bad));
        assert!(result.is_err());
    }
}
