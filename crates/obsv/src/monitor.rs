//! Streaming CR-regret monitor with change-point (drift) alarms.
//!
//! The tracer records *what happened*; this module watches the same event
//! stream **while the run is still going** and raises typed alarms when
//! the run stops tracking its own guarantees. Per stream it maintains:
//!
//! * a **realized-CR ledger** — cumulative online vs. hindsight-optimal
//!   cost, plus a windowed ratio over the last `W` stops (bit-exactly
//!   recomputable offline from the same trace, see
//!   [`StreamSummary::windowed_cr`]);
//! * two-sided **Page-Hinkley change-point detectors** on the estimator's
//!   `μ̂_B⁻` and `q̂_B⁺` streams ([`PageHinkley`]);
//! * a **vertex-mismatch detector** that recomputes the four-vertex
//!   argmin from the windowed *true* stop lengths ([`vertex_argmin`]) and
//!   flags sustained disagreement with the vertex the controller actually
//!   played — the played vertex comes from possibly-poisoned sensor
//!   *readings*, the recomputation from realized stops, so divergence is
//!   exactly the "stale advice" signal;
//! * a **CR-bound-violation alarm** when the windowed realized CR exceeds
//!   the worst-case bound carried by the most recent statistics-bearing
//!   `stop_decision` event by a configurable margin;
//! * a **tail-budget alarm** ([`crate::TraceEvent::TailBudgetAlarm`])
//!   when the windowed per-stop exceedance estimate `P(CR > τ)` crosses
//!   the budget `δ` with margin — the online counterpart of the
//!   `P(CR > τ) ≤ δ` constraints of the tail-risk ski-rental literature,
//!   disabled by default (`tail_tau = +∞`). The distributional view
//!   behind the same ratios lives in [`crate::risk`].
//!
//! Alarms surface as [`crate::TraceEvent::MonitorAlarm`] records (stamped
//! by the tracer's logical clock, so traces stay byte-identical across
//! thread counts) and aggregate into a [`MonitorReport`] that rides along
//! as an optional section of the [`crate::RunReport`].
//!
//! Like the registry and the tracer, the process-wide [`global`] monitor
//! starts **disabled**: instrumentation sites guard with [`active`] — one
//! relaxed atomic load — and the monitor consumes no RNG and alters no
//! floating-point state in the decision path, so enabling it changes what
//! is *observed*, never what is *computed*.

use crate::event::{TraceEvent, TraceRecord};
use crate::risk::realized_cr;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError, RwLock};

/// Number of independent state shards; streams shard by `stream % SHARDS`.
const SHARDS: usize = 16;

/// Tuning knobs for the streaming monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Break-even interval `B`, seconds — used by the vertex argmin and
    /// to convert the `stop_decision` cost bound into a CR bound.
    pub break_even_s: f64,
    /// Window `W` (stops) for the windowed CR ledger and the windowed
    /// statistics behind the vertex-mismatch detector. Match it to the
    /// controller's estimator window for exact tracking.
    pub window: usize,
    /// Page-Hinkley warm-up: this many observations only update the
    /// running mean before the cumulative statistics start, absorbing the
    /// cold-start volatility of a filling estimator window. The default
    /// (twice the window) keeps realistic diurnal fleet traces quiet
    /// while a genuine mid-run shift still fires within tens of stops.
    pub warmup: usize,
    /// Page-Hinkley drift tolerance δ for the `μ̂_B⁻` stream, seconds.
    pub mu_delta: f64,
    /// Page-Hinkley alarm threshold λ for the `μ̂_B⁻` stream.
    pub mu_lambda: f64,
    /// Page-Hinkley drift tolerance δ for the `q̂_B⁺` stream.
    pub q_delta: f64,
    /// Page-Hinkley alarm threshold λ for the `q̂_B⁺` stream.
    pub q_lambda: f64,
    /// CR-bound alarm margin: fire when the windowed realized CR exceeds
    /// `bound × (1 + cr_margin)`. The bound is on the *expected* cost, so
    /// a realized window legitimately wanders above it; the margin keeps
    /// ordinary variance quiet.
    pub cr_margin: f64,
    /// Consecutive statistics-bearing decisions that must disagree with
    /// the windowed argmin before a vertex-mismatch alarm fires (single
    /// disagreements near a region boundary are expected).
    pub mismatch_streak: usize,
    /// Tail-budget threshold τ: the per-stop realized-CR level the
    /// exceedance budget is stated against (`P(CR > τ) ≤ tail_delta`).
    /// The default `+∞` disables the detector — no stop ever exceeds it —
    /// so existing traces and configs stay alarm-free unless a τ is
    /// explicitly chosen.
    pub tail_tau: f64,
    /// Tail-budget δ: the tolerated windowed exceedance fraction.
    pub tail_delta: f64,
    /// Tail alarm margin: fire when the windowed exceedance fraction
    /// crosses `tail_delta × (1 + tail_margin)`; re-arm once it is back
    /// at or under `tail_delta` itself.
    pub tail_margin: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            break_even_s: 28.0,
            window: 50,
            warmup: 100,
            mu_delta: 2.0,
            mu_lambda: 60.0,
            q_delta: 0.05,
            q_lambda: 2.0,
            cr_margin: 1.0,
            mismatch_streak: 12,
            tail_tau: f64::INFINITY,
            tail_delta: 0.05,
            tail_margin: 0.5,
        }
    }
}

impl MonitorConfig {
    /// Validates the configuration, returning it for chaining.
    ///
    /// # Panics
    ///
    /// Panics on nonsense: non-positive break-even, empty window, zero
    /// mismatch streak, non-finite or negative detector parameters.
    #[must_use]
    pub fn validate(self) -> Self {
        assert!(
            self.break_even_s.is_finite() && self.break_even_s > 0.0,
            "break_even_s must be positive"
        );
        assert!(self.window > 0, "window must be non-empty");
        assert!(self.mismatch_streak > 0, "mismatch_streak must be positive");
        for (name, v) in [("mu_delta", self.mu_delta), ("q_delta", self.q_delta)] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be finite and >= 0");
        }
        for (name, v) in [("mu_lambda", self.mu_lambda), ("q_lambda", self.q_lambda)] {
            assert!(v.is_finite() && v > 0.0, "{name} must be finite and positive");
        }
        assert!(self.cr_margin.is_finite() && self.cr_margin >= 0.0, "cr_margin must be >= 0");
        assert!(
            self.tail_tau >= 1.0,
            "tail_tau must be >= 1 (a CR never falls below 1); +inf disables the detector"
        );
        assert!(
            self.tail_delta > 0.0 && self.tail_delta <= 1.0,
            "tail_delta must be a fraction in (0, 1]"
        );
        assert!(
            self.tail_margin.is_finite() && self.tail_margin >= 0.0,
            "tail_margin must be finite and >= 0"
        );
        self
    }
}

/// A two-sided Page-Hinkley change-point detector.
///
/// Maintains the running mean `x̄_n` and the cumulative deviations
/// `m_n = Σ (x_t − x̄_t − δ)` (increase side) and
/// `m'_n = Σ (x_t − x̄_t + δ)` (decrease side); the test statistic is
/// `max(m_n − min m, max m' − m'_n)` and the detector fires when it
/// exceeds `λ`, then resets itself so a later second shift can fire
/// again. On a constant input both cumulative deviations are monotone
/// (drifting by exactly `∓δ` per step), so the statistic stays `0` and
/// the detector provably never fires.
#[derive(Debug, Clone, PartialEq)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    warmup: usize,
    n: u64,
    mean: f64,
    up: f64,
    up_min: f64,
    dn: f64,
    dn_max: f64,
}

impl PageHinkley {
    /// A detector with tolerance `delta`, threshold `lambda`, no warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `delta < 0`, `lambda <= 0`, or either is non-finite.
    #[must_use]
    pub fn new(delta: f64, lambda: f64) -> Self {
        Self::with_warmup(delta, lambda, 0)
    }

    /// A detector whose first `warmup` observations only update the mean.
    ///
    /// # Panics
    ///
    /// Panics if `delta < 0`, `lambda <= 0`, or either is non-finite.
    #[must_use]
    pub fn with_warmup(delta: f64, lambda: f64, warmup: usize) -> Self {
        assert!(delta.is_finite() && delta >= 0.0, "delta must be finite and >= 0");
        assert!(lambda.is_finite() && lambda > 0.0, "lambda must be finite and positive");
        Self { delta, lambda, warmup, n: 0, mean: 0.0, up: 0.0, up_min: 0.0, dn: 0.0, dn_max: 0.0 }
    }

    /// Consumes one observation; returns `true` when the detector fires
    /// (after which it resets itself). Non-finite inputs are ignored.
    pub fn observe(&mut self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        if self.n <= self.warmup as u64 {
            return false;
        }
        self.up += x - self.mean - self.delta;
        self.up_min = self.up_min.min(self.up);
        self.dn += x - self.mean + self.delta;
        self.dn_max = self.dn_max.max(self.dn);
        if self.statistic() > self.lambda {
            self.reset();
            return true;
        }
        false
    }

    /// The current test statistic (the larger of the two one-sided
    /// cumulative excursions); `0` right after construction or a reset.
    #[must_use]
    pub fn statistic(&self) -> f64 {
        (self.up - self.up_min).max(self.dn_max - self.dn)
    }

    /// Observations consumed since construction or the last reset.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no observations have been consumed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The running mean of the observations seen so far.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Forgets all state (parameters are kept), restarting the warm-up.
    pub fn reset(&mut self) {
        *self = Self::with_warmup(self.delta, self.lambda, self.warmup);
    }
}

/// Worst-case expected costs of the four vertex strategies and the argmin
/// vertex name, recomputed from `(μ_B⁻, q_B⁺, B)` alone.
///
/// Mirrors `skirental::ConstrainedStats::optimal_choice` exactly — same
/// vertex formulas (eqs. (33)–(36) of the paper), same b-DET feasibility
/// gate, same DET → TOI → b-DET → N-Rand tie order — without depending on
/// that crate (a cross-crate test pins the agreement). Returns the vertex
/// name as it appears in `stop_decision` events plus its cost.
#[must_use]
pub fn vertex_argmin(mu: f64, q: f64, b: f64) -> (&'static str, f64) {
    let e = std::f64::consts::E;
    let offline = mu + q * b;
    let det = mu + 2.0 * q * b;
    let toi = b;
    let n_rand = e / (e - 1.0) * offline;
    let b_det = if mu > 0.0 && q > 0.0 && q < 1.0 && mu / b < (1.0 - q) * (1.0 - q) / q {
        let b_star = (mu * b / q).sqrt();
        if b_star <= b {
            Some((mu.sqrt() + (q * b).sqrt()).powi(2))
        } else {
            None
        }
    } else {
        None
    };
    let mut best = ("DET", det);
    if toi < best.1 {
        best = ("TOI", toi);
    }
    if let Some(cost) = b_det {
        if cost < best.1 {
            best = ("b-DET", cost);
        }
    }
    if n_rand < best.1 {
        best = ("N-Rand", n_rand);
    }
    best
}

/// One alarm, as aggregated into the [`MonitorReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmRecord {
    /// Stop index (within the stream) at which the alarm fired.
    pub stop: u64,
    /// Alarm class: `"drift"`, `"vertex_mismatch"`, `"cr_bound"`, or
    /// `"tail_budget"`.
    pub alarm: String,
    /// What specifically tripped (`"mu_b_minus"`, `"q_b_plus"`, `"played
    /// TOI, windowed argmin DET"`, `"windowed CR above bound"`,
    /// `"P(CR > τ) over budget δ"`).
    pub detail: String,
    /// The observed statistic (PH statistic, mismatch streak, windowed
    /// CR, windowed exceedance fraction).
    pub observed: f64,
    /// The limit it crossed (λ, streak threshold, bound/budget × (1 +
    /// margin)).
    pub limit: f64,
}

/// Per-stream aggregate the monitor reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Stops whose realized cost the stream has reported.
    pub stops: u64,
    /// Cumulative realized online cost, idle-equivalent seconds.
    pub online_s: f64,
    /// Cumulative hindsight-optimal cost, idle-equivalent seconds.
    pub offline_s: f64,
    /// Online cost summed over the last `W` stops (oldest first — the
    /// exact association order, so offline recomputation is bit-exact).
    pub windowed_online_s: f64,
    /// Offline cost summed over the last `W` stops (oldest first).
    pub windowed_offline_s: f64,
    /// Vertex of the most recent decision (`None` before any decision).
    pub last_vertex: Option<String>,
    /// CR bound derived from the most recent statistics-bearing decision
    /// (`chosen_cost_bound / (μ̂ + q̂·B)`); `None` before one is seen.
    pub bound_cr: Option<f64>,
    /// Current Page-Hinkley statistic on the `μ̂_B⁻` stream.
    pub mu_stat: f64,
    /// Current Page-Hinkley statistic on the `q̂_B⁺` stream.
    pub q_stat: f64,
    /// Most recent trust-ladder level (`"Full"` until a transition).
    pub trust: String,
    /// Ladder transitions observed on this stream.
    pub transitions: u64,
    /// Alarms raised on this stream, in firing order.
    pub alarms: Vec<AlarmRecord>,
}

impl Default for StreamSummary {
    fn default() -> Self {
        Self {
            stops: 0,
            online_s: 0.0,
            offline_s: 0.0,
            windowed_online_s: 0.0,
            windowed_offline_s: 0.0,
            last_vertex: None,
            bound_cr: None,
            mu_stat: 0.0,
            q_stat: 0.0,
            trust: "Full".to_string(),
            transitions: 0,
            alarms: Vec::new(),
        }
    }
}

impl StreamSummary {
    /// Cumulative realized CR (∞-convention as in `skirental`).
    #[must_use]
    pub fn cumulative_cr(&self) -> f64 {
        realized_cr(self.online_s, self.offline_s)
    }

    /// Windowed realized CR over the last `W` stops.
    #[must_use]
    pub fn windowed_cr(&self) -> f64 {
        realized_cr(self.windowed_online_s, self.windowed_offline_s)
    }
}

/// Everything the monitor knows, keyed by stream — the `"monitor"`
/// section of a [`crate::RunReport`] (serialization lives in
/// `crate::report`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorReport {
    /// Per-stream aggregates, sorted by stream id.
    pub streams: BTreeMap<u64, StreamSummary>,
}

impl MonitorReport {
    /// Total alarms across every stream.
    #[must_use]
    pub fn total_alarms(&self) -> u64 {
        self.streams.values().map(|s| s.alarms.len() as u64).sum()
    }

    /// Alarms of one class across every stream.
    #[must_use]
    pub fn alarms_of(&self, class: &str) -> u64 {
        self.streams.values().flat_map(|s| &s.alarms).filter(|a| a.alarm == class).count() as u64
    }
}

/// Per-stream detector state.
#[derive(Debug)]
struct StreamState {
    stops: u64,
    online_total: f64,
    offline_total: f64,
    /// `(online_s, offline_s)` of the last `W` stops.
    recent_costs: VecDeque<(f64, f64)>,
    /// True stop lengths of the last `W` stops (vertex-mismatch input).
    stop_window: VecDeque<f64>,
    ph_mu: PageHinkley,
    ph_q: PageHinkley,
    /// Estimator population after the last update; a decrease means the
    /// estimator was cleared (ladder demotion) and the detectors restart.
    est_len: u64,
    mismatch_streak: usize,
    mismatch_latched: bool,
    bound_cr: Option<f64>,
    /// Whether the *latest* decision carried statistics; the CR-bound
    /// check pauses while a fallback policy (DET/N-Rand without stats)
    /// is playing, since the stale bound no longer describes it.
    bound_live: bool,
    cr_latched: bool,
    /// Per-stop `CR > τ` flags of the last `W` stops (tail detector).
    tail_window: VecDeque<bool>,
    /// Count of `true` flags in `tail_window` (maintained incrementally).
    tail_exceed: usize,
    tail_latched: bool,
    trust: String,
    transitions: u64,
    last_vertex: Option<String>,
    drift_pending: bool,
    alarms: Vec<AlarmRecord>,
}

impl StreamState {
    fn new(config: &MonitorConfig) -> Self {
        Self {
            stops: 0,
            online_total: 0.0,
            offline_total: 0.0,
            recent_costs: VecDeque::with_capacity(config.window),
            stop_window: VecDeque::with_capacity(config.window),
            ph_mu: PageHinkley::with_warmup(config.mu_delta, config.mu_lambda, config.warmup),
            ph_q: PageHinkley::with_warmup(config.q_delta, config.q_lambda, config.warmup),
            est_len: 0,
            mismatch_streak: 0,
            mismatch_latched: false,
            bound_cr: None,
            bound_live: false,
            cr_latched: false,
            tail_window: VecDeque::with_capacity(config.window),
            tail_exceed: 0,
            tail_latched: false,
            trust: "Full".to_string(),
            transitions: 0,
            last_vertex: None,
            drift_pending: false,
            alarms: Vec::new(),
        }
    }

    /// Windowed sums in arrival order — the exact FP association an
    /// offline recomputation over the same trace reproduces.
    fn windowed_sums(&self) -> (f64, f64) {
        let mut online = 0.0;
        let mut offline = 0.0;
        for &(a, b) in &self.recent_costs {
            online += a;
            offline += b;
        }
        (online, offline)
    }

    /// The argmin vertex for the windowed true-stop statistics, computed
    /// the way the estimator computes its own (`q̂` from the long-stop
    /// fraction, `μ̂` clamped to the feasible `(1−q̂)·B` cap).
    fn windowed_vertex(&self, b: f64) -> Option<&'static str> {
        if self.stop_window.is_empty() {
            return None;
        }
        let n = self.stop_window.len() as f64;
        let mut short_sum = 0.0;
        let mut long = 0usize;
        for &y in &self.stop_window {
            if y >= b {
                long += 1;
            } else {
                short_sum += y;
            }
        }
        let q = long as f64 / n;
        let mu = (short_sum / n).clamp(0.0, (1.0 - q) * b);
        Some(vertex_argmin(mu, q, b).0)
    }

    fn raise(&mut self, stop: u64, alarm: &str, detail: String, observed: f64, limit: f64) {
        self.alarms.push(AlarmRecord { stop, alarm: alarm.to_string(), detail, observed, limit });
    }

    fn summary(&self) -> StreamSummary {
        let (windowed_online_s, windowed_offline_s) = self.windowed_sums();
        StreamSummary {
            stops: self.stops,
            online_s: self.online_total,
            offline_s: self.offline_total,
            windowed_online_s,
            windowed_offline_s,
            last_vertex: self.last_vertex.clone(),
            bound_cr: self.bound_cr,
            mu_stat: self.ph_mu.statistic(),
            q_stat: self.ph_q.statistic(),
            trust: self.trust.clone(),
            transitions: self.transitions,
            alarms: self.alarms.clone(),
        }
    }
}

/// The streaming monitor: sharded per-stream detector state behind the
/// same disabled-by-default pattern as the registry and the tracer.
///
/// The process-wide instance lives behind [`global`]; tests and the
/// replay tooling can hold a local [`Monitor::new`].
pub struct Monitor {
    enabled: AtomicBool,
    config: RwLock<MonitorConfig>,
    shards: [Mutex<BTreeMap<u64, StreamState>>; SHARDS],
}

impl Monitor {
    /// A monitor that observes immediately, with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MonitorConfig::validate`]).
    #[must_use]
    pub fn new(config: MonitorConfig) -> Self {
        let m = Self::disabled();
        m.set_config(config);
        m.enable();
        m
    }

    /// A monitor that starts disabled with the default configuration —
    /// the state of [`global`] at startup.
    #[must_use]
    pub fn disabled() -> Self {
        Monitor {
            enabled: AtomicBool::new(false),
            config: RwLock::new(MonitorConfig::default()),
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
        }
    }

    /// Starts observing.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops observing; accumulated state remains until [`Monitor::reset`].
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether [`Monitor::observe`] currently observes.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Replaces the configuration and discards all per-stream state (the
    /// detectors are parameterized by it).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn set_config(&self, config: MonitorConfig) {
        let config = config.validate();
        *self.config.write().unwrap_or_else(PoisonError::into_inner) = config;
        self.reset();
    }

    /// The current configuration.
    #[must_use]
    pub fn config(&self) -> MonitorConfig {
        *self.config.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Discards all per-stream state (configuration is kept).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Feeds one event, attributed to `(stream, stop)`, through the
    /// stream's detectors; returns any alarms it raised (already
    /// aggregated into the report — callers only need to *record* them,
    /// e.g. via the tracer). A no-op returning no alarms while disabled.
    pub fn observe(&self, stream: u64, stop: u64, event: &TraceEvent) -> Vec<TraceEvent> {
        if !self.is_enabled() {
            return Vec::new();
        }
        let config = self.config();
        let shard = &self.shards[(stream % SHARDS as u64) as usize];
        let mut states = shard.lock().unwrap_or_else(PoisonError::into_inner);
        let state = states.entry(stream).or_insert_with(|| StreamState::new(&config));
        let mut alarms = Vec::new();
        match event {
            TraceEvent::EstimatorUpdate {
                accepted: true,
                len,
                mu_b_minus: Some(mu),
                q_b_plus: Some(q),
                ..
            } => {
                if *len < state.est_len {
                    // The estimator was cleared (ladder demotion): its
                    // moment streams restart, so must the detectors.
                    state.ph_mu.reset();
                    state.ph_q.reset();
                }
                state.est_len = *len;
                let mut fired = Vec::new();
                for (ph, input, which, lambda) in [
                    (&mut state.ph_mu, *mu, "mu_b_minus", config.mu_lambda),
                    (&mut state.ph_q, *q, "q_b_plus", config.q_lambda),
                ] {
                    let before = ph.clone();
                    if ph.observe(input) {
                        // A fire resets the detector, consuming the
                        // statistic that crossed λ; re-run the single step
                        // on the pre-observation clone to recover it.
                        let mut at_fire = before;
                        at_fire.n += 1;
                        at_fire.mean += (input - at_fire.mean) / at_fire.n as f64;
                        at_fire.up += input - at_fire.mean - at_fire.delta;
                        at_fire.up_min = at_fire.up_min.min(at_fire.up);
                        at_fire.dn += input - at_fire.mean + at_fire.delta;
                        at_fire.dn_max = at_fire.dn_max.max(at_fire.dn);
                        fired.push((which, lambda, at_fire.statistic(), at_fire.n));
                    }
                }
                for (which, lambda, observed, n) in fired {
                    state.drift_pending = true;
                    state.raise(stop, "drift", which.to_string(), observed, lambda);
                    alarms.push(TraceEvent::MonitorAlarm {
                        alarm: "drift".to_string(),
                        detail: which.to_string(),
                        observed,
                        limit: lambda,
                        window_len: n,
                    });
                }
            }
            TraceEvent::StopDecision {
                vertex, mu_b_minus, q_b_plus, chosen_cost_bound, ..
            } => {
                state.last_vertex = Some(vertex.to_string());
                if let (Some(mu), Some(q)) = (mu_b_minus, q_b_plus) {
                    state.bound_live = true;
                    if let Some(bound) = chosen_cost_bound {
                        let offline = mu + q * config.break_even_s;
                        state.bound_cr = (offline > 0.0).then(|| bound / offline);
                    }
                    if state.stop_window.len() >= config.window {
                        if let Some(expected) = state.windowed_vertex(config.break_even_s) {
                            if expected != vertex.as_ref() {
                                state.mismatch_streak += 1;
                                if state.mismatch_streak >= config.mismatch_streak
                                    && !state.mismatch_latched
                                {
                                    state.mismatch_latched = true;
                                    let detail =
                                        format!("played {vertex}, windowed argmin {expected}");
                                    let observed = state.mismatch_streak as f64;
                                    let limit = config.mismatch_streak as f64;
                                    state.raise(
                                        stop,
                                        "vertex_mismatch",
                                        detail.clone(),
                                        observed,
                                        limit,
                                    );
                                    alarms.push(TraceEvent::MonitorAlarm {
                                        alarm: "vertex_mismatch".to_string(),
                                        detail,
                                        observed,
                                        limit,
                                        window_len: config.window as u64,
                                    });
                                }
                            } else {
                                state.mismatch_streak = 0;
                                state.mismatch_latched = false;
                            }
                        }
                    }
                } else {
                    // Fallback decision (cold start / degraded / untrusted):
                    // no statistics to dispute, and the stale bound no
                    // longer describes the policy in play.
                    state.bound_live = false;
                }
            }
            TraceEvent::StopCost { stop_s, online_s, offline_s, .. } => {
                state.stops += 1;
                state.online_total += online_s;
                state.offline_total += offline_s;
                if state.recent_costs.len() == config.window {
                    state.recent_costs.pop_front();
                }
                state.recent_costs.push_back((*online_s, *offline_s));
                if stop_s.is_finite() {
                    if state.stop_window.len() == config.window {
                        state.stop_window.pop_front();
                    }
                    state.stop_window.push_back(*stop_s);
                }
                if state.recent_costs.len() >= config.window && state.bound_live {
                    if let Some(bound) = state.bound_cr {
                        let (online, offline) = state.windowed_sums();
                        let wcr = realized_cr(online, offline);
                        let limit = bound * (1.0 + config.cr_margin);
                        if wcr > limit && !state.cr_latched {
                            state.cr_latched = true;
                            let detail = "windowed CR above bound".to_string();
                            state.raise(stop, "cr_bound", detail.clone(), wcr, limit);
                            alarms.push(TraceEvent::MonitorAlarm {
                                alarm: "cr_bound".to_string(),
                                detail,
                                observed: wcr,
                                limit,
                                window_len: config.window as u64,
                            });
                        } else if wcr <= bound {
                            // Re-arm only once the window is back under
                            // the bound itself, not just under the margin.
                            state.cr_latched = false;
                        }
                    }
                }
                if config.tail_tau.is_finite() {
                    // Tail-budget detector: windowed estimate of
                    // P(CR > τ) from the per-stop realized ratios. A CR
                    // is never NaN (the ∞-convention maps 0/0 to 1), so
                    // every stop contributes a flag.
                    if state.tail_window.len() == config.window
                        && state.tail_window.pop_front() == Some(true)
                    {
                        state.tail_exceed -= 1;
                    }
                    let exceeds = realized_cr(*online_s, *offline_s) > config.tail_tau;
                    state.tail_window.push_back(exceeds);
                    if exceeds {
                        state.tail_exceed += 1;
                    }
                    if state.tail_window.len() >= config.window {
                        let frac = state.tail_exceed as f64 / state.tail_window.len() as f64;
                        let limit = config.tail_delta * (1.0 + config.tail_margin);
                        if frac > limit && !state.tail_latched {
                            state.tail_latched = true;
                            let detail = format!(
                                "P(CR > {}) over budget {}",
                                config.tail_tau, config.tail_delta
                            );
                            state.raise(stop, "tail_budget", detail, frac, limit);
                            alarms.push(TraceEvent::TailBudgetAlarm {
                                tau: config.tail_tau,
                                delta: config.tail_delta,
                                observed: frac,
                                exceeded: state.tail_exceed as u64,
                                window_len: state.tail_window.len() as u64,
                            });
                        } else if frac <= config.tail_delta {
                            // Re-arm only once the window is back inside
                            // the budget itself, not just under the margin.
                            state.tail_latched = false;
                        }
                    }
                }
            }
            TraceEvent::LadderTransition { to, .. } => {
                state.trust = to.clone();
                state.transitions += 1;
            }
            _ => {}
        }
        alarms
    }

    /// Replays parsed trace records (in order) through the monitor,
    /// returning the alarms it derives as records keyed like their
    /// triggering event. Recorded `monitor_alarm` events in the input are
    /// skipped — replay re-derives them, so replaying a live-monitored
    /// trace reproduces its alarms instead of double-counting them.
    pub fn replay(&self, records: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut alarms = Vec::new();
        for r in records {
            if matches!(
                r.event,
                TraceEvent::MonitorAlarm { .. } | TraceEvent::TailBudgetAlarm { .. }
            ) {
                continue;
            }
            for event in self.observe(r.stream, r.stop, &r.event) {
                alarms.push(TraceRecord { stream: r.stream, stop: r.stop, seq: r.seq, event });
            }
        }
        alarms
    }

    /// Consumes the stream's pending-drift flag: `true` if a drift alarm
    /// fired on `stream` since the last take. The degradation ladder's
    /// optional drift input polls this.
    #[must_use]
    pub fn take_drift(&self, stream: u64) -> bool {
        let shard = &self.shards[(stream % SHARDS as u64) as usize];
        let mut states = shard.lock().unwrap_or_else(PoisonError::into_inner);
        match states.get_mut(&stream) {
            Some(state) => std::mem::take(&mut state.drift_pending),
            None => false,
        }
    }

    /// Snapshots every stream into a [`MonitorReport`] (sorted by stream
    /// id, so the report is deterministic for any thread interleaving).
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        let mut streams = BTreeMap::new();
        for shard in &self.shards {
            let states = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (stream, state) in states.iter() {
                streams.insert(*stream, state.summary());
            }
        }
        MonitorReport { streams }
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new(MonitorConfig::default())
    }
}

static GLOBAL_MONITOR: OnceLock<Monitor> = OnceLock::new();

/// The process-wide monitor. Starts disabled; harness binaries enable it
/// with `--monitor` (see `bench::RunReporter`).
#[must_use]
pub fn global() -> &'static Monitor {
    GLOBAL_MONITOR.get_or_init(Monitor::disabled)
}

/// Whether the global monitor is observing — one relaxed atomic load, the
/// entire cost of a disabled monitor at an instrumentation site.
#[must_use]
pub fn active() -> bool {
    global().is_enabled()
}

/// Consumes the pending-drift flag for the *current thread's* stream (the
/// one bound by `tracer::set_stream`). `false` while the monitor is off.
#[must_use]
pub fn take_drift_pending() -> bool {
    if !active() {
        return false;
    }
    let (stream, _) = crate::tracer::current();
    global().take_drift(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_event(stop_s: f64, online_s: f64, offline_s: f64) -> TraceEvent {
        TraceEvent::StopCost { threshold_b: 1.0, stop_s, online_s, offline_s, restarted: false }
    }

    #[test]
    fn page_hinkley_silent_on_constant_stream() {
        let mut ph = PageHinkley::new(0.0, 1.0);
        for _ in 0..10_000 {
            assert!(!ph.observe(7.25));
        }
        assert_eq!(ph.statistic(), 0.0);
        assert_eq!(ph.len(), 10_000);
        assert!((ph.mean() - 7.25).abs() < 1e-12);
    }

    #[test]
    fn page_hinkley_fires_on_mean_shift_then_rearms() {
        let mut ph = PageHinkley::with_warmup(0.5, 10.0, 5);
        for _ in 0..100 {
            assert!(!ph.observe(5.0));
        }
        let mut fired_at = None;
        for k in 0..100 {
            if ph.observe(10.0) {
                fired_at = Some(k);
                break;
            }
        }
        let k = fired_at.expect("a 5-unit shift must fire");
        assert!(k < 20, "fired late: {k}");
        // After the internal reset the post-shift level is the new normal.
        assert!(ph.is_empty() || ph.len() < 5);
        for _ in 0..200 {
            assert!(!ph.observe(10.0), "constant post-shift level must not re-fire");
        }
    }

    #[test]
    fn page_hinkley_detects_decreases_too() {
        let mut ph = PageHinkley::new(0.1, 5.0);
        for _ in 0..50 {
            let _ = ph.observe(20.0);
        }
        assert!((0..50).any(|_| ph.observe(10.0)), "downward shift must fire");
    }

    #[test]
    fn page_hinkley_ignores_non_finite() {
        let mut ph = PageHinkley::new(0.0, 1.0);
        assert!(!ph.observe(f64::NAN));
        assert!(!ph.observe(f64::INFINITY));
        assert!(ph.is_empty());
    }

    #[test]
    fn vertex_argmin_known_regions() {
        let b = 28.0;
        // All stops short and tiny: DET ≈ μ is cheapest.
        assert_eq!(vertex_argmin(1.0, 0.0, b).0, "DET");
        // All stops long: TOI (cost B) vs DET (2B) vs N-Rand (e/(e−1)·B).
        assert_eq!(vertex_argmin(0.0, 1.0, b).0, "TOI");
        // Mid region where the interior b-DET vertex wins: μ ≪ q·B makes
        // b-DET = μ + q·B + 2√(μ·q·B) beat N-Rand = e/(e−1)·(μ + q·B).
        let (name, cost) = vertex_argmin(1.0, 0.5, b);
        assert_eq!(name, "b-DET");
        assert!((cost - (1.0f64.sqrt() + (0.5f64 * b).sqrt()).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn ledger_matches_offline_recomputation_bitwise() {
        let config = MonitorConfig { window: 4, ..MonitorConfig::default() };
        let m = Monitor::new(config);
        let costs: Vec<(f64, f64, f64)> = (0..20)
            .map(|i| {
                let y = 0.3 + 1.7 * f64::from(i);
                (y, y.min(28.0) + 0.125, y.min(28.0))
            })
            .collect();
        for (stop, &(y, on, off)) in costs.iter().enumerate() {
            let alarms = m.observe(9, stop as u64, &cost_event(y, on, off));
            assert!(alarms.is_empty());
        }
        let report = m.report();
        let s = &report.streams[&9];
        // Offline recomputation, same order, same association.
        let mut online = 0.0;
        let mut offline = 0.0;
        for &(_, on, off) in &costs {
            online += on;
            offline += off;
        }
        assert_eq!(s.online_s.to_bits(), online.to_bits());
        assert_eq!(s.offline_s.to_bits(), offline.to_bits());
        let mut w_on = 0.0;
        let mut w_off = 0.0;
        for &(_, on, off) in &costs[costs.len() - 4..] {
            w_on += on;
            w_off += off;
        }
        assert_eq!(s.windowed_online_s.to_bits(), w_on.to_bits());
        assert_eq!(s.windowed_offline_s.to_bits(), w_off.to_bits());
        assert_eq!(s.cumulative_cr().to_bits(), (online / offline).to_bits());
        assert_eq!(s.stops, 20);
    }

    #[test]
    fn cr_convention_matches_skirental() {
        assert_eq!(realized_cr(0.0, 0.0), 1.0);
        assert_eq!(realized_cr(5.0, 0.0), f64::INFINITY);
        assert!((realized_cr(3.0, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_monitor_observes_nothing() {
        let m = Monitor::disabled();
        assert!(m.observe(0, 0, &cost_event(1.0, 1.0, 1.0)).is_empty());
        assert!(m.report().streams.is_empty());
        m.enable();
        let _ = m.observe(0, 0, &cost_event(1.0, 1.0, 1.0));
        assert_eq!(m.report().streams.len(), 1);
        m.reset();
        assert!(m.report().streams.is_empty());
    }

    #[test]
    fn drift_alarm_fires_and_take_drift_consumes() {
        let config =
            MonitorConfig { warmup: 2, q_delta: 0.01, q_lambda: 0.5, ..MonitorConfig::default() };
        let m = Monitor::new(config);
        let update = |q: f64, len: u64| TraceEvent::EstimatorUpdate {
            observed_s: 1.0,
            accepted: true,
            len,
            mu_b_minus: Some(3.0),
            q_b_plus: Some(q),
        };
        let mut fired = false;
        for i in 0..50u64 {
            fired |= !m.observe(4, i, &update(0.05, i + 1)).is_empty();
        }
        assert!(!fired, "stationary q̂ must stay silent");
        for i in 50..80u64 {
            for event in m.observe(4, i, &update(0.9, i + 1)) {
                match event {
                    TraceEvent::MonitorAlarm { alarm, detail, observed, limit, .. } => {
                        assert_eq!(alarm, "drift");
                        assert_eq!(detail, "q_b_plus");
                        assert!(observed > limit);
                        fired = true;
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        assert!(fired, "a 0.05 → 0.9 q̂ shift must fire");
        assert!(m.take_drift(4), "drift flag pending");
        assert!(!m.take_drift(4), "take consumes the flag");
        assert_eq!(m.report().alarms_of("drift"), m.report().total_alarms());
    }

    #[test]
    fn estimator_reset_restarts_detectors() {
        let m = Monitor::new(MonitorConfig { warmup: 0, ..MonitorConfig::default() });
        let update = |mu: f64, len: u64| TraceEvent::EstimatorUpdate {
            observed_s: 1.0,
            accepted: true,
            len,
            mu_b_minus: Some(mu),
            q_b_plus: Some(0.1),
        };
        for i in 0..30u64 {
            let _ = m.observe(1, i, &update(10.0, i + 1));
        }
        // len drops: the ladder cleared the estimator. A jump in μ̂ right
        // after must be absorbed by the restarted warm-up/mean, not
        // treated as drift against the pre-reset mean.
        let _ = m.observe(1, 30, &update(2.0, 1));
        let s = &m.report().streams[&1];
        assert!(s.mu_stat < 1.0, "post-reset statistic restarted: {}", s.mu_stat);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn config_validation_rejects_empty_window() {
        let _ = MonitorConfig { window: 0, ..MonitorConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "tail_delta must be a fraction")]
    fn config_validation_rejects_zero_tail_delta() {
        let _ = MonitorConfig { tail_delta: 0.0, ..MonitorConfig::default() }.validate();
    }

    #[test]
    fn tail_budget_disabled_by_default() {
        let m = Monitor::new(MonitorConfig { window: 4, ..MonitorConfig::default() });
        for stop in 0..100u64 {
            // Every stop wildly over any finite τ — but τ defaults to +∞.
            let alarms = m.observe(2, stop, &cost_event(1.0, 50.0, 1.0));
            assert!(alarms.is_empty(), "default config must never raise tail alarms");
        }
        assert_eq!(m.report().alarms_of("tail_budget"), 0);
    }

    #[test]
    fn tail_budget_alarm_latches_and_rearms() {
        let config = MonitorConfig {
            window: 10,
            tail_tau: 2.0,
            tail_delta: 0.2,
            tail_margin: 0.5,
            ..MonitorConfig::default()
        };
        let m = Monitor::new(config);
        let good = cost_event(1.0, 1.0, 1.0); // CR 1
        let bad = cost_event(1.0, 5.0, 1.0); // CR 5 > τ
        let mut stop = 0u64;
        let mut drive = |event: &TraceEvent, n: usize, m: &Monitor| {
            let mut fired = Vec::new();
            for _ in 0..n {
                fired.extend(m.observe(7, stop, event));
                stop += 1;
            }
            fired
        };
        // Fill the window clean: no alarm.
        assert!(drive(&good, 10, &m).is_empty());
        // Push exceedances until the fraction crosses δ·(1+margin) = 0.3:
        // 4/10 does it, and the alarm fires exactly once (latched).
        let fired = drive(&bad, 10, &m);
        assert_eq!(fired.len(), 1, "latched alarm must fire once, got {fired:?}");
        match &fired[0] {
            TraceEvent::TailBudgetAlarm { tau, delta, observed, exceeded, window_len } => {
                assert_eq!(*tau, 2.0);
                assert_eq!(*delta, 0.2);
                assert_eq!(*window_len, 10);
                assert_eq!(*exceeded, 4);
                assert!((observed - 0.4).abs() < 1e-12);
            }
            other => panic!("wrong event {other:?}"),
        }
        // Recover: once the window is back at or under δ the latch
        // re-arms, and a second burst fires again.
        assert!(drive(&good, 10, &m).is_empty());
        assert_eq!(drive(&bad, 10, &m).len(), 1, "re-armed detector must fire again");
        assert_eq!(m.report().alarms_of("tail_budget"), 2);
        // Replay of a trace containing the recorded alarms re-derives
        // them instead of double-counting.
        let records = vec![TraceRecord {
            stream: 7,
            stop: 0,
            seq: 0,
            event: TraceEvent::TailBudgetAlarm {
                tau: 2.0,
                delta: 0.2,
                observed: 0.4,
                exceeded: 4,
                window_len: 10,
            },
        }];
        let replayed = Monitor::new(config);
        assert!(replayed.replay(&records).is_empty());
        assert_eq!(replayed.report().total_alarms(), 0);
    }
}
