//! Batched structure-of-arrays decision engine: per-stop decisions for a
//! whole shard of vehicles per call, at memory bandwidth.
//!
//! The per-stop decision of the adaptive controller is a four-vertex
//! argmin over closed-form worst-case costs — embarrassingly
//! data-parallel across vehicles. The scalar path
//! ([`crate::estimator::AdaptiveController`]) walks vehicles one
//! `decide` at a time through a virtual `&mut dyn RngCore`, a span
//! timer, and (when tracing) a per-stop event; this module evaluates a
//! whole shard per call instead:
//!
//! * [`BatchStore`] holds the per-vehicle sufficient statistics
//!   `(n, Σy·1{y<B}, Σy², #{y ≥ B})` as parallel arrays (plus a flat
//!   ring buffer in sliding-window mode), so the decision loop streams
//!   over contiguous memory with no pointer chasing;
//! * [`BatchStore::decide_batch`] computes one threshold per lane in a
//!   flat, allocation-free inner loop: the four vertex costs are
//!   evaluated as straight-line lane arithmetic (the infeasible b-DET
//!   lane is masked with `+∞` rather than branched around) and the
//!   argmin preserves the scalar tie order DET → TOI → b-DET → N-Rand;
//! * [`CounterRng`] is a counter-based per-vehicle generator (SplitMix64
//!   finalizer over `key + ctr·γ`): the kernel computes the next draw as
//!   a pure function of the lane's `(key, ctr)` state and advances the
//!   counter **only when the selected vertex actually consumes a draw**,
//!   which is exactly how the scalar policies consume a `dyn RngCore` —
//!   so batch and scalar paths see identical draws;
//! * [`ShardEngine`] is the block engine, the one decide → settle →
//!   observe loop: it owns a shard's store, RNG streams, and cost
//!   ledgers, and hands every settled stop to a caller-supplied hook.
//!
//! The engine has two callers. [`run_fleet_batch`], the paper-evaluation
//! path, builds one engine per shard per run, runs ragged stragglers
//! lane by lane, and folds each decision into a [`ShardDigest`]. The
//! crash-safe fleet runner (`fleetstate::FleetRunner`, which serves the
//! daemon and recovery) keeps one engine per shard for its lifetime and
//! its hook captures decisions, risk sketches, and per-stop trace events.
//! Both size their fan-out from the work through
//! [`crate::parallel::plan_workers`] and run it through
//! [`crate::parallel::fan_out`].
//!
//! **Bit-identity.** Every floating-point expression in the kernel is
//! copied verbatim from the scalar path (`MomentEstimator::stats`,
//! `ConstrainedStats::vertex_costs`/`b_det_vertex`/`optimal_choice`,
//! `NRand::sample_threshold`, `stopmodel::uniform01`), so a batch run
//! produces bit-for-bit the thresholds, vertex choices, and cost sums of
//! the equivalent per-vehicle [`run_fleet_scalar`] reference — pinned by
//! `tests/batch.rs` across cold start, windowed, min-history, and
//! ladder-handoff regimes, and across 1/2/8 worker threads.
//!
//! **Observability amortization.** The engine records no per-stop
//! metric or span: each shard flushes bulk counters once per run or
//! block ([`ShardEngine::flush`]: `skirental.batch.*` plus the shared
//! `skirental.policy.*` vertex tallies), and when the decision tracer is
//! active [`run_fleet_batch`] emits a single
//! [`obsv::TraceEvent::BatchShardDigest`] per shard instead of per-stop
//! events. With the registry disabled the whole shard costs one relaxed
//! load.

use crate::cost::BreakEven;
use crate::estimator::{realized_cr, AdaptiveController, AdaptiveOutcome};
use crate::obs;
use crate::{e_ratio, Error};
use rand::RngCore;
use std::f64::consts::E;

/// Weyl increment of SplitMix64 (the golden ratio in 2⁻⁶⁴ fixed point).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: bijective avalanche mix of one `u64`.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based random-number generator: the `i`-th output is the
/// SplitMix64 finalizer applied to `key + i·γ`, a pure function of the
/// `(key, ctr)` state.
///
/// Unlike a mutable-state generator, the batch kernel can *peek* the
/// next draw without committing it, then advance the counter only for
/// lanes whose selected vertex consumed randomness — matching how the
/// scalar policies consume a `&mut dyn RngCore` (deterministic vertices
/// draw nothing; N-Rand and the cold start draw exactly one `u64`).
/// It also implements [`rand::RngCore`], so the *same* per-vehicle
/// stream can drive the scalar [`AdaptiveController`] for bit-identity
/// checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
    ctr: u64,
}

impl CounterRng {
    /// A generator for logical stream `stream` (e.g. a global vehicle
    /// index) under `seed`. Two finalizer rounds decorrelate adjacent
    /// stream ids.
    #[must_use]
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        let key = mix64(mix64(seed ^ GOLDEN_GAMMA).wrapping_add(stream.wrapping_mul(GOLDEN_GAMMA)));
        Self { key, ctr: 0 }
    }

    /// The `(key, counter)` state, for diagnostics, state-identity
    /// assertions, and crash-safe persistence.
    #[must_use]
    pub fn state(&self) -> (u64, u64) {
        (self.key, self.ctr)
    }

    /// Reconstructs a generator from a persisted `(key, counter)` pair
    /// (the inverse of [`CounterRng::state`]): the restored generator
    /// produces exactly the draws the original would have from that
    /// point on, which is what makes snapshot-resume bit-identical.
    #[must_use]
    pub fn from_state(key: u64, ctr: u64) -> Self {
        Self { key, ctr }
    }

    /// The output at counter position `ctr` for `key` — the pure
    /// function both the kernel and [`RngCore::next_u64`] evaluate.
    #[inline(always)]
    fn value_at(key: u64, ctr: u64) -> u64 {
        mix64(key.wrapping_add(ctr.wrapping_mul(GOLDEN_GAMMA)))
    }
}

impl RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let v = Self::value_at(self.key, self.ctr);
        self.ctr = self.ctr.wrapping_add(1);
        v
    }
}

/// Which decision the batch kernel made for a lane — the four vertex
/// strategies plus the N-Rand cold start (insufficient history).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum VertexKind {
    /// Fewer than `min_history` observations: distribution-free N-Rand.
    ColdStart = 0,
    /// Deterministic threshold at `B`.
    Det = 1,
    /// Turn off immediately.
    Toi = 2,
    /// Deterministic threshold at `b* = √(μ_B⁻·B/q_B⁺)`.
    BDet = 3,
    /// The e/(e−1) randomized strategy.
    NRand = 4,
}

impl VertexKind {
    /// Short display name matching the paper's legends (cold start
    /// renders as the N-Rand fallback it plays).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ColdStart => "N-Rand",
            Self::Det => "DET",
            Self::Toi => "TOI",
            Self::BDet => "b-DET",
            Self::NRand => "N-Rand",
        }
    }

    /// Decodes the stable discriminant (the `as u8` value) — the form
    /// vertices travel in on the `fleetd` wire and in persisted state.
    #[must_use]
    pub fn from_u8(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::ColdStart),
            1 => Some(Self::Det),
            2 => Some(Self::Toi),
            3 => Some(Self::BDet),
            4 => Some(Self::NRand),
            _ => None,
        }
    }
}

/// Per-vertex decision counts of a shard (or an aggregate over shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VertexTally {
    /// Cold-start (insufficient-history) decisions.
    pub cold_start: u64,
    /// DET decisions.
    pub det: u64,
    /// TOI decisions.
    pub toi: u64,
    /// b-DET decisions.
    pub b_det: u64,
    /// N-Rand decisions (estimator-backed, not cold start).
    pub n_rand: u64,
}

impl VertexTally {
    /// Tallies one decision.
    #[inline]
    pub fn count(&mut self, v: VertexKind) {
        match v {
            VertexKind::ColdStart => self.cold_start += 1,
            VertexKind::Det => self.det += 1,
            VertexKind::Toi => self.toi += 1,
            VertexKind::BDet => self.b_det += 1,
            VertexKind::NRand => self.n_rand += 1,
        }
    }

    /// Total decisions tallied.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cold_start + self.det + self.toi + self.b_det + self.n_rand
    }

    /// Element-wise sum.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            cold_start: self.cold_start + other.cold_start,
            det: self.det + other.det,
            toi: self.toi + other.toi,
            b_det: self.b_det + other.b_det,
            n_rand: self.n_rand + other.n_rand,
        }
    }
}

/// One lane decision: threshold, vertex, and the lane's advanced RNG
/// counter. Returned by the shared kernel so the batched loop and the
/// per-lane straggler path are the same code (and therefore the same
/// floating-point expressions).
#[derive(Debug, Clone, Copy)]
struct LaneDecision {
    threshold: f64,
    vertex: VertexKind,
    ctr: u64,
}

/// The per-lane decision kernel. `#[inline(always)]` so the flat loop in
/// [`BatchStore::decide_batch`] sees straight-line lane arithmetic with
/// no call — the b-DET feasibility conditions reduce to an `+∞` cost
/// mask and the argmin to a chain of compare-selects.
///
/// Every expression mirrors the scalar path bit for bit:
/// `MomentEstimator::stats` (the `μ̂` clamp), `vertex_costs`,
/// `b_det_vertex` (condition (36), `b* ≤ B`), `optimal_choice` (tie
/// order DET → TOI → b-DET → N-Rand with strict `<`), and the policy
/// samplers (`Det → B`, `Toi → 0`, `BDet → b*`, `N-Rand` inverse CDF on
/// one 53-bit uniform draw).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn decide_kernel(
    b: f64,
    min_history: usize,
    n: u32,
    short_sum: f64,
    long_count: u32,
    key: u64,
    ctr: u64,
) -> LaneDecision {
    // The draw at `ctr` is a pure function of (key, ctr), so it is
    // computed only on the arms that consume it (cold start, N-Rand);
    // the deterministic vertices never pay for the hash or the `ln`.
    let nrand_x = || {
        // `stopmodel::uniform01`: top 53 bits of one u64 draw.
        let u = (CounterRng::value_at(key, ctr) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // `NRand::sample_threshold`: x = B·ln(1 + u(e−1)).
        b * (1.0 + u * (E - 1.0)).ln()
    };

    if (n as usize) < min_history {
        return LaneDecision { threshold: nrand_x(), vertex: VertexKind::ColdStart, ctr: ctr + 1 };
    }

    // `MomentEstimator::stats`: plug-in moments with the window-residue
    // clamp.
    let nf = f64::from(n);
    let q = f64::from(long_count) / nf;
    let mu_cap = (1.0 - q) * b;
    let mu = (short_sum / nf).clamp(0.0, mu_cap);

    // `ConstrainedStats::vertex_costs`.
    let offline = mu + q * b;
    let n_rand_cost = e_ratio() * offline;
    let toi_cost = b;
    let det_cost = mu + 2.0 * q * b;

    // `ConstrainedStats::b_det_vertex`, as an ∞-masked lane instead of
    // an Option: infeasible regimes can never win the strict-< argmin.
    let b_star = (mu * b / q).sqrt();
    let b_det_feasible =
        mu > 0.0 && q > 0.0 && q < 1.0 && mu / b < (1.0 - q) * (1.0 - q) / q && b_star <= b;
    let b_det_cost =
        if b_det_feasible { (mu.sqrt() + (q * b).sqrt()).powi(2) } else { f64::INFINITY };

    // `ConstrainedStats::optimal_choice`: tie order DET → TOI → b-DET →
    // N-Rand, strict `<` replacement.
    let mut vertex = VertexKind::Det;
    let mut best_cost = det_cost;
    if toi_cost < best_cost {
        vertex = VertexKind::Toi;
        best_cost = toi_cost;
    }
    if b_det_cost < best_cost {
        vertex = VertexKind::BDet;
        best_cost = b_det_cost;
    }
    if n_rand_cost < best_cost {
        vertex = VertexKind::NRand;
    }

    // Sample: only N-Rand draws (`ProposedPolicy` delegates to the
    // vertex policy, and Det/Toi/BDet ignore the RNG).
    match vertex {
        VertexKind::Det => LaneDecision { threshold: b, vertex, ctr },
        VertexKind::Toi => LaneDecision { threshold: 0.0, vertex, ctr },
        VertexKind::BDet => LaneDecision { threshold: b_star.min(b), vertex, ctr },
        VertexKind::NRand | VertexKind::ColdStart => {
            LaneDecision { threshold: nrand_x(), vertex, ctr: ctr + 1 }
        }
    }
}

/// A full copy of one lane's estimator state, as exported by
/// [`BatchStore::export_lane`] and re-installed by
/// [`BatchStore::restore_lane`] — the unit of crash-safe persistence for
/// the batched engine.
///
/// The ring carries the lane's **entire** window segment (including
/// never-written slots, which are zero from construction), so a
/// restored store is byte-identical to the original in memory, not just
/// behaviorally equivalent: re-exporting and re-encoding it reproduces
/// the same snapshot bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneState {
    /// Observations currently contributing to the estimate.
    pub count: u32,
    /// Running short-stop sum `Σy·1{y<B}` (raw, unclamped).
    pub short_sum: f64,
    /// Running raw second moment `Σy²`.
    pub sum_sq: f64,
    /// Long-stop count `#{y ≥ B}`.
    pub long_count: u32,
    /// Window mode: index of the oldest element in the ring segment
    /// (zero in full-history mode).
    pub head: u32,
    /// Window mode: the lane's full ring segment, oldest slot at
    /// `head` (empty in full-history mode).
    pub ring: Vec<f64>,
}

/// Structure-of-arrays store of per-vehicle estimator state.
///
/// Lane `i` carries the sufficient statistics of vehicle `i` in the
/// shard: observation count `n`, short-stop sum `Σy·1{y<B}`, raw second
/// moment `Σy²` (diagnostics; not used by the decision kernel), long
/// count `#{y ≥ B}`, and — in sliding-window mode — a segment of the
/// flat ring buffer. All arrays are allocated once at construction;
/// observing and deciding never allocate.
#[derive(Debug, Clone)]
pub struct BatchStore {
    break_even: BreakEven,
    window: Option<usize>,
    min_history: usize,
    lanes: usize,
    count: Vec<u32>,
    short_sum: Vec<f64>,
    sum_sq: Vec<f64>,
    long_count: Vec<u32>,
    /// Window mode: lane `i` owns `ring[i·w .. (i+1)·w]`.
    ring: Vec<f64>,
    /// Window mode: index of the oldest element within each lane segment.
    head: Vec<u32>,
}

impl BatchStore {
    /// A store of `lanes` vehicles over their full history.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    #[must_use]
    pub fn new(break_even: BreakEven, lanes: usize) -> Self {
        assert!(lanes > 0, "batch store needs at least one lane");
        Self {
            break_even,
            window: None,
            min_history: 1,
            lanes,
            count: vec![0; lanes],
            short_sum: vec![0.0; lanes],
            sum_sq: vec![0.0; lanes],
            long_count: vec![0; lanes],
            ring: Vec::new(),
            head: Vec::new(),
        }
    }

    /// A store of `lanes` vehicles over a sliding window of the last
    /// `window` stops each.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `window == 0`.
    #[must_use]
    pub fn with_window(break_even: BreakEven, lanes: usize, window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        let mut s = Self::new(break_even, lanes);
        s.window = Some(window);
        s.ring = vec![0.0; lanes * window];
        s.head = vec![0; lanes];
        s
    }

    /// Requires `n` observed stops per lane before trusting the
    /// estimate (before that, N-Rand cold start); returns `self`.
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

    /// Number of lanes (vehicles) in the store.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The sliding window (`None` = full history), as configured.
    #[must_use]
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Stops required per lane before the estimate is trusted.
    #[must_use]
    pub fn required_history(&self) -> usize {
        self.min_history
    }

    /// The break-even interval the store classifies against.
    #[must_use]
    pub fn break_even(&self) -> BreakEven {
        self.break_even
    }

    /// Observations currently contributing to lane `i`'s estimate.
    #[must_use]
    pub fn lane_len(&self, lane: usize) -> usize {
        self.count[lane] as usize
    }

    /// Lane `i`'s raw second moment `Σy²` over the contributing stops
    /// (windowed when the store is windowed). Diagnostics only — the
    /// decision kernel never reads it.
    #[must_use]
    pub fn lane_sum_sq(&self, lane: usize) -> f64 {
        self.sum_sq[lane]
    }

    /// Lane `i`'s plug-in moments `(μ̂_B⁻, q̂_B⁺)`, or `None` before the
    /// first observation. Matches `MomentEstimator::stats` bit for bit.
    #[must_use]
    pub fn lane_moments(&self, lane: usize) -> Option<(f64, f64)> {
        let n = self.count[lane];
        if n == 0 {
            return None;
        }
        let nf = f64::from(n);
        let q = f64::from(self.long_count[lane]) / nf;
        let mu_cap = (1.0 - q) * self.break_even.seconds();
        let mu = (self.short_sum[lane] / nf).clamp(0.0, mu_cap);
        Some((mu, q))
    }

    /// Discards lane `i`'s observed history (window configuration kept),
    /// mirroring `MomentEstimator::clear` — the degradation-ladder
    /// handoff that forgets statistics from an untrusted stream.
    pub fn clear_lane(&mut self, lane: usize) {
        self.count[lane] = 0;
        self.short_sum[lane] = 0.0;
        self.sum_sq[lane] = 0.0;
        self.long_count[lane] = 0;
        if !self.head.is_empty() {
            self.head[lane] = 0;
        }
    }

    /// Exports lane `i`'s complete state for persistence (the inverse of
    /// [`BatchStore::restore_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn export_lane(&self, lane: usize) -> LaneState {
        assert!(lane < self.lanes, "lane {lane} out of range for {} lanes", self.lanes);
        let ring = match self.window {
            Some(w) => self.ring[lane * w..(lane + 1) * w].to_vec(),
            None => Vec::new(),
        };
        LaneState {
            count: self.count[lane],
            short_sum: self.short_sum[lane],
            sum_sq: self.sum_sq[lane],
            long_count: self.long_count[lane],
            head: if self.head.is_empty() { 0 } else { self.head[lane] },
            ring,
        }
    }

    /// Installs a previously exported [`LaneState`] into lane `i`,
    /// validating it against this store's configuration. On success the
    /// lane is byte-identical to the lane [`BatchStore::export_lane`]
    /// read, including unused ring slots.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPersistedState`] if the state's shape or
    /// invariants don't fit this store: ring length differing from the
    /// configured window, count exceeding the window, head out of
    /// range, long count exceeding the observation count, or non-finite
    /// running sums. The lane is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn restore_lane(&mut self, lane: usize, state: &LaneState) -> Result<(), Error> {
        assert!(lane < self.lanes, "lane {lane} out of range for {} lanes", self.lanes);
        match self.window {
            Some(w) => {
                if state.ring.len() != w {
                    return Err(Error::InvalidPersistedState {
                        reason: "ring length differs from the configured window",
                    });
                }
                if state.count as usize > w {
                    return Err(Error::InvalidPersistedState {
                        reason: "observation count exceeds the window",
                    });
                }
                if state.head as usize >= w {
                    return Err(Error::InvalidPersistedState {
                        reason: "ring head outside the window",
                    });
                }
            }
            None => {
                if !state.ring.is_empty() || state.head != 0 {
                    return Err(Error::InvalidPersistedState {
                        reason: "ring state present for a full-history store",
                    });
                }
            }
        }
        if state.long_count > state.count {
            return Err(Error::InvalidPersistedState {
                reason: "long count exceeds observation count",
            });
        }
        if !state.short_sum.is_finite() || !state.sum_sq.is_finite() {
            return Err(Error::InvalidPersistedState { reason: "non-finite running sum" });
        }
        self.count[lane] = state.count;
        self.short_sum[lane] = state.short_sum;
        self.sum_sq[lane] = state.sum_sq;
        self.long_count[lane] = state.long_count;
        if let Some(w) = self.window {
            self.head[lane] = state.head;
            self.ring[lane * w..(lane + 1) * w].copy_from_slice(&state.ring);
        }
        Ok(())
    }

    /// Records one completed stop on lane `i`, mirroring
    /// `MomentEstimator::observe` arithmetic exactly (evict-then-push in
    /// window mode, same add/subtract order on the running sums).
    ///
    /// # Panics
    ///
    /// Panics if `y` is negative or non-finite, or `lane` is out of
    /// range.
    pub fn observe(&mut self, lane: usize, y: f64) {
        assert!(y.is_finite() && y >= 0.0, "stop length must be finite and >= 0, got {y}");
        let b = self.break_even.seconds();
        if let Some(w) = self.window {
            let seg = lane * w;
            if self.count[lane] as usize == w {
                let head = self.head[lane] as usize;
                let front = self.ring[seg + head];
                if front >= b {
                    self.long_count[lane] -= 1;
                } else {
                    self.short_sum[lane] -= front;
                }
                self.sum_sq[lane] -= front * front;
                self.ring[seg + head] = y;
                self.head[lane] = ((head + 1) % w) as u32;
            } else {
                let pos = (self.head[lane] as usize + self.count[lane] as usize) % w;
                self.ring[seg + pos] = y;
                self.count[lane] += 1;
            }
        } else {
            self.count[lane] += 1;
        }
        if y >= b {
            self.long_count[lane] += 1;
        } else {
            self.short_sum[lane] += y;
        }
        self.sum_sq[lane] += y * y;
    }

    /// Records one completed stop per lane (`ys[i]` on lane `i`),
    /// validating shape and values **before** mutating any lane.
    ///
    /// # Errors
    ///
    /// [`Error::ShardShapeMismatch`] if `ys.len() != self.lanes()`;
    /// [`Error::InvalidStop`] (naming the first offender) if any reading
    /// is negative or non-finite — the store is untouched in both cases.
    pub fn observe_batch(&mut self, ys: &[f64]) -> Result<(), Error> {
        if ys.len() != self.lanes {
            return Err(Error::ShardShapeMismatch {
                lanes: self.lanes,
                slot: "observations",
                len: ys.len(),
            });
        }
        for &y in ys {
            if !(y.is_finite() && y >= 0.0) {
                return Err(Error::InvalidStop { bits: y.to_bits() });
            }
        }
        for (lane, &y) in ys.iter().enumerate() {
            self.observe(lane, y);
        }
        Ok(())
    }

    /// Decides one lane — the shared kernel, for stragglers of ragged
    /// shards. Identical expressions (and therefore bits) to the batched
    /// loop.
    #[must_use]
    pub fn decide_lane(&self, lane: usize, rng: &mut CounterRng) -> (f64, VertexKind) {
        let d = decide_kernel(
            self.break_even.seconds(),
            self.min_history,
            self.count[lane],
            self.short_sum[lane],
            self.long_count[lane],
            rng.key,
            rng.ctr,
        );
        rng.ctr = d.ctr;
        (d.threshold, d.vertex)
    }

    /// Decides every lane in one flat pass: `thresholds[i]` and
    /// `vertices[i]` receive lane `i`'s decision, `rngs[i]` advances by
    /// exactly the number of draws the scalar policy would consume
    /// (1 for N-Rand / cold start, 0 for the deterministic vertices).
    ///
    /// Zero allocation, no per-lane calls, no metric or trace writes —
    /// callers flush observability per shard.
    ///
    /// # Errors
    ///
    /// [`Error::ShardShapeMismatch`] naming the first slice whose length
    /// differs from [`BatchStore::lanes`]; no lane is decided and no RNG
    /// advanced.
    pub fn decide_batch(
        &self,
        rngs: &mut [CounterRng],
        thresholds: &mut [f64],
        vertices: &mut [VertexKind],
    ) -> Result<(), Error> {
        if rngs.len() != self.lanes {
            return Err(Error::ShardShapeMismatch {
                lanes: self.lanes,
                slot: "rngs",
                len: rngs.len(),
            });
        }
        if thresholds.len() != self.lanes {
            return Err(Error::ShardShapeMismatch {
                lanes: self.lanes,
                slot: "thresholds",
                len: thresholds.len(),
            });
        }
        if vertices.len() != self.lanes {
            return Err(Error::ShardShapeMismatch {
                lanes: self.lanes,
                slot: "vertices",
                len: vertices.len(),
            });
        }
        let b = self.break_even.seconds();
        let min_history = self.min_history;
        // Flat zipped loop over the parallel arrays: no bounds checks,
        // no indirection — the kernel inlines to lane arithmetic.
        for ((((&n, &short_sum), &long_count), rng), (threshold, vertex)) in self
            .count
            .iter()
            .zip(&self.short_sum)
            .zip(&self.long_count)
            .zip(rngs.iter_mut())
            .zip(thresholds.iter_mut().zip(vertices.iter_mut()))
        {
            let d = decide_kernel(b, min_history, n, short_sum, long_count, rng.key, rng.ctr);
            *threshold = d.threshold;
            *vertex = d.vertex;
            rng.ctr = d.ctr;
        }
        Ok(())
    }
}

/// The canonical contiguous shard layout of a fleet: `ceil(n / shards)`
/// lanes per shard, the layout [`crate::parallel::try_shard_map`] uses
/// for the same shard count. The crash-safe fleet runner partitions its
/// lanes through this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    lanes: usize,
    shard_size: usize,
}

impl ShardPlan {
    /// Plans `lanes` lanes over at most `max_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `max_shards == 0`.
    #[must_use]
    pub fn new(lanes: usize, max_shards: usize) -> Self {
        assert!(lanes > 0, "shard plan needs at least one lane");
        assert!(max_shards > 0, "shard plan needs at least one shard");
        Self { lanes, shard_size: lanes.div_ceil(max_shards) }
    }

    /// `(base, len)` of every shard, in lane order. Bases are global
    /// lane indices; the `len`s sum to the planned lanes.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.lanes)
            .step_by(self.shard_size)
            .map(move |base| (base, self.shard_size.min(self.lanes - base)))
    }
}

/// Configuration of a batched (or scalar-reference) adaptive fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Sliding window per vehicle (`None` = full history).
    pub window: Option<usize>,
    /// Stops required before trusting the estimate (N-Rand before).
    pub min_history: usize,
    /// Seed of the per-vehicle counter RNG streams (keyed by *global*
    /// vehicle index, so results are independent of shard boundaries).
    pub seed: u64,
    /// Base stream id for per-shard trace digests when the decision
    /// tracer is active.
    pub trace_stream_base: u64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { window: None, min_history: 1, seed: 0, trace_stream_base: 0 }
    }
}

/// Per-shard summary of a batched fleet run: decision counts by vertex
/// and an order-sensitive FNV-1a digest of every `(threshold bits,
/// vertex)` pair the shard produced. Two runs of the same shard with the
/// same config hash identically; any single-bit threshold drift changes
/// the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDigest {
    /// Global index of the shard's first vehicle.
    pub base: usize,
    /// Vehicles in the shard.
    pub vehicles: usize,
    /// Total decisions made.
    pub decisions: u64,
    /// FNV-1a over `(threshold.to_bits(), vertex)` in decision order.
    pub threshold_hash: u64,
    /// Decision counts by vertex.
    pub tally: VertexTally,
}

/// Result of a batched adaptive fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBatchReport {
    /// Per-vehicle outcomes, in input order — bit-identical to the
    /// scalar reference ([`run_fleet_scalar`]) for any thread count.
    pub outcomes: Vec<AdaptiveOutcome>,
    /// Per-shard digests (shard layout depends on the thread count and
    /// the fleet's size; the aggregate
    /// [`FleetBatchReport::vertex_totals`] does not).
    pub digests: Vec<ShardDigest>,
}

impl FleetBatchReport {
    /// Total decisions across all shards.
    #[must_use]
    pub fn total_decisions(&self) -> u64 {
        self.digests.iter().map(|d| d.decisions).sum()
    }

    /// Vertex decision counts aggregated over shards — independent of
    /// the shard layout, so comparable across thread counts.
    #[must_use]
    pub fn vertex_totals(&self) -> VertexTally {
        self.digests.iter().fold(VertexTally::default(), |acc, d| acc.merged(&d.tally))
    }

    /// Fleet-aggregate realized CR: total online cost over total
    /// offline cost (same degenerate-zero convention as
    /// [`realized_cr`]).
    #[must_use]
    pub fn fleet_cr(&self) -> f64 {
        let online: f64 = self.outcomes.iter().map(|o| o.online_cost).sum();
        let offline: f64 = self.outcomes.iter().map(|o| o.offline_cost).sum();
        realized_cr(online, offline)
    }

    /// Largest per-vehicle realized CR.
    #[must_use]
    pub fn worst_cr(&self) -> f64 {
        self.outcomes.iter().map(|o| o.cr).fold(1.0, f64::max)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline(always)]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One decided and settled stop, handed to the caller's hook after
/// [`ShardEngine`] has charged both ledgers and observed the stop.
#[derive(Debug, Clone, Copy)]
pub struct Settled {
    /// Shard-local lane index.
    pub lane: usize,
    /// The stop's duration (seconds).
    pub stop: f64,
    /// The threshold played (seconds).
    pub threshold: f64,
    /// The vertex that chose the threshold.
    pub vertex: VertexKind,
    /// Online cost charged for the stop.
    pub online: f64,
    /// Offline (hindsight-optimal) cost of the stop.
    pub offline: f64,
}

/// The block engine: one contiguous shard of the fleet with its
/// estimator store, per-lane RNG streams, decision scratch, and cost
/// ledgers. Each step decides, settles both costs, observes the stop,
/// and hands the [`Settled`] stop to the caller's hook. RNG streams are
/// keyed by *global* lane index (`base + i`), so results are
/// independent of the shard layout.
#[derive(Debug)]
pub struct ShardEngine {
    base: usize,
    store: BatchStore,
    rngs: Vec<CounterRng>,
    thresholds: Vec<f64>,
    vertices: Vec<VertexKind>,
    online: Vec<f64>,
    offline: Vec<f64>,
    /// Decisions since the last [`ShardEngine::flush`].
    tally: VertexTally,
}

impl ShardEngine {
    /// A cold-start shard of `lanes` lanes whose first lane is global
    /// lane `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, `cfg.window == Some(0)`, or
    /// `cfg.min_history == 0`.
    #[must_use]
    pub fn new(break_even: BreakEven, cfg: &BatchConfig, base: usize, lanes: usize) -> Self {
        let store = match cfg.window {
            Some(w) => BatchStore::with_window(break_even, lanes, w),
            None => BatchStore::new(break_even, lanes),
        }
        .min_history(cfg.min_history);
        Self {
            base,
            store,
            rngs: (0..lanes).map(|i| CounterRng::for_stream(cfg.seed, (base + i) as u64)).collect(),
            thresholds: vec![0.0; lanes],
            vertices: vec![VertexKind::ColdStart; lanes],
            online: vec![0.0; lanes],
            offline: vec![0.0; lanes],
            tally: VertexTally::default(),
        }
    }

    /// Global index of the shard's first lane.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Lanes in the shard.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.rngs.len()
    }

    /// Decides and settles one step for every lane: `stop(i)` is lane
    /// `i`'s stop duration, and `hook` sees each settled stop in lane
    /// order. Let `stop` capture its slices by value (`move`): a
    /// captured reference is reloaded after every observe.
    ///
    /// # Errors
    ///
    /// Never in practice: the engine sizes its own decision buffers, so
    /// the kernel's shape check cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if a stop is negative or non-finite.
    #[inline]
    pub fn step(
        &mut self,
        stop: impl Fn(usize) -> f64,
        mut hook: impl FnMut(Settled),
    ) -> Result<(), Error> {
        self.store.decide_batch(&mut self.rngs, &mut self.thresholds, &mut self.vertices)?;
        // Tallied in a local: engines of concurrent shards sit side by
        // side in their owner's `Vec`, and a per-stop write to the
        // engine itself would bounce that cache line between threads.
        let mut tally = self.tally;
        for lane in 0..self.lanes() {
            let (x, v) = (self.thresholds[lane], self.vertices[lane]);
            tally.count(v);
            hook(self.settle(lane, stop(lane), x, v));
        }
        self.tally = tally;
        Ok(())
    }

    /// Decides and settles one step of lane `lane` alone: a straggler
    /// of a ragged shard whose other lanes have run out of stops.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `stop` is negative or
    /// non-finite.
    #[inline]
    pub fn step_lane(&mut self, lane: usize, stop: f64, hook: impl FnOnce(Settled)) {
        let (x, v) = self.store.decide_lane(lane, &mut self.rngs[lane]);
        self.tally.count(v);
        hook(self.settle(lane, stop, x, v));
    }

    /// The per-stop settle rule, shared by both step kinds: charges
    /// both ledgers and observes the stop.
    #[inline(always)]
    fn settle(&mut self, lane: usize, y: f64, x: f64, v: VertexKind) -> Settled {
        // Same cost expression as `AdaptiveController::run` (the batch
        // vertices never draw an infinite threshold, but keeping the
        // guard keeps the expression — and its FP result — identical).
        let online = if x.is_infinite() { y } else { self.store.break_even.online_cost(x, y) };
        let offline = self.store.break_even.offline_cost(y);
        self.online[lane] += online;
        self.offline[lane] += offline;
        self.store.observe(lane, y);
        Settled { lane, stop: y, threshold: x, vertex: v, online, offline }
    }

    /// Flushes the decisions since the last flush to the
    /// `skirental.batch.*` and `skirental.policy.*` counters as one
    /// shard, and returns their vertex tally. Callers flush once per
    /// block, so a dashboard counts one shard per shard and block.
    pub fn flush(&mut self) -> VertexTally {
        let tally = std::mem::take(&mut self.tally);
        obs::metrics().flush_batch_shard(self.lanes() as u64, &tally);
        tally
    }

    /// Lane `lane`'s `(online, offline)` cost ledger.
    #[must_use]
    pub fn ledger(&self, lane: usize) -> (f64, f64) {
        (self.online[lane], self.offline[lane])
    }

    /// Lane `lane`'s estimator state and RNG stream position; with
    /// [`ShardEngine::ledger`], all of the lane's state.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn export_lane(&self, lane: usize) -> (LaneState, CounterRng) {
        (self.store.export_lane(lane), self.rngs[lane])
    }

    /// Installs a lane previously read with [`ShardEngine::export_lane`]
    /// and [`ShardEngine::ledger`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPersistedState`] if `state` does not fit this
    /// shard's configuration (see [`BatchStore::restore_lane`]); the
    /// lane is untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn restore_lane(
        &mut self,
        lane: usize,
        state: &LaneState,
        rng: CounterRng,
        ledger: (f64, f64),
    ) -> Result<(), Error> {
        self.store.restore_lane(lane, state)?;
        self.rngs[lane] = rng;
        (self.online[lane], self.offline[lane]) = ledger;
        Ok(())
    }
}

/// One shard's worth of work for [`run_fleet_batch`]: the shard's
/// vehicles through a [`ShardEngine`] time-major, folding every decision
/// into the shard digest, then one metrics flush and (optionally) one
/// trace digest.
fn process_shard(
    base: usize,
    shard: &[Vec<f64>],
    break_even: BreakEven,
    cfg: &BatchConfig,
) -> Result<(Vec<AdaptiveOutcome>, ShardDigest), Error> {
    let lanes = shard.len();
    let mut engine = ShardEngine::new(break_even, cfg, base, lanes);
    let mut hash = FNV_OFFSET;
    let mut fold = |s: Settled| {
        hash = fnv1a(hash, &s.threshold.to_bits().to_le_bytes());
        hash = fnv1a(hash, &[s.vertex as u8]);
    };

    // Every lane is live for the common prefix; stragglers of ragged
    // shards run one lane at a time through the same kernel.
    let common_len = shard.iter().map(Vec::len).min().unwrap_or(0);
    let max_len = shard.iter().map(Vec::len).max().unwrap_or(0);
    // `t` indexes the ragged per-lane traces, which an iterator over
    // `shard` can't express.
    #[allow(clippy::needless_range_loop)]
    for t in 0..common_len {
        engine.step(move |lane| shard[lane][t], &mut fold)?;
    }
    for t in common_len..max_len {
        for (lane, stops) in shard.iter().enumerate() {
            if let Some(&y) = stops.get(t) {
                engine.step_lane(lane, y, &mut fold);
            }
        }
    }
    let tally = engine.flush();

    let m = obs::metrics();
    let outcomes: Vec<AdaptiveOutcome> = (0..lanes)
        .map(|i| {
            let (online_cost, offline_cost) = engine.ledger(i);
            let cr = realized_cr(online_cost, offline_cost);
            m.record_cr(cr);
            AdaptiveOutcome { online_cost, offline_cost, cr, stops: shard[i].len() }
        })
        .collect();

    let digest = ShardDigest {
        base,
        vehicles: lanes,
        decisions: tally.total(),
        threshold_hash: hash,
        tally,
    };
    if obsv::tracer::observing() {
        obsv::tracer::set_stream(cfg.trace_stream_base + base as u64);
        obsv::tracer::emit(obsv::TraceEvent::BatchShardDigest {
            shard: base as u64,
            vehicles: lanes as u64,
            decisions: digest.decisions,
            threshold_hash: digest.threshold_hash,
            cold_start: tally.cold_start,
            det: tally.det,
            toi: tally.toi,
            b_det: tally.b_det,
            n_rand: tally.n_rand,
        });
    }
    Ok((outcomes, digest))
}

/// Runs the honest adaptive online loop over a whole fleet through the
/// batched engine: vehicles are sharded contiguously across at most
/// `threads` workers ([`crate::parallel::try_shard_map`]), each shard
/// runs time-major through a [`ShardEngine`], and observability is
/// flushed once per shard. `threads` is a cap: the fleet's total stop
/// count sizes the worker count through
/// [`crate::parallel::plan_workers`], so a small fleet runs on the
/// calling thread alone.
///
/// Per-vehicle outcomes are **bit-identical** to [`run_fleet_scalar`]
/// with the same config, for any thread count: the per-vehicle RNG
/// streams are keyed by global vehicle index and each lane's estimator
/// state and cost ledger evolve independently of shard boundaries.
///
/// # Errors
///
/// [`Error::EmptyTrace`] if the fleet is empty or any vehicle's trace
/// is.
///
/// # Panics
///
/// Panics if `threads == 0` or a stop length is negative or non-finite
/// (matching the scalar controller's contract).
pub fn run_fleet_batch(
    vehicle_stops: &[Vec<f64>],
    break_even: BreakEven,
    cfg: &BatchConfig,
    threads: usize,
) -> Result<FleetBatchReport, Error> {
    assert!(threads > 0, "need at least one thread");
    if vehicle_stops.is_empty() || vehicle_stops.iter().any(Vec::is_empty) {
        return Err(Error::EmptyTrace);
    }
    let stops = vehicle_stops.iter().map(Vec::len).sum();
    let workers = crate::parallel::plan_workers(vehicle_stops.len(), stops, threads);
    let shards = crate::parallel::try_shard_map(vehicle_stops, workers, |base, shard| {
        process_shard(base, shard, break_even, cfg)
    })?;
    let mut outcomes = Vec::with_capacity(vehicle_stops.len());
    let mut digests = Vec::with_capacity(shards.len());
    for (shard_outcomes, digest) in shards {
        outcomes.extend(shard_outcomes);
        digests.push(digest);
    }
    Ok(FleetBatchReport { outcomes, digests })
}

/// The scalar reference for [`run_fleet_batch`]: one
/// [`AdaptiveController`] per vehicle, driven serially through the
/// `&mut dyn RngCore` path with the *same* per-vehicle [`CounterRng`]
/// streams. Exists so tests, benches, and the perf gate can compare the
/// batch engine against the exact per-vehicle semantics it replaces.
///
/// # Errors
///
/// [`Error::EmptyTrace`] if the fleet is empty or any vehicle's trace
/// is.
pub fn run_fleet_scalar(
    vehicle_stops: &[Vec<f64>],
    break_even: BreakEven,
    cfg: &BatchConfig,
) -> Result<Vec<AdaptiveOutcome>, Error> {
    if vehicle_stops.is_empty() {
        return Err(Error::EmptyTrace);
    }
    let mut outcomes = Vec::with_capacity(vehicle_stops.len());
    for (i, stops) in vehicle_stops.iter().enumerate() {
        let mut ctl = match cfg.window {
            Some(w) => AdaptiveController::with_window(break_even, w),
            None => AdaptiveController::new(break_even),
        }
        .min_history(cfg.min_history);
        let mut rng = CounterRng::for_stream(cfg.seed, i as u64);
        outcomes.push(ctl.run(stops, &mut rng)?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{AdaptiveController, MomentEstimator};

    fn b28() -> BreakEven {
        BreakEven::new(28.0).unwrap()
    }

    #[test]
    fn shard_plan_covers_every_lane_once() {
        for lanes in [1usize, 2, 7, 96, 100, 4096] {
            for shards in [1usize, 2, 3, 8, 64, 200] {
                let ranges: Vec<_> = ShardPlan::new(lanes, shards).ranges().collect();
                assert!(ranges.len() <= shards.min(lanes));
                let mut next = 0usize;
                for (base, len) in ranges {
                    assert_eq!(base, next);
                    assert!(len > 0);
                    next = base + len;
                }
                assert_eq!(next, lanes);
            }
        }
    }

    #[test]
    fn shard_plan_matches_try_shard_map_layout() {
        // The plan must agree with the layout `run_fleet_batch` gets from
        // `parallel::try_shard_map`, or external drivers would disagree
        // with the engine about shard membership.
        let items: Vec<usize> = (0..37).collect();
        for threads in [1usize, 2, 4, 7, 16] {
            let plan = ShardPlan::new(items.len(), threads);
            let observed: Vec<(usize, usize)> =
                crate::parallel::try_shard_map(&items, threads, |base, shard| {
                    Ok::<_, Error>((base, shard.len()))
                })
                .unwrap();
            assert_eq!(plan.ranges().collect::<Vec<_>>(), observed);
        }
    }

    #[test]
    fn counter_rng_matches_its_pure_function() {
        let mut rng = CounterRng::for_stream(7, 3);
        let (key, _) = rng.state();
        for i in 0..100 {
            assert_eq!(rng.next_u64(), CounterRng::value_at(key, i));
        }
        assert_eq!(rng.state(), (key, 100));
    }

    #[test]
    fn counter_rng_streams_differ() {
        let a: Vec<u64> = {
            let mut r = CounterRng::for_stream(1, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = CounterRng::for_stream(1, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn store_moments_match_scalar_estimator() {
        let stops = [3.0, 40.0, 7.0, 28.0, 12.0, 100.0, 0.5];
        for window in [None, Some(3), Some(5)] {
            let mut est = match window {
                Some(w) => MomentEstimator::with_window(b28(), w),
                None => MomentEstimator::new(b28()),
            };
            let mut store = match window {
                Some(w) => BatchStore::with_window(b28(), 2, w),
                None => BatchStore::new(b28(), 2),
            };
            for &y in &stops {
                est.observe(y);
                store.observe(0, y);
            }
            let s = est.stats().unwrap();
            let (mu, q) = store.lane_moments(0).unwrap();
            assert_eq!(mu.to_bits(), s.moments().mu_b_minus.to_bits(), "window {window:?}");
            assert_eq!(q.to_bits(), s.moments().q_b_plus.to_bits(), "window {window:?}");
            assert_eq!(store.lane_len(0), est.len());
            // The untouched lane stays empty.
            assert!(store.lane_moments(1).is_none());
        }
    }

    #[test]
    fn decide_batch_rejects_mismatched_shapes() {
        let store = BatchStore::new(b28(), 3);
        let mut rngs: Vec<CounterRng> = (0..3).map(|i| CounterRng::for_stream(0, i)).collect();
        let mut short_rngs = rngs.clone();
        short_rngs.pop();
        let mut thresholds = vec![0.0; 3];
        let mut vertices = vec![VertexKind::ColdStart; 3];

        let err = store.decide_batch(&mut short_rngs, &mut thresholds, &mut vertices).unwrap_err();
        assert_eq!(err, Error::ShardShapeMismatch { lanes: 3, slot: "rngs", len: 2 });

        let mut short_thresholds = vec![0.0; 2];
        let err = store.decide_batch(&mut rngs, &mut short_thresholds, &mut vertices).unwrap_err();
        assert_eq!(err, Error::ShardShapeMismatch { lanes: 3, slot: "thresholds", len: 2 });
        // Rejected calls must not advance any RNG.
        assert!(rngs.iter().all(|r| r.state().1 == 0));

        let mut short_vertices = vec![VertexKind::ColdStart; 4];
        let err = store.decide_batch(&mut rngs, &mut thresholds, &mut short_vertices).unwrap_err();
        assert_eq!(err, Error::ShardShapeMismatch { lanes: 3, slot: "vertices", len: 4 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn observe_batch_validates_before_mutating() {
        let mut store = BatchStore::new(b28(), 2);
        assert_eq!(
            store.observe_batch(&[1.0]),
            Err(Error::ShardShapeMismatch { lanes: 2, slot: "observations", len: 1 })
        );
        assert_eq!(
            store.observe_batch(&[1.0, f64::NAN]),
            Err(Error::InvalidStop { bits: f64::NAN.to_bits() })
        );
        // Nothing entered either lane.
        assert_eq!(store.lane_len(0), 0);
        assert_eq!(store.lane_len(1), 0);
        store.observe_batch(&[1.0, 50.0]).unwrap();
        assert_eq!(store.lane_len(0), 1);
        let (mu, q) = store.lane_moments(1).unwrap();
        assert_eq!(mu, 0.0);
        assert_eq!(q, 1.0);
    }

    #[test]
    fn cold_start_consumes_exactly_one_draw() {
        let store = BatchStore::new(b28(), 1).min_history(5);
        let mut rng = CounterRng::for_stream(9, 0);
        let (x, v) = store.decide_lane(0, &mut rng);
        assert_eq!(v, VertexKind::ColdStart);
        assert!((0.0..=28.0).contains(&x));
        assert_eq!(rng.state().1, 1);
    }

    #[test]
    fn deterministic_vertices_consume_no_draws() {
        // All-long history → TOI; threshold 0, RNG untouched.
        let mut store = BatchStore::new(b28(), 1);
        for _ in 0..10 {
            store.observe(0, 500.0);
        }
        let mut rng = CounterRng::for_stream(2, 0);
        let (x, v) = store.decide_lane(0, &mut rng);
        assert_eq!(v, VertexKind::Toi);
        assert_eq!(x, 0.0);
        assert_eq!(rng.state().1, 0);
    }

    /// One lane's history per vertex (B = 28 s, min history 3): empty
    /// (cold start), all short, all long, one long in ten with tiny
    /// shorts (b-DET's regime), and two long in ten with μ̂ ≈ 0.1·B.
    fn vertex_histories() -> [(VertexKind, Vec<f64>); 5] {
        let mixed = |long: usize, short: f64| {
            let mut h = vec![100.0; long];
            h.extend(std::iter::repeat(short).take(10 - long));
            h
        };
        [
            (VertexKind::ColdStart, Vec::new()),
            (VertexKind::Det, vec![5.0; 4]),
            (VertexKind::Toi, vec![100.0; 4]),
            (VertexKind::BDet, mixed(1, 0.05)),
            (VertexKind::NRand, mixed(2, 3.5)),
        ]
    }

    #[test]
    fn only_drawing_vertices_advance_the_counter() {
        let histories = vertex_histories();
        let mut store = BatchStore::new(b28(), histories.len()).min_history(3);
        for (lane, (_, h)) in histories.iter().enumerate() {
            for &y in h {
                store.observe(lane, y);
            }
        }
        let start: Vec<CounterRng> =
            (0..histories.len()).map(|i| CounterRng::from_state(0xABCD + i as u64, 40)).collect();
        let mut rngs = start.clone();
        let mut thresholds = vec![0.0; histories.len()];
        let mut vertices = vec![VertexKind::ColdStart; histories.len()];
        store.decide_batch(&mut rngs, &mut thresholds, &mut vertices).unwrap();
        for (lane, (want, _)) in histories.iter().enumerate() {
            let draws = u64::from(matches!(want, VertexKind::ColdStart | VertexKind::NRand));
            assert_eq!(vertices[lane], *want, "lane {lane}");
            assert_eq!(rngs[lane].state().1, start[lane].state().1 + draws, "{want:?}");
            // The straggler path agrees on threshold, vertex and counter.
            let mut rng = start[lane];
            let (x, v) = store.decide_lane(lane, &mut rng);
            assert_eq!((x.to_bits(), v), (thresholds[lane].to_bits(), vertices[lane]));
            assert_eq!(rng.state(), rngs[lane].state());
        }
        assert_eq!(thresholds[1], 28.0);
        assert_eq!(thresholds[2], 0.0);
    }

    #[test]
    fn n_rand_after_a_toi_run_draws_what_the_scalar_controller_draws() {
        // Cold start, a run of TOI on all-long stops, then short stops
        // walk the window into N-Rand: every threshold and RNG position
        // must match the scalar controller in lockstep.
        let mut stops = vec![100.0; 3 + 12];
        stops.extend([3.5; 6]);
        let mut ctl = AdaptiveController::with_window(b28(), 5).min_history(3);
        let mut store = BatchStore::with_window(b28(), 1, 5).min_history(3);
        let mut scalar_rng = CounterRng::for_stream(9, 0);
        let mut batch_rng = CounterRng::for_stream(9, 0);
        let mut seen = Vec::new();
        for &y in &stops {
            let xs = ctl.decide(&mut scalar_rng);
            let (xb, v) = store.decide_lane(0, &mut batch_rng);
            assert_eq!(xs.to_bits(), xb.to_bits(), "{v:?} after {seen:?}");
            assert_eq!(scalar_rng.state(), batch_rng.state());
            seen.push(v);
            ctl.observe(y);
            store.observe(0, y);
        }
        let first_nrand = seen.iter().position(|&v| v == VertexKind::NRand).unwrap();
        assert!(seen[3..15].iter().all(|&v| v == VertexKind::Toi), "{seen:?}");
        assert!(first_nrand > 15, "{seen:?}");
        // Three cold-start draws, none since, until N-Rand's own.
        assert_eq!(
            batch_rng.state().1,
            3 + seen[15..].iter().filter(|&&v| v == VertexKind::NRand).count() as u64
        );
    }

    #[test]
    fn clear_lane_returns_to_cold_start() {
        let mut store = BatchStore::with_window(b28(), 2, 4);
        for _ in 0..6 {
            store.observe(0, 500.0);
        }
        store.clear_lane(0);
        assert_eq!(store.lane_len(0), 0);
        assert!(store.lane_moments(0).is_none());
        assert_eq!(store.lane_sum_sq(0), 0.0);
        let mut rng = CounterRng::for_stream(3, 0);
        let (_, v) = store.decide_lane(0, &mut rng);
        assert_eq!(v, VertexKind::ColdStart);
        // Refill behaves like a fresh lane.
        store.observe(0, 2.0);
        assert_eq!(store.lane_moments(0), Some((2.0, 0.0)));
    }

    #[test]
    fn sum_sq_tracks_window() {
        let mut store = BatchStore::with_window(b28(), 1, 2);
        store.observe(0, 3.0);
        store.observe(0, 4.0);
        assert_eq!(store.lane_sum_sq(0), 25.0);
        store.observe(0, 5.0); // evicts the 3
        assert_eq!(store.lane_sum_sq(0), 41.0);
    }

    #[test]
    fn fleet_batch_matches_scalar_bitwise() {
        // Mixed-regime traces: short, long, and alternating stops with
        // ragged lengths.
        let fleet: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                let mut r = CounterRng::for_stream(77, i as u64);
                (0..(40 + 17 * i))
                    .map(|_| {
                        let u = (r.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                        if u < 0.3 {
                            40.0 + 100.0 * u
                        } else {
                            30.0 * u
                        }
                    })
                    .collect()
            })
            .collect();
        for cfg in [
            BatchConfig::default(),
            BatchConfig { window: Some(10), min_history: 3, seed: 5, trace_stream_base: 0 },
        ] {
            let scalar = run_fleet_scalar(&fleet, b28(), &cfg).unwrap();
            for threads in [1, 2, 8] {
                let batch = run_fleet_batch(&fleet, b28(), &cfg, threads).unwrap();
                assert_eq!(batch.outcomes.len(), scalar.len());
                for (got, want) in batch.outcomes.iter().zip(&scalar) {
                    assert_eq!(got.online_cost.to_bits(), want.online_cost.to_bits());
                    assert_eq!(got.offline_cost.to_bits(), want.offline_cost.to_bits());
                    assert_eq!(got.cr.to_bits(), want.cr.to_bits());
                    assert_eq!(got.stops, want.stops);
                }
                assert_eq!(
                    batch.total_decisions(),
                    fleet.iter().map(Vec::len).sum::<usize>() as u64
                );
            }
        }
    }

    #[test]
    fn vertex_totals_shard_layout_independent() {
        let fleet: Vec<Vec<f64>> =
            (0..16).map(|i| (0..50).map(|t| ((i * 53 + t * 7) % 90) as f64).collect()).collect();
        let cfg = BatchConfig { window: Some(20), ..BatchConfig::default() };
        let one = run_fleet_batch(&fleet, b28(), &cfg, 1).unwrap();
        let eight = run_fleet_batch(&fleet, b28(), &cfg, 8).unwrap();
        assert_eq!(one.vertex_totals(), eight.vertex_totals());
        assert_eq!(one.fleet_cr().to_bits(), eight.fleet_cr().to_bits());
        assert_eq!(one.worst_cr().to_bits(), eight.worst_cr().to_bits());
    }

    #[test]
    fn fleet_batch_rejects_empty() {
        let cfg = BatchConfig::default();
        assert_eq!(run_fleet_batch(&[], b28(), &cfg, 2), Err(Error::EmptyTrace));
        assert_eq!(run_fleet_batch(&[vec![1.0], vec![]], b28(), &cfg, 2), Err(Error::EmptyTrace));
        assert!(run_fleet_scalar(&[], b28(), &cfg).is_err());
    }

    #[test]
    fn lane_roundtrip_is_lossless() {
        let mut store = BatchStore::with_window(b28(), 2, 4).min_history(2);
        for &y in &[3.0, 50.0, 7.0, 28.0, 12.0, 100.0] {
            store.observe(0, y);
        }
        let state = store.export_lane(0);
        let mut fresh = BatchStore::with_window(b28(), 2, 4).min_history(2);
        fresh.restore_lane(0, &state).unwrap();
        assert_eq!(fresh.export_lane(0), state);
        assert_eq!(fresh.lane_moments(0), store.lane_moments(0));
        // Identical decisions and future evolution after restore.
        let mut a = CounterRng::for_stream(11, 0);
        let mut b = CounterRng::for_stream(11, 0);
        assert_eq!(store.decide_lane(0, &mut a), fresh.decide_lane(0, &mut b));
        store.observe(0, 9.0);
        fresh.observe(0, 9.0);
        assert_eq!(store.export_lane(0), fresh.export_lane(0));
    }

    #[test]
    fn restore_lane_rejects_invalid_states() {
        let mut store = BatchStore::with_window(b28(), 1, 4);
        let good = store.export_lane(0);
        let cases: Vec<(LaneState, &str)> = vec![
            (LaneState { ring: vec![0.0; 3], ..good.clone() }, "ring length"),
            (LaneState { count: 5, ..good.clone() }, "count exceeds window"),
            (LaneState { head: 4, ..good.clone() }, "head out of range"),
            (LaneState { count: 2, long_count: 3, ..good.clone() }, "long > count"),
            (LaneState { short_sum: f64::NAN, ..good.clone() }, "non-finite sum"),
        ];
        for (bad, what) in cases {
            let err = store.restore_lane(0, &bad).unwrap_err();
            assert!(
                matches!(err, Error::InvalidPersistedState { .. }),
                "{what}: unexpected {err:?}"
            );
        }
        // Full-history store rejects ring-bearing state.
        let mut flat = BatchStore::new(b28(), 1);
        assert!(matches!(flat.restore_lane(0, &good), Err(Error::InvalidPersistedState { .. })));
        assert!(flat.restore_lane(0, &LaneState { ring: Vec::new(), ..good }).is_ok());
    }

    #[test]
    fn from_state_resumes_rng_stream() {
        let mut rng = CounterRng::for_stream(5, 42);
        for _ in 0..7 {
            rng.next_u64();
        }
        let (key, ctr) = rng.state();
        let mut resumed = CounterRng::from_state(key, ctr);
        for _ in 0..10 {
            assert_eq!(resumed.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn store_config_getters() {
        let store = BatchStore::with_window(b28(), 3, 7).min_history(4);
        assert_eq!(store.window(), Some(7));
        assert_eq!(store.required_history(), 4);
        assert_eq!(BatchStore::new(b28(), 1).window(), None);
    }

    #[test]
    fn vertex_names_match_paper() {
        assert_eq!(VertexKind::Det.name(), "DET");
        assert_eq!(VertexKind::Toi.name(), "TOI");
        assert_eq!(VertexKind::BDet.name(), "b-DET");
        assert_eq!(VertexKind::NRand.name(), "N-Rand");
        assert_eq!(VertexKind::ColdStart.name(), "N-Rand");
    }
}
