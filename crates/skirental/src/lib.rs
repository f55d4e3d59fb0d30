//! Constrained ski-rental online algorithms for automotive idling reduction.
//!
//! This crate is the paper's primary contribution (Dong, Zeng, Chen,
//! *A Cost Efficient Online Algorithm for Automotive Idling Reduction*,
//! DAC 2014): the vehicle's stop-start decision is a ski-rental problem
//! with break-even interval `B = cost_restart / cost_idling_per_second`,
//! and knowing the two statistics `μ_B⁻` (expected length of short stops)
//! and `q_B⁺` (probability of a long stop) lets an online policy achieve
//! the minimax expected competitive ratio over all consistent stop-length
//! distributions.
//!
//! # Modules
//!
//! * [`cost`] — the offline/online cost functions and competitive ratio of
//!   Section 2 (eqs. (2)–(4)), plus the [`BreakEven`] newtype.
//! * [`policy`] — the [`Policy`] trait and the six strategies evaluated in
//!   the paper: [`policy::Nev`], [`policy::Toi`], [`policy::Det`],
//!   [`policy::BDet`], [`policy::NRand`], [`policy::MomRand`].
//! * [`constrained`] — the constrained ski-rental solver of Sections 3–4:
//!   [`ConstrainedStats`] computes the four vertex costs, selects the
//!   optimal strategy ([`constrained::StrategyChoice`]), and cross-checks
//!   the closed form against a general LP solve.
//! * [`analysis`] — evaluating policies on stop traces: expected cost,
//!   empirical competitive ratio (eq. (5)), and Monte-Carlo simulation.
//! * [`batch`] — the structure-of-arrays batched decision engine:
//!   per-stop decisions for a whole shard of vehicles per call,
//!   bit-identical to the scalar adaptive controller.
//! * [`adversary`] — worst-case distribution constructions from the
//!   paper's proofs (Appendix A, the b-DET two-point argument).
//! * [`fleet_eval`] — the Figure-4 machinery: per-vehicle CR for every
//!   strategy, win counts, and per-area summaries.
//! * [`multislope`] — the additive multislope ("rent, lease, or buy")
//!   generalization the paper cites as related work, with the
//!   2-competitive lower-envelope strategy.
//! * [`bayes`] — the average-case (distribution-aware) fixed-threshold
//!   baseline in the spirit of Fujiwara & Iwama.
//! * [`estimator`] — online estimation of `(μ_B⁻, q_B⁺)` and the adaptive
//!   proposed policy a deployed controller would run.
//! * [`degraded`] — the trust-gated degradation ladder wrapping the
//!   adaptive controller: full proposed policy on healthy input, DET when
//!   the estimate goes stale, N-Rand when the sensor stream is untrusted.
//! * [`summary`] — sufficient statistics of a stop trace
//!   ([`StopSummary`]): sort once, then answer every per-trace cost query
//!   (empirical CR, constrained moments, hindsight-optimal threshold) in
//!   O(log n).
//! * [`parallel`] — deterministic chunked map-reduce on scoped threads,
//!   shared by the fleet evaluator, the bootstrap resampler, and the
//!   bench binaries.
//! * [`theory`] — the paper's numbered equations as an executable index,
//!   each cross-checked against the production implementation.
//!
//! # Example
//!
//! ```
//! use skirental::{BreakEven, ConstrainedStats};
//! use skirental::policy::Policy;
//!
//! // A stop-start vehicle (B = 28 s) in traffic where short stops average
//! // contribution μ_B⁻ = 5 s and 30 % of stops are long.
//! let b = BreakEven::new(28.0)?;
//! let stats = ConstrainedStats::new(b, 5.0, 0.30)?;
//!
//! // The proposed algorithm picks the minimax-optimal strategy…
//! let policy = stats.optimal_policy();
//! // …and guarantees a worst-case expected competitive ratio no worse than
//! // any of the four candidate strategies.
//! assert!(stats.worst_case_cr() <= 2.0);
//! let cost_40s_stop = policy.expected_cost(40.0);
//! assert!(cost_40s_stop > 0.0);
//! # Ok::<(), skirental::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adversary;
pub mod analysis;
pub mod batch;
pub mod bayes;
pub mod constrained;
pub mod cost;
pub mod degraded;
pub mod estimator;
pub mod fleet_eval;
pub mod multislope;
mod obs;
pub mod parallel;
pub mod policy;
pub mod risk;
pub mod summary;
pub mod theory;

pub use constrained::{ConstrainedStats, StrategyChoice, VertexCosts};
pub use cost::BreakEven;
pub use degraded::{DegradationConfig, DegradedController, DegradedOutcome, TrustLevel};
pub use fleet_eval::{FleetReport, Strategy};
pub use numeric::vertex::e_ratio;
pub use policy::Policy;
pub use stopmodel::ConstrainedMoments;
pub use summary::StopSummary;

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The break-even interval must be a positive finite number of seconds.
    InvalidBreakEven(f64),
    /// A `(μ_B⁻, q_B⁺)` pair that no stop-length distribution realizes.
    InvalidMoments(stopmodel::moments::InvalidMomentsError),
    /// A policy threshold outside the valid range `[0, B]`.
    InvalidThreshold {
        /// The offending threshold (seconds).
        threshold: f64,
        /// The break-even interval (seconds).
        break_even: f64,
    },
    /// A negative or non-finite mean stop length.
    InvalidMean(f64),
    /// A stop-length observation that is negative or non-finite.
    ///
    /// Produced by the non-panicking `try_observe` paths; the payload is
    /// the raw bits of the offending reading so NaN payloads survive
    /// equality comparisons.
    InvalidStop {
        /// The offending observation, as raw `f64` bits
        /// (`f64::from_bits` recovers the value).
        bits: u64,
    },
    /// An operation that needs at least one stop received none.
    EmptyTrace,
    /// Paired slices (true stops and sensor readings) whose lengths must
    /// match did not.
    MismatchedLengths {
        /// Length of the true-stop slice.
        stops: usize,
        /// Length of the observation slice.
        observations: usize,
    },
    /// An adversary construction that is impossible for the given moments.
    InfeasibleAdversary {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// An invalid multislope (multi-state power-down) system.
    InvalidSlopes {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A persisted state blob (lane export, estimator state, ladder
    /// state) that violates the invariants of the component it would be
    /// restored into. The component is left untouched.
    InvalidPersistedState {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A batched-shard API received a parallel array whose length does
    /// not match the store's lane count.
    ShardShapeMismatch {
        /// Lanes (vehicles) in the batch store.
        lanes: usize,
        /// Which slot was mis-sized (`"rngs"`, `"thresholds"`,
        /// `"vertices"`, or `"observations"`).
        slot: &'static str,
        /// The offending slice's length.
        len: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidBreakEven(b) => {
                write!(f, "break-even interval must be positive and finite, got {b}")
            }
            Self::InvalidMoments(e) => write!(f, "{e}"),
            Self::InvalidThreshold { threshold, break_even } => write!(
                f,
                "threshold {threshold} outside the optimal strategy space [0, {break_even}]"
            ),
            Self::InvalidMean(m) => {
                write!(f, "mean stop length must be non-negative and finite, got {m}")
            }
            Self::InvalidStop { bits } => {
                write!(
                    f,
                    "stop observation must be non-negative and finite, got {}",
                    f64::from_bits(*bits)
                )
            }
            Self::EmptyTrace => write!(f, "stop trace must contain at least one stop"),
            Self::MismatchedLengths { stops, observations } => write!(
                f,
                "need one observation per stop: {stops} stops but {observations} observations"
            ),
            Self::InfeasibleAdversary { reason } => {
                write!(f, "adversary distribution infeasible: {reason}")
            }
            Self::InvalidSlopes { reason } => {
                write!(f, "invalid multislope system: {reason}")
            }
            Self::InvalidPersistedState { reason } => {
                write!(f, "persisted state invalid: {reason}")
            }
            Self::ShardShapeMismatch { lanes, slot, len } => write!(
                f,
                "batched shard arrays need one slot per lane: {slot} has {len} for {lanes} lanes"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidMoments(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stopmodel::moments::InvalidMomentsError> for Error {
    fn from(e: stopmodel::moments::InvalidMomentsError) -> Self {
        Self::InvalidMoments(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_ratio_value() {
        assert!((e_ratio() - 1.581_976_706_869_326_6).abs() < 1e-12);
    }

    #[test]
    fn error_display_nonempty() {
        let errs = [
            Error::InvalidBreakEven(-1.0),
            Error::InvalidThreshold { threshold: 50.0, break_even: 28.0 },
            Error::InvalidMean(f64::NAN),
            Error::InvalidStop { bits: f64::NAN.to_bits() },
            Error::EmptyTrace,
            Error::MismatchedLengths { stops: 3, observations: 2 },
            Error::InfeasibleAdversary { reason: "q = 1" },
            Error::InvalidSlopes { reason: "dominated state" },
            Error::InvalidPersistedState { reason: "ring head outside the window" },
            Error::ShardShapeMismatch { lanes: 4, slot: "thresholds", len: 3 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_from_moments() {
        let m = stopmodel::ConstrainedMoments::new(28.0, 99.0, 0.9).unwrap_err();
        let e: Error = m.into();
        assert!(matches!(e, Error::InvalidMoments(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
        assert_send_sync::<BreakEven>();
    }
}
