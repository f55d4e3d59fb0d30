//! Seedable sensor-fault injection over stop-event streams.
//!
//! The analysis crates assume every stop is observed exactly; a deployed
//! stop-start ECU reads a CAN bus, which drops frames, repeats them,
//! delivers them out of order, saturates counters, and occasionally emits
//! plain garbage. This module synthesizes those failure modes on top of a
//! clean trace so the sanitization boundary
//! ([`crate::sanitize::TraceSanitizer`]) and the degraded-mode controller
//! can be exercised under controlled, reproducible corruption.
//!
//! A [`FaultPlan`] is an ordered list of [`Fault`] injectors applied to a
//! `(start_s, duration_s)` event stream. Like everything else in
//! `drivesim`, injection is deterministic under a fixed seed: the same
//! plan, input, and seed produce bit-identical corrupted output.
//!
//! Two application modes cover the two consumers:
//!
//! * [`FaultPlan::apply`] corrupts an **event stream** — events may be
//!   dropped, duplicated, or delivered with skewed timestamps, so the
//!   output length can differ from the input.
//! * [`FaultPlan::corrupt_observations`] corrupts a **reading stream**
//!   aligned with the true stops (what an online estimator consumes):
//!   every input has exactly one output reading, with [`Fault::Dropout`]
//!   encoded as a `NaN` reading (the report for that stop never arrived)
//!   and the stream-shape faults ([`Fault::Duplicate`],
//!   [`Fault::ClockSkew`]) inert because alignment is fixed.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;
use stopmodel::sampling::standard_normal;
use stopmodel::uniform01;

/// One class of sensor/bus fault, applied independently per event with a
/// given rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The event is lost entirely (dropped CAN frame).
    Dropout {
        /// Per-event drop probability in `[0, 1]`.
        rate: f64,
    },
    /// The event is delivered twice (retransmission without dedup).
    Duplicate {
        /// Per-event duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// The event's start timestamp is perturbed by up to `±max_skew_s`,
    /// which can reorder the stream (clock drift, late bus arbitration).
    ClockSkew {
        /// Per-event skew probability in `[0, 1]`.
        rate: f64,
        /// Maximum absolute timestamp perturbation, seconds.
        max_skew_s: f64,
    },
    /// The duration is censored at `cap_s` (a saturating or resetting
    /// duration counter under-reports long stops).
    Censor {
        /// Per-event censoring probability in `[0, 1]`.
        rate: f64,
        /// Censoring cap, seconds.
        cap_s: f64,
    },
    /// Zero-mean Gaussian noise of standard deviation `sigma_s` is added
    /// to the duration. Deliberately unclamped: a noisy sensor can and
    /// does report negative durations, and downstream code must cope.
    Noise {
        /// Per-event noise probability in `[0, 1]`.
        rate: f64,
        /// Noise standard deviation, seconds.
        sigma_s: f64,
    },
    /// The sensor freezes: runs of `run` consecutive readings all report
    /// the pegged value `value_s` (a stuck duration register). Runs start
    /// at a per-event probability of `rate / run`, so `rate` is the
    /// expected *fraction of readings* frozen.
    StuckAt {
        /// Expected fraction of readings frozen, in `[0, 1]`.
        rate: f64,
        /// Length of each frozen run, events.
        run: usize,
        /// The pegged reading, seconds.
        value_s: f64,
    },
    /// The duration is replaced by unambiguous garbage: `NaN`, `+∞`, or a
    /// negated value (sign-bit glitch).
    Corrupt {
        /// Per-event corruption probability in `[0, 1]`.
        rate: f64,
    },
}

/// A fault configuration that no sensor model realizes.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidFaultError {
    /// The offending injector.
    pub fault: Fault,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for InvalidFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault {:?}: {}", self.fault, self.reason)
    }
}

impl std::error::Error for InvalidFaultError {}

impl Fault {
    /// The per-event rate of this fault.
    #[must_use]
    pub fn rate(&self) -> f64 {
        match *self {
            Self::Dropout { rate }
            | Self::Duplicate { rate }
            | Self::ClockSkew { rate, .. }
            | Self::Censor { rate, .. }
            | Self::Noise { rate, .. }
            | Self::StuckAt { rate, .. }
            | Self::Corrupt { rate } => rate,
        }
    }

    fn validate(self) -> Result<Self, InvalidFaultError> {
        let bad = |reason| Err(InvalidFaultError { fault: self, reason });
        if !(self.rate().is_finite() && (0.0..=1.0).contains(&self.rate())) {
            return bad("rate must be in [0, 1]");
        }
        match self {
            Self::ClockSkew { max_skew_s: p, .. } | Self::Censor { cap_s: p, .. } => {
                if !(p.is_finite() && p >= 0.0) {
                    return bad("parameter must be finite and non-negative");
                }
            }
            Self::Noise { sigma_s, .. } => {
                if !(sigma_s.is_finite() && sigma_s >= 0.0) {
                    return bad("sigma must be finite and non-negative");
                }
            }
            Self::StuckAt { run, value_s, .. } => {
                if run == 0 {
                    return bad("run length must be positive");
                }
                if value_s.is_nan() {
                    return bad("pegged value must not be NaN (use Corrupt for garbage)");
                }
            }
            Self::Dropout { .. } | Self::Duplicate { .. } | Self::Corrupt { .. } => {}
        }
        Ok(self)
    }
}

/// An ordered, validated list of fault injectors.
///
/// Faults are applied in sequence: the output of one injector is the
/// input of the next, so e.g. a duplicated event can subsequently be
/// corrupted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Builds a plan from injectors, validating each.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFaultError`] for a rate outside `[0, 1]` or a
    /// malformed fault parameter.
    pub fn new(faults: Vec<Fault>) -> Result<Self, InvalidFaultError> {
        let faults = faults.into_iter().map(Fault::validate).collect::<Result<Vec<_>, _>>()?;
        Ok(Self { faults })
    }

    /// The no-fault plan: both application modes are the identity.
    #[must_use]
    pub fn clean() -> Self {
        Self::default()
    }

    /// The configured injectors, in application order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects nothing (every mode is the identity).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults.iter().all(|f| f.rate() == 0.0)
    }

    /// Applies the plan to a timestamped `(start_s, duration_s)` event
    /// stream. The output may be shorter (dropout), longer (duplication),
    /// out of order (clock skew), or contain non-finite/negative values
    /// (corruption) — it is deliberately *not* a valid
    /// [`crate::VehicleTrace`] and should be fed through
    /// [`crate::sanitize::TraceSanitizer`] or a fault-tolerant consumer.
    ///
    /// Deterministic: the same plan, events, and seed yield bit-identical
    /// output.
    #[must_use]
    pub fn apply(&self, events: &[(f64, f64)], seed: u64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream: Vec<(f64, f64)> = events.to_vec();
        for fault in &self.faults {
            stream = apply_one(*fault, &stream, /* aligned = */ false, &mut rng);
        }
        stream
    }

    /// Applies the plan to the **readings** for a stop sequence, keeping
    /// one output per input: `out[i]` is what the sensor reported for
    /// `stops[i]`. [`Fault::Dropout`] becomes a `NaN` reading;
    /// [`Fault::Duplicate`] and [`Fault::ClockSkew`] are inert (there are
    /// no timestamps and alignment is fixed).
    ///
    /// Deterministic under a fixed seed, like [`FaultPlan::apply`].
    #[must_use]
    pub fn corrupt_observations(&self, stops: &[f64], seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let events: Vec<(f64, f64)> = stops.iter().map(|&y| (0.0, y)).collect();
        let mut stream = events;
        for fault in &self.faults {
            stream = apply_one(*fault, &stream, /* aligned = */ true, &mut rng);
        }
        stream.into_iter().map(|(_, d)| d).collect()
    }
}

/// Applies one injector over the stream. In aligned mode the event count
/// is preserved (dropout ⇒ NaN duration, duplicate/skew ⇒ no-op).
///
/// When the decision tracer is active, every event the injector actually
/// corrupts records a `FaultApplied` against its input index. Tracing
/// consumes no RNG — the draw pattern is identical with and without it.
fn apply_one(
    fault: Fault,
    stream: &[(f64, f64)],
    aligned: bool,
    rng: &mut StdRng,
) -> Vec<(f64, f64)> {
    let fired = |index: usize, name: &str| {
        if obsv::tracer::active() {
            obsv::tracer::record(obsv::TraceEvent::FaultApplied {
                event_index: index as u64,
                fault: name.to_string(),
            });
        }
    };
    let mut out = Vec::with_capacity(stream.len());
    // Stuck-at run state: remaining frozen readings.
    let mut frozen = 0usize;
    for (i, &(start, duration)) in stream.iter().enumerate() {
        match fault {
            Fault::Dropout { rate } => {
                if uniform01(rng) < rate {
                    fired(i, "dropout");
                    if aligned {
                        out.push((start, f64::NAN));
                    }
                } else {
                    out.push((start, duration));
                }
            }
            Fault::Duplicate { rate } => {
                out.push((start, duration));
                if uniform01(rng) < rate && !aligned {
                    fired(i, "duplicate");
                    out.push((start, duration));
                }
            }
            Fault::ClockSkew { rate, max_skew_s } => {
                let start = if uniform01(rng) < rate && !aligned {
                    fired(i, "clock_skew");
                    start + (2.0 * uniform01(rng) - 1.0) * max_skew_s
                } else {
                    start
                };
                out.push((start, duration));
            }
            Fault::Censor { rate, cap_s } => {
                let duration = if uniform01(rng) < rate {
                    fired(i, "censor");
                    duration.min(cap_s)
                } else {
                    duration
                };
                out.push((start, duration));
            }
            Fault::Noise { rate, sigma_s } => {
                let duration = if uniform01(rng) < rate {
                    fired(i, "noise");
                    duration + sigma_s * standard_normal(rng)
                } else {
                    duration
                };
                out.push((start, duration));
            }
            Fault::StuckAt { rate, run, value_s } => {
                if frozen > 0 {
                    frozen -= 1;
                    fired(i, "stuck_at");
                    out.push((start, value_s));
                } else if uniform01(rng) < rate / run as f64 {
                    frozen = run - 1;
                    fired(i, "stuck_at");
                    out.push((start, value_s));
                } else {
                    out.push((start, duration));
                }
            }
            Fault::Corrupt { rate } => {
                let duration = if uniform01(rng) < rate {
                    fired(i, "corrupt");
                    match rng.next_u64() % 3 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        _ => -duration.abs() - 1.0,
                    }
                } else {
                    duration
                };
                out.push((start, duration));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metronome(n: usize) -> Vec<(f64, f64)> {
        (0..n).map(|i| (i as f64 * 60.0, 10.0 + (i % 7) as f64)).collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let ev = metronome(50);
        let plan = FaultPlan::clean();
        assert!(plan.is_clean());
        assert_eq!(plan.apply(&ev, 1), ev);
        let durations: Vec<f64> = ev.iter().map(|&(_, d)| d).collect();
        assert_eq!(plan.corrupt_observations(&durations, 1), durations);
    }

    #[test]
    fn zero_rate_faults_are_identity() {
        let ev = metronome(80);
        let plan = FaultPlan::new(vec![
            Fault::Dropout { rate: 0.0 },
            Fault::Corrupt { rate: 0.0 },
            Fault::StuckAt { rate: 0.0, run: 10, value_s: 900.0 },
        ])
        .unwrap();
        assert!(plan.is_clean());
        assert_eq!(plan.apply(&ev, 7), ev);
    }

    #[test]
    fn deterministic_under_seed() {
        let ev = metronome(200);
        let plan = FaultPlan::new(vec![
            Fault::Dropout { rate: 0.1 },
            Fault::Duplicate { rate: 0.1 },
            Fault::ClockSkew { rate: 0.2, max_skew_s: 120.0 },
            Fault::Noise { rate: 0.5, sigma_s: 3.0 },
            Fault::Corrupt { rate: 0.05 },
        ])
        .unwrap();
        // Compare bit patterns: corruption injects NaN, and NaN != NaN
        // would fail a value comparison of identical streams.
        let bits = |v: &[(f64, f64)]| {
            v.iter().map(|&(s, d)| (s.to_bits(), d.to_bits())).collect::<Vec<_>>()
        };
        let a = plan.apply(&ev, 42);
        let b = plan.apply(&ev, 42);
        assert_eq!(bits(&a), bits(&b));
        let c = plan.apply(&ev, 43);
        assert_ne!(bits(&a), bits(&c), "different seeds should corrupt differently");
    }

    #[test]
    fn dropout_shortens_duplication_lengthens() {
        let ev = metronome(500);
        let dropped = FaultPlan::new(vec![Fault::Dropout { rate: 0.3 }]).unwrap().apply(&ev, 3);
        assert!(dropped.len() < ev.len());
        let duped = FaultPlan::new(vec![Fault::Duplicate { rate: 0.3 }]).unwrap().apply(&ev, 3);
        assert!(duped.len() > ev.len());
    }

    #[test]
    fn observations_stay_aligned() {
        let stops: Vec<f64> = (0..300).map(|i| 5.0 + (i % 11) as f64).collect();
        let plan = FaultPlan::new(vec![
            Fault::Dropout { rate: 0.2 },
            Fault::Duplicate { rate: 0.5 },
            Fault::ClockSkew { rate: 0.5, max_skew_s: 100.0 },
            Fault::Corrupt { rate: 0.1 },
        ])
        .unwrap();
        let obs = plan.corrupt_observations(&stops, 9);
        assert_eq!(obs.len(), stops.len(), "aligned mode must preserve length");
        assert!(obs.iter().any(|d| d.is_nan()), "dropout should appear as NaN readings");
    }

    #[test]
    fn stuck_at_freezes_runs() {
        let stops: Vec<f64> = (0..10_000).map(|i| 1.0 + (i % 5) as f64 * 0.1).collect();
        let plan =
            FaultPlan::new(vec![Fault::StuckAt { rate: 0.2, run: 50, value_s: 900.0 }]).unwrap();
        let obs = plan.corrupt_observations(&stops, 11);
        let frozen = obs.iter().filter(|&&d| d == 900.0).count();
        // Expected fraction ≈ rate; wide tolerance for burst granularity.
        let frac = frozen as f64 / obs.len() as f64;
        assert!((0.08..=0.4).contains(&frac), "frozen fraction {frac}");
        // Runs are contiguous: find one and check its length.
        let first = obs.iter().position(|&d| d == 900.0).unwrap();
        assert!(obs[first..first + 50].iter().all(|&d| d == 900.0));
    }

    #[test]
    fn censor_caps_durations() {
        let stops = vec![100.0; 200];
        let plan = FaultPlan::new(vec![Fault::Censor { rate: 0.5, cap_s: 20.0 }]).unwrap();
        let obs = plan.corrupt_observations(&stops, 13);
        assert!(obs.iter().all(|&d| d == 100.0 || d == 20.0));
        assert!(obs.contains(&20.0));
    }

    #[test]
    fn corrupt_produces_garbage_classes() {
        let stops = vec![15.0; 3000];
        let plan = FaultPlan::new(vec![Fault::Corrupt { rate: 1.0 }]).unwrap();
        let obs = plan.corrupt_observations(&stops, 17);
        assert!(obs.iter().any(|d| d.is_nan()));
        assert!(obs.iter().any(|d| d.is_infinite()));
        assert!(obs.iter().any(|&d| d < 0.0));
        assert!(obs.iter().all(|&d| !(d.is_finite() && d >= 0.0)));
    }

    #[test]
    fn skew_can_reorder() {
        let ev = metronome(300);
        let plan = FaultPlan::new(vec![Fault::ClockSkew { rate: 0.5, max_skew_s: 200.0 }]).unwrap();
        let skewed = plan.apply(&ev, 19);
        let monotone = skewed.windows(2).all(|w| w[0].0 <= w[1].0);
        assert!(!monotone, "large skew should break chronological order");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultPlan::new(vec![Fault::Dropout { rate: 1.5 }]).is_err());
        assert!(FaultPlan::new(vec![Fault::Dropout { rate: -0.1 }]).is_err());
        assert!(FaultPlan::new(vec![Fault::Dropout { rate: f64::NAN }]).is_err());
        assert!(FaultPlan::new(vec![Fault::Noise { rate: 0.5, sigma_s: -1.0 }]).is_err());
        assert!(FaultPlan::new(vec![Fault::StuckAt { rate: 0.5, run: 0, value_s: 1.0 }]).is_err());
        assert!(
            FaultPlan::new(vec![Fault::StuckAt { rate: 0.5, run: 5, value_s: f64::NAN }]).is_err()
        );
        assert!(FaultPlan::new(vec![Fault::Censor { rate: 0.5, cap_s: f64::INFINITY }]).is_err());
        let err = FaultPlan::new(vec![Fault::Corrupt { rate: 2.0 }]).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
