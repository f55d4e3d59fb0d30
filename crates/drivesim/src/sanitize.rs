//! Trace sanitization: the boundary between raw sensor streams and the
//! panic-on-garbage analysis crates.
//!
//! Everything downstream of this module — `VehicleTrace`,
//! `MomentEstimator`, the powertrain state machine — is allowed to assume
//! clean input: finite, non-negative durations and chronologically ordered
//! starts. Raw `(start_s, duration_s)` streams off a bus guarantee none of
//! that (see [`crate::faults`] for the failure modes). A
//! [`TraceSanitizer`] turns an arbitrary stream into a clean one and a
//! [`SanitizeReport`] saying exactly what was quarantined, per anomaly
//! class, so callers can alarm on anomaly *rates* rather than dying on
//! anomaly *instances*.
//!
//! Sanitization is conservative and deterministic (no RNG): anomalous
//! events are **dropped**, never repaired, so every surviving event is one
//! the sensor actually reported with a plausible value. It is also
//! idempotent — sanitizing already-clean output is the identity.

use std::fmt;

/// Per-class counts of what a sanitization pass dropped (and kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanitizeReport {
    /// Events in the raw input stream.
    pub input_events: u64,
    /// Events that survived every check.
    pub clean_events: u64,
    /// Dropped: NaN or ±∞ in the start or duration field.
    pub non_finite: u64,
    /// Dropped: finite but negative duration, or negative start.
    pub negative: u64,
    /// Dropped: start timestamp earlier than an already-accepted event
    /// (out-of-order delivery / clock skew beyond repair).
    pub out_of_order: u64,
    /// Dropped: same start as the previously accepted event, within
    /// tolerance (retransmitted frame).
    pub duplicate: u64,
    /// Dropped: duration above the plausibility cap.
    pub implausible: u64,
    /// Dropped: excess readings in a stuck-at run (identical durations
    /// beyond the allowed run length).
    pub stuck: u64,
}

impl SanitizeReport {
    /// Total dropped events, over all anomaly classes.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.input_events - self.clean_events
    }

    /// Fraction of input events dropped (`0.0` for an empty input).
    #[must_use]
    pub fn anomaly_rate(&self) -> f64 {
        if self.input_events == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.input_events as f64
        }
    }

    /// Whether the pass dropped nothing.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.dropped() == 0
    }
}

impl fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} events clean ({} non-finite, {} negative, {} out-of-order, \
             {} duplicate, {} implausible, {} stuck)",
            self.clean_events,
            self.input_events,
            self.non_finite,
            self.negative,
            self.out_of_order,
            self.duplicate,
            self.implausible,
            self.stuck
        )
    }
}

/// Configurable sanitization boundary for `(start_s, duration_s)` streams.
///
/// The default configuration enforces only the *structural* invariants the
/// analysis crates assume (finite, non-negative, chronological, deduped);
/// the plausibility cap and stuck-run detection are opt-in knobs because
/// their correct values depend on the sensor.
///
/// ```
/// use drivesim::sanitize::TraceSanitizer;
///
/// let raw = [(0.0, 10.0), (60.0, f64::NAN), (90.0, 7.0), (30.0, 5.0), (120.0, 8.0)];
/// let (clean, report) = TraceSanitizer::default().sanitize(&raw);
/// assert_eq!(clean, vec![(0.0, 10.0), (90.0, 7.0), (120.0, 8.0)]);
/// assert_eq!(report.non_finite, 1);
/// assert_eq!(report.out_of_order, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSanitizer {
    /// Durations above this are dropped as implausible. Default `+∞`
    /// (disabled): synthesized heavy-tail traces legitimately contain
    /// hour-long stops, so a finite default would quarantine real data.
    pub max_duration_s: f64,
    /// More than this many *consecutive identical* durations are treated
    /// as a stuck sensor; the first `max_stuck_run` of each run are kept,
    /// the rest dropped. `None` (default) disables the check.
    pub max_stuck_run: Option<usize>,
    /// Two accepted events whose starts differ by at most this are
    /// considered duplicates (the later one is dropped). Default `0.0`:
    /// only exact retransmissions are deduped.
    pub duplicate_eps_s: f64,
}

impl Default for TraceSanitizer {
    fn default() -> Self {
        Self { max_duration_s: f64::INFINITY, max_stuck_run: None, duplicate_eps_s: 0.0 }
    }
}

impl TraceSanitizer {
    /// A sanitizer with only the structural checks enabled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the duration plausibility cap.
    #[must_use]
    pub fn max_duration_s(mut self, cap: f64) -> Self {
        self.max_duration_s = cap;
        self
    }

    /// Enables stuck-run detection with the given maximum run length.
    #[must_use]
    pub fn max_stuck_run(mut self, run: usize) -> Self {
        self.max_stuck_run = Some(run.max(1));
        self
    }

    /// Sets the duplicate-start tolerance, seconds.
    #[must_use]
    pub fn duplicate_eps_s(mut self, eps: f64) -> Self {
        self.duplicate_eps_s = eps;
        self
    }

    /// Sanitizes a raw `(start_s, duration_s)` stream into clean events
    /// plus a per-class report.
    ///
    /// Guarantees on the output, for **arbitrary** input (any `f64`,
    /// including NaN/±∞):
    ///
    /// * every duration is finite and `>= 0`;
    /// * every start is finite and `>= 0`;
    /// * starts are non-decreasing;
    /// * output length ≤ input length, and
    ///   `report.input_events - report.clean_events` equals the sum of the
    ///   per-class drop counts;
    /// * re-sanitizing the output is the identity (idempotence).
    #[must_use]
    pub fn sanitize(&self, events: &[(f64, f64)]) -> (Vec<(f64, f64)>, SanitizeReport) {
        let mut report = SanitizeReport { input_events: events.len() as u64, ..Default::default() };
        let mut clean: Vec<(f64, f64)> = Vec::with_capacity(events.len());
        // Start of the last accepted event; input starts are required to
        // be >= 0, so -∞ makes the first comparison behave.
        let mut prev_start = f64::NEG_INFINITY;
        // Current run of identical accepted durations (for stuck-at).
        let mut run_len = 0usize;
        // Trace only the *dropped* events (absence of a verdict means the
        // event passed), so a clean stream stays trace-silent.
        let drop_verdict = |index: usize, class: &str, start: f64, duration: f64| {
            if obsv::tracer::active() {
                obsv::tracer::record(obsv::TraceEvent::SanitizeVerdict {
                    event_index: index as u64,
                    class: class.to_string(),
                    start_s: start,
                    duration_s: duration,
                });
            }
        };
        for (i, &(start, duration)) in events.iter().enumerate() {
            if !start.is_finite() || !duration.is_finite() {
                report.non_finite += 1;
                drop_verdict(i, "non_finite", start, duration);
                continue;
            }
            if start < 0.0 || duration < 0.0 {
                report.negative += 1;
                drop_verdict(i, "negative", start, duration);
                continue;
            }
            if duration > self.max_duration_s {
                report.implausible += 1;
                drop_verdict(i, "implausible", start, duration);
                continue;
            }
            if start < prev_start {
                report.out_of_order += 1;
                drop_verdict(i, "out_of_order", start, duration);
                continue;
            }
            if !clean.is_empty() && (start - prev_start) <= self.duplicate_eps_s {
                report.duplicate += 1;
                drop_verdict(i, "duplicate", start, duration);
                continue;
            }
            if let Some(max_run) = self.max_stuck_run {
                // `total_cmp` so the run comparison is a total order even
                // though the accepted values are always finite here.
                if run_len > 0 && clean[clean.len() - 1].1.total_cmp(&duration).is_eq() {
                    if run_len >= max_run {
                        report.stuck += 1;
                        drop_verdict(i, "stuck", start, duration);
                        continue;
                    }
                    run_len += 1;
                } else {
                    run_len = 1;
                }
            }
            prev_start = start;
            clean.push((start, duration));
        }
        report.clean_events = clean.len() as u64;
        let m = crate::obs::metrics();
        m.sanitize_calls.inc();
        m.events_in.add(report.input_events);
        m.events_clean.add(report.clean_events);
        m.dropped_non_finite.add(report.non_finite);
        m.dropped_negative.add(report.negative);
        m.dropped_out_of_order.add(report.out_of_order);
        m.dropped_duplicate.add(report.duplicate);
        m.dropped_implausible.add(report.implausible);
        m.dropped_stuck.add(report.stuck);
        (clean, report)
    }

    /// Sanitizes a bare duration stream (no timestamps): the reading-level
    /// variant for estimator feeds. Only the finite/negative/implausible/
    /// stuck checks apply.
    #[must_use]
    pub fn sanitize_durations(&self, durations: &[f64]) -> (Vec<f64>, SanitizeReport) {
        // Reuse the event path with synthetic strictly-increasing starts
        // so the order/duplicate checks never fire.
        let events: Vec<(f64, f64)> =
            durations.iter().enumerate().map(|(i, &d)| (i as f64, d)).collect();
        let (clean, mut report) = self.sanitize(&events);
        debug_assert_eq!(report.out_of_order + report.duplicate, 0);
        // Synthetic starts can't trip the start checks, but a NaN duration
        // still lands in `non_finite`, so the report carries over as-is.
        report.clean_events = clean.len() as u64;
        (clean.into_iter().map(|(_, d)| d).collect(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_is_identity() {
        let ev = vec![(0.0, 5.0), (60.0, 12.0), (120.0, 3.0)];
        let (clean, report) = TraceSanitizer::default().sanitize(&ev);
        assert_eq!(clean, ev);
        assert!(report.is_clean());
        assert_eq!(report.anomaly_rate(), 0.0);
    }

    #[test]
    fn drops_non_finite_and_negative() {
        let ev = vec![
            (0.0, 5.0),
            (10.0, f64::NAN),
            (20.0, f64::INFINITY),
            (f64::NAN, 4.0),
            (30.0, -2.0),
            (-5.0, 4.0),
            (40.0, 6.0),
        ];
        let (clean, report) = TraceSanitizer::default().sanitize(&ev);
        assert_eq!(clean, vec![(0.0, 5.0), (40.0, 6.0)]);
        assert_eq!(report.non_finite, 3);
        assert_eq!(report.negative, 2);
        assert_eq!(report.dropped(), 5);
    }

    #[test]
    fn drops_out_of_order_and_duplicates() {
        let ev = vec![(0.0, 5.0), (60.0, 3.0), (30.0, 9.0), (60.0, 3.0), (90.0, 1.0)];
        let (clean, report) = TraceSanitizer::default().sanitize(&ev);
        assert_eq!(clean, vec![(0.0, 5.0), (60.0, 3.0), (90.0, 1.0)]);
        assert_eq!(report.out_of_order, 1);
        assert_eq!(report.duplicate, 1);
    }

    #[test]
    fn duplicate_eps_dedupes_nearby_starts() {
        let ev = vec![(0.0, 5.0), (0.4, 5.0), (10.0, 2.0)];
        let (clean, report) = TraceSanitizer::default().duplicate_eps_s(0.5).sanitize(&ev);
        assert_eq!(clean, vec![(0.0, 5.0), (10.0, 2.0)]);
        assert_eq!(report.duplicate, 1);
    }

    #[test]
    fn implausible_cap() {
        let ev = vec![(0.0, 5.0), (10.0, 4000.0), (20.0, 30.0)];
        let (clean, report) = TraceSanitizer::default().max_duration_s(3600.0).sanitize(&ev);
        assert_eq!(clean, vec![(0.0, 5.0), (20.0, 30.0)]);
        assert_eq!(report.implausible, 1);
    }

    #[test]
    fn stuck_runs_truncated() {
        let mut ev: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 900.0)).collect();
        ev.push((20.0, 5.0));
        let (clean, report) = TraceSanitizer::default().max_stuck_run(3).sanitize(&ev);
        assert_eq!(clean.len(), 4);
        assert_eq!(report.stuck, 7);
        assert!(clean[..3].iter().all(|&(_, d)| d == 900.0));
        assert_eq!(clean[3], (20.0, 5.0));
        // A new value resets the run counter.
        let ev2 = vec![(0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 1.0), (4.0, 1.0)];
        let (clean2, report2) = TraceSanitizer::default().max_stuck_run(2).sanitize(&ev2);
        assert_eq!(clean2.len(), 5);
        assert!(report2.is_clean());
    }

    #[test]
    fn idempotent() {
        let ev = vec![
            (0.0, 5.0),
            (10.0, f64::NAN),
            (5.0, 9.0),
            (20.0, 900.0),
            (21.0, 900.0),
            (22.0, 900.0),
            (30.0, 1.0),
        ];
        let s = TraceSanitizer::default().max_stuck_run(2).max_duration_s(1000.0);
        let (once, _) = s.sanitize(&ev);
        let (twice, report) = s.sanitize(&once);
        assert_eq!(once, twice);
        assert!(report.is_clean());
    }

    #[test]
    fn duration_stream_variant() {
        let durs = vec![5.0, f64::NAN, -1.0, 12.0, f64::INFINITY, 3.0];
        let (clean, report) = TraceSanitizer::default().sanitize_durations(&durs);
        assert_eq!(clean, vec![5.0, 12.0, 3.0]);
        assert_eq!(report.non_finite, 2);
        assert_eq!(report.negative, 1);
        assert_eq!(report.out_of_order, 0);
    }

    #[test]
    fn empty_input() {
        let (clean, report) = TraceSanitizer::default().sanitize(&[]);
        assert!(clean.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.anomaly_rate(), 0.0);
    }

    #[test]
    fn report_display() {
        let ev = vec![(0.0, 5.0), (10.0, f64::NAN)];
        let (_, report) = TraceSanitizer::default().sanitize(&ev);
        let text = report.to_string();
        assert!(text.contains("1/2"), "{text}");
        assert!(text.contains("1 non-finite"), "{text}");
    }

    #[test]
    fn faulted_stream_comes_back_clean() {
        use crate::faults::{Fault, FaultPlan};
        let ev: Vec<(f64, f64)> = (0..500).map(|i| (i as f64 * 30.0, 8.0)).collect();
        let plan = FaultPlan::new(vec![
            Fault::Duplicate { rate: 0.2 },
            Fault::ClockSkew { rate: 0.2, max_skew_s: 100.0 },
            Fault::Corrupt { rate: 0.2 },
            Fault::Noise { rate: 0.3, sigma_s: 20.0 },
        ])
        .unwrap();
        let raw = plan.apply(&ev, 23);
        let (clean, report) = TraceSanitizer::default().sanitize(&raw);
        assert!(!clean.is_empty());
        assert!(!report.is_clean());
        assert!(clean.iter().all(|&(s, d)| s.is_finite() && d.is_finite() && s >= 0.0 && d >= 0.0));
        assert!(clean.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
