//! Timestamped stop-event traces.
//!
//! A [`VehicleTrace`] is one vehicle's week of driving reduced to its stop
//! events — which is all the idling-reduction analysis consumes. Events
//! carry start timestamps (so the engine controller can replay them in
//! order) and a [`StopCause`] tag (so workload composition can be
//! inspected and ablated).

use crate::area::Area;
use std::fmt;

/// Why the vehicle stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopCause {
    /// Waiting at a traffic light.
    TrafficLight,
    /// A stop sign / yield.
    StopSign,
    /// Congestion, queues, drive-through, parking idling — the heavy tail.
    Congestion,
}

impl StopCause {
    /// All causes.
    pub const ALL: [StopCause; 3] =
        [StopCause::TrafficLight, StopCause::StopSign, StopCause::Congestion];
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::TrafficLight => "traffic light",
            Self::StopSign => "stop sign",
            Self::Congestion => "congestion",
        };
        f.write_str(s)
    }
}

/// One stop event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopEvent {
    /// Start time, seconds since the trace began.
    pub start_s: f64,
    /// Stop duration, seconds.
    pub duration_s: f64,
    /// Cause tag.
    pub cause: StopCause,
}

/// One vehicle's stop-event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleTrace {
    /// Vehicle identifier (unique within a synthesized fleet).
    pub vehicle_id: u32,
    /// Area the vehicle drives in.
    pub area: Area,
    /// Number of days recorded.
    pub days: u32,
    /// Stop events in chronological order.
    pub events: Vec<StopEvent>,
}

impl VehicleTrace {
    /// Creates a trace, validating event ordering and durations.
    ///
    /// # Panics
    ///
    /// Panics if `days == 0`, if any event has a negative/non-finite start
    /// or duration, or if events are not sorted by start time.
    #[must_use]
    pub fn new(vehicle_id: u32, area: Area, days: u32, events: Vec<StopEvent>) -> Self {
        assert!(days > 0, "trace must cover at least one day");
        let mut prev = 0.0;
        for e in &events {
            assert!(
                e.start_s.is_finite() && e.start_s >= prev,
                "events must be chronological (start {} after {prev})",
                e.start_s
            );
            assert!(
                e.duration_s.is_finite() && e.duration_s >= 0.0,
                "durations must be non-negative, got {}",
                e.duration_s
            );
            prev = e.start_s;
        }
        Self { vehicle_id, area, days, events }
    }

    /// The stop lengths, in event order — the input to every ski-rental
    /// evaluation.
    #[must_use]
    pub fn stop_lengths(&self) -> Vec<f64> {
        self.events.iter().map(|e| e.duration_s).collect()
    }

    /// Total number of stops.
    #[must_use]
    pub fn num_stops(&self) -> usize {
        self.events.len()
    }

    /// Average stops per day — the Table-1 quantity.
    #[must_use]
    pub fn stops_per_day(&self) -> f64 {
        self.events.len() as f64 / f64::from(self.days)
    }

    /// Total stopped time, seconds.
    #[must_use]
    pub fn total_stopped_s(&self) -> f64 {
        self.events.iter().map(|e| e.duration_s).sum()
    }

    /// Number of stops with the given cause.
    #[must_use]
    pub fn count_cause(&self, cause: StopCause) -> usize {
        self.events.iter().filter(|e| e.cause == cause).count()
    }

    /// Iterates the events.
    pub fn iter(&self) -> std::slice::Iter<'_, StopEvent> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a VehicleTrace {
    type Item = &'a StopEvent;
    type IntoIter = std::slice::Iter<'a, StopEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: f64, dur: f64) -> StopEvent {
        StopEvent { start_s: start, duration_s: dur, cause: StopCause::TrafficLight }
    }

    #[test]
    fn basic_accessors() {
        let t = VehicleTrace::new(
            7,
            Area::Chicago,
            7,
            vec![ev(10.0, 5.0), ev(100.0, 30.0), ev(500.0, 12.0)],
        );
        assert_eq!(t.num_stops(), 3);
        assert_eq!(t.stop_lengths(), vec![5.0, 30.0, 12.0]);
        assert!((t.stops_per_day() - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.total_stopped_s(), 47.0);
        assert_eq!(t.count_cause(StopCause::TrafficLight), 3);
        assert_eq!(t.count_cause(StopCause::Congestion), 0);
    }

    #[test]
    fn iteration() {
        let t = VehicleTrace::new(1, Area::Atlanta, 1, vec![ev(0.0, 1.0), ev(5.0, 2.0)]);
        assert_eq!(t.iter().count(), 2);
        let durs: Vec<f64> = (&t).into_iter().map(|e| e.duration_s).collect();
        assert_eq!(durs, vec![1.0, 2.0]);
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = VehicleTrace::new(1, Area::California, 7, vec![]);
        assert_eq!(t.num_stops(), 0);
        assert_eq!(t.stops_per_day(), 0.0);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn rejects_unsorted_events() {
        let _ = VehicleTrace::new(1, Area::Chicago, 7, vec![ev(100.0, 5.0), ev(10.0, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "durations must be non-negative")]
    fn rejects_negative_duration() {
        let _ = VehicleTrace::new(1, Area::Chicago, 7, vec![ev(10.0, -5.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn rejects_zero_days() {
        let _ = VehicleTrace::new(1, Area::Chicago, 0, vec![]);
    }

    #[test]
    fn cause_display() {
        assert_eq!(StopCause::Congestion.to_string(), "congestion");
        assert_eq!(StopCause::ALL.len(), 3);
    }
}
